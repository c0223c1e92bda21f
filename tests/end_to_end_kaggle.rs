//! End-to-end integration: the eight Kaggle workloads through the full
//! client/server pipeline, checking the system-level properties the
//! paper's evaluation relies on.

use co_core::server::{MaterializerKind, ReuseKind};
use co_core::{CostModel, OptimizerServer, ServerConfig};
use co_graph::GraphQuery;
use co_workloads::data::{home_credit, HomeCredit, HomeCreditScale};
use co_workloads::kaggle;
use co_workloads::runner::run_sequence;

fn data() -> HomeCredit {
    home_credit(&HomeCreditScale::tiny())
}

fn server(materializer: MaterializerKind, reuse: ReuseKind, budget: u64) -> OptimizerServer {
    sharded_server(materializer, reuse, budget, 1)
}

fn sharded_server(
    materializer: MaterializerKind,
    reuse: ReuseKind,
    budget: u64,
    shards: usize,
) -> OptimizerServer {
    OptimizerServer::new(ServerConfig {
        budget,
        alpha: 0.5,
        materializer,
        reuse,
        cost: CostModel::memory(),
        warmstart: false,
        retry: co_core::RetryPolicy::default(),
        quarantine_after: Some(3),
        shards,
    })
}

#[test]
fn full_sequence_executes_under_every_system() {
    let data = data();
    for (materializer, reuse) in [
        (MaterializerKind::StorageAware, ReuseKind::Linear),
        (MaterializerKind::Greedy, ReuseKind::Linear),
        (MaterializerKind::Helix, ReuseKind::Helix),
        (MaterializerKind::All, ReuseKind::AllMaterialized),
        (MaterializerKind::None, ReuseKind::None),
    ] {
        let srv = server(materializer, reuse, 1 << 22);
        let reports = run_sequence(&srv, kaggle::all_workloads(&data).unwrap()).unwrap();
        assert_eq!(reports.len(), 8);
        for (i, r) in reports.iter().enumerate() {
            assert!(
                r.ops_executed + r.artifacts_loaded > 0,
                "{materializer:?}/{reuse:?} W{} did nothing",
                i + 1
            );
        }
    }
}

#[test]
fn collaborative_beats_baseline_cumulatively() {
    let data = data();
    let co = server(MaterializerKind::StorageAware, ReuseKind::Linear, u64::MAX);
    let kg = server(MaterializerKind::None, ReuseKind::None, 0);
    let co_reports = run_sequence(&co, kaggle::all_workloads(&data).unwrap()).unwrap();
    let kg_reports = run_sequence(&kg, kaggle::all_workloads(&data).unwrap()).unwrap();
    let co_ops: usize = co_reports.iter().map(|r| r.ops_executed).sum();
    let kg_ops: usize = kg_reports.iter().map(|r| r.ops_executed).sum();
    assert!(
        co_ops < kg_ops / 2,
        "reuse should eliminate most repeated operations: CO {co_ops} vs KG {kg_ops}"
    );
    let loads: usize = co_reports.iter().map(|r| r.artifacts_loaded).sum();
    assert!(
        loads > 5,
        "derived workloads must load shared artifacts, got {loads}"
    );
}

#[test]
fn repeated_sequences_are_almost_free() {
    let data = data();
    let co = server(MaterializerKind::StorageAware, ReuseKind::Linear, u64::MAX);
    let first = run_sequence(&co, kaggle::all_workloads(&data).unwrap()).unwrap();
    // Second submission of every workload: only loads, plus the terminal
    // scalar aggregates (scores/means), which are deliberately never
    // materialized (see `co_core::materialize`) and recompute from loaded
    // parents in microseconds.
    let reports = run_sequence(&co, kaggle::all_workloads(&data).unwrap()).unwrap();
    let first_ops: usize = first.iter().map(|r| r.ops_executed).sum();
    let ops: usize = reports.iter().map(|r| r.ops_executed).sum();
    let loads: usize = reports.iter().map(|r| r.artifacts_loaded).sum();
    assert!(
        ops < first_ops / 5,
        "repeat re-ran too much: {ops} of {first_ops}"
    );
    assert!(loads > 0);

    // Everything that did run produced an Aggregate.
    let mut aggregate_ops = 0;
    let mut other_ops = 0;
    for dag in kaggle::all_workloads(&data).unwrap() {
        let (executed, _) = co.run_workload(dag).unwrap();
        for (i, node) in executed.nodes().iter().enumerate() {
            // A freshly measured compute time marks an executed op.
            if executed.producer(co_graph::NodeId(i)).is_some() && node.compute_time.is_some() {
                if node.kind == co_graph::NodeKind::Aggregate {
                    aggregate_ops += 1;
                } else {
                    other_ops += 1;
                }
            }
        }
    }
    assert_eq!(
        other_ops, 0,
        "only scalar aggregates may recompute on a repeat"
    );
    assert!(aggregate_ops > 0);
}

fn graph_accumulates_consistently(shards: usize) {
    let data = data();
    let srv = sharded_server(
        MaterializerKind::StorageAware,
        ReuseKind::Linear,
        u64::MAX,
        shards,
    );
    let mut seen_vertices = 0;
    for dag in kaggle::all_workloads(&data).unwrap() {
        srv.run_workload(dag).unwrap();
        let view = srv.shards().view();
        let n = view.n_vertices();
        assert!(n >= seen_vertices, "EG must only grow");
        seen_vertices = n;
        // Structural invariants: every edge endpoint exists, and parents
        // precede children in their shard's topo order.
        for eg in view.graphs() {
            let position: std::collections::HashMap<_, _> = eg
                .topo_order()
                .iter()
                .enumerate()
                .map(|(i, id)| (*id, i))
                .collect();
            for v in eg.vertices() {
                for p in &v.parents {
                    assert!(view.lookup(*p).is_some(), "dangling parent");
                    if let Some(at) = position.get(p) {
                        assert!(*at < position[&v.id], "parent after child in topo order");
                    }
                }
                for c in &v.children {
                    assert!(view.lookup(*c).is_some());
                }
            }
        }
    }
    // Frequencies: artifacts shared across workloads appear more often.
    let view = srv.shards().view();
    let max_freq = view
        .graphs()
        .flat_map(|eg| eg.vertices())
        .map(|v| v.frequency)
        .max()
        .unwrap();
    assert!(
        max_freq >= 4,
        "shared FE artifacts should recur, max freq = {max_freq}"
    );
}

#[test]
fn experiment_graph_accumulates_consistently() {
    graph_accumulates_consistently(1);
}

#[test]
fn experiment_graph_accumulates_consistently_sharded() {
    graph_accumulates_consistently(8);
}

#[test]
fn budget_is_respected_under_pressure() {
    let data = data();
    for budget in [1 << 18, 1 << 20, 1 << 22] {
        let srv = server(MaterializerKind::StorageAware, ReuseKind::Linear, budget);
        run_sequence(&srv, kaggle::all_workloads(&data).unwrap()).unwrap();
        let (_, unique, logical) = srv.storage_stats();
        // Sources are stored unconditionally and form the only permitted
        // overflow.
        let view = srv.shards().view();
        let source_bytes: u64 = view
            .graphs()
            .flat_map(|eg| eg.sources())
            .filter_map(|id| view.lookup(*id).map(|v| v.size))
            .sum();
        drop(view);
        assert!(
            unique <= budget.max(source_bytes) + source_bytes,
            "budget {budget}: unique {unique} (sources {source_bytes})"
        );
        // Dedup never loses bytes: logical >= unique.
        assert!(logical >= unique);
    }
}

fn stored_artifacts_round_trip(shards: usize) {
    let data = data();
    let srv = sharded_server(MaterializerKind::All, ReuseKind::Linear, u64::MAX, shards);
    let (executed, _) = srv.run_workload(kaggle::w2(&data).unwrap()).unwrap();
    let view = srv.shards().view();
    for node in executed.nodes() {
        let Some(original) = &node.computed else {
            continue;
        };
        if !view.has_content(node.artifact) {
            continue;
        }
        let stored = view
            .load_content(node.artifact)
            .expect("materialized content");
        match (original, &stored) {
            (co_graph::Value::Dataset(a), co_graph::Value::Dataset(b)) => {
                assert_eq!(a.n_rows(), b.n_rows());
                assert_eq!(a.column_ids(), b.column_ids());
                assert_eq!(a.nbytes(), b.nbytes());
            }
            (a, b) => assert_eq!(a.kind(), b.kind()),
        }
    }
}

#[test]
fn stored_artifacts_round_trip_through_the_graph() {
    stored_artifacts_round_trip(1);
}

#[test]
fn stored_artifacts_round_trip_through_the_graph_sharded() {
    stored_artifacts_round_trip(8);
}

#[test]
fn local_pruner_skips_interactive_recomputation() {
    // Simulate a Jupyter session: the user already computed the FE table
    // in an earlier cell; resubmitting the full script must not re-run
    // its upstream operations.
    let data = data();
    let srv = server(MaterializerKind::None, ReuseKind::None, 0);
    let (first, baseline) = srv.run_workload(kaggle::w2(&data).unwrap()).unwrap();

    let mut dag = kaggle::w2(&data).unwrap();
    // Copy the computed value of the feature table (the largest dataset
    // terminal) into the fresh DAG, as the notebook kernel would hold it.
    let feature_terminal = first
        .terminals()
        .into_iter()
        .find(|t| first.node(*t).unwrap().kind == co_graph::NodeKind::Dataset)
        .expect("w2 outputs its feature table");
    let value = first
        .node(feature_terminal)
        .unwrap()
        .computed
        .clone()
        .unwrap();
    dag.set_computed(feature_terminal, value).unwrap();

    let (_, rerun) = srv.run_workload(dag).unwrap();
    assert!(
        rerun.ops_executed < baseline.ops_executed / 2,
        "pruner must skip the computed subtree: {} vs {}",
        rerun.ops_executed,
        baseline.ops_executed
    );
}
