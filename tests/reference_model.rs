//! The reference model: the server's whole-graph publish (`shards = 1`)
//! must be indistinguishable from the slow, obvious implementation — a
//! bare [`ExperimentGraph`] merged with `update_with_workload[_partial]`
//! and materialized by [`StorageAwareMaterializer::run`], with no
//! server, no shard routing, no locks and no pipeline around it.
//!
//! A seeded sequence of overlapping workloads — some failing part-way
//! (salvaged through a taint mask), with evictions in between — is
//! replayed through both; after every step the two must agree on every
//! vertex (f/t/s/q, parents, children), on the materialized set and on
//! the storage accounting. This is the oracle the publish path is
//! rewritten against (ROADMAP: incremental materializer, versioned
//! reads).

use co_core::materialize::{Materializer, StorageAwareMaterializer};
use co_core::{CostModel, OptimizerServer, PrunedWorkload, Script, ServerConfig};
use co_dataframe::ops::{MapFn, Predicate};
use co_dataframe::{Column, ColumnData, DataFrame};
use co_graph::{ArtifactId, ExperimentGraph, FaultInjector, FaultKind, Value, WorkloadDag};
use co_ml::linear::LogisticParams;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const STEPS: usize = 240;

fn frame() -> DataFrame {
    let n = 400;
    DataFrame::new(vec![
        Column::source("t", "x", ColumnData::Float((0..n).map(f64::from).collect())),
        Column::source(
            "t",
            "z",
            ColumnData::Float((0..n).map(|i| f64::from(i % 17)).collect()),
        ),
        Column::source(
            "t",
            "y",
            ColumnData::Int((0..n).map(|i| i64::from(i >= n / 2)).collect()),
        ),
    ])
    .unwrap()
}

/// One workload drawn from a small pool of filters, feature maps and
/// learning rates, so consecutive workloads overlap heavily: shared
/// prefixes get frequency bumps, new suffixes add vertices.
fn workload(rng: &mut StdRng) -> WorkloadDag {
    let thresholds = [20.0, 60.0, 100.0];
    let maps = [MapFn::Log1p, MapFn::Sqrt, MapFn::MulConst(0.5)];
    let rates = [0.1, 0.3, 0.9];
    let mut s = Script::new();
    let data = s.load("t", frame());
    let mut node = s
        .filter(
            data,
            Predicate::gt_f("x", thresholds[rng.random_range(0..3)]),
        )
        .unwrap();
    for (i, column) in ["x", "z"].iter().enumerate() {
        if rng.random_bool(0.7) {
            let f = maps[rng.random_range(0..3)].clone();
            node = s.map(node, column, f, &format!("f{i}")).unwrap();
        }
    }
    let model = s
        .train_logistic(
            node,
            "y",
            LogisticParams {
                lr: rates[rng.random_range(0..3)],
                max_iter: 20,
                ..LogisticParams::default()
            },
        )
        .unwrap();
    s.output(model).unwrap();
    s.into_dag()
}

fn assert_same(step: usize, server: &OptimizerServer, model: &ExperimentGraph) {
    let eg = server.shards().read(0);
    assert_eq!(eg.n_vertices(), model.n_vertices(), "step {step}");
    assert_eq!(eg.topo_order(), model.topo_order(), "step {step}");
    assert_eq!(eg.sources(), model.sources(), "step {step}");
    for want in model.vertices() {
        let got = eg.vertex(want.id).unwrap();
        // f, t, s, q, lineage in both directions, identity and kind.
        assert_eq!(got, want, "step {step}");
    }
    let sorted = |mut ids: Vec<ArtifactId>| {
        ids.sort();
        ids
    };
    assert_eq!(
        sorted(eg.storage().materialized_ids()),
        sorted(model.storage().materialized_ids()),
        "step {step}: materialized set"
    );
    drop(eg);
    let store = model.storage();
    assert_eq!(
        server.storage_stats(),
        (
            store.n_artifacts(),
            store.unique_bytes(),
            store.logical_bytes()
        ),
        "step {step}: storage stats"
    );
}

#[test]
fn whole_graph_publish_matches_the_bare_graph_and_materializer() {
    // A budget the session outgrows, so the materializer has to rank,
    // refuse and displace — not just store everything.
    let budget = 40 * 1024;
    let mut config = ServerConfig::collaborative(budget);
    config.quarantine_after = None;
    assert_eq!(config.shards, 1);
    let server = OptimizerServer::new(config);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    let mut model = ExperimentGraph::new(true);
    let materializer = StorageAwareMaterializer {
        budget,
        alpha: config.alpha,
    };
    let cost: CostModel = config.cost;

    let mut rng = StdRng::seed_from_u64(0x5eed_0019);
    let (mut partial, mut displaced, mut evicted) = (0, 0, 0);
    for step in 0..STEPS {
        // Every few steps an operation fails once: the publish salvages
        // the untainted prefix through its taint mask.
        if rng.random_bool(0.2) {
            let op = ["map", "train_logistic"][rng.random_range(0..2)];
            faults.fail_op(op, FaultKind::Permanent, 1);
        }
        let pruned = PrunedWorkload::new(workload(&mut rng)).unwrap();
        let planned = server.plan_workload(pruned).unwrap();
        let executed = planned.execute(&server.executor_config());
        let dag = executed.dag().clone();
        let tainted = match server.publish_workload(executed) {
            Ok(_) => None,
            Err(e) => Some(e.tainted),
        };

        // The same executed DAG through the obvious implementation.
        let before = model.storage().materialized_ids();
        match &tainted {
            None => model.update_with_workload(&dag).unwrap(),
            Some(mask) => {
                assert_eq!(mask.len(), dag.n_nodes(), "failed during execution");
                let keep: Vec<bool> = mask.iter().map(|t| !t).collect();
                model.update_with_workload_partial(&dag, &keep).unwrap();
                partial += 1;
            }
        }
        let available: HashMap<ArtifactId, Value> = dag
            .nodes()
            .iter()
            .filter_map(|n| n.computed.clone().map(|v| (n.artifact, v)))
            .collect();
        materializer.run(&mut model, &available, &cost);
        displaced += usize::from(before.iter().any(|id| !model.storage().contains(*id)));
        assert_same(step, &server, &model);

        // Now and then an operator evicts a stored, derived artifact.
        if step % 9 == 4 {
            let mut stored = model.storage().materialized_ids();
            stored.retain(|id| !model.sources().contains(id));
            stored.sort();
            if !stored.is_empty() {
                let id = stored[rng.random_range(0..stored.len())];
                let freed = server.evict_artifact(id);
                assert_eq!(freed, model.storage_mut().evict(id), "step {step}");
                evicted += 1;
                assert_same(step, &server, &model);
            }
        }
    }
    // The run exercised what it claims to: salvaged failures, evictions,
    // and a budget tight enough to displace stored artifacts.
    assert!(partial >= 10, "only {partial} partial publishes");
    assert!(evicted >= 10, "only {evicted} evictions");
    assert!(displaced >= 1, "the budget never bound");
    assert_eq!(
        server.stats().workloads + server.stats().failed_workloads,
        STEPS
    );
}
