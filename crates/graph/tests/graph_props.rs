//! Property-based tests for the graph layer: Experiment Graph update
//! invariants, snapshot round-trips, and dedup-store accounting over
//! randomly generated workloads.

use co_dataframe::{Column, ColumnData, DataFrame, Scalar};
use co_graph::{
    shard, snapshot, ArtifactId, CostModel, ExperimentGraph, NodeKind, Operation, StorageManager,
    Value, WorkloadDag,
};
use proptest::prelude::*;
use std::sync::Arc;

struct Tag(String, NodeKind);
impl Operation for Tag {
    fn name(&self) -> &str {
        &self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        self.1
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        Ok(Value::Aggregate(Scalar::Float(0.0)))
    }
}

/// Spec: per node (parent seed, two-input?, model?, compute 1/16 s, size).
type Spec = (usize, bool, bool, u8, u16);

fn build_dag(specs: &[Spec]) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let src = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let mut nodes = vec![src];
    for (i, (pseed, two, model, t, s)) in specs.iter().enumerate() {
        let kind = if *model {
            NodeKind::Model
        } else {
            NodeKind::Dataset
        };
        let op = Arc::new(Tag(format!("op{i}"), kind));
        let p1 = nodes[pseed % nodes.len()];
        let node = if *two && nodes.len() > 1 {
            let p2 = nodes[(pseed / 3) % nodes.len()];
            if p1 == p2 {
                dag.add_op(op, &[p1]).unwrap()
            } else {
                dag.add_op(op, &[p1, p2]).unwrap()
            }
        } else {
            dag.add_op(op, &[p1]).unwrap()
        };
        dag.annotate(node, f64::from(*t) / 16.0, u64::from(*s))
            .unwrap();
        if *model {
            dag.node_mut(node).unwrap().quality = f64::from(*t) / 255.0;
        }
        nodes.push(node);
    }
    dag.mark_terminal(*nodes.last().unwrap()).unwrap();
    dag
}

fn arb_specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        (
            0usize..100,
            proptest::bool::ANY,
            proptest::bool::ANY,
            0u8..255,
            0u16..1000,
        ),
        1..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repeated_updates_only_bump_frequencies(specs in arb_specs()) {
        let dag = build_dag(&specs);
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        let n = eg.n_vertices();
        let costs = eg.recreation_costs();
        for round in 2..4u64 {
            eg.update_with_workload(&dag).unwrap();
            prop_assert_eq!(eg.n_vertices(), n);
            prop_assert_eq!(eg.recreation_costs(), costs.clone());
            for node in dag.nodes() {
                prop_assert_eq!(eg.vertex(node.artifact).unwrap().frequency, round);
            }
        }
    }

    #[test]
    fn maintained_scores_match_the_full_pass(
        rounds in proptest::collection::vec(arb_specs(), 1..6),
        edit in 0usize..1000,
    ) {
        // Overlapping workloads re-time, resize and re-grade vertices
        // that already exist (ops are named by position); every other
        // round also edits a vertex directly, as journal replay does.
        let cost = CostModel { latency_s: 1.0 / 16.0, bandwidth_bytes_per_s: 4000.0 };
        let mut eg = ExperimentGraph::new(true);
        for (r, specs) in rounds.iter().enumerate() {
            eg.update_with_workload(&build_dag(specs)).unwrap();
            if r % 2 == 1 {
                let id = eg.topo_order()[edit % eg.n_vertices()];
                eg.vertex_mut(id).unwrap().compute_time += 0.5;
            }
            let pool: Vec<ArtifactId> =
                eg.candidates(&cost).iter().map(|c| c.vertex.id).collect();
            let cr = eg.recreation_costs();
            let p = eg.potentials();
            let (kept_cr, kept_p) = eg.maintained_scores().unwrap();
            for (i, id) in eg.topo_order().iter().enumerate() {
                prop_assert_eq!(kept_cr[i].to_bits(), cr[id].to_bits(), "Cr of {}", i);
                prop_assert_eq!(kept_p[i].to_bits(), p[id].to_bits(), "p of {}", i);
            }
            let mut want: Vec<ArtifactId> = eg
                .vertices()
                .filter(|v| {
                    !eg.sources().contains(&v.id)
                        && v.kind != NodeKind::Aggregate
                        && v.size > 0
                        && cost.load_cost(v.size) < cr[&v.id]
                })
                .map(|v| v.id)
                .collect();
            want.sort();
            prop_assert_eq!(pool, want);
        }
        // Nothing changed since the last refresh: nothing is rescored.
        eg.take_score_work();
        eg.refresh_scores();
        prop_assert_eq!(eg.take_score_work().vertices_rescored, 0);
    }

    #[test]
    fn topo_order_respects_parents(specs in arb_specs()) {
        let dag = build_dag(&specs);
        let mut eg = ExperimentGraph::new(false);
        eg.update_with_workload(&dag).unwrap();
        let position: std::collections::HashMap<ArtifactId, usize> =
            eg.topo_order().iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for v in eg.vertices() {
            for p in &v.parents {
                prop_assert!(position[p] < position[&v.id]);
            }
        }
    }

    #[test]
    fn exact_cost_never_exceeds_linear_approximation(specs in arb_specs()) {
        let dag = build_dag(&specs);
        let mut eg = ExperimentGraph::new(false);
        eg.update_with_workload(&dag).unwrap();
        let approx = eg.recreation_costs();
        for id in eg.topo_order() {
            let exact = eg.exact_recreation_cost(*id).unwrap();
            prop_assert!(exact <= approx[id] + 1e-9,
                "exact {exact} > approx {} for {id}", approx[id]);
        }
    }

    #[test]
    fn potentials_are_monotone_towards_models(specs in arb_specs()) {
        let dag = build_dag(&specs);
        let mut eg = ExperimentGraph::new(false);
        eg.update_with_workload(&dag).unwrap();
        let potentials = eg.potentials();
        for v in eg.vertices() {
            // A vertex's potential is at least every child's.
            for c in &v.children {
                prop_assert!(potentials[&v.id] >= potentials[c] - 1e-12);
            }
            // And at least its own quality.
            prop_assert!(potentials[&v.id] >= v.quality - 1e-12);
            prop_assert!((0.0..=1.0).contains(&potentials[&v.id]));
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_everything(specs in arb_specs()) {
        let dag = build_dag(&specs);
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        let text = snapshot::to_shard_snapshot(&eg, &[], 0).unwrap();
        let mut restored = snapshot::from_shard_snapshot(&text, true, "prop").unwrap().graph;
        // Children links are derived state: rewire them as recovery does.
        prop_assert!(shard::rewire_children(std::slice::from_mut(&mut restored)).is_empty());
        prop_assert_eq!(restored.n_vertices(), eg.n_vertices());
        prop_assert_eq!(restored.topo_order(), eg.topo_order());
        prop_assert_eq!(restored.recreation_costs(), eg.recreation_costs());
        prop_assert_eq!(restored.potentials(), eg.potentials());
        // Fixpoint.
        prop_assert_eq!(snapshot::to_shard_snapshot(&restored, &[], 0).unwrap(), text);
    }

    #[test]
    fn dedup_store_accounting_is_exact(
        rows in 1usize..200,
        n_frames in 1usize..8,
    ) {
        // Chain of frames each adding one derived column to a shared base.
        let base = DataFrame::new(vec![Column::source(
            "p",
            "c0",
            ColumnData::Float((0..rows).map(|i| i as f64).collect()),
        )])
        .unwrap();
        let mut frames = vec![base];
        for d in 1..n_frames {
            let prev = frames.last().unwrap();
            let next = co_dataframe::ops::map_column(
                prev,
                "c0",
                &co_dataframe::ops::MapFn::AddConst(d as f64),
                &format!("c{d}"),
            )
            .unwrap();
            frames.push(next);
        }
        let mut sm = StorageManager::new(true);
        let mut expected_unique = 0u64;
        let mut expected_logical = 0u64;
        for (i, f) in frames.iter().enumerate() {
            let marginal = sm.marginal_bytes(&Value::dataset(f.clone()));
            let added = sm.store(ArtifactId(i as u64), &Value::dataset(f.clone()));
            prop_assert_eq!(marginal, added);
            expected_unique += added;
            expected_logical += f.nbytes() as u64;
            prop_assert_eq!(sm.unique_bytes(), expected_unique);
            prop_assert_eq!(sm.logical_bytes(), expected_logical);
        }
        // Unique = one column per frame (all share the base).
        prop_assert_eq!(sm.n_columns(), n_frames);
        // Evicting everything returns to zero.
        for i in 0..frames.len() {
            sm.evict(ArtifactId(i as u64));
        }
        prop_assert_eq!(sm.unique_bytes(), 0);
        prop_assert_eq!(sm.logical_bytes(), 0);
        prop_assert_eq!(sm.n_columns(), 0);
    }

    #[test]
    fn store_get_round_trips_random_frames(
        ints in proptest::collection::vec(-100i64..100, 1..50),
    ) {
        let df = DataFrame::new(vec![
            Column::source("p", "a", ColumnData::Int(ints.clone())),
            Column::source("p", "b", ColumnData::Float(ints.iter().map(|&v| v as f64 / 3.0).collect())),
        ])
        .unwrap();
        for dedup in [true, false] {
            let mut sm = StorageManager::new(dedup);
            sm.store(ArtifactId(1), &Value::dataset(df.clone()));
            let back = sm.get(ArtifactId(1)).unwrap();
            let bdf = back.as_dataset().unwrap();
            prop_assert_eq!(bdf.column("a").unwrap().ints().unwrap(), ints.as_slice());
            prop_assert_eq!(bdf.column_ids(), df.column_ids());
        }
    }
}
