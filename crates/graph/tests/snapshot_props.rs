//! Property tests for the snapshot codec: round-trips must survive
//! hostile free-text fields — tabs (the field separator), newlines (the
//! record separator), and backslashes (the escape character) — in
//! vertex descriptions and source names.

use co_dataframe::Scalar;
use co_graph::{snapshot, ExperimentGraph, GraphError, NodeKind, Operation, Value, WorkloadDag};
use proptest::prelude::*;
use std::sync::Arc;

struct Tag(String);
impl Operation for Tag {
    fn name(&self) -> &str {
        &self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        Ok(Value::Aggregate(Scalar::Float(0.0)))
    }
}

/// Strings over an alphabet rich in exactly the characters the snapshot
/// format must escape, plus the `-` used as the None sentinel.
fn hostile(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!['\t', '\n', '\\', '-', 'a', 'B', ' ', '0']),
        len,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn snapshot_round_trips_hostile_text(
        names in proptest::collection::vec(hostile(0..8), 1..4),
        descs in proptest::collection::vec(hostile(0..16), 1..5),
    ) {
        // A fan-in workload whose source names carry the hostile text.
        // The numeric prefix keeps artifact ids distinct and avoids a
        // name that is literally `-` (reserved as the None sentinel).
        let mut dag = WorkloadDag::new();
        let sources: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                dag.add_source(&format!("s{i}_{n}"), Value::Aggregate(Scalar::Float(0.0)))
            })
            .collect();
        let merged = dag.add_op(Arc::new(Tag("merge".into())), &sources).unwrap();
        let tail = dag.add_op(Arc::new(Tag("tail".into())), &[merged]).unwrap();
        dag.mark_terminal(tail).unwrap();
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();

        // Plant hostile descriptions directly (in production these are
        // schema / hyperparameter digests, but the format must not care).
        let ids = eg.topo_order().to_vec();
        for (id, d) in ids.iter().zip(descs.iter().cycle()) {
            eg.vertex_mut(*id).unwrap().description = d.clone();
        }

        let text = snapshot::to_shard_snapshot(&eg, &[], 0).unwrap();
        let restored = snapshot::from_shard_snapshot(&text, true, "prop").unwrap().graph;
        prop_assert_eq!(restored.n_vertices(), eg.n_vertices());
        prop_assert_eq!(restored.topo_order(), eg.topo_order());
        for id in &ids {
            let a = eg.vertex(*id).unwrap();
            let b = restored.vertex(*id).unwrap();
            prop_assert_eq!(&a.description, &b.description);
            prop_assert_eq!(&a.source_name, &b.source_name);
            prop_assert_eq!(&a.parents, &b.parents);
        }
        // Fixed point: re-serializing the restored graph is bytewise
        // identical, so escaping is stable over repeated save/load.
        prop_assert_eq!(snapshot::to_shard_snapshot(&restored, &[], 0).unwrap(), text);
    }
}

#[test]
fn missing_snapshot_file_is_a_graph_io_error() {
    let path = std::path::Path::new("/nonexistent/dir/x.egsnap");
    let Err(err) = snapshot::load_shard_full(path, true) else {
        panic!("loading a missing snapshot succeeded");
    };
    assert!(matches!(err, GraphError::Io(_)), "{err}");
    assert!(err.to_string().contains("x.egsnap"));
}
