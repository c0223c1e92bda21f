//! Static validation + egfsck integration suite.
//!
//! Property tests: generated well-formed workloads always pass the
//! validator; each class of single-mutation corruption — in a workload
//! DAG (dropped column, wrong arity, bad params, …) or in the Experiment
//! Graph (rewired edge, stray content, attribute skew) — is caught by
//! [`co_core::validate`] or `co_graph::fsck` respectively, while graphs
//! produced by real executed workloads stay fsck-clean.

use co_core::ops::SelectOp;
use co_core::{validate, DurabilityConfig, OptimizerServer, Script, ServerConfig};
use co_dataframe::ops::{AggFn, Predicate};
use co_dataframe::{Column, ColumnData, DataFrame};
use co_graph::fsck::{self, FsckCode};
use co_graph::meta::MetaCode;
use co_graph::shard::{shard_journal_file, shard_snapshot_file};
use co_graph::{ArtifactId, NodeId, NodeKind, Operation, Value, WorkloadDag};
use co_ml::feature::ScaleKind;
use co_ml::linear::LogisticParams;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn frame() -> DataFrame {
    DataFrame::new(vec![
        Column::source("t", "id", ColumnData::Int(vec![1, 2, 3, 4])),
        Column::source("t", "x", ColumnData::Float(vec![0.5, 1.5, 2.5, 3.5])),
        Column::source(
            "t",
            "c",
            ColumnData::Str(vec!["a".into(), "b".into(), "a".into(), "c".into()]),
        ),
        Column::source("t", "y", ColumnData::Int(vec![0, 1, 0, 1])),
    ])
    .unwrap()
}

/// Apply one schema-preserving op picked by `code`; every choice keeps
/// the four columns `id`/`x`/`c`/`y` with their dtypes, so any sequence
/// is valid by construction.
fn apply_safe_op(s: &mut Script, node: NodeId, code: usize) -> NodeId {
    match code % 6 {
        0 => s
            .filter(
                node,
                Predicate::GtF {
                    col: "x".into(),
                    value: 0.0,
                },
            )
            .unwrap(),
        1 => s.dropna(node, &["x"]).unwrap(),
        2 => s.sample(node, 3, code as u64).unwrap(),
        3 => s.sort(node, "id", true).unwrap(),
        4 => s.scale(node, ScaleKind::Standard, &["x"]).unwrap(),
        _ => s.select(node, &["id", "x", "c", "y"]).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed workloads — any chain of schema-preserving ops capped
    /// by an aggregate — always pass validation, with a meta per node.
    #[test]
    fn generated_valid_workloads_pass(codes in proptest::collection::vec(0usize..6, 0..12)) {
        let mut s = Script::new();
        let mut node = s.load("train", frame());
        for code in codes {
            node = apply_safe_op(&mut s, node, code);
        }
        let t = s.agg(node, "x", AggFn::Mean).unwrap();
        s.output(t).unwrap();
        let report = validate(s.dag());
        prop_assert!(report.is_valid(), "spurious rejection: {:?}", report.errors);
        prop_assert_eq!(report.metas.len(), s.dag().n_nodes());
    }

    /// Dropping any single column from the source is caught as soon as a
    /// downstream op needs it.
    #[test]
    fn dropped_column_is_always_caught(victim in 0usize..3, codes in proptest::collection::vec(0usize..6, 0..6)) {
        let victim = ["id", "x", "y"][victim];
        let mut s = Script::new();
        let d = s.load("train", frame());
        let keep: Vec<&str> = ["id", "x", "c", "y"]
            .into_iter()
            .filter(|c| *c != victim)
            .collect();
        let mut node = s.drop_columns(d, &[victim]).unwrap();
        for code in codes {
            // Schema-preserving ops on the remaining columns keep the
            // corruption latent...
            node = match code % 3 {
                0 => s.dropna(node, &[]).unwrap(),
                1 => s.sample(node, 3, code as u64).unwrap(),
                _ => s.select(node, &keep).unwrap(),
            };
        }
        // ...until an op needs every original column again.
        let sel = s.select(node, &["id", "x", "y"]).unwrap();
        s.output(sel).unwrap();
        let report = validate(s.dag());
        prop_assert!(!report.is_valid());
        prop_assert!(report.errors.iter().any(|e| e.code == MetaCode::MissingColumn
            && e.message.contains(victim)));
    }
}

// ---------------------------------------------------------------------
// One test per malformed-DAG class, each asserting the diagnostic class
// and a non-empty node path.

fn reject(s: &Script, code: MetaCode) {
    let report = validate(s.dag());
    let hit = report.errors.iter().find(|e| e.code == code);
    let Some(diag) = hit else {
        panic!("expected {code:?}, got: {:?}", report.errors);
    };
    assert!(!diag.path.is_empty(), "{diag}");
}

#[test]
fn rejects_missing_column() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let sel = s.select(d, &["id", "nope"]).unwrap();
    s.output(sel).unwrap();
    reject(&s, MetaCode::MissingColumn);
}

#[test]
fn rejects_duplicate_column() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let r = s.rename(d, "x", "y").unwrap(); // "y" already exists
    s.output(r).unwrap();
    reject(&s, MetaCode::DuplicateColumn);
}

#[test]
fn rejects_type_mismatch() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let a = s.agg(d, "c", AggFn::Mean).unwrap(); // mean of a string column
    s.output(a).unwrap();
    reject(&s, MetaCode::TypeMismatch);
}

#[test]
fn rejects_join_key_mismatch() {
    let mut s = Script::new();
    let a = s.load("a", frame());
    let b = s.load("b", frame());
    let j = s.join(a, b, "x").unwrap(); // float join key
    s.output(j).unwrap();
    reject(&s, MetaCode::JoinKeyMismatch);
}

#[test]
fn rejects_arity_mismatch() {
    let mut dag = WorkloadDag::new();
    let d = dag.add_source("train", Value::dataset(frame()));
    // A unary op wired as a supernode with two inputs.
    let sel = dag
        .add_op(
            Arc::new(SelectOp {
                columns: vec!["id".into()],
            }),
            &[d, d],
        )
        .unwrap();
    dag.mark_terminal(sel).unwrap();
    let report = validate(&dag);
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.code == MetaCode::ArityMismatch),
        "{:?}",
        report.errors
    );
}

#[test]
fn rejects_fit_predict_mismatch() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let feats = s.select(d, &["id", "x", "y"]).unwrap();
    let model = s
        .train_logistic(feats, "y", LogisticParams::default())
        .unwrap();
    // Forgot to exclude the label: the feature set at predict time is
    // [id, x, y], the model was fitted on [id, x].
    let p = s.predict(model, feats, "score", &[]).unwrap();
    s.output(p).unwrap();
    reject(&s, MetaCode::FitPredictMismatch);
}

#[test]
fn rejects_empty_selection() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let no_feats = s.select(d, &["c", "y"]).unwrap();
    // No numeric feature column besides the label.
    let m = s
        .train_logistic(no_feats, "y", LogisticParams::default())
        .unwrap();
    s.output(m).unwrap();
    reject(&s, MetaCode::EmptySelection);
}

#[test]
fn rejects_bad_params() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let oh = s.one_hot(d, "c", 0).unwrap(); // zero categories
    s.output(oh).unwrap();
    reject(&s, MetaCode::BadParams);
}

#[test]
fn rejects_op_hash_collision() {
    struct Colliding(&'static str);
    impl Operation for Colliding {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            NodeKind::Dataset
        }
        fn run(&self, inputs: &[&Value]) -> co_graph::Result<Value> {
            Ok(inputs[0].clone())
        }
        fn op_hash(&self) -> u64 {
            0xc0111de // both ops claim the same artifact identity
        }
    }
    let mut dag = WorkloadDag::new();
    let d = dag.add_source("train", Value::dataset(frame()));
    let a = dag.add_op(Arc::new(Colliding("alpha")), &[d]).unwrap();
    let b = dag.add_op(Arc::new(Colliding("beta")), &[a]).unwrap();
    dag.mark_terminal(b).unwrap();
    let report = validate(&dag);
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.code == MetaCode::HashCollision),
        "{:?}",
        report.errors
    );
}

#[test]
fn warns_on_dead_subgraphs() {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let _dead = s.select(d, &["id"]).unwrap();
    let live = s.agg(d, "x", AggFn::Mean).unwrap();
    s.output(live).unwrap();
    let report = validate(s.dag());
    assert!(report.is_valid());
    assert!(report
        .warnings
        .iter()
        .any(|w| w.code == MetaCode::DeadSubgraph));
}

// ---------------------------------------------------------------------
// egfsck over graphs produced by real workloads, then single-mutation
// corruptions of them.

/// Train-and-evaluate workload whose execution populates an EG.
fn real_workload() -> WorkloadDag {
    let mut s = Script::new();
    let d = s.load("train", frame());
    let feats = s.select(d, &["id", "x", "y"]).unwrap();
    let model = s
        .train_logistic(feats, "y", LogisticParams::default())
        .unwrap();
    let score = s
        .evaluate(model, feats, "y", co_core::ops::EvalMetric::Accuracy)
        .unwrap();
    s.output(score).unwrap();
    s.into_dag()
}

fn populated_server() -> OptimizerServer {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    server.run_workload(real_workload()).unwrap();
    server
        .run_workload({
            let mut s = Script::new();
            let d = s.load("train", frame());
            let a = s.agg(d, "x", AggFn::Mean).unwrap();
            s.output(a).unwrap();
            s.into_dag()
        })
        .unwrap();
    server
}

#[test]
fn executed_workload_graphs_are_fsck_clean() {
    let server = populated_server();
    let view = server.shards().view();
    let report = fsck::check_shards(&view.graphs().collect::<Vec<_>>(), &[]);
    assert!(report.is_clean(), "{report}");
    assert!(report.vertices >= 5);
}

#[test]
fn fsck_catches_each_seeded_graph_corruption() {
    // Rewired edge: a vertex claiming a topologically later parent.
    {
        let server = populated_server();
        let mut eg = server.shards().write(0);
        let (early, late) = (eg.topo_order()[1], *eg.topo_order().last().unwrap());
        eg.vertex_mut(early).unwrap().parents.push(late);
        let report = fsck::check_graph(&eg);
        assert!(report.has(FsckCode::OrderViolation), "{report}");
    }
    // Dangling edge: a parent the graph never defined.
    {
        let server = populated_server();
        let mut eg = server.shards().write(0);
        let v = eg.topo_order()[1];
        eg.vertex_mut(v).unwrap().parents.push(ArtifactId(0xdead));
        let report = fsck::check_graph(&eg);
        assert!(report.has(FsckCode::DanglingReference), "{report}");
    }
    // Flipped mat flag: content for an artifact the graph doesn't know,
    // and a restored flag pointing nowhere.
    {
        let server = populated_server();
        let mut eg = server.shards().write(0);
        eg.storage_mut()
            .store(ArtifactId(0xbeef), &Value::dataset(frame()));
        eg.mark_restored_materialized(ArtifactId(0xfeed));
        let report = fsck::check_graph(&eg);
        assert!(report.has(FsckCode::StrayContent), "{report}");
        assert!(report.has(FsckCode::StrayRestoredFlag), "{report}");
    }
    // Attribute skew.
    {
        let server = populated_server();
        let mut eg = server.shards().write(0);
        let v = eg.topo_order()[0];
        eg.vertex_mut(v).unwrap().frequency = 0;
        let report = fsck::check_graph(&eg);
        assert!(report.has(FsckCode::BadAttribute), "{report}");
    }
}

/// `check_data_dir` needs no shard count: it detects the layout's N
/// (1 and 8 alike) and checks the committed-prefix recovery of it.
#[test]
fn check_data_dir_auto_detects_the_shard_count() {
    for shards in [1, 8] {
        let dir =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fsck_data_dir_{shards}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = shards;
        let (server, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
        server.run_workload(real_workload()).unwrap();
        server.compact().unwrap();
        server.run_workload(real_workload()).unwrap();
        drop(server);

        // One layout at every shard count: N journals and N snapshots
        // (after the compaction) — nothing else.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let mut expected: Vec<String> = (0..shards)
            .flat_map(|k| [shard_journal_file(k), shard_snapshot_file(k)])
            .collect();
        expected.sort();
        assert_eq!(files, expected);
        assert_eq!(fsck::detect_shard_layout(&dir), Some(shards));

        // Snapshots + committed-prefix journal replay give a clean graph,
        // and the count-free entry point agrees with the explicit one.
        let report = fsck::check_data_dir(&dir, true).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.vertices >= 4);
        let explicit = fsck::check_sharded_data_dir(&dir, shards, true).unwrap();
        assert_eq!(report.vertices, explicit.vertices);
        assert_eq!(report.notes, explicit.notes);

        // A torn journal tail is reported as a note, not a violation, and
        // the file is left untouched (offline check is read-only).
        let wal = dir.join(shard_journal_file(0));
        let len_before = std::fs::metadata(&wal).unwrap().len();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(b"EGD 99 torn").unwrap();
        drop(f);
        let report = fsck::check_data_dir(&dir, true).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.notes.iter().any(|n| n.contains("torn")), "{report}");
        assert!(std::fs::metadata(&wal).unwrap().len() > len_before);
    }
}
