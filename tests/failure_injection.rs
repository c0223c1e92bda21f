//! Failure injection: operations that fail mid-workload must surface a
//! clean error, leave the Experiment Graph consistent, salvage the
//! completed prefix, and not poison later submissions.

use co_core::{OptimizerServer, ServerConfig};
use co_dataframe::ops::{self, MapFn};
use co_dataframe::{Column, ColumnData, DataFrame, Scalar};
use co_graph::{FaultInjector, FaultKind, GraphError, NodeKind, Operation, Value, WorkloadDag};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Succeeds `good_runs` times, then fails forever. Uses shared state to
/// emulate a flaky external resource (not operation parameters, so the
/// artifact identity stays fixed).
struct Flaky {
    label: String,
    remaining_good: Arc<AtomicUsize>,
}

impl Operation for Flaky {
    fn name(&self) -> &str {
        &self.label
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        // Real compute cost, so the artifact is worth materializing.
        std::thread::sleep(std::time::Duration::from_millis(2));
        if self
            .remaining_good
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            Ok(Value::Aggregate(Scalar::Float(1.0)))
        } else {
            Err(GraphError::OperationFailed {
                op: self.label.clone(),
                message: "injected failure".to_owned(),
                transient: false,
            })
        }
    }
}

struct Ok1(String);
impl Operation for Ok1 {
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
        std::thread::sleep(std::time::Duration::from_millis(2));
        Ok(Value::Aggregate(Scalar::Float(2.0)))
    }
}

/// Panics unconditionally, the way buggy user code does.
struct Panicky;
impl Operation for Panicky {
    fn name(&self) -> &str {
        "panicky_step"
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        panic!("user code exploded");
    }
}

/// src → stable_step → flaky_step → tail_step (terminal).
fn workload(budget: &Arc<AtomicUsize>) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let ok = dag
        .add_op(Arc::new(Ok1("stable_step".into())), &[s])
        .unwrap();
    let flaky = dag
        .add_op(
            Arc::new(Flaky {
                label: "flaky_step".into(),
                remaining_good: Arc::clone(budget),
            }),
            &[ok],
        )
        .unwrap();
    let tail = dag
        .add_op(Arc::new(Ok1("tail_step".into())), &[flaky])
        .unwrap();
    dag.mark_terminal(tail).unwrap();
    dag
}

fn sharded(config: ServerConfig, shards: usize) -> OptimizerServer {
    OptimizerServer::new(ServerConfig { shards, ..config })
}

/// Vertex count across every shard.
fn n_vertices(server: &OptimizerServer) -> usize {
    server.shards().view().n_vertices()
}

/// The salvage half, at any shard count; returns the original server
/// and its flaky op's budget.
fn salvage_prefix_without_corrupting_the_graph(
    shards: usize,
) -> (OptimizerServer, Arc<AtomicUsize>) {
    let server = sharded(ServerConfig::collaborative(u64::MAX), shards);
    let budget = Arc::new(AtomicUsize::new(1));

    // First run succeeds end to end and populates the graph.
    let (_, report) = server.run_workload(workload(&budget)).unwrap();
    assert_eq!(report.ops_executed, 3);
    let vertices_after_success = n_vertices(&server);
    let stats_after_success = server.stats();

    // Exhaust the flaky op's budget and force a recompute of the flaky
    // node by a *modified* downstream workload (the stored artifacts
    // would otherwise serve the repeat).
    let mut dag = workload(&budget);
    let flaky_node = co_graph::NodeId(2);
    let extra = dag
        .add_op(Arc::new(Ok1("new_tail".into())), &[flaky_node])
        .unwrap();
    dag.mark_terminal(extra).unwrap();
    {
        // A fresh server with no materialization: guaranteed recompute.
        let kg = sharded(ServerConfig::baseline(), shards);
        let err = kg.run_workload(dag).unwrap_err();
        assert!(
            matches!(err.error, GraphError::OperationFailed { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("injected failure"));
        // The failure is isolated to the flaky node and its descendants;
        // the computed prefix (src, stable_step) is salvaged into the EG.
        assert_eq!(err.untainted(), 2, "tainted: {:?}", err.tainted);
        assert_eq!(err.completed.len(), 1); // stable_step (src was free)
        assert_eq!(err.report.salvaged_artifacts, 1);
        assert_eq!(n_vertices(&kg), 2, "only the untainted prefix may merge");
        let stats = kg.stats();
        assert_eq!(stats.workloads, 0);
        assert_eq!(stats.failed_workloads, 1);
        assert_eq!(stats.salvaged_artifacts, 1);
    }

    // The original server is untouched by any of this.
    assert_eq!(n_vertices(&server), vertices_after_success);
    assert_eq!(server.stats(), stats_after_success);
    (server, budget)
}

#[test]
fn failed_workloads_salvage_their_prefix_without_corrupting_the_graph() {
    let (server, budget) = salvage_prefix_without_corrupting_the_graph(1);
    // And it still serves the (materialized) original workload — the
    // flaky op never needs to run again. Materializing it is the paper's
    // materializer's decision, which runs at one shard only.
    let (_, repeat) = server.run_workload(workload(&budget)).unwrap();
    assert_eq!(repeat.ops_executed, 0);
    assert!(repeat.artifacts_loaded >= 1);
}

#[test]
fn failed_workloads_salvage_their_prefix_without_corrupting_the_graph_sharded() {
    salvage_prefix_without_corrupting_the_graph(8);
}

fn reject_workload_without_terminals(shards: usize) {
    let server = sharded(ServerConfig::collaborative(u64::MAX), shards);
    let mut dag = WorkloadDag::new();
    dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let err = server.run_workload(dag).unwrap_err();
    assert!(matches!(err.error, GraphError::NoTerminals));
    // Failure predates execution: nothing to salvage, nothing merged.
    assert!(err.tainted.is_empty());
    assert_eq!(n_vertices(&server), 0);
    assert_eq!(server.stats().salvaged_artifacts, 0);
}

#[test]
fn workload_without_terminals_is_rejected_cleanly() {
    reject_workload_without_terminals(1);
}

#[test]
fn workload_without_terminals_is_rejected_cleanly_sharded() {
    reject_workload_without_terminals(8);
}

#[test]
fn type_mismatches_surface_as_operation_errors() {
    // Feed an Aggregate into a dataset-expecting op via a custom source.
    // The static validator catches this before anything executes.
    let server = OptimizerServer::new(ServerConfig::baseline());
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("scalar_src", Value::Aggregate(Scalar::Float(1.0)));
    let bad = dag
        .add_op(
            Arc::new(co_core::ops::SelectOp {
                columns: vec!["x".into()],
            }),
            &[s],
        )
        .unwrap();
    dag.mark_terminal(bad).unwrap();
    let err = server.run_workload(dag).unwrap_err();
    match &err.error {
        GraphError::InvalidWorkload { diagnostics } => {
            assert_eq!(diagnostics.len(), 1, "{err}");
            assert!(diagnostics[0].contains("bad-input-kind"), "{err}");
            assert!(diagnostics[0].contains("scalar_src"), "{err}");
        }
        other => panic!("expected InvalidWorkload, got {other}"),
    }
    // Rejection predates execution: no retries were burned on it.
    assert_eq!(err.report.retries, 0);
}

/// A server that sees a failing workload keeps serving others.
fn recover_after_failure(shards: usize) {
    let server = sharded(ServerConfig::collaborative(u64::MAX), shards);
    let exhausted = Arc::new(AtomicUsize::new(0)); // fails immediately
    let err = server.run_workload(workload(&exhausted)).unwrap_err();
    assert!(matches!(err.error, GraphError::OperationFailed { .. }));

    // A healthy variant of the same pipeline succeeds afterwards; the
    // salvaged prefix may be reused, so at most the flaky node and its
    // descendants recompute.
    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    let (_, report) = server.run_workload(workload(&healthy)).unwrap();
    assert!(
        report.ops_executed >= 2 && report.ops_executed <= 3,
        "{report:?}"
    );
    assert!(n_vertices(&server) > 0);
}

#[test]
fn recovery_after_failure_is_complete() {
    recover_after_failure(1);
}

#[test]
fn recovery_after_failure_is_complete_sharded() {
    recover_after_failure(8);
}

#[test]
fn transient_failures_are_retried_to_success() {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let faults = Arc::new(FaultInjector::new());
    // Two transient failures, then clean: default policy (3 attempts)
    // absorbs them without the client ever seeing an error.
    faults.fail_op("stable_step", FaultKind::Transient, 2);
    server.set_fault_injector(Arc::clone(&faults));

    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    let (_, report) = server.run_workload(workload(&healthy)).unwrap();
    assert_eq!(report.retries, 2);
    assert_eq!(report.ops_executed, 3);
    let stats = server.stats();
    assert_eq!(stats.workloads, 1);
    assert_eq!(stats.failed_workloads, 0);
}

/// A permanent failure merges exactly the untainted prefix.
fn salvage_prefix_after_permanent_failure(shards: usize) -> OptimizerServer {
    let server = sharded(ServerConfig::collaborative(u64::MAX), shards);
    let exhausted = Arc::new(AtomicUsize::new(0));
    let err = server.run_workload(workload(&exhausted)).unwrap_err();
    assert_eq!(err.untainted(), 2); // src + stable_step survive
    assert_eq!(server.stats().salvaged_artifacts, 1);
    assert_eq!(n_vertices(&server), 2);
    server
}

#[test]
fn permanent_failure_salvages_prefix_for_resubmission() {
    let server = salvage_prefix_after_permanent_failure(1);
    // Resubmitting with the fault fixed reuses the salvaged prefix:
    // stable_step never runs again.
    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    let (_, report) = server.run_workload(workload(&healthy)).unwrap();
    assert_eq!(report.ops_executed, 2, "{report:?}"); // flaky + tail only
    assert!(report.artifacts_loaded >= 1);
}

#[test]
fn permanent_failure_salvages_prefix_for_resubmission_sharded() {
    salvage_prefix_after_permanent_failure(8);
}

#[test]
fn panics_in_user_operations_are_isolated() {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let ok = dag
        .add_op(Arc::new(Ok1("stable_step".into())), &[s])
        .unwrap();
    let boom = dag.add_op(Arc::new(Panicky), &[ok]).unwrap();
    dag.mark_terminal(boom).unwrap();

    let err = server.run_workload(dag).unwrap_err();
    assert!(
        matches!(err.error, GraphError::OperationPanicked { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("user code exploded"));
    assert_eq!(err.report.panics_caught, 1);

    // The server survives: no poisoned locks, later workloads succeed.
    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    let (_, report) = server.run_workload(workload(&healthy)).unwrap();
    assert!(report.ops_executed >= 2);
}

#[test]
fn load_misses_fall_back_to_recompute() {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    server.run_workload(workload(&healthy)).unwrap();

    // Sanity: the repeat is served purely from the store.
    let (_, repeat) = server.run_workload(workload(&healthy)).unwrap();
    assert_eq!(repeat.ops_executed, 0);

    // Now every load silently misses (a store that lost its contents
    // after the plan was drawn). The executor degrades the plan to
    // recomputation instead of erroring.
    let faults = Arc::new(FaultInjector::new());
    for n in 0..64 {
        faults.fail_nth_load(n);
    }
    server.set_fault_injector(Arc::clone(&faults));
    let (_, degraded) = server.run_workload(workload(&healthy)).unwrap();
    assert!(degraded.load_misses_recovered >= 1, "{degraded:?}");
    assert!(degraded.ops_executed >= 1);
    assert!(faults.loads_failed() >= 1);
}

fn recompute_evicted_artifacts(shards: usize) {
    let server = sharded(ServerConfig::collaborative(u64::MAX), shards);
    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    let (dag, first) = server.run_workload(workload(&healthy)).unwrap();
    assert_eq!(first.ops_executed, 3);

    // Evict everything the run materialized.
    let ids: Vec<_> = {
        let view = server.shards().view();
        view.graphs()
            .flat_map(|eg| eg.storage().materialized_ids())
            .collect()
    };
    assert!(!ids.is_empty());
    let mut freed = 0;
    for id in ids {
        freed += server.evict_artifact(id);
    }
    assert!(freed > 0);
    drop(dag);

    // The resubmission cannot load anything, so it recomputes — cleanly.
    let (_, report) = server.run_workload(workload(&healthy)).unwrap();
    assert_eq!(report.ops_executed, 3, "{report:?}");
}

#[test]
fn evicted_artifacts_recompute_instead_of_erroring() {
    recompute_evicted_artifacts(1);
}

#[test]
fn evicted_artifacts_recompute_instead_of_erroring_sharded() {
    recompute_evicted_artifacts(8);
}

/// Adds one derived column after a real pause, so the result is worth
/// materializing (its recreation cost beats the modelled load cost).
struct SlowDerive(&'static str);
impl Operation for SlowDerive {
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
        std::thread::sleep(std::time::Duration::from_millis(2));
        let df = inputs[0].as_dataset().expect("dataset input");
        Ok(Value::dataset(
            ops::map_column(df, "x", &MapFn::AddConst(1.0), self.0).expect("x exists"),
        ))
    }
}

/// `source → steps[0] → steps[1] → …` over a fresh frame named `source`.
fn chain(source: &str, steps: &[&'static str]) -> WorkloadDag {
    let frame = DataFrame::new(vec![Column::source(
        source,
        "x",
        ColumnData::Float((0..500).map(f64::from).collect()),
    )])
    .unwrap();
    let mut dag = WorkloadDag::new();
    let mut node = dag.add_source(source, Value::dataset(frame));
    for step in steps {
        node = dag.add_op(Arc::new(SlowDerive(step)), &[node]).unwrap();
    }
    dag.mark_terminal(node).unwrap();
    dag
}

#[test]
fn load_misses_during_a_publish_keep_untouched_artifacts() {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let (first, _) = server.run_workload(chain("t", &["a", "b"])).unwrap();
    let derived: Vec<_> = first.nodes()[1..].iter().map(|n| n.artifact).collect();
    let stored = |server: &OptimizerServer| {
        let view = server.shards().view();
        derived
            .iter()
            .filter(|id| view.graphs().any(|g| g.is_materialized(**id)))
            .count()
    };
    assert_eq!(stored(&server), 2, "the unlimited budget stores both");

    // From now on every store read misses. An unrelated workload loads
    // nothing, and its publish must not read the store either: the
    // materializer decides from column ids and byte counts, so a load
    // fault can neither evict artifacts the workload never touched nor
    // drop the sources from the budget.
    let faults = Arc::new(FaultInjector::new());
    for n in 0..10_000 {
        faults.fail_nth_load(n);
    }
    server.set_fault_injector(Arc::clone(&faults));
    let (_, report) = server.run_workload(chain("u", &["c"])).unwrap();
    assert_eq!(stored(&server), 2, "untouched artifacts were evicted");
    assert_eq!(faults.loads_seen(), 0, "the publish read the store");
    assert_eq!(report.materializer_bytes_read, 0);
}
