//! Fault tolerance in action: transient retries, panic isolation,
//! partial-progress salvage, quarantine, load-miss degradation, and
//! graded storage degradation with self-healing (DESIGN.md §10).
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use co_core::{DurabilityConfig, DurabilityHealth, OptimizerServer, ServerConfig};
use co_dataframe::Scalar;
use co_graph::{FaultInjector, FaultKind, IoFault, NodeKind, Operation, Value, WorkloadDag};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A step that burns a little compute and succeeds.
struct Step(&'static str);
impl Operation for Step {
    fn name(&self) -> &str {
        self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        std::thread::sleep(std::time::Duration::from_millis(3));
        Ok(Value::Aggregate(Scalar::Float(1.0)))
    }
}

/// Fails permanently until its budget is refilled, like a broken
/// external dependency.
struct Brittle {
    ok_runs: Arc<AtomicUsize>,
}
impl Operation for Brittle {
    fn name(&self) -> &str {
        "brittle_step"
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        std::thread::sleep(std::time::Duration::from_millis(3));
        if self
            .ok_runs
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            Ok(Value::Aggregate(Scalar::Float(2.0)))
        } else {
            Err(co_graph::GraphError::op_failed(
                "brittle_step",
                "upstream service is down",
            ))
        }
    }
}

/// src → prep_a → prep_b → brittle_step → report_step (terminal)
fn pipeline(ok_runs: &Arc<AtomicUsize>) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let src = dag.add_source("events.csv", Value::Aggregate(Scalar::Float(0.0)));
    let a = dag.add_op(Arc::new(Step("prep_a")), &[src]).unwrap();
    let b = dag.add_op(Arc::new(Step("prep_b")), &[a]).unwrap();
    let c = dag
        .add_op(
            Arc::new(Brittle {
                ok_runs: Arc::clone(ok_runs),
            }),
            &[b],
        )
        .unwrap();
    let d = dag.add_op(Arc::new(Step("report_step")), &[c]).unwrap();
    dag.mark_terminal(d).unwrap();
    dag
}

fn main() {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));

    // 1. A workload dies on its 4th of 5 steps. The server salvages the
    //    completed prefix instead of throwing it away.
    println!("== failing run: brittle_step's dependency is down ==");
    let broken = Arc::new(AtomicUsize::new(0));
    let err = server
        .run_workload(pipeline(&broken))
        .expect_err("must fail");
    println!("error: {err}");
    println!(
        "salvaged {} of {} vertices into the Experiment Graph",
        err.untainted(),
        err.tainted.len()
    );

    // 2. The dependency comes back. Resubmission reuses the salvaged
    //    prefix: prep_a/prep_b never run again.
    println!("\n== resubmission after the dependency recovers ==");
    let fixed = Arc::new(AtomicUsize::new(usize::MAX));
    let (_, report) = server.run_workload(pipeline(&fixed)).expect("must pass");
    println!(
        "executed {} operations (prefix reused), loaded {} artifacts",
        report.ops_executed, report.artifacts_loaded
    );

    // 3. Transient flakes retry transparently under the default policy.
    println!("\n== transient flakes on a fresh server ==");
    let flaky_server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let faults = Arc::new(FaultInjector::new());
    faults.fail_op("prep_b", FaultKind::Transient, 2);
    flaky_server.set_fault_injector(Arc::clone(&faults));
    let (_, report) = flaky_server
        .run_workload(pipeline(&fixed))
        .expect("retries absorb it");
    println!(
        "succeeded after {} retries; client saw no error",
        report.retries
    );

    // 4. Panicking user code becomes a structured error, not a dead
    //    server. (Fresh server: on `flaky_server` the terminal artifact
    //    is already materialized, so report_step would never re-run and
    //    the injected panic would never fire — reuse shadows the fault.)
    println!("\n== a user op that panics ==");
    let panic_server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let panic_faults = Arc::new(FaultInjector::new());
    panic_faults.fail_op("report_step", FaultKind::Panic, 1);
    panic_server.set_fault_injector(Arc::clone(&panic_faults));
    let err = panic_server
        .run_workload(pipeline(&fixed))
        .expect_err("panic surfaces");
    println!("caught: {}", err.error);
    println!("panics_caught = {}", err.report.panics_caught);

    // 5. The store loses artifacts behind the planner's back; the
    //    executor recomputes instead of erroring.
    println!("\n== store loses its contents mid-plan ==");
    for n in 0..64 {
        faults.fail_nth_load(n);
    }
    let (_, report) = flaky_server
        .run_workload(pipeline(&fixed))
        .expect("degrades cleanly");
    println!(
        "recovered {} planned loads by recomputing ({} ops executed)",
        report.load_misses_recovered, report.ops_executed
    );

    // 6. Repeat offenders are quarantined and fast-failed.
    println!("\n== quarantine after repeated permanent failures ==");
    let q_server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let dead = Arc::new(AtomicUsize::new(0));
    for attempt in 1..=4 {
        let err = q_server
            .run_workload(pipeline(&dead))
            .expect_err("still broken");
        println!("attempt {attempt}: {}", err.error);
    }
    let quarantined = q_server
        .quarantine()
        .expect("enabled by default")
        .quarantined();
    println!("quarantined ops: {quarantined:?}");

    // 7. An operator fixes the dependency and releases the op; the next
    //    submission runs it again.
    let dag = pipeline(&dead);
    let brittle_hash = dag
        .producer(co_graph::NodeId(3))
        .expect("brittle edge")
        .op
        .op_hash();
    q_server.quarantine().unwrap().release(brittle_hash);
    dead.store(usize::MAX, Ordering::SeqCst);
    let (_, report) = q_server.run_workload(dag).expect("released and fixed");
    println!(
        "after release: executed {} operations, workload ok",
        report.ops_executed
    );

    // 8. Storage faults degrade gracefully too: a durable server whose
    //    disk fills up mid-run rejects publishes with a *retriable*
    //    read-only error (reads, reuse and planning keep serving),
    //    queues the unpersisted deltas, and heals itself the moment
    //    space is back — transient ENOSPC never needs a restart.
    println!("\n== transient ENOSPC on a durable server ==");
    let dir = std::env::temp_dir().join("co_fault_tolerance_example");
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) = OptimizerServer::open(
        ServerConfig::collaborative(u64::MAX),
        DurabilityConfig::new(&dir),
    )
    .expect("open data dir");
    let disk = Arc::new(FaultInjector::new());
    durable.set_fault_injector(Arc::clone(&disk));
    durable.run_workload(pipeline(&fixed)).expect("persists");

    disk.arm_io_fault(IoFault::Enospc, usize::MAX);
    let err = durable
        .run_workload(pipeline(&fixed))
        .expect_err("the journal append hits ENOSPC");
    println!(
        "publish rejected: {} (transient: {}); health = {:?}, backlog = {}",
        err.error,
        err.error.is_transient(),
        durable.durability_health(),
        durable.backlog_len()
    );

    disk.clear_io_faults();
    durable.try_repair().expect("space is back; repair heals");
    assert_eq!(durable.durability_health(), DurabilityHealth::Healthy);
    let (_, report) = durable.run_workload(pipeline(&fixed)).expect("healed");
    println!(
        "after repair: health = {:?}, backlog = {}, workload ran {} ops — no restart",
        durable.durability_health(),
        durable.backlog_len(),
        report.ops_executed
    );
    let _ = std::fs::remove_dir_all(&dir);

    println!("\nserver stats: {:?}", q_server.stats());
}
