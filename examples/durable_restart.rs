//! Durable restart: run a workload against a server opened from a data
//! directory, "crash" it (drop the process state), reopen from the same
//! directory, and watch the recovered Experiment Graph plan with full
//! cost information — frequencies, compute times, and materialization
//! flags all survive; only artifact *content* streams back in as
//! workloads re-execute (see DESIGN.md §10).
//!
//! The second half shows the *graded* failure mode (DESIGN.md §10): the
//! disk filling up mid-session does NOT require a restart. Publishes
//! are rejected with a retriable read-only error while reads keep
//! serving, and once space is back one repair call (or the background
//! repair loop of `co-serve`) drains the queued deltas and returns the
//! server to full health.
//!
//! ```sh
//! cargo run --release -p co-workloads --example durable_restart
//! ```

use co_core::ops::EvalMetric;
use co_core::{DurabilityConfig, DurabilityHealth, OptimizerServer, Script, ServerConfig};
use co_dataframe::{Column, ColumnData, DataFrame};
use co_graph::{FaultInjector, IoFault, WorkloadDag};
use co_ml::linear::LogisticParams;
use std::sync::Arc;

fn toy_dataset() -> DataFrame {
    let n = 1500;
    let mut x1 = Vec::with_capacity(n);
    let mut x2 = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i % 13) as f64 / 13.0;
        let b = (i % 7) as f64 / 7.0;
        x1.push(a);
        x2.push(b);
        y.push(i64::from(a + b > 1.0));
    }
    DataFrame::new(vec![
        Column::source("events.csv", "x1", ColumnData::Float(x1)),
        Column::source("events.csv", "x2", ColumnData::Float(x2)),
        Column::source("events.csv", "y", ColumnData::Int(y)),
    ])
    .expect("equal-length columns")
}

fn workload() -> WorkloadDag {
    let mut s = Script::new();
    let train = s.load("events.csv", toy_dataset());
    let features = s
        .scale(train, co_ml::feature::ScaleKind::Standard, &["x1", "x2"])
        .unwrap();
    let model = s
        .train_logistic(features, "y", LogisticParams::default())
        .unwrap();
    let score = s
        .evaluate(model, features, "y", EvalMetric::RocAuc)
        .unwrap();
    s.output(score).unwrap();
    s.into_dag()
}

fn main() {
    let dir = std::env::temp_dir().join("co_durable_restart_example");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig::collaborative(1 << 30);

    println!("== session 1: fresh data directory ==");
    let (server, recovery) =
        OptimizerServer::open(config, DurabilityConfig::new(&dir)).expect("open data dir");
    println!("{}", recovery.render());
    let (_, report) = server.run_workload(workload()).expect("workload runs");
    println!(
        "executed {} operations; the committed delta is in the write-ahead journal",
        report.ops_executed
    );
    // Simulate a crash: the process state is simply dropped. Nothing
    // was shut down cleanly — durability must not depend on that.
    drop(server);

    println!("\n== session 2: reopened from {} ==", dir.display());
    let (server, recovery) =
        OptimizerServer::open(config, DurabilityConfig::new(&dir)).expect("reopen data dir");
    println!("{}", recovery.render());
    let view = server.shards().view();
    println!(
        "recovered graph: {} vertices, {} flagged materialized",
        view.n_vertices(),
        view.graphs()
            .flat_map(|eg| eg
                .topo_order()
                .iter()
                .filter(|id| eg.was_materialized(**id)))
            .count()
    );
    drop(view);

    let (_, report) = server.run_workload(workload()).expect("resubmission runs");
    println!(
        "resubmission: executed {} operations, skipped {} (recovered meta-data priced the plan)",
        report.ops_executed, report.nodes_skipped
    );

    server.compact().expect("compaction");
    println!(
        "compacted journal into snapshot ({} so far)",
        server.stats().snapshots_compacted
    );

    // The disk fills up mid-session. The old behavior was a permanent
    // wedge ("restart required"); now the server degrades to read-only
    // and heals itself once space is back — same process, no restart.
    println!("\n== the disk fills up (injected ENOSPC) ==");
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));
    faults.arm_io_fault(IoFault::Enospc, usize::MAX);
    let err = server
        .run_workload(workload())
        .expect_err("publish cannot persist");
    println!(
        "publish rejected: {} (transient: {})",
        err.error,
        err.error.is_transient()
    );
    println!(
        "health = {:?}; {} delta(s) queued for repair; reads still serve",
        server.durability_health(),
        server.backlog_len()
    );
    server
        .explain(workload())
        .expect("planning still works read-only");

    println!("\n== space freed: self-heal without restart ==");
    faults.clear_io_faults();
    server.try_repair().expect("repair runs once faults clear");
    assert_eq!(server.durability_health(), DurabilityHealth::Healthy);
    println!(
        "health = {:?}; backlog drained to {}; publishes flow again",
        server.durability_health(),
        server.backlog_len()
    );
    let (_, report) = server.run_workload(workload()).expect("healed");
    println!("post-recovery workload: {} operations", report.ops_executed);
    let _ = std::fs::remove_dir_all(&dir);
}
