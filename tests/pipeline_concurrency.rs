//! The staged pipeline under contention (DESIGN.md §9): execution holds
//! no Experiment Graph lock, so a slow workload cannot block another
//! session's planning or publication, and concurrent evictions degrade
//! plans to recomputation instead of failing them.

use co_core::{OptimizerServer, Script, ServerConfig};
use co_dataframe::ops::{MapFn, Predicate};
use co_graph::{FaultInjector, GraphQuery, WorkloadDag};
use co_ml::linear::LogisticParams;
use co_workloads::data::{creditg, CreditG};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared prefix (map over `a0`), distinct training hyperparameters.
fn map_train(data: &CreditG, lr: f64) -> WorkloadDag {
    let mut s = Script::new();
    let train = s.load("creditg_train", data.train.clone());
    let m = s.map(train, "a0", MapFn::Abs, "a0_abs").unwrap();
    let model = s
        .train_logistic(
            m,
            "class",
            LogisticParams {
                lr,
                ..Default::default()
            },
        )
        .unwrap();
    s.output(model).unwrap();
    s.into_dag()
}

/// A workload whose only non-training op is `filter` — the op the
/// non-blocking test injects latency into.
fn filter_train(data: &CreditG) -> WorkloadDag {
    let mut s = Script::new();
    let train = s.load("creditg_train", data.train.clone());
    let f = s.filter(train, Predicate::gt_f("a1", -1000.0)).unwrap();
    let model = s
        .train_logistic(f, "class", LogisticParams::default())
        .unwrap();
    s.output(model).unwrap();
    s.into_dag()
}

/// N submitters race overlapping-but-distinct workloads while an evictor
/// thread continuously drops artifact contents. Every run must succeed
/// (planned loads that miss degrade to recomputation), and the lifetime
/// stats must equal the sum of the per-run reports.
fn submissions_with_evictions_all_succeed(shards: usize) {
    let data = creditg(200, 0);
    let server = Arc::new(OptimizerServer::new(ServerConfig {
        shards,
        ..ServerConfig::collaborative(u64::MAX)
    }));
    let stop = AtomicBool::new(false);
    let reports = parking_lot::Mutex::new(Vec::new());

    crossbeam::thread::scope(|scope| {
        let evictor = {
            let server = Arc::clone(&server);
            let stop = &stop;
            scope.spawn(move |_| {
                while !stop.load(Ordering::Relaxed) {
                    let ids: Vec<_> = {
                        let view = server.shards().view();
                        view.graphs()
                            .flat_map(|eg| eg.storage().materialized_ids())
                            .collect()
                    };
                    for id in ids {
                        server.evict_artifact(id);
                    }
                    std::thread::yield_now();
                }
            })
        };
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                let data = data.clone();
                let reports = &reports;
                scope.spawn(move |_| {
                    for r in 0..3 {
                        let lr = 0.05 + 0.05 * f64::from(t * 3 + r);
                        let (_, report) = server
                            .run_workload(map_train(&data, lr))
                            .expect("evictions must degrade, not fail");
                        reports.lock().push(report);
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        evictor.join().unwrap();
    })
    .unwrap();

    let reports = reports.into_inner();
    let stats = server.stats();
    assert_eq!(reports.len(), 12);
    assert_eq!(stats.workloads, 12);
    assert_eq!(stats.failed_workloads, 0);
    assert_eq!(
        stats.ops_executed,
        reports.iter().map(|r| r.ops_executed).sum::<usize>()
    );
    assert_eq!(
        stats.artifacts_loaded,
        reports.iter().map(|r| r.artifacts_loaded).sum::<usize>()
    );
    assert_eq!(
        stats.warmstarts,
        reports.iter().map(|r| r.warmstarts).sum::<usize>()
    );
    let run_sum: f64 = reports
        .iter()
        .map(co_core::ExecutionReport::run_seconds)
        .sum();
    assert!((stats.run_seconds - run_sum).abs() < 1e-9);
    // Every distinct model landed in the shared graph despite evictions.
    let view = server.shards().view();
    for t in 0..4u32 {
        for r in 0..3u32 {
            let lr = 0.05 + 0.05 * f64::from(t * 3 + r);
            let dag = map_train(&data, lr);
            for node in dag.nodes() {
                assert!(
                    view.lookup(node.artifact).is_some(),
                    "lr={lr} artifact missing"
                );
            }
        }
    }
}

#[test]
fn contended_submissions_with_evictions_all_succeed() {
    submissions_with_evictions_all_succeed(1);
}

#[test]
fn contended_submissions_with_evictions_all_succeed_sharded() {
    submissions_with_evictions_all_succeed(8);
}

/// The acceptance demonstration that no EG lock is held during
/// `Operation::run`: a workload stuck in an injected 800 ms `filter`
/// latency must not block a concurrent workload's plan, execution, or
/// (write-locked) update+materialize phase. Before the staged pipeline,
/// the slow run's read lock made the fast run's publication wait out the
/// whole latency.
#[test]
fn slow_execution_does_not_block_concurrent_publication() {
    let data = creditg(200, 0);
    let server = Arc::new(OptimizerServer::new(ServerConfig::collaborative(u64::MAX)));
    let faults = Arc::new(FaultInjector::new());
    faults.inject_latency("filter", Duration::from_millis(800));
    server.set_fault_injector(faults);

    crossbeam::thread::scope(|scope| {
        let slow = {
            let server = Arc::clone(&server);
            let data = data.clone();
            scope.spawn(move |_| {
                let (_, report) = server.run_workload(filter_train(&data)).unwrap();
                report
            })
        };
        // Give the slow workload time to pass planning and enter the
        // latency-injected filter execution.
        std::thread::sleep(Duration::from_millis(150));

        let start = Instant::now();
        let (_, fast) = server.run_workload(map_train(&data, 0.3)).unwrap();
        let elapsed = start.elapsed();
        assert!(fast.ops_executed > 0);
        assert!(
            elapsed < Duration::from_millis(400),
            "fast workload took {elapsed:?}; it must not wait out the slow \
             workload's injected latency"
        );

        let slow_report = slow.join().unwrap();
        assert!(slow_report.ops_executed > 0);
    })
    .unwrap();

    // Both publications landed.
    assert_eq!(server.stats().workloads, 2);
}
