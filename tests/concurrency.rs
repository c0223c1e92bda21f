//! Multi-tenant behavior: the paper's collaborative environment runs
//! many isolated clients against one shared Experiment Graph (§3). These
//! tests drive concurrent sessions through one server.

use co_core::ops::EvalMetric;
use co_core::{OptimizerServer, Script, ServerConfig};
use co_graph::{GraphQuery, WorkloadDag};
use co_workloads::data::{creditg, CreditG};
use co_workloads::openml;
use std::sync::Arc;

fn simple_workload(data: &CreditG, lr: f64) -> WorkloadDag {
    let mut s = Script::new();
    let train = s.load("creditg_train", data.train.clone());
    let test = s.load("creditg_test", data.test.clone());
    let model = s
        .train_logistic(
            train,
            "class",
            co_ml::linear::LogisticParams {
                lr,
                ..Default::default()
            },
        )
        .unwrap();
    let score = s
        .evaluate(model, test, "class", EvalMetric::RocAuc)
        .unwrap();
    s.output(score).unwrap();
    s.into_dag()
}

fn server(shards: usize) -> Arc<OptimizerServer> {
    Arc::new(OptimizerServer::new(ServerConfig {
        shards,
        ..ServerConfig::collaborative(u64::MAX)
    }))
}

fn identical_submissions_converge(shards: usize) {
    let data = creditg(300, 0);
    let server = server(shards);
    crossbeam::thread::scope(|scope| {
        for _ in 0..8 {
            let server = Arc::clone(&server);
            let data = data.clone();
            scope.spawn(move |_| {
                let (dag, report) = server.run_workload(simple_workload(&data, 0.3)).unwrap();
                assert!(report.ops_executed + report.artifacts_loaded > 0);
                let score = co_workloads::runner::terminal_eval_score(&dag).unwrap();
                assert!(score > 0.5);
            });
        }
    })
    .unwrap();
    // One artifact set, regardless of racing updaters.
    let dag = simple_workload(&data, 0.3);
    let view = server.shards().view();
    for node in dag.nodes() {
        assert!(view.lookup(node.artifact).unwrap().frequency >= 1);
    }
}

#[test]
fn identical_concurrent_submissions_converge() {
    identical_submissions_converge(1);
}

#[test]
fn identical_concurrent_submissions_converge_sharded() {
    identical_submissions_converge(8);
}

fn distinct_submissions_all_land(shards: usize) {
    let data = creditg(300, 0);
    let server = server(shards);
    let rates = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    crossbeam::thread::scope(|scope| {
        for &lr in &rates {
            let server = Arc::clone(&server);
            let data = data.clone();
            scope.spawn(move |_| {
                server.run_workload(simple_workload(&data, lr)).unwrap();
            });
        }
    })
    .unwrap();
    let view = server.shards().view();
    for &lr in &rates {
        let dag = simple_workload(&data, lr);
        for node in dag.nodes() {
            assert!(
                view.lookup(node.artifact).is_some(),
                "lr={lr} artifact missing"
            );
        }
    }
}

#[test]
fn distinct_concurrent_submissions_all_land_in_the_graph() {
    distinct_submissions_all_land(1);
}

#[test]
fn distinct_concurrent_submissions_all_land_in_the_graph_sharded() {
    distinct_submissions_all_land(8);
}

#[test]
fn concurrent_pipeline_stream_matches_sequential_results() {
    let data = creditg(300, 0);
    // Sequential reference scores.
    let seq = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let mut expected = Vec::new();
    for i in 0..12u64 {
        let (dag, _) = seq
            .run_workload(openml::pipeline(&data, i, 5).unwrap())
            .unwrap();
        expected.push(co_workloads::runner::terminal_eval_score(&dag).unwrap());
    }
    // The same twelve pipelines raced across four threads.
    let server = Arc::new(OptimizerServer::new(ServerConfig::collaborative(u64::MAX)));
    let results = parking_lot::Mutex::new(vec![0.0f64; 12]);
    crossbeam::thread::scope(|scope| {
        for t in 0..4u64 {
            let server = Arc::clone(&server);
            let data = data.clone();
            let results = &results;
            scope.spawn(move |_| {
                for i in (t..12).step_by(4) {
                    let (dag, _) = server
                        .run_workload(openml::pipeline(&data, i, 5).unwrap())
                        .unwrap();
                    let score = co_workloads::runner::terminal_eval_score(&dag).unwrap();
                    results.lock()[i as usize] = score;
                }
            });
        }
    })
    .unwrap();
    let results = results.into_inner();
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert!((got - want).abs() < 1e-12, "pipeline {i}: {got} != {want}");
    }
}
