//! Materialization-algorithm throughput (the updater-side overhead of
//! §5): one full selection pass over an Experiment Graph populated by the
//! Kaggle workloads.

use co_core::materialize::{
    GreedyMaterializer, HelixMaterializer, Materializer, StorageAwareMaterializer,
};
use co_core::server::{MaterializerKind, ReuseKind};
use co_core::{CostModel, OptimizerServer, ServerConfig};
use co_graph::{ArtifactId, ExperimentGraph, Value};
use co_workloads::data::{home_credit, HomeCreditScale};
use co_workloads::kaggle;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

/// Build an EG holding all eight workloads' artifacts plus their
/// contents, at test scale.
fn populated_eg(dedup: bool) -> (ExperimentGraph, HashMap<ArtifactId, Value>) {
    let data = home_credit(&HomeCreditScale::tiny());
    let srv = OptimizerServer::new(ServerConfig {
        budget: u64::MAX,
        alpha: 0.5,
        materializer: MaterializerKind::All,
        reuse: ReuseKind::Linear,
        cost: CostModel::memory(),
        warmstart: false,
        retry: co_core::RetryPolicy::default(),
        quarantine_after: Some(3),
        shards: 1,
    });
    let mut available = HashMap::new();
    for dag in kaggle::all_workloads(&data).expect("builds") {
        let (executed, _) = srv.run_workload(dag).expect("runs");
        for node in executed.nodes() {
            if let Some(v) = &node.computed {
                available.insert(node.artifact, v.clone());
            }
        }
    }
    // Rebuild a fresh EG of the requested dedup mode from the artifacts.
    let mut eg = ExperimentGraph::new(dedup);
    for dag in kaggle::all_workloads(&data).expect("builds") {
        let (executed, _) = srv.run_workload(dag).expect("runs");
        eg.update_with_workload(&executed).expect("updates");
    }
    (eg, available)
}

fn bench_materializers(c: &mut Criterion) {
    let cost = CostModel::memory();
    let mut group = c.benchmark_group("materializers");
    group.sample_size(10);

    let (eg, available) = populated_eg(false);
    let budget = eg.total_artifact_bytes() / 8;
    group.bench_function("greedy_hm", |b| {
        b.iter_batched(
            || populated_eg(false).0,
            |mut eg| {
                GreedyMaterializer::new(budget).run(&mut eg, &available, &cost);
                black_box(eg.storage().n_artifacts())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("helix", |b| {
        b.iter_batched(
            || populated_eg(false).0,
            |mut eg| {
                HelixMaterializer { budget }.run(&mut eg, &available, &cost);
                black_box(eg.storage().n_artifacts())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("storage_aware", |b| {
        b.iter_batched(
            || populated_eg(true).0,
            |mut eg| {
                StorageAwareMaterializer::new(budget).run(&mut eg, &available, &cost);
                black_box(eg.storage().n_artifacts())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
    drop(eg);
}

criterion_group!(benches, bench_materializers);
criterion_main!(benches);
