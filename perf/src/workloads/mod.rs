//! The four workloads and what they share: the staged in-process
//! submission the driver times from outside, and the per-stage totals a
//! traced run collects at the same boundaries.

pub mod durable_publish;
pub mod kaggle_seq;
pub mod openml_stream;
pub mod serve_mix;

use crate::metrics::Values;
use crate::speed::Speedometer;
use crate::trace::Tracer;
use crate::Result;
use co_core::{ExecutionReport, OptimizerServer, PrunedWorkload};
use co_graph::{NodeKind, WorkloadDag};
use std::path::Path;
use std::time::{Duration, Instant};

/// How often a workload sets itself up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// What a workload needs to know about this run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// `--seed`: the only source of input variation.
    pub seed: u64,
    /// Share of the frozen sizes to run (1.0 at the `run_seconds` of
    /// `BENCHMARK.json`; a traced run gives each of its halves 0.5).
    pub scale: f64,
    /// `--smoke`: tiny data as well as tiny counts.
    pub smoke: bool,
    /// Record spans and per-stage counts.
    pub traced: bool,
    /// `--perturb-reference`: spoil the expected values, to show that the
    /// output checks can fail.
    pub perturb: bool,
    /// Scratch directory of this process, removed on exit.
    pub tmp: &'a Path,
}

impl Ctx<'_> {
    /// A frozen count scaled to this run, never below `min`.
    #[must_use]
    pub fn scaled(&self, frozen: usize, min: usize) -> usize {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let n = (frozen as f64 * self.scale).round() as usize;
        n.max(min)
    }
}

/// What one run of one workload measured. The four end-to-end timings
/// are in reference seconds (see [`crate::speed`]) and each is a median
/// over consecutive blocks of its timed section, so that a stretch of the
/// run the machine disturbed does not move it; everything else is raw
/// wall clock.
#[derive(Debug)]
pub struct Outcome {
    /// Reference seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Workloads completed in the primary timed section.
    pub completed: u64,
    /// Workloads per reference second in the primary timed section: the
    /// rate of each client thread's median block, summed over threads.
    pub workloads_per_s: f64,
    /// Per-workload latencies (reference milliseconds) of the primary
    /// section in submission order, thread after thread; the percentiles
    /// are medians over blocks of these.
    pub latencies_ms: Vec<f64>,
    /// Reference seconds to resubmit the fixed, already-served set: the
    /// median block's time, scaled to the whole set.
    pub rerun_s: f64,
    /// Wall seconds client threads spent inside their timed loops, summed
    /// over threads: what the root spans of a traced run should cover.
    pub loop_s: f64,
    /// `storage_stats()` at the end: artifacts, unique bytes, logical
    /// bytes.
    pub store: (usize, u64, u64),
    /// Submissions made in the timed sections.
    pub attempted: u64,
    /// Submissions that errored, were refused or missed a deadline.
    pub failed: u64,
    /// Every output check that did not hold.
    pub check_failures: Vec<String>,
    /// Per-layer values (only a traced run fills the stage ones).
    pub layers: Values,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Per-stage totals of a traced run, taken from what the stages return.
#[derive(Debug, Default)]
pub struct StageTotals {
    /// Sum of every submission's report.
    pub report: ExecutionReport,
    /// Submissions absorbed.
    pub calls: u64,
    join_s: f64,
    groupby_s: f64,
    other_s: f64,
    dataframe_ops: u64,
    train_s: f64,
    train_n: u64,
    transform_s: f64,
}

/// `co-ml` work other than training, by operation name.
const ML_TRANSFORMS: &[&str] = &[
    "impute",
    "scale",
    "select_k_best",
    "pca",
    "poly2",
    "cluster_features",
    "count_vectorize",
    "tfidf_vectorize",
    "evaluate",
    "predict",
];

impl StageTotals {
    /// Add one published workload: its report, and the compute time the
    /// executor annotated on each node it actually ran, by operation.
    pub fn absorb(&mut self, dag: &WorkloadDag, report: &ExecutionReport) {
        self.report.accumulate(report);
        self.calls += 1;
        for node in dag.nodes() {
            let (Some(seconds), Some(edge)) = (
                node.compute_time,
                node.producer.and_then(|e| dag.edges().get(e)),
            ) else {
                continue;
            };
            let op = edge.op.name();
            if node.kind == NodeKind::Model {
                self.train_s += seconds;
                self.train_n += 1;
            } else if ML_TRANSFORMS.contains(&op) {
                self.transform_s += seconds;
            } else {
                self.dataframe_ops += 1;
                if op.ends_with("join") {
                    self.join_s += seconds;
                } else if op == "groupby" {
                    self.groupby_s += seconds;
                } else {
                    self.other_s += seconds;
                }
            }
        }
    }

    /// Fold another thread's totals in.
    pub fn merge(&mut self, other: &StageTotals) {
        self.report.accumulate(&other.report);
        self.calls += other.calls;
        self.join_s += other.join_s;
        self.groupby_s += other.groupby_s;
        self.other_s += other.other_s;
        self.dataframe_ops += other.dataframe_ops;
        self.train_s += other.train_s;
        self.train_n += other.train_n;
        self.transform_s += other.transform_s;
    }

    /// Write the totals and the tracer's per-stage self times out as
    /// per-layer values.
    #[allow(clippy::cast_precision_loss)] // counts of one short run
    pub fn write(&self, tracer: &Tracer, layers: &mut Values) {
        let busy = tracer.self_seconds();
        for (span, metric) in [
            ("core.prune", "core.prune.busy_s"),
            ("core.plan", "core.plan.busy_s"),
            ("core.execute", "core.execute.busy_s"),
            ("core.publish", "core.publish.busy_s"),
        ] {
            layers.insert(metric, busy.get(span).copied().unwrap_or(0.0));
        }
        let r = &self.report;
        layers.insert("core.prune.calls", self.calls as f64);
        layers.insert("core.plan.optimizer_s", r.optimizer_seconds);
        layers.insert("core.execute.ops_executed", r.ops_executed as f64);
        layers.insert("core.execute.artifacts_loaded", r.artifacts_loaded as f64);
        layers.insert("core.execute.nodes_skipped", r.nodes_skipped as f64);
        layers.insert("core.execute.warmstarts", r.warmstarts as f64);
        layers.insert("core.execute.retries", r.retries as f64);
        layers.insert("core.publish.materializer_s", r.materializer_seconds);
        let touched = r.artifacts_loaded + r.ops_executed;
        if touched > 0 {
            layers.insert(
                "core.reuse_ratio",
                r.artifacts_loaded as f64 / touched as f64,
            );
        }
        layers.insert("dataframe.join.busy_s", self.join_s);
        layers.insert("dataframe.groupby.busy_s", self.groupby_s);
        layers.insert("dataframe.other.busy_s", self.other_s);
        layers.insert("dataframe.ops", self.dataframe_ops as f64);
        layers.insert("ml.train.busy_s", self.train_s);
        layers.insert("ml.train.count", self.train_n as f64);
        layers.insert("ml.transform.busy_s", self.transform_s);
    }
}

/// Submit one workload through the four public pipeline stages — exactly
/// the calls `OptimizerServer::run_workload` makes — timing the whole
/// from outside and, when tracing, each stage as a child span.
///
/// # Errors
///
/// The workload's own failure (invalid DAG, failed operation, rejected
/// publish).
pub fn submit(
    server: &OptimizerServer,
    dag: WorkloadDag,
    tracer: &mut Tracer,
    request: u64,
    totals: &mut StageTotals,
) -> Result<(WorkloadDag, ExecutionReport, Duration)> {
    let start = Instant::now();
    let root = tracer.open("submit", None, request);
    let pruned = tracer.scope("core.prune", root, request, || PrunedWorkload::new(dag))?;
    let planned = tracer.scope("core.plan", root, request, || server.plan_workload(pruned))?;
    let executed = tracer.scope("core.execute", root, request, || {
        planned.execute(&server.executor_config())
    });
    let (dag, report) = tracer.scope("core.publish", root, request, || {
        server.publish_workload(executed)
    })?;
    tracer.close(root);
    let latency = start.elapsed();
    if tracer.enabled() {
        totals.absorb(&dag, &report);
    }
    Ok((dag, report, latency))
}

/// Vertices of the Experiment Graph, over every shard.
#[must_use]
pub fn vertices(server: &OptimizerServer) -> usize {
    let shards = server.shards().read_all();
    shards.iter().map(|g| g.n_vertices()).sum()
}

/// Server-wide values every workload reports at its end: graph size,
/// store contents, and what the lifetime stats say reuse saved.
#[allow(clippy::cast_precision_loss)] // counts of one short run
pub fn server_layers(server: &OptimizerServer, layers: &mut Values) -> (usize, u64, u64) {
    let store = server.storage_stats();
    layers.insert("graph.eg.vertices", vertices(server) as f64);
    layers.insert("graph.store.artifacts", store.0 as f64);
    layers.insert("graph.store.unique_bytes", store.1 as f64);
    layers.insert("graph.store.logical_bytes", store.2 as f64);
    let stats = server.stats();
    if stats.baseline_seconds > 0.0 {
        layers.insert(
            "core.saved_fraction",
            1.0 - stats.run_seconds / stats.baseline_seconds,
        );
    }
    layers.insert(
        "graph.durability.compactions",
        stats.snapshots_compacted as f64,
    );
    store
}

/// Per-shard lock-wait deltas as per-layer values: total seconds
/// publishers spent blocked, and the hottest shard's share of it.
#[allow(clippy::cast_precision_loss)] // nanosecond counts of one short run
pub fn lock_wait_layers(before: &[u64], after: &[u64], layers: &mut Values) {
    let deltas: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = deltas.iter().sum();
    layers.insert("core.publish.lock_wait_s", total as f64 / 1e9);
    if let (Some(max), true) = (deltas.iter().max(), total > 0) {
        layers.insert(
            "graph.shard.lock_wait_max_share",
            *max as f64 / total as f64,
        );
    }
}

/// `/proc/self/io` write counters as a delta since `before`.
#[allow(clippy::cast_precision_loss)] // byte counts of one short run
pub fn write_layers(before: Option<(u64, u64)>, layers: &mut Values) {
    if let (Some((b0, s0)), Some((b1, s1))) = (before, crate::procfs::write_counters()) {
        layers.insert("graph.durability.write_bytes", b1.saturating_sub(b0) as f64);
        layers.insert(
            "graph.durability.write_syscalls",
            s1.saturating_sub(s0) as f64,
        );
    }
}

/// Requests per reference second of one client thread's median block
/// (see [`Speedometer::median_block`]).
///
/// # Errors
///
/// No request was made.
pub fn block_rate(meter: &Speedometer, starts: &[f64], end: f64, per_block: usize) -> Result<f64> {
    let (size, seconds) = meter
        .median_block(starts, end, per_block)
        .ok_or("no request was timed")?;
    #[allow(clippy::cast_precision_loss)] // a block's request count
    Ok(size as f64 / seconds)
}

/// Reference seconds all of `starts`' requests take at the pace of the
/// median block.
///
/// # Errors
///
/// No request was made.
pub fn block_total(meter: &Speedometer, starts: &[f64], end: f64, per_block: usize) -> Result<f64> {
    #[allow(clippy::cast_precision_loss)] // request counts of one short run
    Ok(starts.len() as f64 / block_rate(meter, starts, end, per_block)?)
}

/// Latencies taken at moments of `meter`'s clock, as reference
/// milliseconds.
#[must_use]
pub fn reference_ms(meter: &Speedometer, samples: &[(f64, Duration)]) -> Vec<f64> {
    samples
        .iter()
        .map(|(at, latency)| latency.as_secs_f64() * 1e3 * meter.ratio_at(*at))
        .collect()
}

/// Set up [`SETUP_REPS`] times, dropping each result before the next
/// repetition; returns the last set-up and every repetition's reference
/// seconds.
///
/// # Errors
///
/// The first set-up failure.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> Result<S>) -> Result<(S, Vec<f64>)> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let mut meter = Speedometer::start();
        let (s, took) = timed(&mut setup);
        meter.sample();
        seconds.push(took * meter.ratio());
        last = Some(s?);
    }
    last.map(|s| (s, seconds))
        .ok_or_else(|| "set-up did not run".into())
}

/// Time `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
