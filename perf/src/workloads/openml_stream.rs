//! `openml_stream` — one client streams thousands of small, heavily
//! overlapping scikit-learn-style pipelines over credit-g into one
//! warmstarting server, then resubmits the head of the stream.
//!
//! *Why:* stratum-shaped traffic — tiny data, heavy overlap, an
//! Experiment Graph that fills up and is then read-mostly — so the
//! per-workload prune/plan/publish/materialize overhead and the reuse hit
//! rate dominate while the kernels are nearly idle.

use super::{
    block_rate, block_total, reference_ms, repeat_setup, server_layers, submit, timed,
    write_layers, Ctx, Outcome, StageTotals,
};
use crate::metrics::Values;
use crate::procfs::write_counters;
use crate::speed::Speedometer;
use crate::trace::Tracer;
use crate::Result;
use co_core::{OptimizerServer, ServerConfig};
use co_graph::WorkloadDag;
use co_workloads::data::{creditg, CreditG};
use co_workloads::openml;
use co_workloads::runner::terminal_eval_score;
use std::time::Instant;

/// Pipelines in the stream at scale 1 (the paper replays 2 000).
const PIPELINES: usize = 26_000;

/// Pipelines from the head of the stream that are resubmitted at the end.
const RERUN: usize = 3_000;

/// Pipelines in a block of either section; `workloads_per_s` and
/// `rerun_s` come from the median block (about 0.13 s of work).
const BLOCK: usize = 250;

/// Head of the stream the no-warmstart reference server also runs.
const REFERENCE: usize = 400;

/// How far the warmstarted stream's best test score may fall short of
/// the no-warmstart reference's. Warmstarting changes where iteration-
/// capped trainers stop, so single scores move by a few 1e-4 either way
/// (seed 4 at the seed commit: 0.87945 against 0.87955); a real quality
/// loss is orders of magnitude larger.
const BEST_SCORE_SLACK: f64 = 0.01;

/// Rows of credit-g (OpenML Task 31).
const ROWS: usize = 1000;

/// Storage budget; the whole stream fits.
const BUDGET_BYTES: u64 = 100 << 20;

struct Setup {
    data: CreditG,
    server: OptimizerServer,
    stream: Vec<WorkloadDag>,
    rerun: Vec<WorkloadDag>,
    datagen_s: f64,
    dsl_s: f64,
}

fn pipelines(data: &CreditG, seed: u64, n: usize) -> Result<Vec<WorkloadDag>> {
    (0..n as u64)
        .map(|i| Ok(openml::pipeline(data, i, seed)?))
        .collect()
}

fn setup(ctx: &Ctx<'_>) -> Result<Setup> {
    let (data, datagen_s) = timed(|| creditg(ROWS, ctx.seed));
    let n = ctx.scaled(PIPELINES, 20);
    let start = Instant::now();
    let stream = pipelines(&data, ctx.seed, n)?;
    let rerun = pipelines(&data, ctx.seed, ctx.scaled(RERUN, 10).min(n))?;
    let dsl_s = start.elapsed().as_secs_f64();
    let server = OptimizerServer::new(ServerConfig {
        warmstart: true,
        ..ServerConfig::collaborative(BUDGET_BYTES)
    });
    Ok(Setup {
        data,
        server,
        stream,
        rerun,
        datagen_s,
        dsl_s,
    })
}

/// Best test score over the head of the stream on a server that reuses
/// but never warmstarts.
fn reference_best(data: &CreditG, seed: u64, n: usize) -> Result<f64> {
    let server = OptimizerServer::new(ServerConfig::collaborative(BUDGET_BYTES));
    let mut best = 0.0f64;
    for dag in pipelines(data, seed, n)? {
        let (dag, _) = server.run_workload(dag)?;
        best = best.max(terminal_eval_score(&dag).unwrap_or(0.0));
    }
    Ok(best)
}

/// Run the workload once.
///
/// # Errors
///
/// A failed submission; a failed output check is reported in the outcome
/// instead.
pub fn run(ctx: &Ctx<'_>, origin: Instant) -> Result<Outcome> {
    let (
        Setup {
            data,
            server,
            stream,
            rerun,
            datagen_s,
            dsl_s,
        },
        setup_s,
    ) = repeat_setup(|| setup(ctx))?;
    let reference_n = ctx.scaled(REFERENCE, 10).min(stream.len());
    let expected_best = if ctx.perturb {
        2.0
    } else {
        reference_best(&data, ctx.seed, reference_n)?
    };

    let mut tracer = Tracer::new(ctx.traced, origin);
    let mut totals = StageTotals::default();
    let mut check_failures = Vec::new();
    let mut layers = Values::new();
    let writes_before = write_counters();
    let completed = stream.len() as u64;
    let mut samples = Vec::with_capacity(stream.len());
    let mut best = 0.0f64;
    let mut out_of_range = 0usize;
    let mut request = 0u64;
    let mut meter = Speedometer::start();
    let from = meter.now();
    for dag in stream {
        meter.tick();
        request += 1;
        let at = meter.now();
        let (dag, _, latency) = submit(&server, dag, &mut tracer, request, &mut totals)?;
        samples.push((at, latency));
        match terminal_eval_score(&dag) {
            Some(score) => best = best.max(score),
            None => out_of_range += 1,
        }
    }
    let mid = meter.now();
    let mut rerun_starts = Vec::with_capacity(rerun.len());
    for dag in rerun {
        meter.tick();
        request += 1;
        rerun_starts.push(meter.now());
        submit(&server, dag, &mut tracer, request, &mut totals)?;
    }
    let end = meter.now();
    meter.sample();
    let (primary_wall_s, _) = meter.between(from, mid);
    let (rerun_wall_s, _) = meter.between(mid, end);
    let starts: Vec<f64> = samples.iter().map(|(at, _)| *at).collect();
    let workloads_per_s = block_rate(&meter, &starts, mid, BLOCK)?;
    let rerun_s = block_total(&meter, &rerun_starts, end, BLOCK)?;

    if out_of_range > 0 {
        check_failures.push(format!(
            "{out_of_range} pipelines have no test score in [0, 1]"
        ));
    }
    if best < expected_best - BEST_SCORE_SLACK {
        check_failures.push(format!(
            "best score {best} is more than {BEST_SCORE_SLACK} below the no-warmstart reference's {expected_best}"
        ));
    }
    write_layers(writes_before, &mut layers);
    let store = server_layers(&server, &mut layers);
    layers.insert("perf.first_run_s", primary_wall_s);
    layers.insert("perf.cpu_speed_ratio", meter.ratio());
    layers.insert("workloads.datagen.busy_s", datagen_s);
    layers.insert("core.dsl.busy_s", dsl_s);
    if ctx.traced {
        totals.write(&tracer, &mut layers);
    }
    Ok(Outcome {
        setup_s,
        completed,
        workloads_per_s,
        latencies_ms: reference_ms(&meter, &samples),
        rerun_s,
        loop_s: primary_wall_s + rerun_wall_s,
        store,
        attempted: request,
        failed: 0,
        check_failures,
        layers,
        tracer,
    })
}
