//! `kaggle_seq` — the paper's Figure 4/5 session. One client submits the
//! eight Home-Credit workloads W1…W8 to a fresh collaborative server,
//! then resubmits them to the now-warm server; several such rounds.
//!
//! *Why:* nearly all of the first pass is `co-dataframe` kernels and
//! `co-ml` training inside `execute`, while graph, planner and serve do
//! almost nothing — and the resubmission runs the same executor and store
//! for loads instead of computes, so a materializer change that speeds
//! the first pass by storing less shows up as a slower rerun.

use super::{
    reference_ms, repeat_setup, server_layers, submit, timed, write_layers, Ctx, Outcome,
    StageTotals,
};
use crate::check::{same_terminals, terminal_values};
use crate::metrics::Values;
use crate::procfs::write_counters;
use crate::speed::Speedometer;
use crate::trace::Tracer;
use crate::{stats, Result};
use co_core::{OptimizerServer, ServerConfig};
use co_dataframe::Scalar;
use co_graph::{NodeId, Value, WorkloadDag};
use co_workloads::data::{home_credit, HomeCredit, HomeCreditScale};
use co_workloads::kaggle;
use std::time::Instant;

/// Rounds at scale 1; `workloads_per_s` comes from the median round's
/// first pass.
const ROUNDS: usize = 7;

/// Times each round resubmits W1…W8 to its warm server. A resubmission
/// takes a twelfth of a first run, so one per round would be the
/// noisiest number of the benchmark; `rerun_s` is the median over all.
const RERUNS_PER_ROUND: usize = 3;

/// What materializing every artifact of W1…W8 occupies at the default
/// `HomeCreditScale` (`storage_stats().2` of a `MaterializerKind::All`
/// server, 455–457 MB across seeds at the seed commit), frozen so that
/// the budget is an input, not a measurement.
const ALL_FOOTPRINT_BYTES: u64 = 456_000_000;

/// The paper's "16 GB of 130 GB": an eighth of the ALL footprint.
const BUDGET_BYTES: u64 = ALL_FOOTPRINT_BYTES / 8;

/// Budget for `--smoke`'s tiny data (an eighth of its ~7 MB footprint).
const SMOKE_BUDGET_BYTES: u64 = 900_000;

struct Setup {
    data: HomeCredit,
    budget: u64,
    /// Per round: the first pass's eight DAGs, then each rerun's eight.
    rounds: Vec<(Vec<WorkloadDag>, Vec<Vec<WorkloadDag>>)>,
    datagen_s: f64,
    dsl_s: f64,
}

/// Generate the data, build every DAG the timed section will submit, and
/// run W1 once on a throwaway server so that the first timed round does
/// not also pay for first-touch effects (page faults, thread-pool start).
fn setup(ctx: &Ctx<'_>) -> Result<Setup> {
    let scale = HomeCreditScale {
        seed: ctx.seed,
        ..if ctx.smoke {
            HomeCreditScale::tiny()
        } else {
            HomeCreditScale::default()
        }
    };
    let budget = if ctx.smoke {
        SMOKE_BUDGET_BYTES
    } else {
        BUDGET_BYTES
    };
    let (data, datagen_s) = timed(|| home_credit(&scale));
    let start = Instant::now();
    let rounds = (0..ctx.scaled(ROUNDS, 1))
        .map(|_| {
            let reruns = (0..RERUNS_PER_ROUND)
                .map(|_| Ok(kaggle::all_workloads(&data)?))
                .collect::<Result<Vec<_>>>()?;
            Ok((kaggle::all_workloads(&data)?, reruns))
        })
        .collect::<Result<Vec<_>>>()?;
    let warm_up = kaggle::w1(&data)?;
    let dsl_s = start.elapsed().as_secs_f64();
    OptimizerServer::new(ServerConfig::collaborative(budget)).run_workload(warm_up)?;
    Ok(Setup {
        data,
        budget,
        rounds,
        datagen_s,
        dsl_s,
    })
}

/// Terminal values of W1…W8 on a server that stores and reuses nothing.
fn reference(data: &HomeCredit, perturb: bool) -> Result<Vec<Vec<(NodeId, Value)>>> {
    let server = OptimizerServer::new(ServerConfig::baseline());
    let mut out = Vec::new();
    for dag in kaggle::all_workloads(data)? {
        let (dag, _) = server.run_workload(dag)?;
        out.push(terminal_values(&dag)?);
    }
    if perturb {
        if let Some((_, value)) = out.first_mut().and_then(|w| w.last_mut()) {
            *value = Value::Aggregate(Scalar::Float(-1.0));
        }
    }
    Ok(out)
}

/// Run the workload once.
///
/// # Errors
///
/// A failed submission or an I/O failure; a failed output check is
/// reported in the outcome instead.
pub fn run(ctx: &Ctx<'_>, origin: Instant) -> Result<Outcome> {
    let (
        Setup {
            data,
            budget,
            rounds,
            datagen_s,
            dsl_s,
        },
        setup_s,
    ) = repeat_setup(|| setup(ctx))?;
    let expected = reference(&data, ctx.perturb)?;

    let mut tracer = Tracer::new(ctx.traced, origin);
    let mut totals = StageTotals::default();
    let mut check_failures = Vec::new();
    let mut layers = Values::new();
    let mut meter = Speedometer::start();
    let (mut first_mean_s, mut rerun_s, mut latencies_ms) =
        (Vec::<f64>::new(), Vec::<f64>::new(), Vec::new());
    let mut first_wall_s = Vec::new();
    let mut rerun_wall_s = 0.0;
    let mut request = 0u64;
    let mut store = (0, 0, 0);
    let writes_before = write_counters();
    for (first, reruns) in rounds {
        let server = OptimizerServer::new(ServerConfig::collaborative(budget));
        // One pass over W1…W8: the summed submit→result wall time, and
        // each workload's latency in reference milliseconds.
        let mut pass = |dags: Vec<WorkloadDag>, what: &str| -> Result<(f64, Vec<f64>)> {
            let mut samples = Vec::new();
            for (w, dag) in dags.into_iter().enumerate() {
                meter.tick();
                request += 1;
                let at = meter.now();
                let (dag, _, latency) = submit(&server, dag, &mut tracer, request, &mut totals)?;
                samples.push((at, latency));
                // Outside the latency: compare with the no-reuse run.
                let got = terminal_values(&dag)?;
                let same = expected
                    .get(w)
                    .map_or(Err("no reference".to_owned()), |want| {
                        same_terminals(&got, want)
                    });
                if let Err(why) = same {
                    check_failures.push(format!("W{} ({what}): {why}", w + 1));
                }
            }
            meter.sample();
            let wall_s = samples
                .iter()
                .map(|(_, latency)| latency.as_secs_f64())
                .sum();
            Ok((wall_s, reference_ms(&meter, &samples)))
        };
        let (wall_s, each_ms) = pass(first, "first run")?;
        first_wall_s.push(wall_s);
        // Reference seconds per workload of this round's first pass.
        #[allow(clippy::cast_precision_loss)] // eight
        first_mean_s.push(each_ms.iter().sum::<f64>() / 1e3 / each_ms.len() as f64);
        latencies_ms.extend(each_ms);
        for rerun in reruns {
            let (wall_s, each_ms) = pass(rerun, "rerun")?;
            rerun_wall_s += wall_s;
            rerun_s.push(each_ms.iter().sum::<f64>() / 1e3);
        }
        store = server_layers(&server, &mut layers);
    }

    write_layers(writes_before, &mut layers);
    layers.insert(
        "perf.first_run_s",
        stats::median(&first_wall_s).unwrap_or(0.0),
    );
    layers.insert("perf.cpu_speed_ratio", meter.ratio());
    layers.insert("workloads.datagen.busy_s", datagen_s);
    layers.insert("core.dsl.busy_s", dsl_s);
    if ctx.traced {
        totals.write(&tracer, &mut layers);
    }
    Ok(Outcome {
        setup_s,
        completed: latencies_ms.len() as u64,
        workloads_per_s: 1.0 / stats::median(&first_mean_s).ok_or("no round was run")?,
        latencies_ms,
        rerun_s: stats::median(&rerun_s).unwrap_or(0.0),
        loop_s: first_wall_s.iter().sum::<f64>() + rerun_wall_s,
        store,
        attempted: request,
        failed: 0,
        check_failures,
        layers,
        tracer,
    })
}
