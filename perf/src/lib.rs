//! # co-perf
//!
//! One seeded benchmark for the whole collaborative optimizer: four
//! workloads, each run in its own process, each printing named
//! end-to-end metrics (untraced run) or per-layer metrics (traced run)
//! and checking its outputs. `BENCHMARK.json` at the repository root
//! declares the command, the workloads and every metric; `README.md`
//! beside this crate says why each exists and how to read them.
//!
//! Every layer is measured **from outside**: wall-clock `Instant`s around
//! the public stage functions, public fields of what they return, file
//! sizes in the data directory, and `/proc/self/{io,status}`. No product
//! code is changed, and `ExecutionReport::run_seconds` is never used as a
//! latency because its load term is modelled, not measured.

#![forbid(unsafe_code)]

pub mod check;
pub mod gen;
pub mod metrics;
pub mod procfs;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use workloads::{Ctx, Outcome};

/// Error type of the driver: any product or I/O error, or a message.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Result type of the driver.
pub type Result<T> = std::result::Result<T, Error>;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which the frozen
/// sizes apply unscaled.
pub const REFERENCE_SECONDS: f64 = 16.0;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's W1…W8 session, first run and rerun.
    KaggleSeq,
    /// Thousands of small overlapping pipelines.
    OpenmlStream,
    /// Concurrent publishes to a durable, sharded server.
    DurablePublish,
    /// Closed- and open-loop traffic through `co-serve`.
    ServeMix,
}

impl Workload {
    /// All four, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KaggleSeq,
        Workload::OpenmlStream,
        Workload::DurablePublish,
        Workload::ServeMix,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::KaggleSeq => "kaggle_seq",
            Workload::OpenmlStream => "openml_stream",
            Workload::DurablePublish => "durable_publish",
            Workload::ServeMix => "serve_mix",
        }
    }

    fn run(self, ctx: &Ctx<'_>, origin: Instant) -> Result<Outcome> {
        match self {
            Workload::KaggleSeq => workloads::kaggle_seq::run(ctx, origin),
            Workload::OpenmlStream => workloads::openml_stream::run(ctx, origin),
            Workload::DurablePublish => workloads::durable_publish::run(ctx, origin),
            Workload::ServeMix => workloads::serve_mix::run(ctx, origin),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload <name>`.
    pub workload: Workload,
    /// `--seed <n>`.
    pub seed: u64,
    /// `--seconds <n>`: scales the frozen sizes by `n / REFERENCE_SECONDS`.
    pub seconds: f64,
    /// `--trace <0|1>`.
    pub trace: bool,
    /// `--smoke`: tiny data and a fiftieth of the counts, for tests.
    pub smoke: bool,
    /// `--perturb-reference`: spoil the expected values so that the output
    /// checks must fail.
    pub perturb: bool,
}

const USAGE: &str =
    "usage: co_perf --workload <kaggle_seq|openml_stream|durable_publish|serve_mix> \
--seed <n> [--seconds <n>] [--trace <0|1>] [--smoke] [--perturb-reference]";

/// Parse the command line (without the program name).
///
/// # Errors
///
/// An unknown flag, a missing or malformed value, or no `--workload`.
pub fn parse_args(args: &[String]) -> Result<Args> {
    let mut parsed = Args {
        workload: Workload::KaggleSeq,
        seed: 0,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        perturb: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse()?,
            "--seconds" => parsed.seconds = value()?.parse()?,
            "--trace" => parsed.trace = value()? == "1",
            "--smoke" => parsed.smoke = true,
            "--perturb-reference" => parsed.perturb = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    parsed.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", parsed.seconds).into());
    }
    Ok(parsed)
}

/// What one invocation prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Submissions made in the timed sections.
    pub attempted: u64,
    /// Submissions that errored, were refused or missed a deadline.
    pub failed: u64,
    /// The metrics of this mode, in declaration order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Why `correct` is false.
    pub check_failures: Vec<String>,
}

impl RunResult {
    /// The contract's result line: one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            // `{value:?}` keeps every digit and always reads as a number.
            let _ = write!(
                out,
                "{comma}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Where build outputs go: the benchmark's scratch and result files live
/// under `perf/` inside it, and nowhere else.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("perf")
}

/// Removes the process's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The untraced run's end-to-end values.
#[allow(clippy::cast_precision_loss)] // counts of one short run
fn end_to_end(outcome: &Outcome) -> Result<Values> {
    let mut v = Values::new();
    let need =
        |what: &str, value: Option<f64>| value.ok_or_else(|| format!("no {what} was measured"));
    v.insert("setup_s", need("set-up", stats::median(&outcome.setup_s))?);
    v.insert("workloads_per_s", outcome.workloads_per_s);
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p95_ms", 95.0)] {
        let value = stats::block_percentile(&outcome.latencies_ms, p, stats::PERCENTILE_BLOCK);
        v.insert(name, need("latency", value)?);
    }
    v.insert("rerun_s", outcome.rerun_s);
    let (_, unique, logical) = outcome.store;
    v.insert("store_ratio", unique as f64 / logical as f64);
    v.insert("peak_rss_mb", need("peak RSS", procfs::peak_rss_mib())?);
    Ok(v)
}

fn checked(outcome: &Outcome) -> Vec<String> {
    let mut failures = outcome.check_failures.clone();
    if outcome.failed > 0 {
        failures.push(format!(
            "{} of {} submissions failed",
            outcome.failed, outcome.attempted
        ));
    }
    failures
}

/// Run one workload in this process and return what to print.
///
/// `--trace 0` runs the workload once, untraced, at full size, and
/// reports the end-to-end metrics. `--trace 1` spends the same budget on
/// two half-size runs — untraced, then traced — and reports the per-layer
/// metrics of the traced one, with the difference between the two as the
/// tracing overhead; the spans go to `<target>/perf/trace-<workload>.json`.
///
/// # Errors
///
/// A failed submission, I/O failure, or a metric that could not be
/// measured. Failed output checks are reported in the result instead.
pub fn run(args: &Args) -> Result<RunResult> {
    // One scratch directory per run, so that runs sharing a process (the
    // tests) do not remove each other's.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let out = out_dir();
    let scratch = Scratch(out.join("tmp").join(format!(
        "{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    )));
    std::fs::create_dir_all(&scratch.0)?;
    let origin = Instant::now();
    let scale = if args.smoke {
        0.02
    } else {
        args.seconds / REFERENCE_SECONDS
    };
    let ctx = Ctx {
        seed: args.seed,
        scale,
        smoke: args.smoke,
        traced: false,
        perturb: args.perturb,
        tmp: &scratch.0,
    };
    if !args.trace {
        let outcome = args.workload.run(&ctx, origin)?;
        let check_failures = checked(&outcome);
        return Ok(RunResult {
            correct: check_failures.is_empty(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: metrics::resolve(END_TO_END, &end_to_end(&outcome)?, true)?,
            check_failures,
        });
    }

    let half = Ctx {
        scale: scale / 2.0,
        ..ctx
    };
    let untraced = args.workload.run(&half, origin)?;
    let traced = args.workload.run(
        &Ctx {
            traced: true,
            ..half
        },
        origin,
    )?;
    let mut check_failures = checked(&untraced);
    check_failures.extend(checked(&traced));
    let mut layers = traced.layers.clone();
    // In reference seconds and at the pace of the median block, or the
    // machine's drift between the two half-runs would pass for overhead.
    #[allow(clippy::cast_precision_loss)] // counts of one short run
    let seconds = |o: &Outcome| o.completed as f64 / o.workloads_per_s + o.rerun_s;
    layers.insert(
        "perf.trace_overhead_fraction",
        seconds(&traced) / seconds(&untraced) - 1.0,
    );
    layers.insert(
        "perf.trace_coverage",
        traced.tracer.root_seconds() / traced.loop_s,
    );
    #[allow(clippy::cast_precision_loss)] // a sample count
    layers.insert("perf.latency_samples", traced.latencies_ms.len() as f64);
    // The percentile rule: 0 when the samples do not even support p75.
    layers.insert(
        "perf.latency_supported_percentile",
        stats::highest_supported_percentile(traced.latencies_ms.len()).unwrap_or(0.0),
    );
    traced.tracer.write_json(&trace_path(&out, args.workload))?;
    Ok(RunResult {
        correct: check_failures.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: metrics::resolve(PER_LAYER, &layers, false)?,
        check_failures,
    })
}

/// Where a traced run of `workload` writes its spans.
#[must_use]
pub fn trace_path(out: &Path, workload: Workload) -> PathBuf {
    out.join(format!("trace-{}.json", workload.name()))
}

/// Human-readable lines, `workload metric value unit`, one per metric.
#[must_use]
pub fn render_lines(workload: Workload, result: &RunResult) -> String {
    let mut out = String::new();
    for (def, value) in &result.metrics {
        let _ = writeln!(out, "{} {} {value} {}", workload.name(), def.name, def.unit);
    }
    out
}

/// Run the command line: print the metric lines, write the result file,
/// print the result line last. Returns the process exit code: 0 when the
/// outputs were correct, 1 when a check failed.
///
/// # Errors
///
/// Bad arguments, or anything [`run`] cannot recover from — reported by
/// `main` with exit code 2 and no result line.
pub fn main_with(args: &[String]) -> Result<u8> {
    let args = parse_args(args)?;
    let result = run(&args)?;
    print!("{}", render_lines(args.workload, &result));
    for failure in &result.check_failures {
        eprintln!("co_perf: check failed: {failure}");
    }
    let json = result.to_json();
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    std::fs::write(
        out.join(format!(
            "result-{}-trace{}.json",
            args.workload.name(),
            u8::from(args.trace)
        )),
        format!("{json}\n"),
    )?;
    println!("{json}");
    Ok(u8::from(!result.correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::ServeMix);
        assert_eq!(args.seed, 7);
        assert!(args.trace && !args.smoke && !args.perturb);
        assert!((args.seconds - 12.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "kaggle_seq", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "kaggle_seq", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "kaggle_seq", "--frobnicate"])).is_err());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.25), (END_TO_END[1], 1e3)],
            check_failures: Vec::new(),
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"workloads_per_s\": {\"value\": 1000.0, \"unit\": \"1/s\"}}}"
        );
    }
}
