//! `durable_publish` — two submitter threads publish cheap workloads,
//! each adding one new model vertex, to a durable server with eight lock
//! shards and resubmit the head of the stream; then compact, append a
//! fixed tail, drop the server and reopen it (timed).
//!
//! *Why:* the graph layer used write-mostly — every publish adds a
//! vertex, appends per-shard journal records plus a commit record and
//! fsyncs, and compaction cycles run in between — which is what group
//! commit and shard balancing must move and what `openml_stream` barely
//! touches; the reopen prices recovery.

use super::{
    block_rate, block_total, lock_wait_layers, reference_ms, repeat_setup, server_layers, submit,
    timed, vertices, write_layers, Ctx, Outcome, StageTotals,
};
use crate::gen::{publish_lr_base, publish_workload};
use crate::metrics::Values;
use crate::procfs::{dir_bytes, write_counters};
use crate::speed::Speedometer;
use crate::trace::Tracer;
use crate::Result;
use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_graph::{FsyncPolicy, WorkloadDag};
use co_workloads::data::{creditg, CreditG};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Publishes in the primary section at scale 1.
const PUBLISHES: usize = 21_000;

/// Single-threaded publishes between the explicit compaction and the
/// drop: exactly what recovery has to replay.
const TAIL: usize = 200;

/// Publishes from the head of the stream resubmitted to the warm server.
const RERUN: usize = 4_000;

/// Publishes of one thread in a block of either section;
/// `workloads_per_s` and `rerun_s` come from the median block.
const BLOCK: usize = 250;

/// Submitter threads (the box has two cores).
const SUBMITTERS: usize = 2;

/// Experiment Graph lock shards.
const SHARDS: usize = 8;

/// Rows of credit-g.
const ROWS: usize = 1000;

/// Storage budget (`co_serve`'s default); every model fits.
const BUDGET_BYTES: u64 = 256 << 20;

/// Journal appends are written (one `write` each, into the page cache)
/// but not fsynced. The time an fsync takes belongs to the host's disk,
/// not to the program: on the box this was built on it flips between
/// about 90 µs and 150 µs for minutes at a time, and with `Always` (2.6
/// fsyncs per publish) this workload's throughput followed it by ±20 % —
/// nothing a bound can referee (see README, "Observed spread").
/// Compactions still fsync their snapshots.
const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// Journal size that triggers a compaction. The default (4 MiB per
/// shard) is never reached by ~350-byte publish records within one run,
/// so the threshold is lowered until several cycles happen.
const COMPACT_JOURNAL_BYTES: u64 = 192 << 10;

fn config() -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        ..ServerConfig::collaborative(BUDGET_BYTES)
    }
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        fsync: FSYNC,
        compact_journal_bytes: COMPACT_JOURNAL_BYTES,
        ..DurabilityConfig::new(dir)
    }
}

struct Setup {
    dir: PathBuf,
    server: OptimizerServer,
    stream: Vec<WorkloadDag>,
    tail: Vec<WorkloadDag>,
    rerun: Vec<WorkloadDag>,
    datagen_s: f64,
    dsl_s: f64,
}

fn workloads(
    data: &CreditG,
    lr_base: f64,
    serials: std::ops::Range<usize>,
) -> Result<Vec<WorkloadDag>> {
    serials
        .map(|serial| Ok(publish_workload(data, lr_base, serial)?))
        .collect()
}

/// Generate the data and every DAG, open a server on an empty directory
/// and warm the shared prefix with serial 0.
fn setup(ctx: &Ctx<'_>, rep: &AtomicUsize) -> Result<Setup> {
    let dir = ctx.tmp.join(format!(
        "durable-{}-{}",
        u8::from(ctx.traced),
        rep.fetch_add(1, Ordering::Relaxed)
    ));
    let (data, datagen_s) = timed(|| creditg(ROWS, ctx.seed));
    let lr_base = publish_lr_base(ctx.seed);
    let n = ctx.scaled(PUBLISHES, 20);
    let tail_n = ctx.scaled(TAIL, 5);
    let start = Instant::now();
    let warm = publish_workload(&data, lr_base, 0)?;
    let stream = workloads(&data, lr_base, 1..n + 1)?;
    let tail = workloads(&data, lr_base, n + 1..n + 1 + tail_n)?;
    let rerun = workloads(&data, lr_base, 1..ctx.scaled(RERUN, 10).min(n) + 1)?;
    let dsl_s = start.elapsed().as_secs_f64();
    let (server, _) = OptimizerServer::open(config(), durability(&dir))?;
    server.run_workload(warm)?;
    Ok(Setup {
        dir,
        server,
        stream,
        tail,
        rerun,
        datagen_s,
        dsl_s,
    })
}

/// Run the workload once.
///
/// # Errors
///
/// A failed submission or durability I/O failure; a failed output check
/// is reported in the outcome instead.
#[allow(clippy::too_many_lines)] // one linear script of phases
pub fn run(ctx: &Ctx<'_>, origin: Instant) -> Result<Outcome> {
    let rep = AtomicUsize::new(0);
    let (
        Setup {
            dir,
            server,
            stream,
            tail,
            rerun,
            datagen_s,
            dsl_s,
        },
        setup_s,
    ) = repeat_setup(|| setup(ctx, &rep))?;

    let mut tracer = Tracer::new(ctx.traced, origin);
    let mut totals = StageTotals::default();
    let mut check_failures = Vec::new();
    let mut layers = Values::new();
    let completed = stream.len() as u64;
    let mut attempted = completed;

    // Primary section: closed loop, SUBMITTERS threads drawing from one
    // shared stream, so the set of published workloads is fixed.
    let writes_before = write_counters();
    let locks_before = server.lock_wait_ns();
    let queue = Mutex::new(stream.into_iter().enumerate());
    let primary = Instant::now();
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let (server, queue, mut tracer) = (&server, &queue, tracer.fork());
                scope.spawn(move || -> Result<_> {
                    let mut totals = StageTotals::default();
                    let mut samples = Vec::new();
                    let mut meter = Speedometer::start();
                    let from = meter.now();
                    loop {
                        meter.tick();
                        let next = queue.lock().map_err(|_| "submitter queue poisoned")?.next();
                        let Some((i, dag)) = next else { break };
                        let at = meter.now();
                        let (_, _, latency) =
                            submit(server, dag, &mut tracer, i as u64 + 1, &mut totals)?;
                        samples.push((at, latency));
                    }
                    let end = meter.now();
                    meter.sample();
                    let (wall_s, _) = meter.between(from, end);
                    let starts: Vec<f64> = samples.iter().map(|(at, _)| *at).collect();
                    Ok((
                        reference_ms(&meter, &samples),
                        totals,
                        tracer,
                        wall_s,
                        block_rate(&meter, &starts, end, BLOCK)?,
                        meter.ratio(),
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "submitter thread panicked")?)
            .collect::<Result<Vec<_>>>()
    })?;
    let primary_wall_s = primary.elapsed().as_secs_f64();
    // Every submitter's loop spans the whole section: their rates add up,
    // their speeds average.
    let mut latencies_ms = Vec::new();
    let (mut closed_loop_s, mut workloads_per_s, mut speed_ratio) = (0.0, 0.0, 0.0);
    for (latencies, thread_totals, thread_tracer, wall_s, rate, ratio) in per_thread {
        #[allow(clippy::cast_precision_loss)] // two
        let share = 1.0 / SUBMITTERS as f64;
        closed_loop_s += wall_s;
        workloads_per_s += rate;
        speed_ratio += ratio * share;
        latencies_ms.extend(latencies);
        totals.merge(&thread_totals);
        tracer.merge(thread_tracer);
    }
    write_layers(writes_before, &mut layers);
    lock_wait_layers(&locks_before, &server.lock_wait_ns(), &mut layers);
    #[allow(clippy::cast_precision_loss)] // a few MB
    layers.insert("graph.durability.dir_bytes", dir_bytes(&dir, "") as f64);

    // Rerun: one thread resubmits the head of the stream; every model
    // is in the store, so only plan, load and publish run.
    let mut request = completed;
    let mut meter = Speedometer::start();
    let mut rerun_starts = Vec::with_capacity(rerun.len());
    for dag in rerun {
        meter.tick();
        request += 1;
        attempted += 1;
        rerun_starts.push(meter.now());
        submit(&server, dag, &mut tracer, request, &mut totals)?;
    }
    let end = meter.now();
    meter.sample();
    let (rerun_wall_s, _) = meter.between(0.0, end);
    let rerun_s = block_total(&meter, &rerun_starts, end, BLOCK)?;
    // Before the explicit compaction below adds one to the count.
    let store = server_layers(&server, &mut layers);

    // Compact, append the tail recovery will replay, drop, reopen.
    server.compact()?;
    let tail_first = request;
    let tail_start = Instant::now();
    for dag in tail {
        request += 1;
        attempted += 1;
        submit(&server, dag, &mut tracer, request, &mut totals)?;
    }
    closed_loop_s += tail_start.elapsed().as_secs_f64();
    let tail_n = request - tail_first;
    let vertices_before = vertices(&server);
    drop(server);
    #[allow(clippy::cast_precision_loss)] // a few MB
    layers.insert(
        "graph.recovery.snapshot_bytes",
        dir_bytes(&dir, ".egsnap") as f64,
    );
    let (reopened, open_s) = timed(|| OptimizerServer::open(config(), durability(&dir)));
    let (server, recovery) = reopened?;
    layers.insert("graph.recovery.open_s", open_s);
    #[allow(clippy::cast_precision_loss)] // a few hundred
    layers.insert(
        "graph.recovery.records_replayed",
        recovery.journal_records_replayed as f64,
    );
    let expected_vertices = vertices_before + usize::from(ctx.perturb);
    if vertices(&server) != expected_vertices {
        check_failures.push(format!(
            "reopened graph has {} vertices, expected {expected_vertices}",
            vertices(&server)
        ));
    }
    if recovery.committed_publishes as u64 != tail_n {
        check_failures.push(format!(
            "recovery replayed {} committed publishes, the tail had {tail_n}",
            recovery.committed_publishes
        ));
    }

    drop(server);
    let fsck = co_graph::fsck::check_sharded_data_dir(&dir, SHARDS, true)?;
    if !fsck.is_clean() {
        check_failures.push(format!(
            "egfsck of the data directory: {} violations",
            fsck.violations.len()
        ));
    }

    layers.insert("perf.first_run_s", primary_wall_s);
    layers.insert("perf.cpu_speed_ratio", speed_ratio);
    layers.insert("workloads.datagen.busy_s", datagen_s);
    layers.insert("core.dsl.busy_s", dsl_s);
    if ctx.traced {
        totals.write(&tracer, &mut layers);
    }
    Ok(Outcome {
        setup_s,
        completed,
        workloads_per_s,
        latencies_ms,
        rerun_s,
        loop_s: closed_loop_s + rerun_wall_s,
        store,
        attempted,
        failed: 0,
        check_failures,
        layers,
        tracer,
    })
}
