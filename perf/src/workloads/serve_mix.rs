//! `serve_mix` — the networked front-end. An in-process `co_serve`
//! server with the binary's defaults (durable, one shard, 256 MiB) except
//! for two workers and no fsync; two client connections share one registered dataset and
//! submit a spec stream that is 80 % recurring, 20 % novel. Phase A is a
//! closed loop (capacity); phase B is an open loop at three fixed rates,
//! every request timed from when it was *due*; then the recurring pool
//! is resubmitted, open loop as well.
//!
//! *Why:* independent users arrive on a schedule, and this is the only
//! workload where `co-serve` framing, codec, spec compilation and
//! admission queueing are on the blocking path; the in-process workloads
//! bypass them, so a serve-layer change must move this and nothing else.

use super::{
    block_rate, lock_wait_layers, repeat_setup, server_layers, timed, write_layers, Ctx, Outcome,
};
use crate::gen::{
    due_offsets, pool_spec, serve_columns, spec_stream, OpenLoopSample, SERVE_DATASET, SPEC_POOL,
};
use crate::metrics::Values;
use crate::procfs::{dir_bytes, write_counters};
use crate::speed::Speedometer;
use crate::trace::Tracer;
use crate::{stats, Result};
use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::ColumnData;
use co_graph::FsyncPolicy;
use co_serve::{
    encode_frame, spec::compile, start, Client, Request, Response, ServeConfig, ServeHandle,
    SessionDatasets, WorkloadSpec, WorkloadSummary,
};
use co_workloads::data::creditg;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (the box has two cores).
const CONNECTIONS: usize = 2;

/// Server worker threads.
const WORKERS: usize = 2;

/// Phase A submissions, over both connections, at scale 1.
const CLOSED_REQUESTS: usize = 3_000;

/// Phase A submissions of one connection in a block; `workloads_per_s`
/// comes from each connection's median block.
const CLOSED_BLOCK: usize = 125;

/// Phase B: name, arrivals per second and seconds (at scale 1) of each
/// fixed rate — about 25, 50 and 75 % of what the server sustains at the
/// seed commit once the graph has grown to its end-of-run size. `mid`
/// feeds the end-to-end latency metrics, so it gets most of the time.
const RATES: [(&str, f64, f64); 3] = [
    ("low", 80.0, 1.5),
    ("mid", 160.0, 9.0),
    ("high", 240.0, 1.5),
];

/// Latency limit on the 95th percentile for `max_rate_under_slo_rps`.
const SLO_P95_MS: f64 = 10.0;

/// Submissions of the final rerun (the pool, cycled) at scale 1;
/// `rerun_s` comes from the median cycle.
const RERUN: usize = 768;

/// Arrivals per second of the rerun, over both connections. It is an open
/// loop too: a closed loop over one connection took 1.33–1.62 s for the
/// same 768 submissions in six runs of one seed, depending on which
/// threads the scheduler had left awake, while open-loop latencies
/// repeated within 2 %.
const RERUN_RATE: f64 = 240.0;

/// Least wait before an open-loop arrival during which a speed slice
/// (half a millisecond) is still taken.
const SLICE_ROOM: Duration = Duration::from_millis(2);

/// Pings timed for `serve.ping_rtt_p50_us`.
const PINGS: usize = 200;

/// Rows of credit-g.
const ROWS: usize = 1000;

/// `co_serve` fsyncs every journal append; here appends are written but
/// not fsynced, for the reason `durable_publish` gives: an fsync's time
/// is the host disk's, and it changes by the minute.
const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// `co_serve`'s default budget.
const BUDGET_BYTES: u64 = 256 << 20;

/// One open-loop stage: per connection, (due offset, spec); arrivals
/// alternate between the connections.
type Schedule = Vec<Vec<(Duration, WorkloadSpec)>>;

fn schedule(rate: f64, specs: Vec<WorkloadSpec>) -> Schedule {
    let mut per_connection = vec![Vec::new(); CONNECTIONS];
    let due = due_offsets(rate, specs.len());
    for (k, (due, spec)) in due.into_iter().zip(specs).enumerate() {
        per_connection[k % CONNECTIONS].push((due, spec));
    }
    per_connection
}

struct Setup {
    dir: PathBuf,
    handle: ServeHandle,
    clients: Vec<Client>,
    columns: Vec<(String, ColumnData)>,
    /// Phase A specs per connection.
    closed: Vec<Vec<WorkloadSpec>>,
    /// Phase B: per rate, per connection, (due offset, spec).
    open: Vec<Schedule>,
    /// The rerun, as one more open-loop stage.
    rerun: Schedule,
    datagen_s: f64,
    dsl_s: f64,
}

/// Generate the data and every spec, open the durable server, start the
/// front-end, connect and register the dataset on every connection.
fn setup(ctx: &Ctx<'_>, rep: &AtomicUsize) -> Result<Setup> {
    let dir = ctx.tmp.join(format!(
        "serve-{}-{}",
        u8::from(ctx.traced),
        rep.fetch_add(1, Ordering::Relaxed)
    ));
    let (columns, datagen_s) = timed(|| serve_columns(&creditg(ROWS, ctx.seed)));
    let start_dsl = Instant::now();
    let per_connection = ctx.scaled(CLOSED_REQUESTS, 20) / CONNECTIONS;
    let closed = (0..CONNECTIONS as u64)
        .map(|c| spec_stream(ctx.seed, c, per_connection))
        .collect();
    let open = RATES
        .iter()
        .zip(1u64..)
        .map(|((_, rate, seconds), phase)| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // a few hundred
            let n = (rate * seconds * ctx.scale).round().max(20.0) as usize;
            schedule(*rate, spec_stream(ctx.seed, 16 * phase, n))
        })
        .collect();
    let rerun = schedule(
        RERUN_RATE,
        (0..ctx.scaled(RERUN, 10) as u64).map(pool_spec).collect(),
    );
    let dsl_s = start_dsl.elapsed().as_secs_f64();

    let (server, _) = OptimizerServer::open(
        ServerConfig::collaborative(BUDGET_BYTES),
        DurabilityConfig {
            fsync: FSYNC,
            ..DurabilityConfig::new(&dir)
        },
    )?;
    let handle = start(
        Arc::new(server),
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::new("127.0.0.1:0")
        },
    )?;
    let mut clients = Vec::new();
    for c in 0..CONNECTIONS {
        let mut client = Client::connect(handle.local_addr(), &format!("co-perf-{c}"))?;
        client.register_dataset(SERVE_DATASET, columns.clone())?;
        clients.push(client);
    }
    Ok(Setup {
        dir,
        handle,
        clients,
        columns,
        closed,
        open,
        rerun,
        datagen_s,
        dsl_s,
    })
}

/// What the replies of one connection added up to.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    queue_ms: f64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queue_ms += other.queue_ms;
    }
}

/// Ids for the spans of one submission each, across connections.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// One single-shot submission (no retry): anything but `Done` — an error
/// reply, a refusal, a missed deadline — counts as failed.
fn request(
    client: &mut Client,
    spec: &WorkloadSpec,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<()> {
    let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    let span = tracer.open("serve.request", None, id);
    let response = client.submit(spec, None)?;
    tracer.close(span);
    tally.attempted += 1;
    match response {
        Response::Done(summary) => tally.queue_ms += summary.queue_ms,
        _ => tally.failed += 1,
    }
    Ok(())
}

/// Run `work` once per connection, each on its own thread with its own
/// tracer; returns the results in connection order.
fn per_connection<T: Send, W: Send>(
    clients: &mut [Client],
    work: Vec<W>,
    tracer: &mut Tracer,
    run: impl Fn(&mut Client, W, &mut Tracer) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(work)
            .map(|(client, work)| {
                let (mut tracer, run) = (tracer.fork(), &run);
                scope.spawn(move || run(client, work, &mut tracer).map(|out| (out, tracer)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "connection thread panicked")?)
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(results
        .into_iter()
        .map(|(out, thread_tracer)| {
            tracer.merge(thread_tracer);
            out
        })
        .collect())
}

/// What one connection saw of an open-loop stage: its tally, its samples
/// in due order, their latencies from the due time in reference
/// milliseconds, and the wall seconds its loop took.
type OpenLoopThread = (Tally, Vec<OpenLoopSample>, Vec<f64>, f64);

/// One open-loop stage. Arrivals follow the schedule whatever the replies
/// do; a connection still busy with an earlier reply sends late, and that
/// wait is charged to the late request.
fn open_loop(
    clients: &mut [Client],
    schedule: Schedule,
    tracer: &mut Tracer,
) -> Result<Vec<OpenLoopThread>> {
    let begin = Instant::now() + Duration::from_millis(5);
    per_connection(clients, schedule, tracer, |client, requests, tracer| {
        let mut tally = Tally::default();
        let mut samples = Vec::with_capacity(requests.len());
        let mut sent_at = Vec::with_capacity(requests.len());
        let mut meter = Speedometer::start();
        let start = Instant::now();
        for (due, spec) in &requests {
            let idle = tracer.open("perf.idle", None, 0);
            // Only measure speed when the next arrival leaves room.
            if (begin + *due).saturating_duration_since(Instant::now()) > SLICE_ROOM {
                meter.tick();
            }
            std::thread::sleep((begin + *due).saturating_duration_since(Instant::now()));
            tracer.close(idle);
            let sent = begin.elapsed();
            sent_at.push(meter.now());
            request(client, spec, tracer, &mut tally)?;
            samples.push(OpenLoopSample {
                due: *due,
                sent,
                done: begin.elapsed(),
            });
        }
        let reference_ms: Vec<f64> = samples
            .iter()
            .zip(&sent_at)
            .map(|(sample, at)| sample.latency_ms() * meter.ratio_at(*at))
            .collect();
        Ok((tally, samples, reference_ms, start.elapsed().as_secs_f64()))
    })
}

/// Seconds the wire codec and the spec compiler take over `specs`,
/// replayed outside the server: both directions of the request and of a
/// `Done` reply, then `spec::compile`.
fn replay(specs: &[WorkloadSpec], columns: Vec<(String, ColumnData)>) -> Result<(f64, f64)> {
    let mut datasets = SessionDatasets::new();
    datasets.register(SERVE_DATASET, columns)?;
    let done = Response::Done(WorkloadSummary {
        ops_executed: 1,
        artifacts_loaded: 3,
        warmstarts: 0,
        run_seconds: 1e-3,
        queue_ms: 0.1,
    });
    let ((), codec_s) = timed(|| {
        for spec in specs {
            let request = Request::Submit {
                spec: spec.clone(),
                deadline_ms: None,
            };
            let payload = request.encode();
            black_box(encode_frame(&payload));
            black_box(Request::decode(&payload).is_ok());
            let reply = done.encode();
            black_box(encode_frame(&reply));
            black_box(Response::decode(&reply).is_ok());
        }
    });
    let (compiled, compile_s) = timed(|| specs.iter().all(|spec| compile(spec, &datasets).is_ok()));
    if !compiled {
        return Err("a generated spec does not compile".into());
    }
    Ok((codec_s, compile_s))
}

/// Run the workload once.
///
/// # Errors
///
/// A transport failure or a failed drain; a failed output check is
/// reported in the outcome instead.
#[allow(clippy::too_many_lines)] // one linear script of phases
pub fn run(ctx: &Ctx<'_>, origin: Instant) -> Result<Outcome> {
    let rep = AtomicUsize::new(0);
    let (
        Setup {
            dir,
            mut handle,
            mut clients,
            columns,
            closed,
            open,
            rerun,
            datagen_s,
            dsl_s,
        },
        setup_s,
    ) = repeat_setup(|| setup(ctx, &rep))?;

    let mut tracer = Tracer::new(ctx.traced, origin);
    let mut check_failures = Vec::new();
    let mut layers = Values::new();
    let mut tally = Tally::default();
    let server = Arc::clone(handle.server());

    if ctx.traced {
        let mut rtt_us = Vec::with_capacity(PINGS);
        if let Some(client) = clients.first_mut() {
            for _ in 0..PINGS {
                let span = tracer.open("serve.ping", None, 0);
                let (pong, took) = timed(|| client.ping());
                tracer.close(span);
                pong?;
                rtt_us.push(took * 1e6);
            }
        }
        layers.insert(
            "serve.ping_rtt_p50_us",
            stats::median(&rtt_us).unwrap_or(0.0),
        );
    }

    // Phase A: closed loop, every connection back to back.
    let writes_before = write_counters();
    let locks_before = server.lock_wait_ns();
    let replayed: Vec<WorkloadSpec> = if ctx.traced {
        closed.iter().flatten().cloned().collect()
    } else {
        Vec::new()
    };
    let completed = closed.iter().map(Vec::len).sum::<usize>() as u64;
    let primary = Instant::now();
    let per_thread = per_connection(
        &mut clients,
        closed,
        &mut tracer,
        |client, specs, tracer| {
            let mut tally = Tally::default();
            let mut meter = Speedometer::start();
            let mut starts = Vec::with_capacity(specs.len());
            for spec in &specs {
                meter.tick();
                starts.push(meter.now());
                request(client, spec, tracer, &mut tally)?;
            }
            let end = meter.now();
            meter.sample();
            let (wall_s, _) = meter.between(0.0, end);
            let rate = block_rate(&meter, &starts, end, CLOSED_BLOCK)?;
            Ok((tally, wall_s, rate, meter.ratio()))
        },
    )?;
    let primary_wall_s = primary.elapsed().as_secs_f64();
    // Every connection's loop spans the whole phase: their rates add up,
    // their speeds average.
    let (mut closed_loop_s, mut workloads_per_s, mut speed_ratio) = (0.0, 0.0, 0.0);
    for (thread_tally, wall_s, rate, ratio) in &per_thread {
        #[allow(clippy::cast_precision_loss)] // two
        let share = 1.0 / CONNECTIONS as f64;
        tally.add(thread_tally);
        closed_loop_s += wall_s;
        workloads_per_s += rate;
        speed_ratio += ratio * share;
    }

    // Phase B: open loop at each fixed rate.
    let mut open_loop_s = 0.0;
    let mut by_rate: Vec<Vec<OpenLoopSample>> = Vec::new();
    let mut mid_latencies_ms = Vec::new();
    for (rate, schedule) in open.into_iter().enumerate() {
        let per_thread = open_loop(&mut clients, schedule, &mut tracer)?;
        let mut samples = Vec::new();
        for (thread_tally, thread_samples, reference_ms, loop_s) in per_thread {
            tally.add(&thread_tally);
            samples.extend(thread_samples);
            open_loop_s += loop_s;
            if rate == 1 {
                mid_latencies_ms.extend(reference_ms);
            }
        }
        by_rate.push(samples);
    }
    let latency = |rate: usize| -> Vec<f64> {
        by_rate
            .get(rate)
            .map(|s| s.iter().map(OpenLoopSample::latency_ms).collect())
            .unwrap_or_default()
    };
    let p = |values: &[f64], q: f64| stats::percentile(values, q).unwrap_or(0.0);
    layers.insert("serve.open.low.p95_ms", p(&latency(0), 95.0));
    layers.insert("serve.open.mid.p99_ms", p(&latency(1), 99.0));
    layers.insert("serve.open.high.p95_ms", p(&latency(2), 95.0));
    let late_ms: Vec<f64> = by_rate
        .iter()
        .flatten()
        .map(OpenLoopSample::late_ms)
        .collect();
    layers.insert("serve.generator_late_p95_ms", p(&late_ms, 95.0));
    // The highest rate that met the limit while the generator kept up
    // (a generator running late by more than the limit means a backlog).
    let within_slo = RATES.iter().zip(&by_rate).filter(|(_, samples)| {
        let latency: Vec<f64> = samples.iter().map(OpenLoopSample::latency_ms).collect();
        let late: Vec<f64> = samples.iter().map(OpenLoopSample::late_ms).collect();
        p(&latency, 95.0) <= SLO_P95_MS && p(&late, 95.0) <= SLO_P95_MS
    });
    layers.insert(
        "serve.max_rate_under_slo_rps",
        within_slo
            .map(|((_, rate, _), _)| *rate)
            .fold(0.0, f64::max),
    );

    // Rerun: the recurring pool, cycle after cycle. What a cycle costs
    // its clients is the sum of its latencies; the median cycle stands
    // for all of them.
    let mut per_thread_ms = Vec::new();
    for (thread_tally, _, reference_ms, loop_s) in open_loop(&mut clients, rerun, &mut tracer)? {
        tally.add(&thread_tally);
        open_loop_s += loop_s;
        per_thread_ms.push(reference_ms);
    }
    let resubmitted: usize = per_thread_ms.iter().map(Vec::len).sum();
    let in_due_order: Vec<f64> = (0..resubmitted)
        .filter_map(|k| {
            per_thread_ms
                .get(k % CONNECTIONS)?
                .get(k / CONNECTIONS)
                .copied()
        })
        .collect();
    #[allow(clippy::cast_possible_truncation)] // 32
    let cycle = (SPEC_POOL as usize).min(resubmitted).max(1);
    let cycles_ms: Vec<f64> = in_due_order
        .chunks_exact(cycle)
        .map(|latencies| latencies.iter().sum())
        .collect();
    #[allow(clippy::cast_precision_loss)] // request counts of one short run
    let rerun_s = stats::median(&cycles_ms).ok_or("nothing was resubmitted")? / 1e3
        * (resubmitted as f64 / cycle as f64);

    write_layers(writes_before, &mut layers);
    lock_wait_layers(&locks_before, &server.lock_wait_ns(), &mut layers);
    let store = server_layers(&server, &mut layers);
    drop(clients);
    handle.begin_drain();
    let served = handle.join()?;
    drop(handle);
    drop(server);
    #[allow(clippy::cast_precision_loss)] // a few MB
    layers.insert("graph.durability.dir_bytes", dir_bytes(&dir, "") as f64);
    #[allow(clippy::cast_precision_loss)] // request counts of one short run
    for (name, value) in [
        ("serve.submitted", served.submitted),
        ("serve.served", served.served),
        ("serve.rejected_overload", served.rejected_overload),
        ("serve.timed_out", served.timed_out),
        ("serve.protocol_errors", served.protocol_errors),
    ] {
        layers.insert(name, value as f64);
    }
    layers.insert("serve.queue.wait_s", tally.queue_ms / 1e3);
    if served.served + u64::from(ctx.perturb) != served.submitted
        || served.submitted != tally.attempted
    {
        check_failures.push(format!(
            "server served {} of {} submissions, clients made {}",
            served.served, served.submitted, tally.attempted
        ));
    }
    if served.protocol_errors > 0 {
        check_failures.push(format!("{} protocol errors", served.protocol_errors));
    }
    let fsck = co_graph::fsck::check_data_dir(&dir, true)?;
    if !fsck.is_clean() {
        check_failures.push(format!(
            "egfsck of the data directory: {} violations",
            fsck.violations.len()
        ));
    }

    if ctx.traced {
        let (codec_s, compile_s) = replay(&replayed, columns)?;
        layers.insert("serve.codec.busy_s", codec_s);
        layers.insert("serve.compile.busy_s", compile_s);
    }
    layers.insert("perf.first_run_s", primary_wall_s);
    layers.insert("perf.cpu_speed_ratio", speed_ratio);
    layers.insert("workloads.datagen.busy_s", datagen_s);
    layers.insert("core.dsl.busy_s", dsl_s);
    Ok(Outcome {
        setup_s,
        completed,
        workloads_per_s,
        latencies_ms: mid_latencies_ms,
        rerun_s,
        loop_s: closed_loop_s + open_loop_s,
        store,
        attempted: tally.attempted,
        failed: tally.failed,
        check_failures,
        layers,
        tracer,
    })
}
