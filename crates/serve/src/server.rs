//! The networked front-end: acceptor, per-connection sessions, the
//! bounded worker pool with admission control, and the drain state
//! machine.
//!
//! ## Threading model
//!
//! One acceptor thread polls the listener; each admitted connection
//! gets its own session thread that parses frames and waits for
//! replies; a bounded pool of worker threads runs the actual workload
//! pipeline against the shared [`OptimizerServer`]. The hand-off
//! between session threads and workers is a bounded queue — the
//! admission queue — whose depth is the server's overload knob.
//!
//! ## Overload semantics
//!
//! * queue at its configured depth → [`Response::Overloaded`] with a
//!   retry-after hint derived from the queue length and an EWMA of
//!   recent service times;
//! * request deadline already expired at dequeue → the job is shed with
//!   [`Response::TimedOut`] without running (expired work never wastes
//!   a worker);
//! * deadline still live → the remaining budget is folded into the
//!   executor's `RetryPolicy` workload deadline, so a slow workload
//!   fails with `DeadlineExceeded` instead of holding the worker.
//!
//! ## Drain state machine
//!
//! `Running → Draining → Stopped`. Draining stops the acceptor,
//! rejects new submissions with [`Response::Draining`], lets workers
//! finish everything already admitted, then flushes durable state
//! (snapshot + journal truncate) and moves to `Stopped`, at which point
//! session threads wind down. Already-admitted work is never dropped:
//! every queued job runs to completion (or its deadline) before the
//! flush.

use crate::frame::{read_frame, write_frame, ProtocolError};
use crate::proto::{Request, Response, StatsSnapshot, WorkloadSummary, PROTO_VERSION};
use crate::spec::{compile, SessionDatasets};
use co_core::{DurabilityHealth, OptimizerServer, PrunedWorkload, READ_ONLY_RETRY_HINT_MS};
use co_graph::{FaultInjector, GraphError, NetFault, WorkloadDag};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serve state machine states.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Session-thread poll interval (read timeout between frames).
const POLL: Duration = Duration::from_millis(100);

/// Extra patience past a request's deadline for the worker's own
/// deadline handling to surface before the session thread gives up.
const REPLY_MARGIN: Duration = Duration::from_secs(5);

/// Reply wait for requests without a deadline.
const DEFAULT_REPLY_WAIT: Duration = Duration::from_secs(600);

/// Serve-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7431"` (`:0` for an ephemeral
    /// port — read it back from [`ServeHandle::local_addr`]).
    pub addr: String,
    /// Worker threads running the workload pipeline.
    pub workers: usize,
    /// Admission-queue depth: submissions beyond `workers` in flight
    /// plus this many queued are rejected with `Overloaded`.
    pub queue_depth: usize,
    /// Maximum concurrent connections; further accepts are turned away
    /// with a best-effort `Overloaded` frame.
    pub max_connections: usize,
    /// Deadline applied to submissions that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Deterministic fault injector consulted at the connection-level
    /// fault points (accept / frame writes). Install the same injector
    /// on the optimizer server's storage to drive durability and
    /// network faults from one schedule.
    pub faults: Option<Arc<FaultInjector>>,
}

impl ServeConfig {
    /// Defaults: 4 workers, depth-64 admission queue, 256 connections.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            workers: 4,
            queue_depth: 64,
            max_connections: 256,
            default_deadline_ms: None,
            faults: None,
        }
    }
}

/// Serve-layer counters (monotonic, lock-free).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections admitted to a session thread.
    pub connections: AtomicU64,
    /// Submissions received over the wire.
    pub submitted: AtomicU64,
    /// Submissions served to completion.
    pub served: AtomicU64,
    /// Submissions rejected by admission control.
    pub rejected_overload: AtomicU64,
    /// Submissions rejected during drain.
    pub rejected_draining: AtomicU64,
    /// Submissions shed or cut off by their deadline.
    pub timed_out: AtomicU64,
    /// Connections torn down by a frame/decode error.
    pub protocol_errors: AtomicU64,
}

/// One admitted submission, queued for a worker.
struct Job {
    dag: WorkloadDag,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: SyncSender<Response>,
}

/// State shared by the acceptor, session threads, and workers.
struct Shared {
    server: Arc<OptimizerServer>,
    config: ServeConfig,
    state: AtomicU8,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    in_flight: AtomicUsize,
    /// EWMA of recent service times, milliseconds (0 = no sample yet).
    ewma_ms: Mutex<f64>,
    counters: ServeCounters,
    session_seq: AtomicU64,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// `Running → Draining` (idempotent; a later state is never
    /// regressed). Wakes idle workers so they can notice.
    fn begin_drain(&self) {
        let _ = self
            .state
            .compare_exchange(RUNNING, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
        // Take the queue lock so the transition is ordered against
        // concurrent admission checks, then wake everyone.
        drop(self.queue.lock().unwrap_or_else(PoisonError::into_inner));
        self.queue_cv.notify_all();
    }

    /// Retry-after hint: how long until the backlog plausibly clears.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        let ewma = *self.ewma_ms.lock().unwrap_or_else(PoisonError::into_inner);
        let per_job = if ewma > 0.0 { ewma } else { 25.0 };
        let backlog = queued + self.in_flight.load(Ordering::Relaxed);
        let workers = self.config.workers.max(1);
        // lint:reason backlog and the clamped ms estimate are tiny relative to f64/u64 range
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let ms = ((backlog as f64 / workers as f64) * per_job).clamp(10.0, 30_000.0) as u64;
        ms
    }

    fn observe_service(&self, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        let mut ewma = self.ewma_ms.lock().unwrap_or_else(PoisonError::into_inner);
        *ewma = if *ewma == 0.0 {
            ms
        } else {
            0.8 * *ewma + 0.2 * ms
        };
    }

    /// The full counter set: core `ServerStats` + serve counters.
    fn snapshot(&self) -> StatsSnapshot {
        let core = self.server.stats();
        let c = &self.counters;
        #[allow(clippy::cast_possible_truncation)]
        // lint:reason run_seconds millis fit u64 for any realistic uptime
        StatsSnapshot {
            workloads: core.workloads as u64,
            ops_executed: core.ops_executed as u64,
            artifacts_loaded: core.artifacts_loaded as u64,
            warmstarts: core.warmstarts as u64,
            run_seconds: core.run_seconds,
            baseline_seconds: core.baseline_seconds,
            failed_workloads: core.failed_workloads as u64,
            salvaged_artifacts: core.salvaged_artifacts as u64,
            journal_records_replayed: core.journal_records_replayed as u64,
            torn_tail_truncated: core.torn_tail_truncated as u64,
            snapshots_compacted: core.snapshots_compacted as u64,
            shards: self.server.n_shards() as u64,
            lock_wait_ns: self.server.lock_wait_ns().iter().sum(),
            connections: c.connections.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_draining: c.rejected_draining.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            durability_health: core.durability_health,
            repair_attempts: core.repair_attempts as u64,
            repairs_succeeded: core.repairs_succeeded as u64,
            publishes_rejected_readonly: core.publishes_rejected_readonly as u64,
            draining: self.state() != RUNNING,
        }
    }
}

/// Handle to a running serve front-end.
pub struct ServeHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    repairer: Option<JoinHandle<()>>,
    conn_count: Arc<AtomicUsize>,
}

/// Start serving `server` on `config.addr`. Returns once the listener
/// is bound and the worker pool is up.
pub fn start(server: Arc<OptimizerServer>, config: ServeConfig) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers_n = config.workers.max(1);
    let shared = Arc::new(Shared {
        server,
        config,
        state: AtomicU8::new(RUNNING),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        in_flight: AtomicUsize::new(0),
        ewma_ms: Mutex::new(0.0),
        counters: ServeCounters::default(),
        session_seq: AtomicU64::new(1),
    });
    let conn_count = Arc::new(AtomicUsize::new(0));
    let mut workers = Vec::with_capacity(workers_n);
    for i in 0..workers_n {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("co-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                // co-lint:allow(no-panic) server startup: failing to spawn an OS thread is unrecoverable
                .expect("spawn worker"),
        );
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        let conn_count = Arc::clone(&conn_count);
        std::thread::Builder::new()
            .name("co-serve-acceptor".to_owned())
            .spawn(move || acceptor_loop(&shared, &listener, &conn_count))
            // co-lint:allow(no-panic) server startup: failing to spawn an OS thread is unrecoverable
            .expect("spawn acceptor")
    };
    let repairer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("co-serve-repair".to_owned())
            .spawn(move || repair_loop(&shared))
            // co-lint:allow(no-panic) server startup: failing to spawn an OS thread is unrecoverable
            .expect("spawn repairer")
    };
    Ok(ServeHandle {
        shared,
        addr,
        acceptor: Some(acceptor),
        workers,
        repairer: Some(repairer),
        conn_count,
    })
}

/// Background self-healing: while the durability layer is read-only,
/// attempt a counted repair with exponential backoff (the read-only
/// retry hint up to 4s), so a server whose disk recovers returns to
/// `Healthy` even with no publish traffic to trigger opportunistic
/// repair. Healthy and wedged layers cost one health read per tick.
fn repair_loop(shared: &Arc<Shared>) {
    let floor = Duration::from_millis(READ_ONLY_RETRY_HINT_MS);
    let ceil = Duration::from_secs(4);
    let mut backoff = floor;
    while shared.state() != STOPPED {
        if shared.server.durability_health() == DurabilityHealth::ReadOnly {
            backoff = match shared.server.try_repair() {
                Ok(_) => floor,
                Err(_) => (backoff * 2).min(ceil),
            };
        } else {
            backoff = floor;
        }
        // Sleep in slices so a stop is noticed promptly.
        let deadline = Instant::now() + backoff;
        while Instant::now() < deadline && shared.state() != STOPPED {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl ServeHandle {
    /// The bound address (useful with an ephemeral `:0` bind).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain (idempotent): stop accepting, reject new
    /// submissions, let admitted work finish. Call [`join`] to wait for
    /// completion and the durable flush.
    ///
    /// [`join`]: ServeHandle::join
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has begun (or completed).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.state() != RUNNING
    }

    /// The live counter set (core + serve layers).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The underlying optimizer server.
    #[must_use]
    pub fn server(&self) -> &Arc<OptimizerServer> {
        &self.shared.server
    }

    /// Drain and wait for completion: joins the acceptor and workers
    /// (every admitted workload finishes first), flushes durable state
    /// (snapshot + journal truncate), stops session threads, and waits
    /// for connections to wind down. Returns the final counter set.
    ///
    /// # Errors
    ///
    /// Propagates the durable-flush failure (e.g. a wedged journal);
    /// the serve threads are stopped regardless.
    pub fn join(&mut self) -> Result<StatsSnapshot, GraphError> {
        self.shared.begin_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let flush = self.shared.server.flush_durable();
        self.shared.state.store(STOPPED, Ordering::SeqCst);
        if let Some(repairer) = self.repairer.take() {
            let _ = repairer.join();
        }
        let patience = Instant::now() + Duration::from_secs(10);
        while self.conn_count.load(Ordering::SeqCst) > 0 && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(10));
        }
        flush.map(|()| self.shared.snapshot())
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // A handle dropped without `join` still winds everything down
        // (without the graceful flush guarantees).
        self.shared.state.store(STOPPED, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(repairer) = self.repairer.take() {
            let _ = repairer.join();
        }
    }
}

// ---------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener, conn_count: &Arc<AtomicUsize>) {
    while shared.state() == RUNNING {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let faults = shared.config.faults.as_deref();
                if faults.is_some_and(|f| f.take_net_fault(NetFault::AcceptFail)) {
                    // Simulated accept failure: the connection dies
                    // before a single byte is served.
                    drop(stream);
                    continue;
                }
                if conn_count.load(Ordering::SeqCst) >= shared.config.max_connections {
                    let retry = shared.retry_after_ms(shared.config.queue_depth);
                    turn_away(&stream, retry);
                    continue;
                }
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                conn_count.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                let conn_guard = Arc::clone(conn_count);
                let session = shared.session_seq.fetch_add(1, Ordering::Relaxed);
                let spawned = std::thread::Builder::new()
                    .name(format!("co-serve-session-{session}"))
                    .spawn(move || {
                        session_loop(&shared, &stream, session);
                        conn_guard.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    conn_count.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Best-effort `Overloaded` to a connection over the cap, then close.
fn turn_away(stream: &TcpStream, retry_after_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut w = stream;
    let _ = write_frame(
        &mut w,
        &Response::Overloaded { retry_after_ms }.encode(),
        None,
    );
    let _ = w.flush();
}

// ---------------------------------------------------------------------
// Session threads
// ---------------------------------------------------------------------

fn session_loop(shared: &Arc<Shared>, stream: &TcpStream, session: u64) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let faults = shared.config.faults.as_deref();
    let mut datasets = SessionDatasets::new();
    loop {
        let payload = match read_frame(&mut (&*stream)) {
            Ok(payload) => payload,
            Err(ProtocolError::Idle) => {
                if shared.state() == STOPPED {
                    return;
                }
                continue;
            }
            Err(ProtocolError::Closed) => return,
            Err(e) if e.is_frame_error() => {
                // The satellite guarantee: a bad frame is a typed error
                // that closes only this connection — reply best-effort,
                // then tear down.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let bad = Response::Bad {
                    message: e.to_string(),
                };
                let _ = write_frame(&mut (&*stream), &bad.encode(), faults);
                return;
            }
            Err(_) => return, // transport I/O error
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let bad = Response::Bad {
                    message: e.to_string(),
                };
                let _ = write_frame(&mut (&*stream), &bad.encode(), faults);
                return;
            }
        };
        let (response, close) = handle_request(shared, request, session, &mut datasets);
        if write_frame(&mut (&*stream), &response.encode(), faults).is_err() || close {
            return;
        }
    }
}

/// Serve one decoded request. Returns the response and whether the
/// connection should close after sending it.
fn handle_request(
    shared: &Arc<Shared>,
    request: Request,
    session: u64,
    datasets: &mut SessionDatasets,
) -> (Response, bool) {
    match request {
        Request::Hello { client: _, proto } => {
            if proto != PROTO_VERSION {
                return (
                    Response::Bad {
                        message: format!(
                            "protocol version {proto} not supported (server speaks {PROTO_VERSION})"
                        ),
                    },
                    true,
                );
            }
            (
                Response::Welcome {
                    session,
                    proto: PROTO_VERSION,
                },
                false,
            )
        }
        Request::RegisterDataset { name, columns } => match datasets.register(&name, columns) {
            Ok(qualified) => (Response::DatasetRegistered { qualified }, false),
            Err(e) => (
                Response::Failed {
                    error: e.to_string(),
                    transient: false,
                    salvaged: 0,
                },
                false,
            ),
        },
        Request::Submit { spec, deadline_ms } => {
            (handle_submit(shared, &spec, deadline_ms, datasets), false)
        }
        Request::Stats => (Response::StatsReply(shared.snapshot()), false),
        Request::Ping => (Response::Pong, false),
        Request::Drain => {
            shared.begin_drain();
            (Response::DrainStarted, false)
        }
    }
}

fn handle_submit(
    shared: &Arc<Shared>,
    spec: &crate::spec::WorkloadSpec,
    deadline_ms: Option<u64>,
    datasets: &SessionDatasets,
) -> Response {
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    if shared.state() != RUNNING {
        shared
            .counters
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        return Response::Draining;
    }
    let dag = match compile(spec, datasets) {
        Ok(dag) => dag,
        Err(e) => {
            return Response::Failed {
                error: e.to_string(),
                transient: false,
                salvaged: 0,
            }
        }
    };
    let deadline_ms = deadline_ms.or(shared.config.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let (reply_tx, reply_rx) = sync_channel(1);
    {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the lock: `begin_drain` orders its transition
        // through this mutex, so a submission admitted here is always
        // seen (and finished) by the draining workers.
        if shared.state() != RUNNING {
            shared
                .counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Response::Draining;
        }
        if queue.len() >= shared.config.queue_depth {
            shared
                .counters
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = shared.retry_after_ms(queue.len());
            return Response::Overloaded { retry_after_ms };
        }
        queue.push_back(Job {
            dag,
            deadline,
            enqueued: Instant::now(),
            reply: reply_tx,
        });
        shared.queue_cv.notify_one();
    }
    let wait = deadline.map_or(DEFAULT_REPLY_WAIT, |d| {
        d.saturating_duration_since(Instant::now()) + REPLY_MARGIN
    });
    match reply_rx.recv_timeout(wait) {
        Ok(response) => response,
        Err(_) => {
            // The worker outlived even the margin (or died); the
            // session gives up on this submission.
            let waited_ms = deadline_ms.unwrap_or(0);
            Response::TimedOut { waited_ms }
        }
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                // Drain: exit only once the queue is empty, so every
                // admitted workload still runs.
                if shared.state() != RUNNING {
                    break None;
                }
                let (guard, _timeout) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let Job {
            dag,
            deadline,
            enqueued,
            reply,
        } = job;
        let response = run_job(shared, dag, deadline, enqueued);
        let _ = reply.send(response);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[allow(clippy::cast_possible_truncation)] // lint:reason queue waits are far below u64 milliseconds
fn waited_ms(enqueued: Instant) -> u64 {
    enqueued.elapsed().as_millis() as u64
}

fn run_job(
    shared: &Arc<Shared>,
    dag: WorkloadDag,
    deadline: Option<Instant>,
    enqueued: Instant,
) -> Response {
    let queue_ms = enqueued.elapsed().as_secs_f64() * 1e3;
    // Shed work whose deadline already passed while queued: running it
    // would waste a worker on a result nobody is waiting for.
    let remaining = match deadline {
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                return Response::TimedOut {
                    waited_ms: waited_ms(enqueued),
                };
            }
            Some(d - now)
        }
        None => None,
    };
    let started = Instant::now();
    let outcome = (|| {
        let pruned = PrunedWorkload::new(dag)?;
        let planned = shared.server.plan_workload(pruned)?;
        // Deadline propagation: the remaining request budget becomes
        // the executor's workload deadline.
        let config = shared.server.executor_config_with_deadline(remaining);
        let executed = planned.execute(&config);
        shared.server.publish_workload(executed)
    })();
    shared.observe_service(started.elapsed());
    match outcome {
        Ok((_, report)) => {
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            // lint:reason report counters are small non-negative counts
            Response::Done(WorkloadSummary {
                ops_executed: report.ops_executed as u64,
                artifacts_loaded: report.artifacts_loaded as u64,
                warmstarts: report.warmstarts as u64,
                run_seconds: report.run_seconds(),
                queue_ms,
            })
        }
        Err(workload_error) => {
            if matches!(workload_error.error, GraphError::DeadlineExceeded { .. }) {
                shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                return Response::TimedOut {
                    waited_ms: waited_ms(enqueued),
                };
            }
            // A read-only durability layer rejects the publish
            // retriably — surfaced like `Overloaded`, so the client
            // library backs off and resubmits instead of failing.
            if let GraphError::ReadOnly { retry_after_ms } = workload_error.error {
                return Response::ReadOnly { retry_after_ms };
            }
            Response::Failed {
                error: workload_error.error.to_string(),
                transient: workload_error.error.is_transient(),
                salvaged: workload_error.completed.len() as u64,
            }
        }
    }
}
