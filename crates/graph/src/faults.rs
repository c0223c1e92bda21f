//! Deterministic fault injection for robustness tests.
//!
//! A [`FaultInjector`] is installed on a [`crate::StorageManager`] (and
//! therefore on the Experiment Graph embedding it) and is consulted by
//! the storage layer and the executor:
//!
//! * **load faults** — the n-th `StorageManager::get` call misses, as if
//!   the artifact had been evicted or its content corrupted;
//! * **operation faults** — an operation, looked up by name, fails
//!   transiently or permanently for a bounded number of runs, or panics;
//! * **latency** — an operation's run is delayed by a fixed duration
//!   (to exercise deadlines);
//! * **I/O faults** — an [`IoFault`] armed for a number of firings makes
//!   the matching [`crate::vfs`] call fail as a sick disk would, while
//!   the process lives on;
//! * **crash cuts** — [`FaultInjector::crash_at`] kills the process at
//!   the `op`-th [`crate::vfs`] call made through the injector: a
//!   `write_all` cut there persists the first half of its buffer (a torn
//!   record), any other cut call persists nothing, and that call and
//!   every later one fail. The durability code never learns that a crash
//!   happened; it sees failing I/O, exactly as it would on a real disk.
//!
//! All state is interior-mutable and thread-safe, so one injector can
//! drive faults through a shared server from concurrent sessions. All
//! schedules are deterministic: no randomness, only counters.

use crate::error::{GraphError, Result};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How an injected operation fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `OperationFailed { transient: true }` — eligible for retry.
    Transient,
    /// `OperationFailed { transient: false }` — not retried.
    Permanent,
    /// The operation panics (exercises executor panic isolation).
    Panic,
}

/// A named point in a *network* code path (the `co-serve` front-end)
/// where an injected connection-level fault can fire. Unlike crash
/// cuts, which simulate process death during a persistence step, these
/// simulate the peer or the network dying: the process
/// survives, the connection does not — so they prove that a killed
/// connection can never corrupt the shared Experiment Graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFault {
    /// The accepted connection is dropped before any byte is served —
    /// as if the accept itself failed or the peer reset immediately.
    AcceptFail,
    /// The connection dies roughly halfway through writing a frame
    /// (inside the length/CRC header or the early payload).
    MidFrameDisconnect,
    /// The write stalls for the injector's configured stall duration
    /// before proceeding (exercises client read timeouts).
    StalledWrite,
    /// A frame is written with a complete header but a truncated
    /// payload, then the connection closes — a torn frame.
    TornFrame,
}

impl NetFault {
    /// Stable name, used in error messages and the network fault matrix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetFault::AcceptFail => "accept-fail",
            NetFault::MidFrameDisconnect => "mid-frame-disconnect",
            NetFault::StalledWrite => "stalled-write",
            NetFault::TornFrame => "torn-frame",
        }
    }

    /// Every network fault point, for exhaustive fault-matrix tests.
    #[must_use]
    pub fn all() -> [NetFault; 4] {
        [
            NetFault::AcceptFail,
            NetFault::MidFrameDisconnect,
            NetFault::StalledWrite,
            NetFault::TornFrame,
        ]
    }
}

/// A storage I/O failure the [`crate::vfs`] layer can inject into any
/// durability file operation (journal append, snapshot write, stray-tmp
/// sweep). Unlike a crash cut, the process survives: the *operation*
/// fails, exactly as a full disk or a flaky device would make it fail,
/// and the caller must degrade gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFault {
    /// A write fails with "no space left on device" before any byte
    /// lands (ENOSPC).
    Enospc,
    /// A read fails with an I/O error (EIO) — unreadable sector.
    ReadErr,
    /// A write fails with an I/O error (EIO) before any byte lands.
    WriteErr,
    /// A write persists only a prefix of the buffer, then fails — the
    /// torn-record case recovery must truncate.
    ShortWrite,
    /// `fsync` fails. Following fsyncgate semantics the file handle is
    /// *poisoned*: the kernel may have dropped the dirty pages, so no
    /// later write or fsync through the same handle may assume the
    /// data persisted — every subsequent operation on the handle fails
    /// until it is reopened.
    FsyncFail,
}

impl IoFault {
    /// Stable name, used in error messages and the chaos matrix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IoFault::Enospc => "enospc",
            IoFault::ReadErr => "read-err",
            IoFault::WriteErr => "write-err",
            IoFault::ShortWrite => "short-write",
            IoFault::FsyncFail => "fsync-fail",
        }
    }

    /// Every I/O fault point, for exhaustive fault-matrix tests.
    #[must_use]
    pub fn all() -> [IoFault; 5] {
        [
            IoFault::Enospc,
            IoFault::ReadErr,
            IoFault::WriteErr,
            IoFault::ShortWrite,
            IoFault::FsyncFail,
        ]
    }
}

#[derive(Debug)]
struct OpFault {
    kind: FaultKind,
    /// Remaining runs that fault; `usize::MAX` means "forever".
    remaining: usize,
}

/// Remaining firings per armed fault (`usize::MAX` = forever) plus a
/// count of firings so far — the one countdown behind both the network
/// and the I/O fault schedules.
#[derive(Debug)]
struct Countdown<K> {
    remaining: Mutex<HashMap<K, usize>>,
    fired: AtomicUsize,
}

impl<K> Default for Countdown<K> {
    fn default() -> Self {
        Countdown {
            remaining: Mutex::new(HashMap::new()),
            fired: AtomicUsize::new(0),
        }
    }
}

impl<K: Copy + Eq + Hash> Countdown<K> {
    fn lock(&self) -> MutexGuard<'_, HashMap<K, usize>> {
        self.remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn arm(&self, fault: K, times: usize) {
        let mut faults = self.lock();
        if times == 0 {
            faults.remove(&fault);
        } else {
            faults.insert(fault, times);
        }
    }

    fn take(&self, fault: K) -> bool {
        let fired = {
            let mut faults = self.lock();
            match faults.get(&fault).copied() {
                None => false,
                Some(usize::MAX) => true,
                Some(1) => {
                    faults.remove(&fault);
                    true
                }
                Some(remaining) => {
                    faults.insert(fault, remaining - 1);
                    true
                }
            }
        };
        if fired {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    fn clear(&self) {
        self.lock().clear();
    }

    fn fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }
}

/// Where one [`crate::vfs`] call stands against the crash schedule
/// ([`FaultInjector::crash_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoCut {
    /// No cut is armed, or it lies ahead: the call runs.
    Alive,
    /// This call is the cut: the process dies inside it.
    Now,
    /// The process died at an earlier call: nothing reaches the disk.
    Dead,
}

/// The armed crash cut and the vfs calls counted since it was armed.
#[derive(Debug, Default)]
struct CrashCut {
    at: Option<usize>,
    ops: usize,
}

/// Deterministic fault schedule. See the module docs.
#[derive(Debug, Default)]
pub struct FaultInjector {
    load_calls: AtomicUsize,
    failed_loads: AtomicUsize,
    fail_loads: Mutex<HashSet<usize>>,
    op_faults: Mutex<HashMap<String, OpFault>>,
    op_latency: Mutex<HashMap<String, Duration>>,
    crash: Mutex<CrashCut>,
    net_faults: Countdown<NetFault>,
    io_faults: Countdown<IoFault>,
    /// Stall applied when [`NetFault::StalledWrite`] fires, in
    /// milliseconds (atomically adjustable mid-test).
    net_stall_ms: AtomicUsize,
}

impl FaultInjector {
    /// An injector with no faults scheduled.
    #[must_use]
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Make the `n`-th call to `StorageManager::get` (0-based, counted
    /// over the store's lifetime) miss.
    pub fn fail_nth_load(&self, n: usize) {
        self.fail_loads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(n);
    }

    /// Make the next `times` runs of the operation named `op` fail with
    /// the given kind. Replaces any previous schedule for `op`.
    pub fn fail_op(&self, op: &str, kind: FaultKind, times: usize) {
        self.op_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                op.to_owned(),
                OpFault {
                    kind,
                    remaining: times,
                },
            );
    }

    /// Make every run of `op` fail with the given kind, forever.
    pub fn fail_op_forever(&self, op: &str, kind: FaultKind) {
        self.fail_op(op, kind, usize::MAX);
    }

    /// Delay every run of `op` by `latency`.
    pub fn inject_latency(&self, op: &str, latency: Duration) {
        self.op_latency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(op.to_owned(), latency);
    }

    /// Storage hook: counts the call and reports whether this load
    /// should be dropped (treated as a miss).
    pub fn on_load(&self) -> bool {
        let n = self.load_calls.fetch_add(1, Ordering::SeqCst);
        let drop = self
            .fail_loads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&n);
        if drop {
            self.failed_loads.fetch_add(1, Ordering::SeqCst);
        }
        drop
    }

    /// Executor hook: applies latency and scheduled faults for `op`.
    /// Returns an error (or panics, for [`FaultKind::Panic`]) when a
    /// fault fires.
    pub fn before_run(&self, op: &str) -> Result<()> {
        let latency = self
            .op_latency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(op)
            .copied();
        if let Some(latency) = latency {
            std::thread::sleep(latency);
        }
        let kind = {
            let mut faults = self
                .op_faults
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match faults.get_mut(op) {
                Some(fault) if fault.remaining > 0 => {
                    if fault.remaining != usize::MAX {
                        fault.remaining -= 1;
                    }
                    Some(fault.kind)
                }
                _ => None,
            }
        };
        match kind {
            None => Ok(()),
            Some(FaultKind::Transient) => Err(GraphError::op_failed_transient(
                op,
                "injected transient fault",
            )),
            Some(FaultKind::Permanent) => {
                Err(GraphError::op_failed(op, "injected permanent fault"))
            }
            // co-lint:allow(no-panic) the armed fault IS a panic; the executor catches and accounts it
            Some(FaultKind::Panic) => panic!("injected panic in operation {op:?}"),
        }
    }

    /// Arm a crash cut: counting every [`crate::vfs`] call made through
    /// this injector from now on (0-based), the `op`-th call is where
    /// the process dies — see the module docs. Replaces any earlier
    /// cut and restarts the count.
    pub fn crash_at(&self, op: usize) {
        *self.crash.lock().unwrap_or_else(PoisonError::into_inner) = CrashCut {
            at: Some(op),
            ops: 0,
        };
    }

    /// Whether the armed crash cut has fired: the process is dead and
    /// every vfs call through this injector fails.
    #[must_use]
    pub fn crashed(&self) -> bool {
        let cut = self.crash.lock().unwrap_or_else(PoisonError::into_inner);
        cut.at.is_some_and(|at| cut.ops > at)
    }

    /// Vfs hook: count one call against the crash schedule.
    pub(crate) fn on_io_op(&self) -> IoCut {
        let mut cut = self.crash.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(at) = cut.at else {
            return IoCut::Alive;
        };
        let op = cut.ops;
        cut.ops = op.saturating_add(1);
        match op.cmp(&at) {
            std::cmp::Ordering::Less => IoCut::Alive,
            std::cmp::Ordering::Equal => IoCut::Now,
            std::cmp::Ordering::Greater => IoCut::Dead,
        }
    }

    /// Arm a network fault point for the next `times` consultations
    /// (`usize::MAX` = forever). Replaces any previous schedule for
    /// `fault`; `times == 0` disarms it.
    pub fn arm_net_fault(&self, fault: NetFault, times: usize) {
        self.net_faults.arm(fault, times);
    }

    /// Serve-layer hook: consume one firing of `fault` if armed.
    /// Returns whether the caller should simulate the fault here.
    pub fn take_net_fault(&self, fault: NetFault) -> bool {
        self.net_faults.take(fault)
    }

    /// Network fault points fired so far.
    #[must_use]
    pub fn net_faults_fired(&self) -> usize {
        self.net_faults.fired()
    }

    /// Arm an I/O fault for the next `times` consultations
    /// (`usize::MAX` = forever). Replaces any previous schedule for
    /// `fault`; `times == 0` disarms it.
    pub fn arm_io_fault(&self, fault: IoFault, times: usize) {
        self.io_faults.arm(fault, times);
    }

    /// Vfs hook: consume one firing of `fault` if armed. Returns
    /// whether the caller should simulate the fault here.
    pub fn take_io_fault(&self, fault: IoFault) -> bool {
        self.io_faults.take(fault)
    }

    /// Disarm every I/O fault at once — "the disk came back".
    pub fn clear_io_faults(&self) {
        self.io_faults.clear();
    }

    /// I/O faults fired so far.
    #[must_use]
    pub fn io_faults_fired(&self) -> usize {
        self.io_faults.fired()
    }

    /// Configure the stall applied when [`NetFault::StalledWrite`] fires.
    pub fn set_net_stall(&self, stall: Duration) {
        // Stalls beyond usize::MAX ms are clamped; tests use millis.
        let ms = usize::try_from(stall.as_millis()).unwrap_or(usize::MAX);
        self.net_stall_ms.store(ms, Ordering::SeqCst);
    }

    /// The configured stalled-write duration (default 50 ms).
    #[must_use]
    pub fn net_stall(&self) -> Duration {
        let ms = self.net_stall_ms.load(Ordering::SeqCst);
        if ms == 0 {
            Duration::from_millis(50)
        } else {
            Duration::from_millis(ms as u64)
        }
    }

    /// Total `get` calls observed.
    #[must_use]
    pub fn loads_seen(&self) -> usize {
        self.load_calls.load(Ordering::SeqCst)
    }

    /// Loads dropped so far.
    #[must_use]
    pub fn loads_failed(&self) -> usize {
        self.failed_loads.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_load_fails_exactly_once() {
        let f = FaultInjector::new();
        f.fail_nth_load(1);
        assert!(!f.on_load()); // call 0
        assert!(f.on_load()); // call 1: dropped
        assert!(!f.on_load()); // call 2
        assert_eq!(f.loads_seen(), 3);
        assert_eq!(f.loads_failed(), 1);
    }

    #[test]
    fn op_faults_count_down() {
        let f = FaultInjector::new();
        f.fail_op("flaky", FaultKind::Transient, 2);
        assert!(f.before_run("flaky").unwrap_err().is_transient());
        assert!(f.before_run("flaky").is_err());
        assert!(f.before_run("flaky").is_ok());
        assert!(f.before_run("other").is_ok());
    }

    #[test]
    fn permanent_faults_never_clear() {
        let f = FaultInjector::new();
        f.fail_op_forever("broken", FaultKind::Permanent);
        for _ in 0..10 {
            let e = f.before_run("broken").unwrap_err();
            assert!(!e.is_transient());
        }
    }

    #[test]
    fn injected_panics_panic() {
        let f = FaultInjector::new();
        f.fail_op("udf", FaultKind::Panic, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = f.before_run("udf");
        }));
        assert!(r.is_err());
        assert!(f.before_run("udf").is_ok()); // budget exhausted
    }

    #[test]
    fn crash_cut_counts_calls_and_kills_every_later_one() {
        let f = FaultInjector::new();
        assert_eq!(f.on_io_op(), IoCut::Alive, "no cut armed");
        f.crash_at(2);
        assert_eq!(f.on_io_op(), IoCut::Alive);
        assert_eq!(f.on_io_op(), IoCut::Alive);
        assert!(!f.crashed());
        assert_eq!(f.on_io_op(), IoCut::Now);
        assert!(f.crashed());
        assert_eq!(f.on_io_op(), IoCut::Dead);
        f.crash_at(0); // re-arming restarts the count
        assert!(!f.crashed());
        assert_eq!(f.on_io_op(), IoCut::Now);
    }

    #[test]
    fn net_faults_count_down_and_disarm() {
        let f = FaultInjector::new();
        assert!(!f.take_net_fault(NetFault::AcceptFail));
        f.arm_net_fault(NetFault::AcceptFail, 2);
        assert!(f.take_net_fault(NetFault::AcceptFail));
        assert!(f.take_net_fault(NetFault::AcceptFail));
        assert!(!f.take_net_fault(NetFault::AcceptFail), "budget exhausted");
        f.arm_net_fault(NetFault::TornFrame, usize::MAX);
        for _ in 0..5 {
            assert!(f.take_net_fault(NetFault::TornFrame));
        }
        f.arm_net_fault(NetFault::TornFrame, 0); // disarm
        assert!(!f.take_net_fault(NetFault::TornFrame));
        assert_eq!(f.net_faults_fired(), 7);
        assert_eq!(NetFault::all().len(), 4);
        for p in NetFault::all() {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn io_faults_count_down_and_clear() {
        let f = FaultInjector::new();
        assert!(!f.take_io_fault(IoFault::Enospc));
        f.arm_io_fault(IoFault::Enospc, 2);
        assert!(f.take_io_fault(IoFault::Enospc));
        assert!(f.take_io_fault(IoFault::Enospc));
        assert!(!f.take_io_fault(IoFault::Enospc), "budget exhausted");
        f.arm_io_fault(IoFault::FsyncFail, usize::MAX);
        for _ in 0..5 {
            assert!(f.take_io_fault(IoFault::FsyncFail));
        }
        f.clear_io_faults(); // the disk comes back
        assert!(!f.take_io_fault(IoFault::FsyncFail));
        f.arm_io_fault(IoFault::ShortWrite, 3);
        f.arm_io_fault(IoFault::ShortWrite, 0); // disarm
        assert!(!f.take_io_fault(IoFault::ShortWrite));
        assert_eq!(f.io_faults_fired(), 7);
        assert_eq!(IoFault::all().len(), 5);
        for p in IoFault::all() {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn net_stall_defaults_and_configures() {
        let f = FaultInjector::new();
        assert_eq!(f.net_stall(), Duration::from_millis(50));
        f.set_net_stall(Duration::from_millis(7));
        assert_eq!(f.net_stall(), Duration::from_millis(7));
    }

    #[test]
    fn latency_delays_runs() {
        let f = FaultInjector::new();
        f.inject_latency("slow", Duration::from_millis(20));
        let start = std::time::Instant::now();
        f.before_run("slow").unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
