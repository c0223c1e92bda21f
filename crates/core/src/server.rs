//! The server: one shared Experiment Graph, an optimizer, and an updater
//! (paper Figure 2). [`OptimizerServer::run_workload`] drives a whole
//! client/server round trip as a staged pipeline with typed hand-offs
//! (`PrunedWorkload → PlannedWorkload → ExecutedWorkload`, see
//! [`crate::pipeline`]): prune (no lock) → plan + snapshot (read lock) →
//! execute (lock-free) → update + materialize + stats baseline (one
//! write-lock critical section). No Experiment Graph lock is ever held
//! while an `Operation::run` executes.
//!
//! The Experiment Graph is partitioned into [`ServerConfig::shards`]
//! lock shards (`co_graph::shard`; one shard is simply the N = 1 case):
//! planning takes every shard's read lock and serves through an
//! [`EgView`](co_graph::EgView), while publishing locks only the shards
//! a workload touches — in ascending shard order, so two publishers can
//! never deadlock — and journals each shard's delta separately, each record
//! naming the publish's shard set so that the records together are the
//! commit decision (DESIGN.md §10). Compaction snapshots one shard at a
//! time under that shard's lock alone.

use crate::cost::CostModel;
use crate::executor::{self, ExecutorConfig};
use crate::failure::{Quarantine, RetryPolicy, WorkloadError};
use crate::materialize::{self, Materializer};
use crate::optimizer::{AllMaterializedReuse, HelixReuse, LinearReuse, NoReuse, ReusePlanner};
use crate::pipeline::{ExecutedWorkload, FailedExecution, PlannedWorkload, PrunedWorkload};
use crate::report::{ExecutionReport, RecoveryReport};
use co_graph::journal::{self, EgDelta, FsyncPolicy, Journal, QuarantineEntry, VertexTouch};
use co_graph::shard::{self, ShardedEg};
use co_graph::{
    snapshot, ArtifactId, ExperimentGraph, FaultInjector, GraphError, OpHash, Result,
    ShardWriteGuard, Value, WorkloadDag,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which materialization algorithm the updater runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaterializerKind {
    /// Storage-aware with column dedup (`SA`, the paper's default).
    StorageAware,
    /// ML-based greedy with nominal sizes (`HM`).
    Greedy,
    /// Greedy with an artifact-count cap (Figure 8(b)'s one-artifact
    /// budget).
    GreedyCapped(usize),
    /// The Helix baseline (`HL`).
    Helix,
    /// Materialize everything (`ALL`).
    All,
    /// Materialize nothing (`KG` baseline).
    None,
}

/// Which reuse planner the optimizer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseKind {
    /// Linear-time forward/backward (`LN`, the paper's algorithm).
    Linear,
    /// Helix PSP + max-flow (`HL`).
    Helix,
    /// Load every materialized artifact (`ALL_M`).
    AllMaterialized,
    /// Recompute everything (`ALL_C` / `KG`).
    None,
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Storage budget in bytes.
    pub budget: u64,
    /// Quality-vs-cost weight `α` (paper default 0.5).
    pub alpha: f64,
    /// Materialization algorithm.
    pub materializer: MaterializerKind,
    /// Reuse planner.
    pub reuse: ReuseKind,
    /// Load-cost model.
    pub cost: CostModel,
    /// Warmstart training operations.
    pub warmstart: bool,
    /// Retry policy for transient operation failures.
    pub retry: RetryPolicy,
    /// Quarantine operations after this many consecutive permanent
    /// failures (`None` disables the quarantine).
    pub quarantine_after: Option<usize>,
    /// Experiment Graph lock shards. With `1` (the default) every
    /// publish holds the whole graph, so the configured materializer
    /// runs the paper's algorithms as written; larger values partition
    /// vertices by artifact hash so publishers touching disjoint shards
    /// commit concurrently, and the budgeted materializers degrade to a
    /// first-fit scope over the publishing workload (DESIGN.md §10).
    pub shards: usize,
}

impl ServerConfig {
    /// The paper's default configuration: storage-aware materialization,
    /// linear reuse, α = 0.5, in-memory EG, no warmstarting.
    #[must_use]
    pub fn collaborative(budget: u64) -> Self {
        ServerConfig {
            budget,
            alpha: 0.5,
            materializer: MaterializerKind::StorageAware,
            reuse: ReuseKind::Linear,
            cost: CostModel::memory(),
            warmstart: false,
            retry: RetryPolicy::default(),
            quarantine_after: Some(3),
            shards: 1,
        }
    }

    /// The `KG` baseline: no storage, no reuse — every workload runs from
    /// scratch.
    #[must_use]
    pub fn baseline() -> Self {
        ServerConfig {
            budget: 0,
            alpha: 0.5,
            materializer: MaterializerKind::None,
            reuse: ReuseKind::None,
            cost: CostModel::memory(),
            warmstart: false,
            retry: RetryPolicy::default(),
            quarantine_after: Some(3),
            shards: 1,
        }
    }

    /// The Helix comparison system: Helix materializer + Helix reuse.
    #[must_use]
    pub fn helix(budget: u64) -> Self {
        ServerConfig {
            budget,
            alpha: 0.5,
            materializer: MaterializerKind::Helix,
            reuse: ReuseKind::Helix,
            cost: CostModel::memory(),
            warmstart: false,
            retry: RetryPolicy::default(),
            quarantine_after: Some(3),
            shards: 1,
        }
    }
}

/// Where and how the Experiment Graph is made crash-safe (see
/// DESIGN.md §10). The data directory holds one snapshot + write-ahead
/// journal pair per shard (`eg-k.egsnap`, written atomically, and
/// `eg-k.wal`, appended inside the publish critical section) — for
/// every shard count, 1 included.
/// Opening a directory with the wrong shard count is an error, not
/// silent misrouting.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Data directory; created on open if missing.
    pub dir: PathBuf,
    /// When journal appends reach the disk.
    pub fsync: FsyncPolicy,
    /// Compact a shard (snapshot it + truncate its journal) once its
    /// journal exceeds this many bytes.
    pub compact_journal_bytes: u64,
    /// How many *consecutive* failed repair attempts (explicit
    /// [`OptimizerServer::try_repair`] calls or the service front-end's
    /// background repair loop) wedge the durability layer permanently.
    /// Publish-entry opportunistic repairs never count toward this
    /// limit — a publish storm during a disk outage must not wedge a
    /// server that would have recovered.
    pub max_repair_attempts: usize,
}

impl DurabilityConfig {
    /// Durability in `dir` with the safe defaults: fsync every append,
    /// compact past 4 MiB of journal, wedge after 8 consecutive failed
    /// repairs.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            compact_journal_bytes: 4 * 1024 * 1024,
            max_repair_attempts: 8,
        }
    }
}

const WEDGED_MSG: &str = "durability layer wedged after repeated failed repair attempts; \
     restart the server from its data directory";

/// Backoff hint handed to rejected publishers while the durability
/// layer is read-only (also the publish-entry repair throttle).
pub const READ_ONLY_RETRY_HINT_MS: u64 = 250;

/// Health of the durability layer (DESIGN.md §10).
///
/// `Healthy → ReadOnly` on any persistence failure that leaves memory
/// ahead of disk: the failed publish's delta moves to an in-memory
/// backlog, reads/reuse/warm-starts keep serving, and only publishes
/// are rejected — retriably, with [`GraphError::ReadOnly`]. Repair
/// (reopen the journals, truncate torn tails, drop stray temp files,
/// re-append the backlog) returns the layer to `Healthy`;
/// [`DurabilityConfig::max_repair_attempts`] consecutive failed repairs
/// degrade it to `Wedged`, the only permanent state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityHealth {
    /// Disk and memory agree; publishes persist normally.
    #[default]
    Healthy,
    /// A persistence failure left memory ahead of disk; publishes are
    /// rejected retriably until repair drains the backlog.
    ReadOnly,
    /// Repair failed repeatedly; only a restart from the data
    /// directory recovers.
    Wedged,
}

impl DurabilityHealth {
    /// Stable lowercase name (operator dashboards, stats wire codec).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DurabilityHealth::Healthy => "healthy",
            DurabilityHealth::ReadOnly => "read-only",
            DurabilityHealth::Wedged => "wedged",
        }
    }

    /// Numeric code for wire encodings: 0 healthy, 1 read-only, 2 wedged.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        match self {
            DurabilityHealth::Healthy => 0,
            DurabilityHealth::ReadOnly => 1,
            DurabilityHealth::Wedged => 2,
        }
    }

    /// Inverse of [`as_u64`](DurabilityHealth::as_u64); unknown codes
    /// conservatively decode as `Wedged`.
    #[must_use]
    pub fn from_u64(code: u64) -> Self {
        match code {
            0 => DurabilityHealth::Healthy,
            1 => DurabilityHealth::ReadOnly,
            _ => DurabilityHealth::Wedged,
        }
    }
}

/// One publish awaiting re-append: its sequence number, its per-shard
/// deltas (ascending shard order, each naming the whole set), and the
/// persisted-quarantine map to install once it lands.
struct Backlog {
    seq: u64,
    deltas: Vec<(usize, EgDelta)>,
    quarantine: Option<HashMap<OpHash, usize>>,
}

/// Durability state of a server opened from a data directory. Lock
/// order within a publish: shard write locks (ascending) →
/// `persisted_quarantine` → per-shard journal mutexes (ascending) →
/// stats. The `backlog` mutex is only ever taken with none of those
/// held (the publish path drops the quarantine guard before
/// backlogging; repair holds `backlog` outermost and takes the others
/// transiently).
struct Durability {
    config: DurabilityConfig,
    /// One write-ahead journal per shard.
    journals: Vec<parking_lot::Mutex<Journal>>,
    /// Quarantine entries as last durably persisted (op_hash →
    /// failures) — the baseline the publish path diffs against to emit
    /// Q+/Q- records. Advanced only after the publish's last record
    /// lands, so recovery's view matches.
    persisted_quarantine: parking_lot::Mutex<HashMap<OpHash, usize>>,
    /// Graded health (the [`DurabilityHealth::as_u64`] code, narrowed
    /// to u8): a failed append does not wedge the server — the publish
    /// joins `backlog`, the layer turns read-only, and repair re-appends
    /// once the disk recovers.
    health: AtomicU8,
    /// Publishes that are live in memory but not yet durable. Entries
    /// may arrive out of sequence under concurrent failing publishers;
    /// repair sorts by sequence number before draining.
    backlog: parking_lot::Mutex<Vec<Backlog>>,
    /// Consecutive failed counted repair attempts (see
    /// [`DurabilityConfig::max_repair_attempts`]).
    repair_attempts: AtomicUsize,
    /// Last assigned publish sequence number. Incremented only while
    /// the touched shards' write locks are held, so every shard journal
    /// sees its subset of sequence numbers in increasing order, and a
    /// compaction reading it under shard k's lock gets a watermark that
    /// covers every publish that ever held k.
    seq: AtomicU64,
}

impl Durability {
    fn health(&self) -> DurabilityHealth {
        DurabilityHealth::from_u64(u64::from(self.health.load(Ordering::SeqCst)))
    }

    fn set_health(&self, health: DurabilityHealth) {
        #[allow(clippy::cast_possible_truncation)]
        // lint:reason health states fit in a u8 by definition
        self.health.store(health.as_u64() as u8, Ordering::SeqCst);
    }

    /// Move one failed publish into the backlog and degrade to
    /// read-only. Called with the shard write locks held but *not* the
    /// persisted-quarantine guard (dropped by the caller: the backlog
    /// mutex must never nest inside it — repair holds the backlog
    /// outermost and takes the quarantine map while draining).
    fn defer(
        &self,
        seq: u64,
        deltas: Vec<(usize, EgDelta)>,
        quarantine: Option<HashMap<OpHash, usize>>,
    ) -> GraphError {
        self.backlog.lock().push(Backlog {
            seq,
            deltas,
            quarantine,
        });
        self.set_health(DurabilityHealth::ReadOnly);
        GraphError::read_only(READ_ONLY_RETRY_HINT_MS)
    }
}

/// Cumulative statistics over a server's lifetime — the dashboard
/// counters of the motivating example ("saves hundreds of hours of
/// execution time ... reduces the required resources and operation cost
/// of Kaggle").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Workloads served.
    pub workloads: usize,
    /// Operations actually executed across all workloads.
    pub ops_executed: usize,
    /// Artifacts served from the Experiment Graph.
    pub artifacts_loaded: usize,
    /// Training operations warmstarted.
    pub warmstarts: usize,
    /// Total client-visible run time (compute + charged loads), seconds.
    pub run_seconds: f64,
    /// Estimated time the same submissions would have cost with no reuse
    /// at all, seconds (from the Experiment Graph's recorded compute
    /// times).
    pub baseline_seconds: f64,
    /// Workloads that terminated with an error.
    pub failed_workloads: usize,
    /// Vertices salvaged into the Experiment Graph from failed runs.
    pub salvaged_artifacts: usize,
    /// Per-shard journal records applied during startup recovery: those
    /// beyond their shard's snapshot watermark *and* committed. A
    /// publish touching k shards contributes k.
    pub journal_records_replayed: usize,
    /// Journals whose torn or uncommitted tail was truncated during
    /// recovery.
    pub torn_tail_truncated: usize,
    /// Compaction passes performed: each explicit compaction, and each
    /// publish whose threshold check compacted at least one shard.
    pub snapshots_compacted: usize,
    /// Durability health at the moment of the stats read —
    /// [`DurabilityHealth::as_u64`] (0 healthy, 1 read-only, 2 wedged).
    /// Overwritten from the authoritative state by
    /// [`OptimizerServer::stats`], never summed.
    pub durability_health: u64,
    /// Repair attempts made over the server's lifetime (counted and
    /// opportunistic alike).
    pub repair_attempts: usize,
    /// Repairs that returned the durability layer to `Healthy`.
    pub repairs_succeeded: usize,
    /// Publishes rejected retriably while the layer was read-only.
    pub publishes_rejected_readonly: usize,
}

impl ServerStats {
    /// Estimated seconds saved by the optimizer so far.
    #[must_use]
    pub fn seconds_saved(&self) -> f64 {
        (self.baseline_seconds - self.run_seconds).max(0.0)
    }

    /// Fold another counter set into this one (per-shard sub-counters
    /// are summed on read).
    fn add(&mut self, other: &ServerStats) {
        self.workloads += other.workloads;
        self.ops_executed += other.ops_executed;
        self.artifacts_loaded += other.artifacts_loaded;
        self.warmstarts += other.warmstarts;
        self.run_seconds += other.run_seconds;
        self.baseline_seconds += other.baseline_seconds;
        self.failed_workloads += other.failed_workloads;
        self.salvaged_artifacts += other.salvaged_artifacts;
        self.journal_records_replayed += other.journal_records_replayed;
        self.torn_tail_truncated += other.torn_tail_truncated;
        self.snapshots_compacted += other.snapshots_compacted;
        self.durability_health = self.durability_health.max(other.durability_health);
        self.repair_attempts += other.repair_attempts;
        self.repairs_succeeded += other.repairs_succeeded;
        self.publishes_rejected_readonly += other.publishes_rejected_readonly;
    }

    /// Record one published workload's contribution. Runs inside the
    /// publish critical section (under the shard write locks), so a
    /// concurrent [`OptimizerServer::stats`] reader can never observe a
    /// graph state ahead of the counters.
    fn fold_publish(
        &mut self,
        report: &ExecutionReport,
        baseline: f64,
        failure: Option<&FailedExecution>,
        persist_failed: bool,
    ) {
        match (failure, persist_failed) {
            (None, false) => {
                self.workloads += 1;
                self.ops_executed += report.ops_executed;
                self.artifacts_loaded += report.artifacts_loaded;
                self.warmstarts += report.warmstarts;
                self.run_seconds += report.run_seconds();
                self.baseline_seconds += baseline;
            }
            (None, true) => {
                self.failed_workloads += 1;
            }
            (Some(f), _) => {
                self.failed_workloads += 1;
                self.salvaged_artifacts += f.completed.len();
            }
        }
    }
}

/// The collaborative optimizer server.
pub struct OptimizerServer {
    eg: ShardedEg,
    config: ServerConfig,
    materializer: Box<dyn Materializer>,
    planner: Box<dyn ReusePlanner>,
    /// One sub-counter set per shard, updated inside the publish
    /// critical section under the lowest touched shard's lock and
    /// summed on read.
    stats: Vec<parking_lot::Mutex<ServerStats>>,
    quarantine: Option<Arc<Quarantine>>,
    durability: Option<Durability>,
    /// Publish-entry opportunistic repairs are throttled through this
    /// timestamp so a publish storm does not hammer a dead disk.
    repair_throttle: parking_lot::Mutex<Option<Instant>>,
}

impl OptimizerServer {
    /// Create a server. The Experiment Graph store deduplicates columns
    /// iff the configured materializer is storage-aware; with
    /// `config.shards > 1` the graph is partitioned into that many lock
    /// shards sharing one column vault.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        let dedup = config.materializer == MaterializerKind::StorageAware;
        OptimizerServer::build(config, ShardedEg::new(config.shards.max(1), dedup))
    }

    /// Assemble a server around the given sharded graph (shared by
    /// [`new`] and [`open`]).
    ///
    /// [`new`]: OptimizerServer::new
    /// [`open`]: OptimizerServer::open
    fn build(mut config: ServerConfig, eg: ShardedEg) -> Self {
        config.shards = eg.n_shards();
        let materializer = materialize::for_config(&config);
        let planner: Box<dyn ReusePlanner> = match config.reuse {
            ReuseKind::Linear => Box::new(LinearReuse),
            ReuseKind::Helix => Box::new(HelixReuse),
            ReuseKind::AllMaterialized => Box::new(AllMaterializedReuse),
            ReuseKind::None => Box::new(NoReuse),
        };
        let stats = (0..eg.n_shards())
            .map(|_| parking_lot::Mutex::new(ServerStats::default()))
            .collect();
        OptimizerServer {
            quarantine: config
                .quarantine_after
                .map(|k| Arc::new(Quarantine::new(k))),
            eg,
            config,
            materializer,
            planner,
            stats,
            durability: None,
            repair_throttle: parking_lot::Mutex::new(None),
        }
    }

    /// Open a crash-safe server from a data directory: remove orphaned
    /// temp files, load the newest valid per-shard snapshots, replay the
    /// per-shard journals on top (truncating torn and uncommitted tails
    /// instead of failing), re-install the persisted quarantine set, and
    /// start journaling committed workloads. Returns the server and a
    /// [`RecoveryReport`] describing what recovery found and repaired.
    ///
    /// Recovery (`co_graph::shard::recover_shards`) reconstructs exactly
    /// the committed prefix: a journal record is skipped unless every
    /// shard its publish touched holds the record or covers it with a
    /// snapshot watermark, so a crash between two shards' appends rolls
    /// the whole publish back.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidStructure`] when the directory was written
    /// with a different shard count than `config.shards`, or holds a
    /// file of a retired layout (`eg.wal` / `eg.egsnap` / `eg.commit`);
    /// corruption and I/O errors from recovery.
    pub fn open(
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = &durability.dir;
        co_graph::vfs::create_dir_all(dir, None).map_err(|e| {
            GraphError::Io(format!(
                "cannot create data directory {}: {e}",
                dir.display()
            ))
        })?;
        // A crash mid-save leaves `*.tmp` files behind; an interrupted
        // save never touches the live snapshots or journals, so these
        // are safe to discard.
        let mut recovery = RecoveryReport {
            stray_tmp_removed: remove_stray_tmps(dir, None),
            ..RecoveryReport::default()
        };

        let n = config.shards.max(1);
        if let Some(found) = co_graph::fsck::detect_shard_layout(dir) {
            if found != n {
                return Err(GraphError::InvalidStructure(format!(
                    "data directory {} is sharded {found} way(s) but the server is \
                     configured for {n} shard(s)",
                    dir.display()
                )));
            }
        }
        let dedup = config.materializer == MaterializerKind::StorageAware;
        let rec = shard::recover_shards(dir, n, dedup)?;
        if !rec.unresolved_links.is_empty() {
            return Err(GraphError::InvalidStructure(format!(
                "recovery left {} child link(s) unresolved — \
                 the data directory is corrupt (run egfsck)",
                rec.unresolved_links.len()
            )));
        }
        for (path, valid_len, _) in &rec.torn {
            journal::truncate(path, *valid_len)?;
        }
        recovery.snapshot_loaded = (0..n).any(|k| dir.join(shard::shard_snapshot_file(k)).exists());
        recovery.journal_records_replayed = rec.deltas_applied;
        recovery.journal_records_skipped = rec.deltas_skipped;
        recovery.committed_publishes = rec.committed_publishes;
        recovery.torn_tail_truncated = !rec.torn.is_empty();
        recovery.torn_bytes_discarded = rec.torn.iter().map(|(.., b)| *b).sum();

        // In debug builds, fsck the recovered shards before serving from
        // them: recovery bugs surface here, not workloads later.
        #[cfg(debug_assertions)]
        {
            let refs: Vec<&ExperimentGraph> = rec.graphs.iter().collect();
            let fsck = co_graph::fsck::check_shards(&refs, &rec.quarantine);
            debug_assert!(fsck.is_clean(), "post-recovery fsck failed:\n{fsck}");
        }

        let journals = (0..n)
            .map(|k| {
                Journal::open(&dir.join(shard::shard_journal_file(k)), durability.fsync)
                    .map(parking_lot::Mutex::new)
            })
            .collect::<Result<Vec<_>>>()?;

        let mut server =
            OptimizerServer::build(config, ShardedEg::from_graphs(rec.graphs, rec.vault));
        if let Some(quarantine) = &server.quarantine {
            for q in &rec.quarantine {
                quarantine.restore(q.op_hash, &q.name, q.failures);
            }
            recovery.quarantine_restored = rec.quarantine.len();
        }
        server.durability = Some(Durability {
            config: durability,
            journals,
            persisted_quarantine: parking_lot::Mutex::new(
                rec.quarantine
                    .iter()
                    .map(|q| (q.op_hash, q.failures))
                    .collect(),
            ),
            health: AtomicU8::new(0),
            backlog: parking_lot::Mutex::new(Vec::new()),
            repair_attempts: AtomicUsize::new(0),
            seq: AtomicU64::new(rec.max_seq),
        });
        {
            let mut stats = server.stats[0].lock();
            stats.journal_records_replayed = recovery.journal_records_replayed;
            stats.torn_tail_truncated = rec.torn.len();
        }
        Ok((server, recovery))
    }

    /// The active configuration (`shards` normalized to ≥ 1).
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Run one workload end to end by composing the pipeline stages
    /// ([`plan_workload`] → [`PlannedWorkload::execute`] →
    /// [`publish_workload`]). Returns the executed DAG (terminal values
    /// populated) and the execution report.
    ///
    /// [`plan_workload`]: OptimizerServer::plan_workload
    /// [`publish_workload`]: OptimizerServer::publish_workload
    ///
    /// On failure the returned [`WorkloadError`] still carries the
    /// report and the taint mask, and the server has already *salvaged*
    /// the successfully computed prefix: untainted vertices are merged
    /// into the Experiment Graph and offered to the materializer, so a
    /// resubmission of the same (or an overlapping) workload reuses them
    /// instead of recomputing.
    pub fn run_workload(
        &self,
        dag: WorkloadDag,
    ) -> std::result::Result<(WorkloadDag, ExecutionReport), WorkloadError> {
        // Stage 1 (client, no lock): local pruning.
        let pruned = PrunedWorkload::new(dag)?;
        // Stage 2 (server, read lock): reuse planning + snapshot.
        let planned = self.plan_workload(pruned)?;
        // Stage 3 (client, lock-free): execution against the snapshot.
        let executed = planned.execute(&self.executor_config());
        // Stage 4 (server, one write-lock critical section): publish.
        self.publish_workload(executed)
    }

    /// The executor configuration derived from the server's.
    #[must_use]
    pub fn executor_config(&self) -> ExecutorConfig {
        ExecutorConfig {
            cost: self.config.cost,
            warmstart: self.config.warmstart,
            retry: self.config.retry,
            quarantine: self.quarantine.clone(),
        }
    }

    /// The executor configuration with a per-request time budget folded
    /// into the retry policy: the effective workload deadline is the
    /// tighter of the server's configured deadline and `remaining`. The
    /// service front-end (`co-serve`) uses this to propagate a client's
    /// request deadline into execution, so a slow workload cannot hold a
    /// worker thread past the client's budget.
    #[must_use]
    pub fn executor_config_with_deadline(
        &self,
        remaining: Option<std::time::Duration>,
    ) -> ExecutorConfig {
        let mut config = self.executor_config();
        config.retry.workload_deadline = match (config.retry.workload_deadline, remaining) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => b.or(a),
        };
        config
    }

    /// Pipeline stage 2 (paper step 3): plan reuse against the Experiment
    /// Graph and capture the execution snapshot — planned loads fetched
    /// up front as Arc clones, warmstart candidates prefetched. Every
    /// shard's read lock is held — a consistent cut — only for the
    /// duration of this call; the returned [`PlannedWorkload`] executes
    /// without touching the graph.
    pub fn plan_workload(
        &self,
        pruned: PrunedWorkload,
    ) -> std::result::Result<PlannedWorkload, WorkloadError> {
        let PrunedWorkload { dag } = pruned;
        let view = self.eg.view();
        let start = Instant::now();
        let plan = self.planner.plan(&dag, &view, &self.config.cost);
        let optimizer_seconds = start.elapsed().as_secs_f64();
        let snapshot = executor::snapshot(&dag, &plan, &view, &self.executor_config())
            .map_err(WorkloadError::from)?;
        Ok(PlannedWorkload {
            dag,
            snapshot,
            optimizer_seconds,
        })
    }

    /// Pipeline stage 4 (paper step 5): merge the executed DAG into the
    /// Experiment Graph, run the materializer, take the baseline-cost
    /// estimate, and fold the lifetime stats — all inside one short
    /// write-lock critical section, so a concurrent eviction, update or
    /// stats read cannot observe a half-published workload and writers
    /// never wait on a running computation. A failed run with a taint
    /// mask still merges (salvages) its untainted prefix.
    ///
    /// Only the shards the workload's artifacts hash to are
    /// write-locked, in ascending shard order (two publishers acquiring
    /// ordered subsets can never deadlock); each vertex merges into its
    /// owning shard and child links are wired on the parent's shard.
    ///
    /// On a durable server ([`OptimizerServer::open`]) each touched
    /// shard's journal receives its own delta under one shared sequence
    /// number and shard set inside the same critical section, and the
    /// publish becomes durable exactly when its last record lands. If
    /// persisting fails, the workload is reported failed, its delta
    /// joins the in-memory backlog and the durability layer turns
    /// read-only until repair drains it (DESIGN.md §10).
    pub fn publish_workload(
        &self,
        executed: ExecutedWorkload,
    ) -> std::result::Result<(WorkloadDag, ExecutionReport), WorkloadError> {
        let ExecutedWorkload {
            dag,
            mut report,
            failure,
        } = executed;
        let mut laps = Laps(Instant::now());
        // Degraded durability rejects the publish *before* the merge:
        // merging while read-only would put memory further ahead of
        // disk with no backlog entry to repair from.
        if let Some(error) = self.degraded_reject() {
            self.reject_publish(&report, failure.as_ref(), &error);
            report.publish_lock_wait_seconds = laps.lap();
            report.sum_publish_phases();
            return finish_publish(dag, report, failure, Some(error));
        }

        // Which nodes merge (None: all; full taint mask: the untainted
        // prefix; failed before execution — bad plan, no terminals —
        // nothing).
        let n_nodes = dag.n_nodes();
        let merged: Vec<bool> = match &failure {
            None => vec![true; n_nodes],
            Some(f) if f.tainted.len() == n_nodes => f.tainted.iter().map(|t| !t).collect(),
            Some(_) => vec![false; n_nodes],
        };
        // The mask must be ancestor-closed: child wiring below assumes
        // a kept node's parents are merged — and therefore locked.
        for (i, m) in merged.iter().enumerate() {
            if *m {
                for p in dag.parents(co_graph::NodeId(i)) {
                    if !merged[p.0] {
                        return Err(WorkloadError::from(GraphError::InvalidStructure(
                            "partial publish mask is not ancestor-closed".to_owned(),
                        )));
                    }
                }
            }
        }

        // Quarantine records live in shard 0's journal only, so a
        // pending quarantine diff pulls shard 0 into the lock set. The
        // diff is recomputed against this same snapshot inside the
        // critical section (under shard 0's lock).
        let durability = self.durability.as_ref();
        let mut current_quarantine = Vec::new();
        if let (Some(_), Some(q)) = (durability, &self.quarantine) {
            current_quarantine = q.entries();
            current_quarantine.sort_by_key(|(op, ..)| *op);
        }
        let quarantine_dirty = durability.is_some_and(|d| {
            quarantine_diff(&current_quarantine, &d.persisted_quarantine.lock()).is_some()
        });

        let mut touched: BTreeSet<usize> = dag
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| merged[*i])
            .map(|(_, node)| self.eg.shard_index(node.artifact))
            .collect();
        if quarantine_dirty {
            touched.insert(0);
        }

        let mut persist_error = None;
        if touched.is_empty() {
            // Failed before execution with nothing to salvage and no
            // quarantine change to persist: only the failure counters
            // move.
            report.publish_lock_wait_seconds = laps.lap();
            self.stats[0]
                .lock()
                .fold_publish(&report, 0.0, failure.as_ref(), false);
            report.publish_persist_seconds = laps.lap();
        } else {
            // Ordered-lock protocol: ascending shard indices, held
            // through merge, materialization and journaling.
            let shard_list: Vec<usize> = touched.into_iter().collect();
            let mut guards = self.eg.write_set(&shard_list);
            report.publish_lock_wait_seconds = laps.lap();
            // Shard index → position in `guards` (unlocked: usize::MAX).
            let mut pos = vec![usize::MAX; self.eg.n_shards()];
            for (gi, k) in shard_list.iter().enumerate() {
                pos[*k] = gi;
            }
            let guard_of = |id: ArtifactId| pos[self.eg.shard_index(id)];

            // With durability on, note per locked shard which merged
            // artifacts are new (vs merely touched) and the pre-publish
            // mat set, so the journal deltas can be diffed after the
            // merge. Skipped otherwise: the mat set alone is
            // O(materialized) per publish.
            let capture = durability.map(|_| {
                let mut capture: Vec<ShardCapture> = guards
                    .iter()
                    .map(|(_, g)| ShardCapture {
                        mat_before: mat_set(g),
                        ..ShardCapture::default()
                    })
                    .collect();
                let mut seen = HashSet::new();
                // DAG order is parents-first, so `new_ids` lists new
                // vertices in an order the journal can replay.
                for (i, node) in dag.nodes().iter().enumerate() {
                    if merged[i] && seen.insert(node.artifact) {
                        let gi = guard_of(node.artifact);
                        if guards[gi].1.contains(node.artifact) {
                            capture[gi].touched_ids.push(node.artifact);
                        } else {
                            capture[gi].new_ids.push(node.artifact);
                        }
                    }
                }
                capture
            });
            report.publish_capture_seconds = laps.lap();

            // Merge every kept node into its owning shard; child links
            // are wired on the parent's shard (locked, because the mask
            // is ancestor-closed).
            for (i, node) in dag.nodes().iter().enumerate() {
                if !merged[i] {
                    continue;
                }
                let inserted = guards[guard_of(node.artifact)]
                    .1
                    .merge_workload_node(&dag, i)?;
                if inserted {
                    for p in dag.parents(co_graph::NodeId(i)) {
                        let parent = dag.nodes()[p.0].artifact;
                        guards[guard_of(parent)]
                            .1
                            .add_child_link(parent, node.artifact)?;
                    }
                }
            }

            report.publish_merge_seconds = laps.lap();

            // Executed values merge back as Arc clones: the store and
            // the returned DAG share the same allocations.
            let available = available_contents(&dag);
            self.materialize(&mut guards, &pos, &dag, &merged, &available, &mut report);
            for (_, g) in &mut guards {
                reconcile_restored_flags(g);
            }
            let baseline = baseline_cost(&dag, |id| {
                let (_, g) = guards.get(guard_of(id))?;
                g.vertex(id).ok().map(|v| v.compute_time)
            });
            report.publish_materialize_seconds = laps.lap();

            if let (Some(dur), Some(capture)) = (durability, &capture) {
                persist_error = self
                    .persist(dur, &guards, capture, &current_quarantine, quarantine_dirty)
                    .err();
            }

            // Fold the stats while the shard locks are still held, so
            // stats() can never lag the graph.
            self.stats[shard_list[0]].lock().fold_publish(
                &report,
                baseline,
                failure.as_ref(),
                persist_error.is_some(),
            );
            report.publish_persist_seconds = laps.lap();
        }
        report.sum_publish_phases();

        // Threshold compaction runs after the publish locks are
        // released (parking_lot locks are not reentrant) and compacts
        // only the shards whose journal crossed the threshold. A failure
        // here is survivable — the deltas are already durable in the
        // journals and an interrupted snapshot save only leaves a temp
        // file — so it is swallowed and the next publish retries.
        if let (None, Some(dur)) = (&persist_error, durability) {
            let mut compacted = false;
            for k in 0..self.eg.n_shards() {
                if dur.journals[k].lock().len_bytes() > dur.config.compact_journal_bytes {
                    compacted |= self.compact_shard(dur, k).is_ok();
                }
            }
            if compacted {
                self.stats[0].lock().snapshots_compacted += 1;
            }
        }

        finish_publish(dag, report, failure, persist_error)
    }

    /// Materialization — the one step of a publish that depends on how
    /// much of the graph the publish holds. Records the materializer's
    /// work counters in `report`.
    ///
    /// A publish that holds the whole graph (one shard) runs the
    /// configured materializer exactly as the paper writes it
    /// (Algorithms 1–2, §5.3): utilities ranked over every candidate,
    /// admission and eviction against the budget. Debug builds check
    /// the outcome against the full-pass oracle.
    ///
    /// A publish that holds a subset cannot: the utility-ranked
    /// algorithms walk one whole graph under one lock, which a sharded
    /// publish deliberately avoids. Each budgeted materializer degrades
    /// to first-fit over the publishing workload's computed values,
    /// admitting a value only when a *lower bound* on global usage (the
    /// shared column vault plus every locked shard's local bytes) leaves
    /// room in the budget. `All` stores everything, `None` nothing —
    /// as they do on the whole graph.
    fn materialize(
        &self,
        guards: &mut [(usize, ShardWriteGuard<'_>)],
        pos: &[usize],
        dag: &WorkloadDag,
        merged: &[bool],
        available: &HashMap<ArtifactId, Value>,
        report: &mut ExecutionReport,
    ) {
        if self.eg.n_shards() == 1 {
            let eg = &mut *guards[0].1;
            #[cfg(debug_assertions)]
            let (oracle, expected) = {
                let oracle = materialize::oracle::FullPass::of(&self.config);
                let expected = oracle.expected(eg, available, &self.config.cost);
                (oracle, expected)
            };
            let read_before = eg.storage().bytes_read();
            self.materializer.run(eg, available, &self.config.cost);
            let work = eg.take_score_work();
            report.vertices_rescored = work.vertices_rescored;
            report.candidates_ranked = work.candidates_ranked;
            report.materializer_bytes_read = eg.storage().bytes_read() - read_before;
            // In debug builds, fsck the graph while still inside the
            // critical section: an invariant break is pinned to the
            // publication that introduced it. (A lone shard of several
            // legitimately holds child links into shards this publish
            // did not lock; those invariants are checked by `egfsck`,
            // recovery, and the crash-matrix tests.) Then check the
            // maintained scores, the candidate order and the chosen set
            // against a full recompute.
            #[cfg(debug_assertions)]
            {
                let fsck = co_graph::fsck::check_graph(eg);
                debug_assert!(fsck.is_clean(), "post-publish fsck failed:\n{fsck}");
                let wrong = oracle.check(eg, &expected, &self.config.cost);
                debug_assert!(
                    wrong.is_empty(),
                    "materializer disagrees with the full-pass oracle:\n{}",
                    wrong.join("\n")
                );
                // The check's own ranking is not the publish's work.
                eg.take_score_work();
            }
            return;
        }
        if self.config.materializer == MaterializerKind::None {
            return;
        }
        let unlimited = self.config.materializer == MaterializerKind::All;
        let mut seen = HashSet::new();
        // Deterministic DAG order, not hash-map order.
        for (i, node) in dag.nodes().iter().enumerate() {
            if !merged[i] || !seen.insert(node.artifact) {
                continue;
            }
            let Some(value) = available.get(&node.artifact) else {
                continue;
            };
            // Aggregates are never materialization candidates (they are
            // excluded from every materializer's utility pool).
            if matches!(value, Value::Aggregate(_)) {
                continue;
            }
            let gi = pos[self.eg.shard_index(node.artifact)];
            if guards[gi].1.storage().contains(node.artifact) {
                continue;
            }
            if !unlimited {
                let marginal = guards[gi].1.storage().marginal_bytes(value);
                // Lower bound on global usage: the shared vault plus every
                // locked shard's local bytes (unlocked shards' non-vault
                // bytes are invisible here — see DESIGN.md §10).
                let local: u64 = guards.iter().map(|(_, g)| g.storage().unique_bytes()).sum();
                let used = self.eg.vault().map_or(0, |v| v.unique_bytes()) + local;
                if used.saturating_add(marginal) > self.config.budget {
                    continue;
                }
            }
            guards[gi].1.storage_mut().store(node.artifact, value);
        }
    }

    /// Append this publish's per-shard journal deltas, each naming the
    /// publish's shard set. Called with the touched shards' write locks
    /// held (ascending); journal mutexes are taken in the same ascending
    /// order.
    fn persist(
        &self,
        dur: &Durability,
        guards: &[(usize, ShardWriteGuard<'_>)],
        capture: &[ShardCapture],
        current_quarantine: &[(OpHash, String, usize)],
        quarantine_dirty: bool,
    ) -> Result<()> {
        if dur.health() == DurabilityHealth::Wedged {
            return Err(GraphError::Io(WEDGED_MSG.to_owned()));
        }
        let mut deltas: Vec<EgDelta> = Vec::with_capacity(guards.len());
        for ((_, g), before) in guards.iter().zip(capture) {
            let mut delta = EgDelta::default();
            for id in &before.new_ids {
                delta.new_vertices.push(g.vertex(*id)?.clone());
            }
            for id in &before.touched_ids {
                delta.touched.push(VertexTouch::of(g.vertex(*id)?));
            }
            let mat_after = mat_set(g);
            delta.mat_added = mat_after.difference(&before.mat_before).copied().collect();
            delta.mat_removed = before.mat_before.difference(&mat_after).copied().collect();
            deltas.push(delta);
        }
        // Quarantine records are confined to shard 0. The diff is
        // recomputed against the pre-lock snapshot under the persisted
        // map's lock, which stays held until the last record lands so
        // the map only ever advances for durable publishes.
        let mut persisted = quarantine_dirty.then(|| dur.persisted_quarantine.lock());
        if let Some(persisted) = &persisted {
            if let Some((set, cleared)) = quarantine_diff(current_quarantine, persisted) {
                // quarantine_dirty pulled shard 0 into the (ascending)
                // lock set, so it is guards[0].
                debug_assert_eq!(guards[0].0, 0);
                deltas[0].quarantine_set = set;
                deltas[0].quarantine_cleared = cleared;
            }
        }

        // One sequence number per publish, assigned while every lock in
        // the ordered protocol is held: each shard journal's sequence
        // numbers appear in increasing order.
        let seq = dur.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let faults = guards[0].1.storage().fault_injector().map(Arc::clone);
        let mut pending: Vec<(usize, EgDelta)> = guards
            .iter()
            .zip(deltas)
            .filter(|(_, delta)| !delta.is_empty())
            .map(|((k, _), delta)| (*k, delta))
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        let shards: Vec<usize> = pending.iter().map(|(k, _)| *k).collect();
        for (_, delta) in &mut pending {
            delta.seq = seq;
            delta.shards.clone_from(&shards);
        }
        // The persisted-quarantine map this publish installs once it is
        // durable — either immediately below, or at backlog-drain time.
        let quarantine_target: Option<HashMap<OpHash, usize>> = persisted.is_some().then(|| {
            current_quarantine
                .iter()
                .map(|(op, _, f)| (*op, *f))
                .collect()
        });

        // A publish that raced past the entry gate while the layer was
        // already read-only goes straight to the backlog: its merge is
        // live in memory, and the (possibly damaged, possibly being
        // repaired) journals must not be touched from here.
        if dur.health() == DurabilityHealth::ReadOnly {
            persisted.take();
            return Err(dur.defer(seq, pending, quarantine_target));
        }

        let appended = pending
            .iter()
            .try_for_each(|(k, delta)| dur.journals[*k].lock().append(delta, faults.as_deref()));
        if appended.is_err() {
            persisted.take();
            return Err(dur.defer(seq, pending, quarantine_target));
        }
        if let (Some(persisted), Some(target)) = (&mut persisted, quarantine_target) {
            **persisted = target;
        }
        Ok(())
    }

    /// Compact durable state now: every shard in turn, each under its
    /// own write lock alone — snapshot it, then reset its journal — so
    /// publishes to the other shards proceed meanwhile. A no-op
    /// `Ok(())` on a server without durability; the read-only or
    /// wedged error when the layer is degraded.
    pub fn compact(&self) -> Result<()> {
        let Some(dur) = &self.durability else {
            return Ok(());
        };
        for k in 0..self.eg.n_shards() {
            self.compact_shard(dur, k)?;
        }
        self.stats[0].lock().snapshots_compacted += 1;
        Ok(())
    }

    /// Compact shard `k` under its write lock alone: check the layer is
    /// healthy, write the shard's snapshot (atomically; shard 0's
    /// carries the quarantine set) watermarked with the sequence
    /// counter, and reset its journal. Every publish that ever held `k`
    /// with a sequence number at or below the counter has finished —
    /// publishers hold their shard locks from seq assignment until
    /// their last record lands or the layer turns read-only — so the
    /// snapshot covers all of them. Health is checked under the lock,
    /// not before it: a publish that failed in between left its partial
    /// effect in memory, which the watermark must never cover. A crash
    /// between snapshot and reset leaves records the watermark already
    /// covers, which replay skips.
    fn compact_shard(&self, dur: &Durability, k: usize) -> Result<()> {
        let g = self.eg.write(k);
        match dur.health() {
            DurabilityHealth::Healthy => {}
            DurabilityHealth::ReadOnly => {
                return Err(GraphError::read_only(READ_ONLY_RETRY_HINT_MS))
            }
            DurabilityHealth::Wedged => return Err(GraphError::Io(WEDGED_MSG.to_owned())),
        }
        let watermark = dur.seq.load(Ordering::SeqCst);
        // Quarantine entries persist in shard 0 only.
        let entries = if k == 0 {
            sorted_quarantine_entries(self.quarantine.as_deref())
        } else {
            Vec::new()
        };
        let faults = g.storage().fault_injector().map(Arc::clone);
        snapshot::save_shard_with(
            &g,
            &entries,
            watermark,
            &dur.config.dir.join(shard::shard_snapshot_file(k)),
            faults.as_deref(),
        )?;
        dur.journals[k].lock().reset(faults.as_deref())?;
        if k == 0 {
            *dur.persisted_quarantine.lock() =
                entries.iter().map(|q| (q.op_hash, q.failures)).collect();
        }
        Ok(())
    }

    /// Graceful-drain hook: flush all durable state to disk — snapshot
    /// every shard and the quarantine set atomically and truncate the
    /// journals (exactly [`compact`]), so a post-drain data directory is
    /// a clean snapshot set. A no-op `Ok(())` without durability; an
    /// error if the durability layer is wedged or the snapshot fails.
    ///
    /// [`compact`]: OptimizerServer::compact
    pub fn flush_durable(&self) -> Result<()> {
        if self.durability_health() == DurabilityHealth::ReadOnly {
            // A drain is a deliberate moment to catch up: repair first
            // (counted), then compact from the repaired state.
            self.try_repair()?;
        }
        self.compact()
    }

    /// Current durability health. `Healthy` on a server without
    /// durability (nothing can be behind).
    #[must_use]
    pub fn durability_health(&self) -> DurabilityHealth {
        self.durability
            .as_ref()
            .map_or(DurabilityHealth::Healthy, Durability::health)
    }

    /// Whether durability is wedged — the terminal state after
    /// [`DurabilityConfig::max_repair_attempts`] consecutive failed
    /// repairs: every further persist refuses
    /// until the server restarts from its data directory.
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        self.durability_health() == DurabilityHealth::Wedged
    }

    /// Publish deltas queued in memory awaiting repair (0 when healthy).
    #[must_use]
    pub fn backlog_len(&self) -> usize {
        self.durability
            .as_ref()
            .map_or(0, |d| d.backlog.lock().len())
    }

    /// The publish-entry health gate: `None` lets the publish proceed.
    /// While read-only it first attempts a *throttled* opportunistic
    /// repair (at most one per [`READ_ONLY_RETRY_HINT_MS`], never
    /// counted toward the wedge limit), so a server whose disk has
    /// recovered heals itself on the next publish — no restart, no
    /// explicit operator action.
    fn degraded_reject(&self) -> Option<GraphError> {
        match self.durability_health() {
            DurabilityHealth::Healthy => None,
            DurabilityHealth::Wedged => Some(GraphError::Io(WEDGED_MSG.to_owned())),
            DurabilityHealth::ReadOnly => {
                self.maybe_repair();
                match self.durability_health() {
                    DurabilityHealth::Healthy => None,
                    DurabilityHealth::Wedged => Some(GraphError::Io(WEDGED_MSG.to_owned())),
                    DurabilityHealth::ReadOnly => {
                        Some(GraphError::read_only(READ_ONLY_RETRY_HINT_MS))
                    }
                }
            }
        }
    }

    /// Fold one rejected publish into the stats (the publish never
    /// reached the merge, so only the failure counters move).
    fn reject_publish(
        &self,
        report: &ExecutionReport,
        failure: Option<&FailedExecution>,
        error: &GraphError,
    ) {
        let mut stats = self.stats[0].lock();
        if matches!(error, GraphError::ReadOnly { .. }) {
            stats.publishes_rejected_readonly += 1;
        }
        stats.fold_publish(report, 0.0, failure, true);
    }

    /// Throttled, uncounted repair attempt (publish entry).
    fn maybe_repair(&self) {
        {
            let mut last = self.repair_throttle.lock();
            let ready = last.is_none_or(|t| {
                t.elapsed() >= std::time::Duration::from_millis(READ_ONLY_RETRY_HINT_MS)
            });
            if !ready {
                return;
            }
            *last = Some(Instant::now());
        }
        let _ = self.repair(false);
    }

    /// Attempt to return a read-only durability layer to `Healthy`:
    /// discard stray temp files, truncate torn tails, reopen every
    /// journal on a fresh handle, re-append the in-memory backlog in
    /// sequence order, and sync.
    ///
    /// Returns `Ok(true)` when a repair ran and the layer is healthy
    /// again, `Ok(false)` when there was nothing to repair (already
    /// healthy, or no durability). Each *failed* call counts toward
    /// [`DurabilityConfig::max_repair_attempts`]; at the limit the
    /// layer wedges permanently and this returns the wedged error.
    pub fn try_repair(&self) -> Result<bool> {
        self.repair(true)
    }

    /// Shared repair driver. `counted` distinguishes deliberate repair
    /// (explicit calls, the service front-end's background loop — these
    /// burn the wedge budget) from publish-entry opportunism (which
    /// must not: a publish storm during a long disk outage would wedge
    /// a server that was going to recover).
    fn repair(&self, counted: bool) -> Result<bool> {
        let Some(dur) = &self.durability else {
            return Ok(false);
        };
        let faults = {
            let g = self.eg.read(0);
            g.storage().fault_injector().map(Arc::clone)
        };
        // The backlog mutex is the repair critical section: it
        // serializes concurrent repairers and keeps the drain atomic
        // with respect to them. Publishers never take it while holding
        // journal or quarantine locks.
        let mut backlog = dur.backlog.lock();
        match dur.health() {
            DurabilityHealth::Healthy => return Ok(false),
            DurabilityHealth::Wedged => return Err(GraphError::Io(WEDGED_MSG.to_owned())),
            DurabilityHealth::ReadOnly => {}
        }
        self.stats[0].lock().repair_attempts += 1;
        match repair_logs(dur, &mut backlog, faults.as_deref()) {
            Ok(()) => {
                dur.set_health(DurabilityHealth::Healthy);
                dur.repair_attempts.store(0, Ordering::SeqCst);
                self.stats[0].lock().repairs_succeeded += 1;
                Ok(true)
            }
            Err(e) => {
                if counted {
                    let attempts = dur.repair_attempts.fetch_add(1, Ordering::SeqCst) + 1;
                    if attempts >= dur.config.max_repair_attempts {
                        dur.set_health(DurabilityHealth::Wedged);
                    }
                }
                Err(e)
            }
        }
    }

    /// Whether this server persists to a data directory.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Cumulative lifetime statistics (per-shard sub-counters summed).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for s in &self.stats {
            total.add(&s.lock());
        }
        total.durability_health = self.durability_health().as_u64();
        total
    }

    /// `EXPLAIN` for a workload: prune, plan against the current
    /// Experiment Graph, and render the decision table — without
    /// executing anything or touching the graph.
    pub fn explain(&self, mut dag: WorkloadDag) -> Result<String> {
        dag.prune()?;
        let view = self.eg.view();
        let plan = self.planner.plan(&dag, &view, &self.config.cost);
        Ok(crate::optimizer::explain_plan(
            &dag,
            &view,
            &self.config.cost,
            &plan,
        ))
    }

    /// Number of Experiment Graph lock shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.eg.n_shards()
    }

    /// The sharded Experiment Graph container — per-shard read/write
    /// access for offline tools, fsck sweeps and tests at any shard
    /// count.
    #[must_use]
    pub fn shards(&self) -> &ShardedEg {
        &self.eg
    }

    /// Nanoseconds publishers spent blocked on contended shard write
    /// locks, per shard (all zeros while uncontended: the fast path
    /// does not touch the clock).
    #[must_use]
    pub fn lock_wait_ns(&self) -> Vec<u64> {
        self.eg.lock_wait_ns()
    }

    /// Summary of storage state: (number of materialized artifacts,
    /// unique bytes held, logical bytes materialized), summed over every
    /// shard plus the shared column vault.
    #[must_use]
    pub fn storage_stats(&self) -> (usize, u64, u64) {
        let guards = self.eg.read_all();
        let n = guards.iter().map(|g| g.storage().n_artifacts()).sum();
        let unique = self.eg.vault().map_or(0, |v| v.unique_bytes())
            + guards
                .iter()
                .map(|g| g.storage().unique_bytes())
                .sum::<u64>();
        let logical = guards.iter().map(|g| g.storage().logical_bytes()).sum();
        (n, unique, logical)
    }

    /// Install a deterministic fault injector on every shard's artifact
    /// store for tests and chaos drills; see
    /// `co_graph::faults`.
    pub fn set_fault_injector(&self, faults: Arc<FaultInjector>) {
        self.eg.set_fault_injector(&faults);
    }

    /// Evict one artifact's content from the store (returns bytes
    /// freed). Reuse plans drawn before the eviction degrade to
    /// recomputation via the executor's load-miss fallback. On a durable
    /// server the mat-flag change is journaled like a one-shard
    /// publish, so a restart does not resurrect the flag.
    pub fn evict_artifact(&self, id: ArtifactId) -> u64 {
        let k = self.eg.shard_index(id);
        let mut eg = self.eg.write(k);
        let bytes = eg.storage_mut().evict(id);
        let was_restored = eg.unmark_restored_materialized(id);
        if bytes == 0 && !was_restored {
            return bytes;
        }
        let Some(dur) = &self.durability else {
            return bytes;
        };
        let faults = eg.storage().fault_injector().map(Arc::clone);
        // A wedged layer drops the record: the restart that un-wedges
        // it resurrects the mat flag and the next access re-evicts —
        // consistent, cheap.
        if dur.health() == DurabilityHealth::Wedged {
            return bytes;
        }
        let seq = dur.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let delta = EgDelta {
            seq,
            shards: vec![k],
            mat_removed: vec![id],
            ..EgDelta::default()
        };
        // A read-only layer queues the record without touching the journal.
        let appended = dur.health() == DurabilityHealth::Healthy
            && dur.journals[k]
                .lock()
                .append(&delta, faults.as_deref())
                .is_ok();
        if !appended {
            let _ = dur.defer(seq, vec![(k, delta)], None);
        }
        bytes
    }

    /// The server's quarantine registry, if quarantining is enabled.
    #[must_use]
    pub fn quarantine(&self) -> Option<&Arc<Quarantine>> {
        self.quarantine.as_ref()
    }
}

/// Consecutive phase timer: each lap is the time since the previous one.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let seconds = now.duration_since(self.0).as_secs_f64();
        self.0 = now;
        seconds
    }
}

/// Tail of every publish (accepted or rejected): translate (failure, persist
/// failure) into the client-visible result, preserving error precedence
/// (the workload's own error wins; a persist failure alone reports the
/// run failed because a restart would forget it).
fn finish_publish(
    dag: WorkloadDag,
    mut report: ExecutionReport,
    failure: Option<FailedExecution>,
    persist_error: Option<GraphError>,
) -> std::result::Result<(WorkloadDag, ExecutionReport), WorkloadError> {
    match failure {
        None => match persist_error {
            None => Ok((dag, report)),
            // The run computed fine but its delta never became
            // durable: report it failed so the client knows a
            // restart would forget this workload.
            Some(error) => Err(WorkloadError {
                error,
                report: Box::new(report),
                completed: Vec::new(),
                tainted: Vec::new(),
            }),
        },
        Some(FailedExecution {
            error,
            completed,
            tainted,
        }) => {
            // When both the workload and persistence failed, the
            // workload's own error wins; the persist failure is
            // still visible through the read-only durability state.
            report.salvaged_artifacts = completed.len();
            Err(WorkloadError {
                error,
                report: Box::new(report),
                completed,
                tainted,
            })
        }
    }
}

/// Best-effort sweep of stray `.tmp` files (interrupted atomic
/// snapshot saves) from a data directory; returns how many it removed.
/// Losing the sweep to an I/O error is harmless — recovery ignores temp
/// files anyway.
fn remove_stray_tmps(dir: &Path, faults: Option<&FaultInjector>) -> usize {
    let Ok(entries) = co_graph::vfs::read_dir_sorted(dir, faults) else {
        return 0;
    };
    entries
        .iter()
        .filter(|path| {
            path.to_string_lossy().ends_with(".tmp")
                && co_graph::vfs::remove_file(path, faults).is_ok()
        })
        .count()
}

/// One repair pass over the durability layer (the backlog mutex is held
/// by the caller — it is the repair critical section): sweep stray temp
/// files, truncate any torn tail the failed write left, reopen every
/// journal on a fresh handle (a failed fsync poisons the old one —
/// fsyncgate — so the *handle itself* must be replaced), then drain the
/// backlog in publish (sequence) order — entries can arrive out of
/// order under concurrent failing publishers — and sync. A failure
/// part-way is safe: the drained prefix is durable, the rest stays
/// backlogged, and the records a partly drained entry left are an
/// uncommitted journal tail until the entry re-appends in full next
/// pass — journal replay is idempotent, so the duplicates are harmless.
fn repair_logs(
    dur: &Durability,
    backlog: &mut Vec<Backlog>,
    faults: Option<&FaultInjector>,
) -> Result<()> {
    let dir = &dur.config.dir;
    remove_stray_tmps(dir, faults);
    for (k, slot) in dur.journals.iter().enumerate() {
        let path = dir.join(shard::shard_journal_file(k));
        let mut journal = slot.lock();
        if let Some(valid_len) = journal::replay_with(&path, k, faults)?.torn_at {
            journal::truncate_with(&path, valid_len, faults)?;
        }
        *journal = Journal::open_with(&path, dur.config.fsync, faults)?;
    }
    backlog.sort_by_key(|e| e.seq);
    while !backlog.is_empty() {
        for (k, delta) in &backlog[0].deltas {
            dur.journals[*k].lock().append(delta, faults)?;
        }
        let entry = backlog.remove(0);
        if let Some(q) = entry.quarantine {
            *dur.persisted_quarantine.lock() = q;
        }
    }
    dur.journals
        .iter()
        .try_for_each(|slot| slot.lock().sync(faults))
}

/// What a durable publish notes per locked shard *before* merging, so
/// the shard's journal delta can be diffed afterwards: which merged
/// artifacts are new to the shard vs merely touched, and the
/// pre-publish mat set.
#[derive(Default)]
struct ShardCapture {
    new_ids: Vec<ArtifactId>,
    touched_ids: Vec<ArtifactId>,
    mat_before: BTreeSet<ArtifactId>,
}

/// Diff the live quarantine snapshot against the last persisted map:
/// `Some((set, cleared))` when any entry changed or vanished, `None`
/// when the persisted state is already current.
fn quarantine_diff(
    current: &[(OpHash, String, usize)],
    persisted: &HashMap<OpHash, usize>,
) -> Option<(Vec<QuarantineEntry>, Vec<OpHash>)> {
    let mut set = Vec::new();
    for (op, name, failures) in current {
        if persisted.get(op) != Some(failures) {
            set.push(QuarantineEntry {
                op_hash: *op,
                name: name.clone(),
                failures: *failures,
            });
        }
    }
    let current_ops: HashSet<OpHash> = current.iter().map(|(op, ..)| *op).collect();
    let mut cleared: Vec<OpHash> = persisted
        .keys()
        .filter(|op| !current_ops.contains(op))
        .copied()
        .collect();
    cleared.sort_unstable();
    if set.is_empty() && cleared.is_empty() {
        None
    } else {
        Some((set, cleared))
    }
}

/// The live quarantine set as sorted snapshot entries.
fn sorted_quarantine_entries(quarantine: Option<&Quarantine>) -> Vec<QuarantineEntry> {
    let mut entries: Vec<QuarantineEntry> = quarantine
        .map(|q| q.entries())
        .unwrap_or_default()
        .into_iter()
        .map(|(op_hash, name, failures)| QuarantineEntry {
            op_hash,
            name,
            failures,
        })
        .collect();
    entries.sort_by_key(|q| q.op_hash);
    entries
}

/// The persisted mat set: artifacts holding content plus restored mat
/// flags whose content has not repopulated yet.
fn mat_set(eg: &ExperimentGraph) -> BTreeSet<ArtifactId> {
    let mut set: BTreeSet<ArtifactId> = eg.storage().materialized_ids().into_iter().collect();
    set.extend(eg.restored_materialized().iter().copied());
    set
}

/// Restored mat flags whose content has arrived hand ownership of the
/// flag back to the store (so a later store-side eviction is visible to
/// `was_materialized`).
fn reconcile_restored_flags(eg: &mut ExperimentGraph) {
    let arrived: Vec<ArtifactId> = eg
        .restored_materialized()
        .iter()
        .copied()
        .filter(|id| eg.storage().contains(*id))
        .collect();
    for id in arrived {
        eg.unmark_restored_materialized(id);
    }
}

/// Contents produced by an executed workload, keyed by artifact. Values
/// are Arc-backed, so offering every computed dataframe to the
/// materializer costs a pointer bump per artifact, not a deep copy.
fn available_contents(dag: &WorkloadDag) -> HashMap<ArtifactId, Value> {
    dag.nodes()
        .iter()
        .filter_map(|n| n.computed.as_ref().map(|v| (n.artifact, v.clone())))
        .collect()
}

/// Estimate what this submission would have cost with no reuse at all —
/// the sum of recorded compute times over every (distinct) node the
/// terminals require, resolved through `lookup` across the publish's
/// locked shards. Called inside the publish critical section so the
/// graph cannot change under the walk.
fn baseline_cost(dag: &WorkloadDag, lookup: impl Fn(ArtifactId) -> Option<f64>) -> f64 {
    let mut baseline = 0.0;
    let mut visited = vec![false; dag.n_nodes()];
    let mut stack: Vec<usize> = dag.terminals().iter().map(|t| t.0).collect();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut visited[i], true) {
            continue;
        }
        let node = &dag.nodes()[i];
        baseline += node
            .compute_time
            .or_else(|| lookup(node.artifact))
            .unwrap_or(0.0);
        stack.extend(dag.parents(co_graph::NodeId(i)).iter().map(|p| p.0));
    }
    baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Script;
    use co_dataframe::ops::{MapFn, Predicate};
    use co_dataframe::{Column, ColumnData, DataFrame};
    use co_graph::GraphQuery;
    use co_ml::linear::LogisticParams;

    fn frame() -> DataFrame {
        let n = 4000;
        DataFrame::new(vec![
            Column::source("t", "x", ColumnData::Float((0..n).map(f64::from).collect())),
            Column::source(
                "t",
                "y",
                ColumnData::Int((0..n).map(|i| i64::from(i >= n / 2)).collect()),
            ),
        ])
        .unwrap()
    }

    fn workload() -> WorkloadDag {
        let mut s = Script::new();
        let data = s.load("t", frame());
        let f = s.filter(data, Predicate::gt_f("x", 100.0)).unwrap();
        let m = s.map(f, "x", MapFn::Log1p, "lx").unwrap();
        let model = s.train_logistic(m, "y", LogisticParams::default()).unwrap();
        s.output(model).unwrap();
        s.into_dag()
    }

    #[test]
    fn repeated_workload_is_loaded_not_recomputed() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        let (_, first) = server.run_workload(workload()).unwrap();
        assert!(first.ops_executed > 0);
        assert_eq!(first.artifacts_loaded, 0);

        let (_, second) = server.run_workload(workload()).unwrap();
        // The second run loads the terminal (or an ancestor) instead of
        // re-training.
        assert!(second.artifacts_loaded >= 1);
        assert!(second.ops_executed < first.ops_executed);
        assert!(second.run_seconds() < first.run_seconds());
    }

    #[test]
    fn republishing_a_loaded_workload_rescores_nothing() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        let (_, first) = server.run_workload(workload()).unwrap();
        let n = server.shards().view().n_vertices() as u64;
        // The first ranking of a graph is the one full pass.
        assert_eq!(first.vertices_rescored, n);
        assert!(first.candidates_ranked >= 1);

        let (_, second) = server.run_workload(workload()).unwrap();
        assert_eq!(second.ops_executed, 0);
        // Every node was loaded or skipped: no t, s or q changed, so no
        // score moved, yet the pool is still ranked.
        assert_eq!(second.vertices_rescored, 0);
        assert_eq!(second.candidates_ranked, first.candidates_ranked);
        assert_eq!(first.materializer_bytes_read, 0);
        assert_eq!(second.materializer_bytes_read, 0);
        // The phases partition the publish section.
        let phases = second.publish_lock_wait_seconds
            + second.publish_capture_seconds
            + second.publish_merge_seconds
            + second.publish_materialize_seconds
            + second.publish_persist_seconds;
        assert_eq!(second.materializer_seconds, phases);
        assert!(second.publish_materialize_seconds > 0.0);
    }

    #[test]
    fn baseline_never_reuses() {
        let server = OptimizerServer::new(ServerConfig::baseline());
        let (_, first) = server.run_workload(workload()).unwrap();
        let (_, second) = server.run_workload(workload()).unwrap();
        assert_eq!(second.artifacts_loaded, 0);
        assert_eq!(second.ops_executed, first.ops_executed);
        // Only sources are stored.
        let (n, ..) = server.storage_stats();
        assert_eq!(n, 1);
    }

    #[test]
    fn modified_workload_reuses_shared_prefix() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        server.run_workload(workload()).unwrap();

        // Same feature pipeline, different hyperparameters.
        let mut s = Script::new();
        let data = s.load("t", frame());
        let f = s.filter(data, Predicate::gt_f("x", 100.0)).unwrap();
        let m = s.map(f, "x", MapFn::Log1p, "lx").unwrap();
        let model = s
            .train_logistic(
                m,
                "y",
                LogisticParams {
                    lr: 0.9,
                    ..LogisticParams::default()
                },
            )
            .unwrap();
        s.output(model).unwrap();

        let (_, report) = server.run_workload(s.into_dag()).unwrap();
        // The feature frame is loaded; only the new training op runs.
        assert_eq!(report.ops_executed, 1);
        assert!(report.artifacts_loaded >= 1);
    }

    #[test]
    fn helix_configuration_runs_end_to_end() {
        let server = OptimizerServer::new(ServerConfig::helix(u64::MAX));
        let (_, first) = server.run_workload(workload()).unwrap();
        let (_, second) = server.run_workload(workload()).unwrap();
        assert!(second.run_seconds() <= first.run_seconds());
        assert!(second.artifacts_loaded >= 1);
    }

    #[test]
    fn concurrent_sessions_share_the_graph() {
        let server = Arc::new(OptimizerServer::new(ServerConfig::collaborative(u64::MAX)));
        crossbeam::thread::scope(|scope| {
            for _ in 0..4 {
                let server = Arc::clone(&server);
                scope.spawn(move |_| {
                    let (_, report) = server.run_workload(workload()).unwrap();
                    assert!(report.run_seconds() > 0.0);
                });
            }
        })
        .unwrap();
        // All four sessions converged onto one set of artifacts.
        let view = server.shards().view();
        let dag = workload();
        for node in dag.nodes() {
            assert!(view.lookup(node.artifact).is_some());
        }
    }

    #[test]
    fn sharded_server_reuses_across_shards() {
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = 4;
        let server = OptimizerServer::new(config);
        assert_eq!(server.n_shards(), 4);
        let (_, first) = server.run_workload(workload()).unwrap();
        assert!(first.ops_executed > 0);
        let (_, second) = server.run_workload(workload()).unwrap();
        assert!(second.artifacts_loaded >= 1);
        assert!(second.ops_executed < first.ops_executed);
        // Every workload vertex landed on its owning shard.
        let dag = workload();
        let guards = server.shards().read_all();
        for node in dag.nodes() {
            let k = server.shards().shard_index(node.artifact);
            assert!(guards[k].contains(node.artifact));
        }
        // Stats fold across per-shard sub-counters.
        let stats = server.stats();
        assert_eq!(stats.workloads, 2);
    }

    #[test]
    fn sharded_concurrent_sessions_share_the_graph() {
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = 8;
        let server = Arc::new(OptimizerServer::new(config));
        crossbeam::thread::scope(|scope| {
            for _ in 0..4 {
                let server = Arc::clone(&server);
                scope.spawn(move |_| {
                    let (_, report) = server.run_workload(workload()).unwrap();
                    assert!(report.run_seconds() > 0.0);
                });
            }
        })
        .unwrap();
        let dag = workload();
        let guards = server.shards().read_all();
        for node in dag.nodes() {
            let k = server.shards().shard_index(node.artifact);
            assert!(guards[k].contains(node.artifact));
        }
        assert_eq!(server.stats().workloads, 4);
    }

    #[test]
    fn lifetime_stats_accumulate_and_estimate_savings() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        server.run_workload(workload()).unwrap();
        server.run_workload(workload()).unwrap();
        let stats = server.stats();
        assert_eq!(stats.workloads, 2);
        assert!(stats.artifacts_loaded >= 1);
        assert!(stats.run_seconds > 0.0);
        // The second (fully reused) run makes the baseline exceed actual.
        assert!(
            stats.seconds_saved() > 0.0,
            "baseline {} vs actual {}",
            stats.baseline_seconds,
            stats.run_seconds
        );
        // A no-reuse server saves nothing (up to timing noise: its
        // baseline equals what it actually did).
        let kg = OptimizerServer::new(ServerConfig::baseline());
        kg.run_workload(workload()).unwrap();
        let kg_stats = kg.stats();
        assert_eq!(kg_stats.workloads, 1);
        assert!(kg_stats.seconds_saved() < kg_stats.run_seconds * 0.5);
    }

    #[test]
    fn stats_add_sums_every_counter_and_keeps_the_worst_health() {
        let a = ServerStats {
            workloads: 1,
            ops_executed: 2,
            artifacts_loaded: 3,
            warmstarts: 4,
            run_seconds: 0.5,
            baseline_seconds: 1.5,
            failed_workloads: 5,
            salvaged_artifacts: 6,
            journal_records_replayed: 7,
            torn_tail_truncated: 12,
            snapshots_compacted: 8,
            durability_health: DurabilityHealth::ReadOnly.as_u64(),
            repair_attempts: 9,
            repairs_succeeded: 10,
            publishes_rejected_readonly: 11,
        };
        let mut sum = ServerStats {
            durability_health: DurabilityHealth::Healthy.as_u64(),
            ..a
        };
        sum.add(&a);
        assert_eq!(
            sum,
            ServerStats {
                workloads: 2,
                ops_executed: 4,
                artifacts_loaded: 6,
                warmstarts: 8,
                run_seconds: 1.0,
                baseline_seconds: 3.0,
                failed_workloads: 10,
                salvaged_artifacts: 12,
                journal_records_replayed: 14,
                torn_tail_truncated: 24,
                snapshots_compacted: 16,
                durability_health: DurabilityHealth::ReadOnly.as_u64(),
                repair_attempts: 18,
                repairs_succeeded: 20,
                publishes_rejected_readonly: 22,
            }
        );
    }

    #[test]
    fn durability_config_new_has_the_documented_defaults() {
        let config = DurabilityConfig::new("data");
        assert_eq!(config.dir, PathBuf::from("data"));
        assert_eq!(config.fsync, FsyncPolicy::Always);
        assert_eq!(config.compact_journal_bytes, 4 * 1024 * 1024);
        assert_eq!(config.max_repair_attempts, 8);
    }

    #[test]
    fn explain_renders_decisions_without_executing() {
        let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
        // Cold graph: everything computes.
        let text = server.explain(workload()).unwrap();
        assert!(text.contains("compute"));
        assert!(!text.contains("LOAD"));
        assert!(text.contains("train_logistic"));
        // Explain must not have executed or stored anything.
        let (n, ..) = server.storage_stats();
        assert_eq!(n, 0);

        server.run_workload(workload()).unwrap();
        let text = server.explain(workload()).unwrap();
        assert!(text.contains("LOAD"), "after a run the plan loads:\n{text}");
    }

    #[test]
    fn warmstart_counts_are_reported() {
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.warmstart = true;
        let server = OptimizerServer::new(config);
        server.run_workload(workload()).unwrap();

        // Different hyperparameters: exact reuse impossible, warmstart
        // candidate exists.
        let mut s = Script::new();
        let data = s.load("t", frame());
        let f = s.filter(data, Predicate::gt_f("x", 100.0)).unwrap();
        let m = s.map(f, "x", MapFn::Log1p, "lx").unwrap();
        let model = s
            .train_logistic(
                m,
                "y",
                LogisticParams {
                    max_iter: 50,
                    ..LogisticParams::default()
                },
            )
            .unwrap();
        s.output(model).unwrap();
        let (_, report) = server.run_workload(s.into_dag()).unwrap();
        assert_eq!(report.warmstarts, 1);
    }
}
