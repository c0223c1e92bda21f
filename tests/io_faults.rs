//! Storage I/O fault injection: graded degradation and self-healing.
//!
//! Where the crash matrix (`crash_recovery.rs`) simulates a *dead
//! process* — every I/O from the cut on fails and a restart recovers
//! the committed prefix — this suite simulates a *live process on a sick
//! disk*: ENOSPC, failed fsyncs (with fsyncgate handle poisoning), and
//! short writes. The server must degrade to read-only (reads, reuse and
//! warm-starts keep serving; publishes are rejected retriably), queue
//! the unpersisted deltas, and heal itself — no restart — once the
//! faults clear, and cap the repair attempts that may fail before the
//! layer wedges. An eviction's journal record follows the same rules.

#[path = "support/mod.rs"]
mod support;

use co_core::{DurabilityConfig, DurabilityHealth, OptimizerServer, ServerConfig};
use co_graph::{ArtifactId, FaultInjector, FsyncPolicy, GraphError, IoFault};
use std::path::PathBuf;
use std::sync::Arc;
use support::{assert_fsck_clean, data_dir, dir_bytes, fingerprint, workload};

fn open(config: ServerConfig, dir: &PathBuf) -> OptimizerServer {
    OptimizerServer::open(config, DurabilityConfig::new(dir))
        .unwrap()
        .0
}

// ---------------------------------------------------------------------
// Graded degradation: ReadOnly instead of wedge, self-heal, wedge cap
// ---------------------------------------------------------------------

#[test]
fn failed_fsync_degrades_to_read_only_then_self_heals_without_restart() {
    let dir = data_dir("io_fsync_heal");
    let config = ServerConfig::collaborative(u64::MAX);
    let server = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    server.run_workload(workload("tail_one")).unwrap();
    assert_eq!(server.durability_health(), DurabilityHealth::Healthy);

    // The disk "goes bad": every fsync fails until further notice.
    // fsyncgate semantics: the failed fsync poisons the journal handle,
    // so even later writes through it fail until repair reopens it.
    faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
    let err = server.run_workload(workload("tail_two")).unwrap_err();
    assert!(
        matches!(err.error, GraphError::ReadOnly { retry_after_ms } if retry_after_ms > 0),
        "{err}"
    );
    assert!(err.error.is_transient(), "read-only must invite a retry");
    assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);
    assert!(!server.is_wedged(), "a live I/O failure must not wedge");
    assert_eq!(server.backlog_len(), 1, "the failed delta is queued");

    // Still read-only: further publishes are rejected at the gate (and
    // counted), but reads and planning still serve.
    let err = server.run_workload(workload("tail_three")).unwrap_err();
    assert!(err.error.is_transient(), "{err}");
    assert!(server.stats().publishes_rejected_readonly >= 1);
    server.explain(workload("tail_two")).unwrap();

    // The disk "comes back": one explicit repair attempt heals the
    // layer — torn tail truncated, journal reopened on a fresh handle,
    // backlog re-appended — and publishes flow again. No restart.
    faults.clear_io_faults();
    assert!(server.try_repair().unwrap(), "repair should run and heal");
    assert_eq!(server.durability_health(), DurabilityHealth::Healthy);
    assert_eq!(server.backlog_len(), 0);
    assert!(server.stats().repairs_succeeded >= 1);
    server.run_workload(workload("tail_three")).unwrap();

    // Disk now agrees with memory: a reopen sees tail_one (committed
    // before the outage), tail_two (healed from the backlog), and
    // tail_three (published after recovery).
    let live = fingerprint(&server);
    drop(server);
    let reopened = open(config, &dir);
    assert_eq!(fingerprint(&reopened), live);
    assert_fsck_clean(&reopened, &dir);
}

/// `FsyncPolicy` governs every journal of the data directory. Under
/// `Never` a publish touches no fsync at all, so a disk whose fsync
/// fails forever goes unnoticed; under `Always` the very same fault
/// degrades the first publish to read-only (the flush that makes data
/// durable is still there).
#[test]
fn every_log_obeys_the_fsync_policy() {
    for shards in [8, 1] {
        for policy in [FsyncPolicy::Never, FsyncPolicy::Always] {
            let dir = data_dir(&format!("io_fsync_policy_{shards}_{policy:?}"));
            let mut config = ServerConfig::collaborative(u64::MAX);
            config.shards = shards;
            let mut durability = DurabilityConfig::new(&dir);
            durability.fsync = policy;
            // `open` syncs each fresh log's magic regardless of policy,
            // so the fault is armed only afterwards.
            let (server, _) = OptimizerServer::open(config, durability.clone()).unwrap();
            let faults = Arc::new(FaultInjector::new());
            server.set_fault_injector(Arc::clone(&faults));
            faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);

            if policy == FsyncPolicy::Always {
                let err = server.run_workload(workload("tail_0")).unwrap_err();
                assert!(matches!(err.error, GraphError::ReadOnly { .. }), "{err}");
                assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);
                assert!(faults.io_faults_fired() >= 1);
                continue;
            }
            // 20 small publishes stay far below the compaction
            // threshold (compaction syncs by design).
            for i in 0..20 {
                server.run_workload(workload(&format!("tail_{i}"))).unwrap();
            }
            assert_eq!(faults.io_faults_fired(), 0, "shards = {shards}");
            assert_eq!(server.durability_health(), DurabilityHealth::Healthy);
            assert_eq!(server.backlog_len(), 0);
            let live = fingerprint(&server);
            drop(server);
            let (reopened, recovery) = OptimizerServer::open(config, durability).unwrap();
            assert_eq!(recovery.committed_publishes, 20);
            assert_eq!(fingerprint(&reopened), live);
            assert_fsck_clean(&reopened, &dir);
        }
    }
}

#[test]
fn enospc_on_journal_append_keeps_exactly_the_committed_prefix_on_reopen() {
    let dir = data_dir("io_enospc_reopen");
    let config = ServerConfig::collaborative(u64::MAX);
    let server = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    server.run_workload(workload("tail_one")).unwrap();
    let committed = fingerprint(&server);

    // Disk full, and it never recovers in this process's lifetime: the
    // failed publish is rejected retriably, its delta queued in memory.
    faults.arm_io_fault(IoFault::Enospc, usize::MAX);
    let err = server.run_workload(workload("tail_two")).unwrap_err();
    assert!(err.error.is_transient(), "{err}");
    assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);

    // "Power cycle" with the fault still present: the reopened
    // directory holds exactly the pre-outage committed prefix — the
    // short write the ENOSPC produced must have been truncated away.
    drop(server);
    let reopened = open(config, &dir);
    assert_eq!(fingerprint(&reopened), committed);
    reopened.run_workload(workload("tail_two")).unwrap();
    assert_fsck_clean(&reopened, &dir);
}

#[test]
fn short_write_mid_compaction_preserves_the_committed_prefix() {
    let dir = data_dir("io_enospc_compact");
    let config = ServerConfig::collaborative(u64::MAX);
    let server = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    server.run_workload(workload("tail_one")).unwrap();
    server.compact().unwrap();
    server.run_workload(workload("tail_two")).unwrap();
    let committed = fingerprint(&server);

    // ENOSPC mid-compaction: the snapshot temp file dies before the
    // rename, so the live snapshot + journal are untouched.
    faults.arm_io_fault(IoFault::Enospc, usize::MAX);
    let err = server.compact().unwrap_err();
    assert!(err.to_string().contains("enospc"), "{err}");

    // A short write mid-compaction behaves the same way.
    faults.clear_io_faults();
    faults.arm_io_fault(IoFault::ShortWrite, 1);
    let err = server.compact().unwrap_err();
    assert!(err.to_string().contains("short-write"), "{err}");

    // Back on a good disk: compaction succeeds and nothing was lost
    // (the interrupted saves only ever touched the temp file).
    faults.clear_io_faults();
    if server.durability_health() == DurabilityHealth::ReadOnly {
        server.try_repair().unwrap();
    }
    server.compact().unwrap();
    assert_eq!(fingerprint(&server), committed);
    drop(server);
    let reopened = open(config, &dir);
    assert_eq!(fingerprint(&reopened), committed);
    assert_fsck_clean(&reopened, &dir);
}

/// Compaction checks health under the shard lock and writes nothing
/// while the layer is read-only: the failed publish's merge is live in
/// memory but not on disk, and a snapshot would make it durable behind
/// the backlog's back — partially, beside journals that never got it.
#[test]
fn compaction_writes_no_snapshot_while_read_only() {
    for shards in [1, 8] {
        let dir = data_dir(&format!("io_compact_read_only_{shards}"));
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = shards;
        let server = open(config, &dir);
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));
        server.run_workload(workload("tail_one")).unwrap();

        // One failed append, then a healthy disk: only the layer's
        // health stands between compaction and the snapshot files.
        faults.arm_io_fault(IoFault::Enospc, 1);
        server.run_workload(workload("tail_two")).unwrap_err();
        assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);
        let files = dir_bytes(&dir);
        let err = server.compact().unwrap_err();
        assert!(matches!(err, GraphError::ReadOnly { .. }), "{err}");
        assert_eq!(dir_bytes(&dir), files, "shards = {shards}");
        assert_eq!(server.stats().snapshots_compacted, 0);

        // Repair drains the backlog; then compaction runs.
        assert!(server.try_repair().unwrap());
        server.compact().unwrap();
        let live = fingerprint(&server);
        drop(server);
        let reopened = open(config, &dir);
        assert_eq!(fingerprint(&reopened), live);
        assert_fsck_clean(&reopened, &dir);
    }
}

/// Repair's stray-tmp sweep goes through the injector like every other
/// durability file operation after open: while every write fails, the
/// temp file an interrupted compaction left stays where it is, and the
/// sweep only removes it once the disk is back.
#[test]
fn repair_sweep_is_subject_to_injected_faults() {
    let dir = data_dir("io_sweep_faults");
    let config = ServerConfig::collaborative(u64::MAX);
    let server = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));
    server.run_workload(workload("tail_one")).unwrap();

    faults.arm_io_fault(IoFault::WriteErr, usize::MAX);
    server.compact().unwrap_err();
    let tmp = dir.join("eg-0.egsnap.tmp");
    assert!(tmp.exists(), "the failed save created its temp file");
    // The first publish fails to append and turns the layer read-only;
    // the second runs the opportunistic repair, whose sweep must fail
    // like every other write.
    for tail in ["tail_two", "tail_three"] {
        let err = server.run_workload(workload(tail)).unwrap_err();
        assert!(err.error.is_transient(), "{err}");
    }
    assert!(server.stats().repair_attempts >= 1);
    assert!(tmp.exists(), "a failing disk removed the temp file");

    faults.clear_io_faults();
    assert!(server.try_repair().unwrap());
    assert!(!tmp.exists(), "repair on a good disk sweeps the temp file");
    let live = fingerprint(&server);
    drop(server);
    let reopened = open(config, &dir);
    assert_eq!(fingerprint(&reopened), live);
    assert_fsck_clean(&reopened, &dir);
}

#[test]
fn repeated_failed_repairs_wedge_permanently() {
    let dir = data_dir("io_wedge_cap");
    let config = ServerConfig::collaborative(u64::MAX);
    let mut durability = DurabilityConfig::new(&dir);
    durability.max_repair_attempts = 3;
    let (server, _) = OptimizerServer::open(config, durability).unwrap();
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    server.run_workload(workload("tail_one")).unwrap();
    faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
    let err = server.run_workload(workload("tail_two")).unwrap_err();
    assert!(err.error.is_transient(), "{err}");

    // Three *counted* failed repairs exhaust the budget.
    for attempt in 1..=3 {
        assert!(server.try_repair().is_err(), "attempt {attempt}");
    }
    assert!(server.is_wedged());
    assert_eq!(server.durability_health(), DurabilityHealth::Wedged);
    let err = server.try_repair().unwrap_err();
    assert!(err.to_string().contains("wedged"), "{err}");

    // Wedged is terminal: even with the disk healthy again, publishes
    // refuse until a restart (which recovers the committed prefix).
    faults.clear_io_faults();
    let err = server.run_workload(workload("tail_three")).unwrap_err();
    assert!(err.to_string().contains("wedged"), "{err}");
    assert_eq!(server.stats().repair_attempts, 3);
    drop(server);
    let reopened = open(config, &dir);
    reopened.run_workload(workload("tail_two")).unwrap();
    assert_fsck_clean(&reopened, &dir);
}

#[test]
fn publish_storms_during_an_outage_never_wedge() {
    let dir = data_dir("io_storm_no_wedge");
    let config = ServerConfig::collaborative(u64::MAX);
    let mut durability = DurabilityConfig::new(&dir);
    durability.max_repair_attempts = 2;
    let (server, _) = OptimizerServer::open(config, durability).unwrap();
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
    // Far more failed publishes than the wedge cap: every one triggers
    // (at most) an *opportunistic* repair, which must not burn the
    // budget — only deliberate try_repair calls may wedge the layer.
    for i in 0..10 {
        let err = server
            .run_workload(workload(&format!("storm_{i}")))
            .unwrap_err();
        assert!(err.error.is_transient(), "storm publish {i}: {err}");
    }
    assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);
    assert!(!server.is_wedged());

    faults.clear_io_faults();
    assert!(server.try_repair().unwrap());
    server.run_workload(workload("after_storm")).unwrap();
    let live = fingerprint(&server);
    drop(server);
    let reopened = open(config, &dir);
    assert_eq!(fingerprint(&reopened), live);
    assert_fsck_clean(&reopened, &dir);
}

// ---------------------------------------------------------------------
// Evictions: the one record a live eviction writes
// ---------------------------------------------------------------------

/// The smallest materialized artifact id over every shard.
fn first_materialized(server: &OptimizerServer) -> ArtifactId {
    server
        .shards()
        .view()
        .graphs()
        .flat_map(|eg| eg.storage().materialized_ids())
        .min()
        .expect("the workload materialized something")
}

/// A read-only layer queues an eviction's record without touching the
/// journal; the repair that heals the layer appends it, so the eviction
/// survives a restart.
#[test]
fn eviction_while_read_only_is_queued_and_lands_on_heal() {
    let dir = data_dir("io_evict_read_only");
    let config = ServerConfig::collaborative(u64::MAX);
    let server = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));
    server.run_workload(workload("tail_one")).unwrap();
    let id = first_materialized(&server);

    faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
    let err = server.run_workload(workload("tail_two")).unwrap_err();
    assert!(matches!(err.error, GraphError::ReadOnly { .. }), "{err}");
    assert_eq!(server.backlog_len(), 1);

    let on_disk = dir_bytes(&dir);
    assert!(server.evict_artifact(id) > 0);
    assert_eq!(dir_bytes(&dir), on_disk, "a read-only eviction wrote");
    assert_eq!(server.backlog_len(), 2, "the eviction record is queued");
    assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);

    faults.clear_io_faults();
    assert!(server.try_repair().unwrap());
    assert_eq!(server.backlog_len(), 0);
    let live = fingerprint(&server);
    assert!(!live.mat.contains(&id.0));
    drop(server);
    let reopened = open(config, &dir);
    assert_eq!(
        fingerprint(&reopened),
        live,
        "the healed eviction is durable"
    );
    assert_fsck_clean(&reopened, &dir);
}

/// A healthy layer whose eviction append fails (a torn write) degrades
/// to read-only with the record queued, not lost; repair truncates the
/// torn tail and re-appends it.
#[test]
fn failed_eviction_append_degrades_to_read_only_and_heals() {
    for shards in [1, 8] {
        let dir = data_dir(&format!("io_evict_short_write_{shards}"));
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = shards;
        let server = open(config, &dir);
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));
        server.run_workload(workload("tail_one")).unwrap();
        let id = first_materialized(&server);

        faults.arm_io_fault(IoFault::ShortWrite, usize::MAX);
        assert!(
            server.evict_artifact(id) > 0,
            "eviction frees memory anyway"
        );
        assert!(faults.io_faults_fired() >= 1, "shards = {shards}");
        assert_eq!(server.durability_health(), DurabilityHealth::ReadOnly);
        assert!(!server.is_wedged());
        assert_eq!(server.backlog_len(), 1, "shards = {shards}");

        faults.clear_io_faults();
        assert!(server.try_repair().unwrap(), "shards = {shards}");
        assert_eq!(server.durability_health(), DurabilityHealth::Healthy);
        assert_eq!(server.backlog_len(), 0);
        let live = fingerprint(&server);
        assert!(!live.mat.contains(&id.0));
        drop(server);
        let reopened = open(config, &dir);
        assert_eq!(fingerprint(&reopened), live, "shards = {shards}");
        assert_fsck_clean(&reopened, &dir);
    }
}

/// Evicting what holds no content and no restored flag frees nothing
/// and writes no record.
#[test]
fn re_evicting_an_evicted_artifact_writes_nothing() {
    for shards in [1, 8] {
        let dir = data_dir(&format!("io_evict_twice_{shards}"));
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = shards;
        let server = open(config, &dir);
        server.run_workload(workload("tail_one")).unwrap();
        let id = first_materialized(&server);
        assert!(server.evict_artifact(id) > 0);

        let on_disk = dir_bytes(&dir);
        assert_eq!(server.evict_artifact(id), 0, "shards = {shards}");
        assert_eq!(server.evict_artifact(ArtifactId(u64::MAX)), 0);
        assert_eq!(dir_bytes(&dir), on_disk, "shards = {shards}");
        assert_eq!(server.durability_health(), DurabilityHealth::Healthy);
        assert_eq!(server.backlog_len(), 0);
    }
}

/// A volatile server has no storage to fault: its evictions consume no
/// armed I/O fault and the freed artifact recomputes on the next run.
#[test]
fn eviction_on_a_volatile_server_touches_no_storage() {
    let server = OptimizerServer::new(ServerConfig::collaborative(u64::MAX));
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));
    server.run_workload(workload("tail_one")).unwrap();
    let id = first_materialized(&server);

    for fault in IoFault::all() {
        faults.arm_io_fault(fault, usize::MAX);
    }
    assert!(server.evict_artifact(id) > 0);
    assert!(!fingerprint(&server).mat.contains(&id.0));
    assert_eq!(faults.io_faults_fired(), 0);
    assert_eq!(server.durability_health(), DurabilityHealth::Healthy);

    server.run_workload(workload("tail_one")).unwrap();
    assert_eq!(faults.io_faults_fired(), 0);
}

/// A wedged layer drops an eviction's record: the eviction frees the
/// memory but writes nothing, and the restart that un-wedges the layer
/// recovers the committed prefix, mat flag included.
#[test]
fn eviction_on_a_wedged_layer_writes_nothing_and_restart_restores_the_flag() {
    let dir = data_dir("io_evict_wedged");
    let config = ServerConfig::collaborative(u64::MAX);
    let mut durability = DurabilityConfig::new(&dir);
    durability.max_repair_attempts = 1;
    let (server, _) = OptimizerServer::open(config, durability).unwrap();
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));
    server.run_workload(workload("tail_one")).unwrap();
    let id = first_materialized(&server);

    faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
    server.run_workload(workload("tail_two")).unwrap_err();
    assert!(server.try_repair().is_err());
    assert!(server.is_wedged());
    faults.clear_io_faults();
    // The failed fsync's record landed whole, so the restart replays
    // tail_two as well: the disk holds the live pre-eviction state.
    let committed = fingerprint(&server);

    let on_disk = dir_bytes(&dir);
    let backlog = server.backlog_len();
    assert!(server.evict_artifact(id) > 0);
    assert_eq!(dir_bytes(&dir), on_disk, "a wedged eviction wrote");
    assert_eq!(server.backlog_len(), backlog, "a wedged eviction queued");
    drop(server);

    let reopened = open(config, &dir);
    assert_eq!(fingerprint(&reopened), committed);
    assert!(committed.mat.contains(&id.0));
    reopened.run_workload(workload("tail_one")).unwrap();
    assert_fsck_clean(&reopened, &dir);
}
