//! Crash matrix: kill persistence at every injected crash point and
//! assert a restarted server recovers exactly the committed-workload
//! prefix — same vertex ids, frequencies, materialization flags, and
//! quarantine set. There is one durability layout (per-shard journals
//! sealed by a commit record, DESIGN.md §10), so every test body runs
//! at `shards = 1` and `shards = 8`.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::Scalar;
use co_graph::journal::QuarantineEntry;
use co_graph::{shard_of, ArtifactId, WorkloadDag};
use co_graph::{CrashPoint, FaultInjector, FaultKind, GraphError, NodeKind, Operation, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

struct Step(String);
impl Operation for Step {
    fn name(&self) -> &str {
        &self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        // Real compute cost, so artifacts are worth materializing.
        std::thread::sleep(std::time::Duration::from_millis(2));
        Ok(Value::Aggregate(Scalar::Float(1.0)))
    }
}

fn step(name: impl Into<String>) -> Arc<Step> {
    Arc::new(Step(name.into()))
}

/// src → prep_step → <tail> (terminal).
fn workload(tail: &'static str) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let prep = dag.add_op(step("prep_step"), &[s]).unwrap();
    let t = dag.add_op(step(tail), &[prep]).unwrap();
    dag.mark_terminal(t).unwrap();
    dag
}

/// A three-op chain whose artifacts provably land on at least two
/// different shards of an `n`-way partition when it has two (op names
/// are salted until the hash-based routing spreads them), so a crash
/// injected *between* two per-shard journal appends is actually
/// reachable.
fn cross_shard_workload(n: usize, salt: u64) -> WorkloadDag {
    for attempt in 0.. {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let mut prev = s;
        for i in 0..3 {
            prev = dag
                .add_op(step(format!("x{salt}_{attempt}_{i}")), &[prev])
                .unwrap();
        }
        dag.mark_terminal(prev).unwrap();
        let shards: BTreeSet<usize> = dag
            .nodes()
            .iter()
            .map(|node| shard_of(node.artifact, n))
            .collect();
        if shards.len() >= n.min(2) {
            return dag;
        }
    }
    unreachable!()
}

/// Everything durability must preserve across a restart.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// id → (frequency, compute_time bits, size, quality bits).
    vertices: BTreeMap<u64, (u64, u64, u64, u64)>,
    /// Artifacts whose mat flag is set (content or restored flag).
    mat: BTreeSet<u64>,
    /// Quarantined operations as (op_hash, failures).
    quarantine: BTreeSet<(u64, usize)>,
}

fn fingerprint(server: &OptimizerServer) -> Fingerprint {
    // read_all works at every shard count (one guard at shards = 1).
    let guards = server.shards().read_all();
    let vertices = guards
        .iter()
        .flat_map(|eg| {
            eg.vertices().map(|v| {
                (
                    v.id.0,
                    (
                        v.frequency,
                        v.compute_time.to_bits(),
                        v.size,
                        v.quality.to_bits(),
                    ),
                )
            })
        })
        .collect();
    let mat = guards
        .iter()
        .flat_map(|eg| {
            eg.vertices()
                .filter(|v| eg.was_materialized(v.id))
                .map(|v| v.id.0)
        })
        .collect();
    let quarantine = server
        .quarantine()
        .map(|q| {
            q.entries()
                .into_iter()
                .map(|(op, _, failures)| (op, failures))
                .collect()
        })
        .unwrap_or_default();
    Fingerprint {
        vertices,
        mat,
        quarantine,
    }
}

/// A fresh per-test data directory under `target/tmp` (covered by the
/// CI stray-tmp-file leak check).
fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(config: ServerConfig, dir: &PathBuf) -> (OptimizerServer, co_core::RecoveryReport) {
    OptimizerServer::open(config, DurabilityConfig::new(dir)).unwrap()
}

/// The shard counts every test body runs at: the whole-graph publish
/// (paper materializer) and the subset publish (first-fit).
const SHARD_COUNTS: [usize; 2] = [1, 8];

fn config_for(shards: usize) -> ServerConfig {
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    config
}

/// After any crash-and-recover sequence, the live graph and an offline
/// replay of the data directory must both satisfy every egfsck
/// invariant — cross-shard invariants included.
fn assert_fsck_clean(server: &OptimizerServer, dir: &std::path::Path) {
    let guards = server.shards().read_all();
    let refs: Vec<&co_graph::ExperimentGraph> = guards.iter().map(|g| &**g).collect();
    let quarantine: Vec<QuarantineEntry> = server
        .quarantine()
        .map(|q| {
            q.entries()
                .into_iter()
                .map(|(op_hash, name, failures)| QuarantineEntry {
                    op_hash,
                    name,
                    failures,
                })
                .collect()
        })
        .unwrap_or_default();
    let live = co_graph::fsck::check_shards(&refs, &quarantine);
    assert!(live.is_clean(), "live graph: {live}");
    drop(guards);
    let offline = co_graph::fsck::check_data_dir(dir, true).unwrap();
    assert!(offline.is_clean(), "data dir: {offline}");
}

/// Every journal-side crash point — including, where a publish spans
/// several shards, one fired *between* two shards' journal appends —
/// must roll the whole publish back on reopen. The commit record
/// decides atomicity: per-shard records whose sequence number never
/// reached `eg.commit` are skipped by recovery.
#[test]
fn journal_crash_points_recover_the_committed_prefix() {
    for shards in SHARD_COUNTS {
        let mut points = vec![
            CrashPoint::JournalMidAppend,
            CrashPoint::JournalPreFsync,
            CrashPoint::CommitPreAppend,
        ];
        if shards > 1 {
            // Only reachable when one publish appends to two journals.
            points.push(CrashPoint::ShardGapAppend);
        }
        for point in points {
            let dir = data_dir(&format!("crash_{shards}_{}", point.name()));
            let config = config_for(shards);
            let (server, recovery) = open(config, &dir);
            assert!(!recovery.snapshot_loaded);

            let faults = Arc::new(FaultInjector::new());
            server.set_fault_injector(Arc::clone(&faults));
            server
                .run_workload(cross_shard_workload(shards, 1))
                .unwrap();
            let committed = fingerprint(&server);

            // The crash fires while the second workload's deltas are
            // being journaled: the run is reported failed (its effects
            // would not survive a restart) …
            faults.arm_crash(point);
            let err = server
                .run_workload(cross_shard_workload(shards, 100))
                .unwrap_err();
            assert!(err.to_string().contains(point.name()), "{point:?}: {err}");
            assert_eq!(faults.crashes_fired(), 1, "{point:?}");
            assert_eq!(server.stats().failed_workloads, 1);

            // … and the durability layer wedges: later publishes refuse
            // rather than journal records recovery could never replay.
            let wedged = server
                .run_workload(cross_shard_workload(shards, 200))
                .unwrap_err();
            assert!(wedged.to_string().contains("wedged"), "{wedged}");
            assert!(server.is_wedged());

            // "Reboot": a server opened from the same directory holds
            // exactly the committed prefix.
            drop(server);
            let (reopened, recovery) = open(config, &dir);
            assert_eq!(fingerprint(&reopened), committed, "{shards} {point:?}");
            assert_eq!(
                recovery.torn_tail_truncated,
                point == CrashPoint::JournalMidAppend,
                "mid-append leaves a torn record, the others lose it whole"
            );
            assert_eq!(recovery.committed_publishes, 1, "{shards} {point:?}");
            if matches!(
                point,
                CrashPoint::ShardGapAppend | CrashPoint::CommitPreAppend
            ) {
                // Some journal holds fully written records for the
                // crashed publish; without its commit record they are
                // uncommitted and recovery must skip them.
                assert!(
                    recovery.journal_records_skipped > 0,
                    "{point:?} leaves uncommitted records to skip: {recovery:?}"
                );
                assert!(recovery.render().contains("skipped"));
            }

            // The reopened server serves and persists workloads normally.
            reopened
                .run_workload(cross_shard_workload(shards, 100))
                .unwrap();
            let after = fingerprint(&reopened);
            drop(reopened);
            let (third, _) = open(config, &dir);
            assert_eq!(fingerprint(&third), after, "{shards} {point:?}");
            assert_fsck_clean(&third, &dir);
        }
    }
}

/// Snapshot crash points during a compaction: an interrupted snapshot
/// save leaves (at most) a temp file; the live snapshots, journals, and
/// commit log still recover everything committed.
#[test]
fn snapshot_crash_points_never_damage_the_live_snapshot() {
    for shards in SHARD_COUNTS {
        for point in [
            CrashPoint::SnapshotMidWrite,
            CrashPoint::SnapshotPreFsync,
            CrashPoint::SnapshotPreRename,
        ] {
            let dir = data_dir(&format!("crash_{shards}_{}", point.name()));
            let config = config_for(shards);
            let (server, _) = open(config, &dir);
            let faults = Arc::new(FaultInjector::new());
            server.set_fault_injector(Arc::clone(&faults));

            // One compacted workload (lives in the snapshots) plus one
            // journaled workload, so recovery must stitch both sources.
            server
                .run_workload(cross_shard_workload(shards, 1))
                .unwrap();
            server.compact().unwrap();
            server
                .run_workload(cross_shard_workload(shards, 50))
                .unwrap();
            let committed = fingerprint(&server);

            faults.arm_crash(point);
            let err = server.compact().unwrap_err();
            assert!(err.to_string().contains(point.name()), "{err}");
            assert_eq!(faults.crashes_fired(), 1);

            // The interrupted save left (at most) a temp file behind; the
            // live snapshots + journals still recover everything committed.
            drop(server);
            let (reopened, recovery) = open(config, &dir);
            assert_eq!(fingerprint(&reopened), committed, "{shards} {point:?}");
            assert_eq!(recovery.stray_tmp_removed, 1, "{shards} {point:?}");
            assert!(recovery.snapshot_loaded);

            // Compaction itself still works after the "crash"; afterwards
            // the journals replay nothing.
            reopened.compact().unwrap();
            assert_eq!(reopened.stats().snapshots_compacted, 1);
            drop(reopened);
            let (third, recovery) = open(config, &dir);
            assert_eq!(fingerprint(&third), committed, "{shards} {point:?}");
            assert_eq!(recovery.journal_records_replayed, 0, "journals compacted");
            assert_fsck_clean(&third, &dir);
        }
    }
}

#[test]
fn torn_tail_is_truncated_and_reported() {
    for shards in SHARD_COUNTS {
        let dir = data_dir(&format!("torn_tail_{shards}"));
        let config = config_for(shards);
        let (server, _) = open(config, &dir);
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));
        server.run_workload(workload("tail_one")).unwrap();
        faults.arm_crash(CrashPoint::JournalMidAppend);
        server.run_workload(workload("tail_two")).unwrap_err();
        drop(server);

        // `journal_records_replayed` counts per-shard records applied
        // (one per publish at one shard, one per touched shard beyond);
        // `committed_publishes` counts publishes.
        let replayed_ok = |recovery: &co_core::RecoveryReport, publishes: usize| {
            assert_eq!(recovery.committed_publishes, publishes, "{recovery:?}");
            if shards == 1 {
                assert_eq!(recovery.journal_records_replayed, publishes);
            } else {
                assert!(recovery.journal_records_replayed >= publishes);
            }
        };
        let (reopened, recovery) = open(config, &dir);
        assert!(recovery.torn_tail_truncated);
        assert!(recovery.torn_bytes_discarded > 0);
        replayed_ok(&recovery, 1);
        let stats = reopened.stats();
        assert_eq!(
            stats.journal_records_replayed,
            recovery.journal_records_replayed
        );
        assert_eq!(stats.torn_tail_truncated, 1);
        assert!(
            recovery.render().contains("torn tail"),
            "{}",
            recovery.render()
        );

        // The truncated journal accepts appends again; a third open sees
        // clean files with both workloads.
        reopened.run_workload(workload("tail_two")).unwrap();
        drop(reopened);
        let (third, recovery) = open(config, &dir);
        assert!(!recovery.torn_tail_truncated);
        replayed_ok(&recovery, 2);
        assert_eq!(third.stats().torn_tail_truncated, 0);
        assert_fsck_clean(&third, &dir);
    }
}

/// The quarantine set survives a restart: Q± records are confined to
/// shard 0's journal and committed like any other publish.
#[test]
fn quarantine_survives_restart() {
    for shards in SHARD_COUNTS {
        let dir = data_dir(&format!("quarantine_restart_{shards}"));
        let mut config = config_for(shards);
        config.quarantine_after = Some(2);
        let (server, _) = open(config, &dir);
        let faults = Arc::new(FaultInjector::new());
        faults.fail_op_forever("tail_one", FaultKind::Permanent);
        server.set_fault_injector(Arc::clone(&faults));

        // Two consecutive permanent failures trip the quarantine; the
        // second run's delta journals the Q+ entry.
        server.run_workload(workload("tail_one")).unwrap_err();
        server.run_workload(workload("tail_one")).unwrap_err();
        let committed = fingerprint(&server);
        assert_eq!(committed.quarantine.len(), 1);

        // Restart WITHOUT the fault injector: the operation would succeed
        // if re-run, but the restored quarantine fast-fails it instead of
        // letting the poisoned op at the server again.
        drop(server);
        let (reopened, recovery) = open(config, &dir);
        assert_eq!(recovery.quarantine_restored, 1);
        assert_eq!(fingerprint(&reopened), committed);
        let err = reopened.run_workload(workload("tail_one")).unwrap_err();
        assert!(
            matches!(err.error, GraphError::Quarantined { failures: 2, .. }),
            "{err}"
        );

        // Releasing and succeeding clears the entry durably (Q- journaled
        // through shard 0 and committed).
        {
            let quarantine = reopened.quarantine().unwrap();
            let (op, ..) = quarantine.entries()[0];
            quarantine.release(op);
        }
        reopened.run_workload(workload("tail_one")).unwrap();
        drop(reopened);
        let (third, recovery) = open(config, &dir);
        assert_eq!(recovery.quarantine_restored, 0);
        assert!(fingerprint(&third).quarantine.is_empty());
        third.run_workload(workload("tail_one")).unwrap();
        assert_fsck_clean(&third, &dir);
    }
}

#[test]
fn journal_threshold_triggers_auto_compaction() {
    for shards in SHARD_COUNTS {
        let dir = data_dir(&format!("auto_compact_{shards}"));
        let config = config_for(shards);
        let mut durability = DurabilityConfig::new(&dir);
        durability.compact_journal_bytes = 1; // every publish crosses it
        let (server, _) = OptimizerServer::open(config, durability).unwrap();
        server.run_workload(workload("tail_one")).unwrap();
        server.run_workload(workload("tail_two")).unwrap();
        assert!(server.stats().snapshots_compacted >= 2);
        let committed = fingerprint(&server);
        drop(server);

        // Everything lives in the snapshots; the journals replay nothing.
        let (reopened, recovery) = open(config, &dir);
        assert!(recovery.snapshot_loaded);
        assert_eq!(recovery.journal_records_replayed, 0);
        assert_eq!(fingerprint(&reopened), committed);
        assert_fsck_clean(&reopened, &dir);
    }
}

#[test]
fn eviction_is_durable() {
    for shards in SHARD_COUNTS {
        let dir = data_dir(&format!("evict_durable_{shards}"));
        let config = config_for(shards);
        let (server, _) = open(config, &dir);
        server.run_workload(workload("tail_one")).unwrap();
        let evict: Vec<ArtifactId> = server
            .shards()
            .read_all()
            .iter()
            .flat_map(|eg| eg.storage().materialized_ids())
            .collect();
        assert!(!evict.is_empty());
        for id in &evict {
            server.evict_artifact(*id);
        }
        let committed = fingerprint(&server);
        for id in &evict {
            assert!(!committed.mat.contains(&id.0));
        }
        drop(server);

        let (reopened, _) = open(config, &dir);
        assert_eq!(
            fingerprint(&reopened),
            committed,
            "eviction survives restart"
        );
        assert_fsck_clean(&reopened, &dir);
    }
}

/// A data directory refuses to open under a shard count other than the
/// one it was written with — in either direction.
#[test]
fn shard_count_mismatch_is_rejected_at_open() {
    for (written, wrong) in [(8, 4), (8, 1), (1, 8)] {
        let dir = data_dir(&format!("shard_mismatch_{written}_{wrong}"));
        let (server, _) = open(config_for(written), &dir);
        server.run_workload(workload("tail_one")).unwrap();
        drop(server);

        let err = OptimizerServer::open(config_for(wrong), DurabilityConfig::new(&dir))
            .err()
            .unwrap();
        assert!(matches!(err, GraphError::InvalidStructure(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("sharded {written} way(s)"))
                && msg.contains(&format!("configured for {wrong} shard(s)")),
            "{msg}"
        );
    }
}

/// The retired single-journal layout (`eg.wal` / `eg.egsnap`) is
/// refused with a typed error naming it — at every shard count, by the
/// server and by the offline checker alike — instead of being ignored
/// in favour of an empty graph.
#[test]
fn legacy_layout_directory_is_rejected_with_a_typed_error() {
    for old in ["eg.wal", "eg.egsnap"] {
        for shards in SHARD_COUNTS {
            let dir = data_dir(&format!("legacy_layout_{shards}_{old}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(old), b"EGWAL 1\n").unwrap();
            let err = OptimizerServer::open(config_for(shards), DurabilityConfig::new(&dir))
                .err()
                .unwrap();
            assert!(matches!(err, GraphError::InvalidStructure(_)), "{err}");
            assert!(err.to_string().contains(old), "{err}");
            assert!(err.to_string().contains("retired"), "{err}");
            let err = co_graph::fsck::check_data_dir(&dir, true).err().unwrap();
            assert!(matches!(err, GraphError::InvalidStructure(_)), "{err}");
        }
    }
}

/// A fresh data directory holds exactly the one layout's files — at
/// `shards = 1` too: `eg-0.wal`, `eg.commit`, and `eg-0.egsnap` once
/// compacted (plus `cold/` when cold columns are on).
#[test]
fn fresh_directory_holds_only_the_one_layout() {
    let ls = |dir: &PathBuf| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    };
    let names =
        |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| (*n).to_owned()).collect() };
    let dir = data_dir("fresh_layout");
    let mut durability = DurabilityConfig::new(&dir);
    durability.cold_columns = true;
    let (server, _) = OptimizerServer::open(config_for(1), durability).unwrap();
    server.run_workload(workload("tail_one")).unwrap();
    assert_eq!(ls(&dir), names(&["cold", "eg-0.wal", "eg.commit"]));
    server.compact().unwrap();
    assert_eq!(
        ls(&dir),
        names(&["cold", "eg-0.egsnap", "eg-0.wal", "eg.commit"])
    );
}
