//! Crash matrix: cut the process at every I/O operation of a publish,
//! a compaction and an eviction, and assert a restarted server holds
//! exactly the state before the operation or exactly the live state
//! after it — same vertex ids, frequencies, materialization flags and
//! quarantine set — never anything else. A crash is one more schedule
//! on the vfs fault injector (`FaultInjector::crash_at`); the loops
//! discover each operation's I/O count instead of naming crash points.
//! There is one durability layout (per-shard journals whose records
//! carry their publish's shard set, DESIGN.md §10), so every test body
//! runs at `shards = 1` and `shards = 8`.

#[path = "support/mod.rs"]
mod support;

use co_core::{DurabilityConfig, OptimizerServer, RecoveryReport, ServerConfig};
use co_graph::{shard_of, ArtifactId, FaultInjector, FaultKind, FsyncPolicy, GraphError};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use support::{
    assert_fsck_clean, config_for, crash_at_every_op, cross_shard_workload, data_dir, fingerprint,
    recovered_at, single_shard_workload, workload,
};

fn open(config: ServerConfig, dir: &PathBuf) -> (OptimizerServer, RecoveryReport) {
    OptimizerServer::open(config, DurabilityConfig::new(dir)).unwrap()
}

/// The shard counts every test body runs at: the whole-graph publish
/// (paper materializer) and the subset publish (first-fit).
const SHARD_COUNTS: [usize; 2] = [1, 8];

/// A publish spanning `s` shards is `2s` I/O ops under
/// `FsyncPolicy::Always` (each touched journal's write and fsync) and
/// `s` under `Never` (writes only). The last record's fsync is the one
/// commit point: only a cut there — after every record is whole on disk
/// — recovers the publish. A cut on a write tears that record; a cut
/// between appends leaves whole records whose publish never committed,
/// which recovery skips and truncates, so the next open skips nothing.
#[test]
fn publish_crash_at_every_io_op_recovers_before_or_after() {
    for shards in SHARD_COUNTS {
        let touched = shards.min(3);
        for policy in [FsyncPolicy::Always, FsyncPolicy::Never] {
            let cuts = crash_at_every_op(
                &format!("crash_publish_{shards}_{policy:?}"),
                shards,
                policy,
                |server| {
                    server
                        .run_workload(cross_shard_workload(shards, 1))
                        .unwrap();
                },
                |server| {
                    let _ = server.run_workload(cross_shard_workload(shards, 100));
                },
                |_| {},
            );
            let ops = match policy {
                FsyncPolicy::Always => 2 * touched,
                FsyncPolicy::Never => touched,
            };
            assert_eq!(cuts.len(), ops, "{shards} {policy:?}");
            for cut in &cuts {
                // A tail is truncated unless the cut kept the publish:
                // it tore a record or left uncommitted ones.
                assert_eq!(
                    cut.recovery.torn_tail_truncated, !cut.recovered_op,
                    "{shards} {policy:?} cut {}: {:?}",
                    cut.at, cut.recovery
                );
                assert_eq!(
                    cut.recovery.committed_publishes,
                    1 + usize::from(cut.recovered_op)
                );
                assert_eq!(
                    cut.settled.journal_records_skipped, 0,
                    "{shards} {policy:?} cut {}",
                    cut.at
                );
            }
            match policy {
                FsyncPolicy::Always => assert_eq!(recovered_at(&cuts), [ops - 1]),
                // Every op is a write, the last one the last record's:
                // a cut anywhere tears or loses the publish.
                FsyncPolicy::Never => assert!(recovered_at(&cuts).is_empty()),
            }
            let max_skipped = cuts
                .iter()
                .map(|c| c.recovery.journal_records_skipped)
                .max()
                .unwrap();
            if shards > 1 {
                assert!(max_skipped >= 2, "{shards} {policy:?}");
            }
        }
    }
}

/// A compaction of N shards is `6N` I/O ops: shard by shard, the
/// snapshot tmp's create, write, fsync and rename, then the journal's
/// truncate + fsync. A cut anywhere leaves every committed publish
/// recoverable; a cut between a tmp's create and its rename leaves
/// exactly that tmp for recovery to remove. The recovered directory —
/// a snapshot possibly renamed while its journal is not yet reset, or
/// some shards compacted and the rest not — compacts again, after which
/// an open replays no journal record.
#[test]
fn compaction_crash_at_every_io_op_keeps_the_committed_state() {
    for shards in SHARD_COUNTS {
        let cuts = crash_at_every_op(
            &format!("crash_compact_{shards}"),
            shards,
            FsyncPolicy::Always,
            |server| {
                // One compacted workload (lives in the snapshots) plus
                // one journaled workload, so recovery stitches both.
                server
                    .run_workload(cross_shard_workload(shards, 1))
                    .unwrap();
                server.compact().unwrap();
                server
                    .run_workload(cross_shard_workload(shards, 50))
                    .unwrap();
            },
            |server| {
                let _ = server.compact();
            },
            |reopened| {
                // The recovered directory compacts again, without
                // changing the state.
                let recovered = fingerprint(reopened);
                reopened.compact().unwrap();
                assert_eq!(reopened.stats().snapshots_compacted, 1);
                assert_eq!(fingerprint(reopened), recovered);
            },
        );
        assert_eq!(cuts.len(), 6 * shards, "shards = {shards}");
        for cut in &cuts {
            let tmp_left = (1..=3).contains(&(cut.at % 6));
            assert_eq!(
                cut.recovery.stray_tmp_removed,
                usize::from(tmp_left),
                "{shards} cut {}",
                cut.at
            );
            assert!(cut.recovery.snapshot_loaded);
            assert!(!cut.recovery.torn_tail_truncated);
            // After the follow-up compaction the journals replay nothing.
            assert_eq!(
                cut.settled.journal_records_replayed, 0,
                "{shards} cut {}",
                cut.at
            );
        }
    }
}

/// An eviction is journaled like a one-shard publish: two I/O ops, the
/// last (the record's fsync) its commit point.
#[test]
fn eviction_crash_at_every_io_op_recovers_before_or_after() {
    for shards in SHARD_COUNTS {
        let cuts = crash_at_every_op(
            &format!("crash_evict_{shards}"),
            shards,
            FsyncPolicy::Always,
            |server| {
                server.run_workload(workload("tail_one")).unwrap();
            },
            |server| {
                let id: ArtifactId = server
                    .shards()
                    .read_all()
                    .iter()
                    .flat_map(|eg| eg.storage().materialized_ids())
                    .min()
                    .expect("the workload materialized something");
                server.evict_artifact(id);
            },
            |_| {},
        );
        assert_eq!(cuts.len(), 2, "shards = {shards}");
        assert_eq!(recovered_at(&cuts), [1], "shards = {shards}");
        for cut in &cuts {
            assert_eq!(cut.recovery.torn_tail_truncated, cut.at % 2 == 0);
        }
    }
}

/// The records a cut publish left behind are truncated at the first
/// open. Otherwise a shard in the publish's set that never got its
/// record could later compact on its own, its watermark would cover the
/// publish's sequence number, and the next open would commit the half
/// publish.
#[test]
fn uncommitted_records_stay_rolled_back_after_another_shard_compacts() {
    let shards = 8;
    let dir = data_dir("uncommitted_then_compact");
    let config = config_for(shards);
    let (server, _) = open(config, &dir);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));
    server.run_workload(workload("tail_one")).unwrap();
    let before = fingerprint(&server);

    // Under `Always` op 3 is the second record's fsync: two of the
    // publish's three records are whole, the last shard's never written.
    let half = cross_shard_workload(shards, 7);
    let set: BTreeSet<usize> = half
        .nodes()
        .iter()
        .map(|node| shard_of(node.artifact, shards))
        .collect();
    let missing = *set.last().unwrap();
    faults.crash_at(3);
    server.run_workload(half.clone()).unwrap_err();
    drop(server);
    let largest_journal = (0..shards)
        .map(|k| std::fs::metadata(dir.join(format!("eg-{k}.wal"))).map_or(0, |m| m.len()))
        .max()
        .unwrap();

    let (reopened, recovery) = open(config, &dir);
    assert_eq!(fingerprint(&reopened), before);
    assert!(recovery.torn_tail_truncated, "{recovery:?}");
    assert_eq!(recovery.journal_records_skipped, 2, "{recovery:?}");
    drop(reopened);

    // Publishes to `missing` alone push its journal — and no other —
    // past the threshold, so it compacts on its own.
    let mut durability = DurabilityConfig::new(&dir);
    durability.compact_journal_bytes = largest_journal + 1;
    let (server, _) = OptimizerServer::open(config, durability).unwrap();
    for salt in 0.. {
        server
            .run_workload(single_shard_workload(shards, missing, salt))
            .unwrap();
        if server.stats().snapshots_compacted > 0 {
            break;
        }
    }
    let snapshots: Vec<usize> = (0..shards)
        .filter(|k| dir.join(format!("eg-{k}.egsnap")).exists())
        .collect();
    assert_eq!(snapshots, [missing]);
    let live = fingerprint(&server);
    drop(server);

    let (reopened, _) = open(config, &dir);
    let recovered = fingerprint(&reopened);
    assert_eq!(recovered, live);
    for node in half.nodes() {
        let id = node.artifact.0;
        assert_eq!(
            recovered.vertices.contains_key(&id),
            before.vertices.contains_key(&id),
            "vertex {id:x} of the rolled-back publish"
        );
    }
    assert_fsck_clean(&reopened, &dir);
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
        faults.crash_at(0); // the first journal write: a torn record
        server.run_workload(workload("tail_two")).unwrap_err();
        drop(server);

        // `journal_records_replayed` counts per-shard records applied
        // (one per publish at one shard, one per touched shard beyond);
        // `committed_publishes` counts publishes.
        let replayed_ok = |recovery: &RecoveryReport, publishes: usize| {
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

/// A retired layout — the single journal (`eg.wal` / `eg.egsnap`) or
/// the commit log (`eg.commit`), beside journal records that carry no
/// shard set — is refused with a typed error naming the file, at every
/// shard count, by the server and by the offline checker alike, instead
/// of being ignored in favour of an empty or mis-committed graph.
#[test]
fn legacy_layout_directory_is_rejected_with_a_typed_error() {
    for old in ["eg.wal", "eg.egsnap", "eg.commit"] {
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
            assert!(err.to_string().contains(old), "{err}");
            // Not a data directory this version serves: keep it out of
            // CI's egfsck sweep over `target/tmp`.
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A fresh data directory holds exactly the one layout's files at
/// every shard count: `eg-k.wal` per shard after a publish and an
/// eviction, and `eg-k.egsnap` beside it once compacted.
#[test]
fn fresh_directory_holds_only_the_one_layout() {
    let ls = |dir: &PathBuf| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    };
    for shards in SHARD_COUNTS {
        let files = |exts: &[&str]| -> BTreeSet<String> {
            (0..shards)
                .flat_map(|k| exts.iter().map(move |ext| format!("eg-{k}.{ext}")))
                .collect()
        };
        let dir = data_dir(&format!("fresh_layout_{shards}"));
        let (server, _) = open(config_for(shards), &dir);
        server.run_workload(workload("tail_one")).unwrap();
        assert_eq!(ls(&dir), files(&["wal"]), "shards = {shards}");
        let id = server
            .shards()
            .view()
            .graphs()
            .flat_map(|eg| eg.storage().materialized_ids())
            .min()
            .expect("the workload materialized something");
        assert!(server.evict_artifact(id) > 0);
        assert_eq!(ls(&dir), files(&["wal"]), "shards = {shards}");
        server.compact().unwrap();
        assert_eq!(ls(&dir), files(&["egsnap", "wal"]), "shards = {shards}");
    }
}

/// A data directory may still hold a `cold/` subdirectory from a build
/// that mirrored materialized columns to disk. `open` reads only the
/// `eg-k.*` files: the leftover is neither read, changed nor removed,
/// and the reopened server equals the one that wrote the directory.
#[test]
fn open_ignores_a_leftover_cold_directory() {
    for shards in SHARD_COUNTS {
        let dir = data_dir(&format!("leftover_cold_dir_{shards}"));
        let config = config_for(shards);
        let (server, _) = open(config, &dir);
        server.run_workload(workload("tail_one")).unwrap();
        let live = fingerprint(&server);
        drop(server);

        let cold = dir.join("cold");
        std::fs::create_dir_all(&cold).unwrap();
        std::fs::write(cold.join("cold-1.col"), b"stale content").unwrap();
        let leftover = std::fs::read(cold.join("cold-1.col")).unwrap();

        let (reopened, recovery) = open(config, &dir);
        assert_eq!(fingerprint(&reopened), live, "shards = {shards}");
        assert_eq!(recovery.committed_publishes, 1, "shards = {shards}");
        reopened.run_workload(workload("tail_two")).unwrap();
        reopened.compact().unwrap();
        assert_eq!(std::fs::read(cold.join("cold-1.col")).unwrap(), leftover);
        assert_eq!(std::fs::read_dir(&cold).unwrap().count(), 1);
        assert_fsck_clean(&reopened, &dir);
    }
}

/// Reopening a directory adds no file to the layout: after a restart,
/// a publish, an eviction and a compaction the directory still holds
/// exactly `eg-k.wal` and `eg-k.egsnap` per shard, and no temp file.
#[test]
fn reopened_directory_keeps_only_the_one_layout() {
    for shards in SHARD_COUNTS {
        let dir = data_dir(&format!("reopened_layout_{shards}"));
        let config = config_for(shards);
        let (server, _) = open(config, &dir);
        server.run_workload(workload("tail_one")).unwrap();
        server.compact().unwrap();
        drop(server);

        let (reopened, recovery) = open(config, &dir);
        assert!(recovery.snapshot_loaded, "shards = {shards}");
        reopened.run_workload(workload("tail_two")).unwrap();
        // Restored flags count: evicting one writes a record as well.
        let id = *fingerprint(&reopened).mat.first().expect("a mat flag");
        reopened.evict_artifact(ArtifactId(id));
        assert!(!fingerprint(&reopened).mat.contains(&id));
        reopened.compact().unwrap();
        let files: BTreeSet<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let expected: BTreeSet<String> = (0..shards)
            .flat_map(|k| [format!("eg-{k}.egsnap"), format!("eg-{k}.wal")])
            .collect();
        assert_eq!(files, expected, "shards = {shards}");
        assert_fsck_clean(&reopened, &dir);
    }
}
