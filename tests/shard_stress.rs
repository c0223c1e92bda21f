//! Ordered-lock stress over the sharded Experiment Graph (DESIGN.md
//! §10): many concurrent publishers whose workloads span pseudo-random
//! shard subsets must never deadlock — every publish acquires its
//! touched shards' write locks in ascending index order, so circular
//! waits are impossible by construction — and after a crash (cut at
//! any I/O op of a publish, including between two shards' appends of
//! one publish) a reopened server holds exactly the committed prefix.

#[path = "support/mod.rs"]
mod support;

use co_core::{DurabilityConfig, OptimizerServer};
use co_dataframe::Scalar;
use co_graph::{shard_of, ArtifactId, FsyncPolicy, Value, WorkloadDag};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use support::{
    assert_fsck_clean, config_for, crash_at_every_op, data_dir, fingerprint, recovered_at, step,
};

/// Deterministic xorshift, so every run stresses the same (varied)
/// shard subsets.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A chain workload rooted at one of three shared sources, with 2–4 ops
/// named from `seed`: artifact ids (op hashes) land on pseudo-random
/// shards, and the shared sources make distinct workloads collide on
/// the sources' shards — the contended case the ordered-lock protocol
/// exists for.
fn random_workload(seed: u64) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let src = dag.add_source(
        ["alpha", "beta", "gamma"][(seed % 3) as usize],
        Value::Aggregate(Scalar::Float(0.0)),
    );
    let mut prev = src;
    let n_ops = 2 + (xorshift(seed) % 3) as usize;
    for i in 0..n_ops {
        let tag = xorshift(seed.wrapping_add(i as u64 * 7919));
        prev = dag.add_op(step(format!("op_{tag:x}")), &[prev]).unwrap();
    }
    dag.mark_terminal(prev).unwrap();
    dag
}

fn open_sharded(shards: usize, dir: &PathBuf) -> OptimizerServer {
    OptimizerServer::open(config_for(shards), DurabilityConfig::new(dir))
        .unwrap()
        .0
}

/// 8 publishers × 6 pseudo-random cross-shard workloads each, at both a
/// coarse (2) and a fine (8) partition. Completion IS the deadlock
/// assertion; the reopen asserts the committed prefix (here: all of it,
/// since nothing crashed) survives byte-exactly.
#[test]
fn concurrent_random_subset_publishes_never_deadlock() {
    for shards in [2, 8] {
        let dir = data_dir(&format!("stress_{shards}"));
        let server = Arc::new(open_sharded(shards, &dir));
        crossbeam::thread::scope(|scope| {
            for t in 0..8u64 {
                let server = Arc::clone(&server);
                scope.spawn(move |_| {
                    for i in 0..6u64 {
                        let seed = t * 1000 + i;
                        server.run_workload(random_workload(seed)).unwrap();
                        // Half the publishers immediately resubmit: the
                        // frequency-bump path touches the same shard
                        // subset again under contention.
                        if t % 2 == 0 {
                            server.run_workload(random_workload(seed)).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(server.stats().workloads, 8 * 6 + 4 * 6);
        let committed = fingerprint(&server);

        // Every artifact must live on the shard its id hashes to.
        {
            let guards = server.shards().read_all();
            for (k, eg) in guards.iter().enumerate() {
                for v in eg.vertices() {
                    assert_eq!(shard_of(v.id, shards), k);
                }
            }
        }

        let server = Arc::try_unwrap(server).ok().expect("threads joined");
        drop(server);
        let reopened = open_sharded(shards, &dir);
        assert_eq!(fingerprint(&reopened), committed, "shards = {shards}");
        assert_fsck_clean(&reopened, &dir);
    }
}

/// Crash cuts under pre-existing concurrent state: after a stress
/// phase, the process dies at each I/O op of one more cross-shard
/// publish in turn. Exactly that publish is rolled back — or, cut on
/// its last record's fsync, kept whole — and everything the
/// concurrent phase committed survives. Each recovered directory then
/// evicts and round-trips the evictions.
#[test]
fn crash_after_concurrent_stress_recovers_committed_prefix() {
    let shards = 8;
    // One more publish, guaranteed to span ≥ 2 shards so cuts between
    // two shards' journal appends are reachable.
    let spans = |dag: &WorkloadDag| -> usize {
        let set: BTreeSet<usize> = dag
            .nodes()
            .iter()
            .map(|n| shard_of(n.artifact, shards))
            .collect();
        set.len()
    };
    let victim_seed = (10_000..)
        .find(|seed| spans(&random_workload(*seed)) >= 2)
        .unwrap();
    let touched = spans(&random_workload(victim_seed));
    let cuts = crash_at_every_op(
        "stress_crash",
        shards,
        FsyncPolicy::Always,
        |server| {
            crossbeam::thread::scope(|scope| {
                for t in 0..4u64 {
                    scope.spawn(move |_| {
                        for i in 0..4u64 {
                            server.run_workload(random_workload(t * 100 + i)).unwrap();
                        }
                    });
                }
            })
            .unwrap();
        },
        |server| {
            let _ = server.run_workload(random_workload(victim_seed));
        },
        |reopened| {
            // Eviction shares the journal path; it round-trips on the
            // directory this cut left behind (the helper's next open
            // asserts the evictions are durable). A reopened server holds
            // restored mat flags, not contents.
            let evict: Vec<ArtifactId> = {
                let guards = reopened.shards().read_all();
                guards
                    .iter()
                    .flat_map(|g| {
                        g.vertices()
                            .map(|v| v.id)
                            .filter(move |id| g.was_materialized(*id))
                    })
                    .take(2)
                    .collect()
            };
            assert!(!evict.is_empty());
            for id in &evict {
                reopened.evict_artifact(*id);
            }
            let after = fingerprint(reopened);
            for id in &evict {
                assert!(!after.mat.contains(&id.0), "{id:?} still materialized");
            }
        },
    );
    assert_eq!(cuts.len(), 2 * touched);
    assert_eq!(recovered_at(&cuts), [cuts.len() - 1]);
}

/// Threshold compaction under concurrency: with a 1-byte journal
/// threshold every publish compacts every shard right after releasing
/// its publish locks, one shard lock at a time. Ordered acquisition
/// (publish subsets ascending, compaction one shard at a time) keeps
/// this deadlock-free, and the final directory is snapshots-only.
#[test]
fn threshold_compaction_under_concurrency_is_deadlock_free() {
    let shards = 8;
    let dir = data_dir("stress_compact");
    let mut durability = DurabilityConfig::new(&dir);
    durability.compact_journal_bytes = 1;
    let (server, _) = OptimizerServer::open(config_for(shards), durability).unwrap();
    let server = Arc::new(server);
    crossbeam::thread::scope(|scope| {
        for t in 0..4u64 {
            let server = Arc::clone(&server);
            scope.spawn(move |_| {
                for i in 0..3u64 {
                    server.run_workload(random_workload(t * 31 + i)).unwrap();
                }
            });
        }
    })
    .unwrap();
    assert!(server.stats().snapshots_compacted >= 1);
    let committed = fingerprint(&server);
    let server = Arc::try_unwrap(server).ok().expect("threads joined");
    drop(server);

    let (reopened, recovery) =
        OptimizerServer::open(config_for(shards), DurabilityConfig::new(&dir)).unwrap();
    assert!(recovery.snapshot_loaded);
    assert_eq!(fingerprint(&reopened), committed);
    assert_fsck_clean(&reopened, &dir);
}
