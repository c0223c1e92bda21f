//! Ordered-lock stress over the sharded Experiment Graph (DESIGN.md
//! §10): many concurrent publishers whose workloads span pseudo-random
//! shard subsets must never deadlock — every publish acquires its
//! touched shards' write locks in ascending index order, so circular
//! waits are impossible by construction — and after a crash (injected
//! at any journal-side point, including between two shards' appends of
//! one publish) a reopened server holds exactly the committed prefix.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::Scalar;
use co_graph::{shard_of, ArtifactId, WorkloadDag};
use co_graph::{CrashPoint, FaultInjector, NodeKind, Operation, Value};
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
        Ok(Value::Aggregate(Scalar::Float(1.0)))
    }
}

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
        prev = dag
            .add_op(Arc::new(Step(format!("op_{tag:x}"))), &[prev])
            .unwrap();
    }
    dag.mark_terminal(prev).unwrap();
    dag
}

/// id → (frequency, mat flag) across every shard.
fn fingerprint(server: &OptimizerServer) -> BTreeMap<u64, (u64, bool)> {
    let guards = server.shards().read_all();
    guards
        .iter()
        .flat_map(|eg| {
            eg.vertices()
                .map(|v| (v.id.0, (v.frequency, eg.was_materialized(v.id))))
        })
        .collect()
}

fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_sharded(shards: usize, dir: &PathBuf) -> OptimizerServer {
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    OptimizerServer::open(config, DurabilityConfig::new(dir))
        .unwrap()
        .0
}

fn assert_sharded_fsck_clean(dir: &std::path::Path, shards: usize) {
    let report = co_graph::fsck::check_sharded_data_dir(dir, shards, true).unwrap();
    assert!(report.is_clean(), "{report}");
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
        assert_sharded_fsck_clean(&dir, shards);
    }
}

/// Crash points under pre-existing concurrent state: after a stress
/// phase, a crash anywhere in the journaling of one more cross-shard
/// publish rolls exactly that publish back — everything the concurrent
/// phase committed survives.
#[test]
fn crash_after_concurrent_stress_recovers_committed_prefix() {
    let shards = 8;
    for point in [
        CrashPoint::JournalMidAppend,
        CrashPoint::ShardGapAppend,
        CrashPoint::CommitPreAppend,
    ] {
        let dir = data_dir(&format!("stress_crash_{}", point.name()));
        let server = Arc::new(open_sharded(shards, &dir));
        crossbeam::thread::scope(|scope| {
            for t in 0..4u64 {
                let server = Arc::clone(&server);
                scope.spawn(move |_| {
                    for i in 0..4u64 {
                        server.run_workload(random_workload(t * 100 + i)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let committed = fingerprint(&server);

        // One more publish, guaranteed to span ≥ 2 shards so the
        // between-appends point is reachable, with the crash armed.
        let victim = (10_000..)
            .map(random_workload)
            .find(|dag| {
                let set: BTreeSet<usize> = dag
                    .nodes()
                    .iter()
                    .map(|n| shard_of(n.artifact, shards))
                    .collect();
                set.len() >= 2
            })
            .unwrap();
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));
        faults.arm_crash(point);
        let err = server.run_workload(victim).unwrap_err();
        assert!(err.to_string().contains(point.name()), "{point:?}: {err}");
        assert!(server.is_wedged());

        let server = Arc::try_unwrap(server).ok().expect("threads joined");
        drop(server);
        let reopened = open_sharded(shards, &dir);
        assert_eq!(fingerprint(&reopened), committed, "{point:?}");
        assert_sharded_fsck_clean(&dir, shards);

        // Eviction shares the commit path; prove it still round-trips
        // after the recovery.
        let evict: Vec<ArtifactId> = {
            let guards = reopened.shards().read_all();
            guards
                .iter()
                .flat_map(|g| g.storage().materialized_ids())
                .take(2)
                .collect()
        };
        for id in &evict {
            reopened.evict_artifact(*id);
        }
        let after = fingerprint(&reopened);
        for id in &evict {
            assert!(!after[&id.0].1, "{id:?} still materialized");
        }
        drop(reopened);
        let third = open_sharded(shards, &dir);
        assert_eq!(fingerprint(&third), after, "{point:?}: eviction durable");
    }
}

/// Threshold compaction under concurrency: with a 1-byte journal
/// threshold every publish triggers a full-shard compaction right after
/// releasing its publish locks. Ordered acquisition (publish subsets
/// ascending, compaction all-ascending) keeps this deadlock-free, and
/// the final directory is snapshots-only.
#[test]
fn threshold_compaction_under_concurrency_is_deadlock_free() {
    let shards = 8;
    let dir = data_dir("stress_compact");
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    let mut durability = DurabilityConfig::new(&dir);
    durability.compact_journal_bytes = 1;
    let (server, _) = OptimizerServer::open(config, durability).unwrap();
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

    let mut config2 = ServerConfig::collaborative(u64::MAX);
    config2.shards = shards;
    let (reopened, recovery) = OptimizerServer::open(config2, DurabilityConfig::new(&dir)).unwrap();
    assert!(recovery.snapshot_loaded);
    assert_eq!(fingerprint(&reopened), committed);
    assert_sharded_fsck_clean(&dir, shards);
}
