//! Shared helpers for the durability suites (`crash_recovery`,
//! `io_faults`, `chaos`, `shard_stress`): the workloads they publish,
//! the fingerprint a reopened server is compared by, per-test data
//! directories, and the egfsck assertion. Each suite includes this file
//! with `#[path = "support/mod.rs"] mod support;` and stays its own test
//! binary; a suite that needs only some helpers leaves the rest unused.
#![allow(dead_code)] // lint:reason each suite binary uses a different subset of the helpers

use co_core::{DurabilityConfig, OptimizerServer, RecoveryReport, ServerConfig};
use co_dataframe::Scalar;
use co_graph::journal::QuarantineEntry;
use co_graph::{shard_of, FaultInjector, FsyncPolicy, NodeKind, Operation, Value, WorkloadDag};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A dataset-producing op identified by its name, with a real (2 ms)
/// compute cost so its artifacts are worth materializing.
pub struct Step(pub String);

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
        std::thread::sleep(Duration::from_millis(2));
        Ok(Value::Aggregate(Scalar::Float(1.0)))
    }
}

pub fn step(name: impl Into<String>) -> Arc<Step> {
    Arc::new(Step(name.into()))
}

/// src → prep_step → <tail> (terminal). A new tail always publishes.
pub fn workload(tail: &str) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let prep = dag.add_op(step("prep_step"), &[s]).unwrap();
    let t = dag.add_op(step(tail), &[prep]).unwrap();
    dag.mark_terminal(t).unwrap();
    dag
}

/// src → three salted ops (terminal), whose four artifacts land on
/// exactly `min(n, 3)` shards of an `n`-way partition (op names are
/// re-salted until the hash-based routing spreads them so), so one
/// publish of it appends to that many journals.
pub fn cross_shard_workload(n: usize, salt: u64) -> WorkloadDag {
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
        if shards.len() == n.min(3) {
            return dag;
        }
    }
    unreachable!()
}

/// src → one op (terminal), both artifacts on shard `k` of an `n`-way
/// partition (names re-salted until they are), so one publish of it
/// appends to shard `k`'s journal alone.
pub fn single_shard_workload(n: usize, k: usize, salt: u64) -> WorkloadDag {
    for attempt in 0.. {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source(
            &format!("src{salt}_{attempt}"),
            Value::Aggregate(Scalar::Float(0.0)),
        );
        let t = dag
            .add_op(step(format!("only{salt}_{attempt}")), &[s])
            .unwrap();
        dag.mark_terminal(t).unwrap();
        if dag
            .nodes()
            .iter()
            .all(|node| shard_of(node.artifact, n) == k)
        {
            return dag;
        }
    }
    unreachable!()
}

/// Everything durability must preserve across a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// id → (frequency, compute_time bits, size, quality bits).
    pub vertices: BTreeMap<u64, (u64, u64, u64, u64)>,
    /// Artifacts whose mat flag is set (content or restored flag).
    pub mat: BTreeSet<u64>,
    /// Quarantined operations as (op_hash, failures).
    pub quarantine: BTreeSet<(u64, usize)>,
}

pub fn fingerprint(server: &OptimizerServer) -> Fingerprint {
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
/// CI stray-tmp-file leak check and egfsck sweeps).
pub fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir` (relative path → bytes): what a dead process
/// must leave untouched.
pub fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// A collaborative server configuration at `shards` shards.
pub fn config_for(shards: usize) -> ServerConfig {
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    config
}

/// What one crash cut left behind, as seen by the reopened server.
pub struct Cut {
    /// The vfs call the process died at (0-based).
    pub at: usize,
    pub recovery: RecoveryReport,
    /// Whether the reopened server equals the live post-operation state
    /// (otherwise it equals the pre-operation state).
    pub recovered_op: bool,
    /// The open after `after_reopen` ran on the recovered server.
    pub settled: RecoveryReport,
}

/// Crash `op` at every vfs call in turn. For each cut index `k`, a
/// fresh server in a fresh `name/` directory is brought to the
/// pre-operation state by `setup`, the cut is armed, and `op` runs;
/// the first `k` at which the cut no longer fires is the operation's
/// I/O count. After every cut that fired: two further publishes fail
/// and leave the data directory's names and bytes unchanged; the
/// reopened server equals the pre- or the post-operation fingerprint
/// and is egfsck-clean; `after_reopen` runs on it (a follow-up
/// compaction or eviction on the recovered directory), and the next
/// open equals the state it left and is egfsck-clean; a publish then
/// persists, and one more open equals it. Returns one [`Cut`] per
/// fired cut, in order.
pub fn crash_at_every_op(
    name: &str,
    shards: usize,
    policy: FsyncPolicy,
    setup: impl Fn(&OptimizerServer),
    op: impl Fn(&OptimizerServer),
    after_reopen: impl Fn(&OptimizerServer),
) -> Vec<Cut> {
    let config = config_for(shards);
    let durability = |dir: &PathBuf| DurabilityConfig {
        fsync: policy,
        ..DurabilityConfig::new(dir)
    };
    let mut cuts = Vec::new();
    for k in 0.. {
        let dir = data_dir(name);
        let (server, _) = OptimizerServer::open(config, durability(&dir)).unwrap();
        let faults = Arc::new(FaultInjector::new());
        server.set_fault_injector(Arc::clone(&faults));
        setup(&server);
        let before = fingerprint(&server);
        faults.crash_at(k);
        op(&server);
        let after = fingerprint(&server);
        if !faults.crashed() {
            // Past the last I/O op: the operation completed, and a
            // reopen sees all of it.
            drop(server);
            let (reopened, _) = OptimizerServer::open(config, durability(&dir)).unwrap();
            assert_eq!(fingerprint(&reopened), after, "{name}: uncut run");
            assert_fsck_clean(&reopened, &dir);
            return cuts;
        }

        // The process is dead: nothing it attempts reaches the disk.
        let files = dir_bytes(&dir);
        for i in 0..2 {
            server
                .run_workload(workload(&format!("after_cut_{i}")))
                .unwrap_err();
        }
        assert_eq!(
            dir_bytes(&dir),
            files,
            "{name} cut {k}: a dead process wrote"
        );
        drop(server);

        let (reopened, recovery) = OptimizerServer::open(config, durability(&dir)).unwrap();
        let recovered = fingerprint(&reopened);
        assert!(
            recovered == before || recovered == after,
            "{name} cut {k}: recovered neither the pre- nor the post-operation state \
             ({recovery:?})"
        );
        assert_fsck_clean(&reopened, &dir);
        after_reopen(&reopened);
        let settled_state = fingerprint(&reopened);
        drop(reopened);

        let (settled_server, settled) = OptimizerServer::open(config, durability(&dir)).unwrap();
        assert_eq!(
            fingerprint(&settled_server),
            settled_state,
            "{name} cut {k}: the step after reopen"
        );
        assert_fsck_clean(&settled_server, &dir);
        settled_server
            .run_workload(workload("after_reopen"))
            .unwrap();
        let live = fingerprint(&settled_server);
        drop(settled_server);
        let (last, _) = OptimizerServer::open(config, durability(&dir)).unwrap();
        assert_eq!(
            fingerprint(&last),
            live,
            "{name} cut {k}: publish after reopen"
        );
        cuts.push(Cut {
            at: k,
            recovery,
            recovered_op: recovered == after && recovered != before,
            settled,
        });
    }
    unreachable!()
}

/// The cut indices whose reopened server holds the operation.
pub fn recovered_at(cuts: &[Cut]) -> Vec<usize> {
    cuts.iter()
        .filter(|c| c.recovered_op)
        .map(|c| c.at)
        .collect()
}

/// The live graph and an offline replay of the data directory must
/// both satisfy every egfsck invariant — cross-shard invariants
/// included.
pub fn assert_fsck_clean(server: &OptimizerServer, dir: &Path) {
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
