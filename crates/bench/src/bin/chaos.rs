//! Chaos driver: a seeded, repeatable storage-fault drill against a
//! durable [`OptimizerServer`], at both durability layouts (shards = 1
//! and shards = 8).
//!
//! Concurrent publishers hammer the server with unique workloads while
//! a scheduler thread opens and closes I/O fault windows (ENOSPC,
//! EIO writes, short writes, failed fsyncs) drawn from a seeded PRNG —
//! the same seed replays the same schedule. The drill asserts the full
//! graded-degradation contract (DESIGN.md §10):
//!
//! - inside a window every refused publish is the *retriable* read-only
//!   kind — the server never wedges on transient faults;
//! - once the windows close the server returns to `Healthy` and drains
//!   its backlog without a restart;
//! - a cold-column scrub detects injected bit rot and heals it from
//!   lineage, byte-identically;
//! - a reopened data directory holds exactly what the live server held
//!   (committed prefix + healed backlog), and egfsck finds it clean.
//!
//! Data directories are left under `target/tmp/` so CI's egfsck sweep
//! re-checks them offline. Exits non-zero on any violated invariant.
//!
//! Flags: `--quick` (CI-scale rounds), `--seed <n>` (fault schedule),
//! `--shards <n>` (one layout instead of both), `--dir <path>`.

use co_bench::write_json;
use co_core::{DurabilityConfig, DurabilityHealth, OptimizerServer, ServerConfig, ServerStats};
use co_dataframe::{Column, ColumnData, DataFrame, Scalar};
use co_graph::{
    FaultInjector, GraphError, IoFault, NodeKind, Operation, ScrubOutcome, Value, WorkloadDag,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Splitmix-style PRNG: tiny, deterministic, seed-stable across
/// platforms — the whole point of a chaos *schedule* is replayability.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Publisher op: unique name defeats reuse, the sleep keeps publishes
/// overlapping the fault windows.
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
        std::thread::sleep(Duration::from_millis(1));
        Ok(Value::Aggregate(Scalar::Float(1.0)))
    }
}

fn workload(name: &str) -> WorkloadDag {
    let mut dag = WorkloadDag::new();
    let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
    let prep = dag
        .add_op(Arc::new(Step(format!("{name}_prep"))), &[s])
        .unwrap();
    let t = dag
        .add_op(Arc::new(Step(name.to_owned())), &[prep])
        .unwrap();
    dag.mark_terminal(t).unwrap();
    dag
}

/// Deterministic dataset producer so the drill exercises the cold
/// store: materialized at publish, recomputable from lineage at scrub.
struct Make;
impl Operation for Make {
    fn name(&self) -> &str {
        "chaos_make"
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        std::thread::sleep(Duration::from_millis(2));
        let df = DataFrame::new(vec![Column::source(
            "chaos_src",
            "ints",
            ColumnData::Int((0..128).collect()),
        )])
        .map_err(|e| GraphError::op_failed("chaos_make", e.to_string()))?;
        Ok(Value::dataset(df))
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    vertices: BTreeMap<u64, (u64, u64, u64, u64)>,
    mat: BTreeSet<u64>,
}

fn fingerprint(server: &OptimizerServer) -> Fingerprint {
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
    Fingerprint { vertices, mat }
}

fn assert_fsck_clean(dir: &Path) {
    let report = co_graph::fsck::check_data_dir(dir, true).unwrap();
    assert!(report.is_clean(), "egfsck: {report}");
}

struct DrillReport {
    shards: usize,
    published: usize,
    rejected_readonly: usize,
    repair_attempts: usize,
    repairs_succeeded: usize,
    windows: usize,
    scrub: ScrubOutcome,
    heal_seconds: f64,
}

/// One full drill at a given shard count. Panics (non-zero exit) on any
/// violated invariant.
#[allow(clippy::too_many_lines)] // lint:reason a drill reads as one linear script
fn drill(base: &Path, shards: usize, seed: u64, quick: bool) -> DrillReport {
    let dir = base.join(format!("chaos_s{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    let mut durability = DurabilityConfig::new(&dir);
    durability.cold_columns = true;
    let (server, _) = OptimizerServer::open(config, durability).unwrap();
    let server = Arc::new(server);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    // Seed the cold store with one dataset artifact before the storm.
    let cold_id = {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("chaos_src", Value::Aggregate(Scalar::Float(0.0)));
        let m = dag.add_op(Arc::new(Make), &[s]).unwrap();
        dag.mark_terminal(m).unwrap();
        let (dag, _) = server.run_workload(dag).unwrap();
        dag.nodes()[m.0].artifact
    };

    let publishers = 4usize;
    let rounds = if quick { 25 } else { 100 };
    let stop = Arc::new(AtomicBool::new(false));

    // Fault scheduler: windows drawn from the seeded PRNG. ReadErr is
    // excluded while publishers run (it targets the *read* path, which
    // the scrub phase covers below with real bit rot instead).
    let schedule = {
        let faults = Arc::clone(&faults);
        let stop = Arc::clone(&stop);
        let mut rng = Rng(seed ^ shards as u64);
        std::thread::spawn(move || {
            let window_faults = [
                IoFault::Enospc,
                IoFault::WriteErr,
                IoFault::ShortWrite,
                IoFault::FsyncFail,
            ];
            let mut windows = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let calm = 10 + rng.below(30);
                std::thread::sleep(Duration::from_millis(calm));
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let fault = window_faults[rng.below(4) as usize];
                faults.arm_io_fault(fault, usize::MAX);
                windows += 1;
                let open = 20 + rng.below(60);
                std::thread::sleep(Duration::from_millis(open));
                faults.clear_io_faults();
            }
            // The drill must end fault-free so the server can heal.
            faults.clear_io_faults();
            windows
        })
    };

    let published: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..publishers)
            .map(|p| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    let mut ok = 0usize;
                    for r in 0..rounds {
                        match server.run_workload(workload(&format!("chaos_p{p}_r{r}"))) {
                            Ok(_) => ok += 1,
                            Err(e) => assert!(
                                e.error.is_transient(),
                                "publisher {p} round {r}: non-transient failure {e}"
                            ),
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    stop.store(true, Ordering::SeqCst);
    let windows = schedule.join().unwrap();
    assert!(published > 0, "no publish landed around the windows");

    // Heal: with the faults gone the server must reach Healthy with an
    // empty backlog, without a restart.
    let heal_started = Instant::now();
    let deadline = heal_started + Duration::from_secs(20);
    while server.durability_health() != DurabilityHealth::Healthy {
        assert!(Instant::now() < deadline, "server never healed");
        let _ = server.try_repair();
        std::thread::sleep(Duration::from_millis(20));
    }
    let heal_seconds = heal_started.elapsed().as_secs_f64();
    assert_eq!(server.backlog_len(), 0, "backlog must drain on repair");
    server.run_workload(workload("chaos_after")).unwrap();
    server.flush_durable().unwrap();

    // Scrub phase: inject real bit rot into the seeded cold column and
    // let the scrubber heal it from lineage.
    let cold_path = dir
        .join("cold")
        .join(format!("cold-{:016x}.col", cold_id.0));
    let pristine = std::fs::read(&cold_path).expect("cold column written");
    let mut rotted = pristine.clone();
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x10;
    std::fs::write(&cold_path, &rotted).unwrap();
    let scrub = server.scrub();
    assert!(
        scrub.healed >= 1,
        "bit rot must heal from lineage: {scrub:?}"
    );
    assert_eq!(scrub.quarantined, 0, "nothing here is unrecoverable");
    assert_eq!(
        std::fs::read(&cold_path).unwrap(),
        pristine,
        "healing is byte-identical (deterministic encoding)"
    );

    let stats: ServerStats = server.stats();
    assert_eq!(stats.durability_health, 0);

    // Reopen: committed prefix + healed backlog, nothing torn.
    let live = fingerprint(&server);
    drop(server);
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    let (reopened, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(
        fingerprint(&reopened),
        live,
        "reopen diverged (shards={shards})"
    );
    drop(reopened);
    assert_fsck_clean(&dir);

    DrillReport {
        shards,
        published,
        rejected_readonly: stats.publishes_rejected_readonly,
        repair_attempts: stats.repair_attempts,
        repairs_succeeded: stats.repairs_succeeded,
        windows,
        scrub,
        heal_seconds,
    }
}

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seed: u64 = arg_value("--seed").map_or(0x00C0_FFEE, |s| {
        s.parse().expect("--seed takes an unsigned integer")
    });
    let base = PathBuf::from(arg_value("--dir").unwrap_or_else(|| "target/tmp".to_owned()));
    std::fs::create_dir_all(&base).expect("can create the data dir");
    let layouts: Vec<usize> = arg_value("--shards").map_or_else(
        || vec![1, 8],
        |s| vec![s.parse().expect("--shards takes a shard count")],
    );

    println!(
        "chaos drill: seed={seed:#x} quick={quick} layouts={layouts:?} dir={}",
        base.display()
    );
    let mut rows = String::new();
    for (i, &shards) in layouts.iter().enumerate() {
        let r = drill(&base, shards, seed, quick);
        println!(
            "  shards={}: published={} readonly_rejections={} windows={} \
             repairs={}/{} scrub(checked={} healed={}) heal={:.2}s",
            r.shards,
            r.published,
            r.rejected_readonly,
            r.windows,
            r.repairs_succeeded,
            r.repair_attempts.max(r.repairs_succeeded),
            r.scrub.checked,
            r.scrub.healed,
            r.heal_seconds,
        );
        if i > 0 {
            rows.push(',');
        }
        write!(
            rows,
            r#"
    {{"shards": {}, "published": {}, "rejected_readonly": {}, "windows": {}, "repairs_succeeded": {}, "scrub_checked": {}, "scrub_healed": {}, "heal_seconds": {:.4}}}"#,
            r.shards,
            r.published,
            r.rejected_readonly,
            r.windows,
            r.repairs_succeeded,
            r.scrub.checked,
            r.scrub.healed,
            r.heal_seconds,
        )
        .unwrap();
    }
    let json = format!(
        r#"{{
  "bench": "chaos",
  "seed": {seed},
  "quick": {quick},
  "results": [{rows}
  ]
}}
"#
    );
    write_json("BENCH_chaos.json", &json);
    println!("chaos drill OK");
}
