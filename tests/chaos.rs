//! Chaos harness: concurrent publishers against a durable server while
//! a bounded storage-fault window (ENOSPC / failed fsyncs) opens and
//! closes, at both durability layouts (shards = 1 and shards = 8), and
//! a serve-level run composing I/O faults with network faults. After
//! every scenario: the server returns to `Healthy` once the faults
//! clear, a reopened data directory holds exactly what the live server
//! held, egfsck is clean, and no client is left stuck.

use co_core::{DurabilityConfig, DurabilityHealth, OptimizerServer, ServerConfig};
use co_dataframe::{ColumnData, Scalar};
use co_graph::{FaultInjector, IoFault, NetFault, NodeKind, Operation, Value, WorkloadDag};
use co_serve::{
    start, AggSpec, Client, Response, RetryConfig, ServeConfig, SpecStep, WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// src → <name>_prep → <name> (terminal); unique names defeat reuse so
/// every submission actually publishes.
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

fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_fsck_clean(dir: &std::path::Path) {
    let report = co_graph::fsck::check_data_dir(dir, true).unwrap();
    assert!(report.is_clean(), "data dir: {report}");
}

/// The core chaos scenario at a given shard count: 4 concurrent
/// publishers, a fault window that opens mid-run and closes before the
/// end, every failure transient, full convergence afterwards.
fn storage_chaos(shards: usize, fault: IoFault) {
    let dir = data_dir(&format!("chaos_s{shards}_{}", fault.name()));
    let mut config = ServerConfig::collaborative(u64::MAX);
    config.shards = shards;
    let (server, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    let server = Arc::new(server);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    const PUBLISHERS: usize = 4;
    const ROUNDS: usize = 30;
    let handles: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut succeeded = 0usize;
                for r in 0..ROUNDS {
                    match server.run_workload(workload(&format!("chaos_p{p}_r{r}"))) {
                        Ok(_) => succeeded += 1,
                        Err(e) => {
                            // Inside the window every refusal must be
                            // the retriable read-only kind — a chaos
                            // drill must never wedge a healthy server.
                            assert!(
                                e.error.is_transient(),
                                "publisher {p} round {r}: non-transient {e}"
                            );
                        }
                    }
                }
                succeeded
            })
        })
        .collect();

    // Open the fault window mid-run, keep it open briefly, close it.
    std::thread::sleep(Duration::from_millis(30));
    faults.arm_io_fault(fault, usize::MAX);
    std::thread::sleep(Duration::from_millis(80));
    faults.clear_io_faults();

    let succeeded: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(succeeded > 0, "some publishes must land around the window");

    // Faults are gone: the server must return to Healthy (repair may
    // already have happened opportunistically on a late publish).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.durability_health() != DurabilityHealth::Healthy {
        assert!(Instant::now() < deadline, "server never healed");
        let _ = server.try_repair();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!server.is_wedged());
    assert_eq!(server.backlog_len(), 0);
    server.run_workload(workload("chaos_after")).unwrap();
    server.flush_durable().unwrap();

    // Reopen: the directory holds exactly what the live server held —
    // committed publishes plus the healed backlog, nothing torn.
    let live = fingerprint(&server);
    let stats = server.stats();
    assert_eq!(stats.durability_health, 0);
    drop(server);
    let (reopened, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(fingerprint(&reopened), live, "shards={shards} {fault:?}");
    drop(reopened);
    assert_fsck_clean(&dir);
}

#[test]
fn chaos_enospc_window_single_shard() {
    storage_chaos(1, IoFault::Enospc);
}

#[test]
fn chaos_fsync_window_single_shard() {
    storage_chaos(1, IoFault::FsyncFail);
}

#[test]
fn chaos_enospc_window_sharded() {
    storage_chaos(8, IoFault::Enospc);
}

#[test]
fn chaos_fsync_window_sharded() {
    storage_chaos(8, IoFault::FsyncFail);
}

// ---------------------------------------------------------------------
// Serve-level chaos: I/O faults × network faults, no stuck client
// ---------------------------------------------------------------------

fn columns() -> Vec<(String, ColumnData)> {
    let f0: Vec<f64> = (0..32).map(|i| f64::from(i) / 32.0).collect();
    vec![("f0".to_owned(), ColumnData::Float(f0))]
}

/// Load → map(+salt) → mean; the salt defeats reuse.
fn spec(salt: f64) -> WorkloadSpec {
    WorkloadSpec {
        steps: vec![
            SpecStep::Load {
                dataset: "d".to_owned(),
            },
            SpecStep::Map {
                input: 0,
                column: "f0".to_owned(),
                f: co_serve::MapFnSpec::AddConst(salt),
                out: "salted".to_owned(),
            },
            SpecStep::Agg {
                input: 1,
                column: "salted".to_owned(),
                f: AggSpec::Mean,
            },
        ],
        outputs: vec![2],
    }
}

#[test]
fn chaos_serve_clients_ride_out_a_disk_outage() {
    let dir = data_dir("chaos_serve");
    let (server, _) = OptimizerServer::open(
        ServerConfig::collaborative(u64::MAX),
        DurabilityConfig::new(&dir),
    )
    .unwrap();
    let server = Arc::new(server);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    let mut config = ServeConfig::new("127.0.0.1:0");
    config.faults = Some(Arc::clone(&faults));
    let mut handle = start(Arc::clone(&server), config).expect("bind");
    let addr = handle.local_addr();

    let client_faults = Arc::clone(&faults);
    let client = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        let retry = RetryConfig::default();
        let mut done = 0usize;
        let mut salt = 0usize;
        let mut conn: Option<Client> = None;
        while done < 12 {
            assert!(
                Instant::now() < deadline,
                "client stuck: {done} workloads served before the deadline"
            );
            let c = match &mut conn {
                Some(c) => c,
                None => {
                    // (Re)connect and (re)register the session dataset;
                    // network faults may kill connections at any time.
                    let Ok(mut c) = Client::connect(addr, "chaos") else {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    if c.register_dataset("d", columns()).is_err() {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                    conn.insert(c)
                }
            };
            salt += 1;
            #[allow(clippy::cast_precision_loss)]
            match c.submit_with_retry(&spec(salt as f64), None, &retry) {
                Ok(Response::Done(_)) => done += 1,
                Ok(other) => panic!("unexpected terminal response: {other:?}"),
                // Transport failure (torn frame, disconnect): reconnect.
                Err(_) => conn = None,
            }
        }
        client_faults.net_faults_fired()
    });

    // Let a few workloads land, then open a combined fault window:
    // the disk rejects fsyncs while the network tears some frames.
    std::thread::sleep(Duration::from_millis(150));
    faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
    faults.arm_net_fault(NetFault::MidFrameDisconnect, 2);
    std::thread::sleep(Duration::from_millis(250));
    faults.clear_io_faults();

    // The client finishes all its workloads despite the outage — the
    // serve layer's background repair loop heals the durability layer
    // even between submissions.
    let _net_fired = client.join().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.durability_health, 0, "healed before the drain");
    assert!(stats.served >= 12);
    assert_fsck_clean(&dir);
}
