//! Chaos harness: concurrent publishers against a durable server while
//! storage-fault windows open and close, at both shard counts
//! (shards = 1 and shards = 8), and a serve-level run composing I/O
//! faults with network faults. The fixed windows cover ENOSPC and failed
//! fsyncs; the seeded schedules (splitmix, replayable by seed) run all
//! four write-side faults in seeded order and length. After every
//! scenario: the server returns to `Healthy` once the faults clear, a
//! reopened data directory holds exactly what the live server held,
//! egfsck is clean, and no client is left stuck.

#[path = "support/mod.rs"]
mod support;

use co_core::{DurabilityConfig, DurabilityHealth, OptimizerServer};
use co_dataframe::ColumnData;
use co_graph::{FaultInjector, IoFault, NetFault};
use co_serve::{
    start, AggSpec, Client, Response, RetryConfig, ServeConfig, SpecStep, WorkloadSpec,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{assert_fsck_clean, config_for, data_dir, fingerprint, workload};

/// Splitmix PRNG: tiny, deterministic, seed-stable across platforms —
/// the whole point of a chaos *schedule* is replayability.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One fault window: calm for `.0` ms, then `.1` armed forever for `.2`
/// ms, then cleared.
type Window = (u64, IoFault, u64);

/// The seeded schedule: each of the four write-side faults once, in
/// seeded order, with seeded calm and open durations.
fn seeded_windows(seed: u64, shards: usize) -> Vec<Window> {
    let mut rng = Rng(seed ^ shards as u64);
    let mut faults = vec![
        IoFault::Enospc,
        IoFault::WriteErr,
        IoFault::ShortWrite,
        IoFault::FsyncFail,
    ];
    let mut windows = Vec::new();
    while !faults.is_empty() {
        let fault = faults.remove(rng.below(faults.len() as u64) as usize);
        windows.push((10 + rng.below(30), fault, 20 + rng.below(60)));
    }
    windows
}

/// The core chaos scenario: 4 concurrent publishers (each at least 30
/// rounds, and on until the last window closes) while `windows` open
/// and close; every failure transient, full convergence afterwards.
fn storage_chaos(name: &str, shards: usize, windows: &[Window]) {
    let dir = data_dir(name);
    let config = config_for(shards);
    let (server, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    let server = Arc::new(server);
    let faults = Arc::new(FaultInjector::new());
    server.set_fault_injector(Arc::clone(&faults));

    const PUBLISHERS: usize = 4;
    const ROUNDS: usize = 30;
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut succeeded = 0usize;
                let mut r = 0;
                while r < ROUNDS || !stop.load(Ordering::SeqCst) {
                    match server.run_workload(workload(&format!("chaos_p{p}_r{r}"))) {
                        Ok(_) => succeeded += 1,
                        Err(e) => {
                            // Inside a window every refusal must be the
                            // retriable read-only kind — a chaos drill
                            // must never wedge a healthy server.
                            assert!(
                                e.error.is_transient(),
                                "publisher {p} round {r}: non-transient {e}"
                            );
                        }
                    }
                    r += 1;
                }
                succeeded
            })
        })
        .collect();

    for &(calm, fault, open) in windows {
        std::thread::sleep(Duration::from_millis(calm));
        faults.arm_io_fault(fault, usize::MAX);
        std::thread::sleep(Duration::from_millis(open));
        faults.clear_io_faults();
    }
    stop.store(true, Ordering::SeqCst);

    let succeeded: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(succeeded > 0, "some publishes must land around the windows");

    // Faults are gone: the server must return to Healthy (repair may
    // already have happened opportunistically on a late publish).
    let deadline = Instant::now() + Duration::from_secs(20);
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
    assert_eq!(server.stats().durability_health, 0);
    drop(server);
    let (reopened, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(fingerprint(&reopened), live, "{name}");
    assert_fsck_clean(&reopened, &dir);
}

fn fixed_window(shards: usize, fault: IoFault) {
    let name = format!("chaos_s{shards}_{}", fault.name());
    storage_chaos(&name, shards, &[(30, fault, 80)]);
}

#[test]
fn chaos_enospc_window_single_shard() {
    fixed_window(1, IoFault::Enospc);
}

#[test]
fn chaos_fsync_window_single_shard() {
    fixed_window(1, IoFault::FsyncFail);
}

#[test]
fn chaos_enospc_window_sharded() {
    fixed_window(8, IoFault::Enospc);
}

#[test]
fn chaos_fsync_window_sharded() {
    fixed_window(8, IoFault::FsyncFail);
}

/// The seeded schedule at both shard counts.
fn seeded_chaos(seed: u64) {
    for shards in [1, 8] {
        let windows = seeded_windows(seed, shards);
        storage_chaos(&format!("chaos_seed{seed}_s{shards}"), shards, &windows);
    }
}

#[test]
fn chaos_seeded_windows_seed_49374() {
    seeded_chaos(49374);
}

#[test]
fn chaos_seeded_windows_seed_271828() {
    seeded_chaos(271_828);
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
    let (server, _) = OptimizerServer::open(config_for(1), DurabilityConfig::new(&dir)).unwrap();
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
    assert_fsck_clean(&server, &dir);
}
