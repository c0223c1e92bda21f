//! End-to-end robustness suite for the serve front-end: real TCP
//! connections against a real (often durable) optimizer server —
//! overload rejection, deadline shedding, malformed-frame confinement,
//! drain under load, and the connection-level fault matrix, each
//! finishing with an `egfsck`-clean data directory.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_dataframe::ColumnData;
use co_graph::{fsck, FaultInjector, NetFault};
use co_serve::frame::{encode_frame, read_frame, ProtocolError};
use co_serve::{
    start, AggSpec, Client, MapFnSpec, Request, Response, RetryConfig, ServeConfig, SpecStep,
    WorkloadSpec, PROTO_VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn columns(seed: i64) -> Vec<(String, ColumnData)> {
    let f0: Vec<f64> = (0..32)
        .map(|i| f64::from(i) / 32.0 + seed as f64 * 1e-6)
        .collect();
    let f1: Vec<f64> = (0..32).map(|i| f64::from(i % 7) - 3.0).collect();
    vec![
        ("f0".to_owned(), ColumnData::Float(f0)),
        ("f1".to_owned(), ColumnData::Float(f1)),
    ]
}

/// Load → filter → map(+const) → mean; `salt` makes the map op (and
/// everything downstream) unique, so reuse cannot absorb the work.
fn spec(salt: f64) -> WorkloadSpec {
    WorkloadSpec {
        steps: vec![
            SpecStep::Load {
                dataset: "d".to_owned(),
            },
            SpecStep::FilterGt {
                input: 0,
                column: "f0".to_owned(),
                value: 0.1,
            },
            SpecStep::Map {
                input: 1,
                column: "f0".to_owned(),
                f: MapFnSpec::AddConst(salt),
                out: "salted".to_owned(),
            },
            SpecStep::Agg {
                input: 2,
                column: "salted".to_owned(),
                f: AggSpec::Mean,
            },
        ],
        outputs: vec![3],
    }
}

fn durable_serve(
    dir: &PathBuf,
    configure: impl FnOnce(&mut ServeConfig),
) -> (co_serve::ServeHandle, Arc<OptimizerServer>) {
    let (server, _recovery) = OptimizerServer::open(
        ServerConfig::collaborative(64 * 1024 * 1024),
        DurabilityConfig::new(dir),
    )
    .expect("open durable server");
    let server = Arc::new(server);
    let mut config = ServeConfig::new("127.0.0.1:0");
    configure(&mut config);
    let handle = start(Arc::clone(&server), config).expect("bind");
    (handle, server)
}

fn memory_serve(
    configure: impl FnOnce(&mut ServeConfig),
) -> (co_serve::ServeHandle, Arc<OptimizerServer>) {
    let server = Arc::new(OptimizerServer::new(ServerConfig::collaborative(
        64 * 1024 * 1024,
    )));
    let mut config = ServeConfig::new("127.0.0.1:0");
    configure(&mut config);
    let handle = start(Arc::clone(&server), config).expect("bind");
    (handle, server)
}

#[test]
fn end_to_end_submit_and_reuse_over_tcp() {
    let dir = tmp_dir("serve_e2e");
    let (mut handle, _server) = durable_serve(&dir, |_| {});
    let addr = handle.local_addr();

    let mut client = Client::connect(addr, "e2e").expect("connect");
    client.ping().expect("ping");
    let qualified = client.register_dataset("d", columns(1)).expect("register");
    assert!(qualified.starts_with("d@"), "qualified name: {qualified}");

    let first = client.submit(&spec(0.5), None).expect("submit");
    let Response::Done(first) = first else {
        panic!("first submission not served: {first:?}");
    };
    assert!(first.ops_executed > 0);

    // Same spec again: the Experiment Graph serves it from reuse.
    let second = client.submit(&spec(0.5), None).expect("submit");
    let Response::Done(second) = second else {
        panic!("second submission not served: {second:?}");
    };
    assert!(
        second.ops_executed < first.ops_executed || second.artifacts_loaded > 0,
        "no reuse: {second:?}"
    );

    // A second client registering *identical* content shares the
    // namespace, so its workloads also reuse.
    let mut other = Client::connect(addr, "e2e-b").expect("connect");
    let other_qualified = other.register_dataset("d", columns(1)).expect("register");
    assert_eq!(qualified, other_qualified);

    let stats = handle.join().expect("drain");
    assert_eq!(stats.served, 2);
    assert_eq!(stats.submitted, 2);
    assert!(fsck::check_data_dir(&dir, true)
        .expect("fsck")
        .violations
        .is_empty());
}

#[test]
fn stats_exposes_recovery_counters_over_the_wire() {
    let dir = tmp_dir("serve_recovery");
    {
        let (handle, _server) = durable_serve(&dir, |_| {});
        let mut client = Client::connect(handle.local_addr(), "writer").expect("connect");
        client.register_dataset("d", columns(2)).expect("register");
        let Response::Done(_) = client.submit(&spec(1.0), None).expect("submit") else {
            panic!("submission not served");
        };
        // Drop without join: journal keeps the records, no snapshot —
        // the reopen below must replay them.
        drop(handle);
    }
    let (mut handle, _server) = durable_serve(&dir, |_| {});
    let mut client = Client::connect(handle.local_addr(), "reader").expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.journal_records_replayed >= 1,
        "no journal replay visible over the wire: {stats:?}"
    );
    assert!(!stats.draining);
    handle.join().expect("drain");
}

#[test]
fn overload_rejects_with_retry_hint_and_retry_succeeds() {
    let faults = Arc::new(FaultInjector::new());
    faults.inject_latency("map", Duration::from_millis(60));
    let (mut handle, server) = memory_serve(|c| {
        c.workers = 1;
        c.queue_depth = 1;
    });
    server.set_fault_injector(Arc::clone(&faults));
    let addr = handle.local_addr();

    let overloads = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for i in 0..6 {
            let overloads = Arc::clone(&overloads);
            let served = Arc::clone(&served);
            scope.spawn(move || {
                let mut client = Client::connect(addr, &format!("burst-{i}")).expect("connect");
                client.register_dataset("d", columns(3)).expect("register");
                // Unique salts: every submission really executes (and
                // really stalls on the injected map latency).
                match client
                    .submit(&spec(2.0 + f64::from(i)), None)
                    .expect("submit")
                {
                    Response::Done(_) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Response::Overloaded { retry_after_ms } => {
                        assert!(retry_after_ms >= 10, "hint too small: {retry_after_ms}");
                        overloads.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected response: {other:?}"),
                }
            });
        }
    });
    assert!(
        overloads.load(Ordering::Relaxed) > 0,
        "burst past queue depth produced no Overloaded rejections"
    );
    assert!(served.load(Ordering::Relaxed) > 0);

    // A well-behaved client with retry gets through once the burst
    // clears.
    let mut client = Client::connect(addr, "patient").expect("connect");
    client.register_dataset("d", columns(3)).expect("register");
    let response = client
        .submit_with_retry(&spec(99.0), None, &RetryConfig::default())
        .expect("retry submit");
    assert!(matches!(response, Response::Done(_)), "{response:?}");
    handle.join().expect("drain");
}

#[test]
fn deadlines_shed_queued_work_and_cut_execution() {
    let faults = Arc::new(FaultInjector::new());
    faults.inject_latency("map", Duration::from_millis(150));
    let (mut handle, server) = memory_serve(|c| {
        c.workers = 1;
        c.queue_depth = 8;
    });
    server.set_fault_injector(Arc::clone(&faults));
    let addr = handle.local_addr();

    // Mid-execution: the map op stalls past the 50 ms request deadline,
    // so the executor's workload deadline (propagated from the request)
    // cuts the remaining ops and the client sees TimedOut.
    let mut client = Client::connect(addr, "deadline").expect("connect");
    client.register_dataset("d", columns(4)).expect("register");
    let response = client.submit(&spec(5.0), Some(50)).expect("submit");
    assert!(
        matches!(response, Response::TimedOut { .. }),
        "mid-execution deadline not enforced: {response:?}"
    );

    // Queue shedding: park the single worker on a slow workload, then
    // submit with a deadline far shorter than the wait — the job must
    // be shed at dequeue without running.
    std::thread::scope(|scope| {
        let slow = scope.spawn(move || {
            let mut c = Client::connect(addr, "slow").expect("connect");
            c.register_dataset("d", columns(4)).expect("register");
            c.submit(&spec(6.0), None).expect("submit")
        });
        std::thread::sleep(Duration::from_millis(40));
        let mut hurried = Client::connect(addr, "hurried").expect("connect");
        hurried.register_dataset("d", columns(4)).expect("register");
        let response = hurried.submit(&spec(7.0), Some(5)).expect("submit");
        assert!(
            matches!(response, Response::TimedOut { .. }),
            "queued-past-deadline work not shed: {response:?}"
        );
        let slow_response = slow.join().expect("slow client");
        assert!(
            matches!(slow_response, Response::Done(_)),
            "{slow_response:?}"
        );
    });

    let stats = handle.join().expect("drain");
    assert!(stats.timed_out >= 2, "timed_out counter: {stats:?}");
}

#[test]
fn bad_frames_close_only_their_connection() {
    let (mut handle, _server) = memory_serve(|_| {});
    let addr = handle.local_addr();

    // Corrupted checksum: typed error reply, then close.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut frame = encode_frame(&Request::Ping.encode());
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        stream.write_all(&frame).expect("write");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("server replies before closing");
        let response = Response::decode(&reply).expect("typed response");
        assert!(
            matches!(response, Response::Bad { .. }),
            "checksum corruption not reported: {response:?}"
        );
        // ...and the connection is done.
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtocolError::Closed | ProtocolError::Truncated { .. } | ProtocolError::Io(_))
        ));
    }

    // Oversized length prefix (u32::MAX, i.e. a "negative" i32): the
    // reader rejects it before allocating anything.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        stream.write_all(&header).expect("write");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("server replies before closing");
        let response = Response::decode(&reply).expect("typed response");
        assert!(matches!(response, Response::Bad { .. }), "{response:?}");
    }

    // A frame whose payload decodes to garbage: same containment.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = encode_frame(&[0xEE, 0x00, 0x01]);
        stream.write_all(&frame).expect("write");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("server replies before closing");
        let response = Response::decode(&reply).expect("typed response");
        assert!(matches!(response, Response::Bad { .. }), "{response:?}");
    }

    // A peer speaking the previous protocol version: a typed refusal
    // naming both versions, then close.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            client: "v1".into(),
            proto: 1,
        };
        stream
            .write_all(&encode_frame(&hello.encode()))
            .expect("write");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("server replies before closing");
        let response = Response::decode(&reply).expect("typed response");
        let Response::Bad { message } = &response else {
            panic!("version mismatch not refused: {response:?}");
        };
        assert!(
            message.contains("version 1") && message.contains(&format!("speaks {PROTO_VERSION}")),
            "{message}"
        );
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtocolError::Closed | ProtocolError::Truncated { .. } | ProtocolError::Io(_))
        ));
    }

    // None of that wedged a worker or the acceptor: a fresh client is
    // served normally.
    let mut client = Client::connect(addr, "after").expect("connect");
    client.ping().expect("ping");
    let stats = handle.join().expect("drain");
    assert!(
        stats.protocol_errors >= 3,
        "protocol_errors counter: {stats:?}"
    );
}

/// Any version other than the server's own is refused at `Hello`, in
/// either direction: an older peer, a newer one, and a version no build
/// ever had. Each refusal closes only its own connection.
#[test]
fn hello_at_any_other_version_is_refused() {
    let (mut handle, _server) = memory_serve(|_| {});
    let addr = handle.local_addr();
    for proto in [0, PROTO_VERSION - 1, PROTO_VERSION + 1, u32::MAX] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            client: format!("v{proto}"),
            proto,
        };
        stream
            .write_all(&encode_frame(&hello.encode()))
            .expect("write");
        stream.flush().expect("flush");
        let reply = read_frame(&mut stream).expect("server replies before closing");
        let response = Response::decode(&reply).expect("typed response");
        let Response::Bad { message } = &response else {
            panic!("version {proto} not refused: {response:?}");
        };
        assert!(
            message.contains(&format!("version {proto} "))
                && message.contains(&format!("speaks {PROTO_VERSION}")),
            "{message}"
        );
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtocolError::Closed | ProtocolError::Truncated { .. } | ProtocolError::Io(_))
        ));
    }
    // The server's own version is welcomed on a raw connection too.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Request::Hello {
        client: "current".into(),
        proto: PROTO_VERSION,
    };
    stream
        .write_all(&encode_frame(&hello.encode()))
        .expect("write");
    stream.flush().expect("flush");
    let reply = read_frame(&mut stream).expect("welcome");
    let response = Response::decode(&reply).expect("typed response");
    assert!(
        matches!(response, Response::Welcome { proto, .. } if proto == PROTO_VERSION),
        "{response:?}"
    );
    drop(stream);
    let mut client = Client::connect(addr, "after").expect("connect");
    client.ping().expect("ping");
    handle.join().expect("drain");
}

#[test]
fn drain_under_load_commits_every_acknowledged_workload() {
    let dir = tmp_dir("serve_drain");
    let faults = Arc::new(FaultInjector::new());
    // A little per-op latency keeps clients genuinely mid-publish when
    // the drain lands.
    faults.inject_latency("map", Duration::from_millis(4));
    let (mut handle, server) = durable_serve(&dir, |c| {
        c.workers = 2;
        c.queue_depth = 16;
    });
    server.set_fault_injector(Arc::clone(&faults));
    let addr = handle.local_addr();

    let done = Arc::new(AtomicU64::new(0));
    let drained = Arc::new(AtomicU64::new(0));
    let final_stats = std::thread::scope(|scope| {
        for i in 0..8 {
            let done = Arc::clone(&done);
            let drained = Arc::clone(&drained);
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr, &format!("drain-{i}")) else {
                    return;
                };
                if client.register_dataset("d", columns(5)).is_err() {
                    return;
                }
                for s in 0..1000 {
                    let salt = f64::from(i) * 1000.0 + f64::from(s);
                    match client.submit(&spec(salt), Some(10_000)) {
                        Ok(Response::Done(_)) => {
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(Response::Draining) => {
                            drained.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                        Ok(Response::Overloaded { .. }) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Ok(other) => panic!("unexpected response: {other:?}"),
                        Err(_) => return, // server stopped under us
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(150));
        handle.begin_drain();
        // Clients all exit via Draining/disconnect; scope joins them.
        // NB: handle.join() must happen *after* clients finish, so the
        // final stats include everything; join inside the scope blocks
        // on workers, which is fine — admitted work completes.
        handle.join().expect("drain flushes")
    });

    let acknowledged = done.load(Ordering::SeqCst);
    assert!(acknowledged > 0, "no workload served before the drain");
    assert!(
        drained.load(Ordering::SeqCst) > 0,
        "no client observed the drain"
    );
    assert_eq!(final_stats.served, acknowledged);
    assert!(final_stats.draining);

    // Every acknowledged workload is durably committed: the data dir is
    // invariant-clean and replays into a server whose EG serves one of
    // the acknowledged specs purely from reuse.
    let report = fsck::check_data_dir(&dir, true).expect("fsck");
    assert!(report.violations.is_empty(), "{report:?}");
    assert!(report.vertices > 0);

    let (handle2, _server2) = durable_serve(&dir, |_| {});
    let mut client = Client::connect(handle2.local_addr(), "verify").expect("connect");
    client.register_dataset("d", columns(5)).expect("register");
    let response = client
        .submit(&spec(0.0 * 1000.0), Some(10_000))
        .expect("submit");
    assert!(matches!(response, Response::Done(_)), "{response:?}");
}

#[test]
fn net_fault_matrix_leaves_committed_prefix() {
    let dir = tmp_dir("serve_netfault");
    let faults = Arc::new(FaultInjector::new());
    faults.set_net_stall(Duration::from_millis(40));
    let (mut handle, server) = durable_serve(&dir, |c| {
        c.faults = Some(Arc::clone(&faults));
    });
    server.set_fault_injector(Arc::clone(&faults));
    let addr = handle.local_addr();

    // --- accept-fail: the connection dies before the handshake -------
    faults.arm_net_fault(NetFault::AcceptFail, 1);
    assert!(
        Client::connect(addr, "unlucky").is_err(),
        "accept-fail fault did not kill the connection"
    );
    // ...and only that connection: the next one is served.
    let mut client = Client::connect(addr, "lucky").expect("connect after accept-fail");
    client.register_dataset("d", columns(6)).expect("register");

    // --- stalled-write: slow but correct ------------------------------
    faults.arm_net_fault(NetFault::StalledWrite, 1);
    let started = Instant::now();
    client.ping().expect("stalled write still delivers");
    assert!(
        started.elapsed() >= Duration::from_millis(40),
        "stall did not delay the response"
    );

    // --- mid-frame disconnect & torn frame on the submit response ----
    // The workload publishes, then the response write dies; the client
    // never sees the ack, but the EG keeps exactly the committed
    // prefix (the published workload).
    let mut acked_unseen = 0u64;
    for (fault, salt) in [
        (NetFault::MidFrameDisconnect, 10.0),
        (NetFault::TornFrame, 11.0),
    ] {
        let mut victim = Client::connect(addr, "victim").expect("connect");
        victim.register_dataset("d", columns(6)).expect("register");
        faults.arm_net_fault(fault, 1);
        let result = victim.submit(&spec(salt), None);
        assert!(
            result.is_err(),
            "{} should cut the response frame, got {result:?}",
            fault.name()
        );
        acked_unseen += 1;
        // The same connection is dead, but the server is healthy.
        let mut probe = Client::connect(addr, "probe").expect("connect");
        probe.ping().expect("ping after fault");
    }
    assert_eq!(faults.net_faults_fired(), 4);

    let stats = handle.join().expect("drain");
    // Both cut-off submissions were served (committed) server-side.
    assert_eq!(stats.served, acked_unseen);

    // The committed prefix survives: fsck-clean, and the recovered EG
    // holds exactly the vertices of the two acknowledged-but-unseen
    // workloads (source + filter shared, map + agg per salt) — the
    // killed connections lost their response frames, not their
    // published work.
    let report = fsck::check_data_dir(&dir, true).expect("fsck");
    assert!(report.violations.is_empty(), "{report:?}");
    assert!(
        report.vertices >= 6,
        "committed workload vertices missing after the cut connections: {report:?}"
    );

    // And a fresh serve instance over the recovered directory still
    // serves those same specs to completion.
    let (handle2, _server2) = durable_serve(&dir, |_| {});
    let mut verify = Client::connect(handle2.local_addr(), "verify").expect("connect");
    verify.register_dataset("d", columns(6)).expect("register");
    for salt in [10.0, 11.0] {
        let response = verify.submit(&spec(salt), None).expect("submit");
        assert!(
            matches!(response, Response::Done(_)),
            "verification submit failed for salt {salt}: {response:?}"
        );
    }
}
