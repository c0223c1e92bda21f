//! Server-restart behavior: the Experiment Graph's meta-data survives a
//! restart from its data directory; contents repopulate as workloads
//! execute.

use co_core::{DurabilityConfig, OptimizerServer, ServerConfig};
use co_graph::{snapshot, GraphQuery};
use co_workloads::data::{home_credit, HomeCreditScale};
use co_workloads::kaggle;
use std::path::PathBuf;

#[test]
fn restart_keeps_meta_and_regains_reuse() {
    let data = home_credit(&HomeCreditScale::tiny());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("restart_keeps_meta");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig::collaborative(u64::MAX);

    // Session 1: run two workloads, compact the journals into snapshots,
    // then drop the server (the "restart").
    let n_before = {
        let (first, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
        first.run_workload(kaggle::w1(&data).unwrap()).unwrap();
        first.run_workload(kaggle::w2(&data).unwrap()).unwrap();
        first.flush_durable().unwrap();
        let n = first.shards().view().n_vertices();
        n
    };

    // Session 2: reopen the data directory; the meta-data is back.
    let (second, _) = OptimizerServer::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(second.shards().view().n_vertices(), n_before);

    // The graph knows every artifact of W1 (frequencies, costs) but holds
    // no content, so the first resubmission recomputes —
    let (_, rerun) = second.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    assert_eq!(rerun.artifacts_loaded, 0, "no content right after restart");
    assert!(rerun.ops_executed > 0);
    // — and frequencies carried over: W1's artifacts now have f >= 2.
    {
        let view = second.shards().view();
        let w1 = kaggle::w1(&data).unwrap();
        let some_artifact = w1.nodes().last().unwrap().artifact;
        assert!(view.lookup(some_artifact).unwrap().frequency >= 2);
    }

    // The updater re-materialized during that run: the *next* repeat
    // reuses again, as before the restart.
    let (_, repeat) = second.run_workload(kaggle::w1(&data).unwrap()).unwrap();
    assert!(
        repeat.artifacts_loaded > 0,
        "reuse regained after repopulation"
    );
    assert!(repeat.run_seconds() < rerun.run_seconds() / 2.0);
}

#[test]
fn snapshot_is_stable_across_round_trips() {
    let data = home_credit(&HomeCreditScale::tiny());
    for shards in [1, 8] {
        let server = OptimizerServer::new(ServerConfig {
            shards,
            ..ServerConfig::collaborative(u64::MAX)
        });
        server.run_workload(kaggle::w4(&data).unwrap()).unwrap();
        let view = server.shards().view();
        for (k, eg) in view.graphs().enumerate() {
            let once = snapshot::to_shard_snapshot(eg, &[], 0).unwrap();
            let restored = snapshot::from_shard_snapshot(&once, true, "w4").unwrap();
            let twice =
                snapshot::to_shard_snapshot(&restored.graph, &restored.quarantine, 0).unwrap();
            assert_eq!(once, twice, "shard {k} of {shards}: not a fixpoint");
        }
    }
}
