//! One module per reproduced table/figure.

pub mod figure10;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod table1;

use co_core::server::{MaterializerKind, ReuseKind};
use co_core::{CostModel, OptimizerServer, ServerConfig};
use co_workloads::data::{home_credit, HomeCredit, HomeCreditScale};
use co_workloads::kaggle;

/// The Kaggle data scale used by the harnesses.
#[must_use]
pub fn bench_scale() -> HomeCreditScale {
    HomeCreditScale::default()
}

/// Generate the benchmark dataset (deterministic).
#[must_use]
pub fn bench_data() -> HomeCredit {
    home_credit(&bench_scale())
}

/// Build a server with an explicit materializer/reuse combination.
#[must_use]
pub fn server(materializer: MaterializerKind, reuse: ReuseKind, budget: u64) -> OptimizerServer {
    OptimizerServer::new(ServerConfig {
        budget,
        alpha: 0.5,
        materializer,
        reuse,
        cost: CostModel::memory(),
        warmstart: false,
        retry: co_core::RetryPolicy::default(),
        quarantine_after: Some(3),
        shards: 1,
    })
}

/// Run egfsck over every shard of a figure's Experiment Graph after its
/// workload sequence: a figure must never be plotted off a graph that
/// broke an invariant. Panics with the full violation report.
pub fn assert_graph_clean(server: &OptimizerServer) {
    let view = server.shards().view();
    let shards: Vec<_> = view.graphs().collect();
    let report = co_graph::fsck::check_shards(&shards, &[]);
    assert!(report.is_clean(), "egfsck after bench run: {report}");
}

/// The footprint materializing *everything* would occupy: the analogue of
/// the paper's "130 GB of artifacts", measured by running the full
/// sequence against an ALL-materializing server.
pub fn all_footprint(data: &HomeCredit) -> u64 {
    let srv = server(MaterializerKind::All, ReuseKind::Linear, u64::MAX);
    for dag in kaggle::all_workloads(data).expect("workloads build") {
        srv.run_workload(dag).expect("workload runs");
    }
    let (_, _, logical) = srv.storage_stats();
    logical
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_graph::ArtifactId;

    #[test]
    fn graph_check_covers_every_shard() {
        let data = home_credit(&HomeCreditScale::tiny());
        let mut config = ServerConfig::collaborative(u64::MAX);
        config.shards = 8;
        let srv = OptimizerServer::new(config);
        srv.run_workload(kaggle::w1(&data).unwrap()).unwrap();
        assert_graph_clean(&srv);

        // A dangling parent seeded into the last non-empty shard must
        // fail the check: it reads every shard, not just shard 0.
        let k = (1..8)
            .rev()
            .find(|&k| srv.shards().read(k).n_vertices() > 0)
            .unwrap();
        {
            let mut eg = srv.shards().write(k);
            let v = eg.topo_order()[0];
            eg.vertex_mut(v).unwrap().parents.push(ArtifactId(0xdead));
        }
        let check = std::panic::AssertUnwindSafe(|| assert_graph_clean(&srv));
        assert!(
            std::panic::catch_unwind(check).is_err(),
            "corruption seeded in shard {k} went unseen"
        );
    }
}
