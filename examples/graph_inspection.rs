//! Inspecting a live collaborative environment: the EXPLAIN view of an
//! incoming workload, the Experiment Graph's size and storage
//! statistics, and a Graphviz rendering of a workload DAG (paper
//! Figure 1).
//!
//! ```sh
//! cargo run --release -p co-workloads --example graph_inspection
//! ```

use co_core::{OptimizerServer, ServerConfig};
use co_graph::export::workload_to_dot;
use co_workloads::data::creditg;
use co_workloads::openml::pipeline;

fn main() {
    let data = creditg(1000, 0);
    let server = OptimizerServer::new(ServerConfig::collaborative(64 << 20));

    println!("simulating 40 community submissions...");
    for i in 0..40 {
        server
            .run_workload(pipeline(&data, i, 11).expect("builds"))
            .expect("runs");
    }

    // 1. EXPLAIN an incoming workload before running it.
    println!("\n== EXPLAIN: what would running pipeline #3 again cost? ==");
    let plan = server
        .explain(pipeline(&data, 3, 11).expect("builds"))
        .expect("plans");
    println!("{plan}");

    // 2. Graph dashboard.
    let (n_materialized, unique, logical) = server.storage_stats();
    println!("== Experiment Graph ==");
    println!(
        "{} vertices over {} shard(s), {} materialized",
        server.shards().view().n_vertices(),
        server.n_shards(),
        n_materialized
    );
    println!(
        "store: {:.2} MiB unique / {:.2} MiB logical",
        unique as f64 / (1 << 20) as f64,
        logical as f64 / (1 << 20) as f64
    );
    let lifetime = server.stats();
    println!(
        "lifetime: {} workloads, {} ops executed, {} artifacts served, ~{:.3}s saved",
        lifetime.workloads,
        lifetime.ops_executed,
        lifetime.artifacts_loaded,
        lifetime.seconds_saved()
    );

    // 3. Render a workload DAG for the paper's Figure-1-style view.
    let mut dag = pipeline(&data, 3, 11).expect("builds");
    dag.prune().expect("has terminals");
    let dot = workload_to_dot(&dag);
    let path = std::env::temp_dir().join("co_workload.dot");
    std::fs::write(&path, &dot).expect("writable temp dir");
    println!(
        "\nworkload DAG rendered to {} ({} bytes; `dot -Tpng` to view)",
        path.display(),
        dot.len()
    );
}
