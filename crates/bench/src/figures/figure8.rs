//! Figure 8: the effect of model quality on materialization.
//!
//! (a) The model-benchmarking scenario over the OpenML pipeline stream:
//! cumulative run time of CO (storage-aware, α = 0.5) vs the OML baseline
//! that re-executes the gold standard from scratch. Reproduced shape:
//! CO several times faster.
//!
//! (b) With the budget restricted to **one artifact**, sweep
//! α ∈ {0, 0.1, 0.25, 0.5, 0.75, 0.9}: the cumulative-run-time *delta*
//! against α = 1 (which always materializes the gold model). Reproduced
//! shape: larger α materializes the gold standard sooner and plateaus
//! earlier/lower.

use crate::{full_scale, write_tsv};
use co_core::server::{MaterializerKind, ReuseKind};
use co_core::{CostModel, OptimizerServer, ServerConfig};
use co_workloads::data::creditg;
use co_workloads::openml::model_benchmark_scenario;

fn scenario_cumulative(
    server: &OptimizerServer,
    data: &co_workloads::data::CreditG,
    n: usize,
) -> Vec<f64> {
    let steps = model_benchmark_scenario(server, data, n, 31).expect("scenario runs");
    super::assert_graph_clean(server);
    steps
        .iter()
        .scan(0.0, |acc, s| {
            *acc += s.run_seconds;
            Some(*acc)
        })
        .collect()
}

/// Run and print Figure 8.
pub fn run() {
    let n = if full_scale() { 2000 } else { 400 };
    println!("== Figure 8: quality-based materialization ({n} OpenML workloads) ==");
    let data = creditg(1000, 0);

    // (a) CO vs OML.
    let co = OptimizerServer::new(ServerConfig {
        budget: 100 << 20, // the paper's 100 MB OpenML budget
        ..ServerConfig::collaborative(0)
    });
    let oml = OptimizerServer::new(ServerConfig::baseline());
    println!("(a) running CO...");
    let co_cum = scenario_cumulative(&co, &data, n);
    println!("(a) running OML...");
    let oml_cum = scenario_cumulative(&oml, &data, n);
    let improvement = oml_cum.last().unwrap() / co_cum.last().unwrap().max(1e-12);
    println!(
        "(a) cumulative: CO {:.2}s vs OML {:.2}s ({improvement:.1}x)",
        co_cum.last().unwrap(),
        oml_cum.last().unwrap()
    );
    let rows: Vec<Vec<String>> = (0..n)
        .step_by((n / 100).max(1))
        .map(|i| {
            vec![
                i.to_string(),
                format!("{:.4}", co_cum[i]),
                format!("{:.4}", oml_cum[i]),
            ]
        })
        .collect();
    write_tsv(
        "figure8a.tsv",
        &["workload", "co_cum_s", "oml_cum_s"],
        &rows,
    );

    // (b) alpha sweep with a one-artifact budget.
    println!("(b) alpha sweep (budget = one artifact)...");
    let alphas = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut curves = Vec::new();
    for &alpha in &alphas {
        let server = OptimizerServer::new(ServerConfig {
            budget: u64::MAX,
            alpha,
            materializer: MaterializerKind::GreedyCapped(1),
            reuse: ReuseKind::Linear,
            cost: CostModel::memory(),
            warmstart: false,
            retry: co_core::RetryPolicy::default(),
            quarantine_after: Some(3),
            shards: 1,
        });
        let cum = scenario_cumulative(&server, &data, n);
        println!(
            "    alpha={alpha:<4} cumulative {:.2}s",
            cum.last().unwrap()
        );
        curves.push(cum);
    }
    let reference = curves.last().expect("alpha=1 curve").clone();
    let mut rows = Vec::new();
    for i in (0..n).step_by((n / 100).max(1)) {
        let mut row = vec![i.to_string()];
        for curve in &curves[..curves.len() - 1] {
            row.push(format!("{:.4}", curve[i] - reference[i]));
        }
        rows.push(row);
    }
    write_tsv(
        "figure8b.tsv",
        &[
            "workload", "d_a0.0", "d_a0.1", "d_a0.25", "d_a0.5", "d_a0.75", "d_a0.9",
        ],
        &rows,
    );
    println!(
        "(b) final deltas to alpha=1: {:?}",
        curves[..curves.len() - 1]
            .iter()
            .map(|c| (c.last().unwrap() - reference.last().unwrap()) as f32)
            .collect::<Vec<_>>()
    );
}
