//! The optimizer must never change *what* a workload computes — only how.
//! Every system configuration (reuse planner x materializer) must produce
//! bit-identical terminal values for the same script.

use co_core::server::{MaterializerKind, ReuseKind};
use co_core::{CostModel, OptimizerServer, ServerConfig};
use co_graph::{NodeId, Value, WorkloadDag};
use co_workloads::data::{creditg, home_credit, HomeCreditScale};
use co_workloads::kaggle;
use co_workloads::openml;

fn terminal_values(dag: &WorkloadDag) -> Vec<(NodeId, Value)> {
    let mut out: Vec<(NodeId, Value)> = dag
        .terminals()
        .into_iter()
        .map(|t| {
            (
                t,
                dag.node(t)
                    .unwrap()
                    .computed
                    .clone()
                    .expect("terminal computed"),
            )
        })
        .collect();
    out.sort_by_key(|(t, _)| t.0);
    out
}

fn configs() -> Vec<(MaterializerKind, ReuseKind)> {
    vec![
        (MaterializerKind::None, ReuseKind::None),
        (MaterializerKind::StorageAware, ReuseKind::Linear),
        (MaterializerKind::Greedy, ReuseKind::Linear),
        (MaterializerKind::Helix, ReuseKind::Helix),
        (MaterializerKind::All, ReuseKind::AllMaterialized),
    ]
}

/// NaN-aware dataframe equality (float `NaN` = missing compares equal to
/// itself, as the engine intends).
fn frames_equal(a: &co_dataframe::DataFrame, b: &co_dataframe::DataFrame) -> bool {
    use co_dataframe::ColumnData;
    if a.n_rows() != b.n_rows() || a.n_cols() != b.n_cols() {
        return false;
    }
    a.columns().iter().zip(b.columns()).all(|(ca, cb)| {
        ca.name() == cb.name()
            && ca.id() == cb.id()
            && match (ca.data().as_ref(), cb.data().as_ref()) {
                (ColumnData::Float(x), ColumnData::Float(y)) => x
                    .iter()
                    .zip(y)
                    .all(|(u, v)| u == v || (u.is_nan() && v.is_nan())),
                (x, y) => x == y,
            }
    })
}

fn assert_equal_outputs(runs: &[(String, Vec<(NodeId, Value)>)]) {
    let (ref_name, reference) = &runs[0];
    for (name, values) in &runs[1..] {
        assert_eq!(
            values.len(),
            reference.len(),
            "{name} vs {ref_name}: terminal count"
        );
        for ((t_a, a), (t_b, b)) in values.iter().zip(reference) {
            assert_eq!(t_a, t_b);
            match (a, b) {
                (Value::Dataset(da), Value::Dataset(db)) => {
                    assert_eq!(da.column_ids(), db.column_ids(), "{name}: lineage differs");
                    assert!(
                        frames_equal(da, db),
                        "{name}: dataset content differs from {ref_name}"
                    );
                }
                (Value::Aggregate(sa), Value::Aggregate(sb)) => {
                    let (x, y) = (sa.as_f64().unwrap(), sb.as_f64().unwrap());
                    assert!(
                        (x - y).abs() < 1e-12 || (x.is_nan() && y.is_nan()),
                        "{name}: aggregate {x} != {y}"
                    );
                }
                (Value::Model(ma), Value::Model(mb)) => {
                    assert_eq!(ma.model, mb.model, "{name}: model differs");
                }
                _ => panic!("{name}: terminal kind mismatch"),
            }
        }
    }
}

#[test]
fn kaggle_w1_is_invariant_across_systems() {
    let data = home_credit(&HomeCreditScale::tiny());
    let mut runs = Vec::new();
    for (materializer, reuse) in configs() {
        let srv = OptimizerServer::new(ServerConfig {
            budget: u64::MAX,
            alpha: 0.5,
            materializer,
            reuse,
            cost: CostModel::memory(),
            warmstart: false,
            retry: co_core::RetryPolicy::default(),
            quarantine_after: Some(3),
            shards: 1,
        });
        // Warm the graph with related workloads first so reuse genuinely
        // kicks in before the workload under test.
        srv.run_workload(kaggle::w1(&data).unwrap()).unwrap();
        srv.run_workload(kaggle::w4(&data).unwrap()).unwrap();
        let (executed, _) = srv.run_workload(kaggle::w1(&data).unwrap()).unwrap();
        runs.push((
            format!("{materializer:?}/{reuse:?}"),
            terminal_values(&executed),
        ));
    }
    assert_equal_outputs(&runs);
}

#[test]
fn kaggle_w8_is_invariant_across_systems() {
    // W8 joins two other workloads' features: the hardest reuse surface.
    let data = home_credit(&HomeCreditScale::tiny());
    let mut runs = Vec::new();
    for (materializer, reuse) in configs() {
        let srv = OptimizerServer::new(ServerConfig {
            budget: u64::MAX,
            alpha: 0.5,
            materializer,
            reuse,
            cost: CostModel::memory(),
            warmstart: false,
            retry: co_core::RetryPolicy::default(),
            quarantine_after: Some(3),
            shards: 1,
        });
        srv.run_workload(kaggle::w1(&data).unwrap()).unwrap();
        srv.run_workload(kaggle::w2(&data).unwrap()).unwrap();
        let (executed, _) = srv.run_workload(kaggle::w8(&data).unwrap()).unwrap();
        runs.push((
            format!("{materializer:?}/{reuse:?}"),
            terminal_values(&executed),
        ));
    }
    assert_equal_outputs(&runs);
}

#[test]
fn openml_pipelines_are_invariant_across_systems() {
    let data = creditg(300, 0);
    for run_idx in [0u64, 3, 9] {
        let mut runs = Vec::new();
        for (materializer, reuse) in configs() {
            let srv = OptimizerServer::new(ServerConfig {
                budget: u64::MAX,
                alpha: 0.5,
                materializer,
                reuse,
                cost: CostModel::memory(),
                warmstart: false,
                retry: co_core::RetryPolicy::default(),
                quarantine_after: Some(3),
                shards: 1,
            });
            for warm in 0..run_idx.min(4) {
                srv.run_workload(openml::pipeline(&data, warm, 7).unwrap())
                    .unwrap();
            }
            let (executed, _) = srv
                .run_workload(openml::pipeline(&data, run_idx, 7).unwrap())
                .unwrap();
            runs.push((
                format!("{materializer:?}/{reuse:?}"),
                terminal_values(&executed),
            ));
        }
        assert_equal_outputs(&runs);
    }
}

#[test]
fn partial_budgets_do_not_change_results() {
    // Tight budgets force mixed load/recompute plans; outputs must still
    // be identical to the no-reuse reference.
    let data = home_credit(&HomeCreditScale::tiny());
    let reference = {
        let srv = OptimizerServer::new(ServerConfig::baseline());
        let (executed, _) = srv.run_workload(kaggle::w3(&data).unwrap()).unwrap();
        terminal_values(&executed)
    };
    for budget_shift in [14u32, 17, 20, 23] {
        let srv = OptimizerServer::new(ServerConfig::collaborative(1 << budget_shift));
        srv.run_workload(kaggle::w2(&data).unwrap()).unwrap();
        let (executed, _) = srv.run_workload(kaggle::w3(&data).unwrap()).unwrap();
        let runs = vec![
            ("baseline".to_owned(), reference.clone()),
            (
                format!("budget 2^{budget_shift}"),
                terminal_values(&executed),
            ),
        ];
        assert_equal_outputs(&runs);
    }
}
