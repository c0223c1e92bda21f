//! Output checks: the benchmark only counts a run whose results are
//! right.

use co_dataframe::{Column, DataFrame};
use co_graph::{NodeId, Value, WorkloadDag};

/// The computed terminal values of an executed DAG, in node order.
///
/// # Errors
///
/// Names the first terminal that has no value.
pub fn terminal_values(dag: &WorkloadDag) -> Result<Vec<(NodeId, Value)>, String> {
    let mut out = Vec::new();
    for t in dag.terminals() {
        let value = dag
            .node(t)
            .ok()
            .and_then(|n| n.computed.clone())
            .ok_or_else(|| format!("terminal {} has no value", t.0))?;
        out.push((t, value));
    }
    out.sort_by_key(|(t, _)| t.0);
    Ok(out)
}

/// Two floats with the same bits, or both missing (`NaN`).
fn same_float(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Name, lineage id and every row equal; float rows by [`same_float`].
fn columns_equal(a: &Column, b: &Column) -> bool {
    match (a.floats(), b.floats()) {
        (Ok(x), Ok(y)) => {
            a.name() == b.name()
                && a.id() == b.id()
                && x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| same_float(*p, *q))
        }
        _ => a == b,
    }
}

fn frames_equal(a: &DataFrame, b: &DataFrame) -> bool {
    a.n_rows() == b.n_rows()
        && a.n_cols() == b.n_cols()
        && a.columns()
            .iter()
            .zip(b.columns())
            .all(|(ca, cb)| columns_equal(ca, cb))
}

/// Compare a run's terminal values with the reference run's: datasets
/// bit-identical with identical lineage, aggregates bit-identical
/// (`NaN` = `NaN`), models equal.
///
/// # Errors
///
/// Describes the first difference.
pub fn same_terminals(got: &[(NodeId, Value)], want: &[(NodeId, Value)]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} terminals, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for ((t, a), (u, b)) in got.iter().zip(want) {
        if t != u {
            return Err(format!("terminal {} where the reference has {}", t.0, u.0));
        }
        let same = match (a, b) {
            (Value::Dataset(x), Value::Dataset(y)) => frames_equal(x, y),
            (Value::Aggregate(x), Value::Aggregate(y)) => match (x.as_f64(), y.as_f64()) {
                (Some(p), Some(q)) => same_float(p, q),
                _ => x == y,
            },
            (Value::Model(x), Value::Model(y)) => x.model == y.model,
            _ => false,
        };
        if !same {
            return Err(format!(
                "terminal {} ({}) differs from the reference",
                t.0,
                a.kind().name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_dataframe::{ColumnData, Scalar};

    fn frame(values: Vec<f64>) -> Value {
        Value::dataset(
            DataFrame::new(vec![Column::source("t", "x", ColumnData::Float(values))]).unwrap(),
        )
    }

    #[test]
    fn equal_values_pass_nan_aware() {
        let a = vec![
            (NodeId(1), frame(vec![1.0, f64::NAN])),
            (NodeId(2), Value::Aggregate(Scalar::Float(f64::NAN))),
        ];
        let b = vec![
            (NodeId(1), frame(vec![1.0, f64::NAN])),
            (NodeId(2), Value::Aggregate(Scalar::Float(f64::NAN))),
        ];
        assert_eq!(same_terminals(&a, &b), Ok(()));
    }

    #[test]
    fn a_perturbed_reference_fails() {
        let got = vec![(NodeId(1), Value::Aggregate(Scalar::Float(0.75)))];
        let want = vec![(NodeId(1), Value::Aggregate(Scalar::Float(0.75 + 1e-12)))];
        assert!(same_terminals(&got, &want).is_err());
        let got = vec![(NodeId(1), frame(vec![1.0, 2.0]))];
        let want = vec![(NodeId(1), frame(vec![1.0, 2.000_000_1]))];
        assert!(same_terminals(&got, &want).is_err());
        assert!(same_terminals(&got, &[]).is_err());
        let want = vec![(NodeId(1), Value::Aggregate(Scalar::Float(1.0)))];
        assert!(same_terminals(&got, &want).is_err());
    }
}
