//! # co-bench
//!
//! The benchmark harness: one module (and one binary) per table/figure of
//! the paper's evaluation (§7), plus Criterion microbenchmarks under
//! `benches/`.
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1`  | Table 1 — workload artifact counts and sizes |
//! | `figure4` | repeated executions of W1–W3 under CO/HL/KG |
//! | `figure5` | cumulative run time of W1–W8 under CO/KG/HL |
//! | `figure6` | real materialized size per budget and materializer |
//! | `figure7` | total run time and speedup per materializer/budget |
//! | `figure8` | model-benchmarking: CO vs OML, and the α sweep |
//! | `figure9` | reuse comparison and LN-vs-HL planner overhead |
//! | `figure10`| warmstarting: run time and cumulative Δ accuracy |
//! | `run_all` | everything above |
//!
//! Each run prints its series and writes TSV files under
//! `target/figures/`. Pass `--full` for paper-scale workload counts
//! (e.g. 10 000 synthetic DAGs, 2000 OpenML pipelines); the default is a
//! faster configuration with the same shape.

#![forbid(unsafe_code)]

pub mod figures;

use std::fs;
use std::path::PathBuf;

/// Output directory for TSV series (`target/figures`).
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).expect("can create target/figures");
    dir
}

/// Write a TSV file under [`out_dir`] and echo its path.
pub fn write_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut text = header.join("\t");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join("\t"));
        text.push('\n');
    }
    let path = out_dir().join(name);
    fs::write(&path, text).expect("can write TSV");
    println!("  -> wrote {}", path.display());
}

/// True when `--full` was passed (paper-scale run counts).
#[must_use]
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The budget grid: the paper's {8, 16, 32, 64} GB out of a ~130 GB ALL
/// footprint, expressed as fractions of our measured footprint.
pub const BUDGET_GRID: [(&str, f64); 4] = [
    ("8GB", 0.0625),
    ("16GB", 0.125),
    ("32GB", 0.25),
    ("64GB", 0.5),
];

/// Render seconds with 3 decimals.
#[must_use]
pub fn s3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_exists_and_tsv_written() {
        write_tsv("selftest.tsv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let text = fs::read_to_string(out_dir().join("selftest.tsv")).unwrap();
        assert_eq!(text, "a\tb\n1\t2\n");
    }
}
