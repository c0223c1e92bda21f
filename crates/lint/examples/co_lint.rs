//! `co_lint` — the workspace concurrency & durability analyzer CLI.
//!
//! ```text
//! cargo run -p co-lint --example co_lint -- [--json] [workspace root]
//! ```
//!
//! Scans every `crates/*/src/**/*.rs` file under the workspace root
//! (default: the current directory) with the eight-rule catalog (see
//! `DESIGN.md` §14) and prints `file:line: [rule] message` per
//! violation, or a single JSON document with `--json`.
//!
//! Exit codes, mirroring `egfsck`:
//!
//! * `0` — clean (all rules pass; suppressions all carry reasons)
//! * `1` — violations found
//! * `2` — usage or I/O error

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: co_lint [--json] [workspace root]");
                return ExitCode::from(0);
            }
            _ if arg.starts_with('-') => {
                eprintln!("co_lint: unknown flag `{arg}` (usage: co_lint [--json] [root])");
                return ExitCode::from(2);
            }
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => {
                eprintln!("co_lint: more than one root given");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let report = match co_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("co_lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", co_lint::to_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "co_lint: {} file(s) scanned, {} violation(s), {} suppressed",
            report.files_scanned,
            report.diagnostics.len(),
            report.suppressed
        );
    }
    #[allow(clippy::cast_sign_loss)] // lint:reason exit_code is 0 or 1 by construction
    ExitCode::from(report.exit_code() as u8)
}
