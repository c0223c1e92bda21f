//! `co_perf` — see the crate documentation and `perf/README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match co_perf::main_with(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("co_perf: {e}");
            ExitCode::from(2)
        }
    }
}
