//! `egfsck` — offline invariant checker for a durability directory.
//!
//! Detects the directory's shard count (`eg-<k>.egsnap` / `eg-<k>.wal`,
//! DESIGN.md §10), loads the per-shard snapshots (if any), replays the
//! write-ahead journals read-only to exactly the committed prefix (a
//! record counts iff every shard in its shard set holds it or covers it
//! with a snapshot watermark; a torn or uncommitted tail is reported,
//! never truncated), and checks every structural invariant of the
//! recovered shards — vertex routing and cross-shard edge symmetry
//! included — their content stores, and the persisted quarantine state.
//!
//! ```text
//! cargo run --example egfsck -- <data-dir> [--no-dedup] [--quiet]
//! ```
//!
//! Exit status: 0 when clean, 1 when violations were found, 2 on usage or
//! I/O errors — so the crash-matrix CI step can gate on it directly.

use co_graph::fsck;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut dedup = true;
    let mut quiet = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-dedup" => dedup = false,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: egfsck <data-dir> [--no-dedup] [--quiet]");
                return ExitCode::from(0);
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("egfsck: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: egfsck <data-dir> [--no-dedup] [--quiet]");
        return ExitCode::from(2);
    };
    if !dir.is_dir() {
        eprintln!("egfsck: {} is not a directory", dir.display());
        return ExitCode::from(2);
    }

    match fsck::check_data_dir(&dir, dedup) {
        Ok(report) => {
            if !quiet || !report.is_clean() {
                print!("{report}");
            }
            ExitCode::from(u8::from(!report.is_clean()))
        }
        Err(e) => {
            eprintln!("egfsck: {e}");
            ExitCode::from(2)
        }
    }
}
