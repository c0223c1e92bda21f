//! Drives the benchmark end to end at `--smoke` sizes: every workload in
//! both modes, the printed names against the declared tables, the output
//! checks failing when they should, and the binary's exit codes.

use co_perf::metrics::{END_TO_END, PER_LAYER};
use co_perf::{run, Args, Workload};
use std::process::{Command, Stdio};

fn args(workload: Workload, trace: bool, perturb: bool) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: co_perf::REFERENCE_SECONDS,
        trace,
        smoke: true,
        perturb,
    }
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    for workload in Workload::ALL {
        let untraced = run(&args(workload, false, false)).unwrap();
        assert!(
            untraced.correct,
            "{}: {:?}",
            workload.name(),
            untraced.check_failures
        );
        assert_eq!(untraced.failed, 0);
        assert!(untraced.attempted >= 1);
        let names: Vec<&str> = untraced.metrics.iter().map(|(d, _)| d.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        for (def, value) in &untraced.metrics {
            assert!(*value > 0.0, "{} {} = {value}", workload.name(), def.name);
        }

        let traced = run(&args(workload, true, false)).unwrap();
        assert!(
            traced.correct,
            "{}: {:?}",
            workload.name(),
            traced.check_failures
        );
        let names: Vec<&str> = traced.metrics.iter().map(|(d, _)| d.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // Root spans account for the time the client threads were in
        // their timed loops.
        let coverage = value("perf.trace_coverage");
        assert!(
            (0.9..=1.05).contains(&coverage),
            "{} coverage {coverage}",
            workload.name()
        );
        // The serve layer only shows up on the workload that goes through it.
        let served = value("serve.served");
        assert_eq!(served > 0.0, workload == Workload::ServeMix);
        // Only the durable workloads write.
        let durable = matches!(workload, Workload::DurablePublish | Workload::ServeMix);
        assert_eq!(value("graph.durability.dir_bytes") > 0.0, durable);
    }
}

#[test]
fn a_perturbed_reference_makes_every_workload_incorrect() {
    for workload in Workload::ALL {
        let result = run(&args(workload, false, true)).unwrap();
        assert!(!result.correct, "{} did not notice", workload.name());
        assert!(!result.check_failures.is_empty());
    }
}

/// Run the binary on the smallest durable workload; returns its output
/// and its process id.
fn co_perf(extra: &[&str]) -> (std::process::Output, u32) {
    let child = Command::new(env!("CARGO_BIN_EXE_co_perf"))
        .args(["--workload", "durable_publish", "--seed", "5", "--smoke"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let pid = child.id();
    (child.wait_with_output().unwrap(), pid)
}

#[test]
fn the_binary_prints_the_result_line_last_and_exits_by_correctness() {
    let (ok, _) = co_perf(&["--seconds", "16", "--trace", "0"]);
    assert_eq!(ok.status.code(), Some(0));
    let stdout = String::from_utf8(ok.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.ends_with("}}"));
    for def in END_TO_END {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", def.name)),
            "{}",
            def.name
        );
        assert!(stdout.contains(&format!("durable_publish {} ", def.name)));
    }

    let (wrong, _) = co_perf(&["--perturb-reference"]);
    assert_eq!(wrong.status.code(), Some(1));
    assert!(String::from_utf8(wrong.stdout)
        .unwrap()
        .contains("{\"correct\": false"));

    let (unusable, _) = co_perf(&["--frobnicate"]);
    assert_eq!(unusable.status.code(), Some(2));
    assert!(unusable.stdout.is_empty());
}

#[test]
fn a_traced_run_writes_its_spans() {
    let (out, pid) = co_perf(&["--trace", "1"]);
    assert_eq!(out.status.code(), Some(0));
    // Tests run with the package as working directory, so the default
    // target directory is `target/` beside the manifest.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = co_perf::trace_path(
        &std::path::Path::new(&target).join("perf"),
        Workload::DurablePublish,
    );
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(trace.starts_with("[\n{\"id\": 0, \"name\": \""));
    for name in [
        "submit",
        "core.prune",
        "core.plan",
        "core.execute",
        "core.publish",
    ] {
        assert!(trace.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    // The process removed its scratch directory (data dirs, journals).
    let scratch: Vec<_> = std::fs::read_dir(path.with_file_name("tmp"))
        .map(|entries| entries.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    let prefix = format!("{pid}-");
    assert!(!scratch
        .iter()
        .any(|name| name.to_string_lossy().starts_with(&prefix)));
}
