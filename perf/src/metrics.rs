//! The metric names this benchmark prints — the same names, units and
//! directions `BENCHMARK.json` declares (a test keeps the two in step).

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; every workload reports every one,
/// always from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("workloads_per_s", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("latency_p95_ms", "ms"),
    lower("rerun_s", "s"),
    lower("store_ratio", "bytes/byte"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer metrics from the traced run. A metric that does not
/// apply to a workload (`serve.*` on an in-process workload) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("perf.first_run_s", "s"),
    higher("perf.latency_samples", "count"),
    higher("perf.latency_supported_percentile", "%"),
    lower("perf.trace_overhead_fraction", "ratio"),
    higher("perf.trace_coverage", "ratio"),
    higher("perf.cpu_speed_ratio", "ratio"),
    lower("workloads.datagen.busy_s", "s"),
    lower("core.dsl.busy_s", "s"),
    lower("core.prune.busy_s", "s"),
    lower("core.prune.calls", "count"),
    lower("core.plan.busy_s", "s"),
    lower("core.plan.optimizer_s", "s"),
    lower("core.execute.busy_s", "s"),
    lower("core.execute.ops_executed", "count"),
    higher("core.execute.artifacts_loaded", "count"),
    higher("core.execute.nodes_skipped", "count"),
    higher("core.execute.warmstarts", "count"),
    lower("core.execute.retries", "count"),
    lower("core.publish.busy_s", "s"),
    lower("core.publish.materializer_s", "s"),
    lower("core.publish.lock_wait_s", "s"),
    higher("core.reuse_ratio", "ratio"),
    higher("core.saved_fraction", "ratio"),
    lower("dataframe.join.busy_s", "s"),
    lower("dataframe.groupby.busy_s", "s"),
    lower("dataframe.other.busy_s", "s"),
    lower("dataframe.ops", "count"),
    lower("ml.train.busy_s", "s"),
    lower("ml.train.count", "count"),
    lower("ml.transform.busy_s", "s"),
    lower("graph.eg.vertices", "count"),
    lower("graph.store.artifacts", "count"),
    lower("graph.store.unique_bytes", "bytes"),
    lower("graph.store.logical_bytes", "bytes"),
    lower("graph.durability.write_bytes", "bytes"),
    lower("graph.durability.write_syscalls", "count"),
    lower("graph.durability.dir_bytes", "bytes"),
    lower("graph.durability.compactions", "count"),
    lower("graph.shard.lock_wait_max_share", "ratio"),
    lower("graph.recovery.open_s", "s"),
    lower("graph.recovery.records_replayed", "count"),
    lower("graph.recovery.snapshot_bytes", "bytes"),
    lower("serve.ping_rtt_p50_us", "us"),
    lower("serve.codec.busy_s", "s"),
    lower("serve.compile.busy_s", "s"),
    lower("serve.queue.wait_s", "s"),
    higher("serve.submitted", "count"),
    higher("serve.served", "count"),
    lower("serve.rejected_overload", "count"),
    lower("serve.timed_out", "count"),
    lower("serve.protocol_errors", "count"),
    lower("serve.open.low.p95_ms", "ms"),
    lower("serve.open.high.p95_ms", "ms"),
    lower("serve.open.mid.p99_ms", "ms"),
    higher("serve.max_rate_under_slo_rps", "1/s"),
    lower("serve.generator_late_p95_ms", "ms"),
];

/// Values collected during a run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Pair every declared metric with its collected value. An end-to-end
/// metric must have been collected; a per-layer one defaults to 0 (it
/// does not apply to this workload). A collected name that is not
/// declared, or a value that is not finite, is an error.
///
/// # Errors
///
/// A description of the first undeclared, missing or non-finite value.
pub fn resolve(
    defs: &'static [MetricDef],
    values: &Values,
    required: bool,
) -> Result<Vec<(MetricDef, f64)>, String> {
    if let Some(stray) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric {stray} is collected but not declared"));
    }
    defs.iter()
        .map(|def| {
            let value = match values.get(def.name) {
                Some(v) => *v,
                None if required => return Err(format!("metric {} was not collected", def.name)),
                None => 0.0,
            };
            if value.is_finite() {
                Ok((*def, value))
            } else {
                Err(format!("metric {} is not finite ({value})", def.name))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries under `"<section>": [` of `BENCHMARK.json`.
    fn entries<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("closing bracket")];
        body.split('{').skip(1).collect()
    }

    /// The string value of `"<key>": "<value>"` in one entry.
    fn field(entry: &str, key: &str) -> String {
        let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("opening quote") + 1;
        let len = rest[open..].find('"').expect("closing quote");
        rest[open..open + len].to_owned()
    }

    fn declared(json: &str, section: &str) -> Vec<(String, String, bool)> {
        entries(json, section)
            .into_iter()
            .map(|e| {
                (
                    field(e, "name"),
                    field(e, "unit"),
                    field(e, "better") == "higher",
                )
            })
            .collect()
    }

    fn tabled(defs: &[MetricDef]) -> Vec<(String, String, bool)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.higher_is_better))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(declared(json, "end_to_end"), tabled(END_TO_END));
        assert_eq!(declared(json, "per_layer"), tabled(PER_LAYER));
        let workloads: Vec<String> = entries(json, "workloads")
            .into_iter()
            .map(|e| field(e, "name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(all.iter().all(|name| name.len() <= 64));
    }

    #[test]
    fn resolve_fills_defaults_and_rejects_strays() {
        let mut values = Values::new();
        values.insert("core.prune.calls", 3.0);
        let resolved = resolve(PER_LAYER, &values, false).unwrap();
        assert_eq!(resolved.len(), PER_LAYER.len());
        assert!(resolved
            .iter()
            .any(|(d, v)| d.name == "core.prune.calls" && *v == 3.0));
        assert!(resolve(END_TO_END, &values, true).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(resolve(END_TO_END, &values, true).is_err());
    }
}
