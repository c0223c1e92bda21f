//! Execution reports: what a workload run cost and where the time went.

/// The outcome of executing one (optimized) workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionReport {
    /// Wall-clock seconds spent actually running operations.
    pub compute_seconds: f64,
    /// Modelled seconds charged for loading reused artifacts from the
    /// Experiment Graph (see `CostModel` and DESIGN.md).
    pub load_seconds: f64,
    /// Seconds the server spent in the reuse planner (the paper's "reuse
    /// overhead", Figure 9(d)).
    pub optimizer_seconds: f64,
    /// Seconds the server spent in the whole publish section — the sum
    /// of the five `publish_*_seconds` phases below, of which the
    /// materialization algorithm proper is `publish_materialize_seconds`.
    pub materializer_seconds: f64,
    /// Publish phase: from entering the publish through acquiring the
    /// touched shards' write locks (admission checks included).
    pub publish_lock_wait_seconds: f64,
    /// Publish phase: noting which merged vertices are new, for the
    /// journal deltas (durable servers only).
    pub publish_capture_seconds: f64,
    /// Publish phase: merging the executed DAG into the graph.
    pub publish_merge_seconds: f64,
    /// Publish phase: the materializer, and the baseline-cost estimate.
    pub publish_materialize_seconds: f64,
    /// Publish phase: journaling the deltas and folding the stats.
    pub publish_persist_seconds: f64,
    /// Operations executed.
    pub ops_executed: usize,
    /// Artifacts loaded from the Experiment Graph.
    pub artifacts_loaded: usize,
    /// Nodes skipped entirely (pruned, already computed, or hidden behind
    /// a load).
    pub nodes_skipped: usize,
    /// Training operations that were warmstarted.
    pub warmstarts: usize,
    /// Quality of the best model trained in this run (0 if none).
    pub best_model_quality: f64,
    /// Transient-failure retries performed by the executor.
    pub retries: usize,
    /// Planned loads that missed the store and were recovered by
    /// recomputing the subtree instead.
    pub load_misses_recovered: usize,
    /// Operation panics caught and isolated as structured errors.
    pub panics_caught: usize,
    /// Vertices from a *failed* run that were still merged into the
    /// Experiment Graph (0 for successful runs; set by the server).
    pub salvaged_artifacts: usize,
    /// Vertices whose maintained recreation cost or potential the
    /// publish recomputed (the first ranking of a graph recomputes all).
    pub vertices_rescored: u64,
    /// Candidates the publish's utility ranking sorted.
    pub candidates_ranked: u64,
    /// Bytes of content the materializer read back from the store.
    pub materializer_bytes_read: u64,
}

impl ExecutionReport {
    /// Total client-visible run time: compute + charged loads.
    #[must_use]
    pub fn run_seconds(&self) -> f64 {
        self.compute_seconds + self.load_seconds
    }

    /// Total including server-side overheads.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.run_seconds() + self.optimizer_seconds + self.materializer_seconds
    }

    /// Set `materializer_seconds` to the sum of the publish phases.
    pub fn sum_publish_phases(&mut self) {
        self.materializer_seconds = self.publish_lock_wait_seconds
            + self.publish_capture_seconds
            + self.publish_merge_seconds
            + self.publish_materialize_seconds
            + self.publish_persist_seconds;
    }

    /// Merge another report into this one (for cumulative scenario runs).
    pub fn accumulate(&mut self, other: &ExecutionReport) {
        self.compute_seconds += other.compute_seconds;
        self.load_seconds += other.load_seconds;
        self.optimizer_seconds += other.optimizer_seconds;
        self.materializer_seconds += other.materializer_seconds;
        self.publish_lock_wait_seconds += other.publish_lock_wait_seconds;
        self.publish_capture_seconds += other.publish_capture_seconds;
        self.publish_merge_seconds += other.publish_merge_seconds;
        self.publish_materialize_seconds += other.publish_materialize_seconds;
        self.publish_persist_seconds += other.publish_persist_seconds;
        self.ops_executed += other.ops_executed;
        self.artifacts_loaded += other.artifacts_loaded;
        self.nodes_skipped += other.nodes_skipped;
        self.warmstarts += other.warmstarts;
        self.best_model_quality = self.best_model_quality.max(other.best_model_quality);
        self.retries += other.retries;
        self.load_misses_recovered += other.load_misses_recovered;
        self.panics_caught += other.panics_caught;
        self.salvaged_artifacts += other.salvaged_artifacts;
        self.vertices_rescored += other.vertices_rescored;
        self.candidates_ranked += other.candidates_ranked;
        self.materializer_bytes_read += other.materializer_bytes_read;
    }
}

/// What startup recovery found and repaired when a server was opened
/// from a data directory (see `OptimizerServer::open`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether any shard's snapshot file existed and loaded.
    pub snapshot_loaded: bool,
    /// Per-shard journal records applied on top of the snapshots: those
    /// beyond their shard's snapshot watermark *and* committed (every
    /// shard in the record's shard set holds it or covers it with a
    /// watermark). A publish touching k shards contributes k — count
    /// publishes with `committed_publishes`.
    pub journal_records_replayed: usize,
    /// Journal records skipped because they were already inside a shard
    /// snapshot's watermark or belonged to a publish that never
    /// committed (rolled back).
    pub journal_records_skipped: usize,
    /// Distinct committed sequence numbers found in the journals: the
    /// publishes (and evictions) since each shard's last compaction.
    pub committed_publishes: usize,
    /// Whether a journal tail was truncated: a torn record (crash
    /// mid-append) and/or the uncommitted records of a publish the
    /// crash interrupted.
    pub torn_tail_truncated: bool,
    /// Bytes discarded with the truncated tail(s).
    pub torn_bytes_discarded: u64,
    /// Quarantine entries re-installed from persistence.
    pub quarantine_restored: usize,
    /// Orphaned `*.tmp` snapshot files (crash mid-save) removed.
    pub stray_tmp_removed: usize,
}

impl RecoveryReport {
    /// Human-readable one-paragraph summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.snapshot_loaded {
            "recovery: snapshot loaded"
        } else {
            "recovery: no snapshot (fresh graph)"
        });
        out.push_str(&format!(
            ", {} journal record(s) replayed",
            self.journal_records_replayed
        ));
        if self.journal_records_skipped > 0 {
            out.push_str(&format!(
                ", {} uncommitted/covered record(s) skipped",
                self.journal_records_skipped
            ));
        }
        if self.committed_publishes > 0 {
            out.push_str(&format!(
                ", {} committed publish(es)",
                self.committed_publishes
            ));
        }
        if self.torn_tail_truncated {
            out.push_str(&format!(
                ", torn tail truncated ({} byte(s) discarded)",
                self.torn_bytes_discarded
            ));
        }
        if self.quarantine_restored > 0 {
            out.push_str(&format!(
                ", {} quarantine entr(ies) restored",
                self.quarantine_restored
            ));
        }
        if self.stray_tmp_removed > 0 {
            out.push_str(&format!(
                ", {} stray temp file(s) removed",
                self.stray_tmp_removed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_report_renders_what_happened() {
        let fresh = RecoveryReport::default();
        assert!(fresh.render().contains("fresh graph"));
        let busy = RecoveryReport {
            snapshot_loaded: true,
            journal_records_replayed: 4,
            journal_records_skipped: 2,
            committed_publishes: 3,
            torn_tail_truncated: true,
            torn_bytes_discarded: 17,
            quarantine_restored: 1,
            stray_tmp_removed: 2,
        };
        let text = busy.render();
        assert!(text.contains("snapshot loaded"));
        assert!(text.contains("4 journal record"));
        assert!(text.contains("2 uncommitted"));
        assert!(text.contains("3 committed publish"));
        assert!(text.contains("torn tail"));
        assert!(text.contains("17 byte"));
        assert!(text.contains("quarantine"));
        assert!(text.contains("temp file"));
    }

    #[test]
    fn totals_and_accumulation() {
        let mut a = ExecutionReport {
            compute_seconds: 1.0,
            load_seconds: 0.5,
            optimizer_seconds: 0.1,
            ops_executed: 3,
            best_model_quality: 0.7,
            ..ExecutionReport::default()
        };
        assert_eq!(a.run_seconds(), 1.5);
        assert!((a.total_seconds() - 1.6).abs() < 1e-12);
        let b = ExecutionReport {
            compute_seconds: 2.0,
            artifacts_loaded: 4,
            best_model_quality: 0.9,
            publish_merge_seconds: 0.25,
            vertices_rescored: 7,
            candidates_ranked: 3,
            materializer_bytes_read: 11,
            ..ExecutionReport::default()
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.compute_seconds, 5.0);
        assert_eq!(a.artifacts_loaded, 8);
        assert_eq!(a.best_model_quality, 0.9);
        assert_eq!(a.publish_merge_seconds, 0.5);
        assert_eq!(a.vertices_rescored, 14);
        assert_eq!(a.candidates_ranked, 6);
        assert_eq!(a.materializer_bytes_read, 22);
    }
}
