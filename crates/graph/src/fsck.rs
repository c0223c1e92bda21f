//! `egfsck` — the Experiment Graph invariant checker.
//!
//! The Experiment Graph is long-lived shared state mutated by concurrent
//! publishers, a materializer with eviction, a crash-recovery path, and a
//! dedup store with manual reference counting. This module recomputes
//! every structural invariant from first principles and reports each
//! discrepancy as a typed [`Violation`]:
//!
//! * **Topology** — the topological order covers every vertex exactly
//!   once, and every parent precedes its child (which also proves
//!   acyclicity);
//! * **Referential integrity** — parent/child links only name vertices
//!   the graph defines, and every link is symmetric;
//! * **Source invariant** — a vertex has no producing op-hash iff it is
//!   registered as a source, and op-hash-less vertices have no parents;
//! * **Content agreement** — every stored artifact and every restored
//!   `mat` flag refers to a vertex the graph knows;
//! * **Storage accounting** — byte counters and per-column reference
//!   counts recomputed from the dedup store's contents
//!   ([`StorageManager::audit`](crate::StorageManager::audit));
//! * **Attribute sanity** — frequencies are positive, compute times
//!   finite and non-negative, qualities in `[0, 1]`;
//! * **Quarantine** — persisted quarantine entries are unique and carry
//!   a positive failure count.
//!
//! * **Sharding** — every vertex lives in the shard its id hashes to,
//!   and the invariants above hold *across* shards.
//!
//! There is one checker, [`check_shards`], over a shard array; a plain
//! graph is the one-shard case ([`check_graph`],
//! [`check_with_quarantine`]). [`check_data_dir`] rebuilds the shards
//! from a durability directory (snapshots + committed-prefix journal
//! replay, read-only) and checks the result — the offline `egfsck` CLI
//! (`examples/egfsck.rs`) and the crash-matrix CI step use it. The
//! server runs the check after recovery, and after every whole-graph
//! publish, in debug builds.

use crate::error::Result;
use crate::experiment::{EgVertex, ExperimentGraph};
use crate::journal::QuarantineEntry;
use crate::shard::{self, shard_of};
use crate::storage::StorageManager;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Class of an invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsckCode {
    /// The topological order misses, duplicates, or invents vertices.
    TopoInconsistent,
    /// A parent does not precede its child in the topological order
    /// (includes cycles).
    OrderViolation,
    /// A parent/child link names a vertex the graph does not define.
    DanglingReference,
    /// A parent/child link present on one side only.
    AsymmetricLink,
    /// Source registration disagrees with the vertex's op-hash, or a
    /// source has parents.
    SourceInvariant,
    /// The store holds content for an artifact the graph does not know.
    StrayContent,
    /// A restored `mat` flag refers to a vertex the graph does not know.
    StrayRestoredFlag,
    /// The store's recomputed accounting disagrees with its counters.
    StorageAccounting,
    /// A vertex attribute is out of range (frequency, time, quality).
    BadAttribute,
    /// A quarantine entry is duplicated or carries no failures.
    QuarantineInvalid,
    /// A vertex lives in a shard other than the one its id hashes to.
    ShardMisrouted,
}

impl FsckCode {
    /// Stable kebab-case name, used in rendered reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FsckCode::TopoInconsistent => "topo-inconsistent",
            FsckCode::OrderViolation => "order-violation",
            FsckCode::DanglingReference => "dangling-reference",
            FsckCode::AsymmetricLink => "asymmetric-link",
            FsckCode::SourceInvariant => "source-invariant",
            FsckCode::StrayContent => "stray-content",
            FsckCode::StrayRestoredFlag => "stray-restored-flag",
            FsckCode::StorageAccounting => "storage-accounting",
            FsckCode::BadAttribute => "bad-attribute",
            FsckCode::QuarantineInvalid => "quarantine-invalid",
            FsckCode::ShardMisrouted => "shard-misrouted",
        }
    }
}

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violation class.
    pub code: FsckCode,
    /// What is wrong, naming the offending vertex/artifact ids.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code.name(), self.message)
    }
}

/// Result of one fsck pass.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every invariant violation found.
    pub violations: Vec<Violation>,
    /// Non-fatal observations (torn journal tail, replay statistics).
    pub notes: Vec<String>,
    /// Vertices examined.
    pub vertices: usize,
    /// Stored artifacts examined.
    pub artifacts: usize,
    /// Quarantine entries examined.
    pub quarantine_entries: usize,
}

impl FsckReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any violation of `code` was found.
    #[must_use]
    pub fn has(&self, code: FsckCode) -> bool {
        self.violations.iter().any(|v| v.code == code)
    }

    fn push(&mut self, code: FsckCode, message: String) {
        self.violations.push(Violation { code, message });
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "egfsck: {} vertices, {} stored artifacts, {} quarantine entries: {}",
            self.vertices,
            self.artifacts,
            self.quarantine_entries,
            if self.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Check every structural invariant of an in-memory Experiment Graph
/// (the one-shard case of [`check_shards`]).
#[must_use]
pub fn check_graph(eg: &ExperimentGraph) -> FsckReport {
    check_shards(&[eg], &[])
}

/// [`check_graph`] plus vetting of persisted quarantine entries.
#[must_use]
pub fn check_with_quarantine(eg: &ExperimentGraph, quarantine: &[QuarantineEntry]) -> FsckReport {
    check_shards(&[eg], quarantine)
}

/// Offline check of a durability directory at whatever shard count it
/// was written with (see [`check_sharded_data_dir`]).
pub fn check_data_dir(dir: &Path, dedup: bool) -> Result<FsckReport> {
    check_sharded_data_dir(dir, detect_shard_layout(dir).unwrap_or(1), dedup)
}

/// Detect a data directory's shard count: the number of contiguous
/// `eg-<k>.wal` / `eg-<k>.egsnap` pairs starting at shard 0. Returns
/// `None` for an empty (never opened) directory.
#[must_use]
pub fn detect_shard_layout(dir: &Path) -> Option<usize> {
    let mut n = 0;
    while dir.join(shard::shard_journal_file(n)).exists()
        || dir.join(shard::shard_snapshot_file(n)).exists()
    {
        n += 1;
    }
    (n > 0).then_some(n)
}

/// Check every structural invariant across the shards of an
/// Experiment Graph, plus the sharding invariants themselves: each
/// vertex must live in the shard its id hashes to, and parent/child
/// links must resolve and be symmetric *across* shards. Per-shard
/// topological order is validated within each shard (parents in the
/// same shard must precede their children; cross-shard edges have no
/// single order to check — acyclicity there follows from referential
/// integrity plus each edge's parent being published no later than its
/// child).
#[must_use]
pub fn check_shards(shards: &[&ExperimentGraph], quarantine: &[QuarantineEntry]) -> FsckReport {
    let n = shards.len();
    let mut report = FsckReport {
        vertices: shards.iter().map(|s| s.n_vertices()).sum(),
        artifacts: shards.iter().map(|s| s.storage().n_artifacts()).sum(),
        ..FsckReport::default()
    };
    // Resolve an id to its vertex via the owning shard — the only place
    // it may legally live.
    let find = |id: crate::artifact::ArtifactId| -> Option<&EgVertex> {
        shards[shard_of(id, n)].vertex(id).ok()
    };

    for (k, eg) in shards.iter().enumerate() {
        // Per-shard topological order: covers this shard's vertices
        // exactly once.
        let mut position: HashMap<_, usize> = HashMap::with_capacity(eg.n_vertices());
        for (pos, id) in eg.topo_order().iter().enumerate() {
            if !eg.contains(*id) {
                report.push(
                    FsckCode::TopoInconsistent,
                    format!("shard {k} topo order names unknown vertex {:016x}", id.0),
                );
            }
            if position.insert(*id, pos).is_some() {
                report.push(
                    FsckCode::TopoInconsistent,
                    format!(
                        "vertex {:016x} appears twice in shard {k}'s topo order",
                        id.0
                    ),
                );
            }
        }
        if eg.topo_order().len() != eg.n_vertices() {
            report.push(
                FsckCode::TopoInconsistent,
                format!(
                    "shard {k} topo order covers {} of {} vertices",
                    eg.topo_order().len(),
                    eg.n_vertices()
                ),
            );
        }
        let sources: HashSet<_> = eg.sources().iter().copied().collect();
        if sources.len() != eg.sources().len() {
            report.push(
                FsckCode::SourceInvariant,
                format!(
                    "shard {k} source list has {} entries but only {} distinct ids",
                    eg.sources().len(),
                    sources.len()
                ),
            );
        }

        for v in eg.vertices() {
            // The sharding invariant itself.
            let home = shard_of(v.id, n);
            if home != k {
                report.push(
                    FsckCode::ShardMisrouted,
                    format!(
                        "vertex {:016x} lives in shard {k} but hashes to shard {home}",
                        v.id.0
                    ),
                );
            }
            let my_pos = position.get(&v.id);

            for p in v.parents.iter().collect::<HashSet<_>>() {
                match find(*p) {
                    None => report.push(
                        FsckCode::DanglingReference,
                        format!(
                            "vertex {:016x} (shard {k}) lists unknown parent {:016x}",
                            v.id.0, p.0
                        ),
                    ),
                    Some(pv) => {
                        if shard_of(*p, n) == k {
                            if let (Some(my), Some(theirs)) = (my_pos, position.get(p)) {
                                if theirs >= my {
                                    report.push(
                                        FsckCode::OrderViolation,
                                        format!(
                                            "parent {:016x} does not precede child {:016x} in shard {k}'s topo order",
                                            p.0, v.id.0
                                        ),
                                    );
                                }
                            }
                        }
                        if !pv.children.contains(&v.id) {
                            report.push(
                                FsckCode::AsymmetricLink,
                                format!(
                                    "vertex {:016x} lists parent {:016x}, which does not list it as a child",
                                    v.id.0, p.0
                                ),
                            );
                        }
                    }
                }
            }
            for c in &v.children {
                match find(*c) {
                    None => report.push(
                        FsckCode::DanglingReference,
                        format!(
                            "vertex {:016x} (shard {k}) lists unknown child {:016x}",
                            v.id.0, c.0
                        ),
                    ),
                    Some(cv) => {
                        if !cv.parents.contains(&v.id) {
                            report.push(
                                FsckCode::AsymmetricLink,
                                format!(
                                    "vertex {:016x} lists child {:016x}, which does not list it as a parent",
                                    v.id.0, c.0
                                ),
                            );
                        }
                    }
                }
            }

            let is_source = sources.contains(&v.id);
            if v.op_hash.is_none() != is_source {
                report.push(
                    FsckCode::SourceInvariant,
                    format!(
                        "vertex {:016x} has {} op-hash but is {}registered as a source",
                        v.id.0,
                        if v.op_hash.is_none() { "no" } else { "an" },
                        if is_source { "" } else { "not " }
                    ),
                );
            }
            if v.op_hash.is_none() && !v.parents.is_empty() {
                report.push(
                    FsckCode::SourceInvariant,
                    format!(
                        "source vertex {:016x} has {} parent(s)",
                        v.id.0,
                        v.parents.len()
                    ),
                );
            }
            if v.frequency == 0 {
                report.push(
                    FsckCode::BadAttribute,
                    format!("vertex {:016x} has frequency 0", v.id.0),
                );
            }
            if !v.compute_time.is_finite() || v.compute_time < 0.0 {
                report.push(
                    FsckCode::BadAttribute,
                    format!("vertex {:016x} has compute time {}", v.id.0, v.compute_time),
                );
            }
            if !v.quality.is_finite() || !(0.0..=1.0).contains(&v.quality) {
                report.push(
                    FsckCode::BadAttribute,
                    format!("vertex {:016x} has quality {}", v.id.0, v.quality),
                );
            }
        }

        for id in eg.storage().materialized_ids() {
            if !eg.contains(id) {
                report.push(
                    FsckCode::StrayContent,
                    format!(
                        "shard {k}'s store holds content for artifact {:016x}, which it does not define",
                        id.0
                    ),
                );
            }
        }
        for id in eg.restored_materialized() {
            if !eg.contains(*id) {
                report.push(
                    FsckCode::StrayRestoredFlag,
                    format!(
                        "shard {k}'s restored mat flag refers to artifact {:016x}, which it does not define",
                        id.0
                    ),
                );
            }
        }
        for message in eg.storage().audit() {
            report.push(FsckCode::StorageAccounting, format!("shard {k}: {message}"));
        }
    }

    // Cross-shard dedup accounting: the shared vault's refcounts and
    // byte counter, recomputed across every shard's store.
    if let Some(vault) = shards.first().and_then(|s| s.storage().vault()) {
        let managers: Vec<&StorageManager> = shards.iter().map(|s| s.storage()).collect();
        for message in vault.audit(&managers) {
            report.push(FsckCode::StorageAccounting, message);
        }
    }

    // A quarantined op-hash legitimately names an operation absent from
    // the graph (it never succeeded), so membership is *not* checked —
    // only uniqueness and a positive failure count.
    report.quarantine_entries = quarantine.len();
    let mut seen = HashSet::with_capacity(quarantine.len());
    for q in quarantine {
        if !seen.insert(q.op_hash) {
            report.push(
                FsckCode::QuarantineInvalid,
                format!(
                    "op {:016x} ({}) is quarantined more than once",
                    q.op_hash, q.name
                ),
            );
        }
        if q.failures == 0 {
            report.push(
                FsckCode::QuarantineInvalid,
                format!(
                    "op {:016x} ({}) is quarantined with zero recorded failures",
                    q.op_hash, q.name
                ),
            );
        }
    }
    report
}

/// Offline check of a durability directory: reconstruct exactly the
/// committed prefix ([`shard::recover_shards`], strictly read-only —
/// unlike server recovery, torn tails are *reported* as notes, never
/// truncated) and run [`check_shards`] over the result.
pub fn check_sharded_data_dir(dir: &Path, n_shards: usize, dedup: bool) -> Result<FsckReport> {
    let recovery = shard::recover_shards(dir, n_shards, dedup)?;
    let refs: Vec<&ExperimentGraph> = recovery.graphs.iter().collect();
    let mut report = check_shards(&refs, &recovery.quarantine);
    for (parent, child) in &recovery.unresolved_links {
        report.push(
            FsckCode::DanglingReference,
            format!(
                "recovered vertex {:016x} lists parent {:016x}, which no shard defines",
                child.0, parent.0
            ),
        );
    }
    report.notes.push(format!(
        "{} shard(s): {} committed publish(es), {} journal record(s) applied, {} skipped (pre-watermark or uncommitted)",
        recovery.graphs.len(),
        recovery.committed_publishes,
        recovery.deltas_applied,
        recovery.deltas_skipped,
    ));
    for (path, at, discarded) in &recovery.torn {
        report.notes.push(format!(
            "{} has a torn or uncommitted tail at byte {at} ({discarded} byte(s) would be discarded on recovery)",
            path.display()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactId, NodeKind};
    use crate::operation::Operation;
    use crate::value::Value;
    use crate::workload::WorkloadDag;
    use co_dataframe::Scalar;
    use std::sync::Arc;

    struct Step(&'static str, f64);

    impl Operation for Step {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            co_dataframe::hash::float_digest(self.1)
        }
        fn output_kind(&self) -> NodeKind {
            NodeKind::Dataset
        }
        fn run(&self, _inputs: &[&Value]) -> Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(self.1)))
        }
    }

    /// src -> a -> b, src -> c; all annotated.
    fn healthy_graph() -> (ExperimentGraph, Vec<ArtifactId>) {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag.add_op(Arc::new(Step("a", 1.0)), &[s]).unwrap();
        let b = dag.add_op(Arc::new(Step("b", 2.0)), &[a]).unwrap();
        let c = dag.add_op(Arc::new(Step("c", 3.0)), &[s]).unwrap();
        dag.mark_terminal(b).unwrap();
        dag.mark_terminal(c).unwrap();
        for (n, t) in [(a, 1.0), (b, 2.0), (c, 3.0)] {
            dag.annotate(n, t, 10).unwrap();
        }
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        let ids = dag.nodes().iter().map(|n| n.artifact).collect();
        (eg, ids)
    }

    #[test]
    fn healthy_graph_is_clean() {
        let (eg, _) = healthy_graph();
        let report = check_graph(&eg);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.vertices, 4);
    }

    #[test]
    fn dangling_parent_is_detected() {
        let (mut eg, ids) = healthy_graph();
        eg.vertex_mut(ids[1]).unwrap().parents = vec![ArtifactId(0xdead)];
        let report = check_graph(&eg);
        assert!(report.has(FsckCode::DanglingReference), "{report}");
        // The old parent still lists us as a child: asymmetric too.
        assert!(report.has(FsckCode::AsymmetricLink), "{report}");
    }

    #[test]
    fn rewired_edge_breaking_topo_order_is_detected() {
        let (mut eg, ids) = healthy_graph();
        // Make `a` (position 1) claim the later `c` (position 3) as a
        // parent: order violation (the shape a cycle would take).
        eg.vertex_mut(ids[1]).unwrap().parents.push(ids[3]);
        let report = check_graph(&eg);
        assert!(report.has(FsckCode::OrderViolation), "{report}");
    }

    #[test]
    fn asymmetric_child_link_is_detected() {
        let (mut eg, ids) = healthy_graph();
        eg.vertex_mut(ids[0])
            .unwrap()
            .children
            .retain(|c| *c != ids[1]);
        let report = check_graph(&eg);
        assert!(report.has(FsckCode::AsymmetricLink), "{report}");
    }

    #[test]
    fn source_invariant_is_detected() {
        let (mut eg, ids) = healthy_graph();
        // A derived vertex masquerading as a source.
        eg.vertex_mut(ids[2]).unwrap().op_hash = None;
        let report = check_graph(&eg);
        assert!(report.has(FsckCode::SourceInvariant), "{report}");
    }

    #[test]
    fn bad_attributes_are_detected() {
        let (mut eg, ids) = healthy_graph();
        eg.vertex_mut(ids[1]).unwrap().frequency = 0;
        eg.vertex_mut(ids[2]).unwrap().quality = 2.0;
        eg.vertex_mut(ids[3]).unwrap().compute_time = f64::NAN;
        let report = check_graph(&eg);
        let bad = report
            .violations
            .iter()
            .filter(|v| v.code == FsckCode::BadAttribute)
            .count();
        assert_eq!(bad, 3, "{report}");
    }

    #[test]
    fn stray_content_and_restored_flags_are_detected() {
        let (mut eg, _) = healthy_graph();
        eg.storage_mut()
            .store(ArtifactId(0xbeef), &Value::Aggregate(Scalar::Float(1.0)));
        eg.mark_restored_materialized(ArtifactId(0xfeed));
        let report = check_graph(&eg);
        assert!(report.has(FsckCode::StrayContent), "{report}");
        assert!(report.has(FsckCode::StrayRestoredFlag), "{report}");
    }

    #[test]
    fn quarantine_duplicates_and_zero_failures_are_detected() {
        let (eg, _) = healthy_graph();
        let q = |h: u64, f: usize| QuarantineEntry {
            op_hash: h,
            name: "op".to_owned(),
            failures: f,
        };
        let report = check_with_quarantine(&eg, &[q(1, 2), q(1, 2), q(2, 0)]);
        let bad = report
            .violations
            .iter()
            .filter(|v| v.code == FsckCode::QuarantineInvalid)
            .count();
        assert_eq!(bad, 2, "{report}");
        // Hashes never seen by the graph are fine by design.
        assert!(check_with_quarantine(&eg, &[q(0xabc, 1)]).is_clean());
    }

    #[test]
    fn sharded_check_validates_routing_and_cross_shard_links() {
        use crate::shard::{rewire_children, shard_of};
        let n = 4;
        let mk = |id: u64, parents: &[u64]| EgVertex {
            id: ArtifactId(id),
            kind: NodeKind::Dataset,
            frequency: 1,
            compute_time: 0.1,
            size: 8,
            quality: 0.0,
            description: String::new(),
            source_name: parents.is_empty().then(|| "src".to_owned()),
            op_hash: (!parents.is_empty()).then_some(id ^ 7),
            parents: parents.iter().copied().map(ArtifactId).collect(),
            children: Vec::new(),
        };
        let mut graphs: Vec<ExperimentGraph> = (0..n).map(|_| ExperimentGraph::new(true)).collect();
        let (p, c) = (3u64, 5u64);
        assert_ne!(shard_of(ArtifactId(p), n), shard_of(ArtifactId(c), n));
        graphs[shard_of(ArtifactId(p), n)]
            .restore_vertex_unlinked(mk(p, &[]))
            .unwrap();
        graphs[shard_of(ArtifactId(c), n)]
            .restore_vertex_unlinked(mk(c, &[p]))
            .unwrap();
        let unresolved = rewire_children(&mut graphs);
        assert!(unresolved.is_empty());
        let refs: Vec<&ExperimentGraph> = graphs.iter().collect();
        let report = check_shards(&refs, &[]);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.vertices, 2);

        // Plant a vertex in the wrong shard: routing *and* the now
        // half-visible links trip.
        let wrong = (shard_of(ArtifactId(7), n) + 1) % n;
        graphs[wrong].restore_vertex_unlinked(mk(7, &[])).unwrap();
        let refs: Vec<&ExperimentGraph> = graphs.iter().collect();
        let report = check_shards(&refs, &[]);
        assert!(report.has(FsckCode::ShardMisrouted), "{report}");
    }

    #[test]
    fn self_join_duplicate_parents_are_legal() {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let j = dag
            .add_op(Arc::new(Step("selfjoin", 1.0)), &[s, s])
            .unwrap();
        dag.mark_terminal(j).unwrap();
        dag.annotate(j, 1.0, 10).unwrap();
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        let report = check_graph(&eg);
        assert!(report.is_clean(), "{report}");
    }
}
