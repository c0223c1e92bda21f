//! The storage-aware materializer (paper §5.3): Algorithm 1 plus
//! column-level deduplication, applied as the paper's greedy
//! meta-algorithm — "while the budget is not exhausted ... apply Algorithm
//! 1 ... compress the materialized artifacts ... update the remaining
//! budget ... repeat until no new vertices are materialized or the updated
//! budget is zero."
//!
//! The budget constrains the *unique* (deduplicated) bytes physically
//! held; the nominal size of the materialized artifacts can exceed it by
//! a large factor (Figure 6 of the paper reports up to 8x).

use super::{content_of, evict_except, utilities, Materializer};
use crate::cost::CostModel;
use co_dataframe::ColumnId;
use co_graph::{ArtifactId, ExperimentGraph, Footprint, Value};
use std::collections::{HashMap, HashSet};

/// The paper's `SA` materializer. Requires an Experiment Graph whose
/// store was created with deduplication enabled.
#[derive(Debug, Clone, Copy)]
pub struct StorageAwareMaterializer {
    /// Budget on unique bytes held.
    pub budget: u64,
    /// Quality-vs-cost trade-off `α`.
    pub alpha: f64,
}

impl StorageAwareMaterializer {
    /// Constructor with the paper's default `α = 0.5`.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        StorageAwareMaterializer { budget, alpha: 0.5 }
    }
}

/// The simulated store: the column ids a set of artifacts would hold and
/// the unique bytes they would take, kept without any content. It
/// accounts exactly as the store does — a column id is paid for once,
/// anything stored whole is paid for in full.
#[derive(Debug, Default)]
pub(crate) struct ColumnLedger {
    columns: HashSet<ColumnId>,
    unique_bytes: u64,
}

impl ColumnLedger {
    pub(crate) fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    /// Bytes admitting `footprint` would add.
    pub(crate) fn marginal_bytes(&self, footprint: &Footprint) -> u64 {
        match footprint {
            Footprint::Whole(bytes) => *bytes,
            Footprint::Columns(columns) => columns
                .iter()
                .filter(|(id, _)| !self.columns.contains(id))
                .map(|(_, bytes)| bytes)
                .sum(),
        }
    }

    pub(crate) fn admit(&mut self, footprint: &Footprint) {
        match footprint {
            Footprint::Whole(bytes) => self.unique_bytes += bytes,
            Footprint::Columns(columns) => {
                for (id, bytes) in columns {
                    if self.columns.insert(*id) {
                        self.unique_bytes += bytes;
                    }
                }
            }
        }
    }
}

impl Materializer for StorageAwareMaterializer {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn run(
        &self,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) {
        let ranked = utilities(eg, cost, self.alpha);

        // Determine the desired materialized set by *simulating* the
        // deduplicated store: walk the utility ranking and admit every
        // artifact whose marginal (deduplicated) bytes still fit.
        //
        // This computes the fixpoint of the paper's greedy meta-algorithm
        // ("apply Algorithm 1, compress, update the remaining budget,
        // repeat") in one pass: an artifact admitted by a later
        // meta-round — because earlier artifacts' columns already pay for
        // most of its bytes — is exactly an artifact whose marginal size
        // fits here. The set is decided *before* any eviction.
        //
        // The simulation needs column ids and byte counts, not content:
        // a candidate's footprint comes from the workload's value when
        // it has one, else from the store's artifact table. It mirrors
        // the real store's dedup mode: on a plain store footprints are
        // whole, marginal bytes equal nominal bytes, and SA degrades to
        // exactly the greedy (HM) selection — the ablation in DESIGN.md.
        let store = eg.storage();
        let mut ledger = ColumnLedger::default();
        // Sources are stored unconditionally and count against the budget.
        for src in eg.sources() {
            if let Some(footprint) = store.stored_footprint(*src) {
                ledger.admit(&footprint);
            }
        }
        let mut desired: Vec<ArtifactId> = Vec::new();
        for c in &ranked {
            let footprint = match available.get(&c.id) {
                Some(value) => store.footprint_of(value),
                None => match store.stored_footprint(c.id) {
                    Some(footprint) => footprint,
                    None => continue,
                },
            };
            if ledger.unique_bytes() + ledger.marginal_bytes(&footprint) <= self.budget {
                ledger.admit(&footprint);
                desired.push(c.id);
            }
        }

        // Displacement: artifacts outside the desired set lose their
        // slot (this is what makes the paper's Figure 6(a) dip after
        // Workload 3 possible).
        let keep: HashSet<ArtifactId> = desired.iter().copied().collect();
        evict_except(eg, &keep);
        // A desired artifact is either stored already or in `available`.
        for id in desired {
            if !eg.is_materialized(id) {
                if let Some(value) = content_of(available, id) {
                    eg.storage_mut().store(id, &value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_dataframe::ops::MapFn;
    use co_dataframe::{ops as df_ops, Column, ColumnData, DataFrame};
    use co_graph::{NodeKind, Operation, Value, WorkloadDag};
    use std::sync::Arc;

    fn unit() -> CostModel {
        CostModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1e12,
        }
    }

    /// A real dataframe pipeline where derived artifacts share most
    /// columns with their inputs, so dedup packs far more than the
    /// budget's worth of nominal bytes.
    struct MapTag(&'static str);
    impl Operation for MapTag {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            NodeKind::Dataset
        }
        fn run(&self, inputs: &[&Value]) -> co_graph::Result<Value> {
            let df = inputs[0].as_dataset().unwrap();
            Ok(Value::dataset(
                df_ops::map_column(df, "base", &MapFn::AddConst(1.0), self.0).unwrap(),
            ))
        }
    }

    fn overlapping_pipeline() -> (ExperimentGraph, Vec<ArtifactId>, HashMap<ArtifactId, Value>) {
        let base = DataFrame::new(vec![Column::source(
            "src",
            "base",
            ColumnData::Float((0..1000).map(f64::from).collect()),
        )])
        .unwrap();
        let mut dag = WorkloadDag::new();
        let mut prev = dag.add_source("src", Value::dataset(base));
        let mut nodes = Vec::new();
        for label in ["d1", "d2", "d3", "d4"] {
            let n = dag.add_op(Arc::new(MapTag(label)), &[prev]).unwrap();
            nodes.push(n);
            prev = n;
        }
        dag.mark_terminal(prev).unwrap();
        // Execute by hand to fill values and annotations.
        for n in &nodes {
            let edge_inputs = dag.parents(*n);
            let input = dag.nodes()[edge_inputs[0].0].computed.clone().unwrap();
            let op = Arc::clone(&dag.producer(*n).unwrap().op);
            let out = op.run(&[&input]).unwrap();
            let size = out.nbytes() as u64;
            dag.set_computed(*n, out).unwrap();
            dag.annotate(*n, 10.0, size).unwrap();
            // annotate cleared nothing; keep both annotations.
            let node = dag.node_mut(*n).unwrap();
            node.compute_time = Some(10.0);
        }
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        let ids: Vec<ArtifactId> = nodes.iter().map(|n| dag.nodes()[n.0].artifact).collect();
        let available: HashMap<ArtifactId, Value> = nodes
            .iter()
            .map(|n| {
                (
                    dag.nodes()[n.0].artifact,
                    dag.nodes()[n.0].computed.clone().unwrap(),
                )
            })
            .collect();
        (eg, ids, available)
    }

    #[test]
    fn dedup_packs_more_than_the_nominal_budget() {
        let (mut eg, ids, available) = overlapping_pipeline();
        // Each artifact nominally holds the 8 KB base column plus i
        // derived 8 KB columns; the nominal total is 120 KB while the
        // unique bytes of everything are only 40 KB.
        let source = eg.storage().unique_bytes(); // base frame, 8 KB
        let one = eg.vertex(ids[0]).unwrap().size; // 16 KB
        let budget = source + 2 * one; // nominal room for ~2 artifacts
        let sa = StorageAwareMaterializer::new(budget);
        sa.run(&mut eg, &available, &unit());
        let stored = ids.iter().filter(|id| eg.is_materialized(**id)).count();
        assert_eq!(stored, 4, "dedup should fit all overlapping artifacts");
        assert!(eg.storage().unique_bytes() <= budget);
        assert!(eg.storage().logical_bytes() > budget);
    }

    #[test]
    fn budget_is_a_hard_cap_on_unique_bytes() {
        let (mut eg, _, available) = overlapping_pipeline();
        // Sources are stored unconditionally; they are the floor.
        let floor = eg.storage().unique_bytes();
        for budget in [1_000u64, 10_000, 100_000] {
            let sa = StorageAwareMaterializer::new(budget);
            sa.run(&mut eg, &available, &unit());
            assert!(
                eg.storage().unique_bytes() <= budget.max(floor),
                "budget {budget}: held {}",
                eg.storage().unique_bytes()
            );
        }
    }

    #[test]
    fn displacement_can_shrink_the_logical_footprint() {
        let (mut eg, ids, mut available) = overlapping_pipeline();
        let source = eg.storage().unique_bytes();
        let one = eg.vertex(ids[0]).unwrap().size;
        let sa = StorageAwareMaterializer::new(source + 2 * one);
        sa.run(&mut eg, &available, &unit());
        let logical_before = eg.storage().logical_bytes();
        assert!(logical_before > 0);

        // A new, huge, high-utility artifact with no overlap arrives.
        let big = DataFrame::new(vec![Column::source(
            "other",
            "wide",
            ColumnData::Float((0..1500).map(f64::from).collect()),
        )])
        .unwrap();
        let mut dag2 = WorkloadDag::new();
        let src2 = dag2.add_source("other", Value::dataset(big));
        let n = dag2.add_op(Arc::new(MapTagBig), &[src2]).unwrap();
        dag2.mark_terminal(n).unwrap();
        let input = dag2.nodes()[src2.0].computed.clone().unwrap();
        let out = MapTagBig.run(&[&input]).unwrap();
        let size = out.nbytes() as u64;
        dag2.set_computed(n, out.clone()).unwrap();
        dag2.annotate(n, 1_000.0, size).unwrap();
        eg.update_with_workload(&dag2).unwrap();
        available.insert(dag2.nodes()[n.0].artifact, out);

        sa.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(dag2.nodes()[n.0].artifact));
        // The big artifact displaced overlapping ones; since it shares no
        // columns, fewer artifacts fit and the logical footprint drops.
        assert!(eg.storage().logical_bytes() < logical_before + size);
    }

    struct MapTagBig;
    impl Operation for MapTagBig {
        fn name(&self) -> &str {
            "big_transform"
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            NodeKind::Dataset
        }
        fn run(&self, inputs: &[&Value]) -> co_graph::Result<Value> {
            let df = inputs[0].as_dataset().unwrap();
            Ok(Value::dataset(
                df_ops::map_column(df, "wide", &MapFn::MulConst(2.0), "wide").unwrap(),
            ))
        }
    }
}
