//! Artifact materialization under a storage budget (paper §5).
//!
//! Materializers run inside the server's updater after each workload:
//! they decide which artifact contents to keep, evict what no longer
//! earns its bytes, and store what does when the just-executed workload
//! holds the content. A publish costs work in proportion to what it
//! changed, not to the size of the Experiment Graph: the graph maintains
//! every vertex's recreation cost and potential and the pool of
//! candidates whose utility can be nonzero
//! ([`ExperimentGraph::candidates`]), so ranking re-sorts the pool
//! instead of rescoring every vertex; and the storage-aware simulation
//! replays the ranking against column ids and byte counts
//! ([`co_graph::Footprint`]) taken from the workload's values and the
//! store's artifact table. No materializer reads content back from the
//! store. The full-pass ranking and simulation survive as the
//! [`oracle`] that debug builds check every single-shard publish
//! against.

mod greedy;
mod helix;
#[cfg(any(test, debug_assertions))]
pub mod oracle;
mod simple;
mod storage_aware;

pub use greedy::GreedyMaterializer;
pub use helix::HelixMaterializer;
pub use simple::{AllMaterializer, NoneMaterializer};
pub use storage_aware::StorageAwareMaterializer;

use crate::cost::CostModel;
use crate::server::{MaterializerKind, ServerConfig};
use co_graph::{ArtifactId, ExperimentGraph, Value};
use std::collections::{HashMap, HashSet};

/// A materialization strategy.
pub trait Materializer: Send + Sync {
    /// Short name used in reports ("HM", "SA", "HL", "ALL", "NONE").
    fn name(&self) -> &'static str;

    /// Decide and apply materialization. `available` maps artifact ids to
    /// contents produced by the workload that just executed.
    fn run(
        &self,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    );
}

/// The materializer a server configuration asks for.
#[must_use]
pub fn for_config(config: &ServerConfig) -> Box<dyn Materializer> {
    match config.materializer {
        MaterializerKind::StorageAware => Box::new(StorageAwareMaterializer {
            budget: config.budget,
            alpha: config.alpha,
        }),
        MaterializerKind::Greedy => Box::new(GreedyMaterializer {
            budget: config.budget,
            alpha: config.alpha,
            max_artifacts: None,
        }),
        MaterializerKind::GreedyCapped(n) => Box::new(GreedyMaterializer {
            budget: config.budget,
            alpha: config.alpha,
            max_artifacts: Some(n),
        }),
        MaterializerKind::Helix => Box::new(HelixMaterializer {
            budget: config.budget,
        }),
        MaterializerKind::All => Box::new(AllMaterializer),
        MaterializerKind::None => Box::new(NoneMaterializer),
    }
}

/// A scored materialization candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub id: ArtifactId,
    /// Nominal (un-deduplicated) content size.
    pub size: u64,
    /// Utility `U(v)` from Equation 2.
    pub utility: f64,
    /// Normalized cost-size ratio (tie-breaker for equal utilities:
    /// among the ancestors of the best model — which all share its
    /// potential — the cheapest-to-store, costliest-to-recreate vertex,
    /// i.e. the model itself, wins).
    pub rcs_norm: f64,
}

/// A candidate's raw utility terms: potential `p` and weighted
/// cost-size ratio `rcs = f·Cr/s`.
pub(crate) struct Raw {
    pub id: ArtifactId,
    pub size: u64,
    pub p: f64,
    pub rcs: f64,
}

/// Compute the utility of every candidate vertex (paper §5.2,
/// Equation 2):
///
/// `U(v) = 0` when `Cl(v) >= Cr(v)` (recomputing beats loading — never
/// materialize), otherwise `α·p'(v) + (1-α)·r'cs(v)` with `p` the model
/// potential, `rcs = f·Cr/s` the weighted cost-size ratio, both normalized
/// by their totals. Zero-utility vertices (and sources and scalar
/// aggregates) are not in the graph's candidate pool. The result is
/// sorted by descending utility (ties broken by id for determinism).
///
/// Scalar aggregates are excluded: an 8-byte score whose recreation cost
/// is the whole pipeline has an unbounded cost-size ratio and would
/// degenerate the ranking; the paper's materialization targets are
/// datasets and models (§5.1's metrics are column overlap and model
/// quality).
pub(crate) fn utilities(eg: &mut ExperimentGraph, cost: &CostModel, alpha: f64) -> Vec<Candidate> {
    let raw = eg
        .candidates(cost)
        .into_iter()
        .map(|s| Raw {
            id: s.vertex.id,
            size: s.vertex.size,
            p: s.potential,
            rcs: s.vertex.frequency as f64 * s.recreation_cost / s.vertex.size as f64,
        })
        .collect();
    rank(raw, alpha)
}

/// Normalize and sort candidates. `raw` is in ascending id order, and
/// `Σp` and `Σrcs` are summed in that order, so the utilities do not
/// depend on how the candidates were found. The whole pool is re-sorted
/// on every call: the two normalizers differ, so when `Σp : Σrcs` moves
/// two candidates whose `p` and `rcs` disagree can swap.
pub(crate) fn rank(raw: Vec<Raw>, alpha: f64) -> Vec<Candidate> {
    let p_sum: f64 = raw.iter().map(|r| r.p).sum();
    let rcs_sum: f64 = raw.iter().map(|r| r.rcs).sum();
    let mut out: Vec<Candidate> = raw
        .into_iter()
        .map(|r| {
            let p_norm = if p_sum > 0.0 { r.p / p_sum } else { 0.0 };
            let rcs_norm = if rcs_sum > 0.0 { r.rcs / rcs_sum } else { 0.0 };
            Candidate {
                id: r.id,
                size: r.size,
                utility: alpha * p_norm + (1.0 - alpha) * rcs_norm,
                rcs_norm,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.utility
            .partial_cmp(&a.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                b.rcs_norm
                    .partial_cmp(&a.rcs_norm)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.id.cmp(&b.id))
    });
    out
}

/// Content for an artifact the materializer is about to store: only the
/// just-executed workload's values qualify (an artifact already in the
/// store needs no content to stay there).
pub(crate) fn content_of(available: &HashMap<ArtifactId, Value>, id: ArtifactId) -> Option<Value> {
    available.get(&id).cloned()
}

/// Bytes the always-stored source artifacts occupy, by vertex size.
/// Sources are stored unconditionally by the updater (paper §3.2) and are
/// never evicted; they count against the budget like every other
/// materialized vertex (`Σ mat·s <= B`).
pub(crate) fn source_store_bytes(eg: &ExperimentGraph) -> u64 {
    eg.sources()
        .iter()
        .filter(|id| eg.is_materialized(**id))
        .filter_map(|id| eg.vertex(*id).ok().map(|v| v.size))
        .sum()
}

/// Evict every stored non-source artifact outside `desired`.
pub(crate) fn evict_except(eg: &mut ExperimentGraph, desired: &HashSet<ArtifactId>) {
    let sources: HashSet<ArtifactId> = eg.sources().iter().copied().collect();
    let stored = eg.storage().materialized_ids();
    for id in stored {
        if !desired.contains(&id) && !sources.contains(&id) {
            eg.storage_mut().evict(id);
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for materializer tests: a small Experiment Graph
    //! with controllable sizes, costs, frequencies, and model qualities.

    use co_dataframe::Scalar;
    use co_graph::{ArtifactId, ExperimentGraph, NodeKind, Operation, Value, WorkloadDag};
    use std::collections::HashMap;
    use std::sync::Arc;

    pub struct Tag(pub &'static str, pub NodeKind);
    impl Operation for Tag {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            self.1
        }
        fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(0.0)))
        }
    }

    /// Specification of one derived vertex: (label, compute seconds,
    /// size bytes, model quality or 0).
    pub type Spec = (&'static str, f64, u64, f64);

    /// Build an EG with one source feeding a chain of vertices per spec,
    /// returning the EG (dedup per flag), the artifact ids in spec order,
    /// and an `available` map holding content for every artifact.
    pub fn chain_eg(
        specs: &[Spec],
        dedup: bool,
    ) -> (ExperimentGraph, Vec<ArtifactId>, HashMap<ArtifactId, Value>) {
        let mut dag = WorkloadDag::new();
        let mut prev = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let mut nodes = Vec::new();
        for (label, _, _, q) in specs {
            let kind = if *q > 0.0 {
                NodeKind::Model
            } else {
                NodeKind::Dataset
            };
            let n = dag.add_op(Arc::new(Tag(label, kind)), &[prev]).unwrap();
            nodes.push(n);
            prev = n;
        }
        dag.mark_terminal(prev).unwrap();
        for (n, (_, t, s, q)) in nodes.iter().zip(specs) {
            dag.annotate(*n, *t, *s).unwrap();
            dag.node_mut(*n).unwrap().quality = *q;
            // Give every node a content value (size is tracked by the
            // vertex attribute, not the content, in these tests).
            dag.set_computed(*n, Value::Aggregate(Scalar::Float(0.0)))
                .unwrap();
            // set_computed overwrote the size annotation; restore it.
            dag.node_mut(*n).unwrap().size = Some(*s);
        }
        let mut eg = ExperimentGraph::new(dedup);
        eg.update_with_workload(&dag).unwrap();
        let ids: Vec<ArtifactId> = nodes.iter().map(|n| dag.nodes()[n.0].artifact).collect();
        let available: HashMap<ArtifactId, Value> = ids
            .iter()
            .map(|id| (*id, Value::Aggregate(Scalar::Float(0.0))))
            .collect();
        (eg, ids, available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::chain_eg;

    /// Unit cost model where Cl(v) = size in seconds-per-byte 1.
    fn unit() -> CostModel {
        CostModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1.0,
        }
    }

    #[test]
    fn utility_zero_when_load_beats_recompute() {
        // b is huge relative to its recreation cost -> excluded.
        let (mut eg, ids, _) = chain_eg(&[("a", 10.0, 2, 0.0), ("b", 0.5, 1000, 0.0)], false);
        let cands = utilities(&mut eg, &unit(), 0.5);
        assert!(cands.iter().any(|c| c.id == ids[0]));
        assert!(!cands.iter().any(|c| c.id == ids[1]));
    }

    #[test]
    fn quality_raises_utility_with_alpha() {
        // Same cost/size, but m is a model with quality 0.9.
        let (mut eg, ids, _) = chain_eg(&[("a", 10.0, 2, 0.0), ("m", 10.0, 2, 0.9)], false);
        // alpha = 1: only potential matters. The ancestor `a` also carries
        // the model's potential, so both are tied; `m` itself must be
        // strictly ahead of nothing. With alpha = 0 they tie on rcs by
        // construction? a has Cr = 10, m has Cr = 20 -> different.
        let by_quality = utilities(&mut eg, &unit(), 1.0);
        assert_eq!(
            by_quality.first().map(|c| c.utility),
            Some(by_quality[1].utility)
        );
        let by_cost = utilities(&mut eg, &unit(), 0.0);
        // With alpha = 0 the deeper vertex (larger Cr) wins.
        assert_eq!(by_cost[0].id, ids[1]);
        assert!(by_cost[0].utility > by_cost[1].utility);
    }

    #[test]
    fn frequencies_weight_the_cost_ratio() {
        let (mut eg, ids, _) = chain_eg(&[("a", 10.0, 2, 0.0), ("b", 10.0, 2, 0.0)], false);
        // Artificially bump a's frequency.
        eg.vertex_mut(ids[0]).unwrap().frequency = 10;
        let cands = utilities(&mut eg, &unit(), 0.0);
        assert_eq!(cands[0].id, ids[0]);
    }

    #[test]
    fn eviction_spares_sources_and_desired() {
        let (mut eg, ids, available) = chain_eg(&[("a", 10.0, 2, 0.0), ("b", 10.0, 2, 0.0)], false);
        for id in &ids {
            let v = content_of(&available, *id).unwrap();
            eg.storage_mut().store(*id, &v);
        }
        let keep: HashSet<ArtifactId> = [ids[1]].into_iter().collect();
        evict_except(&mut eg, &keep);
        assert!(!eg.is_materialized(ids[0]));
        assert!(eg.is_materialized(ids[1]));
        // The source stays.
        let src = eg.sources()[0];
        assert!(eg.is_materialized(src));
    }
}
