//! The full-pass materialization oracle: the ranking and the
//! storage-aware simulation as the paper writes them, recomputed from
//! scratch — `Cr` and `p` by one pass over the whole graph, every vertex
//! scanned for candidacy, the dedup simulation run on a fresh
//! [`StorageManager`] holding reassembled content. Debug builds check
//! every single-shard publish against it (`OptimizerServer`'s
//! materialize step), and `tests/reference_model.rs` materializes its
//! bare graph with it.

use super::{rank, Candidate, Materializer, Raw};
use crate::cost::CostModel;
use crate::server::{MaterializerKind, ServerConfig};
use co_graph::{ArtifactId, ExperimentGraph, NodeKind, StorageManager, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// [`super::utilities`] by a full pass: every vertex scanned, `Cr` and
/// `p` from [`ExperimentGraph::recreation_costs`] and
/// [`ExperimentGraph::potentials`].
pub(crate) fn utilities(eg: &ExperimentGraph, cost: &CostModel, alpha: f64) -> Vec<Candidate> {
    let recreation = eg.recreation_costs();
    let potential = eg.potentials();
    let sources: HashSet<ArtifactId> = eg.sources().iter().copied().collect();
    let mut raw: Vec<Raw> = Vec::new();
    for v in eg.vertices() {
        if sources.contains(&v.id) || v.size == 0 || v.kind == NodeKind::Aggregate {
            continue;
        }
        let cr = recreation[&v.id];
        if cost.load_cost(v.size) >= cr {
            continue; // Equation 2: utility 0, never materialize
        }
        raw.push(Raw {
            id: v.id,
            size: v.size,
            p: potential[&v.id],
            rcs: v.frequency as f64 * cr / v.size as f64,
        });
    }
    raw.sort_by_key(|r| r.id);
    rank(raw, alpha)
}

/// The configured materializer, recomputed from scratch.
#[derive(Debug, Clone, Copy)]
pub struct FullPass {
    /// Which algorithm.
    pub kind: MaterializerKind,
    /// Storage budget in bytes.
    pub budget: u64,
    /// Quality-vs-cost trade-off `α`.
    pub alpha: f64,
}

impl FullPass {
    /// The oracle for a server configuration's materializer.
    #[must_use]
    pub fn of(config: &ServerConfig) -> Self {
        FullPass {
            kind: config.materializer,
            budget: config.budget,
            alpha: config.alpha,
        }
    }

    /// The materialized set a run over `eg` and `available` leaves
    /// behind, computed without changing the graph.
    #[must_use]
    pub fn expected(
        &self,
        eg: &ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) -> BTreeSet<ArtifactId> {
        let stored: BTreeSet<ArtifactId> = eg.storage().materialized_ids().into_iter().collect();
        let stored_sources = || {
            stored
                .iter()
                .filter(|id| eg.sources().contains(id))
                .copied()
        };
        let at_hand = |id: ArtifactId| available.contains_key(&id) || eg.is_materialized(id);
        match self.kind {
            MaterializerKind::None => stored,
            MaterializerKind::All => stored.iter().chain(available.keys()).copied().collect(),
            MaterializerKind::Helix => {
                let recreation = eg.recreation_costs();
                let mut used: u64 = stored
                    .iter()
                    .filter_map(|id| eg.vertex(*id).ok().map(|v| v.size))
                    .sum();
                let mut out = stored.clone();
                for id in eg.topo_order() {
                    let Ok(v) = eg.vertex(*id) else { continue };
                    if eg.sources().contains(id) || stored.contains(id) || v.size == 0 {
                        continue;
                    }
                    if recreation[id] > 2.0 * cost.load_cost(v.size)
                        && used + v.size <= self.budget
                        && available.contains_key(id)
                    {
                        out.insert(*id);
                        used += v.size;
                    }
                }
                out
            }
            MaterializerKind::Greedy | MaterializerKind::GreedyCapped(_) => {
                let cap = match self.kind {
                    MaterializerKind::GreedyCapped(n) => Some(n),
                    _ => None,
                };
                let mut used = super::source_store_bytes(eg);
                let mut picked = Vec::new();
                for c in utilities(eg, cost, self.alpha) {
                    if cap.is_some_and(|m| picked.len() >= m) {
                        break;
                    }
                    if at_hand(c.id) && used + c.size <= self.budget {
                        used += c.size;
                        picked.push(c.id);
                    }
                }
                stored_sources().chain(picked).collect()
            }
            MaterializerKind::StorageAware => {
                let store = eg.storage();
                let mut sim = StorageManager::new(store.dedup_enabled());
                for src in eg.sources() {
                    if let Some(value) = store.peek(*src) {
                        sim.store(*src, &value);
                    }
                }
                let mut picked = Vec::new();
                for c in utilities(eg, cost, self.alpha) {
                    let Some(value) = available.get(&c.id).cloned().or_else(|| store.peek(c.id))
                    else {
                        continue;
                    };
                    if sim.unique_bytes() + sim.marginal_bytes(&value) <= self.budget {
                        sim.store(c.id, &value);
                        picked.push(c.id);
                    }
                }
                stored_sources().chain(picked).collect()
            }
        }
    }

    /// Check a graph the configured materializer just ran on against a
    /// full recompute: the maintained `Cr` and `p` bit for bit, the
    /// candidate order, and the materialized set (`expected`, from
    /// [`FullPass::expected`] before the run). Returns one line per
    /// disagreement.
    pub fn check(
        &self,
        eg: &mut ExperimentGraph,
        expected: &BTreeSet<ArtifactId>,
        cost: &CostModel,
    ) -> Vec<String> {
        let mut out = Vec::new();
        eg.refresh_scores();
        let recreation = eg.recreation_costs();
        let potential = eg.potentials();
        if let Some((cr, p)) = eg.maintained_scores() {
            for (i, id) in eg.topo_order().iter().enumerate() {
                if cr[i].to_bits() != recreation[id].to_bits() {
                    out.push(format!(
                        "Cr of {:016x}: maintained {} but a full pass gives {}",
                        id.0, cr[i], recreation[id]
                    ));
                }
                if p[i].to_bits() != potential[id].to_bits() {
                    out.push(format!(
                        "p of {:016x}: maintained {} but a full pass gives {}",
                        id.0, p[i], potential[id]
                    ));
                }
            }
        }
        let got = super::utilities(eg, cost, self.alpha);
        let want = utilities(eg, cost, self.alpha);
        let key = |c: &Candidate| (c.id, c.utility.to_bits(), c.rcs_norm.to_bits());
        if got.iter().map(key).ne(want.iter().map(key)) {
            out.push(format!(
                "candidate order: maintained pool ranks {} candidate(s), a full pass {}",
                got.len(),
                want.len()
            ));
        }
        let stored: BTreeSet<ArtifactId> = eg.storage().materialized_ids().into_iter().collect();
        if &stored != expected {
            out.push(format!(
                "materialized set: {} stored, the full pass chose {} ({} differ)",
                stored.len(),
                expected.len(),
                stored.symmetric_difference(expected).count()
            ));
        }
        out
    }
}

impl Materializer for FullPass {
    fn name(&self) -> &'static str {
        "ORACLE"
    }

    fn run(
        &self,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) {
        let want = self.expected(eg, available, cost);
        for id in eg.storage().materialized_ids() {
            if !want.contains(&id) {
                eg.storage_mut().evict(id);
            }
        }
        for id in want {
            if !eg.is_materialized(id) {
                if let Some(value) = available.get(&id) {
                    eg.storage_mut().store(id, value);
                }
            }
        }
    }
}
