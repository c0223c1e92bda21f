//! The ML-based greedy materializer (paper §5.2, Algorithm 1): rank all
//! vertices by utility and keep the prefix that fits the budget, counting
//! *nominal* artifact sizes (no deduplication) — the paper's `HM`.

use super::{content_of, evict_except, source_store_bytes, utilities, Materializer};
use crate::cost::CostModel;
use co_graph::{ArtifactId, ExperimentGraph, Value};
use std::collections::{HashMap, HashSet};

/// Algorithm 1 with plain size accounting.
#[derive(Debug, Clone, Copy)]
pub struct GreedyMaterializer {
    /// Storage budget in bytes. The always-stored sources count against
    /// it (but are never evicted, even when they alone exceed it).
    pub budget: u64,
    /// Importance of model quality vs cost-size ratio (`α` in
    /// Equation 2).
    pub alpha: f64,
    /// Optional cap on the *number* of materialized artifacts — the
    /// paper's Figure 8(b) study sets "the budget to one artifact".
    pub max_artifacts: Option<usize>,
}

impl GreedyMaterializer {
    /// Budget-only constructor with the paper's default `α = 0.5`.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        GreedyMaterializer {
            budget,
            alpha: 0.5,
            max_artifacts: None,
        }
    }

    /// The desired materialized set under current utilities. Candidates
    /// whose content is not at hand (neither in the just-executed
    /// workload nor already stored) cannot be materialized and must not
    /// reserve budget.
    fn desired(
        &self,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) -> Vec<ArtifactId> {
        let ranked = utilities(eg, cost, self.alpha);
        let mut picked = Vec::new();
        let mut used = source_store_bytes(eg);
        for c in ranked {
            if self.max_artifacts.is_some_and(|m| picked.len() >= m) {
                break;
            }
            if !available.contains_key(&c.id) && !eg.is_materialized(c.id) {
                continue;
            }
            if used + c.size <= self.budget {
                used += c.size;
                picked.push(c.id);
            }
        }
        picked
    }
}

impl Materializer for GreedyMaterializer {
    fn name(&self) -> &'static str {
        "HM"
    }

    fn run(
        &self,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) {
        let desired = self.desired(eg, available, cost);
        let desired_set: HashSet<ArtifactId> = desired.iter().copied().collect();
        evict_except(eg, &desired_set);
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
    use crate::materialize::testutil::chain_eg;

    fn unit() -> CostModel {
        CostModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1.0,
        }
    }

    #[test]
    fn respects_the_budget() {
        let (mut eg, ids, available) = chain_eg(
            &[
                ("a", 10.0, 4, 0.0),
                ("b", 10.0, 4, 0.0),
                ("c", 10.0, 4, 0.0),
            ],
            false,
        );
        // The 8-byte source is stored unconditionally and counts against
        // the budget, leaving room for two 4-byte artifacts.
        let m = GreedyMaterializer::new(16);
        m.run(&mut eg, &available, &unit());
        let stored: Vec<bool> = ids.iter().map(|id| eg.is_materialized(*id)).collect();
        assert_eq!(stored.iter().filter(|&&s| s).count(), 2);
    }

    #[test]
    fn prefers_high_utility_artifacts() {
        // c is deepest (largest Cr) -> highest rcs at alpha 0.
        let (mut eg, ids, available) = chain_eg(
            &[
                ("a", 10.0, 4, 0.0),
                ("b", 10.0, 4, 0.0),
                ("c", 10.0, 4, 0.0),
            ],
            false,
        );
        let m = GreedyMaterializer {
            budget: 12,
            alpha: 0.0,
            max_artifacts: None,
        };
        m.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[2]));
        assert!(!eg.is_materialized(ids[0]));
    }

    #[test]
    fn max_artifacts_caps_selection() {
        let (mut eg, ids, available) =
            chain_eg(&[("a", 10.0, 4, 0.0), ("m", 10.0, 4, 0.95)], false);
        let m = GreedyMaterializer {
            budget: u64::MAX,
            alpha: 1.0,
            max_artifacts: Some(1),
        };
        m.run(&mut eg, &available, &unit());
        let stored: Vec<_> = ids.iter().filter(|id| eg.is_materialized(**id)).collect();
        assert_eq!(stored.len(), 1);
    }

    #[test]
    fn re_running_evicts_displaced_artifacts() {
        let (mut eg, ids, available) = chain_eg(&[("a", 10.0, 4, 0.0), ("b", 10.0, 4, 0.0)], false);
        let m = GreedyMaterializer {
            budget: 12,
            alpha: 0.0,
            max_artifacts: None,
        };
        m.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[1])); // deeper vertex wins
                                             // Bump a's frequency massively; the next run displaces b.
        eg.vertex_mut(ids[0]).unwrap().frequency = 100;
        m.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0]));
        assert!(!eg.is_materialized(ids[1]));
    }

    #[test]
    fn unavailable_content_is_skipped_gracefully() {
        let (mut eg, ids, _) = chain_eg(&[("a", 10.0, 4, 0.0)], false);
        let m = GreedyMaterializer::new(100);
        m.run(&mut eg, &HashMap::new(), &unit());
        assert!(!eg.is_materialized(ids[0])); // nothing to store from
    }
}
