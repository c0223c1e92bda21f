//! The Helix materializer baseline (paper §7.1): "Helix materializes an
//! artifact when its recreation cost is greater than twice its load cost
//! ... starts materializing the artifacts from the root node until the
//! budget is exhausted." No utility ranking, no deduplication, no
//! eviction — which is why it wastes its budget on early artifacts and
//! misses the high-utility ones at the end of large workloads
//! (Figure 6/7 of the paper).

use super::{content_of, Materializer};
use crate::cost::CostModel;
use co_graph::{ArtifactId, ExperimentGraph, Value};
use std::collections::HashMap;

/// Root-first threshold materializer.
#[derive(Debug, Clone, Copy)]
pub struct HelixMaterializer {
    /// Storage budget in bytes (nominal accounting).
    pub budget: u64,
}

impl Materializer for HelixMaterializer {
    fn name(&self) -> &'static str {
        "HL"
    }

    fn run(
        &self,
        eg: &mut ExperimentGraph,
        available: &HashMap<ArtifactId, Value>,
        cost: &CostModel,
    ) {
        // Bytes already committed (including the always-stored sources).
        let mut used: u64 = eg
            .storage()
            .materialized_ids()
            .into_iter()
            .filter_map(|id| eg.vertex(id).ok().map(|v| v.size))
            .sum();

        eg.refresh_scores();
        let Some((recreation, _)) = eg.maintained_scores() else {
            return;
        };
        // Root-first, first-fit over the topological order: the
        // high-utility artifacts at the end of large workloads find the
        // budget already spent on early artifacts (paper §7.2/§7.3).
        let mut admitted = Vec::new();
        for (v, &cr) in eg.vertices().zip(recreation) {
            if v.op_hash.is_none() || v.size == 0 || eg.is_materialized(v.id) {
                continue;
            }
            let cl = cost.load_cost(v.size);
            if cr > 2.0 * cl && used + v.size <= self.budget {
                if let Some(value) = content_of(available, v.id) {
                    admitted.push((v.id, value));
                    used += v.size;
                }
            }
        }
        for (id, value) in admitted {
            eg.storage_mut().store(id, &value);
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
    fn materializes_root_first_until_budget() {
        // All vertices qualify (Cr > 2 Cl); budget fits only two.
        let (mut eg, ids, available) = chain_eg(
            &[
                ("a", 100.0, 4, 0.0),
                ("b", 100.0, 4, 0.0),
                ("c", 100.0, 4, 0.0),
            ],
            false,
        );
        // Source (8 bytes) + two 4-byte artifacts fill the budget.
        let m = HelixMaterializer { budget: 16 };
        m.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0]));
        assert!(eg.is_materialized(ids[1]));
        assert!(!eg.is_materialized(ids[2])); // ran out of budget
    }

    #[test]
    fn threshold_rule_skips_cheap_artifacts() {
        // a: Cr = 1 vs 2*Cl = 8 -> skip; b: Cr = 101 vs 8 -> store.
        let (mut eg, ids, available) = chain_eg(&[("a", 1.0, 4, 0.0), ("b", 100.0, 4, 0.0)], false);
        let m = HelixMaterializer { budget: 100 };
        m.run(&mut eg, &available, &unit());
        assert!(!eg.is_materialized(ids[0]));
        assert!(eg.is_materialized(ids[1]));
    }

    #[test]
    fn never_evicts() {
        let (mut eg, ids, available) =
            chain_eg(&[("a", 100.0, 4, 0.0), ("b", 1000.0, 4, 0.0)], false);
        let m = HelixMaterializer { budget: 12 };
        m.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0])); // root-first wins the slot
        m.run(&mut eg, &available, &unit());
        assert!(eg.is_materialized(ids[0])); // still there
        assert!(!eg.is_materialized(ids[1]));
    }
}
