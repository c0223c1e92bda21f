//! The load-cost model `Cl(v)`.
//!
//! The paper (§5.2): "The `Cl(v)` function depends on the size of the
//! vertex and where EG resides (i.e., in memory, on disk, or in a remote
//! location)." In this reproduction the Experiment Graph lives in-process,
//! so loading an artifact is physically an `Arc` clone; to recreate the
//! paper's load-vs-recompute trade-off the executor *charges* the modelled
//! load cost to its virtual clock and reports it alongside measured
//! compute time (see `DESIGN.md`, substitution table).

/// Linear load-cost model: `latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-artifact retrieval latency, in seconds.
    pub latency_s: f64,
    /// Transfer bandwidth, in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl CostModel {
    /// EG in the memory of the same machine (the paper's default setup:
    /// "since EG is inside the memory of the machine, load times are
    /// generally low").
    #[must_use]
    pub fn memory() -> Self {
        CostModel {
            latency_s: 2e-5,
            bandwidth_bytes_per_s: 20e9,
        }
    }

    /// EG on local disk.
    #[must_use]
    pub fn disk() -> Self {
        CostModel {
            latency_s: 5e-3,
            bandwidth_bytes_per_s: 500e6,
        }
    }

    /// EG on a remote store.
    #[must_use]
    pub fn remote() -> Self {
        CostModel {
            latency_s: 5e-2,
            bandwidth_bytes_per_s: 100e6,
        }
    }

    /// `Cl(v)` for an artifact of the given size.
    #[must_use]
    pub fn load_cost(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_with_size_and_medium() {
        let mem = CostModel::memory();
        let disk = CostModel::disk();
        let remote = CostModel::remote();
        let size = 100 << 20; // 100 MB
        assert!(mem.load_cost(size) < disk.load_cost(size));
        assert!(disk.load_cost(size) < remote.load_cost(size));
        assert!(mem.load_cost(0) > 0.0); // latency floor
        assert!(mem.load_cost(2 * size) > mem.load_cost(size));
    }

    #[test]
    fn disk_costs_are_plausible() {
        // 500 MB at 500 MB/s ~ 1s + latency.
        let c = CostModel::disk().load_cost(500 << 20);
        assert!((0.9..1.3).contains(&c), "cost = {c}");
    }
}
