//! The load-cost model `Cl(v)`, defined beside the Experiment Graph
//! (which keeps the utility candidate pool under one cost model) and
//! re-exported here.

pub use co_graph::cost::CostModel;
