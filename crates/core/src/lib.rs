//! # co-core
//!
//! The collaborative ML workload optimizer of Derakhshan et al.
//! (SIGMOD 2020): the client/server system that stores ML artifacts in an
//! Experiment Graph, decides which to **materialize** under a storage
//! budget, **reuses** them to optimize incoming workload DAGs in linear
//! time, and **warmstarts** model training.
//!
//! ## Pipeline (paper Figure 2)
//!
//! 1. The client builds a workload DAG with the [`dsl::Script`] builder
//!    (the paper's parser producing the wrapper-pandas/sklearn DAG).
//! 2. The client's *local pruner* deactivates edges that are off the
//!    terminal path or already computed.
//! 3. The server's *optimizer* runs a [`optimizer::ReusePlanner`]
//!    (linear-time by default, Helix max-flow / ALL / NONE as baselines)
//!    against the Experiment Graph and returns an optimized plan.
//! 4. The client's [`executor`] runs the plan, measuring compute times and
//!    charging modelled load costs from the [`cost::CostModel`].
//! 5. The server's *updater* merges the executed DAG into the Experiment
//!    Graph and runs a [`materialize::Materializer`] (ML-based greedy,
//!    storage-aware, Helix, ALL, NONE) to decide which artifact contents
//!    to keep within the budget.
//!
//! [`server::OptimizerServer`] wires the five steps together as a staged
//! [`pipeline`] over one `parking_lot::RwLock`-guarded Experiment Graph:
//! planning captures an execution snapshot under the read lock, execution
//! runs lock-free against the snapshot, and update + materialize share a
//! single short write-lock critical section — so concurrent client
//! sessions share one Experiment Graph with lock hold times proportional
//! to graph metadata, not compute time (see DESIGN.md §9).

#![forbid(unsafe_code)]

pub mod cost;
pub mod dsl;
pub mod executor;
pub mod failure;
pub mod materialize;
pub mod ops;
pub mod optimizer;
pub mod pipeline;
pub mod report;
pub mod server;
pub mod validate;
pub mod warmstart;

pub use cost::CostModel;
pub use dsl::Script;
pub use failure::{Quarantine, RetryPolicy, WorkloadError};
pub use pipeline::{ExecutedWorkload, PlannedWorkload, PrunedWorkload};
pub use report::{ExecutionReport, RecoveryReport};
pub use server::{
    DurabilityConfig, DurabilityHealth, OptimizerServer, ServerConfig, ServerStats,
    READ_ONLY_RETRY_HINT_MS,
};
pub use validate::{validate, Diagnostic, ValidationReport};
