//! # co-graph
//!
//! The graph data model of the collaborative ML workload optimizer
//! (Derakhshan et al., SIGMOD 2020, §3–§4):
//!
//! * [`WorkloadDag`] — one user workload: vertices are artifacts
//!   (datasets, aggregates, models), edges are operations. Multi-input
//!   operations (the paper's *supernodes*) are modelled as hyperedges with
//!   an ordered input list, which is structurally equivalent.
//! * [`ExperimentGraph`] — the union of all executed workload DAGs. Every
//!   vertex carries `⟨frequency, compute_time, size, materialized⟩` plus a
//!   model-quality attribute `q`, and the graph always keeps artifact
//!   *meta-data* even when the content is not materialized.
//! * [`StorageManager`] — the artifact content store. Dataset content is
//!   keyed by [`co_dataframe::ColumnId`], so columns shared between
//!   artifacts (paper §5.3) are stored once; the gap between the *logical*
//!   size of materialized artifacts and the *real* bytes held is exactly
//!   what Figure 6 of the paper measures.
//! * [`Operation`] — the extensibility trait (paper Listing 2): new data
//!   or training operations implement `run` plus a stable
//!   name/parameter digest.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod cost;
pub mod error;
pub mod experiment;
pub mod export;
pub mod faults;
pub mod fsck;
pub mod journal;
pub mod lockorder;
pub mod meta;
pub mod operation;
pub mod shard;
pub mod snapshot;
pub mod storage;
pub mod value;
pub mod vfs;
pub mod workload;

pub use artifact::{ArtifactId, ArtifactMeta, NodeKind};
pub use cost::CostModel;
pub use error::{GraphError, Result};
pub use experiment::{EgVertex, ExperimentGraph, ScoreWork, ScoredVertex};
pub use faults::{FaultInjector, FaultKind, IoFault, NetFault};
pub use fsck::{FsckCode, FsckReport, Violation};
pub use journal::{EgDelta, FsyncPolicy, Journal, QuarantineEntry};
pub use meta::{DatasetMeta, MetaCode, MetaError, MetaResult, ModelMeta, ValueMeta};
pub use operation::{OpHash, OpRef, Operation};
pub use shard::{shard_of, EgView, GraphQuery, ShardReadGuard, ShardWriteGuard, ShardedEg};
pub use storage::{ColumnVault, Footprint, StorageManager};
pub use value::{ModelArtifact, Value};
pub use workload::{NodeId, WorkloadDag, WorkloadEdge, WorkloadNode};
