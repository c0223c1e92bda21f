//! Error type for graph construction, execution, and storage.
//!
//! The taxonomy distinguishes *transient* failures (worth retrying — a
//! flaky external resource, an injected transient fault) from
//! *permanent* ones (a type mismatch, a panic, a quarantined operation).
//! The executor's retry policy consults [`GraphError::is_transient`].

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced by DAG construction, operation execution, and the
/// artifact store.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node id does not exist in the workload DAG.
    UnknownNode(usize),
    /// An artifact id does not exist in the Experiment Graph.
    UnknownArtifact(u64),
    /// Adding an edge would create a cycle or re-define a node's producer.
    InvalidStructure(String),
    /// An operation received the wrong number or kinds of inputs.
    BadOperationInput { op: String, message: String },
    /// An operation failed while running. `transient` failures (flaky
    /// external resources) may be retried; permanent ones may not.
    OperationFailed {
        op: String,
        message: String,
        transient: bool,
    },
    /// An operation panicked while running; the panic was caught and
    /// isolated by the executor.
    OperationPanicked { op: String, message: String },
    /// An operation was fast-failed because it failed permanently
    /// `failures` times in a row and is quarantined.
    Quarantined { op: String, failures: usize },
    /// An operation or workload exceeded its execution deadline.
    DeadlineExceeded { what: String, seconds: f64 },
    /// The requested artifact is not materialized in the store. `detail`
    /// names the workload node and operation when known (empty otherwise).
    NotMaterialized { artifact: u64, detail: String },
    /// A workload has no terminal vertices (nothing to execute).
    NoTerminals,
    /// Static pre-execution validation rejected the workload. Each
    /// diagnostic is a node-path-addressed message (see `co_core::validate`).
    InvalidWorkload { diagnostics: Vec<String> },
    /// An I/O failure while persisting or restoring graph state.
    Io(String),
    /// The durability layer is degraded to read-only: a persistence
    /// failure left the disk behind memory and repair has not caught
    /// up yet. Publishes are rejected — *retriably*: reads, reuse and
    /// warm-starts continue, and once repair drains the backlog the
    /// same publish will succeed. `retry_after_ms` hints when.
    ReadOnly { retry_after_ms: u64 },
    /// A persisted file (snapshot or journal) failed validation. Carries
    /// the file path and the 1-based line/record number so operators can
    /// locate the damage without a hex dump (`record` 0 = the header).
    Corrupt {
        path: String,
        record: usize,
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown workload node: {id}"),
            GraphError::UnknownArtifact(id) => write!(f, "unknown artifact: {id:016x}"),
            GraphError::InvalidStructure(msg) => write!(f, "invalid DAG structure: {msg}"),
            GraphError::BadOperationInput { op, message } => {
                write!(f, "bad input to operation {op:?}: {message}")
            }
            GraphError::OperationFailed {
                op,
                message,
                transient,
            } => {
                let kind = if *transient { "transiently " } else { "" };
                write!(f, "operation {op:?} {kind}failed: {message}")
            }
            GraphError::OperationPanicked { op, message } => {
                write!(f, "operation {op:?} panicked: {message}")
            }
            GraphError::Quarantined { op, failures } => {
                write!(f, "operation {op:?} is quarantined after {failures} consecutive permanent failures")
            }
            GraphError::DeadlineExceeded { what, seconds } => {
                write!(f, "{what} exceeded its deadline of {seconds:.3}s")
            }
            GraphError::NotMaterialized { artifact, detail } => {
                if detail.is_empty() {
                    write!(f, "artifact {artifact:016x} is not materialized")
                } else {
                    write!(f, "artifact {artifact:016x} is not materialized ({detail})")
                }
            }
            GraphError::NoTerminals => write!(f, "workload has no terminal vertices"),
            GraphError::InvalidWorkload { diagnostics } => {
                write!(
                    f,
                    "workload failed static validation ({} diagnostic{}):",
                    diagnostics.len(),
                    if diagnostics.len() == 1 { "" } else { "s" }
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
            GraphError::ReadOnly { retry_after_ms } => write!(
                f,
                "durability layer is read-only while repair catches up; \
                 retry the publish in {retry_after_ms}ms"
            ),
            GraphError::Corrupt {
                path,
                record,
                message,
            } => {
                if *record == 0 {
                    write!(f, "corrupt file {path}: {message}")
                } else {
                    write!(f, "corrupt file {path}, record {record}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl GraphError {
    /// Wrap a dataframe error raised while running an operation.
    #[must_use]
    pub fn from_df(op: &str, e: &co_dataframe::DfError) -> Self {
        GraphError::OperationFailed {
            op: op.to_owned(),
            message: e.to_string(),
            transient: false,
        }
    }

    /// Wrap an ML error raised while running an operation.
    #[must_use]
    pub fn from_ml(op: &str, e: &co_ml::MlError) -> Self {
        GraphError::OperationFailed {
            op: op.to_owned(),
            message: e.to_string(),
            transient: false,
        }
    }

    /// A permanent operation failure (convenience constructor).
    #[must_use]
    pub fn op_failed(op: impl Into<String>, message: impl Into<String>) -> Self {
        GraphError::OperationFailed {
            op: op.into(),
            message: message.into(),
            transient: false,
        }
    }

    /// A transient operation failure — eligible for retry.
    #[must_use]
    pub fn op_failed_transient(op: impl Into<String>, message: impl Into<String>) -> Self {
        GraphError::OperationFailed {
            op: op.into(),
            message: message.into(),
            transient: true,
        }
    }

    /// An unmaterialized-artifact error with no node context.
    #[must_use]
    pub fn not_materialized(artifact: u64) -> Self {
        GraphError::NotMaterialized {
            artifact,
            detail: String::new(),
        }
    }

    /// A corruption error locating the damage by file and record.
    #[must_use]
    pub fn corrupt(path: impl Into<String>, record: usize, message: impl Into<String>) -> Self {
        GraphError::Corrupt {
            path: path.into(),
            record,
            message: message.into(),
        }
    }

    /// A read-only-mode publish rejection with a backoff hint.
    #[must_use]
    pub fn read_only(retry_after_ms: u64) -> Self {
        GraphError::ReadOnly { retry_after_ms }
    }

    /// Whether retrying the failed work could plausibly succeed.
    ///
    /// Explicitly transient operation failures and read-only-mode
    /// publish rejections qualify; panics, structural errors, deadline
    /// overruns, and quarantine fast-fails are permanent by definition.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            GraphError::OperationFailed {
                transient: true,
                ..
            } | GraphError::ReadOnly { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GraphError::UnknownNode(3).to_string().contains('3'));
        assert!(GraphError::NoTerminals.to_string().contains("terminal"));
        let e = GraphError::from_df("filter", &co_dataframe::DfError::ColumnNotFound("x".into()));
        assert!(e.to_string().contains("filter"));
        assert!(GraphError::Io("disk full".into())
            .to_string()
            .contains("disk full"));
        let c = GraphError::corrupt("/data/eg-0.wal", 12, "bad crc");
        assert!(c.to_string().contains("/data/eg-0.wal"));
        assert!(c.to_string().contains("12"));
        let header = GraphError::corrupt("/data/eg-0.egsnap", 0, "bad header");
        assert!(!header.to_string().contains("record"));
        let q = GraphError::Quarantined {
            op: "train".into(),
            failures: 3,
        };
        assert!(q.to_string().contains("quarantined"));
        let p = GraphError::OperationPanicked {
            op: "udf".into(),
            message: "boom".into(),
        };
        assert!(p.to_string().contains("panicked"));
        let d = GraphError::DeadlineExceeded {
            what: "operation \"slow\"".into(),
            seconds: 1.5,
        };
        assert!(d.to_string().contains("deadline"));
        let nm = GraphError::NotMaterialized {
            artifact: 7,
            detail: "node 2, op \"map\"".into(),
        };
        assert!(nm.to_string().contains("node 2"));
    }

    #[test]
    fn transient_classification() {
        assert!(GraphError::op_failed_transient("f", "flaky").is_transient());
        assert!(!GraphError::op_failed("f", "broken").is_transient());
        assert!(!GraphError::OperationPanicked {
            op: "f".into(),
            message: "b".into()
        }
        .is_transient());
        assert!(!GraphError::Quarantined {
            op: "f".into(),
            failures: 3
        }
        .is_transient());
        assert!(!GraphError::not_materialized(1).is_transient());
        assert!(!GraphError::Io("x".into()).is_transient());
        assert!(GraphError::read_only(250).is_transient());
        let ro = GraphError::read_only(250).to_string();
        assert!(ro.contains("read-only"), "{ro}");
        assert!(ro.contains("250"), "{ro}");
    }
}
