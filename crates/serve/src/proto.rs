//! Protocol messages and their binary codec.
//!
//! Frame payloads (see [`crate::frame`]) carry exactly one [`Request`]
//! or [`Response`], encoded with a small tagged binary format: one tag
//! byte per variant, little-endian fixed-width integers, and
//! `u32`-length-prefixed strings and sequences. Decoding is *total*:
//! every read is bounds-checked, element counts are validated against
//! the bytes actually remaining (so a corrupt count cannot balloon an
//! allocation), strings must be UTF-8, and a decoded message must
//! consume the payload exactly — anything else is a typed
//! [`ProtocolError::Malformed`], never a panic.
//!
//! The protocol is versioned by [`PROTO_VERSION`], exchanged in
//! `Hello`/`Welcome`.

use crate::frame::ProtocolError;
use crate::spec::{AggSpec, MapFnSpec, SpecStep, WorkloadSpec};
use co_dataframe::ColumnData;

/// Wire protocol version, exchanged in `Hello`/`Welcome`. Bumped
/// whenever a message's layout changes, so a peer on another version is
/// refused at `Hello` instead of misreading a frame.
pub const PROTO_VERSION: u32 = 2;

/// Cap on elements of any decoded sequence (columns, steps, rows are
/// additionally bounded by the frame size itself).
const MAX_SEQ: usize = 1 << 24;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session. `client` is a display name for observability.
    Hello { client: String, proto: u32 },
    /// Register a source dataset under this session's namespace. The
    /// server derives a content-qualified source name, so two clients
    /// registering *different* data under the same name never collide
    /// in the shared Experiment Graph, while identical data dedups to
    /// the same artifacts.
    RegisterDataset {
        name: String,
        columns: Vec<(String, ColumnData)>,
    },
    /// Submit a workload, optionally with a deadline relative to the
    /// server receiving the request.
    Submit {
        spec: WorkloadSpec,
        deadline_ms: Option<u64>,
    },
    /// Fetch the live server counter set (core + serve layers).
    Stats,
    /// Liveness probe.
    Ping,
    /// Operator request: begin a graceful drain.
    Drain,
}

/// Summary of a served workload, returned in [`Response::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkloadSummary {
    /// Operations actually executed.
    pub ops_executed: u64,
    /// Artifacts served from the Experiment Graph instead of computed.
    pub artifacts_loaded: u64,
    /// Training operations warmstarted.
    pub warmstarts: u64,
    /// Client-visible run time (compute + charged loads), seconds.
    pub run_seconds: f64,
    /// Time the request waited in the admission queue, milliseconds.
    pub queue_ms: f64,
}

/// The full live counter set, returned by [`Request::Stats`] — the
/// in-process `ServerStats` (including the recovery counters) plus the
/// serve layer's own admission/drain counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnapshot {
    // ---- core OptimizerServer counters -------------------------------
    /// Workloads merged into the Experiment Graph.
    pub workloads: u64,
    /// Operations executed across all workloads.
    pub ops_executed: u64,
    /// Artifacts served from the graph.
    pub artifacts_loaded: u64,
    /// Training operations warmstarted.
    pub warmstarts: u64,
    /// Total client-visible run time, seconds.
    pub run_seconds: f64,
    /// Estimated no-reuse cost of the same submissions, seconds.
    pub baseline_seconds: f64,
    /// Workloads that terminated with an error.
    pub failed_workloads: u64,
    /// Vertices salvaged from failed runs.
    pub salvaged_artifacts: u64,
    /// Journal records replayed during startup recovery.
    pub journal_records_replayed: u64,
    /// Torn journal tails truncated during recovery.
    pub torn_tail_truncated: u64,
    /// Snapshot compactions performed.
    pub snapshots_compacted: u64,
    /// Experiment Graph lock shards (1 = unsharded).
    pub shards: u64,
    /// Total nanoseconds publishers spent blocked on contended shard
    /// write locks, summed across shards (0 while uncontended).
    pub lock_wait_ns: u64,
    // ---- serve-layer counters ----------------------------------------
    /// Connections accepted.
    pub connections: u64,
    /// Workloads submitted over the wire.
    pub submitted: u64,
    /// Submissions served to completion.
    pub served: u64,
    /// Submissions rejected by admission control.
    pub rejected_overload: u64,
    /// Submissions rejected because the server is draining.
    pub rejected_draining: u64,
    /// Submissions that exceeded their deadline (shed or mid-run).
    pub timed_out: u64,
    /// Connections torn down by a frame/decode error.
    pub protocol_errors: u64,
    // ---- durability health -------------------------------------------
    /// Durability health at snapshot time: 0 healthy, 1 read-only
    /// (publishes rejected retriably while repair catches up), 2 wedged.
    pub durability_health: u64,
    /// Repair attempts over the server's lifetime.
    pub repair_attempts: u64,
    /// Repairs that returned the durability layer to healthy.
    pub repairs_succeeded: u64,
    /// Publishes rejected retriably while the layer was read-only.
    pub publishes_rejected_readonly: u64,
    /// Whether a drain is in progress (or complete).
    pub draining: bool,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    Welcome { session: u64, proto: u32 },
    /// Dataset registered; `qualified` is the content-qualified source
    /// name the session's workloads resolve it to.
    DatasetRegistered { qualified: String },
    /// Workload served.
    Done(WorkloadSummary),
    /// Admission control rejected the submission: the publish queue is
    /// at its configured depth. `retry_after_ms` is the server's
    /// estimate of when capacity frees up; the client library's backoff
    /// honors it.
    Overloaded { retry_after_ms: u64 },
    /// The durability layer is read-only — a persistence failure left
    /// the disk behind memory and repair has not caught up. Retriable
    /// exactly like `Overloaded`: the same submission succeeds once
    /// repair drains the backlog. `retry_after_ms` hints when.
    ReadOnly { retry_after_ms: u64 },
    /// The server is draining; it accepts no new workloads.
    Draining,
    /// The submission exceeded its deadline — either shed from the
    /// queue before running or cut off mid-execution.
    TimedOut { waited_ms: u64 },
    /// The workload ran and failed. `salvaged` counts vertices the
    /// server kept from the failed run's untainted prefix.
    Failed {
        error: String,
        transient: bool,
        salvaged: u64,
    },
    /// Live counter set.
    StatsReply(StatsSnapshot),
    /// Liveness reply.
    Pong,
    /// Graceful drain initiated.
    DrainStarted,
    /// Protocol-level rejection (sent best-effort before the server
    /// closes this connection).
    Bad { message: String },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn len(&mut self, n: usize) {
        // co-lint:allow(no-panic) encoded sequences are bounded by MAX_FRAME, far below u32::MAX
        self.u32(u32::try_from(n).expect("sequence length fits u32"));
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
}

/// Bounds-checked payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, ProtocolError>;

fn malformed<T>(what: impl Into<String>) -> DecodeResult<T> {
    Err(ProtocolError::Malformed(what.into()))
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return malformed(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => malformed(format!("bool byte {b}")),
        }
    }
    fn u32(&mut self) -> DecodeResult<u32> {
        // co-lint:allow(no-panic) take(4) returned exactly 4 bytes; the conversion is infallible
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> DecodeResult<u64> {
        // co-lint:allow(no-panic) take(8) returned exactly 8 bytes; the conversion is infallible
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn i64(&mut self) -> DecodeResult<i64> {
        // co-lint:allow(no-panic) take(8) returned exactly 8 bytes; the conversion is infallible
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> DecodeResult<f64> {
        // co-lint:allow(no-panic) take(8) returned exactly 8 bytes; the conversion is infallible
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// A sequence count, validated against the bytes remaining given a
    /// minimum encoded size per element.
    fn seq(&mut self, min_elem_bytes: usize) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n > MAX_SEQ || n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return malformed(format!(
                "implausible sequence count {n} for {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }
    fn str(&mut self) -> DecodeResult<String> {
        let n = self.seq(1)?;
        match std::str::from_utf8(self.take(n)?) {
            Ok(s) => Ok(s.to_owned()),
            Err(e) => malformed(format!("invalid UTF-8 string: {e}")),
        }
    }
    fn opt_u64(&mut self) -> DecodeResult<Option<u64>> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    fn finish(self) -> DecodeResult<()> {
        if self.remaining() != 0 {
            return malformed(format!("{} trailing bytes after message", self.remaining()));
        }
        Ok(())
    }
}

fn put_column_data(w: &mut Writer, data: &ColumnData) {
    match data {
        ColumnData::Int(v) => {
            w.u8(1);
            w.len(v.len());
            for x in v {
                w.i64(*x);
            }
        }
        ColumnData::Float(v) => {
            w.u8(2);
            w.len(v.len());
            for x in v {
                w.f64(*x);
            }
        }
        ColumnData::Str(v) => {
            w.u8(3);
            w.len(v.len());
            for x in v {
                w.str(x);
            }
        }
        ColumnData::Bool(v) => {
            w.u8(4);
            w.len(v.len());
            for x in v {
                w.bool(*x);
            }
        }
    }
}

fn get_column_data(r: &mut Reader<'_>) -> DecodeResult<ColumnData> {
    match r.u8()? {
        1 => {
            let n = r.seq(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            Ok(ColumnData::Int(v))
        }
        2 => {
            let n = r.seq(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            Ok(ColumnData::Float(v))
        }
        3 => {
            let n = r.seq(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.str()?);
            }
            Ok(ColumnData::Str(v))
        }
        4 => {
            let n = r.seq(1)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.bool()?);
            }
            Ok(ColumnData::Bool(v))
        }
        t => malformed(format!("unknown column-data tag {t}")),
    }
}

fn put_map_fn(w: &mut Writer, f: &MapFnSpec) {
    match f {
        MapFnSpec::Log1p => w.u8(1),
        MapFnSpec::Abs => w.u8(2),
        MapFnSpec::Sqrt => w.u8(3),
        MapFnSpec::AddConst(c) => {
            w.u8(4);
            w.f64(*c);
        }
        MapFnSpec::MulConst(c) => {
            w.u8(5);
            w.f64(*c);
        }
    }
}

fn get_map_fn(r: &mut Reader<'_>) -> DecodeResult<MapFnSpec> {
    match r.u8()? {
        1 => Ok(MapFnSpec::Log1p),
        2 => Ok(MapFnSpec::Abs),
        3 => Ok(MapFnSpec::Sqrt),
        4 => Ok(MapFnSpec::AddConst(r.f64()?)),
        5 => Ok(MapFnSpec::MulConst(r.f64()?)),
        t => malformed(format!("unknown map-fn tag {t}")),
    }
}

fn put_agg(w: &mut Writer, f: AggSpec) {
    w.u8(match f {
        AggSpec::Sum => 1,
        AggSpec::Mean => 2,
        AggSpec::Min => 3,
        AggSpec::Max => 4,
        AggSpec::Count => 5,
        AggSpec::Std => 6,
    });
}

fn get_agg(r: &mut Reader<'_>) -> DecodeResult<AggSpec> {
    match r.u8()? {
        1 => Ok(AggSpec::Sum),
        2 => Ok(AggSpec::Mean),
        3 => Ok(AggSpec::Min),
        4 => Ok(AggSpec::Max),
        5 => Ok(AggSpec::Count),
        6 => Ok(AggSpec::Std),
        t => malformed(format!("unknown agg tag {t}")),
    }
}

fn put_step(w: &mut Writer, step: &SpecStep) {
    match step {
        SpecStep::Load { dataset } => {
            w.u8(1);
            w.str(dataset);
        }
        SpecStep::Select { input, columns } => {
            w.u8(2);
            w.u32(*input);
            w.len(columns.len());
            for c in columns {
                w.str(c);
            }
        }
        SpecStep::FilterGt {
            input,
            column,
            value,
        } => {
            w.u8(3);
            w.u32(*input);
            w.str(column);
            w.f64(*value);
        }
        SpecStep::Map {
            input,
            column,
            f,
            out,
        } => {
            w.u8(4);
            w.u32(*input);
            w.str(column);
            put_map_fn(w, f);
            w.str(out);
        }
        SpecStep::TrainLogistic {
            input,
            label,
            lr,
            max_iter,
        } => {
            w.u8(5);
            w.u32(*input);
            w.str(label);
            w.f64(*lr);
            w.u32(*max_iter);
        }
        SpecStep::Agg { input, column, f } => {
            w.u8(6);
            w.u32(*input);
            w.str(column);
            put_agg(w, *f);
        }
    }
}

fn get_step(r: &mut Reader<'_>) -> DecodeResult<SpecStep> {
    match r.u8()? {
        1 => Ok(SpecStep::Load { dataset: r.str()? }),
        2 => {
            let input = r.u32()?;
            let n = r.seq(4)?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(r.str()?);
            }
            Ok(SpecStep::Select { input, columns })
        }
        3 => Ok(SpecStep::FilterGt {
            input: r.u32()?,
            column: r.str()?,
            value: r.f64()?,
        }),
        4 => Ok(SpecStep::Map {
            input: r.u32()?,
            column: r.str()?,
            f: get_map_fn(r)?,
            out: r.str()?,
        }),
        5 => Ok(SpecStep::TrainLogistic {
            input: r.u32()?,
            label: r.str()?,
            lr: r.f64()?,
            max_iter: r.u32()?,
        }),
        6 => Ok(SpecStep::Agg {
            input: r.u32()?,
            column: r.str()?,
            f: get_agg(r)?,
        }),
        t => malformed(format!("unknown workload step tag {t}")),
    }
}

fn put_spec(w: &mut Writer, spec: &WorkloadSpec) {
    w.len(spec.steps.len());
    for s in &spec.steps {
        put_step(w, s);
    }
    w.len(spec.outputs.len());
    for o in &spec.outputs {
        w.u32(*o);
    }
}

fn get_spec(r: &mut Reader<'_>) -> DecodeResult<WorkloadSpec> {
    let n = r.seq(1)?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        steps.push(get_step(r)?);
    }
    let n = r.seq(4)?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        outputs.push(r.u32()?);
    }
    Ok(WorkloadSpec { steps, outputs })
}

fn put_summary(w: &mut Writer, s: &WorkloadSummary) {
    w.u64(s.ops_executed);
    w.u64(s.artifacts_loaded);
    w.u64(s.warmstarts);
    w.f64(s.run_seconds);
    w.f64(s.queue_ms);
}

fn get_summary(r: &mut Reader<'_>) -> DecodeResult<WorkloadSummary> {
    Ok(WorkloadSummary {
        ops_executed: r.u64()?,
        artifacts_loaded: r.u64()?,
        warmstarts: r.u64()?,
        run_seconds: r.f64()?,
        queue_ms: r.f64()?,
    })
}

fn put_stats(w: &mut Writer, s: &StatsSnapshot) {
    for v in [
        s.workloads,
        s.ops_executed,
        s.artifacts_loaded,
        s.warmstarts,
        s.failed_workloads,
        s.salvaged_artifacts,
        s.journal_records_replayed,
        s.torn_tail_truncated,
        s.snapshots_compacted,
        s.shards,
        s.lock_wait_ns,
        s.connections,
        s.submitted,
        s.served,
        s.rejected_overload,
        s.rejected_draining,
        s.timed_out,
        s.protocol_errors,
        s.durability_health,
        s.repair_attempts,
        s.repairs_succeeded,
        s.publishes_rejected_readonly,
    ] {
        w.u64(v);
    }
    w.f64(s.run_seconds);
    w.f64(s.baseline_seconds);
    w.bool(s.draining);
}

fn get_stats(r: &mut Reader<'_>) -> DecodeResult<StatsSnapshot> {
    let mut s = StatsSnapshot::default();
    for field in [
        &mut s.workloads,
        &mut s.ops_executed,
        &mut s.artifacts_loaded,
        &mut s.warmstarts,
        &mut s.failed_workloads,
        &mut s.salvaged_artifacts,
        &mut s.journal_records_replayed,
        &mut s.torn_tail_truncated,
        &mut s.snapshots_compacted,
        &mut s.shards,
        &mut s.lock_wait_ns,
        &mut s.connections,
        &mut s.submitted,
        &mut s.served,
        &mut s.rejected_overload,
        &mut s.rejected_draining,
        &mut s.timed_out,
        &mut s.protocol_errors,
        &mut s.durability_health,
        &mut s.repair_attempts,
        &mut s.repairs_succeeded,
        &mut s.publishes_rejected_readonly,
    ] {
        *field = r.u64()?;
    }
    s.run_seconds = r.f64()?;
    s.baseline_seconds = r.f64()?;
    s.draining = r.bool()?;
    Ok(s)
}

impl Request {
    /// Encode into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Hello { client, proto } => {
                w.u8(1);
                w.str(client);
                w.u32(*proto);
            }
            Request::RegisterDataset { name, columns } => {
                w.u8(2);
                w.str(name);
                w.len(columns.len());
                for (cname, data) in columns {
                    w.str(cname);
                    put_column_data(&mut w, data);
                }
            }
            Request::Submit { spec, deadline_ms } => {
                w.u8(3);
                put_spec(&mut w, spec);
                w.opt_u64(*deadline_ms);
            }
            Request::Stats => w.u8(4),
            Request::Ping => w.u8(5),
            Request::Drain => w.u8(6),
        }
        w.buf
    }

    /// Decode a frame payload. Total: every failure is a typed
    /// [`ProtocolError::Malformed`].
    pub fn decode(payload: &[u8]) -> DecodeResult<Self> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            1 => Request::Hello {
                client: r.str()?,
                proto: r.u32()?,
            },
            2 => {
                let name = r.str()?;
                let n = r.seq(5)?;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    let cname = r.str()?;
                    columns.push((cname, get_column_data(&mut r)?));
                }
                Request::RegisterDataset { name, columns }
            }
            3 => Request::Submit {
                spec: get_spec(&mut r)?,
                deadline_ms: r.opt_u64()?,
            },
            4 => Request::Stats,
            5 => Request::Ping,
            6 => Request::Drain,
            t => return malformed(format!("unknown request tag {t}")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Welcome { session, proto } => {
                w.u8(1);
                w.u64(*session);
                w.u32(*proto);
            }
            Response::DatasetRegistered { qualified } => {
                w.u8(2);
                w.str(qualified);
            }
            Response::Done(s) => {
                w.u8(3);
                put_summary(&mut w, s);
            }
            Response::Overloaded { retry_after_ms } => {
                w.u8(4);
                w.u64(*retry_after_ms);
            }
            Response::Draining => w.u8(5),
            Response::TimedOut { waited_ms } => {
                w.u8(6);
                w.u64(*waited_ms);
            }
            Response::Failed {
                error,
                transient,
                salvaged,
            } => {
                w.u8(7);
                w.str(error);
                w.bool(*transient);
                w.u64(*salvaged);
            }
            Response::StatsReply(s) => {
                w.u8(8);
                put_stats(&mut w, s);
            }
            Response::Pong => w.u8(9),
            Response::DrainStarted => w.u8(10),
            Response::Bad { message } => {
                w.u8(11);
                w.str(message);
            }
            Response::ReadOnly { retry_after_ms } => {
                w.u8(12);
                w.u64(*retry_after_ms);
            }
        }
        w.buf
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> DecodeResult<Self> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            1 => Response::Welcome {
                session: r.u64()?,
                proto: r.u32()?,
            },
            2 => Response::DatasetRegistered {
                qualified: r.str()?,
            },
            3 => Response::Done(get_summary(&mut r)?),
            4 => Response::Overloaded {
                retry_after_ms: r.u64()?,
            },
            5 => Response::Draining,
            6 => Response::TimedOut {
                waited_ms: r.u64()?,
            },
            7 => Response::Failed {
                error: r.str()?,
                transient: r.bool()?,
                salvaged: r.u64()?,
            },
            8 => Response::StatsReply(get_stats(&mut r)?),
            9 => Response::Pong,
            10 => Response::DrainStarted,
            11 => Response::Bad { message: r.str()? },
            12 => Response::ReadOnly {
                retry_after_ms: r.u64()?,
            },
            t => return malformed(format!("unknown response tag {t}")),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello {
                client: "alice".into(),
                proto: PROTO_VERSION,
            },
            Request::RegisterDataset {
                name: "train".into(),
                columns: vec![
                    ("x".into(), ColumnData::Float(vec![1.0, f64::NAN, -0.0])),
                    ("y".into(), ColumnData::Int(vec![i64::MIN, 0, i64::MAX])),
                    (
                        "s".into(),
                        ColumnData::Str(vec!["a\tb".into(), String::new()]),
                    ),
                    ("b".into(), ColumnData::Bool(vec![true, false])),
                ],
            },
            Request::Submit {
                spec: WorkloadSpec {
                    steps: vec![
                        SpecStep::Load {
                            dataset: "train".into(),
                        },
                        SpecStep::FilterGt {
                            input: 0,
                            column: "x".into(),
                            value: 0.5,
                        },
                        SpecStep::TrainLogistic {
                            input: 1,
                            label: "y".into(),
                            lr: 0.1,
                            max_iter: 40,
                        },
                    ],
                    outputs: vec![2],
                },
                deadline_ms: Some(1500),
            },
            Request::Stats,
            Request::Ping,
            Request::Drain,
        ];
        for req in reqs {
            let bytes = req.encode();
            let back = Request::decode(&bytes).unwrap();
            // NaN != NaN under PartialEq; compare the re-encoding.
            assert_eq!(back.encode(), bytes, "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Welcome {
                session: 7,
                proto: PROTO_VERSION,
            },
            Response::DatasetRegistered {
                qualified: "train@00ff".into(),
            },
            Response::Done(WorkloadSummary {
                ops_executed: 3,
                artifacts_loaded: 2,
                warmstarts: 1,
                run_seconds: 0.25,
                queue_ms: 1.5,
            }),
            Response::Overloaded { retry_after_ms: 40 },
            Response::ReadOnly {
                retry_after_ms: 250,
            },
            Response::Draining,
            Response::TimedOut { waited_ms: 900 },
            Response::Failed {
                error: "op \"train\" failed".into(),
                transient: true,
                salvaged: 4,
            },
            Response::StatsReply(StatsSnapshot {
                workloads: 10,
                served: 9,
                rejected_overload: 1,
                draining: true,
                run_seconds: 1.25,
                shards: 8,
                lock_wait_ns: 1234,
                durability_health: 1,
                repair_attempts: 3,
                repairs_succeeded: 2,
                publishes_rejected_readonly: 5,
                ..StatsSnapshot::default()
            }),
            Response::Pong,
            Response::DrainStarted,
            Response::Bad {
                message: "oversized frame".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtocolError::Malformed(_))
        ));
    }

    /// A stats reply in the version-1 layout carried three more
    /// counters. Decoding one must fail, not shift every later field.
    #[test]
    fn a_version_1_stats_reply_is_refused_not_misread() {
        let current = Response::StatsReply(StatsSnapshot {
            workloads: 1,
            ..StatsSnapshot::default()
        })
        .encode();
        let mut v1 = Writer::new();
        v1.u8(8);
        for i in 0..25 {
            v1.u64(i);
        }
        v1.f64(1.0);
        v1.f64(2.0);
        v1.bool(false);
        assert_eq!(v1.buf.len(), current.len() + 3 * 8);
        let err = Response::decode(&v1.buf).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err}");
    }

    #[test]
    fn corrupt_counts_cannot_balloon() {
        // A RegisterDataset claiming 2^24 columns in a 20-byte payload.
        let mut w = Writer::new();
        w.u8(2);
        w.str("t");
        w.u32(1 << 24);
        let err = Request::decode(&w.buf).unwrap_err();
        assert!(matches!(err, ProtocolError::Malformed(_)), "{err}");
    }

    #[test]
    fn empty_payload_is_malformed() {
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
    }
}
