//! Property suite over the wire codec: every request/response type
//! round-trips through encode → frame → read → decode, and any
//! single-byte corruption of a frame is detected (a typed error) —
//! never a panic, never a silently different message.

use co_dataframe::ColumnData;
use co_serve::frame::{encode_frame, read_frame, ProtocolError, HEADER_LEN};
use co_serve::proto::{Request, Response, StatsSnapshot, WorkloadSummary};
use co_serve::spec::{AggSpec, MapFnSpec, SpecStep, WorkloadSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// Hostile-ish strings: empty, multi-byte UTF-8, quotes, NULs,
/// separators — everything a codec that splits on bytes would trip on.
fn arb_string() -> impl Strategy<Value = String> {
    vec(
        select(vec![
            'a', 'Z', '0', '_', ' ', '"', '\\', '\n', '\0', 'é', '日', '🦀',
        ]),
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_column_data() -> BoxedStrategy<ColumnData> {
    (0u8..4)
        .prop_flat_map(|kind| match kind {
            0 => vec(-50i64..50, 0..6).prop_map(ColumnData::Int).boxed(),
            1 => vec(-1.0f64..1.0, 0..6).prop_map(ColumnData::Float).boxed(),
            2 => vec(arb_string(), 0..4).prop_map(ColumnData::Str).boxed(),
            _ => vec(prop_bool::ANY, 0..6).prop_map(ColumnData::Bool).boxed(),
        })
        .boxed()
}

fn arb_step() -> BoxedStrategy<SpecStep> {
    (0u8..6)
        .prop_flat_map(|kind| match kind {
            0 => arb_string()
                .prop_map(|dataset| SpecStep::Load { dataset })
                .boxed(),
            1 => (0u32..8, vec(arb_string(), 0..4))
                .prop_map(|(input, columns)| SpecStep::Select { input, columns })
                .boxed(),
            2 => (0u32..8, arb_string(), -10.0f64..10.0)
                .prop_map(|(input, column, value)| SpecStep::FilterGt {
                    input,
                    column,
                    value,
                })
                .boxed(),
            3 => (
                0u32..8,
                arb_string(),
                select(vec![
                    MapFnSpec::Log1p,
                    MapFnSpec::Abs,
                    MapFnSpec::Sqrt,
                    MapFnSpec::AddConst(2.5),
                    MapFnSpec::MulConst(-1.5),
                ]),
                arb_string(),
            )
                .prop_map(|(input, column, f, out)| SpecStep::Map {
                    input,
                    column,
                    f,
                    out,
                })
                .boxed(),
            4 => (0u32..8, arb_string(), 0.0f64..1.0, 1u32..100)
                .prop_map(|(input, label, lr, max_iter)| SpecStep::TrainLogistic {
                    input,
                    label,
                    lr,
                    max_iter,
                })
                .boxed(),
            _ => (
                0u32..8,
                arb_string(),
                select(vec![
                    AggSpec::Sum,
                    AggSpec::Mean,
                    AggSpec::Min,
                    AggSpec::Max,
                    AggSpec::Count,
                    AggSpec::Std,
                ]),
            )
                .prop_map(|(input, column, f)| SpecStep::Agg { input, column, f })
                .boxed(),
        })
        .boxed()
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (vec(arb_step(), 0..5), vec(0u32..8, 0..3))
        .prop_map(|(steps, outputs)| WorkloadSpec { steps, outputs })
}

fn arb_request() -> BoxedStrategy<Request> {
    (0u8..6)
        .prop_flat_map(|kind| match kind {
            0 => (arb_string(), 0u32..5)
                .prop_map(|(client, proto)| Request::Hello { client, proto })
                .boxed(),
            1 => (arb_string(), vec((arb_string(), arb_column_data()), 0..4))
                .prop_map(|(name, columns)| Request::RegisterDataset { name, columns })
                .boxed(),
            2 => (arb_spec(), prop_bool::ANY, 0u64..100_000)
                .prop_map(|(spec, with_deadline, ms)| Request::Submit {
                    spec,
                    deadline_ms: with_deadline.then_some(ms),
                })
                .boxed(),
            3 => Just(Request::Stats).boxed(),
            4 => Just(Request::Ping).boxed(),
            _ => Just(Request::Drain).boxed(),
        })
        .boxed()
}

fn arb_stats() -> impl Strategy<Value = StatsSnapshot> {
    (
        (
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0.0f64..100.0,
            0.0f64..100.0,
        ),
        (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        (
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..1000,
        ),
        (0u64..1000, prop_bool::ANY, 1u64..16, 0u64..1_000_000),
        (0u64..3, 0u64..1000, 0u64..1000, 0u64..1000),
    )
        .prop_map(|(a, b, c, d, e)| StatsSnapshot {
            workloads: a.0,
            ops_executed: a.1,
            artifacts_loaded: a.2,
            warmstarts: a.3,
            run_seconds: a.4,
            baseline_seconds: a.5,
            failed_workloads: b.0,
            salvaged_artifacts: b.1,
            journal_records_replayed: b.2,
            torn_tail_truncated: b.3,
            snapshots_compacted: b.4,
            connections: c.0,
            submitted: c.1,
            served: c.2,
            rejected_overload: c.3,
            rejected_draining: c.4,
            timed_out: c.5,
            protocol_errors: d.0,
            draining: d.1,
            shards: d.2,
            lock_wait_ns: d.3,
            durability_health: e.0,
            repair_attempts: e.1,
            repairs_succeeded: e.2,
            publishes_rejected_readonly: e.3,
        })
}

fn arb_response() -> BoxedStrategy<Response> {
    (0u8..12)
        .prop_flat_map(|kind| match kind {
            0 => (0u64..1 << 32, 0u32..5)
                .prop_map(|(session, proto)| Response::Welcome { session, proto })
                .boxed(),
            1 => arb_string()
                .prop_map(|qualified| Response::DatasetRegistered { qualified })
                .boxed(),
            2 => (0u64..100, 0u64..100, 0u64..100, 0.0f64..10.0, 0.0f64..500.0)
                .prop_map(
                    |(ops_executed, artifacts_loaded, warmstarts, run_seconds, queue_ms)| {
                        Response::Done(WorkloadSummary {
                            ops_executed,
                            artifacts_loaded,
                            warmstarts,
                            run_seconds,
                            queue_ms,
                        })
                    },
                )
                .boxed(),
            3 => (1u64..60_000)
                .prop_map(|retry_after_ms| Response::Overloaded { retry_after_ms })
                .boxed(),
            4 => Just(Response::Draining).boxed(),
            5 => (0u64..60_000)
                .prop_map(|waited_ms| Response::TimedOut { waited_ms })
                .boxed(),
            6 => (arb_string(), prop_bool::ANY, 0u64..50)
                .prop_map(|(error, transient, salvaged)| Response::Failed {
                    error,
                    transient,
                    salvaged,
                })
                .boxed(),
            7 => arb_stats().prop_map(Response::StatsReply).boxed(),
            8 => Just(Response::Pong).boxed(),
            9 => Just(Response::DrainStarted).boxed(),
            10 => (1u64..60_000)
                .prop_map(|retry_after_ms| Response::ReadOnly { retry_after_ms })
                .boxed(),
            _ => arb_string()
                .prop_map(|message| Response::Bad { message })
                .boxed(),
        })
        .boxed()
}

/// Round-trip through the full stack: encode → frame → read → decode.
/// Equality is checked on re-encoded bytes so float payloads (NaN-free
/// here, but the codec must not care) compare exactly.
fn frame_round_trip(payload: &[u8]) -> Vec<u8> {
    let framed = encode_frame(payload);
    let mut cursor = std::io::Cursor::new(framed);
    read_frame(&mut cursor).expect("well-formed frame reads back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn requests_round_trip(request in arb_request()) {
        let encoded = request.encode();
        let read_back = frame_round_trip(&encoded);
        prop_assert_eq!(&read_back, &encoded);
        let decoded = Request::decode(&read_back);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap().encode(), encoded);
    }

    fn responses_round_trip(response in arb_response()) {
        let encoded = response.encode();
        let read_back = frame_round_trip(&encoded);
        prop_assert_eq!(&read_back, &encoded);
        let decoded = Response::decode(&read_back);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap().encode(), encoded);
    }

    /// Any single-byte corruption of a framed message is detected by
    /// the frame layer as a typed error — length and checksum fields
    /// included — and never panics or returns a different payload.
    fn single_byte_corruption_detected(
        request in arb_request(),
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let framed = encode_frame(&request.encode());
        let pos = flip_pos % framed.len();
        let mut corrupted = framed.clone();
        corrupted[pos] ^= 1 << flip_bit;
        let mut cursor = std::io::Cursor::new(corrupted);
        match read_frame(&mut cursor) {
            Err(
                ProtocolError::BadChecksum
                | ProtocolError::Oversized { .. }
                | ProtocolError::Truncated { .. },
            ) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "corruption at byte {pos} surfaced as non-frame error {other:?}"
                )))
            }
            Ok(_) => {
                return Err(TestCaseError::fail(format!(
                    "corruption at byte {pos} went undetected"
                )))
            }
        }
    }

    /// Decoding arbitrary bytes is total: any input is `Ok` or a typed
    /// error, never a panic — the server feeds raw frame payloads
    /// straight into these.
    fn decode_is_total(bytes in vec(0u8..=255u8, 0..64)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// A corrupted frame is *confined*: after the reader rejects it,
    /// a subsequent well-formed frame on the same stream still reads
    /// (the decoder consumed exactly the bytes the bad header claimed,
    /// so recovery at the transport layer is a clean close — but the
    /// frame reader itself must not wedge on the leftover bytes).
    fn truncated_frames_do_not_wedge(request in arb_request(), cut in 1usize..64) {
        let framed = encode_frame(&request.encode());
        let keep = framed.len().saturating_sub(cut).max(1);
        let mut cursor = std::io::Cursor::new(framed[..keep].to_vec());
        // Whether the cut lands mid-header or mid-payload, the reader
        // reports a typed truncation with what it actually saw.
        let result = read_frame(&mut cursor);
        prop_assert!(
            matches!(result, Err(ProtocolError::Truncated { .. })),
            "unexpected result for cut={} (kept {} of {}, header {}): {:?}",
            cut, keep, framed.len(), HEADER_LEN, result
        );
    }
}
