//! Property tests for the durability codecs: journal records and
//! `EGSNAP 3` snapshots must round-trip hostile text exactly, and any
//! single-byte corruption of the on-disk bytes must be *detected* — as
//! a hard error, or (for the journal, whose tail may legitimately be
//! torn by a crash) by confining the damage to a truncated tail so the
//! surviving prefix is exactly what was committed.

use co_dataframe::Scalar;
use co_graph::journal::{self, EgDelta, FsyncPolicy, Journal, VertexTouch};
use co_graph::{
    snapshot, ArtifactId, EgVertex, ExperimentGraph, NodeKind, Operation, QuarantineEntry, Value,
    WorkloadDag,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

struct Tag(String);
impl Operation for Tag {
    fn name(&self) -> &str {
        &self.0
    }
    fn params_digest(&self) -> String {
        String::new()
    }
    fn output_kind(&self) -> NodeKind {
        NodeKind::Dataset
    }
    fn run(&self, _inputs: &[&Value]) -> co_graph::Result<Value> {
        Ok(Value::Aggregate(Scalar::Float(0.0)))
    }
}

/// Strings over an alphabet rich in exactly the characters the codecs
/// must escape — tabs (field separator), newlines (record separator),
/// backslashes (escape char) — plus the `-` None sentinel.
fn hostile(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!['\t', '\n', '\\', '-', 'a', 'B', ' ', '0']),
        len,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// `Option<String>` built from a coin flip (the vendored proptest has
/// no `option::of`).
fn maybe_name() -> impl Strategy<Value = Option<String>> {
    (prop_bool::ANY, hostile(0..6)).prop_map(|(some, s)| some.then(|| format!("s{s}")))
}

fn arb_vertex() -> impl Strategy<Value = EgVertex> {
    (
        (
            0u64..u64::MAX,
            proptest::sample::select(vec![
                NodeKind::Dataset,
                NodeKind::Aggregate,
                NodeKind::Model,
            ]),
            0u64..1_000_000,
            0.0f64..1e6,
            0u64..u64::MAX,
        ),
        (
            0.0f64..1.0,
            hostile(0..10),
            maybe_name(),
            (prop_bool::ANY, 0u64..u64::MAX).prop_map(|(some, h)| some.then_some(h)),
            proptest::collection::vec(0u64..u64::MAX, 0..3),
        ),
    )
        .prop_map(
            |(
                (id, kind, frequency, compute_time, size),
                (quality, description, source_name, op_hash, parents),
            )| EgVertex {
                id: ArtifactId(id),
                kind,
                frequency,
                compute_time,
                size,
                quality,
                description,
                source_name,
                op_hash,
                parents: parents.into_iter().map(ArtifactId).collect(),
                // The codec serialises parents only; children are
                // rebuilt from them when a delta is applied.
                children: Vec::new(),
            },
        )
}

fn arb_quarantine_entry() -> impl Strategy<Value = QuarantineEntry> {
    (0u64..u64::MAX, hostile(0..8), 1usize..9).prop_map(|(op_hash, name, failures)| {
        QuarantineEntry {
            op_hash,
            name,
            failures,
        }
    })
}

/// The shard whose journal the generated records are read from.
const OWNER: usize = 3;

/// A strictly ascending, non-empty shard set over shards 0..8 that
/// contains [`OWNER`] — the only shape a publish ever writes.
fn arb_shards() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_bool::ANY, 8..9)
        .prop_map(|mask| (0..mask.len()).filter(|&k| mask[k] || k == OWNER).collect())
}

fn arb_delta() -> impl Strategy<Value = EgDelta> {
    (
        (
            (0u64..u64::MAX, arb_shards()),
            proptest::collection::vec(arb_vertex(), 0..3),
        ),
        proptest::collection::vec(
            (
                0u64..u64::MAX,
                0u64..1_000_000,
                0.0f64..1e6,
                0u64..u64::MAX,
                0.0f64..1.0,
            ),
            0..3,
        ),
        proptest::collection::vec(0u64..u64::MAX, 0..3),
        proptest::collection::vec(0u64..u64::MAX, 0..3),
        proptest::collection::vec(arb_quarantine_entry(), 0..2),
        proptest::collection::vec(0u64..u64::MAX, 0..2),
    )
        .prop_map(
            |(((seq, shards), new_vertices), touched, added, removed, qset, qcleared)| EgDelta {
                seq,
                shards,
                new_vertices,
                touched: touched
                    .into_iter()
                    .map(|(id, frequency, compute_time, size, quality)| VertexTouch {
                        id: ArtifactId(id),
                        frequency,
                        compute_time,
                        size,
                        quality,
                    })
                    .collect(),
                mat_added: added.into_iter().map(ArtifactId).collect(),
                mat_removed: removed.into_iter().map(ArtifactId).collect(),
                quarantine_set: qset,
                quarantine_cleared: qcleared,
            },
        )
}

/// A per-test scratch file under `target/tmp`. Proptest cases run
/// sequentially, so one path per test is race-free.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("durability_props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small graph whose source names carry hostile text, with a chosen
/// subset of vertices flagged materialized.
fn hostile_graph(names: &[String], mat_mask: &[bool]) -> ExperimentGraph {
    let mut dag = WorkloadDag::new();
    let sources: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, n)| dag.add_source(&format!("s{i}_{n}"), Value::Aggregate(Scalar::Float(0.0))))
        .collect();
    let merged = dag.add_op(Arc::new(Tag("merge".into())), &sources).unwrap();
    let tail = dag.add_op(Arc::new(Tag("tail".into())), &[merged]).unwrap();
    dag.mark_terminal(tail).unwrap();
    let mut eg = ExperimentGraph::new(true);
    eg.update_with_workload(&dag).unwrap();
    let ids = eg.topo_order().to_vec();
    for (id, mat) in ids.iter().zip(mat_mask.iter().cycle()) {
        if *mat {
            eg.mark_restored_materialized(*id);
        }
    }
    eg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Journal payload codec: encode → decode is the identity, even for
    /// deltas full of separator characters.
    fn journal_record_round_trips(delta in arb_delta()) {
        let payload = delta.encode();
        let back = EgDelta::decode(&payload, OWNER, "prop", 1).unwrap();
        prop_assert_eq!(back, delta);
    }

    /// The `S` line's shard set is the publish's commit decision: decode
    /// accepts a set exactly when it is non-empty, strictly ascending
    /// and names the shard the record was read from.
    fn shard_set_is_accepted_iff_ascending_and_owned(
        shards in proptest::collection::vec(0usize..6, 0..5),
        owner in 0usize..6,
    ) {
        let set: Vec<String> = shards.iter().map(|k| format!("{k:x}")).collect();
        let payload = format!("S\t7\t{}\n", set.join(","));
        let valid = !shards.is_empty()
            && shards.windows(2).all(|w| w[0] < w[1])
            && shards.contains(&owner);
        match EgDelta::decode(&payload, owner, "prop", 1) {
            Ok(delta) => {
                prop_assert!(valid, "accepted {:?} for owner {}", shards, owner);
                prop_assert_eq!(delta.shards, shards);
            }
            Err(_) => prop_assert!(!valid, "rejected {:?} for owner {}", shards, owner),
        }
    }

    /// Whole-file round trip: append N deltas, replay the file, get the
    /// same N deltas with no torn tail.
    fn journal_file_round_trips(deltas in proptest::collection::vec(arb_delta(), 1..4)) {
        let path = scratch("round_trip.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, FsyncPolicy::Never).unwrap();
        for d in &deltas {
            j.append(d, None).unwrap();
        }
        drop(j);
        let out = journal::replay(&path, OWNER).unwrap();
        prop_assert!(out.torn_at.is_none());
        prop_assert_eq!(out.records, deltas);
    }

    /// Truncate a journal at any byte boundary: replay keeps a prefix
    /// of the original records and flags the torn tail unless the cut
    /// lands exactly on a record boundary. A truncation never
    /// fabricates or alters a record — in particular its shard set, the
    /// publish's commit decision.
    fn journal_truncation_keeps_a_prefix(
        deltas in proptest::collection::vec(arb_delta(), 1..4),
        cut in 0usize..1_000_000,
    ) {
        let path = scratch("truncate.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, FsyncPolicy::Never).unwrap();
        for d in &deltas {
            j.append(d, None).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        // Clean cut points: empty, the bare magic, and every frame
        // boundary.
        let full = journal::replay(&path, OWNER).unwrap();
        let mut clean: Vec<u64> = vec![0, 8, bytes.len() as u64];
        clean.extend(&full.starts);
        let keep = cut % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let out = journal::replay(&path, OWNER).unwrap();
        prop_assert!(out.records.len() <= deltas.len());
        for (got, want) in out.records.iter().zip(deltas.iter()) {
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(out.torn_at.is_none(), clean.contains(&(keep as u64)));
    }

    /// Flip any single byte of a journal file: replay must either error
    /// out (bad magic, unparseable record) or stop at a torn tail whose
    /// surviving prefix equals the original records exactly. A flip must
    /// never fabricate or alter a replayed record.
    fn journal_corruption_is_detected_or_torn(
        deltas in proptest::collection::vec(arb_delta(), 1..4),
        idx in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let path = scratch("corrupt.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, FsyncPolicy::Never).unwrap();
        for d in &deltas {
            j.append(d, None).unwrap();
        }
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = idx % bytes.len();
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        match journal::replay(&path, OWNER) {
            Err(_) => {} // detected outright
            Ok(out) => {
                prop_assert!(
                    out.torn_at.is_some(),
                    "flip of byte {} (mask {:#04x}) went unnoticed",
                    at,
                    mask
                );
                prop_assert!(out.records.len() <= deltas.len());
                for (got, want) in out.records.iter().zip(deltas.iter()) {
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// `EGSNAP 3` round trip: vertices, materialization flags, and the
    /// quarantine set all survive, and re-serialising the restored state
    /// is bytewise identical (stable fixed point).
    fn snapshot_round_trips(
        names in proptest::collection::vec(hostile(0..8), 1..4),
        mat_mask in proptest::collection::vec(prop_bool::ANY, 1..4),
        quarantine in proptest::collection::vec(arb_quarantine_entry(), 0..3),
    ) {
        let eg = hostile_graph(&names, &mat_mask);
        let text = snapshot::to_shard_snapshot(&eg, &quarantine, 0).unwrap();
        let restored = snapshot::from_shard_snapshot(&text, true, "prop").unwrap();
        prop_assert_eq!(restored.graph.n_vertices(), eg.n_vertices());
        prop_assert_eq!(restored.graph.topo_order(), eg.topo_order());
        for id in eg.topo_order() {
            prop_assert_eq!(
                restored.graph.was_materialized(*id),
                eg.was_materialized(*id),
                "mat flag of {:x}",
                id.0
            );
        }
        prop_assert_eq!(&restored.quarantine, &quarantine);
        prop_assert_eq!(
            snapshot::to_shard_snapshot(&restored.graph, &restored.quarantine, 0).unwrap(),
            text
        );
    }

    /// Flip any single byte of an `EGSNAP 3` snapshot: loading must
    /// fail. Unlike the journal there is no legitimate torn state — the
    /// file is renamed into place atomically — so every corruption is a
    /// hard error (invalid UTF-8 counts: the file no longer reads as a
    /// snapshot at all).
    fn snapshot_corruption_is_always_detected(
        names in proptest::collection::vec(hostile(0..8), 1..4),
        mat_mask in proptest::collection::vec(prop_bool::ANY, 1..4),
        quarantine in proptest::collection::vec(arb_quarantine_entry(), 0..2),
        idx in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let eg = hostile_graph(&names, &mat_mask);
        let good = snapshot::to_shard_snapshot(&eg, &quarantine, 0).unwrap();
        let mut bytes = good.clone().into_bytes();
        let at = idx % bytes.len();
        bytes[at] ^= mask;
        match String::from_utf8(bytes) {
            Err(_) => {} // detected: not even UTF-8 any more
            Ok(bad) => prop_assert!(
                snapshot::from_shard_snapshot(&bad, true, "prop").is_err(),
                "flip of byte {} (mask {:#04x}) loaded successfully",
                at,
                mask
            ),
        }
    }
}
