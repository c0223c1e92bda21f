//! Property tests for the commit log (`EGCMT 1`): the
//! commit-record codec must round-trip exactly, and any single-byte
//! corruption of the on-disk log must be *detected* — as a hard error,
//! or by confining the damage to a truncated tail so the surviving
//! prefix is exactly the records that were committed (the commit log's
//! tail, like the journal's, may legitimately be torn by a crash
//! mid-append). These mirror `durability_props.rs` for the framed
//! log's second payload type.

use co_graph::journal::{self, CommitLog, CommitRecord, FsyncPolicy, LogRecord};
use proptest::prelude::*;
use std::path::PathBuf;

/// A strictly ascending, non-empty shard list — the only shape the
/// commit point ever writes (locks are acquired in ascending order).
fn arb_shards() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..8, 1..6).prop_map(|gaps| {
        let mut shards = Vec::with_capacity(gaps.len());
        let mut at = 0u32;
        for g in gaps {
            at += g;
            shards.push(at);
        }
        shards
    })
}

fn arb_record() -> impl Strategy<Value = CommitRecord> {
    (0u64..u64::MAX, arb_shards()).prop_map(|(seq, shards)| CommitRecord { seq, shards })
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("commit_record_props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Payload codec: encode → decode is the identity.
    fn commit_record_round_trips(record in arb_record()) {
        let payload = record.encode();
        let back = CommitRecord::decode(&payload, "prop", 1).unwrap();
        prop_assert_eq!(back, record);
    }

    /// Whole-file round trip: append N records, replay the log, get the
    /// same N records with no torn tail.
    fn commit_log_round_trips(records in proptest::collection::vec(arb_record(), 1..5)) {
        let path = scratch("round_trip.commit");
        let _ = std::fs::remove_file(&path);
        let mut log = CommitLog::open(&path, FsyncPolicy::Never).unwrap();
        for r in &records {
            log.append(r, None).unwrap();
        }
        drop(log);
        let out = journal::replay::<CommitRecord>(&path).unwrap();
        prop_assert!(out.torn_at.is_none());
        prop_assert_eq!(out.records, records);
    }

    /// Flip any single byte of a commit log: replay must either error
    /// out (bad magic, unparseable record) or stop at a torn tail whose
    /// surviving prefix equals the original records exactly. A flip must
    /// never fabricate a commit — that would resurrect a publish that
    /// was rolled back.
    fn commit_log_corruption_is_detected_or_torn(
        records in proptest::collection::vec(arb_record(), 1..5),
        idx in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let path = scratch("corrupt.commit");
        let _ = std::fs::remove_file(&path);
        let mut log = CommitLog::open(&path, FsyncPolicy::Never).unwrap();
        for r in &records {
            log.append(r, None).unwrap();
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = idx % bytes.len();
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        match journal::replay::<CommitRecord>(&path) {
            Err(_) => {} // detected outright
            Ok(out) => {
                prop_assert!(
                    out.torn_at.is_some(),
                    "flip of byte {} (mask {:#04x}) went unnoticed",
                    at,
                    mask
                );
                prop_assert!(out.records.len() <= records.len());
                for (got, want) in out.records.iter().zip(records.iter()) {
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// Truncate the log at any byte boundary: replay keeps a prefix of
    /// the original records and flags the torn tail (unless the cut
    /// lands exactly on a record boundary).
    fn commit_log_truncation_keeps_a_prefix(
        records in proptest::collection::vec(arb_record(), 1..5),
        cut in 0usize..1_000_000,
    ) {
        let path = scratch("truncate.commit");
        let _ = std::fs::remove_file(&path);
        let mut log = CommitLog::open(&path, FsyncPolicy::Never).unwrap();
        for r in &records {
            log.append(r, None).unwrap();
        }
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        let keep = cut % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        // A cut exactly on a record boundary leaves a shorter but clean
        // log (no torn tail); anywhere else the tail is flagged. Either
        // way the surviving records are a prefix of the originals.
        let out = journal::replay::<CommitRecord>(&path).unwrap();
        prop_assert!(out.records.len() <= records.len());
        for (got, want) in out.records.iter().zip(records.iter()) {
            prop_assert_eq!(got, want);
        }
    }
}
