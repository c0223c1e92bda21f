//! The per-shard write-ahead journals of the Experiment Graph.
//!
//! The EG is the shared asset a collaborative environment accumulates
//! over weeks (paper §3.2); a crash must not lose workloads committed
//! since the last snapshot. Each committed workload's EG delta — new
//! vertices, frequency bumps, materialization changes, quarantine
//! changes — is appended to the journal of every shard it touched,
//! inside the server's publish critical section. Recovery
//! (`crate::shard::recover_shards`) loads the newest valid snapshots,
//! then [`replay`]s the journals on top, stopping at — and truncating —
//! the first torn record instead of failing.
//!
//! ## Framing (`EGWAL 1`, `eg-<k>.wal`)
//!
//! A [`Journal`] is an 8-byte magic followed by records
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! whose UTF-8 text payload is one [`EgDelta`], one line per entry,
//! using the same field escaping as the snapshot format:
//!
//! | line | meaning |
//! |------|---------|
//! | `S\t<seq>\t<shard,shard,…>` | publish sequence number and the publish's shard set (hex, strictly ascending) |
//! | `V\t<10 vertex fields>` | a vertex new to the graph |
//! | `F\t<id>\t<freq>\t<t>\t<s>\t<q>` | refreshed absolute attributes of an existing vertex |
//! | `M+\t<id>` / `M-\t<id>` | artifact content materialized / evicted |
//! | `Q+\t<hash>\t<failures>\t<name>` / `Q-\t<hash>` | operation quarantined / released |
//!
//! `F` records carry *absolute* values (not increments), so replaying a
//! record whose effects are already contained in a newer snapshot is
//! idempotent.
//!
//! ## Commit without a commit log
//!
//! A publish appends one record per touched shard, all carrying the
//! same `S` line: its sequence number and the set of shards that
//! receive a record. The records themselves are the commit decision
//! (presumed-abort two-phase commit with no coordinator log): seq `s`
//! is committed iff every shard in its set holds an intact record `s`
//! or has a snapshot watermark ≥ `s`. A crash between two shards'
//! appends therefore rolls the whole publish back, and recovery
//! truncates the records it left (they are always the tail of their
//! journals).

use crate::artifact::ArtifactId;
use crate::error::{GraphError, Result};
use crate::experiment::{EgVertex, ExperimentGraph};
use crate::faults::FaultInjector;
use crate::snapshot::{escape, parse_vertex_fields, unescape, vertex_fields, ParseCtx};
use crate::vfs::{self, VfsFile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file.
pub const WAL_MAGIC: &[u8; 8] = b"EGWAL 1\n";

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3, the polynomial used by zip/png). Detects every
/// single-byte corruption and every error burst up to 32 bits.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// When journal appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: a committed workload survives any crash.
    Always,
    /// Never fsync explicitly; the OS decides (fastest, weakest).
    Never,
}

/// A persisted quarantine entry: the op hash (the cross-session identity
/// the quarantine is keyed by), its display name, and the consecutive
/// permanent-failure count at persistence time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// `Operation::op_hash()` of the quarantined operation.
    pub op_hash: u64,
    /// Operation display name (for diagnostics).
    pub name: String,
    /// Consecutive permanent failures recorded when persisted.
    pub failures: usize,
}

/// Refreshed absolute attributes of a vertex that an already-known
/// workload touched (frequency bump + measurement refresh).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexTouch {
    /// The touched vertex.
    pub id: ArtifactId,
    /// Absolute frequency after the touch.
    pub frequency: u64,
    /// Absolute compute time after the touch.
    pub compute_time: f64,
    /// Absolute size after the touch.
    pub size: u64,
    /// Absolute quality after the touch.
    pub quality: f64,
}

impl VertexTouch {
    /// The current absolute attributes of `v`.
    #[must_use]
    pub fn of(v: &EgVertex) -> Self {
        VertexTouch {
            id: v.id,
            frequency: v.frequency,
            compute_time: v.compute_time,
            size: v.size,
            quality: v.quality,
        }
    }

    fn write_to(&self, dst: &mut EgVertex) {
        dst.frequency = self.frequency;
        dst.compute_time = self.compute_time;
        dst.size = self.size;
        dst.quality = self.quality;
    }
}

/// One committed workload's effect on one shard of the Experiment
/// Graph — the unit of journaling and replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EgDelta {
    /// Publish sequence number, shared by every record of one publish.
    pub seq: u64,
    /// The publish's shard set, strictly ascending: every shard whose
    /// journal receives a record `seq`. It is the commit decision —
    /// see the module docs.
    pub shards: Vec<usize>,
    /// Vertices this workload added, in parents-first order.
    pub new_vertices: Vec<EgVertex>,
    /// Existing vertices it touched (absolute values, replay-idempotent).
    pub touched: Vec<VertexTouch>,
    /// Artifacts whose content the updater/materializer stored.
    pub mat_added: Vec<ArtifactId>,
    /// Artifacts whose content was evicted.
    pub mat_removed: Vec<ArtifactId>,
    /// Quarantine entries added or updated.
    pub quarantine_set: Vec<QuarantineEntry>,
    /// Op hashes released from quarantine.
    pub quarantine_cleared: Vec<u64>,
}

impl EgDelta {
    /// Whether the delta records no change at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_vertices.is_empty()
            && self.touched.is_empty()
            && self.mat_added.is_empty()
            && self.mat_removed.is_empty()
            && self.quarantine_set.is_empty()
            && self.quarantine_cleared.is_empty()
    }

    /// Apply the delta to its shard during recovery. New vertices are
    /// inserted without lineage resolution — their parents may live in
    /// other shards, and children links are rebuilt by the recovery
    /// rewire pass afterwards; vertices that already exist — replay over
    /// a snapshot taken after this record — have their absolute
    /// attributes overwritten, so application is idempotent.
    /// Materialization changes land in the graph's
    /// restored-materialization set (content itself is never persisted;
    /// see `crate::snapshot`).
    pub fn apply_to_shard(&self, eg: &mut ExperimentGraph) -> Result<()> {
        for v in &self.new_vertices {
            if eg.contains(v.id) {
                VertexTouch::of(v).write_to(eg.vertex_mut(v.id)?);
            } else {
                eg.restore_vertex_unlinked(v.clone())?;
            }
        }
        for t in &self.touched {
            t.write_to(eg.vertex_mut(t.id)?);
        }
        for id in &self.mat_added {
            eg.mark_restored_materialized(*id);
        }
        for id in &self.mat_removed {
            eg.unmark_restored_materialized(*id);
        }
        Ok(())
    }

    /// Serialise the delta to its payload text.
    #[must_use]
    pub fn encode(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(|k| format!("{k:x}")).collect();
        let mut out = format!("S\t{:x}\t{}\n", self.seq, shards.join(","));
        for v in &self.new_vertices {
            let _ = writeln!(out, "V\t{}", vertex_fields(v));
        }
        for t in &self.touched {
            let _ = writeln!(
                out,
                "F\t{:x}\t{}\t{}\t{}\t{}",
                t.id.0, t.frequency, t.compute_time, t.size, t.quality
            );
        }
        for id in &self.mat_added {
            let _ = writeln!(out, "M+\t{:x}", id.0);
        }
        for id in &self.mat_removed {
            let _ = writeln!(out, "M-\t{:x}", id.0);
        }
        for q in &self.quarantine_set {
            let _ = writeln!(
                out,
                "Q+\t{:x}\t{}\t{}",
                q.op_hash,
                q.failures,
                escape(&q.name)
            );
        }
        for h in &self.quarantine_cleared {
            let _ = writeln!(out, "Q-\t{h:x}");
        }
        out
    }

    /// Parse a payload read from shard `shard`'s journal. `origin` and
    /// `record` (1-based) name the file and record in any error. The
    /// `S` line is mandatory, and its shard set must be non-empty,
    /// strictly ascending and contain `shard`.
    pub fn decode(payload: &str, shard: usize, origin: &str, record: usize) -> Result<EgDelta> {
        let ctx = ParseCtx { origin, record };
        let mut delta = EgDelta::default();
        let mut stamped = false;
        for line in payload.lines() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[0] {
                "S" if fields.len() == 3 && !stamped => {
                    stamped = true;
                    delta.seq = u64::from_str_radix(fields[1], 16)
                        .map_err(|_| ctx.err("bad sequence number in S entry"))?;
                    for part in fields[2].split(',') {
                        delta.shards.push(
                            usize::from_str_radix(part, 16)
                                .map_err(|_| ctx.err(format!("bad shard index {part:?}")))?,
                        );
                    }
                    if delta.shards.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(ctx.err("S entry shard set is not strictly ascending"));
                    }
                    if !delta.shards.contains(&shard) {
                        return Err(ctx.err(format!("S entry shard set omits shard {shard}")));
                    }
                }
                "V" if fields.len() == 11 => {
                    delta
                        .new_vertices
                        .push(parse_vertex_fields(&fields[1..], &ctx)?);
                }
                "F" if fields.len() == 6 => {
                    delta.touched.push(VertexTouch {
                        id: parse_id(fields[1], &ctx)?,
                        frequency: fields[2]
                            .parse()
                            .map_err(|_| ctx.err("bad frequency in F entry"))?,
                        compute_time: fields[3]
                            .parse()
                            .map_err(|_| ctx.err("bad compute time in F entry"))?,
                        size: fields[4]
                            .parse()
                            .map_err(|_| ctx.err("bad size in F entry"))?,
                        quality: fields[5]
                            .parse()
                            .map_err(|_| ctx.err("bad quality in F entry"))?,
                    });
                }
                "M+" if fields.len() == 2 => delta.mat_added.push(parse_id(fields[1], &ctx)?),
                "M-" if fields.len() == 2 => delta.mat_removed.push(parse_id(fields[1], &ctx)?),
                "Q+" if fields.len() == 4 => {
                    delta.quarantine_set.push(QuarantineEntry {
                        op_hash: u64::from_str_radix(fields[1], 16)
                            .map_err(|_| ctx.err("bad op hash in Q+ entry"))?,
                        failures: fields[2]
                            .parse()
                            .map_err(|_| ctx.err("bad failure count in Q+ entry"))?,
                        name: unescape(fields[3]).map_err(|m| ctx.err(m))?,
                    });
                }
                "Q-" if fields.len() == 2 => delta.quarantine_cleared.push(
                    u64::from_str_radix(fields[1], 16)
                        .map_err(|_| ctx.err("bad op hash in Q- entry"))?,
                ),
                tag => {
                    return Err(ctx.err(format!(
                        "unknown, repeated or malformed journal entry {tag:?} ({} fields)",
                        fields.len()
                    )))
                }
            }
        }
        if !stamped {
            return Err(ctx.err("journal record carries no S entry"));
        }
        Ok(delta)
    }
}

fn parse_id(field: &str, ctx: &ParseCtx<'_>) -> Result<ArtifactId> {
    u64::from_str_radix(field, 16)
        .map(ArtifactId)
        .map_err(|_| ctx.err(format!("bad artifact id {field:?}")))
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> GraphError {
    GraphError::Io(format!("cannot {what} journal {}: {e}", path.display()))
}

/// Length of the journal magic.
const MAGIC_LEN: usize = 8;

/// A shard's open, append-only write-ahead journal (`eg-<k>.wal`) of
/// length-prefixed, CRC-checksummed [`EgDelta`] records. All I/O flows
/// through [`crate::vfs`], so injected [`crate::faults::IoFault`]s
/// surface here as ordinary errors — after any failed append the
/// journal marks itself *damaged* and refuses further appends until
/// reopened (the file may hold a torn record, and appending past it
/// would orphan every later record behind the tear).
#[derive(Debug)]
pub struct Journal {
    file: VfsFile,
    path: PathBuf,
    policy: FsyncPolicy,
    len: u64,
    damaged: bool,
}

impl Journal {
    /// Open (or create) a journal for appending. A fresh or empty file
    /// gets the magic written and synced; an existing file must open
    /// with a valid magic — run [`replay`] (which reports torn tails,
    /// including a torn magic, for [`truncate`]) before opening.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Self> {
        Self::open_with(path, policy, None)
    }

    /// [`Journal::open`] with a fault injector consulted by the
    /// open-time magic write/validation (repair paths reopen journals
    /// while faults may still be armed).
    pub fn open_with(
        path: &Path,
        policy: FsyncPolicy,
        faults: Option<&FaultInjector>,
    ) -> Result<Self> {
        let err = |what, e| io_err(what, path, &e);
        let mut file = VfsFile::open_append(path, faults).map_err(|e| err("open", e))?;
        let mut len = file.len().map_err(|e| err("stat", e))?;
        if len == 0 {
            file.write_all(WAL_MAGIC, faults)
                .map_err(|e| err("initialise", e))?;
            file.sync(faults).map_err(|e| err("sync", e))?;
            len = MAGIC_LEN as u64;
        } else {
            let mut magic = [0u8; MAGIC_LEN];
            if len < MAGIC_LEN as u64 {
                return Err(GraphError::corrupt(
                    path.display().to_string(),
                    0,
                    "file shorter than the journal magic",
                ));
            }
            file.read_exact(&mut magic, faults)
                .map_err(|e| err("read", e))?;
            check_magic(&magic, path)?;
        }
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            policy,
            len,
            damaged: false,
        })
    }

    /// Current file length in bytes (magic + records).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a failed append or sync has left this journal in an
    /// unknown on-disk state (possible torn record, poisoned handle). A
    /// damaged journal refuses appends until reopened by repair.
    #[must_use]
    pub fn is_damaged(&self) -> bool {
        self.damaged || self.file.is_poisoned()
    }

    fn fail(&mut self, what: &str, e: &std::io::Error) -> GraphError {
        self.damaged = true;
        io_err(what, &self.path, e)
    }

    /// Append one record as a length-prefixed, CRC-checksummed frame,
    /// honouring the fsync policy. Injected faults — I/O faults and
    /// crash cuts alike — fire inside the vfs write/sync calls; any
    /// failure marks the journal damaged.
    pub fn append(&mut self, delta: &EgDelta, faults: Option<&FaultInjector>) -> Result<()> {
        if self.is_damaged() {
            return Err(GraphError::Io(format!(
                "journal {} is damaged by an earlier failed append; reopen it before appending",
                self.path.display()
            )));
        }
        let payload = delta.encode();
        let bytes = payload.as_bytes();
        let len = u32::try_from(bytes.len()).map_err(|_| {
            GraphError::Io(format!("journal record too large: {} bytes", bytes.len()))
        })?;
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        if let Err(e) = self.file.write_all(&frame, faults) {
            return Err(self.fail("append to", &e));
        }
        self.len += frame.len() as u64;
        match self.policy {
            FsyncPolicy::Always => self.sync(faults),
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Flush appended records to disk. A failed fsync poisons the
    /// underlying handle (fsyncgate — see [`crate::vfs`]): the journal
    /// is damaged and must be reopened, never retried in place.
    pub fn sync(&mut self, faults: Option<&FaultInjector>) -> Result<()> {
        self.file.sync(faults).map_err(|e| self.fail("sync", &e))
    }

    /// Truncate the journal back to just its magic and sync — called
    /// after the shard's snapshot has durably captured everything it
    /// held (compaction).
    pub fn reset(&mut self, faults: Option<&FaultInjector>) -> Result<()> {
        self.file
            .set_len(MAGIC_LEN as u64, faults)
            .map_err(|e| self.fail("truncate", &e))?;
        self.sync(faults)?;
        self.len = MAGIC_LEN as u64;
        Ok(())
    }
}

fn check_magic(magic: &[u8], path: &Path) -> Result<()> {
    if magic == WAL_MAGIC {
        return Ok(());
    }
    Err(GraphError::corrupt(
        path.display().to_string(),
        0,
        format!("bad journal magic {magic:?}"),
    ))
}

/// The result of scanning a journal at startup.
#[derive(Debug)]
pub struct Replay {
    /// Fully verified records, in append order.
    pub records: Vec<EgDelta>,
    /// Byte offset at which each record's frame starts (parallel to
    /// `records`): recovery truncates a journal at the first record of
    /// its uncommitted tail.
    pub starts: Vec<u64>,
    /// Byte offset where a torn tail begins (the file should be
    /// truncated to this length), if one was detected.
    pub torn_at: Option<u64>,
    /// Length of the file as read: truncating at `at` discards
    /// `len - at` bytes.
    pub len: u64,
}

/// Decode the 8-byte `(len, crc)` record header at `off`, or `None`
/// when fewer than 8 bytes remain — the torn-tail case the replay loop
/// handles, so header decoding itself can never panic.
fn header_at(bytes: &[u8], off: usize) -> Option<(usize, u32)> {
    let len: [u8; 4] = bytes.get(off..off + 4)?.try_into().ok()?;
    let crc: [u8; 4] = bytes.get(off + 4..off + 8)?.try_into().ok()?;
    Some((u32::from_le_bytes(len) as usize, u32::from_le_bytes(crc)))
}

/// Scan shard `shard`'s journal, verifying each record's length and
/// CRC. A missing or empty file yields an empty outcome. A *torn tail*
/// — a record whose frame is incomplete or whose CRC does not match,
/// the signature of a crash mid-append — ends the scan; everything
/// before it is returned and `torn_at` tells the caller where to
/// truncate. A record that passes its CRC but does not parse is real
/// corruption and is reported as an error naming the file and record
/// number.
pub fn replay(path: &Path, shard: usize) -> Result<Replay> {
    replay_with(path, shard, None)
}

/// [`replay`] with a fault injector consulted by the file read
/// ([`crate::faults::IoFault::ReadErr`] makes the scan itself fail, as
/// an unreadable sector would).
pub fn replay_with(path: &Path, shard: usize, faults: Option<&FaultInjector>) -> Result<Replay> {
    let mut outcome = Replay {
        records: Vec::new(),
        starts: Vec::new(),
        torn_at: None,
        len: 0,
    };
    let bytes = match vfs::read(path, faults) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(outcome),
        Err(e) => return Err(io_err("read", path, &e)),
    };
    outcome.len = bytes.len() as u64;
    if bytes.is_empty() {
        return Ok(outcome);
    }
    // A file shorter than the magic is a crash while initialising it:
    // everything is a torn tail.
    let mut off = 0;
    if bytes.len() >= MAGIC_LEN {
        check_magic(&bytes[..MAGIC_LEN], path)?;
        off = MAGIC_LEN;
    }
    let origin = path.display().to_string();
    while off < bytes.len() {
        let payload = header_at(&bytes, off).and_then(|(len, crc)| {
            let payload = bytes.get(off + 8..)?.get(..len)?;
            (crc32(payload) == crc).then_some(payload)
        });
        let Some(payload) = payload else {
            outcome.torn_at = Some(off as u64);
            break;
        };
        let record = outcome.records.len() + 1;
        let text = std::str::from_utf8(payload)
            .map_err(|_| GraphError::corrupt(&origin, record, "payload is not UTF-8"))?;
        outcome
            .records
            .push(EgDelta::decode(text, shard, &origin, record)?);
        outcome.starts.push(off as u64);
        off += 8 + payload.len();
    }
    Ok(outcome)
}

/// Truncate a journal to `valid_len` bytes, discarding a torn or
/// uncommitted tail found at recovery. Lengths shorter than the magic
/// truncate to empty (the next [`Journal::open`] re-initialises the
/// file).
pub fn truncate(path: &Path, valid_len: u64) -> Result<()> {
    truncate_with(path, valid_len, None)
}

/// [`truncate`] with a fault injector consulted by the write (repair
/// paths truncate torn tails while faults may still be armed).
pub fn truncate_with(path: &Path, valid_len: u64, faults: Option<&FaultInjector>) -> Result<()> {
    let keep = if valid_len < MAGIC_LEN as u64 {
        0
    } else {
        valid_len
    };
    vfs::truncate(path, keep, faults).map_err(|e| io_err("truncate", path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::NodeKind;
    use std::fs;

    fn vertex(id: u64, parents: &[u64]) -> EgVertex {
        EgVertex {
            id: ArtifactId(id),
            kind: NodeKind::Dataset,
            frequency: 1,
            compute_time: 0.5,
            size: 64,
            quality: 0.0,
            description: "tab\there".to_owned(),
            source_name: if parents.is_empty() {
                Some("src".to_owned())
            } else {
                None
            },
            op_hash: if parents.is_empty() {
                None
            } else {
                Some(id ^ 7)
            },
            parents: parents.iter().copied().map(ArtifactId).collect(),
            children: Vec::new(),
        }
    }

    fn sample_delta() -> EgDelta {
        EgDelta {
            seq: 0x1f,
            shards: vec![0, 3, 0xb],
            new_vertices: vec![vertex(1, &[]), vertex(2, &[1])],
            touched: vec![VertexTouch {
                id: ArtifactId(9),
                frequency: 4,
                compute_time: 1.25,
                size: 100,
                quality: 0.875,
            }],
            mat_added: vec![ArtifactId(2)],
            mat_removed: vec![ArtifactId(9)],
            quarantine_set: vec![QuarantineEntry {
                op_hash: 0xdead,
                name: "train\tmodel".to_owned(),
                failures: 3,
            }],
            quarantine_cleared: vec![0xbeef],
        }
    }

    /// A record that changes nothing, stamped for shard 0 alone.
    fn stamped_empty() -> EgDelta {
        EgDelta {
            seq: 2,
            shards: vec![0],
            ..EgDelta::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("co_graph_journal_{name}.wal"));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn delta_round_trips_through_text() {
        let delta = sample_delta();
        let encoded = delta.encode();
        assert!(encoded.starts_with("S\t1f\t0,3,b\n"), "{encoded}");
        for owner in [0, 3, 0xb] {
            let decoded = EgDelta::decode(&encoded, owner, "<memory>", 1).unwrap();
            assert_eq!(decoded, delta);
        }
    }

    #[test]
    fn decode_rejects_garbage_with_record_context() {
        let err = EgDelta::decode("X\t1", 0, "w.wal", 7).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("w.wal"), "{msg}");
        assert!(msg.contains('7'), "{msg}");
        // A record's S line is its commit decision: without a valid
        // shard set naming the record's own shard (1) it is corrupt.
        for bad in [
            "M+\t1",            // no S line
            "S\t1",             // no shard set
            "S\t1\t",           // empty shard set
            "S\tzz\t1",         // bad sequence number
            "S\t1\t3,1",        // descending
            "S\t1\t1,1",        // duplicate
            "S\t1\t0,2",        // owner absent
            "S\t1\t1\nS\t2\t1", // two S lines
        ] {
            assert!(
                EgDelta::decode(bad, 1, "<memory>", 1).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("round_trip");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        let delta = sample_delta();
        journal.append(&delta, None).unwrap();
        journal.append(&stamped_empty(), None).unwrap();
        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.records[0], delta);
        assert!(outcome.torn_at.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let good_len = journal.len_bytes();
        drop(journal);
        // Simulate a crash mid-append: half a record of garbage.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[42, 0, 0, 0, 1]);
        fs::write(&path, &bytes).unwrap();

        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.torn_at, Some(good_len));
        assert_eq!(outcome.len - good_len, 5);
        truncate(&path, good_len).unwrap();
        // After truncation the journal is clean and appendable again.
        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert!(outcome.torn_at.is_none());
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&stamped_empty(), None).unwrap();
        assert_eq!(replay(&path, 0).unwrap().records.len(), 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_reports_each_record_start_and_the_file_length() {
        let path = tmp("starts");
        let mut journal = Journal::open(&path, FsyncPolicy::Never).unwrap();
        let mut ends = vec![journal.len_bytes()];
        for _ in 0..3 {
            journal.append(&stamped_empty(), None).unwrap();
            ends.push(journal.len_bytes());
        }
        drop(journal);
        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.starts, ends[..3]);
        assert_eq!(outcome.len, ends[3]);

        // A torn frame gets no start: `starts` stays parallel to
        // `records`, and `len` still covers the torn bytes.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[7, 0, 0]);
        fs::write(&path, &bytes).unwrap();
        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.starts, ends[..3]);
        assert_eq!(outcome.torn_at, Some(ends[3]));
        assert_eq!(outcome.len, ends[3] + 3);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay_at_prefix() {
        let path = tmp("corrupt");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let first_len = journal.len_bytes();
        journal.append(&sample_delta(), None).unwrap();
        drop(journal);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a byte inside record 2's payload
        fs::write(&path, &bytes).unwrap();

        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.torn_at, Some(first_len));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_and_reset_clears() {
        let path = tmp("reset");
        assert!(replay(&path, 0).unwrap().records.is_empty());
        let mut journal = Journal::open(&path, FsyncPolicy::Never).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        journal.reset(None).unwrap();
        assert_eq!(journal.len_bytes(), WAL_MAGIC.len() as u64);
        assert!(replay(&path, 0).unwrap().records.is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_reported_with_path() {
        let path = tmp("magic");
        fs::write(&path, b"NOTAWAL!record").unwrap();
        let err = replay(&path, 0).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
        fs::remove_file(&path).ok();
    }

    /// A crash cut on an append's write leaves a torn record, and on
    /// its fsync a whole one.
    #[test]
    fn crash_cut_on_append_tears_or_keeps_the_record() {
        let path = tmp("crash_cut");
        for (cut, kept) in [(0, 0), (1, 1)] {
            let _ = fs::remove_file(&path);
            let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
            let faults = FaultInjector::new();
            faults.crash_at(cut);
            assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
            assert!(faults.crashed() && journal.is_damaged());
            let outcome = replay(&path, 0).unwrap();
            assert_eq!(outcome.records.len(), kept, "cut {cut}");
            assert_eq!(outcome.torn_at.is_some(), kept == 0, "cut {cut}");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_append_damages_journal_until_reopen() {
        use crate::faults::IoFault;
        let path = tmp("io_damage");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let good_len = journal.len_bytes();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::Enospc, 1);
        assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
        assert!(journal.is_damaged());
        // Fault budget is spent, but the journal still refuses appends:
        // the on-disk state is unknown until reopened.
        assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
        drop(journal);
        // ENOSPC landed no bytes, so the committed prefix is intact.
        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert!(outcome.torn_at.is_none());
        let mut reopened = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(reopened.len_bytes(), good_len);
        reopened.append(&sample_delta(), None).unwrap();
        assert_eq!(replay(&path, 0).unwrap().records.len(), 2);
        fs::remove_file(&path).ok();
    }

    /// Appends obey the policy: under `Never` no append touches fsync
    /// (a permanently failing fsync goes unnoticed), under `Always` the
    /// same fault fails the append and damages the journal.
    #[test]
    fn appends_obey_the_fsync_policy() {
        use crate::faults::IoFault;
        for (policy, ok) in [(FsyncPolicy::Never, true), (FsyncPolicy::Always, false)] {
            let wal = tmp("policy");
            let mut journal = Journal::open(&wal, policy).unwrap();
            let faults = FaultInjector::new();
            faults.arm_io_fault(IoFault::FsyncFail, usize::MAX);
            assert_eq!(journal.append(&sample_delta(), Some(&faults)).is_ok(), ok);
            assert_eq!(faults.io_faults_fired() == 0, ok, "{policy:?}");
            assert_eq!(journal.is_damaged(), !ok);
            fs::remove_file(&wal).ok();
        }
    }

    #[test]
    fn short_write_leaves_truncatable_torn_tail() {
        use crate::faults::IoFault;
        let path = tmp("io_short");
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal.append(&sample_delta(), None).unwrap();
        let good_len = journal.len_bytes();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::ShortWrite, 1);
        assert!(journal.append(&sample_delta(), Some(&faults)).is_err());
        drop(journal);
        let outcome = replay(&path, 0).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.torn_at, Some(good_len));
        truncate(&path, good_len).unwrap();
        assert!(replay(&path, 0).unwrap().torn_at.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn apply_is_idempotent_over_absolute_values() {
        let mut eg = ExperimentGraph::new(true);
        let delta = EgDelta {
            new_vertices: vec![vertex(1, &[]), vertex(2, &[1])],
            mat_added: vec![ArtifactId(2)],
            ..EgDelta::default()
        };
        delta.apply_to_shard(&mut eg).unwrap();
        delta.apply_to_shard(&mut eg).unwrap(); // replay over an already-applied state
        assert_eq!(eg.n_vertices(), 2);
        assert_eq!(eg.vertex(ArtifactId(1)).unwrap().frequency, 1);
        assert!(eg.was_materialized(ArtifactId(2)));
        let touch = EgDelta {
            touched: vec![VertexTouch {
                id: ArtifactId(1),
                frequency: 5,
                compute_time: 2.0,
                size: 10,
                quality: 0.5,
            }],
            mat_removed: vec![ArtifactId(2)],
            ..EgDelta::default()
        };
        touch.apply_to_shard(&mut eg).unwrap();
        touch.apply_to_shard(&mut eg).unwrap();
        assert_eq!(eg.vertex(ArtifactId(1)).unwrap().frequency, 5);
        assert!(!eg.was_materialized(ArtifactId(2)));
    }
}
