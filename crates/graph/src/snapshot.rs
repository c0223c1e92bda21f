//! Meta-data persistence for the Experiment Graph.
//!
//! The paper's EG lives for the lifetime of a collaborative environment;
//! a server restart must not forget it. This module serialises the
//! *meta-data* side of the graph — every vertex's
//! ⟨id, kind, frequency, compute-time, size, quality, description,
//! lineage, mat flag⟩ plus the quarantine set — to a simple
//! line-oriented format, without external serialisation crates.
//!
//! Artifact *content* is deliberately not persisted: EG keeps meta-data
//! for all artifacts but content only for the materialized subset (§3.2),
//! and on restart contents repopulate as workloads execute (sources are
//! re-stored by the updater on their first appearance). A restored graph
//! therefore plans with full cost information immediately, and regains
//! reuse opportunities as content streams back in.
//!
//! ## Format (`EGSNAP 3`)
//!
//! ```text
//! EGSNAP 3
//! W\t<sequence watermark, hex>
//! V\t<10 vertex fields>\t<mat: 0|1>
//! ...
//! Q\t<op hash hex>\t<failures>\t<escaped name>
//! ...
//! #CRC <crc32 of everything above, 8 hex digits>
//! ```
//!
//! One file holds one shard (`eg-<k>.egsnap`; a whole graph is the
//! one-shard case). Vertex lines come in the shard's topological
//! (parents-first) order; a vertex's parents may live in other shards,
//! so parent ids are recorded but only resolved — and children links
//! rebuilt — by `crate::shard::rewire_children` once every shard has
//! loaded. The `W` line is the journal-replay watermark: records with a
//! sequence number at or below it are already contained in the
//! snapshot. Free-text fields escape tabs/newlines/backslashes with
//! `\`. The CRC footer covers every byte before it, so any single-byte
//! corruption is detected at load instead of silently restoring a wrong
//! graph. Snapshots are written atomically: temp file, fsync, rename
//! (see [`save_shard_with`]).

use crate::artifact::{ArtifactId, NodeKind};
use crate::error::{GraphError, Result};
use crate::experiment::{EgVertex, ExperimentGraph};
use crate::faults::FaultInjector;
use crate::journal::{crc32, QuarantineEntry};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const HEADER: &str = "EGSNAP 3";
const CRC_PREFIX: &str = "#CRC ";

/// Origin label for snapshots parsed from in-memory strings.
const IN_MEMORY: &str = "<memory>";

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Strict inverse of [`escape`]: a trailing lone backslash or an unknown
/// escape sequence is a parse error, not silent corruption.
pub(crate) fn unescape(s: &str) -> std::result::Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => return Err(format!("unknown escape sequence \\{other}")),
                None => return Err("trailing lone backslash".to_owned()),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Where a parse is happening: the file (or `<memory>`) and the 1-based
/// record number, threaded into every error so operators can locate
/// damage without a hex dump.
pub(crate) struct ParseCtx<'a> {
    pub origin: &'a str,
    pub record: usize,
}

impl ParseCtx<'_> {
    pub fn err(&self, message: impl Into<String>) -> GraphError {
        GraphError::corrupt(self.origin, self.record, message)
    }
}

fn kind_code(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Dataset => "D",
        NodeKind::Aggregate => "A",
        NodeKind::Model => "M",
    }
}

fn parse_kind(code: &str) -> Option<NodeKind> {
    match code {
        "D" => Some(NodeKind::Dataset),
        "A" => Some(NodeKind::Aggregate),
        "M" => Some(NodeKind::Model),
        _ => None,
    }
}

/// The 10 tab-joined vertex fields shared by snapshot `V` lines and
/// journal `V` records.
pub(crate) fn vertex_fields(v: &EgVertex) -> String {
    let parents: Vec<String> = v.parents.iter().map(|p| format!("{:x}", p.0)).collect();
    format!(
        "{:x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        v.id.0,
        kind_code(v.kind),
        v.frequency,
        v.compute_time,
        v.size,
        v.quality,
        v.op_hash
            .map_or_else(|| "-".to_owned(), |h| format!("{h:x}")),
        v.source_name
            .as_deref()
            .map_or_else(|| "-".to_owned(), escape),
        escape(&v.description),
        parents.join(","),
    )
}

/// Parse the 10 vertex fields back into an [`EgVertex`] (children links
/// are rebuilt on insertion).
pub(crate) fn parse_vertex_fields(fields: &[&str], ctx: &ParseCtx<'_>) -> Result<EgVertex> {
    if fields.len() != 10 {
        return Err(ctx.err(format!("expected 10 vertex fields, got {}", fields.len())));
    }
    let id = ArtifactId(
        u64::from_str_radix(fields[0], 16)
            .map_err(|_| ctx.err(format!("bad artifact id {:?}", fields[0])))?,
    );
    let kind = parse_kind(fields[1]).ok_or_else(|| ctx.err(format!("bad kind {:?}", fields[1])))?;
    let frequency = fields[2].parse().map_err(|_| ctx.err("bad frequency"))?;
    let compute_time = fields[3].parse().map_err(|_| ctx.err("bad compute time"))?;
    let size = fields[4].parse().map_err(|_| ctx.err("bad size"))?;
    let quality = fields[5].parse().map_err(|_| ctx.err("bad quality"))?;
    let op_hash = if fields[6] == "-" {
        None
    } else {
        Some(
            u64::from_str_radix(fields[6], 16)
                .map_err(|_| ctx.err(format!("bad op hash {:?}", fields[6])))?,
        )
    };
    let source_name = if fields[7] == "-" {
        None
    } else {
        Some(unescape(fields[7]).map_err(|m| ctx.err(m))?)
    };
    let description = unescape(fields[8]).map_err(|m| ctx.err(m))?;
    let parents: Vec<ArtifactId> = if fields[9].is_empty() {
        Vec::new()
    } else {
        fields[9]
            .split(',')
            .map(|p| {
                u64::from_str_radix(p, 16)
                    .map(ArtifactId)
                    .map_err(|_| ctx.err(format!("bad parent id {p:?}")))
            })
            .collect::<Result<_>>()?
    };
    Ok(EgVertex {
        id,
        kind,
        frequency,
        compute_time,
        size,
        quality,
        description,
        source_name,
        op_hash,
        parents,
        children: Vec::new(),
    })
}

/// One shard restored from a snapshot.
pub struct RestoredSnapshot {
    /// The rebuilt graph (meta-data only; empty content store).
    pub graph: ExperimentGraph,
    /// Quarantine entries active when the snapshot was written (only
    /// shard 0's snapshot carries any).
    pub quarantine: Vec<QuarantineEntry>,
    /// Journal replay skips records with `seq <= watermark`: everything
    /// up to the watermark is already contained in this snapshot.
    pub watermark: u64,
}

/// Verify the canonical `#CRC` footer over everything preceding it and
/// return the byte offset where the footer line begins.
fn verify_crc_footer(text: &str, origin: &str) -> Result<usize> {
    let footer_at = text.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1);
    let footer = text[footer_at..].trim_end_matches('\n');
    let Some(stated) = footer.strip_prefix(CRC_PREFIX) else {
        return Err(GraphError::corrupt(
            origin,
            0,
            "missing #CRC footer (truncated snapshot?)",
        ));
    };
    // Exactly 8 lowercase hex digits — the writer's canonical form.
    // `from_str_radix` alone would also accept uppercase (and a sign),
    // letting a case-flipping corruption of the footer go unnoticed.
    let canonical = stated.len() == 8
        && stated
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
    if !canonical {
        return Err(GraphError::corrupt(
            origin,
            0,
            format!("bad #CRC footer {footer:?}"),
        ));
    }
    let stated = u32::from_str_radix(stated, 16)
        .map_err(|_| GraphError::corrupt(origin, 0, format!("bad #CRC footer {footer:?}")))?;
    let actual = crc32(&text.as_bytes()[..footer_at]);
    if stated != actual {
        return Err(GraphError::corrupt(
            origin,
            0,
            format!("checksum mismatch: file says {stated:08x}, contents hash to {actual:08x}"),
        ));
    }
    Ok(footer_at)
}

/// The typed error for a graph whose topological order lists a vertex
/// the graph cannot resolve: in-memory corruption, reported like any
/// other durability corruption instead of panicking mid-save.
fn unknown_vertex(id: ArtifactId) -> GraphError {
    GraphError::corrupt(
        IN_MEMORY,
        0,
        format!("topo order lists unknown vertex {:x}", id.0),
    )
}

/// Serialise one shard's meta-data, quarantine set and sequence
/// watermark to an `EGSNAP 3` string, CRC footer included.
///
/// # Errors
///
/// The graph's topological order lists a vertex the graph cannot
/// resolve — internal corruption that must surface as a typed error
/// (the durability layer degrades to read-only), never a panic.
pub fn to_shard_snapshot(
    eg: &ExperimentGraph,
    quarantine: &[QuarantineEntry],
    watermark: u64,
) -> Result<String> {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "W\t{watermark:x}");
    for id in eg.topo_order() {
        let v = eg.vertex(*id).map_err(|_| unknown_vertex(*id))?;
        let mat = u8::from(eg.was_materialized(*id));
        let _ = writeln!(out, "V\t{}\t{}", vertex_fields(v), mat);
    }
    for q in quarantine {
        let _ = writeln!(
            out,
            "Q\t{:x}\t{}\t{}",
            q.op_hash,
            q.failures,
            escape(&q.name)
        );
    }
    let _ = writeln!(out, "{CRC_PREFIX}{:08x}", crc32(out.as_bytes()));
    Ok(out)
}

/// Rebuild one shard from an `EGSNAP 3` string. Parents are recorded
/// but not resolved (they may live in other shards); children links are
/// left empty for the recovery rewire pass.
pub fn from_shard_snapshot(text: &str, dedup: bool, origin: &str) -> Result<RestoredSnapshot> {
    let header = text.lines().next().unwrap_or("");
    if header != HEADER {
        return Err(GraphError::corrupt(
            origin,
            0,
            format!("expected header {HEADER:?}, found {header:?}"),
        ));
    }
    let footer_at = verify_crc_footer(text, origin)?;
    let mut eg = ExperimentGraph::new(dedup);
    let mut quarantine = Vec::new();
    let mut watermark = None;
    for (lineno, line) in text[..footer_at].lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = ParseCtx {
            origin,
            record: lineno + 1,
        };
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "W" if fields.len() == 2 => {
                if watermark.is_some() {
                    return Err(ctx.err("duplicate W line"));
                }
                watermark =
                    Some(u64::from_str_radix(fields[1], 16).map_err(|_| ctx.err("bad watermark"))?);
            }
            "V" if fields.len() == 12 => {
                let v = parse_vertex_fields(&fields[1..11], &ctx)?;
                let mat = match fields[11] {
                    "0" => false,
                    "1" => true,
                    other => return Err(ctx.err(format!("bad mat flag {other:?}"))),
                };
                let id = v.id;
                eg.restore_vertex_unlinked(v)
                    .map_err(|e| ctx.err(e.to_string()))?;
                if mat {
                    eg.mark_restored_materialized(id);
                }
            }
            "Q" if fields.len() == 4 => quarantine.push(QuarantineEntry {
                op_hash: u64::from_str_radix(fields[1], 16)
                    .map_err(|_| ctx.err("bad op hash in Q line"))?,
                failures: fields[2]
                    .parse()
                    .map_err(|_| ctx.err("bad failure count in Q line"))?,
                name: unescape(fields[3]).map_err(|m| ctx.err(m))?,
            }),
            tag => {
                return Err(ctx.err(format!(
                    "unknown or malformed shard-snapshot line {tag:?} ({} fields)",
                    fields.len()
                )))
            }
        }
    }
    let watermark = watermark
        .ok_or_else(|| GraphError::corrupt(origin, 0, "shard snapshot is missing its W line"))?;
    Ok(RestoredSnapshot {
        graph: eg,
        quarantine,
        watermark,
    })
}

/// Write one shard's snapshot (graph + quarantine set + watermark) to
/// disk atomically: the full contents go to `<path>.tmp`, which is
/// fsynced and then renamed over `path`, so a crash at any point leaves
/// either the old complete snapshot or the new complete snapshot —
/// never a torn mix.
pub fn save_shard_with(
    eg: &ExperimentGraph,
    quarantine: &[QuarantineEntry],
    watermark: u64,
    path: &Path,
    faults: Option<&FaultInjector>,
) -> Result<()> {
    let text = to_shard_snapshot(eg, quarantine, watermark)?;
    write_atomic(&text, path, faults)
}

/// Load one shard's snapshot from disk.
pub fn load_shard_full(path: &Path, dedup: bool) -> Result<RestoredSnapshot> {
    let text = crate::vfs::read_to_string(path, None)
        .map_err(|e| GraphError::Io(format!("cannot read snapshot {}: {e}", path.display())))?;
    from_shard_snapshot(&text, dedup, &path.display().to_string())
}

/// The temp-file path used by atomic saves: `<path>.tmp`.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> GraphError {
    GraphError::Io(format!("cannot {what} snapshot {}: {e}", path.display()))
}

fn write_atomic(text: &str, path: &Path, faults: Option<&FaultInjector>) -> Result<()> {
    let bytes = text.as_bytes();
    let tmp = tmp_path(path);
    {
        let mut file =
            crate::vfs::VfsFile::create(&tmp, faults).map_err(|e| io_err("create", &tmp, &e))?;
        file.write_all(bytes, faults)
            .map_err(|e| io_err("write", &tmp, &e))?;
        file.sync(faults).map_err(|e| io_err("sync", &tmp, &e))?;
    }
    crate::vfs::rename(&tmp, path, faults).map_err(|e| io_err("rename", path, &e))?;
    // Make the rename itself durable.
    if let Some(dir) = path.parent() {
        crate::vfs::sync_dir(dir);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Operation;
    use crate::shard::rewire_children;
    use crate::value::Value;
    use crate::workload::WorkloadDag;
    use co_dataframe::Scalar;
    use std::sync::Arc;

    struct Step(&'static str, NodeKind);
    impl Operation for Step {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            "p\tq".to_owned() // exercise escaping through op identity
        }
        fn output_kind(&self) -> NodeKind {
            self.1
        }
        fn run(&self, _inputs: &[&Value]) -> Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(0.0)))
        }
    }

    fn populated() -> ExperimentGraph {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("train\tcsv", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag
            .add_op(Arc::new(Step("clean", NodeKind::Dataset)), &[s])
            .unwrap();
        let b = dag
            .add_op(Arc::new(Step("other", NodeKind::Dataset)), &[s])
            .unwrap();
        let m = dag
            .add_op(Arc::new(Step("train", NodeKind::Model)), &[a, b])
            .unwrap();
        dag.mark_terminal(m).unwrap();
        dag.annotate(a, 1.5, 100).unwrap();
        dag.annotate(b, 0.5, 200).unwrap();
        dag.annotate(m, 2.25, 50).unwrap();
        dag.node_mut(m).unwrap().quality = 0.875;
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        eg.update_with_workload(&dag).unwrap(); // bump frequencies
        eg
    }

    #[test]
    fn round_trips_meta_data() {
        let eg = populated();
        let text = to_shard_snapshot(&eg, &[], 0).unwrap();
        let mut restored = from_shard_snapshot(&text, true, IN_MEMORY).unwrap().graph;
        assert!(rewire_children(std::slice::from_mut(&mut restored)).is_empty());
        assert_eq!(restored.n_vertices(), eg.n_vertices());
        assert_eq!(restored.topo_order(), eg.topo_order());
        assert_eq!(restored.sources(), eg.sources());
        for id in eg.topo_order() {
            let a = eg.vertex(*id).unwrap();
            let b = restored.vertex(*id).unwrap();
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.frequency, b.frequency);
            assert_eq!(a.compute_time, b.compute_time);
            assert_eq!(a.size, b.size);
            assert_eq!(a.quality, b.quality);
            assert_eq!(a.op_hash, b.op_hash);
            assert_eq!(a.source_name, b.source_name);
            assert_eq!(a.parents, b.parents);
            let mut ca = a.children.clone();
            let mut cb = b.children.clone();
            ca.sort();
            cb.sort();
            assert_eq!(ca, cb);
        }
        // Content is not persisted: nothing is materialized, but the
        // mat *flag* survives for durability bookkeeping.
        assert_eq!(restored.storage().n_artifacts(), 0);
        for src in eg.sources() {
            assert!(restored.was_materialized(*src));
        }
        // Derived attributes recompute identically.
        assert_eq!(restored.recreation_costs(), eg.recreation_costs());
        assert_eq!(restored.potentials(), eg.potentials());
    }

    #[test]
    fn quarantine_round_trips() {
        let eg = populated();
        let quarantine = vec![QuarantineEntry {
            op_hash: 0xabc,
            name: "train\tweird".to_owned(),
            failures: 4,
        }];
        let text = to_shard_snapshot(&eg, &quarantine, 0).unwrap();
        let restored = from_shard_snapshot(&text, true, IN_MEMORY).unwrap();
        assert_eq!(restored.quarantine, quarantine);
        assert_eq!(restored.graph.n_vertices(), eg.n_vertices());
    }

    #[test]
    fn file_round_trip() {
        let eg = populated();
        let path = std::env::temp_dir().join("co_graph_snapshot_test.egsnap");
        save_shard_with(&eg, &[], 0, &path, None).unwrap();
        let restored = load_shard_full(&path, true).unwrap().graph;
        assert_eq!(restored.n_vertices(), eg.n_vertices());
        assert!(!tmp_path(&path).exists(), "atomic save leaves no temp file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_snapshot_round_trips_with_watermark() {
        let eg = populated();
        let quarantine = vec![QuarantineEntry {
            op_hash: 0xabc,
            name: "train\tweird".to_owned(),
            failures: 4,
        }];
        let text = to_shard_snapshot(&eg, &quarantine, 0x2a).unwrap();
        let restored = from_shard_snapshot(&text, true, IN_MEMORY).unwrap();
        assert_eq!(restored.watermark, 0x2a);
        assert_eq!(restored.quarantine, quarantine);
        assert_eq!(restored.graph.n_vertices(), eg.n_vertices());
        // Rewiring the children links, as recovery does, restores the
        // derived attributes.
        let mut graph = restored.graph;
        assert!(rewire_children(std::slice::from_mut(&mut graph)).is_empty());
        assert_eq!(graph.potentials(), eg.potentials());
        // A v3 file without its watermark line is rejected.
        let body = "EGSNAP 3\n";
        let no_w = format!("{body}{CRC_PREFIX}{:08x}\n", crc32(body.as_bytes()));
        let err = from_shard_snapshot(&no_w, true, IN_MEMORY).err().unwrap();
        assert!(err.to_string().contains("W line"), "{err}");
    }

    #[test]
    fn shard_snapshot_tolerates_foreign_parents() {
        // A shard may hold a vertex whose parent lives in another shard:
        // the parent id is recorded but not resolved at load time.
        let body = "EGSNAP 3\nW\t5\nV\tbb\tM\t2\t1.5\t32\t0.875\tbeef\t-\tmodel\taa\t1\n";
        let text = format!("{body}{CRC_PREFIX}{:08x}\n", crc32(body.as_bytes()));
        let restored = from_shard_snapshot(&text, true, IN_MEMORY).unwrap();
        assert_eq!(restored.watermark, 5);
        let v = restored.graph.vertex(ArtifactId(0xbb)).unwrap();
        assert_eq!(v.parents, vec![ArtifactId(0xaa)]);
        assert!(v.children.is_empty());
        assert!(restored.graph.was_materialized(ArtifactId(0xbb)));
        assert!(!restored.graph.contains(ArtifactId(0xaa)));
        // Alone, the shard cannot resolve that parent: the rewire pass
        // reports the link.
        let mut graph = restored.graph;
        assert_eq!(
            rewire_children(std::slice::from_mut(&mut graph)),
            vec![(ArtifactId(0xaa), ArtifactId(0xbb))]
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_shard_snapshot("", true, IN_MEMORY).is_err());
        assert!(from_shard_snapshot("WRONG", true, IN_MEMORY).is_err());
        // Retired formats are named in the error, not silently parsed.
        for version in 1..=2 {
            let old = format!("EGSNAP {version}\n");
            let err = from_shard_snapshot(&old, true, IN_MEMORY)
                .err()
                .expect("retired header");
            assert!(err.to_string().contains("EGSNAP 3"), "{err}");
        }
        // A current header without its footer is treated as truncated.
        assert!(from_shard_snapshot("EGSNAP 3\nW\t0\n", true, IN_MEMORY).is_err());
    }

    #[test]
    fn corruption_is_detected_by_the_crc_footer() {
        let text = to_shard_snapshot(&populated(), &[], 0).unwrap();
        // Flip one byte in the middle of the body.
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        let err = from_shard_snapshot(&corrupted, true, IN_MEMORY)
            .err()
            .expect("corrupt");
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");
        // Truncation (losing the footer) is detected too.
        let truncated = &text[..text.len() - 20];
        assert!(from_shard_snapshot(truncated, true, IN_MEMORY).is_err());
    }

    #[test]
    fn strict_unescape_rejects_malformed_escapes() {
        assert_eq!(unescape("a\\tb").unwrap(), "a\tb");
        assert!(unescape("trailing\\").is_err());
        assert!(unescape("unknown\\x").is_err());
        // A vertex line with a bad escape errors with line context
        // instead of silently corrupting the field. The populated graph's
        // source is named "train\tcsv", serialised with an escaped tab —
        // turn that escape into an unknown one.
        let eg = populated();
        let good = to_shard_snapshot(&eg, &[], 0).unwrap();
        assert!(good.contains("train\\tcsv"));
        let bad = good.replacen("train\\tcsv", "train\\zcsv", 1);
        // (fix the CRC so the escape error, not the checksum, fires)
        let body_end = bad.rfind(CRC_PREFIX).unwrap();
        let rebuilt = format!(
            "{}{CRC_PREFIX}{:08x}\n",
            &bad[..body_end],
            crc32(&bad.as_bytes()[..body_end])
        );
        let err = from_shard_snapshot(&rebuilt, true, IN_MEMORY)
            .err()
            .expect("bad escape");
        assert!(err.to_string().contains("escape"), "{err}");
    }

    #[test]
    fn escaping_survives_hostile_names() {
        assert_eq!(unescape(&escape("a\tb\\c\nd")).unwrap(), "a\tb\\c\nd");
        let eg = populated();
        let text = to_shard_snapshot(&eg, &[], 0).unwrap();
        let restored = from_shard_snapshot(&text, true, IN_MEMORY).unwrap().graph;
        let src = restored.sources()[0];
        assert_eq!(
            restored.vertex(src).unwrap().source_name.as_deref(),
            Some("train\tcsv")
        );
    }
}
