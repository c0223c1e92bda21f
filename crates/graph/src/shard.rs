//! Sharding the Experiment Graph into N lock shards.
//!
//! One global `RwLock<ExperimentGraph>` serialises every publish; on a
//! busy server the lock — not the work — becomes the bottleneck. This
//! module partitions the graph by artifact id (the op-lineage hash, so
//! the partition is stable across runs and machines): vertex `v` lives
//! in shard [`shard_of`]`(v.id, n)`, each shard behind its own
//! `RwLock`. Publishes touching disjoint shard sets proceed in
//! parallel; a publish spanning several shards takes their write locks
//! in **strictly ascending index order** and holds them all until its
//! journal records are durable — with a single global acquisition
//! order a deadlock is impossible by construction.
//!
//! The pieces:
//!
//! * [`shard_of`] — the partitioning function (a splitmix64 finalizer
//!   over the artifact id, mod N);
//! * [`GraphQuery`] — the read-path trait planners, the executor and
//!   the warmstart search use, so they work against either a plain
//!   [`ExperimentGraph`] or a sharded view;
//! * [`EgView`] — a consistent multi-shard read view (owning all N
//!   read guards), routing each query to the owning shard;
//! * [`ShardedEg`] — the shard array itself, with ordered-lock helpers
//!   and per-shard lock-wait accounting;
//! * [`rewire_children`] — the recovery pass that rebuilds cross-shard
//!   children links (per-shard snapshots and journals persist parent
//!   lists only — children are always derived);
//! * [`recover_shards`] — the one startup-recovery routine (server and
//!   `egfsck`, every shard count): load per-shard `EGSNAP 3` snapshots,
//!   then replay each shard journal keeping exactly the records that are
//!   both beyond the shard's snapshot watermark and committed — every
//!   shard in the record's shard set holds the record or has a watermark
//!   covering it. A crash anywhere between the per-shard appends of one
//!   publish rolls the whole publish back.
//!
//! On-disk layout of a data directory (`n` shards, `n = 1` included):
//!
//! ```text
//! eg-0.wal … eg-<n-1>.wal        one journal per shard (EGWAL 1)
//! eg-0.egsnap … eg-<n-1>.egsnap  per-shard snapshots (EGSNAP 3)
//! ```

use crate::artifact::ArtifactId;
use crate::error::{GraphError, Result};
use crate::experiment::{EgVertex, ExperimentGraph};
use crate::faults::FaultInjector;
use crate::journal::{self, EgDelta, QuarantineEntry};
use crate::lockorder;
use crate::snapshot;
use crate::storage::{ColumnVault, StorageManager};
use crate::value::Value;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Files of retired layouts: the single journal (`eg.wal` /
/// `eg.egsnap`) and the cross-shard commit log (`eg.commit`), whose
/// journal records carry no shard set. Nothing reads them any more;
/// [`recover_shards`] refuses a directory that holds one rather than
/// silently serving an empty or mis-committed graph beside it.
const RETIRED_LAYOUT_FILES: [&str; 3] = ["eg.wal", "eg.egsnap", "eg.commit"];

/// Journal file name of shard `k` inside a data directory.
#[must_use]
pub fn shard_journal_file(k: usize) -> String {
    format!("eg-{k}.wal")
}

/// Snapshot file name of shard `k` inside a data directory.
#[must_use]
pub fn shard_snapshot_file(k: usize) -> String {
    format!("eg-{k}.egsnap")
}

/// The shard owning an artifact: a splitmix64 finalizer over the id
/// (artifact ids are op-lineage hashes, but finalizing again costs
/// nothing and protects against structured id patterns), mod the shard
/// count. With one shard everything maps to shard 0.
#[must_use]
pub fn shard_of(id: ArtifactId, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    #[allow(clippy::cast_possible_truncation)] // lint:reason < n_shards, which is a usize
    {
        (z % n_shards as u64) as usize
    }
}

/// The read-side interface of the Experiment Graph: everything the
/// planners, the execution snapshot, and the warmstart search need.
/// Implemented by [`ExperimentGraph`] itself (so single-shard callers
/// pass `&eg` unchanged) and by [`EgView`] (the multi-shard view).
pub trait GraphQuery {
    /// Vertex lookup; `None` when the graph does not know the artifact.
    fn lookup(&self, id: ArtifactId) -> Option<&EgVertex>;
    /// Whether the artifact's content is held by the store right now.
    fn has_content(&self, id: ArtifactId) -> bool;
    /// Fetch stored content (cheap `Arc` clones; honours the store's
    /// injected load faults, like `StorageManager::get`).
    fn load_content(&self, id: ArtifactId) -> Option<Value>;
    /// The fault injector wired into the store(s), if any.
    fn fault_injector(&self) -> Option<Arc<FaultInjector>>;
}

impl GraphQuery for ExperimentGraph {
    fn lookup(&self, id: ArtifactId) -> Option<&EgVertex> {
        self.vertex(id).ok()
    }

    fn has_content(&self, id: ArtifactId) -> bool {
        self.is_materialized(id)
    }

    fn load_content(&self, id: ArtifactId) -> Option<Value> {
        self.storage().get(id)
    }

    fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.storage().fault_injector().map(Arc::clone)
    }
}

/// A read view over all shards of a sharded Experiment Graph, routing
/// every query to the shard owning the artifact. Built by
/// [`ShardedEg::view`], it owns all N read guards, which makes it a
/// consistent cut: no publish can be half visible, because a publish
/// holds the write locks of every shard it touches until it commits.
pub struct EgView<'a> {
    shards: Vec<ShardReadGuard<'a>>,
}

impl EgView<'_> {
    /// The shard owning `id`.
    #[must_use]
    pub fn owner(&self, id: ArtifactId) -> &ExperimentGraph {
        &self.shards[shard_of(id, self.shards.len())]
    }

    /// Number of shards in the view.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total vertex count across all shards.
    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.shards.iter().map(|s| s.n_vertices()).sum()
    }

    /// Every shard, in index order (e.g. for `fsck::check_shards`).
    pub fn graphs(&self) -> impl Iterator<Item = &ExperimentGraph> {
        self.shards.iter().map(|s| &**s)
    }
}

impl GraphQuery for EgView<'_> {
    fn lookup(&self, id: ArtifactId) -> Option<&EgVertex> {
        self.owner(id).vertex(id).ok()
    }

    fn has_content(&self, id: ArtifactId) -> bool {
        self.owner(id).is_materialized(id)
    }

    fn load_content(&self, id: ArtifactId) -> Option<Value> {
        self.owner(id).storage().get(id)
    }

    fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        // Every shard's store shares one injector; shard 0 stands in.
        self.shards[0].storage().fault_injector().map(Arc::clone)
    }
}

/// The Experiment Graph as an array of lock shards.
///
/// Locking protocol: any operation taking more than one **write** lock
/// must take them in ascending shard-index order ([`ShardedEg::write_set`]
/// enforces this), and hold all of them until the operation — including
/// its durability writes — is complete. Read-side consistency comes
/// from [`ShardedEg::read_all`], which acquires every read lock
/// (ascending, same order, so readers cannot deadlock writers either).
pub struct ShardedEg {
    shards: Vec<RwLock<ExperimentGraph>>,
    /// Nanoseconds spent *blocked* acquiring each shard's write lock
    /// (uncontended acquisitions cost nothing and are not counted).
    lock_wait_ns: Vec<AtomicU64>,
    vault: Option<Arc<ColumnVault>>,
    /// Identity in the runtime lock-order witness (see
    /// [`crate::lockorder`]); orders are only compared within one
    /// sharded graph.
    witness: u64,
}

/// Read guard for one shard, wrapping the raw lock guard together
/// with its lock-order witness token so release is reported exactly
/// when the lock drops. Derefs to [`ExperimentGraph`].
pub struct ShardReadGuard<'a> {
    inner: RwLockReadGuard<'a, ExperimentGraph>,
    _witness: lockorder::Held,
}

impl std::ops::Deref for ShardReadGuard<'_> {
    type Target = ExperimentGraph;
    fn deref(&self) -> &ExperimentGraph {
        &self.inner
    }
}

/// Write guard for one shard (see [`ShardReadGuard`]).
pub struct ShardWriteGuard<'a> {
    inner: RwLockWriteGuard<'a, ExperimentGraph>,
    _witness: lockorder::Held,
}

impl std::ops::Deref for ShardWriteGuard<'_> {
    type Target = ExperimentGraph;
    fn deref(&self) -> &ExperimentGraph {
        &self.inner
    }
}

impl std::ops::DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut ExperimentGraph {
        &mut self.inner
    }
}

impl ShardedEg {
    /// A fresh sharded graph. With more than one shard and `dedup` on,
    /// all shards share one [`ColumnVault`] so cross-shard column
    /// deduplication matches the single-shard store's behaviour.
    #[must_use]
    pub fn new(n_shards: usize, dedup: bool) -> Self {
        let n = n_shards.max(1);
        let vault = (n > 1 && dedup).then(|| Arc::new(ColumnVault::new(n)));
        let shards = (0..n)
            .map(|_| {
                let mut eg = ExperimentGraph::new(dedup);
                if let Some(v) = &vault {
                    eg.set_storage(StorageManager::new_vaulted(Arc::clone(v)));
                }
                RwLock::new(eg)
            })
            .collect();
        ShardedEg {
            shards,
            lock_wait_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            vault,
            witness: lockorder::next_graph_id(),
        }
    }

    /// Assemble a sharded graph from recovered per-shard graphs (see
    /// [`recover_shards`], which also builds the shared vault).
    ///
    /// # Panics
    /// Panics when `graphs` is empty.
    #[must_use]
    pub fn from_graphs(graphs: Vec<ExperimentGraph>, vault: Option<Arc<ColumnVault>>) -> Self {
        assert!(
            !graphs.is_empty(),
            "a sharded graph needs at least one shard"
        );
        let n = graphs.len();
        ShardedEg {
            shards: graphs.into_iter().map(RwLock::new).collect(),
            lock_wait_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            vault,
            witness: lockorder::next_graph_id(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared column vault (present iff sharded + dedup).
    #[must_use]
    pub fn vault(&self) -> Option<&Arc<ColumnVault>> {
        self.vault.as_ref()
    }

    /// The shard index owning an artifact.
    #[must_use]
    pub fn shard_index(&self, id: ArtifactId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Read-lock one shard. The acquisition is reported to the
    /// lock-order witness first (in builds where it is active), so an
    /// ordering hazard panics with both sites instead of deadlocking.
    #[track_caller]
    pub fn read(&self, k: usize) -> ShardReadGuard<'_> {
        let witness = lockorder::acquire(self.witness, k, lockorder::Mode::Read);
        ShardReadGuard {
            inner: self.shards[k].read(),
            _witness: witness,
        }
    }

    /// Write-lock one shard, recording time spent blocked. Reported
    /// to the lock-order witness before blocking (see [`Self::read`]).
    #[track_caller]
    pub fn write(&self, k: usize) -> ShardWriteGuard<'_> {
        let witness = lockorder::acquire(self.witness, k, lockorder::Mode::Write);
        if let Some(guard) = self.shards[k].try_write() {
            return ShardWriteGuard {
                inner: guard,
                _witness: witness,
            };
        }
        let start = Instant::now();
        let guard = self.shards[k].write();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.lock_wait_ns[k].fetch_add(ns, Ordering::Relaxed);
        ShardWriteGuard {
            inner: guard,
            _witness: witness,
        }
    }

    /// Read-lock every shard in ascending order — a consistent cut of
    /// the whole graph.
    #[track_caller]
    #[must_use]
    pub fn read_all(&self) -> Vec<ShardReadGuard<'_>> {
        let mut guards = Vec::with_capacity(self.shards.len());
        for k in 0..self.shards.len() {
            guards.push(self.read(k));
        }
        guards
    }

    /// [`Self::read_all`] as an [`EgView`]: the one way to read the
    /// whole graph at any shard count.
    #[track_caller]
    #[must_use]
    pub fn view(&self) -> EgView<'_> {
        EgView {
            shards: self.read_all(),
        }
    }

    /// Write-lock the given shard set. `ks` must be strictly ascending
    /// and in range — the ordered-lock protocol that makes cross-shard
    /// publishes deadlock-free.
    ///
    /// # Panics
    /// Panics when `ks` is not strictly ascending (a protocol violation
    /// which could deadlock; failing loudly beats hanging).
    #[track_caller]
    #[must_use]
    pub fn write_set(&self, ks: &[usize]) -> Vec<(usize, ShardWriteGuard<'_>)> {
        assert!(
            ks.windows(2).all(|w| w[0] < w[1]),
            "write_set requires strictly ascending shard indices, got {ks:?}"
        );
        let mut guards = Vec::with_capacity(ks.len());
        for &k in ks {
            guards.push((k, self.write(k)));
        }
        guards
    }

    /// Cumulative nanoseconds each shard's write lock kept acquirers
    /// blocked.
    #[must_use]
    pub fn lock_wait_ns(&self) -> Vec<u64> {
        self.lock_wait_ns
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Wire one fault injector into every shard's store.
    pub fn set_fault_injector(&self, faults: &Arc<FaultInjector>) {
        for k in 0..self.shards.len() {
            self.write(k)
                .storage_mut()
                .set_fault_injector(Arc::clone(faults));
        }
    }
}

/// Rebuild children links across a freshly recovered shard array.
/// Per-shard snapshots and journal records persist parent lists only
/// (children are derived state), so after every shard has loaded, each
/// vertex registers
/// itself with its parents — wherever they live. Returns the (parent,
/// child) pairs whose parent no shard defines; a committed-prefix
/// recovery never produces any, so the server treats a non-empty list
/// as corruption while `egfsck` reports each entry.
#[must_use]
pub fn rewire_children(shards: &mut [ExperimentGraph]) -> Vec<(ArtifactId, ArtifactId)> {
    let n = shards.len();
    let mut links: Vec<Vec<(ArtifactId, ArtifactId)>> = vec![Vec::new(); n];
    let mut unresolved = Vec::new();
    for eg in shards.iter() {
        for id in eg.topo_order() {
            // Registration order does not matter, so a vertex the graph
            // cannot resolve (in-memory corruption) surfaces as an
            // unresolved self-link instead of panicking mid-recovery.
            let Ok(v) = eg.vertex(*id) else {
                unresolved.push((*id, *id));
                continue;
            };
            for &p in &v.parents {
                links[shard_of(p, n)].push((p, v.id));
            }
        }
    }
    for (k, pairs) in links.into_iter().enumerate() {
        for (p, c) in pairs {
            if shards[k].add_child_link(p, c).is_err() {
                unresolved.push((p, c));
            }
        }
    }
    unresolved
}

/// Everything [`recover_shards`] reconstructs from a data directory.
pub struct ShardRecovery {
    /// The recovered shards, children links rewired, indexed by shard.
    pub graphs: Vec<ExperimentGraph>,
    /// The shared column vault the graphs' stores use (present iff
    /// more than one shard and dedup on).
    pub vault: Option<Arc<ColumnVault>>,
    /// Recovered quarantine entries (persisted in shard 0 only).
    pub quarantine: Vec<QuarantineEntry>,
    /// Journal tails to discard: `(path, valid_len, bytes_discarded)`,
    /// where the tail is a torn record and/or the uncommitted records
    /// before it. The server truncates each; `egfsck` (read-only)
    /// reports them.
    pub torn: Vec<(PathBuf, u64, u64)>,
    /// Journal records applied (committed and beyond the watermark).
    pub deltas_applied: usize,
    /// Journal records skipped: already inside a snapshot watermark, or
    /// never committed (rolled back).
    pub deltas_skipped: usize,
    /// Distinct committed sequence numbers found in the journals.
    pub committed_publishes: usize,
    /// Highest sequence number seen anywhere (watermarks and journal
    /// records, committed or not) — the server re-seeds its counter
    /// past this, so a sequence number is never reused.
    pub max_seq: u64,
    /// `(parent, child)` pairs whose parent no shard defines — empty
    /// after any committed-prefix recovery.
    pub unresolved_links: Vec<(ArtifactId, ArtifactId)>,
}

/// Reconstruct exactly the committed prefix from a data directory,
/// without writing anything:
///
/// 1. load each shard's `EGSNAP 3` snapshot (absent ⇒ empty shard),
///    noting its sequence watermark;
/// 2. replay every shard journal (torn tail ⇒ that journal's scan
///    stops there);
/// 3. decide each record's publish: seq `s` is committed iff every
///    shard in its shard set holds an intact record `s` or has a
///    watermark ≥ `s` — the participants' journals are the commit
///    decision;
/// 4. apply a record iff it is committed and beyond its shard's
///    watermark, and report each journal's uncommitted tail for
///    truncation with its torn tail;
/// 5. rebuild cross-shard children links ([`rewire_children`]).
///
/// The caller truncates the returned tails (server) or reports them
/// (`egfsck`).
///
/// # Errors
///
/// [`GraphError::InvalidStructure`] when the directory holds a file of
/// a retired layout (`eg.wal` / `eg.egsnap` / `eg.commit`); corruption
/// (including a record naming a shard beyond `n_shards`) and I/O
/// errors from the snapshot and journal readers.
pub fn recover_shards(dir: &Path, n_shards: usize, dedup: bool) -> Result<ShardRecovery> {
    if let Some(old) = RETIRED_LAYOUT_FILES.iter().find(|f| dir.join(f).exists()) {
        return Err(GraphError::InvalidStructure(format!(
            "data directory {} holds {old}, a file of a retired layout \
             (eg.wal / eg.egsnap / eg.commit); this version reads only eg-<k>.wal / eg-<k>.egsnap",
            dir.display()
        )));
    }
    let n = n_shards.max(1);
    let mut graphs = Vec::with_capacity(n);
    let mut watermarks = Vec::with_capacity(n);
    let mut qmap: HashMap<u64, (String, usize)> = HashMap::new();
    let mut max_seq = 0u64;
    for k in 0..n {
        let path = dir.join(shard_snapshot_file(k));
        if path.exists() {
            let restored = snapshot::load_shard_full(&path, dedup)?;
            for q in restored.quarantine {
                qmap.insert(q.op_hash, (q.name, q.failures));
            }
            max_seq = max_seq.max(restored.watermark);
            watermarks.push(restored.watermark);
            graphs.push(restored.graph);
        } else {
            watermarks.push(0);
            graphs.push(ExperimentGraph::new(dedup));
        }
    }

    let mut journals = Vec::with_capacity(n);
    for k in 0..n {
        let path = dir.join(shard_journal_file(k));
        let outcome = journal::replay(&path, k)?;
        for (record, delta) in outcome.records.iter().enumerate() {
            if delta.shards.last().is_some_and(|&j| j >= n) {
                return Err(GraphError::corrupt(
                    path.display().to_string(),
                    record + 1,
                    format!("journal record names a shard beyond the {n} of this directory"),
                ));
            }
            max_seq = max_seq.max(delta.seq);
        }
        journals.push((path, outcome));
    }
    let held: Vec<HashSet<u64>> = journals
        .iter()
        .map(|(_, o)| o.records.iter().map(|d| d.seq).collect())
        .collect();
    let committed = |d: &EgDelta| {
        d.shards
            .iter()
            .all(|&j| held[j].contains(&d.seq) || watermarks[j] >= d.seq)
    };

    let mut torn = Vec::new();
    let mut committed_seqs = HashSet::new();
    let mut deltas_applied = 0;
    let mut deltas_skipped = 0;
    for (k, (path, outcome)) in journals.iter().enumerate() {
        // A journal's uncommitted records are its tail: a failed
        // publish holds its shard locks until the layer is read-only,
        // which appends nothing until repair re-appends the whole
        // publish. Discard them with the torn tail, or another shard's
        // later watermark could cover them and commit them.
        let live = outcome
            .records
            .iter()
            .rposition(committed)
            .map_or(0, |i| i + 1);
        let cut = outcome.starts.get(live).copied().or(outcome.torn_at);
        if let Some(at) = cut {
            torn.push((path.clone(), at, outcome.len - at));
        }
        let graph = &mut graphs[k];
        for delta in &outcome.records {
            if !committed(delta) {
                deltas_skipped += 1;
                continue;
            }
            committed_seqs.insert(delta.seq);
            if delta.seq <= watermarks[k] {
                deltas_skipped += 1;
                continue;
            }
            delta.apply_to_shard(graph)?;
            for q in &delta.quarantine_set {
                qmap.insert(q.op_hash, (q.name.clone(), q.failures));
            }
            for h in &delta.quarantine_cleared {
                qmap.remove(h);
            }
            deltas_applied += 1;
        }
    }

    // Re-home every store onto one shared vault (recovered stores are
    // empty — content is never persisted — so the swap loses nothing).
    let vault = (n > 1 && dedup).then(|| Arc::new(ColumnVault::new(n)));
    if let Some(v) = &vault {
        for graph in &mut graphs {
            graph.set_storage(StorageManager::new_vaulted(Arc::clone(v)));
        }
    }

    let unresolved_links = rewire_children(&mut graphs);
    let quarantine = qmap
        .into_iter()
        .map(|(op_hash, (name, failures))| QuarantineEntry {
            op_hash,
            name,
            failures,
        })
        .collect();
    Ok(ShardRecovery {
        graphs,
        vault,
        quarantine,
        torn,
        deltas_applied,
        deltas_skipped,
        committed_publishes: committed_seqs.len(),
        max_seq,
        unresolved_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::NodeKind;
    use crate::journal::{FsyncPolicy, Journal};
    use std::fs;

    fn vertex(id: u64, parents: &[u64]) -> EgVertex {
        EgVertex {
            id: ArtifactId(id),
            kind: NodeKind::Dataset,
            frequency: 1,
            compute_time: 0.5,
            size: 64,
            quality: 0.0,
            description: String::new(),
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

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("co_graph_shard_{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 8, 64] {
            for id in 0..200u64 {
                let k = shard_of(ArtifactId(id), n);
                assert!(k < n);
                assert_eq!(k, shard_of(ArtifactId(id), n));
            }
        }
        assert_eq!(shard_of(ArtifactId(u64::MAX), 1), 0);
        // The finalizer spreads consecutive ids: with 8 shards and 200
        // ids, every shard should see traffic.
        let mut hit = [false; 8];
        for id in 0..200u64 {
            hit[shard_of(ArtifactId(id), 8)] = true;
        }
        assert!(hit.iter().all(|h| *h), "{hit:?}");
    }

    #[test]
    fn view_routes_queries_to_the_owning_shard() {
        let n = 4;
        let mut graphs: Vec<ExperimentGraph> = (0..n).map(|_| ExperimentGraph::new(true)).collect();
        let ids = [3u64, 11, 19, 27, 35, 43];
        for &raw in &ids {
            let id = ArtifactId(raw);
            graphs[shard_of(id, n)]
                .restore_vertex_unlinked(vertex(raw, &[]))
                .unwrap();
        }
        let eg = ShardedEg::from_graphs(graphs, None);
        let view = eg.view();
        for &raw in &ids {
            let id = ArtifactId(raw);
            let v = view.lookup(id).unwrap();
            assert_eq!(v.id.0, raw);
            assert!(view.owner(id).contains(id));
        }
        assert!(view.lookup(ArtifactId(0xdead_beef)).is_none());
        assert_eq!(view.n_shards(), n);
        assert_eq!(view.n_vertices(), ids.len());
        assert_eq!(view.graphs().count(), n);
    }

    #[test]
    fn write_set_enforces_ascending_order() {
        let eg = ShardedEg::new(4, true);
        let guards = eg.write_set(&[0, 2, 3]);
        assert_eq!(
            guards.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        drop(guards);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = eg.write_set(&[2, 1]);
        }))
        .is_err());
    }

    #[test]
    fn contended_write_lock_is_accounted() {
        let eg = Arc::new(ShardedEg::new(2, true));
        let held = Arc::clone(&eg);
        let guard = held.write(0);
        let other = Arc::clone(&eg);
        let waiter = std::thread::spawn(move || {
            let _g = other.write(0);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        waiter.join().unwrap();
        let waits = eg.lock_wait_ns();
        assert!(waits[0] > 0, "{waits:?}");
        assert_eq!(waits[1], 0);
    }

    #[test]
    fn rewire_links_children_across_shards() {
        // Parent 3 and child 5 land in different shards of a 4-way
        // split (verified below), each restored unlinked.
        let n = 4;
        let (p, c) = (3u64, 5u64);
        assert_ne!(shard_of(ArtifactId(p), n), shard_of(ArtifactId(c), n));
        let mut graphs: Vec<ExperimentGraph> = (0..n).map(|_| ExperimentGraph::new(true)).collect();
        graphs[shard_of(ArtifactId(p), n)]
            .restore_vertex_unlinked(vertex(p, &[]))
            .unwrap();
        graphs[shard_of(ArtifactId(c), n)]
            .restore_vertex_unlinked(vertex(c, &[p]))
            .unwrap();
        let unresolved = rewire_children(&mut graphs);
        assert!(unresolved.is_empty(), "{unresolved:?}");
        let parent_shard = &graphs[shard_of(ArtifactId(p), n)];
        assert_eq!(
            parent_shard.vertex(ArtifactId(p)).unwrap().children,
            vec![ArtifactId(c)]
        );
        // A vertex whose parent exists nowhere is reported.
        graphs[shard_of(ArtifactId(9), n)]
            .restore_vertex_unlinked(vertex(9, &[0xdead]))
            .unwrap();
        let unresolved = rewire_children(&mut graphs);
        assert_eq!(unresolved, vec![(ArtifactId(0xdead), ArtifactId(9))]);
    }

    #[test]
    fn recovery_keeps_exactly_the_committed_prefix() {
        let dir = tmp_dir("committed_prefix");
        let n = 2;
        // Publish 1 (committed): vertex 3 in its owning shard. Publish
        // 2 spans both shards, but the crash hit after its first append:
        // only shard `ka` holds its record (a frequency bump of 3).
        let (a, b) = (3u64, 5u64);
        let ka = shard_of(ArtifactId(a), n);
        let kb = shard_of(ArtifactId(b), n);
        assert_ne!(ka, kb);
        let path = dir.join(shard_journal_file(ka));
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal
            .append(
                &EgDelta {
                    seq: 1,
                    shards: vec![ka],
                    new_vertices: vec![vertex(a, &[])],
                    ..EgDelta::default()
                },
                None,
            )
            .unwrap();
        let committed_len = journal.len_bytes();
        journal
            .append(
                &EgDelta {
                    seq: 2,
                    shards: vec![0, 1],
                    touched: vec![journal::VertexTouch {
                        id: ArtifactId(a),
                        frequency: 2,
                        compute_time: 0.5,
                        size: 64,
                        quality: 0.0,
                    }],
                    ..EgDelta::default()
                },
                None,
            )
            .unwrap();
        let full_len = journal.len_bytes();
        drop(journal);

        // Shard `kb` neither holds record 2 nor covers it: the publish
        // rolls back whole, and its record is the tail to truncate.
        let rec = recover_shards(&dir, n, true).unwrap();
        assert_eq!(rec.deltas_applied, 1);
        assert_eq!(rec.deltas_skipped, 1);
        assert_eq!(rec.committed_publishes, 1);
        assert_eq!(rec.max_seq, 2);
        assert_eq!(
            rec.torn,
            vec![(path, committed_len, full_len - committed_len)]
        );
        assert!(rec.unresolved_links.is_empty());
        assert_eq!(rec.graphs[ka].vertex(ArtifactId(a)).unwrap().frequency, 1);

        // A watermark stands in for a record: once shard `kb`'s
        // snapshot covers seq 2, the publish is committed.
        let empty = ExperimentGraph::new(true);
        let snap = dir.join(shard_snapshot_file(kb));
        snapshot::save_shard_with(&empty, &[], 2, &snap, None).unwrap();
        let rec = recover_shards(&dir, n, true).unwrap();
        assert_eq!(rec.deltas_applied, 2);
        assert_eq!(rec.committed_publishes, 2);
        assert!(rec.torn.is_empty());
        assert_eq!(rec.graphs[ka].vertex(ArtifactId(a)).unwrap().frequency, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_an_uncommitted_tail_ahead_of_a_torn_tail() {
        let dir = tmp_dir("uncommitted_then_torn");
        let n = 2;
        let path = dir.join(shard_journal_file(0));
        let mut journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
        journal
            .append(
                &EgDelta {
                    seq: 1,
                    shards: vec![0],
                    new_vertices: vec![vertex(1, &[])],
                    ..EgDelta::default()
                },
                None,
            )
            .unwrap();
        let committed_len = journal.len_bytes();
        // Seq 2 spans both shards, but shard 1 never got its record.
        journal
            .append(
                &EgDelta {
                    seq: 2,
                    shards: vec![0, 1],
                    new_vertices: vec![vertex(2, &[])],
                    ..EgDelta::default()
                },
                None,
            )
            .unwrap();
        drop(journal);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        fs::write(&path, &bytes).unwrap();

        // The cut starts at the uncommitted record, not at the torn
        // frame behind it: both go in one truncation.
        let rec = recover_shards(&dir, n, true).unwrap();
        assert_eq!(
            rec.torn,
            vec![(path, committed_len, bytes.len() as u64 - committed_len)]
        );
        assert_eq!(rec.deltas_applied, 1);
        assert_eq!(rec.committed_publishes, 1);
        assert_eq!(rec.max_seq, 2);
        assert!(!rec.graphs[0].contains(ArtifactId(2)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_resumes_seq_past_a_snapshot_watermark() {
        // Shard 1 compacted at seq 9 and its journal was reset; shard 0
        // still holds record 4. The counter must resume past 9, or the
        // next publishes' records would fall under shard 1's watermark
        // and be skipped on replay.
        let dir = tmp_dir("watermark_seq");
        let n = 2;
        let snap = dir.join(shard_snapshot_file(1));
        snapshot::save_shard_with(&ExperimentGraph::new(true), &[], 9, &snap, None).unwrap();
        let mut journal =
            Journal::open(&dir.join(shard_journal_file(0)), FsyncPolicy::Always).unwrap();
        journal
            .append(
                &EgDelta {
                    seq: 4,
                    shards: vec![0, 1],
                    new_vertices: vec![vertex(4, &[])],
                    ..EgDelta::default()
                },
                None,
            )
            .unwrap();
        drop(journal);

        let rec = recover_shards(&dir, n, true).unwrap();
        assert_eq!(rec.max_seq, 9);
        // Shard 1's watermark stands in for its record of seq 4.
        assert_eq!(rec.committed_publishes, 1);
        assert_eq!(rec.deltas_applied, 1);
        assert!(rec.torn.is_empty());
        assert!(rec.graphs[0].contains(ArtifactId(4)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_refuses_the_retired_single_journal_layout() {
        for old in RETIRED_LAYOUT_FILES {
            let dir = tmp_dir("retired_layout");
            fs::write(dir.join(old), b"").unwrap();
            let err = recover_shards(&dir, 1, true).err().unwrap();
            assert!(matches!(err, GraphError::InvalidStructure(_)), "{err}");
            assert!(err.to_string().contains(old), "{err}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn recovery_rejects_records_naming_a_missing_shard() {
        let dir = tmp_dir("missing_shard");
        let mut j = Journal::open(&dir.join(shard_journal_file(0)), FsyncPolicy::Always).unwrap();
        j.append(
            &EgDelta {
                seq: 1,
                shards: vec![0, 2],
                new_vertices: vec![vertex(1, &[])],
                ..EgDelta::default()
            },
            None,
        )
        .unwrap();
        drop(j);
        let err = recover_shards(&dir, 2, true).err().unwrap();
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("beyond"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_seqless_journal_records() {
        // Records written before shard sets existed: an `S` line with a
        // sequence number alone, and a record with no `S` line at all.
        for payload in ["S\t1\nM+\t1\n", "M+\t1\n"] {
            let dir = tmp_dir("seqless");
            let path = dir.join(shard_journal_file(0));
            let mut bytes = journal::WAL_MAGIC.to_vec();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&journal::crc32(payload.as_bytes()).to_le_bytes());
            bytes.extend_from_slice(payload.as_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = recover_shards(&dir, 2, true).err().unwrap();
            assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("eg-0.wal"), "{err}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sharded_graph_shares_one_vault() {
        let eg = ShardedEg::new(4, true);
        let vault = Arc::clone(eg.vault().unwrap());
        for k in 0..4 {
            let shard = eg.read(k);
            assert!(Arc::ptr_eq(shard.storage().vault().unwrap(), &vault));
        }
        // One shard and non-dedup stores get no vault.
        assert!(ShardedEg::new(1, true).vault().is_none());
        assert!(ShardedEg::new(4, false).vault().is_none());
    }

    #[test]
    fn witness_catches_descending_two_shard_write() {
        if !lockorder::ENABLED {
            // Release build without the lock-witness feature: the
            // witness is compiled out; nothing to observe.
            return;
        }
        let eg = ShardedEg::new(4, false);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _hi = eg.write(3);
            // Deliberate protocol violation: descending second write.
            let _lo = eg.write(1);
        }))
        .expect_err("descending write must be caught before it can deadlock");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("descending write"), "{msg}");
        // Both offending acquisition sites are named (this file).
        assert_eq!(msg.matches("shard.rs").count(), 2, "{msg}");
        // The witness unwound cleanly: the graph is usable afterwards.
        let _ok = eg.write_set(&[1, 3]);
    }

    #[test]
    fn witness_accepts_protocol_locking() {
        let eg = ShardedEg::new(4, false);
        drop(eg.write_set(&[0, 2, 3]));
        drop(eg.read_all());
        let _r = eg.read(1);
        let _w = eg.write(2);
    }
}
