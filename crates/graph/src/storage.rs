//! The artifact content store with column-level deduplication (paper
//! §5.3).
//!
//! "The storage manager stores the column data using the column id as the
//! key. Thus, ensuring duplicated columns are not stored multiple times."
//!
//! Two accounting views matter for the evaluation:
//! * [`StorageManager::unique_bytes`] — bytes physically held (what the
//!   materialization *budget* constrains for the storage-aware algorithm);
//! * [`StorageManager::logical_bytes`] — the sum of the nominal sizes of
//!   all materialized artifacts (the "real size of the stored artifacts"
//!   plotted in the paper's Figure 6, which reaches up to 8x the budget).
//!
//! Deduplication can be disabled (`dedup = false`) to model the plain
//! stores used by the heuristics-based and Helix materializers.

use crate::artifact::ArtifactId;
use crate::faults::FaultInjector;
use crate::value::Value;
use co_dataframe::{Column, ColumnData, ColumnId, DType, DataFrame};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-column entry of the dedup store.
struct StoredColumn {
    data: Arc<ColumnData>,
    nbytes: u64,
    refs: usize,
}

/// Schema entry needed to reassemble a deduplicated dataset.
#[derive(Clone)]
struct ColumnRef {
    name: String,
    id: ColumnId,
    #[allow(dead_code)] // lint:reason kept as artifact meta-data (paper §3.2)
    dtype: DType,
}

enum StoredArtifact {
    /// Stored verbatim (models, aggregates, and all artifacts when
    /// deduplication is disabled), with its nominal size.
    Whole { value: Value, nbytes: u64 },
    /// A dataset stored as schema + references into the column store.
    Dataset {
        columns: Vec<ColumnRef>,
        nbytes: u64,
    },
}

impl StoredArtifact {
    /// The artifact's nominal size.
    fn nbytes(&self) -> u64 {
        match self {
            StoredArtifact::Whole { nbytes, .. } | StoredArtifact::Dataset { nbytes, .. } => {
                *nbytes
            }
        }
    }
}

/// What an artifact occupies in a store, without its content: the ids
/// and byte counts of a deduplicated dataset's columns (in column
/// order), or the nominal bytes of anything stored whole. The
/// storage-aware materializer's simulation needs nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// Stored verbatim: this many bytes, shared with nothing.
    Whole(u64),
    /// A deduplicated dataset: `(column id, bytes)` per column.
    Columns(Vec<(ColumnId, u64)>),
}

/// The cross-shard column store of a *sharded* Experiment Graph:
/// column data keyed by column id, itself partitioned into lock shards
/// so vertex-shards sharing no columns never contend. One vault is
/// shared (via `Arc`) by every vertex-shard's [`StorageManager`];
/// deduplication therefore works across vertex shards — the same
/// column stored from two shards is held once.
///
/// Content is never persisted (paper §3.2), so the vault has no
/// durability interaction at all.
pub struct ColumnVault {
    shards: Vec<parking_lot::Mutex<HashMap<ColumnId, StoredColumn>>>,
    unique_bytes: AtomicU64,
}

impl ColumnVault {
    /// A vault with `n_shards` column lock-shards (min 1).
    #[must_use]
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        ColumnVault {
            shards: (0..n)
                .map(|_| parking_lot::Mutex::new(HashMap::new()))
                .collect(),
            unique_bytes: AtomicU64::new(0),
        }
    }

    /// Which lock-shard owns a column id.
    #[must_use]
    pub fn shard_of(&self, id: ColumnId) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut h);
        #[allow(clippy::cast_possible_truncation)] // lint:reason < shards.len(), which is a usize
        {
            (h.finish() % self.shards.len() as u64) as usize
        }
    }

    /// Number of column lock-shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bytes physically held across all column shards (what the sharded
    /// materialization budget constrains).
    #[must_use]
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes.load(Ordering::SeqCst)
    }

    /// Unique columns held across all shards.
    #[must_use]
    pub fn n_columns(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Bytes storing this frame would *add* (columns not yet held).
    fn marginal(&self, df: &DataFrame) -> u64 {
        df.columns()
            .iter()
            .filter(|c| {
                !self.shards[self.shard_of(c.id())]
                    .lock()
                    .contains_key(&c.id())
            })
            .map(|c| c.nbytes() as u64)
            .sum()
    }

    /// Store (or reference) every column of `df`; returns the bytes
    /// actually added and the refs to record on the artifact.
    fn store_columns(&self, df: &DataFrame) -> (u64, Vec<ColumnRef>) {
        let mut added = 0u64;
        let mut refs = Vec::with_capacity(df.n_cols());
        for c in df.columns() {
            let mut shard = self.shards[self.shard_of(c.id())].lock();
            let entry = shard.entry(c.id()).or_insert_with(|| {
                added += c.nbytes() as u64;
                StoredColumn {
                    data: c.data(),
                    nbytes: c.nbytes() as u64,
                    refs: 0,
                }
            });
            entry.refs += 1;
            refs.push(ColumnRef {
                name: c.name().to_owned(),
                id: c.id(),
                dtype: c.dtype(),
            });
        }
        self.unique_bytes.fetch_add(added, Ordering::SeqCst);
        (added, refs)
    }

    /// Drop one reference per column; returns the bytes actually freed
    /// (columns still referenced elsewhere are kept).
    fn release(&self, refs: &[ColumnRef]) -> u64 {
        let mut freed = 0u64;
        for r in refs {
            let mut shard = self.shards[self.shard_of(r.id)].lock();
            if let Some(entry) = shard.get_mut(&r.id) {
                entry.refs -= 1;
                if entry.refs == 0 {
                    freed += entry.nbytes;
                    shard.remove(&r.id);
                }
            }
        }
        self.unique_bytes.fetch_sub(freed, Ordering::SeqCst);
        freed
    }

    /// Bytes of a held column.
    fn column_bytes(&self, id: ColumnId) -> Option<u64> {
        self.shards[self.shard_of(id)]
            .lock()
            .get(&id)
            .map(|sc| sc.nbytes)
    }

    /// Reassemble the referenced columns (`None` if any is missing).
    fn fetch(&self, refs: &[ColumnRef]) -> Option<Vec<Column>> {
        refs.iter()
            .map(|r| {
                self.shards[self.shard_of(r.id)]
                    .lock()
                    .get(&r.id)
                    .map(|sc| Column::from_arc(&r.name, r.id, Arc::clone(&sc.data)))
            })
            .collect()
    }

    /// Cross-manager accounting audit: recompute every column's
    /// reference count from the artifact tables of all vault-backed
    /// managers and compare against the vault's state (the sharded
    /// analogue of [`StorageManager::audit`]'s column checks).
    #[must_use]
    pub fn audit(&self, managers: &[&StorageManager]) -> Vec<String> {
        let mut violations = Vec::new();
        let mut want_refs: HashMap<ColumnId, usize> = HashMap::new();
        for m in managers {
            for (id, stored) in &m.artifacts {
                if let StoredArtifact::Dataset { columns, .. } = stored {
                    for r in columns {
                        if !self.shards[self.shard_of(r.id)].lock().contains_key(&r.id) {
                            violations.push(format!(
                                "artifact {:016x} references column {:?} ({}) absent from the vault",
                                id.0, r.id, r.name
                            ));
                        }
                        *want_refs.entry(r.id).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut unique = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            for (cid, col) in shard.iter() {
                unique += col.nbytes;
                let want = want_refs.get(cid).copied().unwrap_or(0);
                if want == 0 {
                    violations.push(format!(
                        "vault column {cid:?} is held but referenced by no artifact"
                    ));
                } else if col.refs != want {
                    violations.push(format!(
                        "vault column {cid:?} refcount is {} but {} artifact reference(s) exist",
                        col.refs, want
                    ));
                }
            }
        }
        if unique != self.unique_bytes() {
            violations.push(format!(
                "vault unique_bytes counter is {} but stored columns sum to {unique}",
                self.unique_bytes()
            ));
        }
        violations
    }
}

/// The artifact content store.
pub struct StorageManager {
    columns: HashMap<ColumnId, StoredColumn>,
    artifacts: HashMap<ArtifactId, StoredArtifact>,
    unique_bytes: u64,
    logical_bytes: u64,
    dedup: bool,
    /// When set, dataset columns live in the shared [`ColumnVault`]
    /// instead of this manager's local column map; [`StorageManager::unique_bytes`]
    /// then counts only verbatim (`Whole`) content held locally.
    vault: Option<Arc<ColumnVault>>,
    faults: Option<Arc<FaultInjector>>,
    /// Bytes of content handed out by [`StorageManager::get`].
    bytes_read: AtomicU64,
}

impl StorageManager {
    /// Create a store; `dedup` enables column-level deduplication.
    #[must_use]
    pub fn new(dedup: bool) -> Self {
        StorageManager {
            columns: HashMap::new(),
            artifacts: HashMap::new(),
            unique_bytes: 0,
            logical_bytes: 0,
            dedup,
            vault: None,
            faults: None,
            bytes_read: AtomicU64::new(0),
        }
    }

    /// Create a store backed by a shared cross-shard column vault
    /// (deduplication is implied — the vault *is* the dedup store).
    #[must_use]
    pub fn new_vaulted(vault: Arc<ColumnVault>) -> Self {
        StorageManager {
            columns: HashMap::new(),
            artifacts: HashMap::new(),
            unique_bytes: 0,
            logical_bytes: 0,
            dedup: true,
            vault: Some(vault),
            faults: None,
            bytes_read: AtomicU64::new(0),
        }
    }

    /// The shared column vault, when this manager is vault-backed.
    #[must_use]
    pub fn vault(&self) -> Option<&Arc<ColumnVault>> {
        self.vault.as_ref()
    }

    /// Install a fault injector consulted on every [`StorageManager::get`].
    pub fn set_fault_injector(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// The installed fault injector, if any.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Whether deduplication is enabled.
    #[must_use]
    pub fn dedup_enabled(&self) -> bool {
        self.dedup
    }

    /// Bytes that [`StorageManager::store`] would *add* for this value:
    /// with deduplication, only columns not yet held count.
    #[must_use]
    pub fn marginal_bytes(&self, value: &Value) -> u64 {
        if let (Value::Dataset(df), Some(vault)) = (value, &self.vault) {
            return vault.marginal(df);
        }
        match value {
            Value::Dataset(df) if self.dedup => df
                .columns()
                .iter()
                .filter(|c| !self.columns.contains_key(&c.id()))
                .map(|c| c.nbytes() as u64)
                .sum(),
            other => other.nbytes() as u64,
        }
    }

    /// Store an artifact's content. Returns the bytes actually added
    /// (0 if the artifact was already stored).
    pub fn store(&mut self, id: ArtifactId, value: &Value) -> u64 {
        if self.artifacts.contains_key(&id) {
            return 0;
        }
        let nominal = value.nbytes() as u64;
        if let (Value::Dataset(df), Some(vault)) = (value, &self.vault) {
            let (added, refs) = vault.store_columns(df);
            self.artifacts.insert(
                id,
                StoredArtifact::Dataset {
                    columns: refs,
                    nbytes: nominal,
                },
            );
            self.logical_bytes += nominal;
            return added;
        }
        let added = match value {
            Value::Dataset(df) if self.dedup => {
                let mut added = 0;
                let mut refs = Vec::with_capacity(df.n_cols());
                for c in df.columns() {
                    let entry = self.columns.entry(c.id()).or_insert_with(|| {
                        added += c.nbytes() as u64;
                        StoredColumn {
                            data: c.data(),
                            nbytes: c.nbytes() as u64,
                            refs: 0,
                        }
                    });
                    entry.refs += 1;
                    refs.push(ColumnRef {
                        name: c.name().to_owned(),
                        id: c.id(),
                        dtype: c.dtype(),
                    });
                }
                self.artifacts.insert(
                    id,
                    StoredArtifact::Dataset {
                        columns: refs,
                        nbytes: nominal,
                    },
                );
                added
            }
            other => {
                self.artifacts.insert(
                    id,
                    StoredArtifact::Whole {
                        value: other.clone(),
                        nbytes: nominal,
                    },
                );
                nominal
            }
        };
        self.unique_bytes += added;
        self.logical_bytes += nominal;
        added
    }

    /// Remove an artifact's content. Returns the bytes actually freed
    /// (columns still referenced by other artifacts are kept).
    pub fn evict(&mut self, id: ArtifactId) -> u64 {
        let Some(stored) = self.artifacts.remove(&id) else {
            return 0;
        };
        if let (StoredArtifact::Dataset { columns, nbytes }, Some(vault)) = (&stored, &self.vault) {
            self.logical_bytes -= nbytes;
            return vault.release(columns);
        }
        let freed = match stored {
            StoredArtifact::Whole { nbytes, .. } => {
                self.logical_bytes -= nbytes;
                nbytes
            }
            StoredArtifact::Dataset { columns, nbytes } => {
                self.logical_bytes -= nbytes;
                let mut freed = 0;
                for r in columns {
                    if let Some(entry) = self.columns.get_mut(&r.id) {
                        entry.refs -= 1;
                        if entry.refs == 0 {
                            freed += entry.nbytes;
                            self.columns.remove(&r.id);
                        }
                    }
                }
                freed
            }
        };
        self.unique_bytes -= freed;
        freed
    }

    /// Recompute the store's accounting invariants from its contents and
    /// return a description of every discrepancy: byte counters that
    /// disagree with a fresh recomputation, dangling column references,
    /// wrong per-column reference counts, and orphaned columns no artifact
    /// references.
    ///
    /// Used by [`crate::fsck`]. Deliberately bypasses
    /// [`StorageManager::get`], which consults the fault injector — an
    /// injected load miss must not masquerade as store corruption.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        // Recompute logical bytes and per-column reference counts from the
        // artifact table.
        let mut want_refs: HashMap<ColumnId, usize> = HashMap::new();
        let mut logical = 0u64;
        let mut unique_whole = 0u64;
        for (id, stored) in &self.artifacts {
            match stored {
                StoredArtifact::Whole { value, .. } => {
                    logical += value.nbytes() as u64;
                    unique_whole += value.nbytes() as u64;
                }
                StoredArtifact::Dataset { columns, nbytes } => {
                    logical += nbytes;
                    for r in columns {
                        let held = match &self.vault {
                            Some(vault) => vault.shards[vault.shard_of(r.id)]
                                .lock()
                                .contains_key(&r.id),
                            None => self.columns.contains_key(&r.id),
                        };
                        if !held {
                            violations.push(format!(
                                "artifact {:016x} references column {:?} ({}) absent from the column store",
                                id.0, r.id, r.name
                            ));
                        }
                        *want_refs.entry(r.id).or_insert(0) += 1;
                    }
                }
            }
        }
        // Check the column store against the recomputed reference counts.
        // Vault-backed managers hold no local columns: reference counts
        // span managers there, so [`ColumnVault::audit`] checks them.
        let mut unique = unique_whole;
        for (cid, col) in &self.columns {
            unique += col.nbytes;
            let want = want_refs.get(cid).copied().unwrap_or(0);
            if want == 0 {
                violations.push(format!(
                    "column {cid:?} is held but referenced by no artifact"
                ));
            } else if col.refs != want {
                violations.push(format!(
                    "column {cid:?} refcount is {} but {} artifact reference(s) exist",
                    col.refs, want
                ));
            }
        }
        if unique != self.unique_bytes {
            violations.push(format!(
                "unique_bytes counter is {} but stored content sums to {}",
                self.unique_bytes, unique
            ));
        }
        if logical != self.logical_bytes {
            violations.push(format!(
                "logical_bytes counter is {} but artifact nominal sizes sum to {}",
                self.logical_bytes, logical
            ));
        }
        violations
    }

    /// Retrieve an artifact's content, reassembling deduplicated datasets
    /// from the column store.
    ///
    /// With a fault injector installed, the injector may turn the call
    /// into a miss (returning `None` even for stored artifacts) so
    /// callers' degradation paths can be exercised deterministically.
    #[must_use]
    pub fn get(&self, id: ArtifactId) -> Option<Value> {
        if let Some(f) = &self.faults {
            if f.on_load() {
                return None;
            }
        }
        let stored = self.artifacts.get(&id)?;
        let value = self.reassemble(stored)?;
        self.bytes_read
            .fetch_add(stored.nbytes(), Ordering::Relaxed);
        Some(value)
    }

    /// Retrieve an artifact's content without consulting the fault
    /// injector or counting the read — for checks (the full-pass
    /// materializer oracle) that must see the store as it is.
    #[must_use]
    pub fn peek(&self, id: ArtifactId) -> Option<Value> {
        self.reassemble(self.artifacts.get(&id)?)
    }

    fn reassemble(&self, stored: &StoredArtifact) -> Option<Value> {
        match stored {
            StoredArtifact::Whole { value, .. } => Some(value.clone()),
            StoredArtifact::Dataset { columns, .. } => {
                let cols: Option<Vec<Column>> = if let Some(vault) = &self.vault {
                    vault.fetch(columns)
                } else {
                    columns
                        .iter()
                        .map(|r| {
                            self.columns
                                .get(&r.id)
                                .map(|sc| Column::from_arc(&r.name, r.id, Arc::clone(&sc.data)))
                        })
                        .collect()
                };
                DataFrame::new(cols?).ok().map(Value::dataset)
            }
        }
    }

    /// Bytes of content [`StorageManager::get`] has handed out so far.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// The footprint `value` would have in this store: its columns when
    /// this store deduplicates datasets, its nominal bytes otherwise.
    #[must_use]
    pub fn footprint_of(&self, value: &Value) -> Footprint {
        match value {
            Value::Dataset(df) if self.dedup => Footprint::Columns(
                df.columns()
                    .iter()
                    .map(|c| (c.id(), c.nbytes() as u64))
                    .collect(),
            ),
            other => Footprint::Whole(other.nbytes() as u64),
        }
    }

    /// The footprint of a stored artifact, read from the artifact table:
    /// no content is reassembled and the fault injector is not
    /// consulted. `None` when the artifact is not stored (or references
    /// a column the store no longer holds).
    #[must_use]
    pub fn stored_footprint(&self, id: ArtifactId) -> Option<Footprint> {
        match self.artifacts.get(&id)? {
            StoredArtifact::Whole { nbytes, .. } => Some(Footprint::Whole(*nbytes)),
            StoredArtifact::Dataset { columns, .. } => columns
                .iter()
                .map(|r| {
                    let bytes = match &self.vault {
                        Some(vault) => vault.column_bytes(r.id),
                        None => self.columns.get(&r.id).map(|sc| sc.nbytes),
                    };
                    bytes.map(|b| (r.id, b))
                })
                .collect::<Option<Vec<_>>>()
                .map(Footprint::Columns),
        }
    }

    /// Whether the artifact's content is stored (the vertex `mat` flag).
    #[must_use]
    pub fn contains(&self, id: ArtifactId) -> bool {
        self.artifacts.contains_key(&id)
    }

    /// Bytes physically held after deduplication.
    #[must_use]
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    /// Sum of nominal sizes of all materialized artifacts.
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Number of materialized artifacts.
    #[must_use]
    pub fn n_artifacts(&self) -> usize {
        self.artifacts.len()
    }

    /// Number of unique columns held.
    #[must_use]
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Ids of all materialized artifacts.
    #[must_use]
    pub fn materialized_ids(&self) -> Vec<ArtifactId> {
        self.artifacts.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_dataframe::ops;

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            Column::source("t", "a", ColumnData::Int(vec![1, 2, 3, 4])),
            Column::source("t", "b", ColumnData::Float(vec![0.1, 0.2, 0.3, 0.4])),
        ])
        .unwrap()
    }

    fn aid(n: u64) -> ArtifactId {
        ArtifactId(n)
    }

    #[test]
    fn dedup_shares_columns_between_artifacts() {
        let mut sm = StorageManager::new(true);
        let df = frame();
        let added1 = sm.store(aid(1), &Value::dataset(df.clone()));
        assert_eq!(added1, df.nbytes() as u64);

        // A projection shares both column ids with the original.
        let proj = df.select(&["b", "a"]).unwrap();
        assert_eq!(sm.marginal_bytes(&Value::dataset(proj.clone())), 0);
        let added2 = sm.store(aid(2), &Value::dataset(proj.clone()));
        assert_eq!(added2, 0);

        assert_eq!(sm.unique_bytes(), df.nbytes() as u64);
        assert_eq!(sm.logical_bytes(), (df.nbytes() + proj.nbytes()) as u64);
        assert_eq!(sm.n_columns(), 2);
    }

    #[test]
    fn reassembly_round_trips() {
        let mut sm = StorageManager::new(true);
        let df = frame();
        sm.store(aid(1), &Value::dataset(df.clone()));
        let back = sm.get(aid(1)).unwrap();
        let bdf = back.as_dataset().unwrap();
        assert_eq!(bdf.column_names(), df.column_names());
        assert_eq!(bdf.column_ids(), df.column_ids());
        assert_eq!(bdf.column("a").unwrap().ints().unwrap(), &[1, 2, 3, 4]);
        assert!(sm.get(aid(9)).is_none());
    }

    #[test]
    fn eviction_respects_shared_columns() {
        let mut sm = StorageManager::new(true);
        let df = frame();
        let proj = df.select(&["a"]).unwrap();
        sm.store(aid(1), &Value::dataset(df.clone()));
        sm.store(aid(2), &Value::dataset(proj));
        // Evicting the full frame frees only the column no longer shared.
        let freed = sm.evict(aid(1));
        assert_eq!(freed, df.column("b").unwrap().nbytes() as u64);
        assert!(sm.contains(aid(2)));
        let back = sm.get(aid(2)).unwrap();
        assert_eq!(back.as_dataset().unwrap().n_cols(), 1);
        // Evicting the projection frees the rest.
        let freed2 = sm.evict(aid(2));
        assert_eq!(freed2, df.column("a").unwrap().nbytes() as u64);
        assert_eq!(sm.unique_bytes(), 0);
        assert_eq!(sm.n_columns(), 0);
        assert_eq!(sm.evict(aid(2)), 0); // double evict is a no-op
    }

    #[test]
    fn derived_columns_add_only_their_bytes() {
        let mut sm = StorageManager::new(true);
        let df = frame();
        sm.store(aid(1), &Value::dataset(df.clone()));
        // A map adds one derived column; storing the result adds only it.
        let mapped = ops::map_column(&df, "b", &ops::MapFn::Abs, "b_abs").unwrap();
        let marginal = sm.marginal_bytes(&Value::dataset(mapped.clone()));
        assert_eq!(marginal, mapped.column("b_abs").unwrap().nbytes() as u64);
        let added = sm.store(aid(2), &Value::dataset(mapped));
        assert_eq!(added, marginal);
    }

    #[test]
    fn plain_store_does_not_deduplicate() {
        let mut sm = StorageManager::new(false);
        let df = frame();
        let proj = df.select(&["a"]).unwrap();
        sm.store(aid(1), &Value::dataset(df.clone()));
        let added = sm.store(aid(2), &Value::dataset(proj.clone()));
        assert_eq!(added, proj.nbytes() as u64);
        assert_eq!(sm.unique_bytes(), sm.logical_bytes());
    }

    #[test]
    fn audit_passes_on_healthy_stores() {
        for dedup in [true, false] {
            let mut sm = StorageManager::new(dedup);
            let df = frame();
            sm.store(aid(1), &Value::dataset(df.clone()));
            sm.store(aid(2), &Value::dataset(df.select(&["a"]).unwrap()));
            sm.store(aid(3), &Value::Aggregate(co_dataframe::Scalar::Float(2.0)));
            assert_eq!(sm.audit(), Vec::<String>::new());
            sm.evict(aid(1));
            assert_eq!(sm.audit(), Vec::<String>::new());
        }
    }

    #[test]
    fn audit_catches_counter_skew() {
        let mut sm = StorageManager::new(true);
        sm.store(aid(1), &Value::dataset(frame()));
        sm.unique_bytes += 7; // seeded corruption
        let violations = sm.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("unique_bytes"), "{violations:?}");

        let mut sm = StorageManager::new(false);
        sm.store(aid(1), &Value::dataset(frame()));
        sm.logical_bytes -= 1; // seeded corruption
        let violations = sm.audit();
        assert!(
            violations.iter().any(|v| v.contains("logical_bytes")),
            "{violations:?}"
        );
    }

    #[test]
    fn audit_catches_refcount_and_dangling_corruption() {
        // Wrong refcount on a shared column.
        let mut sm = StorageManager::new(true);
        let df = frame();
        sm.store(aid(1), &Value::dataset(df.clone()));
        sm.store(aid(2), &Value::dataset(df.select(&["a"]).unwrap()));
        let shared = df.column("a").unwrap().id();
        sm.columns.get_mut(&shared).unwrap().refs = 1; // seeded corruption
        let violations = sm.audit();
        assert!(
            violations.iter().any(|v| v.contains("refcount")),
            "{violations:?}"
        );

        // Dangling column reference + the orphan it leaves behind.
        let mut sm = StorageManager::new(true);
        sm.store(aid(1), &Value::dataset(df.clone()));
        let dropped = df.column("b").unwrap().id();
        sm.columns.remove(&dropped); // seeded corruption
        let violations = sm.audit();
        assert!(
            violations.iter().any(|v| v.contains("absent")),
            "{violations:?}"
        );

        // Orphan column nothing references.
        let mut sm = StorageManager::new(true);
        sm.store(aid(1), &Value::dataset(df.clone()));
        sm.evict(aid(1));
        sm.columns.insert(
            df.column("a").unwrap().id(),
            StoredColumn {
                data: df.column("a").unwrap().data(),
                nbytes: df.column("a").unwrap().nbytes() as u64,
                refs: 1,
            },
        ); // seeded corruption
        sm.unique_bytes += df.column("a").unwrap().nbytes() as u64; // keep counters consistent
        let violations = sm.audit();
        assert!(
            violations.iter().any(|v| v.contains("no artifact")),
            "{violations:?}"
        );
    }

    #[test]
    fn vault_shares_columns_across_managers() {
        let vault = Arc::new(ColumnVault::new(4));
        let mut a = StorageManager::new_vaulted(Arc::clone(&vault));
        let mut b = StorageManager::new_vaulted(Arc::clone(&vault));
        let df = frame();
        let added1 = a.store(aid(1), &Value::dataset(df.clone()));
        assert_eq!(added1, df.nbytes() as u64);
        // The same columns stored through another shard's manager are
        // deduplicated vault-wide: nothing new is held.
        let proj = df.select(&["a"]).unwrap();
        assert_eq!(b.marginal_bytes(&Value::dataset(proj.clone())), 0);
        assert_eq!(b.store(aid(2), &Value::dataset(proj)), 0);
        assert_eq!(vault.unique_bytes(), df.nbytes() as u64);
        assert_eq!(vault.n_columns(), 2);
        assert_eq!(vault.audit(&[&a, &b]), Vec::<String>::new());
        assert_eq!(a.audit(), Vec::<String>::new());
        // Evicting from one manager keeps columns the other references.
        let freed = a.evict(aid(1));
        assert_eq!(freed, df.column("b").unwrap().nbytes() as u64);
        let back = b.get(aid(2)).unwrap();
        assert_eq!(back.as_dataset().unwrap().n_cols(), 1);
        assert_eq!(b.evict(aid(2)), df.column("a").unwrap().nbytes() as u64);
        assert_eq!(vault.unique_bytes(), 0);
        assert_eq!(vault.n_columns(), 0);
    }

    #[test]
    fn vault_audit_catches_cross_manager_refcount_skew() {
        let vault = Arc::new(ColumnVault::new(2));
        let mut a = StorageManager::new_vaulted(Arc::clone(&vault));
        let mut b = StorageManager::new_vaulted(Arc::clone(&vault));
        let df = frame();
        a.store(aid(1), &Value::dataset(df.clone()));
        b.store(aid(2), &Value::dataset(df.clone()));
        let cid = df.column("a").unwrap().id();
        vault.shards[vault.shard_of(cid)]
            .lock()
            .get_mut(&cid)
            .unwrap()
            .refs = 1; // seeded corruption
        let violations = vault.audit(&[&a, &b]);
        assert!(
            violations.iter().any(|v| v.contains("refcount")),
            "{violations:?}"
        );
    }

    #[test]
    fn aggregates_and_double_store() {
        let mut sm = StorageManager::new(true);
        let v = Value::Aggregate(co_dataframe::Scalar::Float(1.0));
        assert_eq!(sm.store(aid(1), &v), 8);
        assert_eq!(sm.store(aid(1), &v), 0); // idempotent
        assert_eq!(sm.n_artifacts(), 1);
    }
}
