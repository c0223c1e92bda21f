//! The Experiment Graph: the union of all executed workload DAGs (paper
//! §3.2).
//!
//! Every vertex keeps `⟨frequency, compute_time, size, materialized⟩` plus
//! the model-quality attribute `q`; meta-data is kept for *all* artifacts,
//! content only for the materialized subset (held by the embedded
//! [`StorageManager`]).

use crate::artifact::{ArtifactId, NodeKind};
use crate::error::{GraphError, Result};
use crate::operation::OpHash;
use crate::storage::StorageManager;
use crate::workload::WorkloadDag;
use std::collections::{HashMap, HashSet};

/// One vertex of the Experiment Graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EgVertex {
    /// Artifact identity.
    pub id: ArtifactId,
    /// Artifact kind.
    pub kind: NodeKind,
    /// `f`: number of workloads this artifact appeared in.
    pub frequency: u64,
    /// `t`: compute time (seconds) of the operation producing it.
    pub compute_time: f64,
    /// `s`: content size in bytes.
    pub size: u64,
    /// `q`: model quality in `[0, 1]` (0 for non-models).
    pub quality: f64,
    /// Meta-data description (schema or hyperparameter digest).
    pub description: String,
    /// Source-dataset name, for source vertices.
    pub source_name: Option<String>,
    /// Hash of the producing operation (sources have none).
    pub op_hash: Option<OpHash>,
    /// Ordered inputs of the producing operation.
    pub parents: Vec<ArtifactId>,
    /// Outputs of operations consuming this artifact.
    pub children: Vec<ArtifactId>,
}

/// The Experiment Graph.
pub struct ExperimentGraph {
    vertices: HashMap<ArtifactId, EgVertex>,
    /// Insertion order; parents always precede children, so this is a
    /// topological order of the whole graph.
    topo: Vec<ArtifactId>,
    sources: Vec<ArtifactId>,
    storage: StorageManager,
    /// Artifacts whose `mat` flag was recovered from a snapshot or
    /// journal. Content is never persisted, so after a restart these
    /// ids count as "was materialized" for durability bookkeeping even
    /// though the store holds nothing yet; they clear as eviction or
    /// re-materialization brings the store back in charge.
    restored_mat: HashSet<ArtifactId>,
}

impl ExperimentGraph {
    /// An empty graph whose store deduplicates columns iff `dedup`.
    #[must_use]
    pub fn new(dedup: bool) -> Self {
        ExperimentGraph {
            vertices: HashMap::new(),
            topo: Vec::new(),
            sources: Vec::new(),
            storage: StorageManager::new(dedup),
            restored_mat: HashSet::new(),
        }
    }

    /// Merge an *executed* workload DAG (annotated with compute times and
    /// sizes) into the graph:
    ///
    /// 1. source artifacts not yet present are stored — meta-data **and**
    ///    content ("this is to ensure that EG contains every raw dataset");
    /// 2. all vertices and edges are added; existing vertices get their
    ///    frequency bumped (once per workload);
    /// 3. model qualities are recorded.
    ///
    /// Content materialization for non-source artifacts is the
    /// materializer's decision and happens separately via
    /// [`ExperimentGraph::storage_mut`].
    pub fn update_with_workload(&mut self, dag: &WorkloadDag) -> Result<()> {
        self.merge_masked(dag, None)
    }

    /// Merge only the nodes of `dag` for which `keep[index]` is true —
    /// used to salvage the successfully computed prefix of a failed
    /// workload (vertices tainted by a failure carry no measurements and
    /// must not enter the graph).
    ///
    /// The mask must be *ancestor-closed*: a kept node's parents must be
    /// kept too, otherwise the merged vertices would reference artifacts
    /// the graph never defines (breaking, among other things, the
    /// snapshot format's parents-before-definition invariant).
    pub fn update_with_workload_partial(&mut self, dag: &WorkloadDag, keep: &[bool]) -> Result<()> {
        if keep.len() != dag.nodes().len() {
            return Err(GraphError::InvalidStructure(format!(
                "salvage mask covers {} nodes, workload has {}",
                keep.len(),
                dag.nodes().len()
            )));
        }
        for (idx, kept) in keep.iter().enumerate() {
            if !kept {
                continue;
            }
            for p in dag.parents(crate::workload::NodeId(idx)) {
                if !keep[p.0] {
                    return Err(GraphError::InvalidStructure(format!(
                        "salvage mask keeps node {idx} but drops its parent {}",
                        p.0
                    )));
                }
            }
        }
        self.merge_masked(dag, Some(keep))
    }

    /// The whole-graph merge is the sharded updater's loop with every
    /// parent in the same graph: insert-or-bump each kept node, then
    /// wire a new vertex to its parents (workload nodes are
    /// parents-first and the mask is ancestor-closed, so they exist).
    fn merge_masked(&mut self, dag: &WorkloadDag, mask: Option<&[bool]>) -> Result<()> {
        for idx in 0..dag.nodes().len() {
            if mask.is_some_and(|mask| !mask[idx]) {
                continue;
            }
            if self.merge_workload_node(dag, idx)? {
                let child = dag.nodes()[idx].artifact;
                for p in dag.parents(crate::workload::NodeId(idx)) {
                    self.add_child_link(dag.nodes()[p.0].artifact, child)?;
                }
            }
        }
        Ok(())
    }

    /// Merge a single node of an executed workload DAG into this graph —
    /// the updater's unit of work, where each node lands in the shard
    /// owning its artifact id: a new vertex is inserted (a source's
    /// content stored with it), an existing one gets its frequency
    /// bumped and its measurements refreshed. **No child links are
    /// wired** (a parent may live in another shard); the caller wires
    /// them via [`ExperimentGraph::add_child_link`] on the parent's
    /// shard. Returns whether the node was inserted (false: an existing
    /// vertex was bumped).
    pub fn merge_workload_node(&mut self, dag: &WorkloadDag, idx: usize) -> Result<bool> {
        let node = dag
            .nodes()
            .get(idx)
            .ok_or_else(|| GraphError::InvalidStructure(format!("workload has no node {idx}")))?;
        let id = node.artifact;
        match self.vertices.get_mut(&id) {
            Some(v) => {
                v.frequency += 1;
                if let Some(t) = node.compute_time {
                    v.compute_time = t;
                }
                if let Some(s) = node.size {
                    v.size = s;
                }
                if node.quality > 0.0 {
                    v.quality = node.quality;
                }
                Ok(false)
            }
            None => {
                let parents: Vec<ArtifactId> = dag
                    .parents(crate::workload::NodeId(idx))
                    .iter()
                    .map(|n| dag.nodes()[n.0].artifact)
                    .collect();
                let op_hash = dag
                    .producer(crate::workload::NodeId(idx))
                    .map(|e| e.op.op_hash());
                let description = node
                    .computed
                    .as_ref()
                    .map(crate::value::Value::description)
                    .unwrap_or_default();
                let vertex = EgVertex {
                    id,
                    kind: node.kind,
                    frequency: 1,
                    compute_time: node.compute_time.unwrap_or(0.0),
                    size: node.size.unwrap_or(0),
                    quality: node.quality,
                    description,
                    source_name: node.name.clone(),
                    op_hash,
                    parents,
                    children: Vec::new(),
                };
                self.vertices.insert(id, vertex);
                self.topo.push(id);
                if node.producer.is_none() {
                    self.sources.push(id);
                    // Sources: store content unconditionally.
                    if let Some(value) = &node.computed {
                        self.storage.store(id, value);
                    }
                }
                Ok(true)
            }
        }
    }

    /// Record that `child` consumes `parent` (idempotent). The sharded
    /// updater and the recovery rewire pass call this on the *parent's*
    /// shard; `child` may live elsewhere.
    pub fn add_child_link(&mut self, parent: ArtifactId, child: ArtifactId) -> Result<()> {
        let pv = self
            .vertices
            .get_mut(&parent)
            .ok_or(GraphError::UnknownArtifact(parent.0))?;
        if !pv.children.contains(&child) {
            pv.children.push(child);
        }
        Ok(())
    }

    /// Insert a fully specified vertex during snapshot or journal
    /// restoration *without* resolving its lineage: parents are recorded
    /// but not required to exist (they may live in another shard) and no
    /// child links are wired; the recovery rewire pass
    /// (`crate::shard::rewire_children`) rebuilds children afterwards.
    /// The vertex must be new.
    pub fn restore_vertex_unlinked(&mut self, mut vertex: EgVertex) -> Result<()> {
        if self.vertices.contains_key(&vertex.id) {
            return Err(GraphError::InvalidStructure(format!(
                "duplicate vertex {:x} in snapshot",
                vertex.id.0
            )));
        }
        vertex.children.clear();
        let id = vertex.id;
        let is_source = vertex.op_hash.is_none();
        self.vertices.insert(id, vertex);
        self.topo.push(id);
        if is_source {
            self.sources.push(id);
        }
        Ok(())
    }

    /// Whether an artifact (materialized or not) is known to the graph.
    #[must_use]
    pub fn contains(&self, id: ArtifactId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Vertex accessor.
    pub fn vertex(&self, id: ArtifactId) -> Result<&EgVertex> {
        self.vertices
            .get(&id)
            .ok_or(GraphError::UnknownArtifact(id.0))
    }

    /// Mutable vertex accessor.
    pub fn vertex_mut(&mut self, id: ArtifactId) -> Result<&mut EgVertex> {
        self.vertices
            .get_mut(&id)
            .ok_or(GraphError::UnknownArtifact(id.0))
    }

    /// Whether the artifact's content is stored (`mat`).
    #[must_use]
    pub fn is_materialized(&self, id: ArtifactId) -> bool {
        self.storage.contains(id)
    }

    /// Whether the artifact either holds content now or had its `mat`
    /// flag recovered from persistence (content pending repopulation).
    /// This is the flag snapshots and journals persist.
    #[must_use]
    pub fn was_materialized(&self, id: ArtifactId) -> bool {
        self.storage.contains(id) || self.restored_mat.contains(&id)
    }

    /// Record a `mat` flag recovered from a snapshot or journal.
    pub fn mark_restored_materialized(&mut self, id: ArtifactId) {
        self.restored_mat.insert(id);
    }

    /// Drop a recovered `mat` flag (eviction during replay, or the
    /// store re-materializing the artifact for real). Returns whether
    /// the flag was present.
    pub fn unmark_restored_materialized(&mut self, id: ArtifactId) -> bool {
        self.restored_mat.remove(&id)
    }

    /// Ids whose `mat` flag was recovered but whose content has not
    /// repopulated yet.
    #[must_use]
    pub fn restored_materialized(&self) -> &HashSet<ArtifactId> {
        &self.restored_mat
    }

    /// Number of vertices.
    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Vertex ids in topological order.
    #[must_use]
    pub fn topo_order(&self) -> &[ArtifactId] {
        &self.topo
    }

    /// Source artifact ids.
    #[must_use]
    pub fn sources(&self) -> &[ArtifactId] {
        &self.sources
    }

    /// The content store.
    #[must_use]
    pub fn storage(&self) -> &StorageManager {
        &self.storage
    }

    /// Mutable access to the content store (used by the updater /
    /// materializer).
    pub fn storage_mut(&mut self) -> &mut StorageManager {
        &mut self.storage
    }

    /// Replace the content store wholesale — used when assembling a
    /// sharded graph, where every shard's store must share one
    /// [`crate::ColumnVault`]. Restored-materialization flags are kept;
    /// any content held by the old store is dropped, so callers swap
    /// stores only on freshly built or freshly recovered graphs (content
    /// is never persisted, so a recovered store is empty by definition).
    pub fn set_storage(&mut self, storage: StorageManager) {
        self.storage = storage;
    }

    /// Approximate recreation cost `Cr(v)` for every vertex, computed in
    /// one topological pass as `t(v) + Σ_parents Cr(p)` — the linear-time
    /// scheme the paper uses (§5.2 "we compute the recreation cost and
    /// potential of the nodes incrementally using one pass"). On DAGs with
    /// shared ancestors this over-counts; see
    /// [`ExperimentGraph::exact_recreation_cost`].
    ///
    /// Materialized vertices still report their full recreation cost (the
    /// utility function compares it against the load cost).
    #[must_use]
    pub fn recreation_costs(&self) -> HashMap<ArtifactId, f64> {
        let mut costs: HashMap<ArtifactId, f64> = HashMap::with_capacity(self.vertices.len());
        for id in &self.topo {
            let v = &self.vertices[id];
            let parent_cost: f64 = v
                .parents
                .iter()
                .map(|p| costs.get(p).copied().unwrap_or(0.0))
                .sum();
            costs.insert(*id, v.compute_time + parent_cost);
        }
        costs
    }

    /// Exact recreation cost: the sum of `t` over the vertex's compute
    /// graph (all distinct ancestors, including itself).
    pub fn exact_recreation_cost(&self, id: ArtifactId) -> Result<f64> {
        self.vertex(id)?;
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        let mut total = 0.0;
        while let Some(a) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            let v = &self.vertices[&a];
            total += v.compute_time;
            stack.extend(v.parents.iter().copied());
        }
        Ok(total)
    }

    /// Potential `p(v)` for every vertex: the quality of the best ML model
    /// reachable from it (paper §5.1), computed in one reverse topological
    /// pass.
    #[must_use]
    pub fn potentials(&self) -> HashMap<ArtifactId, f64> {
        let mut potential: HashMap<ArtifactId, f64> = HashMap::with_capacity(self.vertices.len());
        for id in self.topo.iter().rev() {
            let v = &self.vertices[id];
            let own = if v.kind == NodeKind::Model {
                v.quality
            } else {
                0.0
            };
            let best_child = v
                .children
                .iter()
                .map(|c| potential.get(c).copied().unwrap_or(0.0))
                .fold(0.0, f64::max);
            potential.insert(*id, own.max(best_child));
        }
        potential
    }

    /// All vertices (arbitrary order).
    pub fn vertices(&self) -> impl Iterator<Item = &EgVertex> {
        self.vertices.values()
    }

    /// Total nominal size of every artifact ever seen (bytes).
    #[must_use]
    pub fn total_artifact_bytes(&self) -> u64 {
        self.vertices.values().map(|v| v.size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Operation;
    use crate::value::Value;
    use crate::workload::WorkloadDag;
    use co_dataframe::Scalar;
    use std::sync::Arc;

    struct Step {
        name: &'static str,
        cost_marker: f64,
        kind: NodeKind,
    }

    impl Operation for Step {
        fn name(&self) -> &str {
            self.name
        }
        fn params_digest(&self) -> String {
            co_dataframe::hash::float_digest(self.cost_marker)
        }
        fn output_kind(&self) -> NodeKind {
            self.kind
        }
        fn run(&self, _inputs: &[&Value]) -> Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(self.cost_marker)))
        }
    }

    fn step(name: &'static str, marker: f64) -> Arc<Step> {
        Arc::new(Step {
            name,
            cost_marker: marker,
            kind: NodeKind::Dataset,
        })
    }

    fn model_step(name: &'static str, marker: f64) -> Arc<Step> {
        Arc::new(Step {
            name,
            cost_marker: marker,
            kind: NodeKind::Model,
        })
    }

    /// source -> a -> b(model q=0.8); source -> c.
    fn build_workload(q: f64) -> WorkloadDag {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag.add_op(step("a", 1.0), &[s]).unwrap();
        let b = dag.add_op(model_step("train", 2.0), &[a]).unwrap();
        let c = dag.add_op(step("c", 3.0), &[s]).unwrap();
        dag.mark_terminal(b).unwrap();
        dag.mark_terminal(c).unwrap();
        dag.annotate(a, 1.0, 100).unwrap();
        dag.annotate(b, 2.0, 50).unwrap();
        dag.annotate(c, 3.0, 200).unwrap();
        dag.node_mut(b).unwrap().quality = q;
        dag
    }

    #[test]
    fn update_merges_and_counts_frequency() {
        let mut eg = ExperimentGraph::new(true);
        let w1 = build_workload(0.8);
        eg.update_with_workload(&w1).unwrap();
        assert_eq!(eg.n_vertices(), 4);
        assert_eq!(eg.sources().len(), 1);

        // Same workload again: frequencies bump, no new vertices.
        eg.update_with_workload(&build_workload(0.8)).unwrap();
        assert_eq!(eg.n_vertices(), 4);
        let a_id = w1.nodes()[1].artifact;
        assert_eq!(eg.vertex(a_id).unwrap().frequency, 2);
    }

    #[test]
    fn sources_are_always_materialized() {
        let mut eg = ExperimentGraph::new(true);
        let w = build_workload(0.5);
        eg.update_with_workload(&w).unwrap();
        let src = eg.sources()[0];
        assert!(eg.is_materialized(src));
        // Non-sources are not materialized by the updater itself.
        let a_id = w.nodes()[1].artifact;
        assert!(!eg.is_materialized(a_id));
    }

    #[test]
    fn recreation_costs_accumulate_along_paths() {
        let mut eg = ExperimentGraph::new(true);
        let w = build_workload(0.5);
        eg.update_with_workload(&w).unwrap();
        let costs = eg.recreation_costs();
        let (s, a, b, c) = (
            w.nodes()[0].artifact,
            w.nodes()[1].artifact,
            w.nodes()[2].artifact,
            w.nodes()[3].artifact,
        );
        assert_eq!(costs[&s], 0.0);
        assert_eq!(costs[&a], 1.0);
        assert_eq!(costs[&b], 3.0); // 1 + 2
        assert_eq!(costs[&c], 3.0);
        assert_eq!(eg.exact_recreation_cost(b).unwrap(), 3.0);
    }

    #[test]
    fn exact_cost_avoids_diamond_double_count() {
        // s -> a -> m, s -> b -> m (m joins a and b): exact counts s once.
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag.add_op(step("a", 1.0), &[s]).unwrap();
        let b = dag.add_op(step("b", 2.0), &[s]).unwrap();
        let m = dag.add_op(step("m", 4.0), &[a, b]).unwrap();
        dag.mark_terminal(m).unwrap();
        for (n, t) in [(a, 1.0), (b, 2.0), (m, 4.0)] {
            dag.annotate(n, t, 10).unwrap();
        }
        // Give the source a nonzero compute time to expose double counting.
        dag.node_mut(s).unwrap().compute_time = Some(5.0);

        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&dag).unwrap();
        let m_id = dag.nodes()[m.0].artifact;
        assert_eq!(
            eg.exact_recreation_cost(m_id).unwrap(),
            5.0 + 1.0 + 2.0 + 4.0
        );
        // The linear approximation counts the source twice.
        assert_eq!(eg.recreation_costs()[&m_id], 5.0 + 1.0 + 5.0 + 2.0 + 4.0);
    }

    #[test]
    fn potentials_flow_backwards_from_models() {
        let mut eg = ExperimentGraph::new(true);
        let w = build_workload(0.8);
        eg.update_with_workload(&w).unwrap();
        let p = eg.potentials();
        let (s, a, b, c) = (
            w.nodes()[0].artifact,
            w.nodes()[1].artifact,
            w.nodes()[2].artifact,
            w.nodes()[3].artifact,
        );
        assert_eq!(p[&b], 0.8); // the model itself
        assert_eq!(p[&a], 0.8); // ancestor of the model
        assert_eq!(p[&s], 0.8);
        assert_eq!(p[&c], 0.0); // not connected to any model
    }

    #[test]
    fn better_models_raise_potentials() {
        let mut eg = ExperimentGraph::new(true);
        eg.update_with_workload(&build_workload(0.6)).unwrap();
        // A second workload trains a better model from the same artifact.
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("src", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag.add_op(step("a", 1.0), &[s]).unwrap();
        let b2 = dag.add_op(model_step("train2", 9.0), &[a]).unwrap();
        dag.mark_terminal(b2).unwrap();
        dag.annotate(a, 1.0, 100).unwrap();
        dag.annotate(b2, 2.0, 50).unwrap();
        dag.node_mut(b2).unwrap().quality = 0.95;
        eg.update_with_workload(&dag).unwrap();

        let p = eg.potentials();
        let a_id = dag.nodes()[a.0].artifact;
        assert_eq!(p[&a_id], 0.95);
    }

    #[test]
    fn unknown_vertex_errors() {
        let eg = ExperimentGraph::new(true);
        assert!(eg.vertex(ArtifactId(1)).is_err());
        assert!(eg.exact_recreation_cost(ArtifactId(1)).is_err());
    }
}
