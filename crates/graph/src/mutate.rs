//! Live graph mutation: the versioned, replayable mutation log.
//!
//! A deployed graph is mutated between jobs through [`MutationBatch`]es —
//! ordered lists of edge/vertex insert and remove operations.  Batches are
//! validated against the *current* graph shape, resolved into a
//! [`ResolvedMutation`] (a normalised delta with every id pinned down) and
//! appended to a [`MutationLog`], which assigns each batch a monotonically
//! increasing graph version.  Resolved deltas are what every layer applies:
//! the master [`PropertyGraph`](crate::PropertyGraph) compacts its edge table
//! in place, a `Partitioning` updates its assignment (retiring the replicas a
//! removal orphans), and per-node state absorbs only the touched shards.  The log is replayable: a fresh
//! deployment catches up by applying the resolved batches in order, and two
//! replicas that applied the same log bit-identically agree.
//!
//! ## Id spaces
//!
//! * Vertex ids are dense and never reused: `AddVertex` assigns the next id
//!   (`num_vertices`), and `DetachVertex` resets a vertex's attribute without
//!   shrinking the id space.
//! * Edge ids are compacted per batch: `RemoveEdge` names an edge id in the
//!   *pre-batch* id space; after the batch applies, surviving edges keep
//!   their relative order (ids shift down past removals) and added edges take
//!   the largest ids, in op order.  This makes the mutated graph's edge table
//!   identical to one built from scratch from the mutated edge list.

use crate::types::{Edge, EdgeId, VertexId};
use std::fmt;
use std::sync::Arc;

/// One mutation operation inside a [`MutationBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp<V, E> {
    /// Adds a vertex with the given attribute; its id is assigned on
    /// validation (the next dense id at that point of the batch).
    AddVertex {
        /// Initial attribute of the new vertex.
        attr: V,
    },
    /// Adds a directed edge.  Endpoints may be vertices added earlier in the
    /// same batch.
    AddEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge attribute.
        attr: E,
    },
    /// Removes the edge with the given id (pre-batch id space).
    RemoveEdge {
        /// Edge id as of the version the batch applies to.
        edge: EdgeId,
    },
    /// Detaches a vertex: requires that no edge touches it once the batch's
    /// removals apply, and resets its attribute.  The id space never shrinks.
    DetachVertex {
        /// The vertex to detach.
        vertex: VertexId,
        /// The attribute the detached vertex is reset to.
        attr: V,
    },
}

/// Why a [`MutationBatch`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The batch contained no operations.
    EmptyBatch,
    /// An edge endpoint (or detach target) is outside the vertex id space at
    /// that point of the batch.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The vertex count it was checked against.
        num_vertices: usize,
    },
    /// A removed edge id is outside the pre-batch edge id space.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: EdgeId,
        /// The number of edges in the pre-batch graph.
        num_edges: usize,
    },
    /// The same edge was removed twice in one batch.
    EdgeAlreadyRemoved {
        /// The edge id removed twice.
        edge: EdgeId,
    },
    /// A detached vertex still has incident edges after the batch's removals
    /// (including edges added by the same batch).
    DetachedVertexHasEdges {
        /// The vertex that could not be detached.
        vertex: VertexId,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::EmptyBatch => write!(f, "mutation batch is empty"),
            MutationError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            MutationError::EdgeOutOfRange { edge, num_edges } => {
                write!(
                    f,
                    "edge {edge} out of range for graph with {num_edges} edges"
                )
            }
            MutationError::EdgeAlreadyRemoved { edge } => {
                write!(f, "edge {edge} removed more than once in one batch")
            }
            MutationError::DetachedVertexHasEdges { vertex } => {
                write!(
                    f,
                    "vertex {vertex} cannot be detached: edges still touch it"
                )
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// An ordered batch of mutation operations, applied atomically: either the
/// whole batch validates and becomes one graph version, or none of it
/// applies.
#[derive(Debug, Clone, Default)]
pub struct MutationBatch<V, E> {
    ops: Vec<MutationOp<V, E>>,
}

impl<V, E> MutationBatch<V, E> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Appends an `AddVertex` op; returns `self` for chaining.
    pub fn add_vertex(mut self, attr: V) -> Self {
        self.ops.push(MutationOp::AddVertex { attr });
        self
    }

    /// Appends an `AddEdge` op; returns `self` for chaining.
    pub fn add_edge(mut self, src: VertexId, dst: VertexId, attr: E) -> Self {
        self.ops.push(MutationOp::AddEdge { src, dst, attr });
        self
    }

    /// Appends a `RemoveEdge` op; returns `self` for chaining.
    pub fn remove_edge(mut self, edge: EdgeId) -> Self {
        self.ops.push(MutationOp::RemoveEdge { edge });
        self
    }

    /// Appends a `DetachVertex` op; returns `self` for chaining.
    pub fn detach_vertex(mut self, vertex: VertexId, attr: V) -> Self {
        self.ops.push(MutationOp::DetachVertex { vertex, attr });
        self
    }

    /// Appends an op in place (the non-chaining form).
    pub fn push(&mut self, op: MutationOp<V, E>) {
        self.ops.push(op);
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[MutationOp<V, E>] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A validated, normalised mutation delta: every id resolved against the
/// graph shape the batch applies to.  This is the unit the log stores and
/// every layer (master graph, partitioning, per-node state) applies.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedMutation<V, E> {
    /// The graph version this batch *produces* (the pristine graph is
    /// version 0; the first batch produces version 1).
    pub version: u64,
    /// Vertex count before the batch.
    pub prior_num_vertices: usize,
    /// Edge count before the batch.
    pub prior_num_edges: usize,
    /// Removed edges as `(pre-batch edge id, src, dst)`, ascending by id.
    /// The endpoints ride along so degree deltas need no lookup.
    pub removed_edges: Vec<(EdgeId, VertexId, VertexId)>,
    /// Added edges in op order; the `i`-th takes post-compaction id
    /// `prior_num_edges - removed_edges.len() + i`.
    pub added_edges: Vec<Edge<E>>,
    /// Added vertices as `(assigned id, attr)`, ascending by id starting at
    /// `prior_num_vertices`.
    pub added_vertices: Vec<(VertexId, V)>,
    /// Detached vertices as `(id, reset attribute)`, in op order.
    pub detached: Vec<(VertexId, V)>,
    /// Every vertex whose local state the batch touches (endpoints of added
    /// and removed edges, added and detached vertices), sorted, deduplicated.
    pub dirty: Vec<VertexId>,
}

impl<V, E> ResolvedMutation<V, E> {
    /// Vertex count after the batch.
    pub fn num_vertices(&self) -> usize {
        self.prior_num_vertices + self.added_vertices.len()
    }

    /// Edge count after the batch.
    pub fn num_edges(&self) -> usize {
        self.prior_num_edges - self.removed_edges.len() + self.added_edges.len()
    }

    /// The vertices whose state this batch touches — the seed frontier for
    /// incremental recompute.
    pub fn dirty_vertices(&self) -> &[VertexId] {
        &self.dirty
    }

    /// Whether the batch removes any edges.  A removal can lengthen what a
    /// monotone algorithm's warm values hold, so an incremental recompute
    /// first re-initialises the values the removed edges may have produced
    /// (the engine's trimmed refresh) instead of continuing from all of
    /// them.
    pub fn has_removals(&self) -> bool {
        !self.removed_edges.is_empty()
    }
}

/// The accumulated shape of every mutation since a reference point (e.g. the
/// last completed run of a session) — what an algorithm's
/// [`rescope`](#method.rescope) hook sees when deciding whether a warm,
/// frontier-seeded recompute is sound.
#[derive(Debug, Clone, Default)]
pub struct MutationScope {
    /// Union of the batches' dirty vertices, sorted, deduplicated.
    pub dirty: Vec<VertexId>,
    /// Whether any batch removed an edge.
    pub has_removals: bool,
    /// Whether any batch detached a vertex.
    pub has_detaches: bool,
    /// Ids of vertices added since the reference point, ascending.
    pub added_vertices: Vec<VertexId>,
}

impl MutationScope {
    /// A scope covering no mutations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one resolved batch into the scope.
    pub fn absorb<V, E>(&mut self, delta: &ResolvedMutation<V, E>) {
        let mut merged = Vec::with_capacity(self.dirty.len() + delta.dirty.len());
        let (mut a, mut b) = (self.dirty.iter().peekable(), delta.dirty.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    merged.push(x);
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push(y);
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push(x);
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.dirty = merged;
        self.has_removals |= delta.has_removals();
        self.has_detaches |= !delta.detached.is_empty();
        self.added_vertices
            .extend(delta.added_vertices.iter().map(|&(v, _)| v));
    }

    /// Resets the scope to cover no mutations (after a completed run).
    pub fn clear(&mut self) {
        self.dirty.clear();
        self.has_removals = false;
        self.has_detaches = false;
        self.added_vertices.clear();
    }

    /// Whether no mutation has been absorbed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
            && !self.has_removals
            && !self.has_detaches
            && self.added_vertices.is_empty()
    }
}

/// The ordered, versioned mutation log of one deployed graph.
///
/// The log owns a *shadow* of the graph's structure (vertex count and edge
/// endpoints) so each batch validates against the shape produced by every
/// batch before it — without touching the deployed state.  Appending is the
/// only way to mint a [`ResolvedMutation`], which keeps version assignment
/// and id resolution in one place.
#[derive(Debug)]
pub struct MutationLog<V, E> {
    resolved: Vec<Arc<ResolvedMutation<V, E>>>,
    num_vertices: usize,
    /// `(src, dst)` per live edge, in the current compacted id order.
    edge_endpoints: Vec<(VertexId, VertexId)>,
}

impl<V: Clone, E: Clone> MutationLog<V, E> {
    /// Starts a log over a graph with the given shape (version 0).
    pub fn new(
        num_vertices: usize,
        edge_endpoints: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Self {
        Self {
            resolved: Vec::new(),
            num_vertices,
            edge_endpoints: edge_endpoints.into_iter().collect(),
        }
    }

    /// The current graph version (number of applied batches).
    pub fn version(&self) -> u64 {
        self.resolved.len() as u64
    }

    /// Vertex count after every logged batch.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edge count after every logged batch.
    pub fn num_edges(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// The resolved batches in version order (batch `i` produced version
    /// `i + 1`).
    pub fn batches(&self) -> &[Arc<ResolvedMutation<V, E>>] {
        &self.resolved
    }

    /// Validates `batch` against the current shadow shape, resolves it,
    /// assigns the next version and appends it.
    ///
    /// # Errors
    /// A [`MutationError`] naming the first op that failed validation; the
    /// log is unchanged on error.
    pub fn append(
        &mut self,
        batch: &MutationBatch<V, E>,
    ) -> Result<Arc<ResolvedMutation<V, E>>, MutationError> {
        if batch.is_empty() {
            return Err(MutationError::EmptyBatch);
        }
        let prior_num_vertices = self.num_vertices;
        let prior_num_edges = self.edge_endpoints.len();
        let mut working_vertices = prior_num_vertices;
        let mut removed: Vec<EdgeId> = Vec::new();
        let mut added_edges: Vec<Edge<E>> = Vec::new();
        let mut added_vertices: Vec<(VertexId, V)> = Vec::new();
        let mut detached: Vec<(VertexId, V)> = Vec::new();
        let check_vertex = |v: VertexId, bound: usize| {
            if (v as usize) < bound {
                Ok(())
            } else {
                Err(MutationError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: bound,
                })
            }
        };
        for op in batch.ops() {
            match op {
                MutationOp::AddVertex { attr } => {
                    added_vertices.push((working_vertices as VertexId, attr.clone()));
                    working_vertices += 1;
                }
                MutationOp::AddEdge { src, dst, attr } => {
                    check_vertex(*src, working_vertices)?;
                    check_vertex(*dst, working_vertices)?;
                    added_edges.push(Edge::new(*src, *dst, attr.clone()));
                }
                MutationOp::RemoveEdge { edge } => {
                    if *edge >= prior_num_edges {
                        return Err(MutationError::EdgeOutOfRange {
                            edge: *edge,
                            num_edges: prior_num_edges,
                        });
                    }
                    if removed.contains(edge) {
                        return Err(MutationError::EdgeAlreadyRemoved { edge: *edge });
                    }
                    removed.push(*edge);
                }
                MutationOp::DetachVertex { vertex, attr } => {
                    check_vertex(*vertex, working_vertices)?;
                    detached.push((*vertex, attr.clone()));
                }
            }
        }
        // Detach soundness: once the batch's removals apply, nothing —
        // surviving or batch-added — may touch a detached vertex.
        if !detached.is_empty() {
            for &(vertex, _) in &detached {
                let surviving = self
                    .edge_endpoints
                    .iter()
                    .enumerate()
                    .filter(|(id, _)| !removed.contains(id))
                    .any(|(_, &(src, dst))| src == vertex || dst == vertex);
                let added = added_edges
                    .iter()
                    .any(|edge| edge.src == vertex || edge.dst == vertex);
                if surviving || added {
                    return Err(MutationError::DetachedVertexHasEdges { vertex });
                }
            }
        }
        removed.sort_unstable();
        let removed_edges: Vec<(EdgeId, VertexId, VertexId)> = removed
            .iter()
            .map(|&id| {
                let (src, dst) = self.edge_endpoints[id];
                (id, src, dst)
            })
            .collect();
        let mut dirty: Vec<VertexId> = removed_edges
            .iter()
            .flat_map(|&(_, src, dst)| [src, dst])
            .chain(added_edges.iter().flat_map(|edge| [edge.src, edge.dst]))
            .chain(added_vertices.iter().map(|&(v, _)| v))
            .chain(detached.iter().map(|&(v, _)| v))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        let delta = Arc::new(ResolvedMutation {
            version: self.version() + 1,
            prior_num_vertices,
            prior_num_edges,
            removed_edges,
            added_edges,
            added_vertices,
            detached,
            dirty,
        });
        // Roll the shadow shape forward: compact removals (retain keeps
        // relative order, matching the documented id renumbering), append
        // the additions.
        if !delta.removed_edges.is_empty() {
            let mut cut = delta.removed_edges.iter().map(|&(id, _, _)| id).peekable();
            let mut id = 0usize;
            self.edge_endpoints.retain(|_| {
                let keep = cut.peek() != Some(&id);
                if !keep {
                    cut.next();
                }
                id += 1;
                keep
            });
        }
        self.edge_endpoints
            .extend(delta.added_edges.iter().map(|edge| (edge.src, edge.dst)));
        self.num_vertices = working_vertices;
        self.resolved.push(Arc::clone(&delta));
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_log() -> MutationLog<f64, f64> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        MutationLog::new(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn append_assigns_versions_and_resolves_ids() {
        let mut log = diamond_log();
        let batch = MutationBatch::new()
            .add_vertex(0.5)
            .add_edge(3, 4, 1.0)
            .remove_edge(1);
        let delta = log.append(&batch).unwrap();
        assert_eq!(delta.version, 1);
        assert_eq!(delta.prior_num_vertices, 4);
        assert_eq!(delta.prior_num_edges, 4);
        assert_eq!(delta.added_vertices, vec![(4, 0.5)]);
        assert_eq!(delta.removed_edges, vec![(1, 0, 2)]);
        assert_eq!(delta.num_vertices(), 5);
        assert_eq!(delta.num_edges(), 4);
        assert_eq!(delta.dirty_vertices(), &[0, 2, 3, 4]);
        assert_eq!(log.version(), 1);
        assert_eq!(log.num_vertices(), 5);
        assert_eq!(log.num_edges(), 4);
    }

    #[test]
    fn second_batch_validates_against_post_batch_shape() {
        let mut log = diamond_log();
        log.append(&MutationBatch::new().remove_edge(0).remove_edge(3))
            .unwrap();
        // Post-compaction the surviving edges are old 1 (0->2) and old 2
        // (1->3) at ids 0 and 1; removing old id 3 again must fail.
        assert_eq!(
            log.append(&MutationBatch::<f64, f64>::new().remove_edge(3)),
            Err(MutationError::EdgeOutOfRange {
                edge: 3,
                num_edges: 2
            })
        );
        let delta = log.append(&MutationBatch::new().remove_edge(1)).unwrap();
        assert_eq!(delta.removed_edges, vec![(1, 1, 3)]);
        assert_eq!(log.num_edges(), 1);
    }

    #[test]
    fn batch_added_vertices_are_valid_edge_endpoints() {
        let mut log = diamond_log();
        let batch = MutationBatch::new()
            .add_vertex(0.0)
            .add_vertex(0.0)
            .add_edge(4, 5, 2.0);
        let delta = log.append(&batch).unwrap();
        assert_eq!(delta.added_edges, vec![Edge::new(4, 5, 2.0)]);
        // An endpoint beyond the batch's own additions still fails.
        assert!(matches!(
            log.append(&MutationBatch::<f64, f64>::new().add_edge(0, 9, 1.0)),
            Err(MutationError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn detach_requires_no_incident_edges() {
        let mut log = diamond_log();
        assert_eq!(
            log.append(&MutationBatch::new().detach_vertex(3, 0.0)),
            Err(MutationError::DetachedVertexHasEdges { vertex: 3 })
        );
        // Removing both incident edges first makes the detach legal.
        let batch = MutationBatch::new()
            .remove_edge(2)
            .remove_edge(3)
            .detach_vertex(3, 7.0);
        let delta = log.append(&batch).unwrap();
        assert_eq!(delta.detached, vec![(3, 7.0)]);
        // A batch-added edge touching the vertex blocks the detach again.
        assert_eq!(
            log.append(
                &MutationBatch::new()
                    .add_edge(0, 3, 1.0)
                    .detach_vertex(3, 0.0)
            ),
            Err(MutationError::DetachedVertexHasEdges { vertex: 3 })
        );
    }

    #[test]
    fn empty_and_double_remove_batches_are_rejected() {
        let mut log = diamond_log();
        assert_eq!(
            log.append(&MutationBatch::<f64, f64>::new()),
            Err(MutationError::EmptyBatch)
        );
        assert_eq!(
            log.append(
                &MutationBatch::<f64, f64>::new()
                    .remove_edge(2)
                    .remove_edge(2)
            ),
            Err(MutationError::EdgeAlreadyRemoved { edge: 2 })
        );
        assert_eq!(log.version(), 0);
    }

    #[test]
    fn scope_accumulates_across_batches() {
        let mut log = diamond_log();
        let mut scope = MutationScope::new();
        let first = log
            .append(&MutationBatch::new().add_edge(3, 0, 1.0))
            .unwrap();
        scope.absorb(&first);
        assert_eq!(scope.dirty, vec![0, 3]);
        assert!(!scope.has_removals);
        let second = log
            .append(&MutationBatch::new().add_vertex(0.0).remove_edge(0))
            .unwrap();
        scope.absorb(&second);
        assert_eq!(scope.dirty, vec![0, 1, 3, 4]);
        assert!(scope.has_removals);
        assert_eq!(scope.added_vertices, vec![4]);
        scope.clear();
        assert!(scope.is_empty());
    }
}
