//! Agent-side data management tables (§II-B of the paper).
//!
//! An agent manages the graph data of one distributed node with a *vertex
//! table* and an *edge table*.  These are deliberately simple, index-based
//! structures: the middleware's job is packaging and synchronising them, not
//! providing a full graph database.  The vertex table assigns each global id
//! a **dense local id** (its insertion index) through a
//! [`LocalIdMap`], so the superstep hot path can
//! address rows with plain array loads instead of hash probes; the paper's
//! vertex-edge mapping table is realised as a per-node CSR over those local
//! ids (see `gxplug-engine`'s `NodeState`).

use crate::dense::LocalIdMap;
use crate::types::{Edge, EdgeId, VertexId};

/// One row of the vertex table.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexRow<V> {
    /// Global vertex id.
    pub id: VertexId,
    /// Current attribute value.
    pub attr: V,
    /// Whether the attribute was updated since the last synchronisation.
    ///
    /// The synchronisation-caching optimisation (§III-B) only uploads vertices
    /// whose attribute actually changed.
    pub dirty: bool,
    /// Whether this node is the *master* (owning) replica of the vertex.
    pub is_master: bool,
}

/// The vertex table of a distributed node.
///
/// Rows are stored densely in insertion order and addressed through a
/// [`LocalIdMap`], because a partition only holds a subset of the global
/// vertex space.  A row's position *is* its dense local id, so hot-path
/// consumers can resolve `global → local` once and address rows by index
/// thereafter ([`VertexTable::row_at`]).
#[derive(Debug, Clone, Default)]
pub struct VertexTable<V> {
    rows: Vec<VertexRow<V>>,
    index: LocalIdMap,
}

impl<V> VertexTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            index: LocalIdMap::new(),
        }
    }

    /// Creates an empty table with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            rows: Vec::with_capacity(capacity),
            index: LocalIdMap::with_capacity(capacity),
        }
    }

    /// Number of vertices stored locally.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts or replaces a vertex row; returns `true` if the vertex was new.
    pub fn upsert(&mut self, id: VertexId, attr: V, is_master: bool) -> bool {
        match self.index.local(id) {
            Some(local) => {
                let row = &mut self.rows[local as usize];
                row.attr = attr;
                row.is_master = is_master;
                false
            }
            None => {
                self.index.insert(id);
                self.rows.push(VertexRow {
                    id,
                    attr,
                    dirty: false,
                    is_master,
                });
                true
            }
        }
    }

    /// The dense local id of `id`, if the vertex is stored locally.
    #[inline]
    pub fn local_of(&self, id: VertexId) -> Option<u32> {
        self.index.local(id)
    }

    /// The global id behind dense local id `local`.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn global_of(&self, local: u32) -> VertexId {
        self.index.global(local)
    }

    /// The row at dense local id `local`.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn row_at(&self, local: u32) -> &VertexRow<V> {
        &self.rows[local as usize]
    }

    /// Mutable access to the row at dense local id `local`.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn row_at_mut(&mut self, local: u32) -> &mut VertexRow<V> {
        &mut self.rows[local as usize]
    }

    /// Returns the row for `id`, if present.
    #[inline]
    pub fn get(&self, id: VertexId) -> Option<&VertexRow<V>> {
        self.index.local(id).map(|local| &self.rows[local as usize])
    }

    /// Returns a mutable row for `id`, if present.
    #[inline]
    pub fn get_mut(&mut self, id: VertexId) -> Option<&mut VertexRow<V>> {
        let local = self.index.local(id)?;
        Some(&mut self.rows[local as usize])
    }

    /// Returns `true` if the vertex is stored locally.
    pub fn contains(&self, id: VertexId) -> bool {
        self.index.local(id).is_some()
    }

    /// Updates the attribute of `id`, marking the row dirty.  Returns `false`
    /// if the vertex is not present locally.
    pub fn update(&mut self, id: VertexId, attr: V) -> bool {
        match self.get_mut(id) {
            Some(row) => {
                row.attr = attr;
                row.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &VertexRow<V>> {
        self.rows.iter()
    }

    /// Iterates over dirty rows (updated since the last synchronisation).
    pub fn dirty_rows(&self) -> impl Iterator<Item = &VertexRow<V>> {
        self.rows.iter().filter(|r| r.dirty)
    }

    /// Number of dirty rows.
    pub fn dirty_count(&self) -> usize {
        self.rows.iter().filter(|r| r.dirty).count()
    }

    /// Clears all dirty flags (after a successful synchronisation).
    pub fn clear_dirty(&mut self) {
        for row in &mut self.rows {
            row.dirty = false;
        }
    }

    /// Ids of all locally stored vertices.
    pub fn ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.rows.iter().map(|r| r.id)
    }
}

/// The edge table of a distributed node: the local subset of edges.
///
/// Edge ids here are *local* (indices into this table); the mapping back to
/// global edge ids, when needed, is kept by the partitioning.
#[derive(Debug, Clone, Default)]
pub struct EdgeTable<E> {
    edges: Vec<Edge<E>>,
}

impl<E> EdgeTable<E> {
    /// Creates an empty edge table.
    pub fn new() -> Self {
        Self { edges: Vec::new() }
    }

    /// Builds the table from local edges.
    pub fn from_edges(edges: Vec<Edge<E>>) -> Self {
        Self { edges }
    }

    /// Number of local edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends an edge, returning its local id.
    pub fn push(&mut self, edge: Edge<E>) -> EdgeId {
        self.edges.push(edge);
        self.edges.len() - 1
    }

    /// Removes the edges at the given local positions (ascending), shifting
    /// the survivors down so local ids stay dense and relative order is
    /// preserved — the local mirror of the global edge-id compaction a
    /// mutation batch performs.
    ///
    /// # Panics
    /// Panics if `positions` is not strictly ascending or names an index out
    /// of range.
    pub fn remove_positions(&mut self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "removal positions must be strictly ascending"
        );
        assert!(
            *positions.last().unwrap() < self.edges.len(),
            "removal position out of range"
        );
        let mut cut = positions.iter().copied().peekable();
        let mut id = 0usize;
        self.edges.retain(|_| {
            let keep = cut.peek() != Some(&id);
            if !keep {
                cut.next();
            }
            id += 1;
            keep
        });
    }

    /// Returns the edge with local id `id`.
    pub fn get(&self, id: EdgeId) -> Option<&Edge<E>> {
        self.edges.get(id)
    }

    /// All edges in local-id order.
    pub fn edges(&self) -> &[Edge<E>] {
        &self.edges
    }

    /// Mutable access to all edges.
    pub fn edges_mut(&mut self) -> &mut [Edge<E>] {
        &mut self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_table() -> EdgeTable<f64> {
        EdgeTable::from_edges(vec![
            Edge::new(0, 1, 1.0),
            Edge::new(0, 2, 2.0),
            Edge::new(2, 1, 3.0),
        ])
    }

    #[test]
    fn vertex_table_upsert_and_lookup() {
        let mut t = VertexTable::new();
        assert!(t.upsert(7, 1.5, true));
        assert!(!t.upsert(7, 2.5, false));
        assert_eq!(t.len(), 1);
        let row = t.get(7).unwrap();
        assert_eq!(row.attr, 2.5);
        assert!(!row.is_master);
        assert!(!t.contains(8));
    }

    #[test]
    fn vertex_table_dirty_tracking() {
        let mut t = VertexTable::new();
        t.upsert(1, 0.0, true);
        t.upsert(2, 0.0, true);
        assert_eq!(t.dirty_count(), 0);
        assert!(t.update(1, 5.0));
        assert!(!t.update(99, 5.0));
        assert_eq!(t.dirty_count(), 1);
        assert_eq!(t.dirty_rows().next().unwrap().id, 1);
        t.clear_dirty();
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn edge_table_push_and_get() {
        let mut t = edge_table();
        let id = t.push(Edge::new(1, 0, 9.0));
        assert_eq!(id, 3);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(3).unwrap().attr, 9.0);
        assert!(t.get(10).is_none());
    }

    #[test]
    fn vertex_table_assigns_dense_local_ids_in_insertion_order() {
        let mut t = VertexTable::new();
        t.upsert(9, 1.0, true);
        t.upsert(4, 2.0, false);
        t.upsert(9, 3.0, true);
        assert_eq!(t.local_of(9), Some(0));
        assert_eq!(t.local_of(4), Some(1));
        assert_eq!(t.local_of(5), None);
        assert_eq!(t.global_of(0), 9);
        assert_eq!(t.global_of(1), 4);
        assert_eq!(t.row_at(0).attr, 3.0);
        t.row_at_mut(1).attr = 7.0;
        assert_eq!(t.get(4).unwrap().attr, 7.0);
    }
}
