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
///
/// Every row carries a **version**, a change counter read through
/// [`VertexTable::version_at`]: each attribute write bumps it, so a reader
/// that remembers a row's version knows whether the row was written since
/// without looking at (or keeping a copy of) the value — how the
/// middleware's synchronization cache tells a changed vertex from an
/// unchanged one.  Attributes are written only through the table's methods
/// ([`upsert`](VertexTable::upsert), [`update`](VertexTable::update),
/// [`update_at`](VertexTable::update_at),
/// [`apply_at`](VertexTable::apply_at)), so no write skips its bump.
/// Versions wrap on overflow and never reset; only their changes carry
/// meaning.
#[derive(Debug, Clone, Default)]
pub struct VertexTable<V> {
    rows: Vec<VertexRow<V>>,
    /// One change counter per row, indexed by local id.
    versions: Vec<u32>,
    index: LocalIdMap,
}

impl<V> VertexTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            versions: Vec::new(),
            index: LocalIdMap::new(),
        }
    }

    /// Creates an empty table with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            rows: Vec::with_capacity(capacity),
            versions: Vec::with_capacity(capacity),
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

    /// Reserves room for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
        self.versions.reserve(additional);
        self.index.reserve(additional);
    }

    /// Inserts or replaces a vertex row; returns `true` if the vertex was new.
    /// A replaced row's version is bumped.
    pub fn upsert(&mut self, id: VertexId, attr: V, is_master: bool) -> bool {
        match self.index.local(id) {
            Some(local) => {
                self.rows[local as usize].is_master = is_master;
                self.update_at(local, attr);
                false
            }
            None => {
                self.index.insert(id);
                self.rows.push(VertexRow {
                    id,
                    attr,
                    is_master,
                });
                self.versions.push(0);
                true
            }
        }
    }

    /// Drops every row `keep` rejects.  The survivors keep their relative
    /// order, their versions, and take the dense local ids `0..len` again, so
    /// every local id held outside the table is invalidated.
    pub fn retain(&mut self, mut keep: impl FnMut(&VertexRow<V>) -> bool) {
        let mut kept = 0;
        for position in 0..self.rows.len() {
            if keep(&self.rows[position]) {
                self.rows.swap(kept, position);
                self.versions[kept] = self.versions[position];
                kept += 1;
            }
        }
        self.rows.truncate(kept);
        self.versions.truncate(kept);
        self.index = LocalIdMap::with_capacity(self.rows.len());
        for row in &self.rows {
            self.index.insert(row.id);
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

    /// The version of the row at dense local id `local`: it moves with every
    /// write of the row's attribute.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn version_at(&self, local: u32) -> u32 {
        self.versions[local as usize]
    }

    /// Returns the row for `id`, if present.
    #[inline]
    pub fn get(&self, id: VertexId) -> Option<&VertexRow<V>> {
        self.index.local(id).map(|local| &self.rows[local as usize])
    }

    /// Returns `true` if the vertex is stored locally.
    pub fn contains(&self, id: VertexId) -> bool {
        self.index.local(id).is_some()
    }

    /// Updates the attribute of `id` and bumps its version.  Returns `false`
    /// if the vertex is not present locally.
    pub fn update(&mut self, id: VertexId, attr: V) -> bool {
        match self.index.local(id) {
            Some(local) => {
                self.update_at(local, attr);
                true
            }
            None => false,
        }
    }

    /// Replaces the attribute at dense local id `local` and bumps its
    /// version.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn update_at(&mut self, local: u32, attr: V) {
        self.rows[local as usize].attr = attr;
        self.bump(local);
    }

    /// Lets `write` change the attribute at dense local id `local` in place.
    /// `write` returns whether it changed the value; the version is bumped
    /// exactly then, and that answer is returned.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn apply_at(&mut self, local: u32, write: impl FnOnce(&mut V) -> bool) -> bool {
        let changed = write(&mut self.rows[local as usize].attr);
        if changed {
            self.bump(local);
        }
        changed
    }

    #[inline]
    fn bump(&mut self, local: u32) {
        let version = &mut self.versions[local as usize];
        *version = version.wrapping_add(1);
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &VertexRow<V>> {
        self.rows.iter()
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

    /// Moves `edges` in at the end, in order (an empty table takes their
    /// allocation over).
    pub fn append(&mut self, mut edges: Vec<Edge<E>>) {
        if self.edges.is_empty() {
            self.edges = edges;
        } else {
            self.edges.append(&mut edges);
        }
    }

    /// Removes the edges at the given local positions (ascending), shifting
    /// the survivors down so local ids stay dense and relative order is
    /// preserved — the local mirror of the global edge-id compaction a
    /// mutation batch performs ([`remove_positions`]).
    ///
    /// # Panics
    /// Panics if `positions` is not strictly ascending or names an index out
    /// of range.
    pub fn remove_positions(&mut self, positions: &[usize]) {
        remove_positions(&mut self.edges, positions);
    }

    /// Returns the edge with local id `id`.
    pub fn get(&self, id: EdgeId) -> Option<&Edge<E>> {
        self.edges.get(id)
    }

    /// All edges in local-id order.
    pub fn edges(&self) -> &[Edge<E>] {
        &self.edges
    }
}

/// Removes the items at `positions` (strictly ascending indices) in one
/// pass, shifting the survivors down in their relative order.
///
/// # Panics
/// Panics if `positions` is not strictly ascending or names an index out of
/// range.
pub fn remove_positions<T>(items: &mut Vec<T>, positions: &[usize]) {
    if positions.is_empty() {
        return;
    }
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "removal positions must be strictly ascending"
    );
    assert!(
        *positions.last().unwrap() < items.len(),
        "removal position out of range"
    );
    let mut cut = positions.iter().copied().peekable();
    let mut index = 0usize;
    items.retain(|_| {
        let keep = cut.peek() != Some(&index);
        if !keep {
            cut.next();
        }
        index += 1;
        keep
    });
}

/// Inserts `inserted` — `(position, item)` pairs, positions ascending —
/// into `items`: each item lands before the entry that was at its position
/// (`items.len()` appends), and items given one position keep their order.
/// One backward pass moves every old entry at most once, in blocks between
/// the positions: the counterpart of [`remove_positions`].
///
/// # Panics
/// Panics if the positions are not ascending or one is past the end.
pub fn insert_at_positions<T: Copy + Default>(
    items: &mut Vec<T>,
    inserted: impl DoubleEndedIterator<Item = (usize, T)> + ExactSizeIterator,
) {
    let mut unmoved = items.len();
    let mut shift = inserted.len();
    items.resize(unmoved + shift, T::default());
    for (position, item) in inserted.rev() {
        assert!(
            position <= unmoved,
            "insert positions must be ascending and in range"
        );
        if position < unmoved {
            items.copy_within(position..unmoved, position + shift);
        }
        shift -= 1;
        items[position + shift] = item;
        unmoved = position;
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
    fn inserting_at_positions_undoes_removing_them() {
        let mut items = vec![10, 20, 30];
        insert_at_positions(
            &mut items,
            [(0, 5), (2, 25), (2, 26), (3, 40), (3, 41)].into_iter(),
        );
        assert_eq!(items, [5, 10, 20, 25, 26, 30, 40, 41]);
        remove_positions(&mut items, &[0, 3, 4, 6, 7]);
        assert_eq!(items, [10, 20, 30]);
        insert_at_positions(&mut items, std::iter::empty());
        assert_eq!(items, [10, 20, 30]);
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
    fn vertex_table_update_writes_one_row() {
        let mut t = VertexTable::new();
        t.upsert(1, 0.0, true);
        t.upsert(2, 0.0, true);
        assert!(t.update(1, 5.0));
        assert!(!t.update(99, 5.0));
        assert_eq!(t.get(1).unwrap().attr, 5.0);
        assert_eq!(t.get(2).unwrap().attr, 0.0);
        assert_eq!(t.len(), 2);
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
    fn retained_rows_take_dense_local_ids_again() {
        let mut t = VertexTable::new();
        for (id, attr) in [(9, 1.0), (4, 2.0), (6, 3.0), (2, 4.0)] {
            t.upsert(id, attr, id == 4);
        }
        t.retain(|row| row.id != 4 && row.id != 2);
        assert_eq!(t.len(), 2);
        assert_eq!((t.local_of(9), t.local_of(6)), (Some(0), Some(1)));
        assert_eq!((t.local_of(4), t.local_of(2)), (None, None));
        assert_eq!(t.row_at(1).attr, 3.0);
        assert_eq!(t.global_of(1), 6);
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
        t.update_at(1, 7.0);
        assert_eq!(t.get(4).unwrap().attr, 7.0);
    }

    #[test]
    fn every_attribute_write_bumps_its_row_version_only() {
        let mut t = VertexTable::new();
        for id in [5, 8, 3] {
            t.upsert(id, 0.0, true);
        }
        let versions = |t: &VertexTable<f64>| [0, 1, 2].map(|local| t.version_at(local));
        assert_eq!(versions(&t), [0, 0, 0], "an inserted row starts at 0");
        t.upsert(8, 1.0, false);
        assert_eq!(versions(&t), [0, 1, 0]);
        assert!(t.update(3, 2.0));
        assert!(!t.update(99, 2.0));
        assert_eq!(versions(&t), [0, 1, 1]);
        t.update_at(0, 3.0);
        assert!(t.apply_at(1, |attr| {
            attr.clone_from(&4.0);
            true
        }));
        assert_eq!(versions(&t), [1, 2, 1]);
        assert!(
            !t.apply_at(2, |_| false),
            "an unchanged value keeps its version"
        );
        assert!(t.apply_at(2, |attr| {
            *attr += 1.0;
            true
        }));
        assert_eq!(versions(&t), [1, 2, 2]);
        assert_eq!(t.row_at(2).attr, 3.0);
        // Retained rows keep their versions at their new local ids.
        t.retain(|row| row.id != 5);
        assert_eq!((t.local_of(8), t.local_of(3)), (Some(0), Some(1)));
        assert_eq!((t.version_at(0), t.version_at(1)), (2, 2));
        assert_eq!((t.row_at(0).attr, t.row_at(1).attr), (4.0, 3.0));
    }
}
