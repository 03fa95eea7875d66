//! Compressed sparse row (CSR) adjacency structure.
//!
//! CSR is the storage layout the accelerator substrate consumes: each vertex's
//! out-edges are contiguous, so building an edge block for a vertex is a slice
//! operation, and degree queries are O(1).  The same structure, built on the
//! reversed edge set, provides in-neighbour access for pull-style kernels.

use crate::tables::insert_at_positions;
use crate::types::{EdgeId, VertexId};
use std::ops::AddAssign;

/// CSR adjacency index over an externally stored edge table.
///
/// `Csr` does not own edge attributes; it maps each vertex to the *edge ids*
/// (indices into the graph's edge table) of its outgoing edges, together with
/// the neighbour id for convenience.  This mirrors the paper's *vertex-edge
/// mapping table* (§II-B): "to construct an edge block, an agent selects a
/// vertex and retrieves its outer edges, with vertex-edge mapping table".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` is the range of `v`'s entries in
    /// `neighbors` / `edge_ids`.
    offsets: Vec<usize>,
    /// Neighbour vertex ids, grouped by source vertex.
    neighbors: Vec<VertexId>,
    /// Edge-table indices, aligned with `neighbors`.
    edge_ids: Vec<EdgeId>,
}

/// An index over no vertices and no edges.
impl Default for Csr {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            neighbors: Vec::new(),
            edge_ids: Vec::new(),
        }
    }
}

impl Csr {
    /// Builds a CSR index from `(src, dst)` pairs of an edge table.
    ///
    /// `edges` yields `(source, destination)` in edge-table order; the edge id
    /// recorded for the `i`-th yielded pair is `i`.
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
        I::IntoIter: Clone,
    {
        let iter = edges.into_iter();
        // Counting pass.
        let mut counts = vec![0usize; num_vertices + 1];
        let mut num_edges = 0usize;
        for (src, _) in iter.clone() {
            counts[src as usize + 1] += 1;
            num_edges += 1;
        }
        // Prefix sum -> offsets.
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        // Fill pass.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; num_edges];
        let mut edge_ids = vec![0 as EdgeId; num_edges];
        for (edge_id, (src, dst)) in iter.enumerate() {
            let slot = cursor[src as usize];
            neighbors[slot] = dst;
            edge_ids[slot] = edge_id;
            cursor[src as usize] += 1;
        }
        Self {
            offsets,
            neighbors,
            edge_ids,
        }
    }

    /// Indexes the edges that follow the indexed ones in the edge table:
    /// `added` yields their `(source, destination)` pairs in edge-table
    /// order, so the `i`-th gets edge id `num_edges() + i`.  The index first
    /// grows to `num_vertices` vertices (new ones with no edges yet).
    ///
    /// An empty index is built by [`Csr::from_edges`].  Otherwise the added
    /// edges are sorted by source and each goes to the tail of its source's
    /// run; its id is larger than every indexed one, so each run stays
    /// ascending and the result equals [`Csr::from_edges`] over the whole
    /// edge table.  The entries above the lowest touched source move up once
    /// ([`insert_at_positions`]) and the offsets above it follow
    /// ([`shift_run_starts`]): O(added·log added + `num_vertices` + moved
    /// entries), no rebuild.
    ///
    /// # Panics
    /// Panics if `num_vertices` is below [`Csr::num_vertices`], or if a
    /// source is not below `num_vertices`.
    pub fn append_edges<I>(&mut self, num_vertices: usize, added: I)
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
        I::IntoIter: Clone,
    {
        assert!(
            num_vertices >= self.num_vertices(),
            "a CSR index never drops vertices"
        );
        let indexed = self.num_edges();
        if indexed == 0 {
            *self = Self::from_edges(num_vertices, added);
            return;
        }
        self.offsets.resize(num_vertices + 1, indexed);
        let mut sorted: Vec<(VertexId, EdgeId, VertexId)> = (added.into_iter().enumerate())
            .map(|(i, (src, dst))| (src, indexed + i, dst))
            .collect();
        sorted.sort_unstable();
        let Self {
            offsets,
            neighbors,
            edge_ids,
        } = self;
        let tail = |src: VertexId| offsets[src as usize + 1];
        insert_at_positions(
            neighbors,
            sorted.iter().map(|&(src, _, dst)| (tail(src), dst)),
        );
        insert_at_positions(edge_ids, sorted.iter().map(|&(src, id, _)| (tail(src), id)));
        shift_run_starts(offsets, sorted.iter().map(|&(src, _, _)| src as usize));
    }

    /// Builds the *reverse* CSR (in-neighbours) from the same edge table.
    pub fn reversed_from_edges<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
        I::IntoIter: Clone,
    {
        let reversed: Vec<(VertexId, VertexId)> =
            edges.into_iter().map(|(src, dst)| (dst, src)).collect();
        Self::from_edges(num_vertices, reversed.iter().copied())
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges indexed.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbour ids of `v`, in edge-table order.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Edge-table indices of `v`'s outgoing edges, aligned with
    /// [`Csr::neighbors`].
    pub fn edge_ids(&self, v: VertexId) -> &[EdgeId] {
        let v = v as usize;
        &self.edge_ids[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterates `(neighbor, edge_id)` pairs for `v`.
    pub fn adjacency(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_ids(v).iter().copied())
    }

    /// Average out-degree (0.0 for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

/// Moves the run boundaries of a flat array past the entries just inserted
/// into it: run `r` spans `offsets[r]..offsets[r + 1]`, and `runs` names the
/// run of every inserted entry, ascending.  Each run's start moves up by the
/// entries inserted into the runs below it; the runs up to the lowest named
/// one keep their start.  O(offsets above the lowest named run).
///
/// # Panics
/// Panics if a shifted offset does not fit `O`.
pub fn shift_run_starts<O>(offsets: &mut [O], runs: impl IntoIterator<Item = usize>)
where
    O: AddAssign + TryFrom<usize>,
{
    let mut runs = runs.into_iter().peekable();
    let Some(&lowest) = runs.peek() else {
        return;
    };
    let mut below = 0;
    for (run, start) in offsets.iter_mut().enumerate().skip(lowest + 1) {
        while runs.next_if(|&r| r < run).is_some() {
            below += 1;
        }
        *start += O::try_from(below)
            .ok()
            .expect("a run offset overflows its type");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Csr {
        // Edges: 0->1, 0->2, 1->2, 2->0, 2->3
        Csr::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn degrees_match_edge_counts() {
        let csr = triangle_plus_tail();
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(2), 2);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.num_vertices(), 4);
    }

    #[test]
    fn neighbors_and_edge_ids_align() {
        let csr = triangle_plus_tail();
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.edge_ids(0), &[0, 1]);
        assert_eq!(csr.neighbors(2), &[0, 3]);
        assert_eq!(csr.edge_ids(2), &[3, 4]);
        let adj: Vec<_> = csr.adjacency(2).collect();
        assert_eq!(adj, vec![(0, 3), (2 + 1, 4)]);
    }

    #[test]
    fn reverse_csr_indexes_in_neighbors() {
        let rev = Csr::reversed_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)]);
        // In-neighbours of 2 are 0 (edge 1) and 1 (edge 2).
        assert_eq!(rev.neighbors(2), &[0, 1]);
        assert_eq!(rev.edge_ids(2), &[1, 2]);
        assert_eq!(rev.degree(3), 1);
    }

    #[test]
    fn appending_in_batches_equals_indexing_at_once() {
        let mut state = 7u64;
        let mut below = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % bound as u64) as VertexId
        };
        let mut edges = Vec::new();
        let mut csr = Csr::default();
        // The first batch builds the index, the rest insert at run tails.
        for (batch, size) in [40, 1, 3, 2, 90, 1, 5, 0, 4, 200, 2]
            .into_iter()
            .enumerate()
        {
            let vertices = 30 + 10 * batch;
            let added: Vec<_> = (0..size)
                .map(|_| (below(vertices), below(vertices)))
                .collect();
            csr.append_edges(vertices, added.iter().copied());
            edges.extend(added);
            assert_eq!(
                csr,
                Csr::from_edges(vertices, edges.iter().copied()),
                "batch {batch}"
            );
            for v in 0..vertices as VertexId {
                let (ids, neighbors): (Vec<EdgeId>, Vec<VertexId>) = (edges.iter().enumerate())
                    .filter(|(_, &(src, _))| src == v)
                    .map(|(id, &(_, dst))| (id, dst))
                    .unzip();
                assert_eq!(
                    (csr.edge_ids(v), csr.neighbors(v)),
                    (&ids[..], &neighbors[..])
                );
            }
        }
        assert_eq!(csr.num_edges(), 348);
    }

    #[test]
    fn degree_statistics() {
        let csr = triangle_plus_tail();
        assert!((csr.mean_degree() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let csr = Csr::from_edges(0, std::iter::empty());
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.mean_degree(), 0.0);
    }
}
