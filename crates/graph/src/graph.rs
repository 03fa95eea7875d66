//! The in-memory property graph used by upper systems and the middleware.

use crate::csr::Csr;
use crate::edge_list::EdgeList;
use crate::mutate::ResolvedMutation;
use crate::tables::remove_positions;
use crate::types::{Edge, EdgeId, Result, Triplet, VertexId};

/// A directed property graph with per-vertex and per-edge attributes.
///
/// This is the representation an *upper system* (BSP or GAS engine) holds for
/// a whole graph or for one partition of it.  It offers both vertex-centric
/// access (via the out/in CSR indices) and edge-centric access (via the edge
/// table), mirroring the paper's observation (§II-B) that the middleware must
/// serve upper systems with either storage strategy.
#[derive(Debug, Clone)]
pub struct PropertyGraph<V, E> {
    vertex_attrs: Vec<V>,
    edges: Vec<Edge<E>>,
    out_csr: Csr,
    in_csr: Csr,
}

impl<V, E> PropertyGraph<V, E>
where
    V: Clone,
    E: Clone,
{
    /// Builds a graph from an edge list, assigning every vertex the same
    /// initial attribute.
    pub fn from_edge_list(edge_list: EdgeList<E>, default_vertex_attr: V) -> Result<Self> {
        Self::from_edge_list_with(edge_list, |_| default_vertex_attr.clone())
    }

    /// Builds a graph with per-vertex attributes computed from the vertex id.
    pub fn from_edge_list_with(
        edge_list: EdgeList<E>,
        mut vertex_attr: impl FnMut(VertexId) -> V,
    ) -> Result<Self> {
        edge_list.validate()?;
        let (num_vertices, edges) = edge_list.into_parts();
        let pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|e| (e.src, e.dst)).collect();
        let out_csr = Csr::from_edges(num_vertices, pairs.iter().copied());
        let in_csr = Csr::reversed_from_edges(num_vertices, pairs.iter().copied());
        let vertex_attrs = (0..num_vertices as VertexId)
            .map(&mut vertex_attr)
            .collect();
        Ok(Self {
            vertex_attrs,
            edges,
            out_csr,
            in_csr,
        })
    }
}

impl<V, E> PropertyGraph<V, E> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_attrs.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_attrs.is_empty()
    }

    /// Attribute of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn vertex_attr(&self, v: VertexId) -> &V {
        &self.vertex_attrs[v as usize]
    }

    /// All vertex attributes, indexed by vertex id.
    pub fn vertex_attrs(&self) -> &[V] {
        &self.vertex_attrs
    }

    /// Replaces all vertex attributes.
    ///
    /// # Panics
    /// Panics if the slice length differs from the vertex count.
    pub fn set_vertex_attrs(&mut self, attrs: Vec<V>) {
        assert_eq!(
            attrs.len(),
            self.vertex_attrs.len(),
            "attribute vector length must equal vertex count"
        );
        self.vertex_attrs = attrs;
    }

    /// The edge table, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge<E>] {
        &self.edges
    }

    /// Edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge<E> {
        &self.edges[id]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_csr.degree(v)
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_csr.degree(v)
    }

    /// Out-neighbour CSR index.
    pub fn out_csr(&self) -> &Csr {
        &self.out_csr
    }

    /// In-neighbour CSR index.
    pub fn in_csr(&self) -> &Csr {
        &self.in_csr
    }

    /// Iterates `(neighbor, edge_id)` over `v`'s out-edges.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.out_csr.adjacency(v)
    }

    /// Iterates `(in_neighbor, edge_id)` over `v`'s in-edges.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.in_csr.adjacency(v)
    }

    /// Iterates over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }
}

impl<V: Clone, E: Clone> PropertyGraph<V, E> {
    /// Materialises the edge triplet for edge `id` by joining the edge and
    /// vertex tables — the basic processing unit of a middleware iteration.
    pub fn triplet(&self, id: EdgeId) -> Triplet<V, E> {
        let edge = &self.edges[id];
        Triplet::new(
            edge.src,
            edge.dst,
            self.vertex_attrs[edge.src as usize].clone(),
            self.vertex_attrs[edge.dst as usize].clone(),
            edge.attr.clone(),
        )
    }

    /// Iterates over all edge triplets in edge-table order.
    pub fn triplets(&self) -> impl Iterator<Item = Triplet<V, E>> + '_ {
        (0..self.edges.len()).map(|id| self.triplet(id))
    }

    /// Materialises triplets for a subset of edges (e.g. one edge block).
    pub fn triplets_for(&self, edge_ids: &[EdgeId]) -> Vec<Triplet<V, E>> {
        edge_ids.iter().map(|&id| self.triplet(id)).collect()
    }

    /// Applies one resolved mutation batch in place: removed edges compact
    /// out of the edge table (survivors keep their relative order), added
    /// edges append at the end, the vertex range grows and detached vertices
    /// take their reset attribute.  Both CSR indices are rebuilt, so the
    /// result is structurally identical to a graph built from scratch from
    /// the mutated edge list.
    ///
    /// # Panics
    /// Panics if `delta` was resolved against a different shape than this
    /// graph currently has (batches must apply in log order, exactly once).
    pub fn apply_mutations(&mut self, delta: &ResolvedMutation<V, E>) {
        assert_eq!(
            delta.prior_num_vertices,
            self.num_vertices(),
            "mutation batch resolved against a different vertex count"
        );
        assert_eq!(
            delta.prior_num_edges,
            self.num_edges(),
            "mutation batch resolved against a different edge count"
        );
        let removed: Vec<EdgeId> = delta.removed_edges.iter().map(|(id, _, _)| id).collect();
        remove_positions(&mut self.edges, &removed);
        self.edges.extend(delta.added_edges.iter().cloned());
        self.vertex_attrs
            .extend(delta.added_vertices.iter().map(|(_, attr)| attr.clone()));
        for (vertex, attr) in &delta.detached {
            self.vertex_attrs[*vertex as usize] = attr.clone();
        }
        let pairs: Vec<(VertexId, VertexId)> = self.edges.iter().map(|e| (e.src, e.dst)).collect();
        self.out_csr = Csr::from_edges(self.vertex_attrs.len(), pairs.iter().copied());
        self.in_csr = Csr::reversed_from_edges(self.vertex_attrs.len(), pairs.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> PropertyGraph<f64, f64> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let list: EdgeList<f64> = [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)]
            .into_iter()
            .collect();
        PropertyGraph::from_edge_list_with(list, |v| v as f64 * 10.0).unwrap()
    }

    #[test]
    fn construction_preserves_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn degrees_are_consistent() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        let total_out: usize = g.vertex_ids().map(|v| g.out_degree(v)).sum();
        let total_in: usize = g.vertex_ids().map(|v| g.in_degree(v)).sum();
        assert_eq!(total_out, g.num_edges());
        assert_eq!(total_in, g.num_edges());
    }

    #[test]
    fn vertex_attributes_initialised_from_closure() {
        let g = diamond();
        assert_eq!(*g.vertex_attr(0), 0.0);
        assert_eq!(*g.vertex_attr(3), 30.0);
    }

    #[test]
    fn vertex_attribute_mutation() {
        let mut g = diamond();
        g.set_vertex_attrs(vec![0.0, 99.0, 20.0, 30.0]);
        assert_eq!(*g.vertex_attr(1), 99.0);
    }

    #[test]
    fn triplets_join_edge_and_vertex_tables() {
        let g = diamond();
        let t = g.triplet(2); // edge 1 -> 3 with attr 3.0
        assert_eq!(t.src, 1);
        assert_eq!(t.dst, 3);
        assert_eq!(t.src_attr, 10.0);
        assert_eq!(t.dst_attr, 30.0);
        assert_eq!(t.edge_attr, 3.0);
        assert_eq!(g.triplets().count(), 4);
        let subset = g.triplets_for(&[0, 3]);
        assert_eq!(subset.len(), 2);
        assert_eq!(subset[1].edge_attr, 4.0);
    }

    #[test]
    fn apply_mutations_matches_from_scratch_build() {
        use crate::mutate::{MutationBatch, MutationLog};
        let mut g = diamond();
        let mut log = MutationLog::new(g.num_vertices(), g.edges().iter().map(|e| (e.src, e.dst)));
        let batch = MutationBatch::new()
            .add_vertex(40.0)
            .remove_edge(1)
            .add_edge(3, 4, 5.0)
            .add_edge(4, 0, 6.0);
        let delta = log.append(&batch).unwrap();
        g.apply_mutations(&delta);
        // Reference: the mutated edge list built from scratch.
        let list: EdgeList<f64> = [
            (0, 1, 1.0),
            (1, 3, 3.0),
            (2, 3, 4.0),
            (3, 4, 5.0),
            (4, 0, 6.0),
        ]
        .into_iter()
        .collect();
        let reference = PropertyGraph::from_edge_list_with(list, |v| v as f64 * 10.0).unwrap();
        assert_eq!(g.num_vertices(), reference.num_vertices());
        assert_eq!(g.edges(), reference.edges());
        assert_eq!(g.out_csr(), reference.out_csr());
        assert_eq!(g.in_csr(), reference.in_csr());
        assert_eq!(*g.vertex_attr(4), 40.0);
    }
}
