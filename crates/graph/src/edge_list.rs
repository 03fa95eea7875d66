//! Edge-list representation used as the construction format for graphs.
//!
//! Upper systems in the paper (GraphX, PowerGraph) ingest edge lists and then
//! partition them across distributed nodes.  The [`EdgeList`] type is the
//! mutable builder stage; it is converted into a [`crate::PropertyGraph`] once
//! loading / generation is finished.

use crate::types::{Edge, GraphError, Result, VertexId};

/// A growable list of directed edges plus the number of vertices it spans.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList<E> {
    num_vertices: usize,
    edges: Vec<Edge<E>>,
}

impl<E> Default for EdgeList<E> {
    fn default() -> Self {
        Self {
            num_vertices: 0,
            edges: Vec::new(),
        }
    }
}

impl<E> EdgeList<E> {
    /// Creates an empty edge list with a pre-declared vertex count.
    pub fn with_vertices(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates an empty edge list with reserved capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Number of vertices spanned by this edge list.
    ///
    /// This is at least `max(vertex id) + 1` over all inserted edges but can be
    /// larger if isolated vertices were declared up front.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Ensures the vertex range covers `id`.
    pub fn ensure_vertex(&mut self, id: VertexId) {
        let needed = id as usize + 1;
        if needed > self.num_vertices {
            self.num_vertices = needed;
        }
    }

    /// Adds a directed edge, growing the vertex range as needed.
    pub fn push(&mut self, src: VertexId, dst: VertexId, attr: E) {
        self.ensure_vertex(src);
        self.ensure_vertex(dst);
        self.edges.push(Edge::new(src, dst, attr));
    }

    /// Read-only view of the edges.
    pub fn edges(&self) -> &[Edge<E>] {
        &self.edges
    }

    /// Consumes the list and returns its parts.
    pub fn into_parts(self) -> (usize, Vec<Edge<E>>) {
        (self.num_vertices, self.edges)
    }

    /// Validates that every edge endpoint is inside the declared vertex range.
    pub fn validate(&self) -> Result<()> {
        for edge in &self.edges {
            for v in [edge.src, edge.dst] {
                if v as usize >= self.num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v,
                        num_vertices: self.num_vertices,
                    });
                }
            }
        }
        Ok(())
    }
}

impl<E: Clone> EdgeList<E> {
    /// Appends, for every edge `(u, v)`, the reverse edge `(v, u)` with the
    /// same attribute, turning a directed list into a symmetric one.
    ///
    /// Social-network datasets in the paper (Orkut, LiveJournal) are
    /// undirected; they are represented here as symmetric directed graphs.
    pub fn symmetrize(&mut self) {
        let reversed: Vec<Edge<E>> = self
            .edges
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| e.clone().reversed())
            .collect();
        self.edges.extend(reversed);
    }
}

impl<E> FromIterator<(VertexId, VertexId, E)> for EdgeList<E> {
    fn from_iter<T: IntoIterator<Item = (VertexId, VertexId, E)>>(iter: T) -> Self {
        let mut list = EdgeList::default();
        for (src, dst, attr) in iter {
            list.push(src, dst, attr);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList<f64> {
        [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (2, 2, 9.0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn push_grows_vertex_range() {
        let mut list = EdgeList::default();
        list.push(5, 9, ());
        assert_eq!(list.num_vertices(), 10);
        assert_eq!(list.num_edges(), 1);
    }

    #[test]
    fn with_vertices_allows_isolated_vertices() {
        let list: EdgeList<()> = EdgeList::with_vertices(42);
        assert_eq!(list.num_vertices(), 42);
        assert!(list.is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_lists() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn symmetrize_adds_reverse_edges_except_self_loops() {
        let mut list = sample();
        list.symmetrize();
        // 4 original edges + 3 reversed (self loop excluded).
        assert_eq!(list.num_edges(), 7);
        assert!(list
            .edges()
            .iter()
            .any(|e| e.src == 1 && e.dst == 0 && e.attr == 1.0));
    }
}
