//! Erdős–Rényi style uniform random graph generator.
//!
//! This generates the analogue of the paper's synthetic "Syn4m" dataset used
//! in the synchronization caching/skipping experiments (Fig. 11), where the
//! uniform structure makes skipping ineffective compared to clustered real
//! graphs.

use super::{rng_for, Generator};
use crate::edge_list::EdgeList;
use crate::types::VertexId;
use rand::Rng;

/// Uniform random multigraph with a fixed number of vertices and edges
/// (the `G(n, m)` model, sampling endpoints independently and uniformly),
/// with edge weights uniform in `[1.0, 10.0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErdosRenyi {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
}

impl ErdosRenyi {
    /// Creates a generator for `num_vertices` vertices and `num_edges` edges.
    pub fn new(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            num_edges,
        }
    }
}

impl Generator for ErdosRenyi {
    fn generate(&self, seed: u64) -> EdgeList<f64> {
        let mut rng = rng_for(seed);
        let mut list = EdgeList::with_capacity(self.num_vertices, self.num_edges);
        if self.num_vertices > 0 {
            list.ensure_vertex((self.num_vertices - 1) as VertexId);
        }
        if self.num_vertices < 2 {
            return list;
        }
        let n = self.num_vertices as VertexId;
        for _ in 0..self.num_edges {
            let src = rng.gen_range(0..n);
            // Avoid self loops by re-drawing the destination.
            let mut dst = rng.gen_range(0..n);
            while dst == src {
                dst = rng.gen_range(0..n);
            }
            let weight = rng.gen_range(1.0..=10.0);
            list.push(src, dst, weight);
        }
        list
    }

    fn name(&self) -> &'static str {
        "erdos-renyi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::degree_stats;

    #[test]
    fn produces_requested_sizes_without_self_loops() {
        let gen = ErdosRenyi::new(500, 2500);
        let list = gen.generate(11);
        assert_eq!(list.num_vertices(), 500);
        assert_eq!(list.num_edges(), 2500);
        assert!(list.edges().iter().all(|e| !e.is_self_loop()));
    }

    #[test]
    fn degree_distribution_is_flat() {
        let gen = ErdosRenyi::new(2000, 20000);
        let list = gen.generate(5);
        let stats = degree_stats(&list);
        // Uniform graph: the top 1% of vertices should hold close to 1% of
        // the edges (well under the power-law threshold used for R-MAT).
        assert!(
            stats.top1pct_edge_share < 0.08,
            "expected flat degree distribution, got share {}",
            stats.top1pct_edge_share
        );
    }

    #[test]
    fn degenerate_sizes_are_handled() {
        let empty = ErdosRenyi::new(0, 10).generate(1);
        assert_eq!(empty.num_edges(), 0);
        let single = ErdosRenyi::new(1, 10).generate(1);
        assert_eq!(single.num_edges(), 0);
        assert_eq!(single.num_vertices(), 1);
    }
}
