//! R-MAT (recursive matrix) generator for power-law graphs.
//!
//! R-MAT recursively subdivides the adjacency matrix into four quadrants with
//! probabilities `(a, b, c, d)`; skewed probabilities yield power-law degree
//! distributions like those of the social and web graphs in the paper's
//! Table I.  The default parameters `(0.57, 0.19, 0.19, 0.05)` are the Graph500
//! values.

use super::{rng_for, Generator};
use crate::edge_list::EdgeList;
use crate::types::VertexId;
use rand::Rng;

/// R-MAT generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rmat {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of edges per vertex.
    pub edge_factor: f64,
    /// Quadrant probability `a` (top-left).
    pub a: f64,
    /// Quadrant probability `b` (top-right).
    pub b: f64,
    /// Quadrant probability `c` (bottom-left).
    pub c: f64,
    /// Maximum edge weight; weights are uniform in `[1.0, weight_max]`.
    pub weight_max: f64,
    /// Probability noise added per recursion level to avoid exact
    /// self-similarity (as in the Graph500 reference implementation).
    pub noise: f64,
}

impl Rmat {
    /// Creates a Graph500-style R-MAT generator with `2^scale` vertices and
    /// `edge_factor * 2^scale` edges.
    pub fn new(scale: u32, edge_factor: f64) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            weight_max: 10.0,
            noise: 0.05,
        }
    }

    /// Overrides the quadrant probabilities (`d` is `1 - a - b - c`).
    pub fn with_probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0);
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Number of vertices this configuration produces.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of edges this configuration produces.
    pub fn num_edges(&self) -> usize {
        (self.edge_factor * self.num_vertices() as f64).round() as usize
    }
}

impl Generator for Rmat {
    fn generate(&self, seed: u64) -> EdgeList<f64> {
        let mut rng = rng_for(seed);
        let n = self.num_vertices();
        let m = self.num_edges();
        let mut list = EdgeList::with_capacity(n, m);
        // Pre-declare the vertex range so isolated vertices (common in
        // power-law graphs) are preserved.
        if n > 0 {
            list.ensure_vertex((n - 1) as VertexId);
        }
        for _ in 0..m {
            let (mut lo_r, mut hi_r) = (0usize, n);
            let (mut lo_c, mut hi_c) = (0usize, n);
            while hi_r - lo_r > 1 {
                // Jitter the quadrant probabilities a little at every level.
                let jitter = |p: f64, rng: &mut rand::rngs::StdRng| {
                    let f = 1.0 + self.noise * (rng.gen::<f64>() - 0.5);
                    p * f
                };
                let a = jitter(self.a, &mut rng);
                let b = jitter(self.b, &mut rng);
                let c = jitter(self.c, &mut rng);
                let d = jitter(1.0 - self.a - self.b - self.c, &mut rng);
                let total = a + b + c + d;
                let r: f64 = rng.gen::<f64>() * total;
                let mid_r = (lo_r + hi_r) / 2;
                let mid_c = (lo_c + hi_c) / 2;
                if r < a {
                    hi_r = mid_r;
                    hi_c = mid_c;
                } else if r < a + b {
                    hi_r = mid_r;
                    lo_c = mid_c;
                } else if r < a + b + c {
                    lo_r = mid_r;
                    hi_c = mid_c;
                } else {
                    lo_r = mid_r;
                    lo_c = mid_c;
                }
            }
            let src = lo_r as VertexId;
            let dst = lo_c as VertexId;
            let weight = rng.gen_range(1.0..=self.weight_max);
            list.push(src, dst, weight);
        }
        list
    }

    fn name(&self) -> &'static str {
        "rmat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::degree_stats;

    #[test]
    fn produces_requested_sizes() {
        let gen = Rmat::new(10, 8.0);
        let list = gen.generate(7);
        assert_eq!(list.num_vertices(), 1024);
        assert_eq!(list.num_edges(), 8192);
        assert!(list.validate().is_ok());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let gen = Rmat::new(11, 8.0);
        let list = gen.generate(1);
        let stats = degree_stats(&list);
        // Power-law: the busiest 1% of vertices should source a large share of
        // edges — far more than the ~1% a uniform graph would give.
        assert!(
            stats.top1pct_edge_share > 0.15,
            "expected skewed degree distribution, got share {}",
            stats.top1pct_edge_share
        );
        assert!(stats.max_out_degree > 8 * stats.mean_out_degree as usize);
    }

    #[test]
    fn weights_lie_in_configured_range() {
        let gen = Rmat {
            weight_max: 3.0,
            ..Rmat::new(8, 4.0)
        };
        let list = gen.generate(3);
        assert!(list.edges().iter().all(|e| e.attr >= 1.0 && e.attr <= 3.0));
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_are_rejected() {
        let _ = Rmat::new(8, 4.0).with_probabilities(0.6, 0.3, 0.2);
    }
}
