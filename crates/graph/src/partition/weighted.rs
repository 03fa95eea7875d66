//! Capacity-aware weighted edge partitioner.

use super::{mix64, Partitioner, Partitioning};
use crate::graph::PropertyGraph;
use crate::types::{GraphError, Result};

/// Assigns edges so that part `j` receives (approximately) a target fraction
/// of the edges proportional to its weight.
///
/// This implements the *Case 1* balancing strategy of §III-C (Lemma 2): with
/// per-node computation-capacity factors `1/c_j`, the optimal data placement
/// is `d_j = (1/c_j) / Σ(1/c_k) · D`.  The upper system passes the capacities
/// as weights and this partitioner realises the prescribed `d_j`.
///
/// Edges are streamed in a hashed order and each edge goes to the part whose
/// current fill is furthest *below* its quota, which yields part sizes within
/// one edge of the exact targets.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEdgePartitioner {
    weights: Vec<f64>,
}

impl WeightedEdgePartitioner {
    /// Creates a partitioner targeting fractions proportional to `weights`.
    ///
    /// Weights are typically the computation-capacity factors `1/c_j` of the
    /// distributed nodes; they must be positive.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(GraphError::EmptyPartitioning);
        }
        if weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
            return Err(GraphError::NonPositiveWeight);
        }
        Ok(Self { weights })
    }

    /// Creates a partitioner with equal weights (plain balanced partitioning).
    pub fn uniform(num_parts: usize) -> Result<Self> {
        Self::new(vec![1.0; num_parts.max(1)])
    }

    /// The normalised target fraction for each part.
    pub fn target_fractions(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().sum();
        self.weights.iter().map(|w| w / total).collect()
    }
}

impl Partitioner for WeightedEdgePartitioner {
    fn partition<V, E>(
        &self,
        graph: &PropertyGraph<V, E>,
        num_parts: usize,
    ) -> Result<Partitioning> {
        if num_parts != self.weights.len() {
            return Err(GraphError::WeightCountMismatch {
                parts: num_parts,
                weights: self.weights.len(),
            });
        }
        let fractions = self.target_fractions();
        let m = graph.num_edges();
        let targets: Vec<f64> = fractions.iter().map(|f| f * m as f64).collect();
        let mut fill = vec![0usize; num_parts];
        // Hash-order the edges so that consecutive edges (which often share a
        // source) spread across parts instead of clumping.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&e| mix64(e as u64));
        let mut assignment = vec![0usize; m];
        for edge_id in order {
            // Pick the part with the largest remaining deficit relative to its
            // target; ties go to the lower part id for determinism.
            let part = (0..num_parts)
                .max_by(|&a, &b| {
                    let da = targets[a] - fill[a] as f64;
                    let db = targets[b] - fill[b] as f64;
                    da.partial_cmp(&db)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
                .expect("num_parts > 0");
            assignment[edge_id] = part;
            fill[part] += 1;
        }
        Partitioning::from_edge_assignment(graph, num_parts, assignment)
    }

    fn name(&self) -> &'static str {
        "weighted-by-capacity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ErdosRenyi, Generator};

    fn graph() -> PropertyGraph<u32, f64> {
        let list = ErdosRenyi::new(500, 6000).generate(13);
        PropertyGraph::from_edge_list(list, 0u32).unwrap()
    }

    #[test]
    fn uniform_weights_give_even_parts() {
        let g = graph();
        let p = WeightedEdgePartitioner::uniform(4)
            .unwrap()
            .partition(&g, 4)
            .unwrap();
        let counts = p.edge_counts();
        assert_eq!(counts.iter().sum::<usize>(), g.num_edges());
        assert!(counts.iter().all(|&c| c == 1500), "{counts:?}");
    }

    #[test]
    fn skewed_weights_match_target_fractions() {
        let g = graph();
        // Capacities 1 : 3 — the second node is three times faster, so it
        // should receive three quarters of the data (Lemma 2).
        let p = WeightedEdgePartitioner::new(vec![1.0, 3.0])
            .unwrap()
            .partition(&g, 2)
            .unwrap();
        let counts = p.edge_counts();
        assert_eq!(counts.iter().sum::<usize>(), 6000);
        assert!((counts[0] as f64 - 1500.0).abs() <= 1.0, "{counts:?}");
        assert!((counts[1] as f64 - 4500.0).abs() <= 1.0, "{counts:?}");
    }

    #[test]
    fn invalid_weights_are_rejected() {
        assert!(WeightedEdgePartitioner::new(vec![]).is_err());
        assert!(WeightedEdgePartitioner::new(vec![1.0, 0.0]).is_err());
        assert!(WeightedEdgePartitioner::new(vec![1.0, -2.0]).is_err());
        assert!(WeightedEdgePartitioner::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn weight_count_must_match_part_count() {
        let g = graph();
        let p = WeightedEdgePartitioner::new(vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            p.partition(&g, 3),
            Err(GraphError::WeightCountMismatch {
                parts: 3,
                weights: 2
            })
        ));
    }
}
