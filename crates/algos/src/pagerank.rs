//! PageRank on the GX-Plug algorithm template.
//!
//! The message-driven formulation: every vertex sends `rank / out_degree`
//! along its out-edges, and a vertex receiving contributions updates to
//! `(1 - d) + d * Σ contributions`.  Vertices with no in-edges keep their
//! rank (no message ever reaches them), matching the reference implementation
//! in [`crate::reference::pagerank_reference`].

use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};

/// Vertex attribute of PageRank: the current rank plus the (static) out-degree
/// needed to split contributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankValue {
    /// Current PageRank score.
    pub rank: f64,
    /// Out-degree of the vertex in the global graph.
    pub out_degree: u32,
}

/// PageRank with a fixed number of iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    /// Damping factor `d` (0.85 in the paper's tradition).
    pub damping: f64,
    /// Number of iterations to run.
    pub iterations: usize,
    /// Initial rank assigned to every vertex.
    pub initial_rank: f64,
}

impl PageRank {
    /// Creates PageRank with the standard damping factor of 0.85.
    pub fn new(iterations: usize) -> Self {
        Self {
            damping: 0.85,
            iterations,
            initial_rank: 1.0,
        }
    }

    /// Overrides the damping factor.
    pub fn with_damping(mut self, damping: f64) -> Self {
        assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
        self.damping = damping;
        self
    }
}

impl Default for PageRank {
    fn default() -> Self {
        Self::new(20)
    }
}

impl GraphAlgorithm<RankValue, f64> for PageRank {
    type Msg = f64;

    fn init_vertex(&self, _v: VertexId, out_degree: usize) -> RankValue {
        RankValue {
            rank: self.initial_rank,
            out_degree: out_degree as u32,
        }
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<RankValue, f64>,
        _iteration: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        let out_degree = triplet.src_attr.out_degree.max(1) as f64;
        out.push(AddressedMessage::new(
            triplet.dst,
            triplet.src_attr.rank / out_degree,
        ));
    }

    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn msg_apply(
        &self,
        _vertex: VertexId,
        current: &RankValue,
        message: &f64,
        _iteration: usize,
    ) -> Option<RankValue> {
        let new_rank = (1.0 - self.damping) + self.damping * message;
        Some(RankValue {
            rank: new_rank,
            out_degree: current.out_degree,
        })
    }

    fn max_iterations(&self) -> usize {
        self.iterations
    }

    fn always_active(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn operational_intensity(&self) -> f64 {
        1.0
    }

    fn cache_key(&self) -> Option<String> {
        // Floats are encoded by bit pattern so the key distinguishes every
        // representable damping/initial-rank value exactly.
        Some(format!(
            "d{:016x};i{};r{:016x}",
            self.damping.to_bits(),
            self.iterations,
            self.initial_rank.to_bits()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::pagerank_reference;
    use gxplug_engine::cluster::Cluster;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::profile::RuntimeProfile;
    use gxplug_graph::generators::{ErdosRenyi, Generator, Rmat};
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::{HashEdgePartitioner, Partitioner};

    fn run_template(
        graph: &PropertyGraph<RankValue, f64>,
        algorithm: &PageRank,
        parts: usize,
    ) -> Vec<f64> {
        let partitioning = HashEdgePartitioner::new(5).partition(graph, parts).unwrap();
        let mut cluster = Cluster::build(
            graph,
            partitioning,
            algorithm,
            RuntimeProfile::graphx(),
            NetworkModel::datacenter(),
        );
        let report = cluster.run_native(algorithm, "test", algorithm.iterations);
        // Runs stop at the iteration cap, or earlier if the ranks hit an
        // exact fixed point (which happens on degenerate graphs like stars).
        assert!(report.num_iterations() <= algorithm.iterations);
        cluster
            .collect_values()
            .into_iter()
            .map(|value| value.rank)
            .collect()
    }

    #[test]
    fn matches_reference_on_uniform_graph() {
        let list = ErdosRenyi::new(200, 1_200).generate(3);
        let graph = PropertyGraph::from_edge_list(
            list,
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        )
        .unwrap();
        let algorithm = PageRank::new(10);
        let got = run_template(&graph, &algorithm, 4);
        let want = pagerank_reference(&graph, 0.85, 10, 1.0);
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "vertex {v}: got {g}, want {w}");
        }
    }

    #[test]
    fn matches_reference_on_power_law_graph_across_partitions() {
        let list = Rmat::new(8, 6.0).generate(9);
        let graph = PropertyGraph::from_edge_list(
            list,
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        )
        .unwrap();
        let algorithm = PageRank::new(8);
        let single = run_template(&graph, &algorithm, 1);
        let distributed = run_template(&graph, &algorithm, 4);
        let want = pagerank_reference(&graph, 0.85, 8, 1.0);
        for v in 0..graph.num_vertices() {
            assert!(
                (single[v] - want[v]).abs() < 1e-9,
                "single partition, vertex {v}"
            );
            assert!(
                (distributed[v] - want[v]).abs() < 1e-9,
                "four partitions, vertex {v}"
            );
        }
    }

    #[test]
    fn hub_vertices_accumulate_rank() {
        // A star pointing at vertex 0 concentrates rank there.
        let list: gxplug_graph::EdgeList<f64> = (1u32..50).map(|v| (v, 0u32, 1.0)).collect();
        let graph = PropertyGraph::from_edge_list(
            list,
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        )
        .unwrap();
        let got = run_template(&graph, &PageRank::new(5), 2);
        assert!(got[0] > 10.0 * got[1]);
    }

    #[test]
    #[should_panic]
    fn damping_must_be_a_probability() {
        let _ = PageRank::new(5).with_damping(1.5);
    }

    #[test]
    fn cache_key_distinguishes_every_parameter() {
        let base = PageRank::new(10);
        assert_eq!(base.cache_key(), PageRank::new(10).cache_key());
        assert_ne!(base.cache_key(), PageRank::new(11).cache_key());
        assert_ne!(
            base.cache_key(),
            PageRank::new(10).with_damping(0.9).cache_key()
        );
        let mut custom_rank = PageRank::new(10);
        custom_rank.initial_rank = 0.5;
        assert_ne!(base.cache_key(), custom_rank.cache_key());
    }
}
