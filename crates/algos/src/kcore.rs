//! k-core decomposition (the "K-Core" of the paper's Figure 1).
//!
//! A vertex belongs to the k-core if it survives the iterative removal of all
//! vertices with (undirected) degree less than `k`.  The template formulation
//! runs in rounds: every surviving vertex broadcasts an "alive" token along
//! its incident edges; a vertex whose count of alive endorsements falls below
//! `k` drops out in the next round.  The process reaches a fixed point in at
//! most `|V|` rounds.
//!
//! The input graph is expected to be *symmetrised* (every undirected edge
//! present in both directions, e.g. via [`gxplug_graph::EdgeList::symmetrize`]),
//! because k-core is an undirected notion; endorsements then count each
//! undirected neighbour twice, matching a degree defined as `in + out`.

use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};

/// Vertex state for the k-core computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreState {
    /// Whether the vertex is still part of the candidate core.
    pub alive: bool,
}

/// k-core membership on the GX-Plug template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KCore {
    /// The core order `k`.
    pub k: usize,
    /// Upper bound on rounds (defaults to a generous cap; the algorithm
    /// reaches its fixed point much earlier on real graphs).
    pub max_rounds: usize,
}

impl KCore {
    /// Creates a k-core computation for the given `k`.
    pub fn new(k: usize) -> Self {
        Self { k, max_rounds: 200 }
    }
}

impl GraphAlgorithm<CoreState, f64> for KCore {
    type Msg = u32;

    fn init_vertex(&self, _v: VertexId, out_degree: usize) -> CoreState {
        // Vertices with no incident edges can never reach an alive-neighbour
        // count of `k ≥ 1`, but they also never receive a message that would
        // remove them, so they are peeled at initialisation time.  (The
        // algorithm expects a symmetrised graph, where `out_degree == 0`
        // means isolated.)
        CoreState {
            alive: self.k == 0 || out_degree > 0,
        }
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<CoreState, f64>,
        _iteration: usize,
        out: &mut Vec<AddressedMessage<u32>>,
    ) {
        // Each endpoint endorses the other while it is alive, so a vertex's
        // endorsement count equals its degree (in + out) restricted to alive
        // neighbours — the quantity the peeling rule compares against `k`.
        // The zero-weight self message guarantees an alive source is applied
        // every round even if none of its neighbours endorse it any more.
        if triplet.src_attr.alive {
            out.push(AddressedMessage::new(triplet.dst, 1));
            out.push(AddressedMessage::new(triplet.src, 0));
        }
        if triplet.dst_attr.alive {
            out.push(AddressedMessage::new(triplet.src, 1));
        }
    }

    fn msg_merge(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    fn msg_apply(
        &self,
        _vertex: VertexId,
        current: &CoreState,
        message: &u32,
        _iteration: usize,
    ) -> Option<CoreState> {
        if !current.alive {
            return None;
        }
        // `message` counts alive in-neighbour endorsements this round; out-
        // neighbour endorsements arrive symmetrically because every alive
        // source vouches along each incident edge.
        if (*message as usize) < self.k_alive_threshold() {
            Some(CoreState { alive: false })
        } else {
            None
        }
    }

    fn max_iterations(&self) -> usize {
        self.max_rounds
    }

    fn always_active(&self) -> bool {
        true
    }

    fn reads_destination_attribute(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "K-Core"
    }

    fn operational_intensity(&self) -> f64 {
        0.5
    }
}

impl KCore {
    fn k_alive_threshold(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::k_core_reference;
    use gxplug_engine::cluster::Cluster;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::profile::RuntimeProfile;
    use gxplug_graph::generators::{ErdosRenyi, Generator};
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
    use gxplug_graph::EdgeList;

    fn symmetric_graph(list: EdgeList<f64>) -> PropertyGraph<CoreState, f64> {
        let mut list = list;
        list.symmetrize();
        PropertyGraph::from_edge_list(list, CoreState { alive: true }).unwrap()
    }

    fn run_kcore(graph: &PropertyGraph<CoreState, f64>, k: usize, parts: usize) -> Vec<bool> {
        let algorithm = KCore::new(k);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(graph, parts)
            .unwrap();
        let mut cluster = Cluster::build(
            graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        cluster.run_native(&algorithm, "kcore", algorithm.max_rounds);
        cluster
            .collect_values()
            .into_iter()
            .map(|state| state.alive)
            .collect()
    }

    #[test]
    fn triangle_with_pendant_matches_reference() {
        // Undirected triangle 0-1-2 with pendant 3 attached to 2.
        let list: EdgeList<f64> = [(0u32, 1u32, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)]
            .into_iter()
            .collect();
        let graph = symmetric_graph(list);
        let got = run_kcore(&graph, 4, 2);
        let want = k_core_reference(&graph, 4);
        assert_eq!(got, want);
        assert_eq!(got, vec![true, true, true, false]);
    }

    #[test]
    fn whole_graph_survives_k_one_on_connected_graphs() {
        let list = ErdosRenyi::new(60, 400).generate(5);
        let graph = symmetric_graph(list);
        let got = run_kcore(&graph, 1, 2);
        let want = k_core_reference(&graph, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_reference_on_random_graph_for_moderate_k() {
        let list = ErdosRenyi::new(80, 600).generate(9);
        let graph = symmetric_graph(list);
        for k in [3usize, 6, 10] {
            let got = run_kcore(&graph, k, 3);
            let want = k_core_reference(&graph, k);
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn large_k_empties_the_core() {
        let list: EdgeList<f64> = [(0u32, 1u32, 1.0), (1, 2, 1.0)].into_iter().collect();
        let graph = symmetric_graph(list);
        let got = run_kcore(&graph, 5, 1);
        assert!(got.iter().all(|alive| !alive));
    }
}
