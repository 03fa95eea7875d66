//! Connected components (the "CC" of the paper's Figure 1).
//!
//! Minimum-label propagation over the undirected view of the graph: every
//! vertex starts with its own id, and labels flow along edges in both
//! directions until each connected component agrees on its smallest vertex id.

use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};

/// Connected components by min-label propagation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectedComponents;

impl GraphAlgorithm<u32, f64> for ConnectedComponents {
    type Msg = u32;

    fn init_vertex(&self, v: VertexId, _out_degree: usize) -> u32 {
        v
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<u32, f64>,
        _iteration: usize,
        out: &mut Vec<AddressedMessage<u32>>,
    ) {
        // Treat the edge as undirected: the smaller label is offered to both
        // endpoints (sending to the source is how the label travels "against"
        // a directed edge).
        let label = triplet.src_attr.min(triplet.dst_attr);
        if label < triplet.dst_attr {
            out.push(AddressedMessage::new(triplet.dst, label));
        }
        if label < triplet.src_attr {
            out.push(AddressedMessage::new(triplet.src, label));
        }
    }

    fn msg_merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn msg_apply(
        &self,
        _vertex: VertexId,
        current: &u32,
        message: &u32,
        _iteration: usize,
    ) -> Option<u32> {
        (message < current).then_some(*message)
    }

    fn always_active(&self) -> bool {
        // Labels must be able to travel against edge direction, which needs
        // every edge re-examined each round, not just the out-edges of
        // recently changed vertices.  The run still terminates as soon as an
        // iteration changes nothing.
        true
    }

    fn name(&self) -> &'static str {
        "CC"
    }

    fn operational_intensity(&self) -> f64 {
        0.5
    }

    fn reads_destination_attribute(&self) -> bool {
        // Labels travel against edge direction too, so stale destination
        // replicas are not tolerable under synchronization skipping.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::connected_components_reference;
    use gxplug_engine::cluster::Cluster;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::profile::RuntimeProfile;
    use gxplug_graph::generators::{ErdosRenyi, Generator, GridRoad};
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::{HashEdgePartitioner, Partitioner};
    use gxplug_graph::EdgeList;

    fn run_cc(graph: &PropertyGraph<u32, f64>, parts: usize) -> Vec<u32> {
        let algorithm = ConnectedComponents;
        let partitioning = HashEdgePartitioner::new(2).partition(graph, parts).unwrap();
        let mut cluster = Cluster::build(
            graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let report = cluster.run_native(&algorithm, "cc", 10_000);
        assert!(report.converged);
        cluster.collect_values()
    }

    #[test]
    fn matches_union_find_on_disconnected_graph() {
        // Three components: a path, a triangle, and isolated vertices.
        let mut list: EdgeList<f64> = [
            (0u32, 1u32, 1.0),
            (1, 2, 1.0),
            (5, 6, 1.0),
            (6, 7, 1.0),
            (7, 5, 1.0),
        ]
        .into_iter()
        .collect();
        list.ensure_vertex(9);
        let graph = PropertyGraph::from_edge_list(list, 0u32).unwrap();
        let got = run_cc(&graph, 2);
        let want = connected_components_reference(&graph);
        assert_eq!(got, want);
        assert_eq!(got[2], 0);
        assert_eq!(got[7], 5);
        assert_eq!(got[9], 9);
    }

    #[test]
    fn labels_flow_against_edge_direction() {
        // 5 -> 0: vertex 5's component label must still become 0 even though
        // the only edge points away from it.
        let list: EdgeList<f64> = [(5u32, 0u32, 1.0)].into_iter().collect();
        let graph = PropertyGraph::from_edge_list(list, 0u32).unwrap();
        let got = run_cc(&graph, 1);
        assert_eq!(got[5], 0);
        assert_eq!(got[0], 0);
    }

    #[test]
    fn matches_reference_on_random_and_road_graphs() {
        for (name, list) in [
            ("er", ErdosRenyi::new(300, 500).generate(8)),
            ("grid", GridRoad::new(9, 9, 0.0).generate(3)),
        ] {
            let graph = PropertyGraph::from_edge_list(list, 0u32).unwrap();
            let got = run_cc(&graph, 4);
            let want = connected_components_reference(&graph);
            assert_eq!(got, want, "{name}");
        }
    }
}
