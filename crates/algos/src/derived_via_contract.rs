//! The `derived_via` contract, checked.
//!
//! An incremental recompute after edge removals re-initialises exactly the
//! vertices `derived_via` says may have come through a removed edge, so a
//! `false` for an edge that did produce a distance would leave a stale
//! value behind.  On converged runs, an edge whose relaxation — the message
//! `msg_gen_into` generates for it — reproduces a finite column of its
//! head's distances must report `true`, and every other edge `false`.

use crate::MultiSourceSssp;
use gxplug_engine::cluster::Cluster;
use gxplug_engine::network::NetworkModel;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::generators::{Generator, Rmat};
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
use gxplug_graph::types::{Triplet, VertexId};

#[test]
fn multi_source_sssp_reports_exactly_the_tight_edges() {
    let list = Rmat::new(9, 6.0).generate(17);
    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    // Widths 1 and 4 keep the message inline, 6 spills it.
    for width in [1usize, 4, 6] {
        let algorithm = MultiSourceSssp::new((0..width as VertexId).map(|s| s * 5).collect());
        let mut cluster = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        assert!(cluster.run_native(&algorithm, "rmat", 1_000).converged);
        let values = cluster.collect_values();
        let (mut tight, mut loose) = (0, 0);
        for edge in graph.edges() {
            let (src, dst) = (&values[edge.src as usize], &values[edge.dst as usize]);
            let triplet = Triplet::new(edge.src, edge.dst, src.clone(), dst.clone(), edge.attr);
            let relaxed = algorithm.msg_gen(&triplet, 0);
            let reproduces = relaxed.first().is_some_and(|message| {
                message
                    .payload
                    .iter()
                    .zip(dst)
                    .any(|(m, d)| d.is_finite() && m.to_bits() == d.to_bits())
            });
            assert_eq!(
                algorithm.derived_via(src, &edge.attr, dst),
                reproduces,
                "width {width}: edge {} -> {} ({src:?} + {} vs {dst:?})",
                edge.src,
                edge.dst,
                edge.attr
            );
            if reproduces {
                tight += 1;
            } else {
                loose += 1;
            }
        }
        assert!(
            tight > 0 && loose > 0,
            "width {width}: {tight} tight, {loose} not"
        );
    }
}
