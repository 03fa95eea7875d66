//! Label Propagation (the paper's "LP").
//!
//! Community detection by synchronous label propagation: every vertex starts
//! with its own id as label, sends its label along out-edges, and adopts the
//! most frequent incoming label (ties toward the smaller label).  The paper
//! "limits the iterations to 15 times to avoid unlimited computation on
//! specific datasets" (§V-A, footnote 4); that cap is the default here too.

use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};

/// A bounded label histogram: `(label, count)` pairs kept sorted by count
/// (descending) then label (ascending), truncated to [`LabelHistogram::MAX_ENTRIES`].
///
/// Bounding the histogram keeps messages constant-size, which is what a real
/// accelerator kernel would require; for community detection the heavy labels
/// always survive the truncation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelHistogram {
    entries: Vec<(u32, u32)>,
}

impl LabelHistogram {
    /// Maximum number of distinct labels carried by one message.
    pub const MAX_ENTRIES: usize = 16;

    /// A histogram holding a single label observation.
    pub fn singleton(label: u32) -> Self {
        Self {
            entries: vec![(label, 1)],
        }
    }

    /// Merges another histogram into this one, keeping the heaviest entries.
    pub fn merge(mut self, other: LabelHistogram) -> Self {
        for (label, count) in other.entries {
            match self.entries.iter_mut().find(|(l, _)| *l == label) {
                Some((_, c)) => *c += count,
                None => self.entries.push((label, count)),
            }
        }
        self.entries
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.entries.truncate(Self::MAX_ENTRIES);
        self
    }

    /// The winning label: highest count, ties toward the smallest label.
    pub fn winner(&self) -> Option<u32> {
        self.entries.first().map(|(label, _)| *label)
    }

    /// Number of distinct labels currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no labels were observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Label propagation with a bounded iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelPropagation {
    /// Maximum number of iterations (the paper uses 15).
    pub max_iterations: usize,
}

impl LabelPropagation {
    /// Creates label propagation capped at `max_iterations`.
    pub fn new(max_iterations: usize) -> Self {
        Self { max_iterations }
    }

    /// The paper's configuration: 15 iterations.
    pub fn paper_default() -> Self {
        Self::new(15)
    }
}

impl Default for LabelPropagation {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl GraphAlgorithm<u32, f64> for LabelPropagation {
    type Msg = LabelHistogram;

    fn init_vertex(&self, v: VertexId, _out_degree: usize) -> u32 {
        v
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<u32, f64>,
        _iteration: usize,
        out: &mut Vec<AddressedMessage<LabelHistogram>>,
    ) {
        out.push(AddressedMessage::new(
            triplet.dst,
            LabelHistogram::singleton(triplet.src_attr),
        ));
    }

    fn msg_merge(&self, a: LabelHistogram, b: LabelHistogram) -> LabelHistogram {
        a.merge(b)
    }

    fn msg_apply(
        &self,
        _vertex: VertexId,
        current: &u32,
        message: &LabelHistogram,
        _iteration: usize,
    ) -> Option<u32> {
        match message.winner() {
            Some(winner) if winner != *current => Some(winner),
            _ => None,
        }
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    fn always_active(&self) -> bool {
        // LP is "a fully iterative algorithm" (§V-B6): every vertex keeps
        // broadcasting its label every iteration until the cap.
        true
    }

    fn name(&self) -> &'static str {
        "LP"
    }

    fn operational_intensity(&self) -> f64 {
        0.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::label_propagation_reference;
    use gxplug_engine::cluster::Cluster;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::profile::RuntimeProfile;
    use gxplug_graph::generators::{Generator, GridRoad};
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
    use gxplug_graph::EdgeList;

    #[test]
    fn histogram_merge_keeps_majority_and_breaks_ties_low() {
        let h = LabelHistogram::singleton(5)
            .merge(LabelHistogram::singleton(3))
            .merge(LabelHistogram::singleton(5))
            .merge(LabelHistogram::singleton(3))
            .merge(LabelHistogram::singleton(9));
        // 5 and 3 are tied at two observations each; the tie breaks to 3.
        assert_eq!(h.winner(), Some(3));
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert!(LabelHistogram::default().winner().is_none());
    }

    #[test]
    fn histogram_is_bounded() {
        let mut h = LabelHistogram::default();
        for label in 0..100u32 {
            h = h.merge(LabelHistogram::singleton(label));
        }
        assert_eq!(h.len(), LabelHistogram::MAX_ENTRIES);
    }

    #[test]
    fn matches_reference_on_two_cliques() {
        // Two directed cliques joined by a single edge: LP should give each
        // clique a single label.
        let mut list: EdgeList<f64> = EdgeList::default();
        for a in 0u32..6 {
            for b in 0u32..6 {
                if a != b {
                    list.push(a, b, 1.0);
                }
            }
        }
        for a in 6u32..12 {
            for b in 6u32..12 {
                if a != b {
                    list.push(a, b, 1.0);
                }
            }
        }
        list.push(5, 6, 1.0);
        let graph = PropertyGraph::from_edge_list(list, 0u32).unwrap();
        let algorithm = LabelPropagation::new(15);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 3)
            .unwrap();
        let mut cluster = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        cluster.run_native(&algorithm, "cliques", 15);
        let got = cluster.collect_values();
        let want = label_propagation_reference(&graph, 15);
        assert_eq!(got, want);
        // Both cliques collapse onto label 0 eventually (they are connected),
        // or at minimum each clique is internally uniform.
        let first: Vec<u32> = got[0..6].to_vec();
        assert!(first.iter().all(|&l| l == first[0]));
    }

    #[test]
    fn matches_reference_on_road_graph() {
        let list = GridRoad::new(8, 8, 0.0).generate(2);
        let graph = PropertyGraph::from_edge_list(list, 0u32).unwrap();
        let algorithm = LabelPropagation::new(10);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 2)
            .unwrap();
        let mut cluster = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        cluster.run_native(&algorithm, "grid", 10);
        let got = cluster.collect_values();
        let want = label_propagation_reference(&graph, 10);
        assert_eq!(got, want);
    }

    #[test]
    fn iteration_cap_matches_paper_default() {
        assert_eq!(LabelPropagation::paper_default().max_iterations(), 15);
        assert_eq!(LabelPropagation::default().name(), "LP");
    }
}
