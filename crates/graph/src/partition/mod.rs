//! Graph partitioning for distributed nodes.
//!
//! Upper systems partition the graph across distributed nodes before any
//! middleware work happens (§II-B: "Initially, the graph data are partitioned
//! to distributed nodes by upper systems").  The partitioning strategy is one
//! of the two knobs the workload-balancing optimisation (§III-C) turns, so
//! several strategies are provided:
//!
//! * [`HashEdgePartitioner`] — hash edges by source vertex (GraphX-like
//!   default, produces roughly even parts on uniform graphs but can skew on
//!   power-law graphs);
//! * [`RangePartitioner`] — contiguous source-vertex ranges (cheap, very
//!   skew-prone: used as the "Not Balanced" configuration in Fig. 12);
//! * [`GreedyVertexCutPartitioner`] — PowerGraph-style greedy vertex cut that
//!   minimises vertex replication while keeping edge counts even;
//! * [`WeightedEdgePartitioner`] — capacity-aware partitioner that targets the
//!   per-part data fractions `d_j ∝ 1/c_j` prescribed by Lemma 2.

mod hash;
mod range;
mod vertex_cut;
mod weighted;

pub use hash::HashEdgePartitioner;
pub use range::RangePartitioner;
pub use vertex_cut::GreedyVertexCutPartitioner;
pub use weighted::WeightedEdgePartitioner;

use crate::graph::PropertyGraph;
use crate::mutate::ResolvedMutation;
use crate::types::{EdgeId, GraphError, PartitionId, Result, VertexId};
use std::collections::HashMap;

/// The data held by a single distributed node after partitioning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartInfo {
    /// Global ids of the edges assigned to this part.
    pub edges: Vec<EdgeId>,
    /// Global ids of all vertices replicated on this part, ascending: every
    /// endpoint of a local edge, plus every vertex mastered here (an
    /// isolated vertex, or one whose local edges were all removed).  This
    /// holds after [`Partitioning::apply_mutations`] too, which retires a
    /// non-master replica with its last local edge.
    pub vertices: Vec<VertexId>,
    /// Global ids of the vertices whose *master* copy lives on this part.
    pub masters: Vec<VertexId>,
}

/// A complete edge partitioning of a graph into `num_parts` distributed nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    num_vertices: usize,
    edge_assignment: Vec<PartitionId>,
    master_of: Vec<PartitionId>,
    parts: Vec<PartInfo>,
    /// Per part, aligned with its `vertices`: how many local edges touch
    /// each replica (a self-loop counts twice).  A non-master replica whose
    /// count reaches 0 is retired.
    incidence: Vec<Vec<u32>>,
}

impl Partitioning {
    /// Builds a partitioning from a per-edge assignment.
    ///
    /// Vertex replicas are derived from the edge assignment; the master copy
    /// of a vertex is placed on the part holding the most of its incident
    /// edges (ties broken toward the lower part id), and isolated vertices are
    /// mastered on `hash(v) % num_parts`.
    pub fn from_edge_assignment<V, E>(
        graph: &PropertyGraph<V, E>,
        num_parts: usize,
        edge_assignment: Vec<PartitionId>,
    ) -> Result<Self> {
        if num_parts == 0 {
            return Err(GraphError::EmptyPartitioning);
        }
        assert_eq!(
            edge_assignment.len(),
            graph.num_edges(),
            "edge assignment must cover every edge"
        );
        let mut parts = vec![PartInfo::default(); num_parts];
        // Count, per vertex, how many incident edges each part holds.
        let mut incidence: Vec<HashMap<PartitionId, usize>> =
            vec![HashMap::new(); graph.num_vertices()];
        for (edge_id, &part) in edge_assignment.iter().enumerate() {
            assert!(
                part < num_parts,
                "edge assigned to non-existent part {part}"
            );
            parts[part].edges.push(edge_id);
            let edge = graph.edge(edge_id);
            *incidence[edge.src as usize].entry(part).or_insert(0) += 1;
            *incidence[edge.dst as usize].entry(part).or_insert(0) += 1;
        }
        let mut master_of = vec![0 as PartitionId; graph.num_vertices()];
        // Vertices are visited in id order, so every part's replica list is
        // built ascending.
        let mut replicas: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); num_parts];
        for v in 0..graph.num_vertices() {
            let counts = &incidence[v];
            if counts.is_empty() {
                // Isolated vertex: master it deterministically.
                let part = v % num_parts;
                master_of[v] = part;
                replicas[part].push((v as VertexId, 0));
                parts[part].masters.push(v as VertexId);
                continue;
            }
            let mut best_part = usize::MAX;
            let mut best_count = 0usize;
            for (&part, &count) in counts {
                if count > best_count || (count == best_count && part < best_part) {
                    best_part = part;
                    best_count = count;
                }
            }
            master_of[v] = best_part;
            parts[best_part].masters.push(v as VertexId);
            for (&part, &count) in counts {
                replicas[part].push((v as VertexId, count as u32));
            }
        }
        let mut incidence = Vec::with_capacity(num_parts);
        for (part, replicas) in parts.iter_mut().zip(replicas) {
            let (vertices, counts) = replicas.into_iter().unzip();
            part.vertices = vertices;
            incidence.push(counts);
        }
        Ok(Self {
            num_vertices: graph.num_vertices(),
            edge_assignment,
            master_of,
            parts,
            incidence,
        })
    }

    /// Number of parts (distributed nodes).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Number of vertices in the partitioned graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges in the partitioned graph.
    pub fn num_edges(&self) -> usize {
        self.edge_assignment.len()
    }

    /// Data for one part.
    pub fn part(&self, id: PartitionId) -> &PartInfo {
        &self.parts[id]
    }

    /// All parts in id order.
    pub fn parts(&self) -> &[PartInfo] {
        &self.parts
    }

    /// Part holding edge `edge_id`.
    pub fn part_of_edge(&self, edge_id: EdgeId) -> PartitionId {
        self.edge_assignment[edge_id]
    }

    /// Part mastering vertex `v`.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.master_of[v as usize]
    }

    /// Edge counts per part (the paper's per-node data sizes `d_j`).
    pub fn edge_counts(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.edges.len()).collect()
    }

    /// Vertex replication factor: total replicas divided by vertex count.
    ///
    /// 1.0 means no replication (a pure edge-cut on a graph where each vertex
    /// touches a single part); PowerGraph-style vertex cuts trade replication
    /// for balance.
    pub fn replication_factor(&self) -> f64 {
        if self.num_vertices == 0 {
            return 1.0;
        }
        let replicas: usize = self.parts.iter().map(|p| p.vertices.len()).sum();
        replicas as f64 / self.num_vertices as f64
    }

    /// Edge balance: max part size divided by mean part size (1.0 = perfect).
    pub fn edge_balance(&self) -> f64 {
        let counts = self.edge_counts();
        let max = counts.iter().copied().max().unwrap_or(0);
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / counts.len() as f64;
        max as f64 / mean
    }

    /// Updates the partitioning in place with one resolved mutation batch.
    ///
    /// New vertices are mastered like isolated ones (`v % num_parts`); a new
    /// edge lands on the master part of its source, replicating its
    /// endpoints there if needed.  Removed edges compact the edge id space
    /// exactly as [`PropertyGraph::apply_mutations`] does, and every part's
    /// edge list stays in ascending (global) id order.  A replica that loses
    /// its last local edge is retired unless its part is the vertex's
    /// master, so [`PartInfo::vertices`] keeps listing exactly the endpoints
    /// of the part's edges plus its masters, and the replication factor
    /// follows the graph instead of the mutation history.  Masters never
    /// move.
    ///
    /// # Panics
    /// Panics if `delta` was resolved against a different shape than this
    /// partitioning currently covers.
    pub fn apply_mutations<V, E>(&mut self, delta: &ResolvedMutation<V, E>) {
        assert_eq!(
            delta.prior_num_vertices, self.num_vertices,
            "mutation batch resolved against a different vertex count"
        );
        assert_eq!(
            delta.prior_num_edges,
            self.edge_assignment.len(),
            "mutation batch resolved against a different edge count"
        );
        let num_parts = self.parts.len();
        for &(v, _) in &delta.added_vertices {
            let part = v as usize % num_parts;
            self.master_of.push(part);
            // New ids are the largest, so pushing keeps these lists sorted.
            self.parts[part].masters.push(v);
            self.parts[part].vertices.push(v);
            self.incidence[part].push(0);
            self.num_vertices += 1;
        }
        if !delta.removed_edges.is_empty() {
            let mut orphaned = vec![false; num_parts];
            for (edge_id, src, dst) in &delta.removed_edges {
                let part = self.edge_assignment[edge_id];
                for v in [src, dst] {
                    let position = self.parts[part]
                        .vertices
                        .binary_search(&v)
                        .expect("an edge's part replicates its endpoints");
                    let count = &mut self.incidence[part][position];
                    *count -= 1;
                    orphaned[part] |= *count == 0 && self.master_of[v as usize] != part;
                }
            }
            for part in (0..num_parts).filter(|&part| orphaned[part]) {
                // Compact the replica list and its counts in step.
                let (vertices, counts) =
                    (&mut self.parts[part].vertices, &mut self.incidence[part]);
                let mut kept = 0;
                for i in 0..vertices.len() {
                    let v = vertices[i];
                    if counts[i] > 0 || self.master_of[v as usize] == part {
                        vertices[kept] = v;
                        counts[kept] = counts[i];
                        kept += 1;
                    }
                }
                vertices.truncate(kept);
                counts.truncate(kept);
            }
            let removed: Vec<EdgeId> = delta.removed_edges.iter().map(|(id, _, _)| id).collect();
            let mut cut = removed.iter().copied().peekable();
            let mut id = 0usize;
            self.edge_assignment.retain(|_| {
                let keep = cut.peek() != Some(&id);
                if !keep {
                    cut.next();
                }
                id += 1;
                keep
            });
            for part in &mut self.parts {
                part.edges.retain(|e| removed.binary_search(e).is_err());
                for e in &mut part.edges {
                    // Surviving ids shift down past the removals below them.
                    *e -= removed.partition_point(|&r| r < *e);
                }
            }
        }
        for edge in &delta.added_edges {
            let part = self.master_of[edge.src as usize];
            let new_id = self.edge_assignment.len();
            self.edge_assignment.push(part);
            self.parts[part].edges.push(new_id);
            for v in [edge.src, edge.dst] {
                let (vertices, counts) =
                    (&mut self.parts[part].vertices, &mut self.incidence[part]);
                match vertices.binary_search(&v) {
                    Ok(position) => counts[position] += 1,
                    Err(position) => {
                        vertices.insert(position, v);
                        counts.insert(position, 1);
                    }
                }
            }
        }
    }

    /// Counts how many vertices have at least one replica outside their
    /// master part — the vertices whose updates require cross-node
    /// synchronisation.  Used by the synchronization-skipping analysis.
    pub fn boundary_vertex_count(&self) -> usize {
        let mut counts = vec![0usize; self.num_vertices];
        for part in &self.parts {
            for &v in &part.vertices {
                counts[v as usize] += 1;
            }
        }
        counts.iter().filter(|&&c| c > 1).count()
    }
}

/// A strategy that assigns every edge of a graph to one of `num_parts` parts.
pub trait Partitioner {
    /// Partitions `graph` into `num_parts` parts.
    fn partition<V, E>(
        &self,
        graph: &PropertyGraph<V, E>,
        num_parts: usize,
    ) -> Result<Partitioning>;

    /// Human-readable strategy name.
    fn name(&self) -> &'static str;
}

/// Deterministic 64-bit mix used by the hash-based partitioners
/// (SplitMix64 finaliser).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;

    fn small_graph() -> PropertyGraph<u32, ()> {
        let list: EdgeList<()> = [
            (0u32, 1u32, ()),
            (1, 2, ()),
            (2, 3, ()),
            (3, 0, ()),
            (0, 2, ()),
            (1, 3, ()),
        ]
        .into_iter()
        .collect();
        PropertyGraph::from_edge_list(list, 0).unwrap()
    }

    #[test]
    fn every_partitioner_places_a_power_law_graph_at_four_and_eight_parts() {
        use crate::generators::{Generator, Rmat};
        let g: PropertyGraph<u32, f64> =
            PropertyGraph::from_edge_list(Rmat::new(11, 8.0).generate(42), 0).unwrap();
        for parts in [4usize, 8] {
            let weights: Vec<f64> = (1..=parts).map(|w| w as f64).collect();
            let placed = [
                HashEdgePartitioner::new(1).partition(&g, parts),
                RangePartitioner.partition(&g, parts),
                GreedyVertexCutPartitioner::default().partition(&g, parts),
                WeightedEdgePartitioner::new(weights)
                    .unwrap()
                    .partition(&g, parts),
            ];
            for partitioning in placed {
                let partitioning = partitioning.unwrap();
                assert_eq!(partitioning.num_parts(), parts);
                // Every edge on exactly one part.
                let mut edges: Vec<EdgeId> = partitioning
                    .parts()
                    .iter()
                    .flat_map(|part| part.edges.iter().copied())
                    .collect();
                edges.sort_unstable();
                assert!(edges.iter().copied().eq(0..g.num_edges() as EdgeId));
                // Every vertex mastered once, on a part that replicates it.
                let mut masters = 0;
                for part in partitioning.parts() {
                    masters += part.masters.len();
                    for v in &part.masters {
                        assert!(part.vertices.binary_search(v).is_ok());
                    }
                }
                assert_eq!(masters, g.num_vertices());
                // The quality metrics the workload balancer consumes.
                let replication = partitioning.replication_factor();
                assert!((1.0..=parts as f64).contains(&replication));
                let balance = partitioning.edge_balance();
                assert!((1.0..=parts as f64).contains(&balance));
                assert!(partitioning.boundary_vertex_count() < g.num_vertices());
            }
        }
    }

    #[test]
    fn from_edge_assignment_builds_replicas_and_masters() {
        let g = small_graph();
        let assignment = vec![0, 0, 1, 1, 0, 1];
        let p = Partitioning::from_edge_assignment(&g, 2, assignment).unwrap();
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.edge_counts(), vec![3, 3]);
        // Every edge endpoint must be replicated on the edge's part.
        for (edge_id, edge) in g.edges().iter().enumerate() {
            let part = p.part_of_edge(edge_id);
            assert!(p.part(part).vertices.contains(&edge.src));
            assert!(p.part(part).vertices.contains(&edge.dst));
        }
        // Every vertex has exactly one master.
        let total_masters: usize = p.parts().iter().map(|q| q.masters.len()).sum();
        assert_eq!(total_masters, g.num_vertices());
        for v in g.vertex_ids() {
            let m = p.master_of(v);
            assert!(p.part(m).masters.contains(&v));
        }
    }

    #[test]
    fn zero_parts_is_rejected() {
        let g = small_graph();
        let err = Partitioning::from_edge_assignment(&g, 0, vec![]).unwrap_err();
        assert_eq!(err, GraphError::EmptyPartitioning);
    }

    #[test]
    fn replication_and_balance_metrics() {
        let g = small_graph();
        let all_in_one = Partitioning::from_edge_assignment(&g, 2, vec![0; 6]).unwrap();
        assert_eq!(all_in_one.edge_counts(), vec![6, 0]);
        assert!((all_in_one.edge_balance() - 2.0).abs() < 1e-12);
        assert!((all_in_one.replication_factor() - 1.0).abs() < 1e-12);
        assert_eq!(all_in_one.boundary_vertex_count(), 0);

        let split = Partitioning::from_edge_assignment(&g, 2, vec![0, 1, 0, 1, 0, 1]).unwrap();
        assert!(split.replication_factor() > 1.0);
        assert!(split.boundary_vertex_count() > 0);
    }

    #[test]
    fn apply_mutations_extends_assignment_consistently() {
        use crate::mutate::{MutationBatch, MutationLog};
        let g = small_graph();
        let mut p = Partitioning::from_edge_assignment(&g, 2, vec![0, 0, 1, 1, 0, 1]).unwrap();
        let mut log = MutationLog::new(g.num_vertices(), g.edges().iter().map(|e| (e.src, e.dst)));
        let batch = MutationBatch::<u32, ()>::new()
            .add_vertex(0)
            .remove_edge(1)
            .remove_edge(4)
            .add_edge(4, 0, ())
            .add_edge(2, 4, ());
        let delta = log.append(&batch).unwrap();
        p.apply_mutations(&delta);
        assert_eq!(p.num_vertices(), 5);
        // Vertex 4 masters on part 4 % 2 = 0.
        assert_eq!(p.master_of(4), 0);
        assert!(p.part(0).masters.contains(&4));
        // 6 edges - 2 removed + 2 added = 6; ids stay dense.
        let total_edges: usize = p.parts().iter().map(|q| q.edges.len()).sum();
        assert_eq!(total_edges, 6);
        let mut all: Vec<EdgeId> = p.parts().iter().flat_map(|q| q.edges.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        // Part edge lists stay ascending and agree with part_of_edge.
        for (id, part) in p.parts().iter().enumerate() {
            assert!(part.edges.windows(2).all(|w| w[0] < w[1]));
            for &e in &part.edges {
                assert_eq!(p.part_of_edge(e), id);
            }
        }
        // New edge 4 -> 0 lands on master_of(4) = 0 with both endpoints
        // replicated there.
        assert_eq!(p.part_of_edge(4), 0);
        assert!(p.part(0).vertices.contains(&4));
        assert!(p.part(0).vertices.contains(&0));
        // New edge 2 -> 4 lands on master_of(2) and replicates 4 there.
        let part2 = p.master_of(2);
        assert_eq!(p.part_of_edge(5), part2);
        assert!(p.part(part2).vertices.contains(&4));
        for part in p.parts() {
            assert!(part.vertices.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn isolated_vertices_are_mastered_somewhere() {
        let mut list: EdgeList<()> = EdgeList::with_vertices(5);
        list.push(0, 1, ());
        let g = PropertyGraph::from_edge_list(list, 0u32).unwrap();
        let p = Partitioning::from_edge_assignment(&g, 3, vec![1]).unwrap();
        // Vertices 2, 3, 4 are isolated but must still have masters.
        let total_masters: usize = p.parts().iter().map(|q| q.masters.len()).sum();
        assert_eq!(total_masters, 5);
    }
}
