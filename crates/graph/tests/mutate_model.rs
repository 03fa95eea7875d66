//! Model-based property tests for the mutation log: random op sequences are
//! resolved through [`MutationLog`] and applied in place with
//! [`PropertyGraph::apply_mutations`], while a plain-`Vec` reference model
//! simulates the documented semantics independently.  After every batch the
//! mutated graph must be **identical** to a graph built from scratch from the
//! reference's edge list — edge table, both CSR indices and vertex
//! attributes — which is exactly the invariant the deployed in-place data
//! path (per-node CSR absorption, local-id growth) is built on.  A
//! [`Partitioning`] absorbs the same deltas and must keep listing, per part,
//! exactly the endpoints of its edges plus its masters: a replica retires
//! with its last local edge.

use gxplug_graph::mutate::{MutationBatch, MutationLog};
use gxplug_graph::partition::{HashEdgePartitioner, Partitioner, Partitioning};
use gxplug_graph::{EdgeList, PropertyGraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One generated op: `(code, a, b)` interpreted against the evolving shape.
type RawOp = (u8, u32, u32);

/// The reference model: vertex attributes by id plus `(src, dst, attr)`
/// per edge in compacted id order.
struct Reference {
    attrs: Vec<f64>,
    edges: Vec<(u32, u32, f64)>,
}

impl Reference {
    fn build_from_scratch(&self) -> PropertyGraph<f64, f64> {
        let mut list: EdgeList<f64> = EdgeList::with_vertices(self.attrs.len());
        for &(src, dst, attr) in &self.edges {
            list.push(src, dst, attr);
        }
        let mut graph = PropertyGraph::from_edge_list(list, 0.0).unwrap();
        graph.set_vertex_attrs(self.attrs.clone());
        graph
    }
}

/// Interprets one raw batch against the reference shape, producing the
/// production [`MutationBatch`] and mutating the reference in lockstep.
/// Ops that would fail validation (removing from an empty graph, double
/// removals, detaching a still-connected vertex) are skipped in both.
/// Returns `false` if every op was skipped (nothing to apply).
fn interpret_batch(
    raw: &[RawOp],
    attr_seed: &mut f64,
    reference: &mut Reference,
    batch: &mut MutationBatch<f64, f64>,
) -> bool {
    let pre_edges = reference.edges.len();
    let mut working_vertices = reference.attrs.len();
    let mut removed: Vec<usize> = Vec::new();
    let mut added_vertices: Vec<f64> = Vec::new();
    let mut added_edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut detach_candidates: Vec<u32> = Vec::new();
    for &(code, a, b) in raw {
        match code {
            0 => {
                *attr_seed += 1.0;
                *batch = std::mem::take(batch).add_vertex(*attr_seed);
                added_vertices.push(*attr_seed);
                working_vertices += 1;
            }
            1 => {
                let src = a % working_vertices as u32;
                let dst = b % working_vertices as u32;
                *attr_seed += 1.0;
                *batch = std::mem::take(batch).add_edge(src, dst, *attr_seed);
                added_edges.push((src, dst, *attr_seed));
            }
            2 => {
                if pre_edges == 0 {
                    continue;
                }
                let edge = a as usize % pre_edges;
                if removed.contains(&edge) {
                    continue;
                }
                *batch = std::mem::take(batch).remove_edge(edge);
                removed.push(edge);
            }
            _ => detach_candidates.push(a),
        }
    }
    // Detaches go last (the model's final-state legality check then matches
    // the production rule, which sees the whole batch's removals and
    // additions regardless of op position).
    let touched = |v: u32| {
        let surviving = reference
            .edges
            .iter()
            .enumerate()
            .filter(|(id, _)| !removed.contains(id))
            .any(|(_, &(src, dst, _))| src == v || dst == v);
        surviving
            || added_edges
                .iter()
                .any(|&(src, dst, _)| src == v || dst == v)
    };
    let mut detached: Vec<(u32, f64)> = Vec::new();
    for a in detach_candidates {
        let vertex = a % working_vertices as u32;
        if touched(vertex) {
            continue;
        }
        *attr_seed += 1.0;
        *batch = std::mem::take(batch).detach_vertex(vertex, *attr_seed);
        detached.push((vertex, *attr_seed));
    }
    if batch.is_empty() {
        return false;
    }
    // Roll the reference forward: compact removals (survivors keep relative
    // order), append additions, grow the attribute table, reset detached.
    let mut id = 0usize;
    reference.edges.retain(|_| {
        let keep = !removed.contains(&id);
        id += 1;
        keep
    });
    reference.edges.extend(added_edges);
    reference.attrs.extend(added_vertices);
    for (vertex, attr) in detached {
        reference.attrs[vertex as usize] = attr;
    }
    true
}

/// Every part lists exactly the endpoints of its edges plus the vertices it
/// masters, every vertex has one master, and the edge lists cover the graph.
fn check_replicas(graph: &PropertyGraph<f64, f64>, partitioning: &Partitioning) {
    prop_assert_eq!(partitioning.num_vertices(), graph.num_vertices());
    let mut covered = 0;
    for (part, info) in partitioning.parts().iter().enumerate() {
        let mut want: BTreeSet<u32> = info.masters.iter().copied().collect();
        for &edge in &info.edges {
            prop_assert_eq!(partitioning.part_of_edge(edge), part);
            let edge = graph.edge(edge);
            want.extend([edge.src, edge.dst]);
        }
        covered += info.edges.len();
        let listed: Vec<u32> = want.into_iter().collect();
        prop_assert_eq!(&info.vertices, &listed, "part {}", part);
        for &v in &info.masters {
            prop_assert_eq!(partitioning.master_of(v), part);
        }
    }
    prop_assert_eq!(covered, graph.num_edges());
    let masters: usize = partitioning.parts().iter().map(|p| p.masters.len()).sum();
    prop_assert_eq!(masters, graph.num_vertices());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Replaying a random mutation log in place keeps the graph identical to
    /// a from-scratch build of the reference model after every batch, and
    /// keeps a partitioning's replicas exactly those its edges and masters
    /// need.
    #[test]
    fn mutation_log_replay_matches_from_scratch_reference(
        num_vertices in 2usize..16,
        initial_edges in prop::collection::vec((0u32..64, 0u32..64), 0..24),
        batches in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u32..64, 0u32..64), 1..10),
            1..5,
        ),
    ) {
        // Initial graph: endpoints folded into range, attrs from a counter.
        let mut attr_seed = 0.0f64;
        let mut reference = Reference { attrs: vec![0.0; num_vertices], edges: Vec::new() };
        for (src, dst) in initial_edges {
            attr_seed += 1.0;
            reference.edges.push((
                src % num_vertices as u32,
                dst % num_vertices as u32,
                attr_seed,
            ));
        }
        let mut graph = reference.build_from_scratch();
        let mut partitioning = HashEdgePartitioner::new(u64::from(num_vertices as u32))
            .partition(&graph, 3)
            .unwrap();
        check_replicas(&graph, &partitioning);
        let mut log = MutationLog::new(
            graph.num_vertices(),
            graph.edges().iter().map(|e| (e.src, e.dst)),
        );
        let mut applied = 0u64;
        for raw in &batches {
            let mut batch = MutationBatch::new();
            if !interpret_batch(raw, &mut attr_seed, &mut reference, &mut batch) {
                continue;
            }
            let delta = log.append(&batch).expect("model only emits valid batches");
            applied += 1;
            prop_assert_eq!(delta.version, applied);
            graph.apply_mutations(&delta);
            partitioning.apply_mutations(&delta);
            check_replicas(&graph, &partitioning);

            // The in-place graph, the log's shadow shape and the from-scratch
            // rebuild all agree exactly.
            let rebuilt = reference.build_from_scratch();
            prop_assert_eq!(graph.num_vertices(), rebuilt.num_vertices());
            prop_assert_eq!(graph.edges(), rebuilt.edges());
            prop_assert_eq!(graph.out_csr(), rebuilt.out_csr());
            prop_assert_eq!(graph.in_csr(), rebuilt.in_csr());
            prop_assert_eq!(graph.vertex_attrs(), rebuilt.vertex_attrs());
            prop_assert_eq!(log.num_vertices(), graph.num_vertices());
            prop_assert_eq!(log.num_edges(), graph.num_edges());
        }
        prop_assert_eq!(log.version(), applied);
    }
}
