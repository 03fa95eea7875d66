//! Gunrock-like baseline: a single-node, single-GPU, frontier-centric engine.
//!
//! Gunrock [Wang et al., PPoPP'16] keeps the whole graph resident in the
//! memory of one GPU and iterates over vertex/edge frontiers.  It is the
//! fastest comparator on a single GPU (no distribution overhead at all) but
//! it cannot scale out: multi-GPU settings are "No Config" and graphs larger
//! than device memory fail with out-of-memory, which is exactly how it
//! behaves in Fig. 9 of the paper.

use crate::sim_daemon;
use gxplug_accel::{AccelError, AcceleratorBackend, DeviceSpec, SimDuration};
use gxplug_core::{merge_addressed, Daemon};
use gxplug_engine::metrics::{IterationMetrics, RunReport};
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::types::{Triplet, VertexId};
use gxplug_ipc::blocks::TripletBlockRef;
use std::collections::BTreeSet;

/// Host-side per-iteration overhead of the frontier manager (kernel fusion,
/// frontier compaction) — deliberately small: Gunrock is a lean single-node
/// system.
const FRONTIER_OVERHEAD: SimDuration = SimDuration::ZERO;

/// A Gunrock-like single-GPU engine.
///
/// Its one [`Daemon`] always runs on one thread, whatever backend the spec
/// selects.
#[derive(Debug)]
pub struct GunrockLike {
    daemon: Daemon,
}

impl GunrockLike {
    /// Creates the engine around one GPU (or other) device spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            daemon: sim_daemon(spec, 0, 0),
        }
    }

    /// The wrapped device.
    pub fn device(&self) -> &dyn AcceleratorBackend {
        self.daemon.backend()
    }

    /// Runs `algorithm` over `graph` entirely on the single device.
    ///
    /// The frontier is walked in ascending vertex order and messages merge
    /// in first-seen order, so every run sums in the same order and the
    /// values are bit-identical from run to run.
    ///
    /// Fails with [`AccelError::OutOfMemory`] if the graph's edge set does not
    /// fit in device memory (the whole graph must be resident).
    pub fn run<V, E, A>(
        &mut self,
        graph: &PropertyGraph<V, E>,
        algorithm: &A,
        dataset: &str,
        max_iterations: usize,
    ) -> Result<(RunReport, Vec<V>), AccelError>
    where
        V: Clone + PartialEq + Sync,
        E: Clone + Sync,
        A: GraphAlgorithm<V, E>,
    {
        let cost = *self.device().cost_model();
        // The whole edge list must be resident in device memory.
        if cost.exceeds_memory(graph.num_edges()) {
            return Err(AccelError::OutOfMemory {
                requested: graph.num_edges(),
                capacity: cost.memory_capacity_items.unwrap_or(0),
                device: self.daemon.name().to_string(),
            });
        }
        let mut setup = self.daemon.start();
        // Loading the graph onto the device is a one-off bulk copy.
        setup += cost.copy_time(graph.num_edges());

        let mut values: Vec<V> = (0..graph.num_vertices() as VertexId)
            .map(|v| algorithm.init_vertex(v, graph.out_degree(v)))
            .collect();
        let mut active: BTreeSet<VertexId> = match algorithm.initial_active(graph.num_vertices()) {
            Some(seed) => seed.into_iter().collect(),
            None => (0..graph.num_vertices() as VertexId).collect(),
        };
        let mut report = RunReport {
            algorithm: algorithm.name().to_string(),
            system: "Gunrock".to_string(),
            dataset: dataset.to_string(),
            num_nodes: 1,
            iterations: Vec::new(),
            converged: false,
            setup,
        };
        let iteration_cap = max_iterations.min(algorithm.max_iterations());
        for iteration in 0..iteration_cap {
            if algorithm.always_active() {
                active = (0..graph.num_vertices() as VertexId).collect();
            }
            if active.is_empty() {
                report.converged = true;
                break;
            }
            // Frontier expansion: all out-edges of active vertices.
            let mut frontier_edges = Vec::new();
            for &v in &active {
                for (_, edge_id) in graph.out_edges(v) {
                    frontier_edges.push(edge_id);
                }
            }
            // Join the frontier edges with the *current* vertex values (the
            // graph object only holds the initial attributes).
            let triplets: Vec<_> = frontier_edges
                .iter()
                .map(|&id| {
                    let edge = graph.edge(id);
                    Triplet::new(
                        edge.src,
                        edge.dst,
                        values[edge.src as usize].clone(),
                        values[edge.dst as usize].clone(),
                        edge.attr.clone(),
                    )
                })
                .collect();
            let block = TripletBlockRef {
                index: 0,
                triplets: &triplets,
            };
            let mut messages = Vec::new();
            self.daemon
                .execute_gen_into(algorithm, block, iteration, &mut messages)?;
            // The graph is already device-resident, so the only per-iteration
            // costs are the kernel launch and the compute itself (no PCIe
            // copies).
            let compute_time = cost.call + cost.compute_time(triplets.len()) + FRONTIER_OVERHEAD;
            // Merge and apply on the device (host cost negligible in Gunrock's
            // fused kernels; charge the apply at the device's per-item rate).
            let merged = merge_addressed(algorithm, messages);
            let apply_time = cost.compute_time(merged.len());
            let mut changed = BTreeSet::new();
            for message in merged {
                let target = message.target;
                let current = values[target as usize].clone();
                if let Some(new_value) =
                    algorithm.msg_apply(target, &current, &message.payload, iteration)
                {
                    if new_value != current {
                        values[target as usize] = new_value;
                        changed.insert(target);
                    }
                }
            }
            report.iterations.push(IterationMetrics {
                iteration,
                active_vertices: active.len(),
                triplets_processed: triplets.len(),
                compute: compute_time + apply_time,
                middleware: SimDuration::ZERO,
                upper_overhead: SimDuration::ZERO,
                sync: SimDuration::ZERO,
                remote_messages: 0,
                replica_updates: 0,
                sync_skipped: false,
            });
            if changed.is_empty() {
                report.converged = true;
                break;
            }
            active = changed;
        }
        if !report.converged && active.is_empty() {
            report.converged = true;
        }
        Ok((report, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_accel::presets;
    use gxplug_algos::reference::multi_source_sssp_reference;
    use gxplug_algos::{MultiSourceSssp, PageRank, RankValue};
    use gxplug_graph::generators::{Generator, Rmat};

    fn graph(scale: u32) -> PropertyGraph<Vec<f64>, f64> {
        let list = Rmat::new(scale, 6.0).generate(3);
        PropertyGraph::from_edge_list(list, Vec::new()).unwrap()
    }

    #[test]
    fn computes_correct_sssp_on_one_gpu() {
        let g = graph(9);
        let algorithm = MultiSourceSssp::new(vec![0, 1]);
        let mut engine = GunrockLike::new(presets::gpu_v100("g0"));
        let (report, values) = engine.run(&g, &algorithm, "rmat", 500).unwrap();
        assert!(report.converged);
        assert_eq!(report.system, "Gunrock");
        let expected = multi_source_sssp_reference(&g, &[0, 1]);
        for (v, (got, want)) in values.iter().zip(&expected).enumerate() {
            for (g_d, w_d) in got.iter().zip(want) {
                let same = (g_d.is_infinite() && w_d.is_infinite()) || (g_d - w_d).abs() < 1e-9;
                assert!(same, "vertex {v}");
            }
        }
    }

    #[test]
    fn out_of_memory_on_graphs_larger_than_device_memory() {
        // Build a graph with more edges than the GPU preset can hold.
        let list = Rmat::new(14, 16.0).generate(1); // ~262k edges > 250k capacity
        let g: PropertyGraph<Vec<f64>, f64> =
            PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
        let algorithm = MultiSourceSssp::new(vec![0]);
        let mut engine = GunrockLike::new(presets::gpu_v100("g0"));
        assert!(matches!(
            engine.run(&g, &algorithm, "big", 10),
            Err(AccelError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn pagerank_is_bit_identical_from_run_to_run() {
        let list = Rmat::new(10, 8.0).generate(1);
        let rank = RankValue {
            rank: 1.0,
            out_degree: 0,
        };
        let g = PropertyGraph::from_edge_list(list, rank).unwrap();
        let ranks = || {
            let mut engine = GunrockLike::new(presets::gpu_v100("g0"));
            let (_, values) = engine.run(&g, &PageRank::new(10), "rmat", 10).unwrap();
            values
                .iter()
                .map(|value| value.rank.to_bits())
                .collect::<Vec<_>>()
        };
        let first = ranks();
        for _ in 0..4 {
            assert_eq!(ranks(), first);
        }
    }

    #[test]
    fn setup_includes_device_init_and_bulk_copy() {
        let g = graph(8);
        let algorithm = MultiSourceSssp::new(vec![0]);
        let mut engine = GunrockLike::new(presets::gpu_v100("g0"));
        let (report, _) = engine.run(&g, &algorithm, "rmat", 100).unwrap();
        assert!(report.setup > presets::gpu_v100_cost().init);
    }
}
