//! Lux-like baseline: a distributed multi-GPU engine.
//!
//! Lux [Jia et al., VLDB'17] distributes the graph across GPUs on multiple
//! nodes and optimises GPU-internal execution aggressively.  The paper
//! characterises the difference to GX-Plug as a matter of technology pathway:
//! "the former focuses on exploiting GPU internal mechanisms, while the latter
//! explores more optimizations on the upper system end, e.g., synchronization
//! skipping" (§V-B1).  This baseline therefore
//!
//! * keeps each partition fully resident in its GPU(s) (no per-iteration
//!   download/upload, but an out-of-memory failure when a partition exceeds
//!   device memory),
//! * executes kernels with a small efficiency edge over the GX-Plug daemons
//!   (Lux's hand-tuned kernels), and
//! * performs an **eager, full synchronisation every iteration**: every
//!   updated vertex is broadcast to every other node, with no caching, lazy
//!   uploading or skipping.

use crate::sim_daemon;
use gxplug_accel::{AccelError, DeviceSpec, SimDuration};
use gxplug_core::{merge_addressed, Daemon};
use gxplug_engine::cluster::{Cluster, NodeComputeOutput, SyncPolicy};
use gxplug_engine::metrics::RunReport;
use gxplug_engine::network::NetworkModel;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::partition::Partitioning;
use gxplug_ipc::blocks::triplet_block_views;
use std::marker::PhantomData;

/// Fraction by which Lux's hand-tuned kernels beat the generic daemon kernels
/// on the same device (GPU-internal optimisation edge).
const KERNEL_EFFICIENCY_EDGE: f64 = 0.85;

/// The runtime profile Lux presents to the cluster driver: a lean native
/// engine without a managed runtime, but with expensive, uncached
/// synchronisation (it re-ships every updated vertex to every node).
fn lux_profile() -> RuntimeProfile {
    RuntimeProfile {
        name: "Lux",
        per_item_sync: SimDuration::from_millis(0.0009),
        per_iteration_overhead: SimDuration::from_millis(3.0),
        ..RuntimeProfile::powergraph()
    }
}

/// A Lux-like distributed multi-GPU engine.
#[derive(Debug)]
pub struct LuxLike {
    devices_per_node: Vec<Vec<Daemon>>,
    network: NetworkModel,
}

impl LuxLike {
    /// Creates the engine with the given device assignment (one spec list
    /// per distributed node) and interconnect.  Like the Gunrock baseline,
    /// Lux always executes on one thread per device
    /// ([`BackendKind::Sim`](gxplug_accel::BackendKind::Sim)).
    pub fn new(devices_per_node: Vec<Vec<DeviceSpec>>, network: NetworkModel) -> Self {
        assert!(
            devices_per_node.iter().all(|d| !d.is_empty()),
            "every Lux node needs at least one device"
        );
        Self {
            devices_per_node: devices_per_node
                .into_iter()
                .enumerate()
                .map(|(node_id, node)| {
                    node.into_iter()
                        .enumerate()
                        .map(|(index, spec)| sim_daemon(spec, node_id, index))
                        .collect()
                })
                .collect(),
            network,
        }
    }

    /// Number of distributed nodes.
    pub fn num_nodes(&self) -> usize {
        self.devices_per_node.len()
    }

    /// Runs `algorithm` over the partitioned graph.
    ///
    /// Fails with [`AccelError::OutOfMemory`] if any node's partition does not
    /// fit in the aggregate memory of that node's devices (Lux keeps the whole
    /// partition device-resident).  A node with any device of unbounded
    /// memory holds every partition.
    pub fn run<V, E, A>(
        &mut self,
        graph: &PropertyGraph<V, E>,
        partitioning: Partitioning,
        algorithm: &A,
        dataset: &str,
        max_iterations: usize,
    ) -> Result<(RunReport, Vec<V>), AccelError>
    where
        V: Clone + PartialEq + Send + Sync,
        E: Clone + Send + Sync,
        A: GraphAlgorithm<V, E>,
    {
        assert_eq!(
            self.devices_per_node.len(),
            partitioning.num_parts(),
            "one device list per partition is required"
        );
        // Residency check: a node's partition must fit in its devices.
        for (node_id, devices) in self.devices_per_node.iter().enumerate() {
            let partition_edges = partitioning.part(node_id).edges.len();
            // `None` (unbounded) if any device is.
            let capacity: Option<usize> = devices
                .iter()
                .map(|d| d.backend().cost_model().memory_capacity_items)
                .sum();
            if let Some(capacity) = capacity.filter(|&capacity| partition_edges > capacity) {
                return Err(AccelError::OutOfMemory {
                    requested: partition_edges,
                    capacity,
                    device: format!("lux-node{node_id}"),
                });
            }
        }
        let profile = lux_profile();
        let mut cluster = Cluster::build(graph, partitioning, algorithm, profile, self.network);
        // Device initialisation plus the bulk copy of each partition.
        let mut setup = SimDuration::ZERO;
        for (node_id, devices) in self.devices_per_node.iter_mut().enumerate() {
            let partition_edges = cluster.node(node_id).num_edges();
            let share = partition_edges / devices.len().max(1);
            let mut node_setup = SimDuration::ZERO;
            for device in devices.iter_mut() {
                node_setup += device.start();
                node_setup += device.backend().cost_model().copy_time(share);
            }
            setup = setup.max(node_setup);
        }
        let devices_per_node = &mut self.devices_per_node;
        let report = cluster.run_custom(
            algorithm,
            dataset,
            "Lux",
            max_iterations,
            SyncPolicy::AlwaysSync,
            setup,
            |node, iteration| {
                lux_node_compute(node, algorithm, &mut devices_per_node[node.id()], iteration)
            },
        );
        let values = cluster.collect_values();
        Ok((report, values))
    }
}

/// One Lux node-iteration: run `MSGGen` over the active triplets directly on
/// the node's devices (the partition is already resident) and merge locally.
fn lux_node_compute<V, E, A>(
    node: &mut gxplug_engine::node::NodeState<V, E>,
    algorithm: &A,
    devices: &mut [Daemon],
    iteration: usize,
) -> NodeComputeOutput<V, A::Msg>
where
    V: Clone + Sync,
    E: Clone + Sync,
    A: GraphAlgorithm<V, E>,
{
    let triplets = node.active_triplets();
    if triplets.is_empty() {
        return NodeComputeOutput::idle();
    }
    // Split evenly across the node's devices; the slowest share bounds the
    // node's compute time.
    let per_device = triplets.len().div_ceil(devices.len());
    let mut compute_time = SimDuration::ZERO;
    let mut raw_messages = Vec::new();
    for (device, block) in devices
        .iter_mut()
        .zip(triplet_block_views(&triplets, per_device))
    {
        let cost = *device.backend().cost_model();
        let items = block.len();
        device
            .execute_gen_into(algorithm, block, iteration, &mut raw_messages)
            .expect("residency was checked before the run");
        // No PCIe copies per iteration (data is resident); only launch and
        // compute, scaled by Lux's kernel efficiency edge.
        let share_time = (cost.call + cost.compute_time(items)) * KERNEL_EFFICIENCY_EDGE;
        compute_time = compute_time.max(share_time);
    }
    NodeComputeOutput {
        compute_time,
        middleware_time: SimDuration::ZERO,
        triplets_processed: triplets.len(),
        // Local merge (MSGMerge equivalent) before the eager global exchange.
        messages: merge_addressed(algorithm, raw_messages),
        vertex_type: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_accel::presets;
    use gxplug_algos::reference::multi_source_sssp_reference;
    use gxplug_algos::MultiSourceSssp;
    use gxplug_graph::generators::{Generator, Rmat};
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};

    fn graph() -> PropertyGraph<Vec<f64>, f64> {
        let list = Rmat::new(10, 6.0).generate(5);
        PropertyGraph::from_edge_list(list, Vec::new()).unwrap()
    }

    fn gpus(nodes: usize, per_node: usize) -> Vec<Vec<DeviceSpec>> {
        (0..nodes)
            .map(|n| {
                (0..per_node)
                    .map(|g| presets::gpu_v100(format!("lux-n{n}g{g}")))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lux_computes_correct_results_across_nodes() {
        let g = graph();
        let algorithm = MultiSourceSssp::new(vec![0, 1, 2, 3]);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&g, 2)
            .unwrap();
        let mut lux = LuxLike::new(gpus(2, 1), NetworkModel::datacenter());
        let (report, values) = lux.run(&g, partitioning, &algorithm, "rmat", 500).unwrap();
        assert!(report.converged);
        assert_eq!(report.system, "Lux");
        let expected = multi_source_sssp_reference(&g, &[0, 1, 2, 3]);
        for (v, (got, want)) in values.iter().zip(&expected).enumerate() {
            for (g_d, w_d) in got.iter().zip(want) {
                let same = (g_d.is_infinite() && w_d.is_infinite()) || (g_d - w_d).abs() < 1e-9;
                assert!(same, "vertex {v}");
            }
        }
    }

    #[test]
    fn lux_never_skips_synchronisation() {
        let g = graph();
        let algorithm = MultiSourceSssp::new(vec![0]);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&g, 3)
            .unwrap();
        let mut lux = LuxLike::new(gpus(3, 1), NetworkModel::datacenter());
        let (report, _) = lux.run(&g, partitioning, &algorithm, "rmat", 500).unwrap();
        assert_eq!(report.skipped_iterations(), 0);
    }

    #[test]
    fn lux_oom_when_a_partition_exceeds_node_memory() {
        let list = Rmat::new(14, 16.0).generate(2); // ~262k edges
        let g: PropertyGraph<Vec<f64>, f64> =
            PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
        let algorithm = MultiSourceSssp::new(vec![0]);
        // One node, one GPU: the whole graph must fit in a single device.
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&g, 1)
            .unwrap();
        let mut lux = LuxLike::new(gpus(1, 1), NetworkModel::datacenter());
        assert!(matches!(
            lux.run(&g, partitioning, &algorithm, "big", 10),
            Err(AccelError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn a_node_with_unbounded_devices_holds_any_partition() {
        // Three unbounded CPUs on one node: their capacity is unbounded, not
        // a sum that overflows.
        let g = graph();
        let algorithm = MultiSourceSssp::new(vec![0]);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&g, 1)
            .unwrap();
        let cpus = (0..3)
            .map(|c| presets::cpu_xeon_20c(format!("lux-c{c}")))
            .collect();
        let mut lux = LuxLike::new(vec![cpus], NetworkModel::datacenter());
        let (report, values) = lux.run(&g, partitioning, &algorithm, "rmat", 500).unwrap();
        assert!(report.converged);
        assert_eq!(values, multi_source_sssp_reference(&g, &[0]));
    }

    #[test]
    #[should_panic]
    fn every_node_needs_a_device() {
        let _ = LuxLike::new(
            vec![vec![], vec![presets::gpu_v100("g")]],
            NetworkModel::ideal(),
        );
    }
}
