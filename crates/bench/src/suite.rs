//! Experiment dispatch: one call per (algorithm, upper system, accelerator,
//! dataset) combination, returning the engine's [`RunReport`].

use gxplug_accel::{presets, AccelError, CostModel, DeviceSpec, SimDuration};
use gxplug_algos::{LabelPropagation, MultiSourceSssp, PageRank, RankValue};
use gxplug_core::{MiddlewareConfig, RunOutcome, SessionBuilder};
use gxplug_engine::cluster::{native_node_compute, Cluster, SyncPolicy};
use gxplug_engine::metrics::RunReport;
use gxplug_engine::network::NetworkModel;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::datasets::{DatasetSpec, Scale};
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner, Partitioning};

/// The graph algorithms exercised by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Multi-source Bellman-Ford (4 sources, as in the paper).
    Sssp,
    /// PageRank, 20 iterations.
    PageRank,
    /// Label propagation, capped at 15 iterations.
    Lp,
}

impl Algo {
    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Sssp => "SSSP",
            Algo::PageRank => "PR",
            Algo::Lp => "LP",
        }
    }

    /// All three algorithms in the order the figures list them.
    pub fn all() -> [Algo; 3] {
        [Algo::Lp, Algo::Sssp, Algo::PageRank]
    }
}

/// The upper (distributed) system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upper {
    /// GraphX-like (JVM, BSP).
    GraphX,
    /// PowerGraph-like (C++, GAS).
    PowerGraph,
}

impl Upper {
    /// The runtime profile of this upper system.
    pub fn profile(&self) -> RuntimeProfile {
        match self {
            Upper::GraphX => RuntimeProfile::graphx(),
            Upper::PowerGraph => RuntimeProfile::powergraph(),
        }
    }
}

/// The accelerator configuration plugged in through GX-Plug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accel {
    /// No accelerators: the upper system runs natively.
    None,
    /// `n` CPU accelerators per node.
    Cpu(usize),
    /// `n` GPU accelerators per node.
    Gpu(usize),
}

impl Accel {
    /// Suffix used in system labels ("", "+CPU", "+GPU").
    pub fn suffix(&self) -> &'static str {
        match self {
            Accel::None => "",
            Accel::Cpu(_) => "+CPU",
            Accel::Gpu(_) => "+GPU",
        }
    }
}

/// A full experiment specification.
#[derive(Debug, Clone)]
pub struct ComboSpec {
    /// Algorithm to run.
    pub algo: Algo,
    /// Upper system.
    pub upper: Upper,
    /// Accelerator configuration.
    pub accel: Accel,
    /// Dataset (from the Table I catalogue).
    pub dataset: &'static DatasetSpec,
    /// Synthetic-analogue scale.
    pub scale: Scale,
    /// Number of distributed nodes.
    pub num_nodes: usize,
    /// Middleware configuration (ignored for native runs).
    pub config: MiddlewareConfig,
    /// RNG seed for the dataset analogue.
    pub seed: u64,
    /// Iteration cap for frontier algorithms (SSSP); PR/LP use their own caps.
    pub max_iterations: usize,
}

impl ComboSpec {
    /// A specification with the defaults used throughout the harness.
    pub fn new(algo: Algo, upper: Upper, accel: Accel, dataset: &'static DatasetSpec) -> Self {
        Self {
            algo,
            upper,
            accel,
            dataset,
            scale: Scale::Small,
            num_nodes: 6,
            config: MiddlewareConfig::default(),
            seed: crate::DEFAULT_SEED,
            max_iterations: 100,
        }
    }

    /// Sets the scale.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the number of distributed nodes.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.num_nodes = nodes;
        self
    }

    /// Sets the middleware configuration.
    pub fn with_config(mut self, config: MiddlewareConfig) -> Self {
        self.config = config;
        self
    }
}

/// Builds the per-node device lists for an [`Accel`] configuration.
pub fn devices_for(accel: Accel, num_nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..num_nodes)
        .map(|node| match accel {
            Accel::None => Vec::new(),
            Accel::Cpu(n) => (0..n)
                .map(|i| presets::cpu_xeon_20c(format!("node{node}-cpu{i}")))
                .collect(),
            Accel::Gpu(n) => (0..n)
                .map(|i| presets::gpu_v100(format!("node{node}-gpu{i}")))
                .collect(),
        })
        .collect()
}

/// Partitions a graph with the default strategy of the evaluation
/// (PowerGraph-style greedy vertex cut).
pub fn default_partitioning<V, E>(graph: &PropertyGraph<V, E>, num_nodes: usize) -> Partitioning {
    GreedyVertexCutPartitioner::default()
        .partition(graph, num_nodes)
        .expect("partitioning a non-empty graph cannot fail")
}

/// Runs one experiment combination and returns the cluster-level report.
pub fn run_combo(spec: &ComboSpec) -> RunReport {
    match spec.algo {
        Algo::Sssp => {
            let algorithm = MultiSourceSssp::paper_default();
            let graph = spec
                .dataset
                .build_graph(spec.scale, spec.seed, Vec::new())
                .expect("dataset analogue generation cannot fail");
            run_generic(spec, &graph, &algorithm, spec.max_iterations)
        }
        Algo::PageRank => {
            let algorithm = PageRank::new(20);
            let graph = pagerank_graph(spec.dataset, spec.scale, spec.seed);
            run_generic(spec, &graph, &algorithm, 20)
        }
        Algo::Lp => {
            let algorithm = LabelPropagation::paper_default();
            let graph = spec
                .dataset
                .build_graph(spec.scale, spec.seed, 0u32)
                .expect("dataset analogue generation cannot fail");
            run_generic(spec, &graph, &algorithm, 15)
        }
    }
}

fn run_generic<V, A>(
    spec: &ComboSpec,
    graph: &PropertyGraph<V, f64>,
    algorithm: &A,
    max_iterations: usize,
) -> RunReport
where
    V: Clone + PartialEq + Send + Sync,
    A: GraphAlgorithm<V, f64>,
{
    let partitioning = default_partitioning(graph, spec.num_nodes);
    // Native runs deploy no devices at all; accelerated runs plug one list
    // per node.
    let devices = match spec.accel {
        Accel::None => Vec::new(),
        accel => devices_for(accel, spec.num_nodes),
    };
    let mut session = SessionBuilder::new(graph)
        .partitioned_by(partitioning)
        .profile(spec.upper.profile())
        .network(NetworkModel::datacenter())
        .devices(devices)
        .config(spec.config)
        .dataset(spec.dataset.name)
        .max_iterations(max_iterations)
        .build()
        .expect("a valid experiment deployment");
    let outcome: RunOutcome<V> = match spec.accel {
        Accel::None => session.run_native(algorithm),
        _ => session
            .run(algorithm)
            .expect("accelerated specs plug devices into every node"),
    };
    outcome.report
}

/// A PageRank graph of `dataset`'s analogue.
fn pagerank_graph(dataset: &DatasetSpec, scale: Scale, seed: u64) -> PropertyGraph<RankValue, f64> {
    let rank = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    dataset
        .build_graph(scale, seed, rank)
        .expect("dataset analogue generation cannot fail")
}

/// Runs PageRank on the Lux-like baseline with `num_nodes` nodes and
/// `gpus_per_node` GPUs each.
pub fn run_lux_pagerank(
    dataset: &DatasetSpec,
    scale: Scale,
    seed: u64,
    num_nodes: usize,
    gpus_per_node: usize,
) -> Result<RunReport, AccelError> {
    let graph = pagerank_graph(dataset, scale, seed);
    let partitioning = default_partitioning(&graph, num_nodes);
    let gpus = vec![vec![presets::gpu_v100_cost(); gpus_per_node]; num_nodes];
    run_lux(
        &graph,
        partitioning,
        &PageRank::new(20),
        &gpus,
        dataset.name,
        20,
    )
}

/// Runs PageRank on the Gunrock-like single-GPU baseline.
pub fn run_gunrock_pagerank(
    dataset: &DatasetSpec,
    scale: Scale,
    seed: u64,
) -> Result<RunReport, AccelError> {
    let graph = pagerank_graph(dataset, scale, seed);
    let gpu = presets::gpu_v100_cost();
    run_gunrock(&graph, &PageRank::new(20), gpu, dataset.name, 20)
}

/// Fraction of a generic kernel's time that Lux's hand-tuned kernels take
/// on the same device (its GPU-internal optimisation edge).
const LUX_KERNEL_EFFICIENCY: f64 = 0.85;

/// Lux [Jia et al., VLDB'17]: a distributed multi-GPU engine that keeps
/// each partition resident in its node's devices and synchronises eagerly,
/// every vertex update to every node, with no caching or skipping (§V-B1).
/// Its upper system is lean but its synchronisation is expensive.
fn lux_profile() -> RuntimeProfile {
    RuntimeProfile {
        name: "Lux",
        per_item_sync: SimDuration::from_millis(0.0009),
        per_iteration_overhead: SimDuration::from_millis(3.0),
        ..RuntimeProfile::powergraph()
    }
}

/// Runs `algorithm` on the Lux-like baseline: the native run's work on
/// `partitioning`, with one list of device cost models per node.
///
/// Fails with [`AccelError::OutOfMemory`] if a node's partition exceeds the
/// summed memory of its devices; a node with any unbounded device holds
/// every partition.
fn run_lux<V, A>(
    graph: &PropertyGraph<V, f64>,
    partitioning: Partitioning,
    algorithm: &A,
    devices: &[Vec<CostModel>],
    dataset: &str,
    max_iterations: usize,
) -> Result<RunReport, AccelError>
where
    V: Clone + PartialEq + Send + Sync,
    A: GraphAlgorithm<V, f64>,
{
    assert_eq!(
        devices.len(),
        partitioning.num_parts(),
        "one device list per node"
    );
    for (node_id, costs) in devices.iter().enumerate() {
        let edges = partitioning.part(node_id).edges.len();
        let capacity: Option<usize> = costs.iter().map(|cost| cost.memory_capacity_items).sum();
        if let Some(capacity) = capacity.filter(|&capacity| edges > capacity) {
            return Err(AccelError::OutOfMemory {
                requested: edges,
                capacity,
                device: format!("lux-node{node_id}"),
            });
        }
    }
    let profile = lux_profile();
    let mut cluster = Cluster::build(
        graph,
        partitioning,
        algorithm,
        profile,
        NetworkModel::datacenter(),
    );
    // Each device initialises and receives one bulk copy of its share of the
    // node's partition; the slowest node bounds the setup.
    let setup = (devices.iter().enumerate())
        .map(|(node_id, costs)| {
            let share = cluster.node(node_id).num_edges() / costs.len().max(1);
            (costs.iter()).fold(SimDuration::ZERO, |time, cost| {
                time + cost.init + cost.copy_time(share)
            })
        })
        .fold(SimDuration::ZERO, SimDuration::max);
    // The node's triplets split evenly over its devices, with no copies (the
    // data is resident); the slowest share bounds the node.
    let price = |node: usize, triplets: usize, _messages: usize| {
        let costs = &devices[node];
        if triplets == 0 {
            return SimDuration::ZERO;
        }
        let per_device = triplets.div_ceil(costs.len());
        ((0..triplets).step_by(per_device).zip(costs))
            .map(|(start, cost)| {
                let items = per_device.min(triplets - start);
                (cost.call + cost.compute_time(items)) * LUX_KERNEL_EFFICIENCY
            })
            .fold(SimDuration::ZERO, SimDuration::max)
    };
    Ok(run_priced(
        &mut cluster,
        algorithm,
        &profile,
        dataset,
        max_iterations,
        setup,
        price,
    ))
}

/// Runs `algorithm` on the Gunrock-like baseline [Wang et al., PPoPP'16]: the
/// whole graph resident in one GPU with cost model `gpu`, the native run's
/// work on one part, no distribution overhead.
///
/// Fails with [`AccelError::OutOfMemory`] if the edge set exceeds the GPU's
/// memory.
fn run_gunrock<V, A>(
    graph: &PropertyGraph<V, f64>,
    algorithm: &A,
    gpu: CostModel,
    dataset: &str,
    max_iterations: usize,
) -> Result<RunReport, AccelError>
where
    V: Clone + PartialEq + Send + Sync,
    A: GraphAlgorithm<V, f64>,
{
    let edges = graph.num_edges();
    if gpu.exceeds_memory(edges) {
        return Err(AccelError::OutOfMemory {
            requested: edges,
            capacity: gpu.memory_capacity_items.unwrap_or(0),
            device: "gunrock-gpu".to_string(),
        });
    }
    // Merging and applying run in fused device kernels, priced below, and
    // one GPU needs no upper-system scheduling.
    let profile = RuntimeProfile {
        name: "Gunrock",
        per_apply: SimDuration::ZERO,
        per_iteration_overhead: SimDuration::ZERO,
        ..RuntimeProfile::powergraph()
    };
    let mut cluster = Cluster::build(
        graph,
        default_partitioning(graph, 1),
        algorithm,
        profile,
        NetworkModel::ideal(),
    );
    // Device initialisation and one bulk copy of the graph.
    let setup = gpu.init + gpu.copy_time(edges);
    // A launch and the kernel over the frontier's edges, then the apply of
    // each merged message at the device's per-item rate.
    let price = |_node: usize, triplets: usize, messages: usize| {
        gpu.call + gpu.compute_time(triplets) + gpu.compute_time(messages)
    };
    Ok(run_priced(
        &mut cluster,
        algorithm,
        &profile,
        dataset,
        max_iterations,
        setup,
        price,
    ))
}

/// A baseline's run: the native run's work on `cluster` (`MSGGen` and
/// `MSGMerge` per node, eager synchronisation every superstep), with each
/// node-iteration's compute time `price(node, triplets, merged messages)`.
fn run_priced<V, A>(
    cluster: &mut Cluster<V, f64>,
    algorithm: &A,
    profile: &RuntimeProfile,
    dataset: &str,
    max_iterations: usize,
    setup: SimDuration,
    price: impl Fn(usize, usize, usize) -> SimDuration,
) -> RunReport
where
    V: Clone + PartialEq + Send + Sync,
    A: GraphAlgorithm<V, f64>,
{
    cluster.run_custom(
        algorithm,
        dataset,
        profile.name,
        max_iterations,
        SyncPolicy::AlwaysSync,
        setup,
        |node, iteration| {
            let mut output = native_node_compute(node, algorithm, profile, iteration);
            output.compute_time =
                price(node.id(), output.triplets_processed, output.messages.len());
            output
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_core::{ExecutionMode, PipelineMode};
    use gxplug_graph::datasets;
    use gxplug_graph::generators::{Generator, Rmat};

    #[test]
    fn combos_run_end_to_end_at_tiny_scale() {
        let dataset = datasets::find("Wiki-topcats").unwrap();
        for (algo, upper) in [
            (Algo::Sssp, Upper::PowerGraph),
            (Algo::PageRank, Upper::GraphX),
        ] {
            for accel in [Accel::None, Accel::Cpu(1), Accel::Gpu(1)] {
                let spec = ComboSpec::new(algo, upper, accel, dataset)
                    .with_scale(Scale::Tiny)
                    .with_nodes(2);
                let report = run_combo(&spec);
                assert!(report.num_iterations() > 0, "{algo:?} {accel:?}");
                assert!(report.total_time().as_millis() > 0.0, "{algo:?} {accel:?}");
            }
        }
    }

    #[test]
    fn every_middleware_ablation_arm_does_the_same_work() {
        // Each arm toggles one of the paper's middleware features off, all
        // on the threaded execution mode; none may change what is computed.
        let mode = ExecutionMode::Threaded;
        let arms = [
            MiddlewareConfig::optimized(),
            MiddlewareConfig::optimized().with_pipeline(PipelineMode::Disabled),
            MiddlewareConfig::optimized().with_caching(false),
            MiddlewareConfig::optimized().with_skipping(false),
            MiddlewareConfig::baseline(),
        ];
        let dataset = datasets::find("Orkut").unwrap();
        let reports: Vec<RunReport> = arms
            .into_iter()
            .map(|config| {
                run_combo(
                    &ComboSpec::new(Algo::Sssp, Upper::PowerGraph, Accel::Gpu(1), dataset)
                        .with_scale(Scale::Tiny)
                        .with_nodes(2)
                        .with_config(config.with_execution(mode)),
                )
            })
            .collect();
        for report in &reports {
            assert!(report.converged);
            assert_eq!(report.num_iterations(), reports[0].num_iterations());
            assert_eq!(report.total_triplets(), reports[0].total_triplets());
            assert!(report.total_time().as_millis() > 0.0);
        }
    }

    #[test]
    fn gpu_runs_are_faster_than_native_at_small_scale_excluding_setup() {
        // At Tiny scale the fixed per-iteration overheads dominate and GPU
        // acceleration is a wash (as it would be on a toy graph in reality);
        // from Small scale upward the compute term dominates and the GPU wins.
        let dataset = datasets::find("Orkut").unwrap();
        let native = run_combo(
            &ComboSpec::new(Algo::Lp, Upper::PowerGraph, Accel::None, dataset)
                .with_scale(Scale::Small)
                .with_nodes(2),
        );
        let gpu = run_combo(
            &ComboSpec::new(Algo::Lp, Upper::PowerGraph, Accel::Gpu(1), dataset)
                .with_scale(Scale::Small)
                .with_nodes(2),
        );
        let gpu_iter_time = gpu.total_time() - gpu.setup;
        assert!(
            gpu_iter_time < native.total_time(),
            "gpu {gpu_iter_time:?} vs native {:?}",
            native.total_time()
        );
    }

    #[test]
    fn baseline_helpers_run_at_tiny_scale() {
        let dataset = datasets::find("Orkut").unwrap();
        let lux = run_lux_pagerank(dataset, Scale::Tiny, 1, 2, 1).unwrap();
        assert_eq!(lux.system, "Lux");
        let gunrock = run_gunrock_pagerank(dataset, Scale::Tiny, 1).unwrap();
        assert_eq!(gunrock.system, "Gunrock");
    }

    fn rmat_sssp_graph(log2: u32, edges_per_vertex: f64) -> PropertyGraph<Vec<f64>, f64> {
        let list = Rmat::new(log2, edges_per_vertex).generate(5);
        PropertyGraph::from_edge_list(list, Vec::new()).unwrap()
    }

    /// Each superstep's `(triplets_processed, active_vertices)`.
    fn work(report: &RunReport) -> Vec<(usize, usize)> {
        (report.iterations.iter())
            .map(|it| (it.triplets_processed, it.active_vertices))
            .collect()
    }

    #[test]
    fn gunrock_is_out_of_memory_when_the_graph_exceeds_one_gpu() {
        // ~262k edges, over the V100 preset's 250k items.
        let graph = rmat_sssp_graph(14, 16.0);
        let gpu = presets::gpu_v100_cost();
        assert!(graph.num_edges() > presets::GPU_MEMORY_ITEMS);
        let algorithm = MultiSourceSssp::new(vec![0]);
        assert!(matches!(
            run_gunrock(&graph, &algorithm, gpu, "big", 10),
            Err(AccelError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn lux_is_out_of_memory_when_a_one_node_partition_exceeds_one_gpu() {
        let graph = rmat_sssp_graph(10, 6.0);
        let edges = graph.num_edges();
        let gpu = CostModel {
            memory_capacity_items: Some(edges - 1),
            ..presets::gpu_v100_cost()
        };
        let result = run_lux(
            &graph,
            default_partitioning(&graph, 1),
            &MultiSourceSssp::new(vec![0]),
            &[vec![gpu]],
            "big",
            10,
        );
        assert!(matches!(
            result,
            Err(AccelError::OutOfMemory { requested, capacity, .. })
                if requested == edges && capacity == edges - 1
        ));
    }

    #[test]
    fn a_lux_node_with_unbounded_cpus_holds_any_partition() {
        // Three unbounded CPUs: their capacity is unbounded, not a sum that
        // overflows.
        let graph = rmat_sssp_graph(10, 6.0);
        let cpus = vec![presets::cpu_xeon_20c_cost(); 3];
        let report = run_lux(
            &graph,
            default_partitioning(&graph, 1),
            &MultiSourceSssp::new(vec![0]),
            &[cpus],
            "rmat",
            500,
        )
        .unwrap();
        assert!(report.converged);
    }

    #[test]
    fn lux_never_skips_a_sync() {
        let graph = rmat_sssp_graph(10, 6.0);
        let report = run_lux(
            &graph,
            default_partitioning(&graph, 3),
            &MultiSourceSssp::new(vec![0]),
            &vec![vec![presets::gpu_v100_cost()]; 3],
            "rmat",
            500,
        )
        .unwrap();
        assert!(report.num_iterations() > 1);
        assert_eq!(report.skipped_iterations(), 0);
    }

    #[test]
    fn baselines_do_the_native_runs_work() {
        let graph = rmat_sssp_graph(10, 6.0);
        let algorithm = MultiSourceSssp::new(vec![0, 1, 2, 3]);
        let native = |parts: usize| {
            let mut cluster = Cluster::build(
                &graph,
                default_partitioning(&graph, parts),
                &algorithm,
                RuntimeProfile::powergraph(),
                NetworkModel::datacenter(),
            );
            cluster.run_native_mode(&algorithm, "rmat", 500, ExecutionMode::Serial)
        };

        let gpu = presets::gpu_v100_cost();
        let gunrock = run_gunrock(&graph, &algorithm, gpu, "rmat", 500).unwrap();
        assert_eq!((gunrock.system.as_str(), gunrock.num_nodes), ("Gunrock", 1));
        assert_eq!(work(&gunrock), work(&native(1)));
        assert_eq!(gunrock.setup, gpu.init + gpu.copy_time(graph.num_edges()));

        let gpus = vec![vec![gpu; 2]; 3];
        let partitioning = default_partitioning(&graph, 3);
        let lux = run_lux(&graph, partitioning, &algorithm, &gpus, "rmat", 500).unwrap();
        assert_eq!((lux.system.as_str(), lux.num_nodes), ("Lux", 3));
        assert_eq!(work(&lux), work(&native(3)));
        assert!(lux.converged);
    }

    #[test]
    fn accel_labels_and_algo_labels() {
        assert_eq!(Accel::Gpu(2).suffix(), "+GPU");
        assert_eq!(Accel::None.suffix(), "");
        assert_eq!(Algo::all().len(), 3);
        assert_eq!(Algo::PageRank.label(), "PR");
    }
}
