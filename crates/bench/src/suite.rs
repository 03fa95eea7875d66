//! Experiment dispatch: one call per (algorithm, upper system, accelerator,
//! dataset) combination, returning the engine's [`RunReport`].

use gxplug_accel::{presets, AccelError, DeviceSpec};
use gxplug_algos::{LabelPropagation, MultiSourceSssp, PageRank};
use gxplug_baselines::{GunrockLike, LuxLike};
use gxplug_core::{MiddlewareConfig, RunOutcome, SessionBuilder};
use gxplug_engine::metrics::RunReport;
use gxplug_engine::network::NetworkModel;
use gxplug_engine::profile::RuntimeProfile;
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

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
            let graph = spec
                .dataset
                .build_graph(
                    spec.scale,
                    spec.seed,
                    gxplug_algos::RankValue {
                        rank: 1.0,
                        out_degree: 0,
                    },
                )
                .expect("dataset analogue generation cannot fail");
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
    A: gxplug_engine::template::GraphAlgorithm<V, f64>,
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

/// Runs PageRank on the Lux-like baseline with `num_nodes` nodes and
/// `gpus_per_node` GPUs each.
pub fn run_lux_pagerank(
    dataset: &DatasetSpec,
    scale: Scale,
    seed: u64,
    num_nodes: usize,
    gpus_per_node: usize,
) -> Result<RunReport, AccelError> {
    let graph = dataset
        .build_graph(
            scale,
            seed,
            gxplug_algos::RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        )
        .expect("dataset analogue generation cannot fail");
    let partitioning = default_partitioning(&graph, num_nodes);
    let devices: Vec<Vec<DeviceSpec>> = (0..num_nodes)
        .map(|n| {
            (0..gpus_per_node)
                .map(|g| presets::gpu_v100(format!("lux-n{n}g{g}")))
                .collect()
        })
        .collect();
    let mut lux = LuxLike::new(devices, NetworkModel::datacenter());
    let algorithm = PageRank::new(20);
    lux.run(&graph, partitioning, &algorithm, dataset.name, 20)
        .map(|(report, _)| report)
}

/// Runs PageRank on the Gunrock-like single-GPU baseline.
pub fn run_gunrock_pagerank(
    dataset: &DatasetSpec,
    scale: Scale,
    seed: u64,
) -> Result<RunReport, AccelError> {
    let graph = dataset
        .build_graph(
            scale,
            seed,
            gxplug_algos::RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        )
        .expect("dataset analogue generation cannot fail");
    let mut gunrock = GunrockLike::new(presets::gpu_v100("gunrock-gpu"));
    let algorithm = PageRank::new(20);
    gunrock
        .run(&graph, &algorithm, dataset.name, 20)
        .map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_core::{ExecutionMode, PipelineMode};
    use gxplug_graph::datasets;

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

    #[test]
    fn accel_labels_and_algo_labels() {
        assert_eq!(Accel::Gpu(2).suffix(), "+GPU");
        assert_eq!(Accel::None.suffix(), "");
        assert_eq!(Algo::all().len(), 3);
        assert_eq!(Algo::PageRank.label(), "PR");
    }
}
