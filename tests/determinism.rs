//! Serial vs threaded determinism, and session-reuse determinism.
//!
//! The threaded runtime (small supersteps inline, large ones on parked node
//! workers) must be a pure scheduling change: a
//! threaded session run has to produce **bit-identical** vertex values,
//! iteration counts and middleware data-movement counters to the serial
//! mode, whichever side of the fan-out floor its supersteps fall on.
//! PageRank exercises floating-point *sum* merging (where any reordering
//! would show up in the last bits) and SSSP exercises frontier-driven min
//! merging.
//!
//! Session reuse must be a pure *deployment* change as well: running twice
//! on one deployed [`Session`] has to be bit-identical to two fresh one-shot
//! runs — only the amortised setup cost may differ.
//!
//! Both guarantees now run on the zero-copy triplet path (borrowed blocks,
//! range shares, pooled buffers); `tests/zero_copy.rs` additionally proves
//! that path performs exactly one attribute clone per processed triplet in
//! each execution mode.

use gx_plug::prelude::*;

fn mixed_devices(nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..nodes)
        .map(|n| {
            vec![
                gpu_v100(format!("n{n}-gpu")),
                cpu_xeon_20c(format!("n{n}-cpu")),
            ]
        })
        .collect()
}

/// Runs the same workload in both execution modes and compares exactly;
/// `canonical_bits` maps a vertex value to its exact bit representation.
fn assert_modes_identical<V, A, B>(
    algorithm: &A,
    default_value: V,
    parts: usize,
    seed: u64,
    canonical_bits: B,
) where
    V: Clone + PartialEq + Send + Sync + std::fmt::Debug,
    A: GraphAlgorithm<V, f64>,
    B: Fn(&V) -> Vec<u64>,
{
    let list = Rmat::new(10, 8.0).generate(seed);
    let graph = PropertyGraph::from_edge_list(list, default_value).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    assert_modes_identical_on(
        &graph,
        partitioning,
        mixed_devices(parts),
        algorithm,
        canonical_bits,
    );
}

/// [`assert_modes_identical`] on a given deployment.  Returns the serial
/// run's report so callers can check which supersteps the run had.
fn assert_modes_identical_on<V, A, B>(
    graph: &PropertyGraph<V, f64>,
    partitioning: Partitioning,
    devices: Vec<Vec<DeviceSpec>>,
    algorithm: &A,
    canonical_bits: B,
) -> RunReport
where
    V: Clone + PartialEq + Send + Sync + std::fmt::Debug,
    A: GraphAlgorithm<V, f64>,
    B: Fn(&V) -> Vec<u64>,
{
    // One fresh deployment per mode, so both runs pay the same setup and the
    // agent statistics (including init time) must match exactly.
    let run = |mode| {
        SessionBuilder::new(graph)
            .partitioned_by(partitioning.clone())
            .profile(RuntimeProfile::powergraph())
            .network(NetworkModel::datacenter())
            .devices(devices.clone())
            .config(MiddlewareConfig::default().with_execution(mode))
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
            .run(algorithm)
            .unwrap()
    };
    let serial = run(ExecutionMode::Serial);
    let threaded = run(ExecutionMode::Threaded);

    // Every simulated quantity of every superstep, not just the count.
    assert_eq!(
        serial.report,
        threaded.report,
        "run reports diverged for {}",
        algorithm.name()
    );
    assert_eq!(serial.values.len(), threaded.values.len());
    for (v, (a, b)) in serial.values.iter().zip(&threaded.values).enumerate() {
        assert_eq!(
            canonical_bits(a),
            canonical_bits(b),
            "vertex {v} diverged for {}: serial {a:?} vs threaded {b:?}",
            algorithm.name()
        );
    }
    // The middleware's data-movement accounting must match too: the threaded
    // agent plans with the very same code as the serial one.
    assert_eq!(serial.agent_stats.len(), threaded.agent_stats.len());
    for (node, (s, t)) in serial
        .agent_stats
        .iter()
        .zip(&threaded.agent_stats)
        .enumerate()
    {
        assert_eq!(s, t, "agent stats diverged on node {node}");
    }
    serial.report
}

#[test]
fn threaded_pagerank_is_bit_identical_to_serial() {
    // PageRank merges messages by floating-point *addition*: any reordering
    // of the merge would flip low-order mantissa bits and fail this test.
    let default = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    assert_modes_identical(&PageRank::new(20), default, 3, 11, |value: &RankValue| {
        vec![value.rank.to_bits(), value.out_degree as u64]
    });
}

#[test]
fn threaded_sssp_is_bit_identical_to_serial() {
    assert_modes_identical(
        &MultiSourceSssp::paper_default(),
        Vec::new(),
        3,
        23,
        |distances: &Vec<f64>| distances.iter().map(|d| d.to_bits()).collect(),
    );
}

#[test]
fn a_run_with_supersteps_on_both_sides_of_the_fan_out_floor_is_bit_identical_to_serial() {
    // SSSP from one source on rmat-14: the frontier starts as one vertex,
    // grows until a superstep relaxes tens of thousands of edges and shrinks
    // back to nothing — so a single threaded run computes some supersteps on
    // the calling thread and lends the nodes of others to its parked node
    // workers, each node's two equal GPU shares running on the node's
    // thread.  Nothing of that may show: values, iteration count, the
    // per-superstep report, `AgentStats` and the `CacheStats` inside them
    // must equal the serial run's exactly.
    use gx_plug::engine::fanout::worth_fanning_out;
    let parts = 2;
    let list = Rmat::new(14, 8.0).generate(7);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    let twin_gpus: Vec<Vec<DeviceSpec>> = (0..parts)
        .map(|n| {
            vec![
                gpu_v100(format!("n{n}-gpu0")),
                gpu_v100(format!("n{n}-gpu1")),
            ]
        })
        .collect();
    let source = (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap();
    let report = assert_modes_identical_on(
        &graph,
        partitioning,
        twin_gpus,
        &MultiSourceSssp::new(vec![source]),
        |distances: &Vec<f64>| distances.iter().map(|d| d.to_bits()).collect(),
    );
    let sizes: Vec<usize> = report
        .iterations
        .iter()
        .map(|iteration| iteration.triplets_processed)
        .collect();
    assert!(
        !worth_fanning_out(sizes[0]) && !worth_fanning_out(*sizes.last().unwrap()),
        "the run starts and ends below the floor: {sizes:?}"
    );
    assert!(
        sizes.iter().any(|&d| worth_fanning_out(d)),
        "some superstep carries enough to fan its nodes out: {sizes:?}"
    );
}

#[test]
fn threaded_sssp_is_deterministic_across_repeated_runs() {
    let list = Rmat::new(10, 8.0).generate(5);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let run = || {
        SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .profile(RuntimeProfile::graphx())
            .devices(mixed_devices(2))
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
            .run(&MultiSourceSssp::paper_default())
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.report.num_iterations(),
        second.report.num_iterations()
    );
    for (a, b) in first.values.iter().zip(&second.values) {
        let bits = |d: &Vec<f64>| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }
}

/// Runs the same workload on one deployed session with the sim backend,
/// swaps in the host-parallel backend with [`Session::set_backend`], runs
/// again and compares exactly.  Backends are interchangeable behind the
/// kernel ABI: chunked parallel execution must be a pure wall-clock change.
fn assert_backends_identical<V, A, B>(
    algorithm: &A,
    default_value: V,
    mode: ExecutionMode,
    seed: u64,
    canonical_bits: B,
) where
    V: Clone + PartialEq + Send + Sync + std::fmt::Debug,
    A: GraphAlgorithm<V, f64>,
    B: Fn(&V) -> Vec<u64>,
{
    let parts = 3;
    let list = Rmat::new(10, 8.0).generate(seed);
    let graph = PropertyGraph::from_edge_list(list, default_value).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .network(NetworkModel::datacenter())
        .devices(mixed_devices(parts))
        .config(MiddlewareConfig::default().with_execution(mode))
        .dataset("rmat")
        .max_iterations(100)
        .build()
        .unwrap();
    let sim = session.run(algorithm).unwrap();
    // Swap the backend on the SAME deployed session: daemons are rebuilt
    // from the stored specs with real OS-thread execution.
    session.set_backend(BackendKind::HostParallel { threads: Some(4) });
    let parallel = session.run(algorithm).unwrap();
    // The swap tears down the device contexts, so setup is paid again —
    // exactly the fresh-deployment cost, which keeps the stats comparable.
    assert_eq!(sim.report.setup, parallel.report.setup);
    assert_eq!(
        sim.report.num_iterations(),
        parallel.report.num_iterations(),
        "iteration counts diverged for {} in {mode:?}",
        algorithm.name()
    );
    assert_eq!(sim.report.converged, parallel.report.converged);
    assert_eq!(sim.values.len(), parallel.values.len());
    for (v, (a, b)) in sim.values.iter().zip(&parallel.values).enumerate() {
        assert_eq!(
            canonical_bits(a),
            canonical_bits(b),
            "vertex {v} diverged for {} in {mode:?}: sim {a:?} vs host-parallel {b:?}",
            algorithm.name()
        );
    }
    // Simulated time attribution is backend-independent too: the identical
    // cost models drive identical middleware accounting.
    assert_eq!(sim.agent_stats, parallel.agent_stats);
    // Swapping back reproduces the sim run bit-for-bit.
    session.set_backend(BackendKind::Sim);
    let sim_again = session.run(algorithm).unwrap();
    for (a, b) in sim.values.iter().zip(&sim_again.values) {
        assert_eq!(canonical_bits(a), canonical_bits(b));
    }
}

#[test]
fn host_parallel_backend_is_bit_identical_to_sim_backend() {
    // PageRank merges by floating-point addition — any chunk-order leak in
    // the parallel backend would flip low-order mantissa bits — and SSSP
    // exercises frontier-driven min merging.  Both execution modes, since
    // the backend chunks *within* a daemon while the mode threads *across*
    // daemons and nodes.
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let default = RankValue {
            rank: 1.0,
            out_degree: 0,
        };
        assert_backends_identical(
            &PageRank::new(20),
            default,
            mode,
            11,
            |value: &RankValue| vec![value.rank.to_bits(), value.out_degree as u64],
        );
        assert_backends_identical(
            &MultiSourceSssp::paper_default(),
            Vec::new(),
            mode,
            23,
            |distances: &Vec<f64>| distances.iter().map(|d| d.to_bits()).collect(),
        );
    }
}

/// Strips the amortised deployment cost from agent statistics so a reused
/// session's run can be compared exactly against a fresh one-shot run.
fn without_init_time(stats: &[gx_plug::core::AgentStats]) -> Vec<gx_plug::core::AgentStats> {
    stats
        .iter()
        .map(|s| {
            let mut s = *s;
            s.init_time = SimDuration::ZERO;
            s
        })
        .collect()
}

#[test]
fn reused_session_is_bit_identical_to_one_shot_runs() {
    let list = Rmat::new(10, 8.0).generate(31);
    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let parts = 3;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    let deploy = || {
        SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .profile(RuntimeProfile::powergraph())
            .devices(mixed_devices(parts))
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
    };
    // Two different jobs — a multi-algorithm serving scenario.
    let algo_a = MultiSourceSssp::paper_default();
    let algo_b = MultiSourceSssp::new(vec![1, 2, 3]);

    // Two consecutive runs on one deployed session...
    let mut session = deploy();
    let first = session.run(&algo_a).unwrap();
    let second = session.run(&algo_b).unwrap();
    // ...versus two fresh one-shot deployments.
    let fresh_a = deploy().run(&algo_a).unwrap();
    let fresh_b = deploy().run(&algo_b).unwrap();

    let bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    // Vertex values are bit-identical.
    assert_eq!(bits(&first.values), bits(&fresh_a.values));
    assert_eq!(bits(&second.values), bits(&fresh_b.values));
    // Every per-iteration metric (compute, middleware, sync, counters) is
    // identical too — the reused session re-runs the exact same computation.
    assert_eq!(first.report.iterations, fresh_a.report.iterations);
    assert_eq!(second.report.iterations, fresh_b.report.iterations);
    assert_eq!(first.report.converged, fresh_a.report.converged);
    assert_eq!(second.report.converged, fresh_b.report.converged);
    // The middleware data movement matches exactly; only the amortised
    // device-initialisation time may differ (zero on the reused run).
    assert_eq!(
        without_init_time(&first.agent_stats),
        without_init_time(&fresh_a.agent_stats)
    );
    assert_eq!(
        without_init_time(&second.agent_stats),
        without_init_time(&fresh_b.agent_stats)
    );
    // The deployment itself is paid exactly once per session.
    assert_eq!(first.report.setup, fresh_a.report.setup);
    assert!(first.report.setup > SimDuration::ZERO);
    assert!(second.report.setup.is_zero());
    assert!(fresh_b.report.setup > SimDuration::ZERO);
}

/// Submits `jobs` through a [`GraphService`] (2 pooled worker sessions, 4
/// concurrent submitter threads) and compares every outcome bit-for-bit
/// against the same job run serially on its own fresh single-tenant session.
///
/// Scheduling must be a pure *placement* change: whichever worker a job
/// lands on, and whatever ran on that worker before it, the job's vertex
/// values, per-iteration metrics and middleware data movement have to match
/// the fresh-session reference exactly.  Only the amortised deployment cost
/// (`report.setup`, `AgentStats::init_time`) may differ — a pooled worker
/// pays it once for its whole job stream.
fn assert_service_matches_serial<V, A, B>(
    jobs: Vec<A>,
    default_value: V,
    mode: ExecutionMode,
    seed: u64,
    canonical_bits: B,
) where
    V: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static,
    A: GraphAlgorithm<V, f64> + Clone + 'static,
    B: Fn(&V) -> Vec<u64>,
{
    use std::sync::Arc;

    let parts = 3;
    let list = Rmat::new(10, 8.0).generate(seed);
    let graph = Arc::new(PropertyGraph::from_edge_list(list, default_value).unwrap());
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    let config = MiddlewareConfig::default().with_execution(mode);

    // The reference: every job on its own fresh session, serially.
    let serial: Vec<RunOutcome<V>> = jobs
        .iter()
        .map(|job| {
            SessionBuilder::new(&graph)
                .partitioned_by(partitioning.clone())
                .devices(mixed_devices(parts))
                .config(config)
                .dataset("rmat")
                .max_iterations(100)
                .build()
                .unwrap()
                .run(job)
                .unwrap()
        })
        .collect();

    // The same jobs through the service: 2 pooled deployments, submissions
    // racing in from 4 threads.
    let service = GraphService::builder(Arc::clone(&graph))
        .partitioned_by(partitioning.clone())
        .devices(mixed_devices(parts))
        .config(config)
        .dataset("rmat")
        .max_iterations(100)
        .worker_sessions(2)
        .build()
        .unwrap();
    let outcomes: Vec<(usize, Arc<RunOutcome<V>>)> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4usize)
            .map(|t| {
                let service = service.clone();
                let jobs = &jobs;
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .filter(|(index, _)| index % 4 == t)
                        .map(|(index, job)| {
                            let ticket = service.submit(job.clone()).unwrap();
                            (index, ticket.wait().unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|s| s.join().unwrap())
            .collect()
    });
    service.shutdown();

    assert_eq!(outcomes.len(), serial.len());
    for (index, outcome) in outcomes {
        let reference = &serial[index];
        assert_eq!(
            outcome.report.num_iterations(),
            reference.report.num_iterations(),
            "iteration counts diverged for job {index} in {mode:?}"
        );
        assert_eq!(outcome.report.converged, reference.report.converged);
        assert_eq!(outcome.values.len(), reference.values.len());
        for (v, (a, b)) in outcome.values.iter().zip(&reference.values).enumerate() {
            assert_eq!(
                canonical_bits(a),
                canonical_bits(b),
                "vertex {v} diverged for job {index} in {mode:?}: service {a:?} vs serial {b:?}"
            );
        }
        // Per-iteration metrics and data movement are exact; only the
        // amortised deployment cost may differ between a pooled worker and a
        // fresh session.
        assert_eq!(outcome.report.iterations, reference.report.iterations);
        assert_eq!(
            without_init_time(&outcome.agent_stats),
            without_init_time(&reference.agent_stats)
        );
    }
}

#[test]
fn concurrent_service_pagerank_is_bit_identical_to_serial_sessions() {
    // PageRank's float-sum merging makes any scheduling-induced reordering
    // visible in the last mantissa bits.  An 8-job damping/length sweep.
    let jobs: Vec<PageRank> = (0..8)
        .map(|i| PageRank::new(10 + i % 3).with_damping(0.80 + 0.02 * i as f64))
        .collect();
    let default = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        assert_service_matches_serial(jobs.clone(), default, mode, 11, |value: &RankValue| {
            vec![value.rank.to_bits(), value.out_degree as u64]
        });
    }
}

#[test]
fn concurrent_service_sssp_is_bit_identical_to_serial_sessions() {
    // A multi-tenant source sweep: 8 SSSP jobs with distinct frontiers.
    let jobs: Vec<MultiSourceSssp> = (0..8u32)
        .map(|i| MultiSourceSssp::new(vec![i, i + 16]))
        .collect();
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        assert_service_matches_serial(jobs.clone(), Vec::new(), mode, 23, |d: &Vec<f64>| {
            d.iter().map(|x| x.to_bits()).collect()
        });
    }
}

/// Builds a small service over the given graph for the cache tests.
fn cache_service(
    graph: &std::sync::Arc<PropertyGraph<Vec<f64>, f64>>,
    mode: ExecutionMode,
    configure: impl FnOnce(ServiceBuilder<Vec<f64>, f64>) -> ServiceBuilder<Vec<f64>, f64>,
) -> GraphService<Vec<f64>, f64> {
    let parts = 2;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(graph, parts)
        .unwrap();
    configure(
        GraphService::builder(std::sync::Arc::clone(graph))
            .partitioned_by(partitioning)
            .devices(mixed_devices(parts))
            .config(MiddlewareConfig::default().with_execution(mode))
            .dataset("rmat")
            .max_iterations(100)
            .worker_sessions(1),
    )
    .build()
    .unwrap()
}

fn sssp_bits(values: &[Vec<f64>]) -> Vec<Vec<u64>> {
    values
        .iter()
        .map(|d| d.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn cache_hits_are_bit_identical_to_the_fill_run() {
    let list = Rmat::new(10, 8.0).generate(41);
    let graph = std::sync::Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let service = cache_service(&graph, mode, |builder| builder);
        let algo = MultiSourceSssp::paper_default();
        let fill = service.submit(algo.clone()).unwrap().wait().unwrap();
        let hit = service.submit(algo.clone()).unwrap().wait().unwrap();
        // The whole outcome is served verbatim: values, per-iteration
        // metrics and middleware accounting.
        assert_eq!(sssp_bits(&fill.values), sssp_bits(&hit.values));
        assert_eq!(fill.report, hit.report);
        assert_eq!(fill.agent_stats, hit.agent_stats);
        let stats = service.stats_snapshot();
        assert_eq!(stats.cache_hits, 1, "in {mode:?}");
        assert_eq!(stats.submitted, 1, "hits never reach the queue");
        assert!(stats.hit_p50.unwrap().as_millis() < 50);
    }
}

#[test]
fn pagerank_cache_misses_and_hits_are_bit_identical_to_a_fresh_session() {
    // The PageRank arm of the cache determinism suite: the fill run (a cache
    // *miss* taking the full dense-id data path) must be bit-identical to a
    // fresh single-tenant session, and the subsequent *hit* must serve that
    // outcome verbatim — in both execution modes.
    let list = Rmat::new(10, 8.0).generate(41);
    let default = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    let graph = std::sync::Arc::new(PropertyGraph::from_edge_list(list, default).unwrap());
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let rank_bits = |values: &[RankValue]| -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|v| vec![v.rank.to_bits(), v.out_degree as u64])
            .collect()
    };
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        let reference = SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .devices(mixed_devices(2))
            .config(MiddlewareConfig::default().with_execution(mode))
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
            .run(&PageRank::new(20))
            .unwrap();
        let service = GraphService::builder(std::sync::Arc::clone(&graph))
            .partitioned_by(partitioning.clone())
            .devices(mixed_devices(2))
            .config(MiddlewareConfig::default().with_execution(mode))
            .dataset("rmat")
            .max_iterations(100)
            .worker_sessions(1)
            .build()
            .unwrap();
        let fill = service.submit(PageRank::new(20)).unwrap().wait().unwrap();
        let hit = service.submit(PageRank::new(20)).unwrap().wait().unwrap();
        assert_eq!(
            rank_bits(&fill.values),
            rank_bits(&reference.values),
            "cache miss diverged from fresh session in {mode:?}"
        );
        assert_eq!(rank_bits(&fill.values), rank_bits(&hit.values));
        assert_eq!(fill.report, hit.report);
        assert_eq!(fill.agent_stats, hit.agent_stats);
        let stats = service.stats_snapshot();
        assert_eq!(stats.cache_hits, 1, "in {mode:?}");
        assert_eq!(stats.submitted, 1, "in {mode:?}");
    }
}

#[test]
fn concurrent_duplicates_resolve_single_flight_and_identical() {
    // 12 identical submissions race in from 4 threads against a 1-worker
    // service: every answer must be bit-identical to a fresh single-tenant
    // session run, while the cache + coalescing layers keep the number of
    // actual executions below the number of submissions.
    let list = Rmat::new(10, 8.0).generate(43);
    let graph = std::sync::Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let reference = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .devices(mixed_devices(2))
        .dataset("rmat")
        .max_iterations(100)
        .build()
        .unwrap()
        .run(&MultiSourceSssp::paper_default())
        .unwrap();
    let service = cache_service(&graph, ExecutionMode::Threaded, |builder| builder);
    let outcomes: Vec<std::sync::Arc<RunOutcome<Vec<f64>>>> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let service = service.clone();
                scope.spawn(move || {
                    (0..3)
                        .map(|_| {
                            service
                                .submit(MultiSourceSssp::paper_default())
                                .unwrap()
                                .wait()
                                .unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|s| s.join().unwrap())
            .collect()
    });
    assert_eq!(outcomes.len(), 12);
    for outcome in &outcomes {
        assert_eq!(sssp_bits(&outcome.values), sssp_bits(&reference.values));
        assert_eq!(outcome.report.iterations, reference.report.iterations);
    }
    let stats = service.stats_snapshot();
    // Every submission was served by a hit, a coalesced resolve or a run —
    // and the very first run is the only execution that was strictly needed,
    // so hits + coalesced account for everything except actual runs.
    let executions = stats.submitted - stats.coalesced_jobs;
    assert_eq!(stats.cache_hits + stats.submitted, 12);
    assert!(executions >= 1);
    assert!(
        stats.cache_hits + stats.coalesced_jobs > 0,
        "duplicate traffic must not run 12 times: {stats:?}"
    );
}

#[test]
fn bypass_and_refresh_policies_rerun_but_stay_identical() {
    let list = Rmat::new(10, 8.0).generate(47);
    let graph = std::sync::Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
    let service = cache_service(&graph, ExecutionMode::Threaded, |builder| builder);
    let algo = MultiSourceSssp::new(vec![0, 5]);
    let fill = service.submit(algo.clone()).unwrap().wait().unwrap();
    let bypass = service
        .submit_with(
            algo.clone(),
            JobOptions::new().with_cache(CachePolicy::Bypass),
        )
        .unwrap()
        .wait()
        .unwrap();
    let refresh = service
        .submit_with(
            algo.clone(),
            JobOptions::new().with_cache(CachePolicy::Refresh),
        )
        .unwrap()
        .wait()
        .unwrap();
    // Both policies force fresh executions...
    assert_eq!(service.stats_snapshot().cache_hits, 0);
    assert_eq!(service.stats_snapshot().submitted, 3);
    // ...whose answers are bit-identical to the original fill run anyway.
    assert_eq!(sssp_bits(&fill.values), sssp_bits(&bypass.values));
    assert_eq!(sssp_bits(&fill.values), sssp_bits(&refresh.values));
    // The refresh re-filled the cache: the next default submission hits.
    service.submit(algo).unwrap().wait().unwrap();
    assert_eq!(service.stats_snapshot().cache_hits, 1);
}

#[test]
fn tight_byte_budget_evicts_rather_than_serving_stale_results() {
    // A cache whose byte budget holds at most one outcome: alternating two
    // keys means every lookup either misses (evicted) or hits the entry for
    // exactly the right key — never a stale answer for the other key.
    let list = Rmat::new(10, 8.0).generate(53);
    let graph = std::sync::Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
    let num_vertices = graph.num_vertices();
    // The cache accounts shallowly: one outcome charges a `Vec` header per
    // vertex (24 bytes) plus the structs.  A budget of 1.5 headers' worth
    // holds one outcome but never two.
    let one_outcome = num_vertices * 36;
    let service = cache_service(&graph, ExecutionMode::Threaded, |builder| {
        builder.cache_bytes(one_outcome)
    });
    let algo_a = MultiSourceSssp::paper_default();
    let algo_b = MultiSourceSssp::new(vec![9, 10, 11, 12]);
    let fresh_a = service.submit(algo_a.clone()).unwrap().wait().unwrap();
    let fresh_b = service.submit(algo_b.clone()).unwrap().wait().unwrap();
    assert!(service.cached_results() <= 1);
    for _ in 0..3 {
        let again_a = service.submit(algo_a.clone()).unwrap().wait().unwrap();
        let again_b = service.submit(algo_b.clone()).unwrap().wait().unwrap();
        assert_eq!(sssp_bits(&again_a.values), sssp_bits(&fresh_a.values));
        assert_eq!(sssp_bits(&again_b.values), sssp_bits(&fresh_b.values));
    }
    // Invalidation on top of eviction: still never stale.
    service.invalidate_cache();
    let after = service.submit(algo_a).unwrap().wait().unwrap();
    assert_eq!(sssp_bits(&after.values), sssp_bits(&fresh_a.values));
}

/// `[hits, misses, evictions, downloaded_entities]` summed over every agent.
fn sync_cache_counters(stats: &[gx_plug::core::AgentStats]) -> [u64; 4] {
    let mut total = gx_plug::core::AgentStats::default();
    for agent in stats {
        total.merge(agent);
    }
    [
        total.cache.hits,
        total.cache.misses,
        total.cache.evictions,
        total.downloaded_entities,
    ]
}

#[test]
fn sync_cache_counters_match_the_golden_pin() {
    // The synchronization cache is an accounting model: its only outputs are
    // these counters, which feed `download_entities` and through it every
    // simulated duration.  A changed probe order, victim order or freshness
    // rule moves them without touching a single vertex value, so they are
    // pinned as literals (captured on the scan-evicting `HashMap` cache that
    // preceded the dense one; PageRank's and SSSP's re-derived when forward
    // kernels began downloading only the sources of active edges).
    fn counters<V, A>(algorithm: &A, default_value: V, mode: ExecutionMode) -> [u64; 4]
    where
        V: Clone + PartialEq + Send + Sync + std::fmt::Debug,
        A: GraphAlgorithm<V, f64>,
    {
        let list = Rmat::new(10, 8.0).generate(7);
        let graph = PropertyGraph::from_edge_list(list, default_value).unwrap();
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 4)
            .unwrap();
        let outcome = SessionBuilder::new(&graph)
            .partitioned_by(partitioning)
            .profile(RuntimeProfile::powergraph())
            .devices(mixed_devices(4))
            .config(MiddlewareConfig::default().with_execution(mode))
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
            .run(algorithm)
            .unwrap();
        sync_cache_counters(&outcome.agent_stats)
    }
    let rank = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        assert_eq!(
            counters(&PageRank::new(5), rank, mode),
            [1464, 4651, 3847, 14091],
            "PageRank x5, {mode:?}"
        );
        assert_eq!(
            counters(&MultiSourceSssp::new(vec![0, 1]), Vec::new(), mode),
            [991, 1542, 738, 10725],
            "2-source SSSP, {mode:?}"
        );
        // Connected components reads destination attributes, so it still
        // downloads both endpoints of every active edge.
        assert_eq!(
            counters(&ConnectedComponents, 0u32, mode),
            [960, 4620, 3816, 13304],
            "connected components, {mode:?}"
        );
    }
}

#[test]
fn synchronize_counters_match_the_golden_pin() {
    // The upper system's synchronisation counts the messages that cross a
    // node boundary, the replica copies it refreshes and the supersteps it
    // may skip; all three feed the simulated sync time.  A routing change
    // that drops a mirror, refreshes one twice or misjudges locality moves
    // them without necessarily moving a vertex value, so they are pinned as
    // literals: `[iterations, Σ active, Σ remote messages, Σ replica
    // updates, skipped supersteps]`.  PageRank and SSSP are forward kernels,
    // so only their source mirrors are refreshed and activated.
    fn counters<V, A>(algorithm: &A, default_value: V, mode: ExecutionMode) -> [usize; 5]
    where
        V: Clone + PartialEq + Send + Sync + std::fmt::Debug,
        A: GraphAlgorithm<V, f64>,
    {
        let list = Rmat::new(10, 8.0).generate(7);
        let graph = PropertyGraph::from_edge_list(list, default_value).unwrap();
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 4)
            .unwrap();
        let report = SessionBuilder::new(&graph)
            .partitioned_by(partitioning)
            .profile(RuntimeProfile::powergraph())
            .devices(mixed_devices(4))
            .config(MiddlewareConfig::default().with_execution(mode))
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
            .run(algorithm)
            .unwrap()
            .report;
        let sum = |field: fn(&gx_plug::engine::IterationMetrics) -> usize| -> usize {
            report.iterations.iter().map(field).sum()
        };
        [
            report.num_iterations(),
            sum(|i| i.active_vertices),
            sum(|i| i.remote_messages),
            sum(|i| i.replica_updates),
            report.skipped_iterations(),
        ]
    }
    let rank = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    for mode in [ExecutionMode::Serial, ExecutionMode::Threaded] {
        assert_eq!(
            counters(&PageRank::new(5), rank, mode),
            [5, 8030, 2685, 2645, 0],
            "PageRank x5, {mode:?}"
        );
        assert_eq!(
            counters(&MultiSourceSssp::new(vec![0, 1]), Vec::new(), mode),
            [6, 2801, 1875, 1180, 0],
            "2-source SSSP, {mode:?}"
        );
        // Connected components reads destination attributes, so its skipped
        // supersteps also exercise the in-edge locality flag.
        assert_eq!(
            counters(&ConnectedComponents, 0u32, mode),
            [4, 6424, 623, 683, 2],
            "connected components, {mode:?}"
        );
    }
}
