//! Cross-crate integration tests: the full middleware stack (graph →
//! partitioning → session → agents → daemons → devices) must produce exactly
//! the same algorithm results as native execution and as the sequential
//! references, under every middleware configuration.

use gx_plug::prelude::*;

fn orkut_like(seed: u64) -> EdgeList<f64> {
    Rmat::new(10, 7.0).generate(seed)
}

fn gpus(nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..nodes)
        .map(|n| vec![gpu_v100(format!("n{n}-g0"))])
        .collect()
}

fn cpus(nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..nodes)
        .map(|n| vec![cpu_xeon_20c(format!("n{n}-c0"))])
        .collect()
}

#[test]
fn sssp_is_identical_across_native_cpu_and_gpu() {
    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(orkut_like(5), Vec::new()).unwrap();
    let algorithm = MultiSourceSssp::paper_default();
    let nodes = 3;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, nodes)
        .unwrap();
    let reference =
        gx_plug::algos::reference::multi_source_sssp_reference(&graph, algorithm.sources());

    let check = |label: &str, values: &[Vec<f64>]| {
        for (v, (got, want)) in values.iter().zip(&reference).enumerate() {
            for (g, w) in got.iter().zip(want) {
                let same = (g.is_infinite() && w.is_infinite()) || (g - w).abs() < 1e-9;
                assert!(same, "{label}: vertex {v} differs ({g} vs {w})");
            }
        }
    };

    let native = SessionBuilder::new(&graph)
        .partitioned_by(partitioning.clone())
        .profile(RuntimeProfile::powergraph())
        .dataset("orkut-like")
        .max_iterations(500)
        .build()
        .unwrap()
        .run_native(&algorithm);
    check("native", &native.values);

    for (label, devices) in [("gpu", gpus(nodes)), ("cpu", cpus(nodes))] {
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .profile(RuntimeProfile::powergraph())
            .devices(devices)
            .dataset("orkut-like")
            .max_iterations(500)
            .build()
            .unwrap();
        let accelerated = session.run(&algorithm).unwrap();
        check(label, &accelerated.values);
        assert!(accelerated.report.converged);
    }
}

#[test]
fn middleware_configuration_never_changes_pagerank_results() {
    let graph: PropertyGraph<RankValue, f64> = PropertyGraph::from_edge_list(
        orkut_like(9),
        RankValue {
            rank: 1.0,
            out_degree: 0,
        },
    )
    .unwrap();
    let algorithm = PageRank::new(10);
    let partitioning = HashEdgePartitioner::new(3).partition(&graph, 4).unwrap();
    let reference = gx_plug::algos::reference::pagerank_reference(&graph, 0.85, 10, 1.0);

    // One deployment serves the whole configuration sweep: only the
    // middleware configuration changes between runs.
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::graphx())
        .devices(gpus(4))
        .dataset("orkut-like")
        .max_iterations(10)
        .build()
        .unwrap();

    let configs = [
        ("optimised", MiddlewareConfig::optimized()),
        ("baseline", MiddlewareConfig::baseline()),
        (
            "no pipeline",
            MiddlewareConfig::optimized().with_pipeline(PipelineMode::Disabled),
        ),
        (
            "fixed blocks",
            MiddlewareConfig::optimized().with_pipeline(PipelineMode::FixedBlockCount(7)),
        ),
        (
            "no caching",
            MiddlewareConfig::optimized().with_caching(false),
        ),
        (
            "no skipping",
            MiddlewareConfig::optimized().with_skipping(false),
        ),
    ];
    for (label, config) in configs {
        session.set_config(config);
        let outcome = session.run(&algorithm).unwrap();
        for (v, (got, want)) in outcome.values.iter().zip(&reference).enumerate() {
            assert!(
                (got.rank - want).abs() < 1e-9,
                "{label}: vertex {v} rank {} vs reference {}",
                got.rank,
                want
            );
        }
    }
}

#[test]
fn label_propagation_matches_reference_through_the_middleware() {
    let graph: PropertyGraph<u32, f64> =
        PropertyGraph::from_edge_list(orkut_like(13), 0u32).unwrap();
    let algorithm = LabelPropagation::paper_default();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 3)
        .unwrap();
    let reference = gx_plug::algos::reference::label_propagation_reference(&graph, 15);
    let outcome = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .devices(gpus(3))
        .dataset("orkut-like")
        .max_iterations(15)
        .build()
        .unwrap()
        .run(&algorithm)
        .unwrap();
    assert_eq!(outcome.values, reference);
}

#[test]
fn connected_components_and_kcore_run_through_the_full_stack() {
    // Connected components.
    let graph: PropertyGraph<u32, f64> =
        PropertyGraph::from_edge_list(orkut_like(21), 0u32).unwrap();
    let cc = ConnectedComponents;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let reference = gx_plug::algos::reference::connected_components_reference(&graph);
    let outcome = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .devices(gpus(2))
        .dataset("orkut-like")
        .max_iterations(10_000)
        .build()
        .unwrap()
        .run(&cc)
        .unwrap();
    assert_eq!(outcome.values, reference);

    // k-core over a symmetrised version of the same graph.
    let mut symmetric = orkut_like(21);
    symmetric.symmetrize();
    let graph: PropertyGraph<gx_plug::algos::CoreState, f64> =
        PropertyGraph::from_edge_list(symmetric, gx_plug::algos::CoreState { alive: true })
            .unwrap();
    let kcore = KCore::new(8);
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let reference = gx_plug::algos::reference::k_core_reference(&graph, 8);
    let outcome = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .devices(gpus(2))
        .dataset("orkut-like")
        .max_iterations(kcore.max_rounds)
        .build()
        .unwrap()
        .run(&kcore)
        .unwrap();
    let alive: Vec<bool> = outcome.values.iter().map(|s| s.alive).collect();
    assert_eq!(alive, reference);
}

#[test]
fn graphx_and_powergraph_profiles_agree_on_results_but_not_on_time() {
    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(orkut_like(33), Vec::new()).unwrap();
    let algorithm = MultiSourceSssp::new(vec![0, 1]);
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 4)
        .unwrap();
    let run_profile = |profile: RuntimeProfile| {
        SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .profile(profile)
            .dataset("orkut-like")
            .max_iterations(500)
            .build()
            .unwrap()
            .run_native(&algorithm)
    };
    let graphx = run_profile(RuntimeProfile::graphx());
    let powergraph = run_profile(RuntimeProfile::powergraph());
    assert_eq!(graphx.values, powergraph.values);
    assert!(
        powergraph.report.total_time() < graphx.report.total_time(),
        "the C++ upper system must be faster than the JVM one"
    );
}

#[test]
fn inter_iteration_optimisations_reduce_data_movement_and_time() {
    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(orkut_like(44), Vec::new()).unwrap();
    let algorithm = MultiSourceSssp::paper_default();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 4)
        .unwrap();
    // One deployment per configuration so both runs pay the same setup and
    // the total-time comparison stays apples to apples.
    let run = |config: MiddlewareConfig| {
        SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .profile(RuntimeProfile::graphx())
            .devices(gpus(4))
            .config(config)
            .dataset("orkut-like")
            .max_iterations(500)
            .build()
            .unwrap()
            .run(&algorithm)
            .unwrap()
    };
    let optimised = run(MiddlewareConfig::optimized());
    let naive = run(MiddlewareConfig::baseline());
    let moved = |outcome: &RunOutcome<Vec<f64>>| {
        outcome
            .agent_stats
            .iter()
            .map(|s| s.downloaded_entities + s.uploaded_entities)
            .sum::<u64>()
    };
    assert!(
        moved(&optimised) < moved(&naive),
        "optimisations must reduce upper-system data movement ({} vs {})",
        moved(&optimised),
        moved(&naive)
    );
    assert!(
        optimised.report.total_time() < naive.report.total_time(),
        "optimisations must reduce total time"
    );
    assert_eq!(optimised.values, naive.values);
}

#[test]
fn job_service_serves_mixed_tenants_against_the_reference() {
    use std::sync::Arc;

    // Multi-tenant serving through the full stack: SSSP jobs with distinct
    // source sets race in from several submitter threads at different
    // priorities, and every result must match the sequential reference.
    let graph: Arc<PropertyGraph<Vec<f64>, f64>> =
        Arc::new(PropertyGraph::from_edge_list(orkut_like(5), Vec::new()).unwrap());
    let nodes = 3;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, nodes)
        .unwrap();
    let service = GraphService::builder(Arc::clone(&graph))
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .devices(gpus(nodes))
        .dataset("orkut-like")
        .max_iterations(500)
        .worker_sessions(2)
        .build()
        .unwrap();

    let tenants: Vec<(MultiSourceSssp, JobPriority)> = (0..6u32)
        .map(|i| {
            let priority = match i % 3 {
                0 => JobPriority::High,
                1 => JobPriority::Normal,
                _ => JobPriority::Low,
            };
            (MultiSourceSssp::new(vec![i, i + 7]), priority)
        })
        .collect();
    let outcomes: Vec<(MultiSourceSssp, Arc<RunOutcome<Vec<f64>>>)> = std::thread::scope(|scope| {
        let submitters: Vec<_> = tenants
            .into_iter()
            .map(|(algorithm, priority)| {
                let service = service.clone();
                scope.spawn(move || {
                    let ticket = service
                        .submit_with(algorithm.clone(), JobOptions::new().with_priority(priority))
                        .unwrap();
                    (algorithm, ticket.wait().unwrap())
                })
            })
            .collect();
        submitters.into_iter().map(|s| s.join().unwrap()).collect()
    });
    service.shutdown();

    for (algorithm, outcome) in outcomes {
        assert!(outcome.report.converged, "{:?}", algorithm.sources());
        let reference =
            gx_plug::algos::reference::multi_source_sssp_reference(&graph, algorithm.sources());
        for (v, (got, want)) in outcome.values.iter().zip(&reference).enumerate() {
            for (g, w) in got.iter().zip(want) {
                let same = (g.is_infinite() && w.is_infinite()) || (g - w).abs() < 1e-9;
                assert!(
                    same,
                    "sources {:?}: vertex {v} differs",
                    algorithm.sources()
                );
            }
        }
    }
    let stats = service.stats_snapshot();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);
}

#[test]
fn session_close_is_idempotent_and_the_deployment_recovers() {
    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(orkut_like(9), Vec::new()).unwrap();
    let algorithm = MultiSourceSssp::paper_default();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .devices(gpus(2))
        .max_iterations(500)
        .build()
        .unwrap();
    let first = session.run(&algorithm).unwrap();
    assert!(first.report.setup > SimDuration::ZERO);
    // Closing is idempotent; a closed session is not poisoned, it just pays
    // device initialisation again on its next run — like a fresh deployment.
    session.close();
    session.close();
    let reopened = session.run(&algorithm).unwrap();
    assert_eq!(reopened.report.setup, first.report.setup);
    assert_eq!(reopened.values, first.values);
    // And an explicitly closed session drops cleanly (Drop closes again).
    session.close();
    drop(session);
}

#[test]
fn panicking_job_poisons_only_its_own_session() {
    /// An algorithm whose kernel panics on its first triplet.
    struct PoisonPill;

    impl GraphAlgorithm<Vec<f64>, f64> for PoisonPill {
        type Msg = Vec<f64>;
        fn init_vertex(&self, _v: VertexId, _d: usize) -> Vec<f64> {
            vec![0.0]
        }
        fn msg_gen_into(
            &self,
            _t: &Triplet<Vec<f64>, f64>,
            _i: usize,
            _out: &mut Vec<AddressedMessage<Vec<f64>>>,
        ) {
            panic!("poison pill");
        }
        fn msg_merge(&self, a: Vec<f64>, _b: Vec<f64>) -> Vec<f64> {
            a
        }
        fn msg_apply(
            &self,
            _v: VertexId,
            _c: &Vec<f64>,
            _m: &Vec<f64>,
            _i: usize,
        ) -> Option<Vec<f64>> {
            None
        }
        fn name(&self) -> &'static str {
            "poison-pill"
        }
    }

    let graph: PropertyGraph<Vec<f64>, f64> =
        PropertyGraph::from_edge_list(orkut_like(13), Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .devices(gpus(2))
        .max_iterations(500)
        .build()
        .unwrap();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = session.run(&PoisonPill);
    }));
    assert!(panicked.is_err(), "the poison pill must propagate");
    // The panicking run consumed the session's daemons (each shut its device
    // context down as it dropped), so the session reports the typed error
    // instead of hanging or leaking — and dropping it stays safe.
    assert!(matches!(
        session.run(&MultiSourceSssp::paper_default()),
        Err(SessionError::NoDevices)
    ));
    session.close();
    drop(session);
}
