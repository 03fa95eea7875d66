//! `pr_dense` and `sssp_sparse`: one warm [`Session`], `Session::run` back
//! to back from one caller.
//!
//! The plain run measures the five end-to-end metrics.  The traced run
//! attributes a job's wall time to layers without touching product source:
//! it drives [`Cluster::run_phased`] itself — exactly as the session's
//! serial and threaded paths do — with a [`ComputePhase`] that stamps spans
//! around the calls into `core`, checks the values are bit-identical to
//! `Session::run`, flips one public config switch at a time for the *diff*
//! metrics, and replays node 0's mid-run state through single public
//! functions for the *probe* metrics.

use super::{
    finish_traced, mixed_devices, probe, put_end_to_end, time_box, Fingerprint, Outcome, RunArgs,
    Scale, SetupSpans,
};
use crate::stats;
use crate::sys;
use crate::trace::{Bucket, SpanId, Tracer};
use gx_plug::accel::ChunkSpec;
use gx_plug::algos::reference::{multi_source_sssp_reference, pagerank_reference};
use gx_plug::core::session::DEFAULT_MAX_ITERATIONS;
use gx_plug::core::{merge_addressed, system_label, AgentStats, ThreadedAgent, ThreadedNodes};
use gx_plug::engine::cluster::{ComputePhase, NodeComputeOutput};
use gx_plug::engine::node::NodeState;
use gx_plug::graph::EdgeList;
use gx_plug::ipc::{triplet_block_views, KeyGenerator};
use gx_plug::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What differs between the two session workloads.
pub trait SessionCase {
    type V: Clone + PartialEq + Send + Sync + 'static;
    type A: GraphAlgorithm<Self::V, f64>;
    const NAME: &'static str;
    const NODES: usize = 4;

    fn generate(scale: Scale, seed: u64) -> EdgeList<f64>;
    fn default_attr() -> Self::V;
    fn partition(graph: &PropertyGraph<Self::V, f64>) -> Partitioning;
    fn algorithm() -> Self::A;
    fn fingerprint(values: &[Self::V]) -> u64;
    /// Whether `values` agree with the sequential reference implementation
    /// (to rounding: the reference sums in a different order).
    fn matches_reference(graph: &PropertyGraph<Self::V, f64>, values: &[Self::V]) -> bool;
}

type Msg<C> = <<C as SessionCase>::A as GraphAlgorithm<<C as SessionCase>::V, f64>>::Msg;

fn close(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
        || (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// `PageRank::new(20)` on `Rmat::new(14, 8.0)`, greedy vertex-cut over 4
/// nodes: an all-active frontier, 2.6 M triplets per job.
pub struct PrDense;

impl SessionCase for PrDense {
    type V = RankValue;
    type A = PageRank;
    const NAME: &'static str = "pr_dense";

    fn generate(scale: Scale, seed: u64) -> EdgeList<f64> {
        let log2_vertices = match scale {
            Scale::Full => 14,
            Scale::Smoke => 8,
        };
        Rmat::new(log2_vertices, 8.0).generate(seed)
    }

    fn default_attr() -> RankValue {
        RankValue {
            rank: 1.0,
            out_degree: 0,
        }
    }

    fn partition(graph: &PropertyGraph<RankValue, f64>) -> Partitioning {
        GreedyVertexCutPartitioner::default()
            .partition(graph, Self::NODES)
            .expect("rmat graphs partition")
    }

    fn algorithm() -> PageRank {
        PageRank::new(20)
    }

    fn fingerprint(values: &[RankValue]) -> u64 {
        let mut fingerprint = Fingerprint::new();
        for value in values {
            fingerprint.word(value.rank.to_bits());
            fingerprint.word(value.out_degree as u64);
        }
        fingerprint.finish()
    }

    fn matches_reference(graph: &PropertyGraph<RankValue, f64>, values: &[RankValue]) -> bool {
        let algorithm = Self::algorithm();
        let expected = pagerank_reference(
            graph,
            algorithm.damping,
            algorithm.iterations,
            algorithm.initial_rank,
        );
        expected.len() == values.len()
            && expected.iter().zip(values).all(|(e, v)| close(v.rank, *e))
    }
}

/// `MultiSourceSssp` from four corner sources on a 128x128 road grid,
/// hash-partitioned by edge over 4 nodes (greedy vertex-cut would put the
/// whole lattice on node 0): ~255 supersteps of ~1 500 active triplets.
pub struct SsspSparse;

impl SessionCase for SsspSparse {
    type V = Vec<f64>;
    type A = MultiSourceSssp;
    const NAME: &'static str = "sssp_sparse";

    fn generate(scale: Scale, seed: u64) -> EdgeList<f64> {
        let side = match scale {
            Scale::Full => 128,
            Scale::Smoke => 16,
        };
        // Road lengths in [1, 2]: the seed draws them, and the narrow range
        // keeps the relaxation count (and so the job's work) close from seed
        // to seed, which [1, 5] does not.
        GridRoad {
            weight_max: 2.0,
            ..GridRoad::new(side, side, 0.0)
        }
        .generate(seed)
    }

    fn default_attr() -> Vec<f64> {
        Vec::new()
    }

    fn partition(graph: &PropertyGraph<Vec<f64>, f64>) -> Partitioning {
        HashEdgePartitioner::default()
            .partition(graph, Self::NODES)
            .expect("grid graphs partition")
    }

    fn algorithm() -> MultiSourceSssp {
        MultiSourceSssp::new(vec![0, 1, 2, 3])
    }

    fn fingerprint(values: &[Vec<f64>]) -> u64 {
        Fingerprint::of_f64s(values.iter().flatten())
    }

    fn matches_reference(graph: &PropertyGraph<Vec<f64>, f64>, values: &[Vec<f64>]) -> bool {
        let expected = multi_source_sssp_reference(graph, Self::algorithm().sources());
        expected.len() == values.len()
            && expected
                .iter()
                .zip(values)
                .all(|(e, v)| e.len() == v.len() && e.iter().zip(v).all(|(e, v)| close(*v, *e)))
    }
}

/// A deployment that has served its first (cold) job.
struct Deployed<'g, C: SessionCase> {
    graph: &'g PropertyGraph<C::V, f64>,
    partitioning: Partitioning,
    session: Session<'g, C::V, f64>,
    setup: SetupSpans,
    /// Outcome of the cold job; the reference every later job must match.
    first: RunOutcome<C::V>,
}

/// Set-up as a user pays it: generate, build the graph, partition, deploy,
/// run the first cold job.  The session borrows the graph, so the deployment
/// is lent to `f` and torn down when it returns.
fn with_deployment<C: SessionCase, R>(
    args: RunArgs,
    f: impl FnOnce(&mut Deployed<'_, C>) -> R,
) -> R {
    let mut setup = SetupSpans::default();
    let mut lap = Instant::now();
    let mut split = |slot: &mut f64| {
        *slot = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let list = C::generate(args.scale, args.seed);
    split(&mut setup.generate);
    let graph = PropertyGraph::from_edge_list(list, C::default_attr()).expect("valid edge list");
    split(&mut setup.build);
    let partitioning = C::partition(&graph);
    split(&mut setup.partition);
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning.clone())
        .devices(mixed_devices(C::NODES))
        .backend(BackendKind::Sim)
        .build()
        .expect("a valid deployment");
    split(&mut setup.deploy);
    let first = session.run(&C::algorithm()).expect("the cold job runs");
    split(&mut setup.first_run);
    let mut deployed = Deployed {
        graph: &graph,
        partitioning,
        session,
        setup,
        first,
    };
    f(&mut deployed)
}

/// Set-ups per run whose median is `setup_s` (each costs a cold job).
const SETUPS: usize = 3;

pub fn run<C: SessionCase>(args: RunArgs) -> Outcome {
    if args.trace {
        return with_deployment::<C, _>(args, |d| traced(args, d));
    }
    let mut setup_seconds: Vec<f64> = (1..SETUPS)
        .map(|_| with_deployment::<C, _>(args, |d| d.setup.total()))
        .collect();
    with_deployment::<C, _>(args, |d| {
        setup_seconds.push(d.setup.total());
        let mut outcome = Outcome::default();
        let algorithm = C::algorithm();
        let expected = C::fingerprint(&d.first.values);

        // The cold job of the set-up doubles as the warm-up: the arenas are
        // pooled and the daemons connected once it has run.
        let mut jobs = 0;
        let wall = time_box(args.seconds, || {
            let result = d.session.run(&algorithm);
            jobs += 1;
            let same = result.is_ok_and(|run| C::fingerprint(&run.values) == expected);
            outcome.check(same, "a warm job diverged from the first job");
        });

        let native = d.session.run_native(&algorithm);
        outcome.check(
            C::fingerprint(&native.values) == expected,
            "accelerated values are not bit-identical to run_native",
        );
        outcome.check(
            C::matches_reference(d.graph, &d.first.values),
            "values disagree with the sequential reference",
        );
        put_end_to_end(&mut outcome, &setup_seconds, jobs, wall);
        outcome
    })
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Runs `job` at least once, then again while `budget` seconds are not spent
/// (at most `max` runs); returns each run's wall seconds.
fn sample_walls(budget: f64, max: usize, mut job: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || (walls.len() < max && start.elapsed().as_secs_f64() < budget) {
        let lap = Instant::now();
        job();
        walls.push(lap.elapsed().as_secs_f64());
    }
    walls
}

fn per_item_ns(seconds: f64, items: usize) -> f64 {
    if items == 0 {
        0.0
    } else {
        seconds * 1e9 / items as f64
    }
}

/// Everything the benchmark's own superstep driver needs: its own cluster,
/// daemons and triplet arenas, built the way `Session` builds them.
struct Rig<C: SessionCase> {
    cluster: Cluster<C::V, f64>,
    daemons: Vec<Vec<Daemon>>,
    pool: Vec<Arc<TripletBuffer<C::V, f64>>>,
    profile: RuntimeProfile,
    system: String,
    build_seconds: f64,
}

impl<C: SessionCase> Rig<C> {
    fn new(d: &Deployed<'_, C>) -> Self {
        let profile = RuntimeProfile::powergraph();
        let start = Instant::now();
        let cluster = Cluster::build(
            d.graph,
            d.partitioning.clone(),
            &C::algorithm(),
            profile,
            NetworkModel::datacenter(),
        );
        let build_seconds = start.elapsed().as_secs_f64();
        let specs = mixed_devices(C::NODES);
        // Same names and key space as `Session`'s daemons.
        let keys = KeyGenerator::new(0xC1);
        let daemons = specs
            .iter()
            .enumerate()
            .map(|(node, node_specs)| {
                node_specs
                    .iter()
                    .enumerate()
                    .map(|(index, spec)| {
                        Daemon::new(
                            format!("node{node}-daemon{index}"),
                            spec.build(),
                            keys.key_for(node, index),
                        )
                    })
                    .collect()
            })
            .collect();
        Self {
            cluster,
            daemons,
            pool: (0..C::NODES)
                .map(|_| Arc::new(TripletBuffer::new()))
                .collect(),
            profile,
            system: system_label(&profile, &specs),
            build_seconds,
        }
    }
}

/// Opens and closes the `superstep[i]` spans of one traced job.  A superstep
/// runs from one entry of [`ComputePhase::compute`] to the next, so it covers
/// the compute phase, `synchronize` and the driver's loop bookkeeping; the
/// first also covers `run_phased`'s own start-up.
struct Steps<'t> {
    tracer: &'t mut Tracer,
    job: u64,
    job_span: SpanId,
    run_start: Instant,
    open: Option<SpanId>,
}

impl<'t> Steps<'t> {
    /// Starts the clock of `superstep[0]`: call right before `run_phased`.
    fn new(tracer: &'t mut Tracer, job: u64, job_span: SpanId) -> Self {
        Self {
            tracer,
            job,
            job_span,
            run_start: Instant::now(),
            open: None,
        }
    }

    fn begin(&mut self, iteration: usize) -> SpanId {
        let now = Instant::now();
        let start = match self.open.take() {
            Some(previous) => {
                self.tracer.close_at(previous, now);
                now
            }
            None => self.run_start,
        };
        let step = self.tracer.open_at(
            "superstep",
            Some(iteration as u32),
            Some(self.job_span),
            self.job,
            Bucket::Communication,
            start,
        );
        self.open = Some(step);
        step
    }

    fn finish(&mut self) {
        if let Some(last) = self.open.take() {
            self.tracer.close_at(last, Instant::now());
        }
    }
}

/// The serial compute phase of `session::run_agents_serial`, with a span per
/// node's `Agent::process_iteration`.
struct TracedSerial<'a, 't, C: SessionCase> {
    agents: &'a mut [Agent<C::V, f64, Msg<C>>],
    algorithm: &'a C::A,
    steps: Steps<'t>,
    /// Superstep at which node 0 is copied for the probes.
    snapshot_at: usize,
    snapshot: Option<NodeState<C::V, f64>>,
}

impl<C: SessionCase> ComputePhase<C::V, f64, Msg<C>> for TracedSerial<'_, '_, C> {
    type Error = RuntimeError;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<C::V, f64>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<C::V, Msg<C>>>, RuntimeError> {
        let step = self.steps.begin(iteration);
        if iteration == self.snapshot_at {
            self.snapshot = Some(nodes[0].clone());
        }
        nodes
            .iter_mut()
            .zip(self.agents.iter_mut())
            .enumerate()
            .map(|(node_id, (node, agent))| {
                let start = Instant::now();
                let output = agent.process_iteration(node, self.algorithm, iteration);
                self.steps.tracer.record(
                    "core.agent",
                    Some(node_id as u32),
                    Some(step),
                    self.steps.job,
                    Bucket::Compute,
                    start,
                    Instant::now(),
                );
                output
            })
            .collect()
    }
}

/// The threaded compute phase ([`ThreadedNodes`]) with one span around the
/// whole fan-out-and-barrier.
struct TracedThreaded<'t, 'agents, 'scope, 'env, C: SessionCase> {
    inner: ThreadedNodes<'agents, 'scope, 'env, C::V, f64, C::A>,
    steps: Steps<'t>,
}

impl<'env, C: SessionCase> ComputePhase<C::V, f64, Msg<C>> for TracedThreaded<'_, '_, '_, 'env, C>
where
    C::A: 'env,
    Msg<C>: 'env,
{
    type Error = RuntimeError;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<C::V, f64>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<C::V, Msg<C>>>, RuntimeError> {
        let step = self.steps.begin(iteration);
        let start = Instant::now();
        let outputs = self.inner.compute(nodes, iteration);
        self.steps.tracer.record(
            "core.compute",
            None,
            Some(step),
            self.steps.job,
            Bucket::Compute,
            start,
            Instant::now(),
        );
        outputs
    }
}

/// What one traced job produced.
struct TracedJob<C: SessionCase> {
    span: SpanId,
    report: RunReport,
    values: Vec<C::V>,
    snapshot: Option<NodeState<C::V, f64>>,
}

/// One job on the rig, span tree `job -> engine.reset -> superstep[i] ->
/// core.agent[node] | core.compute -> engine.collect`, following
/// `Session::run_with` step by step.
fn traced_job<C: SessionCase>(
    rig: &mut Rig<C>,
    tracer: &mut Tracer,
    job: u64,
    mode: ExecutionMode,
    snapshot_at: usize,
) -> TracedJob<C> {
    let algorithm = C::algorithm();
    let config = MiddlewareConfig::default().with_execution(mode);
    let sync_policy = if config.skipping {
        SyncPolicy::SkipWhenLocal
    } else {
        SyncPolicy::AlwaysSync
    };
    let job_start = Instant::now();
    let job_span = tracer.open_at("job", None, None, job, Bucket::Compute, job_start);
    tracer.time(
        "engine.reset",
        Some(job_span),
        job,
        Bucket::Preprocessing,
        || rig.cluster.reset_for(&algorithm),
    );
    let daemons = std::mem::take(&mut rig.daemons);
    let pool = std::mem::take(&mut rig.pool);
    let profile = rig.profile;
    let system = rig.system.as_str();
    let cluster = &mut rig.cluster;
    let local_vertices: Vec<usize> = (0..C::NODES)
        .map(|node| cluster.node(node).num_vertices())
        .collect();

    let (report, snapshot, daemons, pool) = match mode {
        ExecutionMode::Serial => {
            let mut agents: Vec<Agent<C::V, f64, Msg<C>>> = daemons
                .into_iter()
                .zip(pool)
                .enumerate()
                .map(|(node, (node_daemons, buffer))| {
                    let mut agent =
                        Agent::new(node, node_daemons, profile, config, local_vertices[node]);
                    agent.install_triplet_buffer(buffer);
                    agent
                })
                .collect();
            let setup = agents
                .iter_mut()
                .map(Agent::connect)
                .fold(SimDuration::ZERO, SimDuration::max);
            let mut phase = TracedSerial::<C> {
                agents: &mut agents,
                algorithm: &algorithm,
                steps: Steps::new(tracer, job, job_span),
                snapshot_at,
                snapshot: None,
            };
            let report = cluster.run_phased(
                &algorithm,
                "unnamed",
                system,
                DEFAULT_MAX_ITERATIONS,
                sync_policy,
                setup,
                &mut phase,
            );
            phase.steps.finish();
            let snapshot = phase.snapshot.take();
            let (daemons, pool) = agents
                .into_iter()
                .map(|mut agent| {
                    let buffer = agent.take_triplet_buffer();
                    (agent.into_daemons(), buffer)
                })
                .unzip();
            (report, snapshot, daemons, pool)
        }
        ExecutionMode::Threaded => std::thread::scope(|scope| {
            let mut agents: Vec<ThreadedAgent<'_, '_, C::V, f64, Msg<C>>> = daemons
                .into_iter()
                .zip(pool)
                .enumerate()
                .map(|(node, (node_daemons, buffer))| {
                    let mut agent = ThreadedAgent::spawn(
                        scope,
                        node,
                        node_daemons,
                        profile,
                        config,
                        local_vertices[node],
                    );
                    agent.install_triplet_buffer(buffer);
                    agent
                })
                .collect();
            let setup = agents
                .iter_mut()
                .map(ThreadedAgent::connect)
                .fold(SimDuration::ZERO, SimDuration::max);
            let mut phase = TracedThreaded::<C> {
                inner: ThreadedNodes {
                    agents: &mut agents,
                    algorithm: &algorithm,
                },
                steps: Steps::new(tracer, job, job_span),
            };
            let report = cluster.run_phased(
                &algorithm,
                "unnamed",
                system,
                DEFAULT_MAX_ITERATIONS,
                sync_policy,
                setup,
                &mut phase,
            );
            phase.steps.finish();
            let (daemons, pool) = agents
                .into_iter()
                .map(|mut agent| {
                    let buffer = agent.take_triplet_buffer();
                    (agent.join(), buffer)
                })
                .unzip();
            (report, None, daemons, pool)
        }),
    };
    rig.daemons = daemons;
    rig.pool = pool;
    let report = report.expect("the traced job runs");
    let values = tracer.time(
        "engine.collect",
        Some(job_span),
        job,
        Bucket::Transfer,
        || rig.cluster.collect_values(),
    );
    tracer.close_at(job_span, Instant::now());
    TracedJob {
        span: job_span,
        report,
        values,
        snapshot,
    }
}

fn traced<C: SessionCase>(args: RunArgs, d: &mut Deployed<'_, C>) -> Outcome {
    let mut outcome = Outcome::default();
    let algorithm = C::algorithm();
    let expected = C::fingerprint(&d.first.values);
    let default_config = MiddlewareConfig::default();
    let budget = args.seconds / 2.0;

    // ---- the reference: plain `Session::run`, tracing off ------------------
    let phase_start = Instant::now();
    let mut last = None;
    let plain = sample_walls(budget, usize::MAX, || {
        last = Some(d.session.run(&algorithm).expect("a warm job runs"));
    });
    let plain_wall = phase_start.elapsed().as_secs_f64();
    let run = last.expect("at least one job ran");
    outcome.check(
        C::fingerprint(&run.values) == expected,
        "a warm job diverged from the first job",
    );
    let plain_job = stats::median(&plain);
    let supersteps = run.report.num_iterations();
    outcome.put_median_ms("job_ms_p50", &plain);
    outcome.put(
        "edges_per_s",
        (run.report.total_triplets() * plain.len()) as f64 / plain_wall,
        plain.len(),
    );
    outcome.put(
        "supersteps_per_s",
        (supersteps * plain.len()) as f64 / plain_wall,
        plain.len(),
    );

    // ---- counts the public API already returns -----------------------------
    let steps = supersteps.max(1) as f64;
    let report = &run.report;
    let sum = |f: fn(&gx_plug::engine::metrics::IterationMetrics) -> usize| {
        report.iterations.iter().map(f).sum::<usize>() as f64
    };
    outcome.put("engine.supersteps_per_job", supersteps as f64, 1);
    outcome.put(
        "engine.sync.remote_msgs_per_superstep",
        sum(|i| i.remote_messages) / steps,
        supersteps,
    );
    outcome.put(
        "engine.sync.replica_updates_per_superstep",
        sum(|i| i.replica_updates) / steps,
        supersteps,
    );
    outcome.put(
        "engine.sync.skipped_share",
        report.skipped_iterations() as f64 / steps,
        supersteps,
    );
    let mut agents = AgentStats::default();
    for stats in &run.agent_stats {
        agents.merge(stats);
    }
    outcome.put(
        "core.daemon.launches_per_superstep",
        agents.kernel_launches as f64 / steps,
        supersteps,
    );
    outcome.put("core.pipeline.mean_block_size", agents.mean_block_size(), 1);
    outcome.put("core.sync_cache.hit_ratio", agents.cache.hit_ratio(), 1);
    outcome.put(
        "core.sync_cache.evictions_per_superstep",
        agents.cache.evictions as f64 / steps,
        supersteps,
    );

    // ---- diffs: the same job with one public switch flipped ----------------
    d.session.set_config(default_config.with_caching(false));
    let uncached = sample_walls(budget / 8.0, 3, || {
        black_box(d.session.run(&algorithm).expect("the uncached job runs"));
    });
    outcome.put(
        "core.sync_cache.wall_share",
        1.0 - stats::median(&uncached) / plain_job,
        uncached.len(),
    );
    d.session
        .set_config(default_config.with_execution(ExecutionMode::Serial));
    let serial = sample_walls(budget / 8.0, 3, || {
        black_box(d.session.run(&algorithm).expect("the serial job runs"));
    });
    outcome.put(
        "core.runtime.threaded_speedup",
        stats::median(&serial) / plain_job,
        serial.len(),
    );
    d.session.set_config(default_config);
    let mut native = None;
    let native_walls = sample_walls(budget / 8.0, 3, || {
        native = Some(d.session.run_native(&algorithm));
    });
    let native = native.expect("at least one native run");
    outcome.check(
        C::fingerprint(&native.values) == expected,
        "accelerated values are not bit-identical to run_native",
    );
    outcome.put(
        "core.middleware.wall_ratio",
        plain_job / stats::median(&native_walls),
        native_walls.len(),
    );
    outcome.put(
        "sim_accel_ratio",
        native.report.total_time().as_millis() / run.report.steady_time().as_millis(),
        1,
    );
    d.session.set_backend(BackendKind::host_parallel());
    // The swapped-in devices initialise on their first job; time the next.
    let swapped = d
        .session
        .run(&algorithm)
        .expect("the host-parallel job runs");
    outcome.check(
        C::fingerprint(&swapped.values) == expected,
        "host-parallel values are not bit-identical to sim",
    );
    let host_parallel = sample_walls(budget / 8.0, 3, || {
        black_box(
            d.session
                .run(&algorithm)
                .expect("the host-parallel job runs"),
        );
    });
    outcome.put(
        "accel.host_parallel_speedup",
        plain_job / stats::median(&host_parallel),
        host_parallel.len(),
    );

    // ---- spans: the benchmark's own superstep driver -----------------------
    let mut rig = Rig::<C>::new(d);
    let mut tracer = Tracer::new();
    let snapshot_at = supersteps / 2;
    // Job 0 warms the rig's arenas the way the session's cold job did.
    traced_job(
        &mut rig,
        &mut tracer,
        0,
        ExecutionMode::Threaded,
        usize::MAX,
    );
    let threaded = traced_job(
        &mut rig,
        &mut tracer,
        1,
        ExecutionMode::Threaded,
        usize::MAX,
    );
    let serial_job = traced_job(&mut rig, &mut tracer, 2, ExecutionMode::Serial, snapshot_at);
    for job in [&threaded, &serial_job] {
        outcome.check(
            C::fingerprint(&job.values) == expected && job.report.num_iterations() == supersteps,
            "the traced job is not bit-identical to Session::run",
        );
    }
    let seconds = |id: SpanId| tracer.span(id).duration_ns() as f64 / 1e9;
    let threaded_wall = seconds(threaded.span);
    let serial_wall = seconds(serial_job.span);
    outcome.put("trace.overhead_share", threaded_wall / plain_job - 1.0, 1);

    let own = tracer.self_seconds_by_name(2);
    let own_of = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let agent_spans: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|span| span.job == 2 && span.name == "core.agent")
        .map(|span| span.duration_ns() as f64 / 1e9)
        .collect();
    let agent_total: f64 = agent_spans.iter().sum();
    outcome.check(
        own_of("job") <= 0.05 * serial_wall,
        "more than 5% of the serial traced job is attributed to no layer",
    );
    outcome.put("core.agent.wall_share", agent_total / serial_wall, 1);
    outcome.put(
        "core.agent.us_per_superstep_node",
        stats::median(&agent_spans) * 1e6,
        agent_spans.len(),
    );
    outcome.put(
        "engine.sync.wall_share",
        own_of("superstep") / serial_wall,
        1,
    );
    outcome.put(
        "engine.sync.us_per_superstep",
        own_of("superstep") * 1e6 / steps,
        supersteps,
    );
    let compute_total: f64 = tracer
        .spans()
        .iter()
        .filter(|span| span.job == 1 && span.name == "core.compute")
        .map(|span| span.duration_ns() as f64 / 1e9)
        .sum();
    let lanes = C::NODES.min(sys::available_parallelism()) as f64;
    outcome.put(
        "core.runtime.coordination_us_per_superstep",
        (compute_total - agent_total / lanes) * 1e6 / steps,
        supersteps,
    );
    outcome.put("engine.cluster.build_ms", rig.build_seconds * 1e3, 1);
    outcome.put_median_ms("engine.cluster.reset_ms", &tracer.durations("engine.reset"));
    outcome.put_median_ms("engine.collect_ms", &tracer.durations("engine.collect"));
    d.setup.report(&mut outcome, &d.partitioning);

    // ---- probes: node 0's mid-run state through one function at a time -----
    if let Some(node) = serial_job.snapshot {
        probes::<C>(&mut outcome, node, snapshot_at, agents.mean_block_size());
    }

    finish_traced(&mut outcome, &tracer, C::NAME, args.scale);
    outcome
}

/// Replays the frontier node 0 had at superstep `iteration` through the
/// public functions of the superstep path, one at a time.
fn probes<C: SessionCase>(
    outcome: &mut Outcome,
    mut node: NodeState<C::V, f64>,
    iteration: usize,
    mean_block_size: f64,
) {
    let algorithm = C::algorithm();
    let mut edge_ids = Vec::new();
    let scan = probe(|| node.active_edge_ids_into(black_box(&mut edge_ids)));
    let edges = edge_ids.len();
    outcome.put(
        "engine.node.frontier_scan_ns_per_edge",
        per_item_ns(scan, edges),
        edges,
    );

    let mut buffer = TripletBuffer::new();
    let fill = probe(|| {
        black_box(node.fill_triplets(&edge_ids, &mut buffer));
    });
    let triplets = buffer.len();
    outcome.put(
        "engine.node.fill_triplets_ns_per_triplet",
        per_item_ns(fill, triplets),
        triplets,
    );

    // The floor under the daemon path: the algorithm's kernel alone.
    let kernel = probe(|| {
        for triplet in buffer.as_slice() {
            black_box(GraphAlgorithm::msg_gen(
                &algorithm,
                black_box(triplet),
                iteration,
            ));
        }
    });
    outcome.put(
        "algos.msg_gen_ns_per_triplet",
        per_item_ns(kernel, triplets),
        triplets,
    );

    let spec = gpu_v100("probe-gpu");
    let mut daemon = Daemon::new("probe", spec.build(), KeyGenerator::new(0xC1).key_for(0, 0));
    daemon.start();
    let block_size = (mean_block_size.round() as usize).max(1);
    let mut messages = Vec::new();
    let mut gen_laps = Vec::new();
    let mut merge_laps = Vec::new();
    let mut generated = 0;
    let start = Instant::now();
    while gen_laps.len() < 5 || (start.elapsed().as_secs_f64() < 0.2 && gen_laps.len() < 100_000) {
        let lap = Instant::now();
        for block in triplet_block_views(buffer.as_slice(), block_size) {
            daemon
                .execute_gen_into(&algorithm, block, iteration, &mut messages)
                .expect("the probe block fits the device");
        }
        gen_laps.push(lap.elapsed().as_secs_f64());
        generated = messages.len();
        let lap = Instant::now();
        black_box(merge_addressed::<C::V, f64, _, _>(
            &algorithm,
            messages.drain(..),
        ));
        merge_laps.push(lap.elapsed().as_secs_f64());
    }
    outcome.put(
        "core.daemon.gen_ns_per_triplet",
        per_item_ns(stats::median(&gen_laps), triplets),
        triplets,
    );
    outcome.put(
        "core.daemon.merge_ns_per_msg",
        per_item_ns(stats::median(&merge_laps), generated),
        generated,
    );

    let mut backend = spec.build();
    backend.initialize();
    let empty = probe(|| {
        black_box(backend.launch(1, &|_chunk: ChunkSpec| {}).expect("launch"));
    });
    outcome.put("accel.launch_overhead_ns", empty * 1e9, 1);
    let items = 1 << 16;
    let touching = probe(|| {
        let kernel = |chunk: ChunkSpec| {
            for item in chunk.range {
                black_box(item);
            }
        };
        black_box(backend.launch(items, &kernel).expect("launch"));
    });
    outcome.put(
        "accel.launch_ns_per_item",
        per_item_ns(touching, items),
        items,
    );
}
