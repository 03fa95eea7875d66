//! Criterion micro-benchmarks for the middleware hot path: the Lemma-1
//! block-size machinery, the zero-copy vs owned-copy triplet hot path, the
//! dense-id data layout vs the seed's hash-keyed layout (`dense_hot_path`),
//! and the end-to-end serial-vs-threaded execution modes of the middleware
//! runtime.
//!
//! Besides the human-readable criterion output, the suite emits a
//! machine-readable `BENCH_pipeline.json` (mode, graph, wall time, blocks,
//! bytes moved) so the perf trajectory of the hot path is tracked commit over
//! commit.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use gxplug_accel::{presets, BackendKind};
use gxplug_algos::{MultiSourceSssp, PageRank, RankValue};
use gxplug_core::daemon::{execute_share, merge_addressed};
use gxplug_core::{
    split_by_capacity, CachePolicy, Daemon, ExecutionMode, GraphService, JobOptions,
    MiddlewareConfig, PipelineCoefficients, Session, SessionBuilder,
};
use gxplug_engine::network::NetworkModel;
use gxplug_engine::node::NodeState;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::dense::DenseSlots;
use gxplug_graph::generators::{Generator, Rmat};
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::mutate::{MutationBatch, MutationLog};
use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner, Partitioning};
use gxplug_graph::types::{Triplet, VertexId};
use gxplug_graph::view::TripletBuffer;
use gxplug_ipc::blocks::TripletBlock;
use gxplug_ipc::key::KeyGenerator;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_block_size_selection(c: &mut Criterion) {
    let coefficients = PipelineCoefficients::paper_pagerank();
    c.bench_function("lemma1_optimal_block_size", |b| {
        b.iter(|| black_box(coefficients.optimal_block_size(black_box(1_000_000))))
    });
    c.bench_function("equation2_estimate_sweep", |b| {
        b.iter(|| {
            let mut best = f64::INFINITY;
            for block_size in (64..=65_536).step_by(1_024) {
                best = best.min(coefficients.estimate_total(1_000_000, block_size));
            }
            black_box(best)
        })
    });
    c.bench_function("discrete_schedule_simulation", |b| {
        b.iter(|| black_box(coefficients.simulate_schedule(black_box(100_000), 1_024)))
    });
}

/// The message type of the hot-path workload.
type SsspMsg = <MultiSourceSssp as GraphAlgorithm<Vec<f64>, f64>>::Msg;

/// One node's worth of hot-path state: an all-active [`NodeState`] plus two
/// started mixed daemons, shared by the owned-copy and borrowed-block arms.
struct HotPathFixture {
    node: NodeState<Vec<f64>, f64>,
    edge_ids: Vec<usize>,
    daemons: Vec<Daemon>,
    capacities: Vec<f64>,
    algorithm: MultiSourceSssp,
}

impl HotPathFixture {
    fn new() -> Self {
        let list = Rmat::new(12, 8.0).generate(7);
        let graph: PropertyGraph<Vec<f64>, f64> =
            PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 1)
            .unwrap();
        let algorithm = MultiSourceSssp::paper_default();
        let mut node = NodeState::build(0, &graph, &partitioning, &algorithm);
        let all: HashSet<VertexId> = node.vertex_table().ids().collect();
        node.set_active(all);
        let edge_ids = node.active_edge_ids();
        let keys = KeyGenerator::new(0xB0);
        let mut daemons = vec![
            Daemon::new("gpu", presets::gpu_v100("gpu"), keys.key_for(0, 0)),
            Daemon::new("cpu", presets::cpu_xeon_20c("cpu"), keys.key_for(0, 1)),
        ];
        for daemon in &mut daemons {
            daemon.start();
        }
        let capacities: Vec<f64> = daemons.iter().map(Daemon::capacity_factor).collect();
        Self {
            node,
            edge_ids,
            daemons,
            capacities,
            algorithm,
        }
    }

    /// The seed's owned-copy pipeline: materialise a fresh triplet vector,
    /// copy each capacity share out, copy each chunk into an owned block,
    /// collect messages into fresh vectors.  Three full triplet copies.
    fn iteration_owned(&mut self, block_size: usize) -> (usize, usize) {
        let triplets = self.node.triplets_for(&self.edge_ids);
        let mut raw = Vec::new();
        let mut blocks = 0usize;
        for (daemon_index, range) in split_by_capacity(triplets.len(), &self.capacities)
            .into_iter()
            .enumerate()
        {
            let share: Vec<Triplet<Vec<f64>, f64>> = triplets[range].to_vec();
            for (index, chunk) in share.chunks(block_size).enumerate() {
                let block = TripletBlock {
                    index,
                    triplets: chunk.to_vec(),
                };
                let (messages, _timing) = self.daemons[daemon_index]
                    .execute_gen(&self.algorithm, block.as_ref(), 0)
                    .unwrap();
                raw.extend(messages);
                blocks += 1;
            }
        }
        let merged = merge_addressed(&self.algorithm, raw);
        (merged.len(), blocks)
    }

    /// The zero-copy pipeline: refill the reusable arena, split into index
    /// ranges, feed borrowed block views to the daemons, drain pooled
    /// message buffers into the merge.  One triplet materialisation, zero
    /// further copies.
    fn iteration_borrowed(
        &mut self,
        block_size: usize,
        buffer: &mut TripletBuffer<Vec<f64>, f64>,
        msg_bufs: &mut [Vec<AddressedMessage<SsspMsg>>],
    ) -> (usize, usize) {
        self.node.fill_triplets(&self.edge_ids, buffer);
        let triplets = buffer.as_slice();
        let mut blocks = 0usize;
        for (daemon_index, range) in split_by_capacity(triplets.len(), &self.capacities)
            .into_iter()
            .enumerate()
        {
            let out = &mut msg_bufs[daemon_index];
            out.clear();
            blocks += execute_share(
                &mut self.daemons[daemon_index],
                &self.algorithm,
                &triplets[range],
                block_size,
                0,
                out,
            )
            .unwrap();
        }
        let merged = merge_addressed(
            &self.algorithm,
            msg_bufs.iter_mut().flat_map(|buf| buf.drain(..)),
        );
        (merged.len(), blocks)
    }
}

/// The agent→daemon `MSGGen` hot path, one full all-active iteration per
/// sample: the owned-copy pipeline of the seed (materialise + share copy +
/// block copy) against the borrowed-block zero-copy pipeline.  The workload
/// (triplets, kernels, merge) is identical; the difference is purely the
/// copies and allocations the borrowed path no longer performs.
fn bench_msg_gen_hot_path(c: &mut Criterion) {
    let mut fixture = HotPathFixture::new();
    let block_size = 1_024usize;
    let mut group = c.benchmark_group("msg_gen_hot_path");
    group.bench_function("owned_copy_path", |b| {
        b.iter(|| black_box(fixture.iteration_owned(block_size)))
    });
    let mut buffer = TripletBuffer::new();
    let mut msg_bufs = vec![Vec::new(), Vec::new()];
    group.bench_function("borrowed_block_path", |b| {
        b.iter(|| black_box(fixture.iteration_borrowed(block_size, &mut buffer, &mut msg_bufs)))
    });
    group.finish();
}

/// One node's worth of layout-comparison state over rmat-12: the dense-id
/// data path as shipped (all-active fast path / frontier-bitset edge
/// enumeration, pooled triplets, slot-array message merge) against an
/// in-bench replica of the seed's hash-keyed layout (`HashSet` frontier,
/// `HashMap` out-edge map, `sort_unstable`, `HashMap`-keyed merge).  Both
/// arms share the node, daemons and kernel work, so the measured delta is
/// purely the data-structure walk the dense refactor replaced.
struct LayoutFixture<V, A: GraphAlgorithm<V, f64>> {
    node: NodeState<V, f64>,
    /// Seed replica of the deleted `VertexEdgeMap`: global id → out-edge ids.
    edge_map: HashMap<VertexId, Vec<usize>>,
    /// Seed replica of the hash-keyed frontier.
    active_hash: HashSet<VertexId>,
    daemons: Vec<Daemon>,
    capacities: Vec<f64>,
    algorithm: A,
}

impl<V, A> LayoutFixture<V, A>
where
    V: Clone + Sync,
    A: GraphAlgorithm<V, f64>,
{
    /// Builds the single-node rmat-12 deployment with an all-active frontier.
    fn new(algorithm: A, default_value: V) -> Self {
        let list = Rmat::new(12, 8.0).generate(7);
        let graph: PropertyGraph<V, f64> =
            PropertyGraph::from_edge_list(list, default_value).unwrap();
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 1)
            .unwrap();
        let mut node = NodeState::build(0, &graph, &partitioning, &algorithm);
        node.activate_all();
        let edge_map: HashMap<VertexId, Vec<usize>> = node
            .vertex_table()
            .ids()
            .map(|v| (v, node.out_edge_ids(v).to_vec()))
            .collect();
        let active_hash: HashSet<VertexId> = node.vertex_table().ids().collect();
        let keys = KeyGenerator::new(0xD0);
        let mut daemons = vec![
            Daemon::new("gpu", presets::gpu_v100("gpu"), keys.key_for(0, 0)),
            Daemon::new("cpu", presets::cpu_xeon_20c("cpu"), keys.key_for(0, 1)),
        ];
        for daemon in &mut daemons {
            daemon.start();
        }
        let capacities: Vec<f64> = daemons.iter().map(Daemon::capacity_factor).collect();
        Self {
            node,
            edge_map,
            active_hash,
            daemons,
            capacities,
            algorithm,
        }
    }

    /// Shrinks both frontiers to the given sources (the sparse-superstep
    /// arms: the cost must track the frontier, not the graph).
    fn set_sparse_frontier(&mut self, sources: &[VertexId]) {
        self.node.set_active(sources.iter().copied());
        self.active_hash = sources.iter().copied().collect();
    }

    /// Runs the daemon kernels over the prepared triplet buffer and drains
    /// the raw messages into `msg_bufs` — the part both layouts share.
    fn run_kernels(
        &mut self,
        block_size: usize,
        buffer: &TripletBuffer<V, f64>,
        msg_bufs: &mut [Vec<AddressedMessage<A::Msg>>],
    ) {
        let triplets = buffer.as_slice();
        for (daemon_index, range) in split_by_capacity(triplets.len(), &self.capacities)
            .into_iter()
            .enumerate()
        {
            let out = &mut msg_bufs[daemon_index];
            out.clear();
            execute_share(
                &mut self.daemons[daemon_index],
                &self.algorithm,
                &triplets[range],
                block_size,
                0,
                out,
            )
            .unwrap();
        }
    }

    /// One superstep on the shipped dense layout: bitset frontier → ascending
    /// edge ids (all-active fast path when applicable), pooled triplet
    /// refill, kernels, then the Vec-indexed slot-array merge.
    fn iteration_dense(
        &mut self,
        block_size: usize,
        edge_ids: &mut Vec<usize>,
        buffer: &mut TripletBuffer<V, f64>,
        msg_bufs: &mut [Vec<AddressedMessage<A::Msg>>],
        merge: &mut DenseSlots<A::Msg>,
    ) -> usize {
        self.node.active_edge_ids_into(edge_ids);
        self.node.fill_triplets(edge_ids, buffer);
        self.run_kernels(block_size, buffer, msg_bufs);
        let table = self.node.vertex_table();
        let algorithm = &self.algorithm;
        merge.ensure_capacity(table.len());
        merge.begin();
        for message in msg_bufs.iter_mut().flat_map(|buf| buf.drain(..)) {
            // Single-node deployment: every target is local by construction.
            let local = table.local_of(message.target).expect("local target");
            merge.merge(local, message.payload, |a, b| algorithm.msg_merge(a, b));
        }
        let mut merged: Vec<AddressedMessage<A::Msg>> = Vec::with_capacity(merge.len());
        for i in 0..merge.len() {
            let local = merge.touched_at(i);
            let payload = merge.take(local).expect("touched slot");
            merged.push(AddressedMessage::new(table.global_of(local), payload));
        }
        merged.len()
    }

    /// One superstep on the seed's hash-keyed layout, replicated in-bench
    /// (the engine no longer carries these structures): `HashSet` frontier →
    /// per-vertex `HashMap` lookups → `sort_unstable`, the same pooled
    /// triplets and kernels, then the `HashMap`-keyed `merge_addressed`.
    fn iteration_hash(
        &mut self,
        block_size: usize,
        edge_ids: &mut Vec<usize>,
        buffer: &mut TripletBuffer<V, f64>,
        msg_bufs: &mut [Vec<AddressedMessage<A::Msg>>],
    ) -> usize {
        edge_ids.clear();
        for v in &self.active_hash {
            if let Some(edges) = self.edge_map.get(v) {
                edge_ids.extend_from_slice(edges);
            }
        }
        edge_ids.sort_unstable();
        self.node.fill_triplets(edge_ids, buffer);
        self.run_kernels(block_size, buffer, msg_bufs);
        let merged = merge_addressed(
            &self.algorithm,
            msg_bufs.iter_mut().flat_map(|buf| buf.drain(..)),
        );
        merged.len()
    }
}

/// The dense-id data path against the seed's hash-keyed layout, one full
/// superstep per sample on the same node and daemons: all-active PageRank
/// (the merge-heavy worst case the refactor targeted) and a 64-source sparse
/// SSSP frontier (where the cost must be proportional to the frontier, not
/// the graph).
fn bench_dense_hot_path(c: &mut Criterion) {
    let block_size = 1_024usize;
    let mut group = c.benchmark_group("dense_hot_path");
    {
        let mut fixture = LayoutFixture::new(
            PageRank::new(20),
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        );
        let mut edge_ids = Vec::new();
        let mut buffer = TripletBuffer::new();
        let mut msg_bufs = vec![Vec::new(), Vec::new()];
        let mut merge = DenseSlots::new();
        group.bench_function("pagerank_allactive_rmat12/dense", |b| {
            b.iter(|| {
                black_box(fixture.iteration_dense(
                    block_size,
                    &mut edge_ids,
                    &mut buffer,
                    &mut msg_bufs,
                    &mut merge,
                ))
            })
        });
        group.bench_function("pagerank_allactive_rmat12/hash", |b| {
            b.iter(|| {
                black_box(fixture.iteration_hash(
                    block_size,
                    &mut edge_ids,
                    &mut buffer,
                    &mut msg_bufs,
                ))
            })
        });
    }
    {
        let mut fixture = LayoutFixture::new(MultiSourceSssp::paper_default(), Vec::new());
        let sources: Vec<VertexId> = (0..64).collect();
        fixture.set_sparse_frontier(&sources);
        let mut edge_ids = Vec::new();
        let mut buffer = TripletBuffer::new();
        let mut msg_bufs = vec![Vec::new(), Vec::new()];
        let mut merge = DenseSlots::new();
        group.bench_function("sssp_sparse64_rmat12/dense", |b| {
            b.iter(|| {
                black_box(fixture.iteration_dense(
                    block_size,
                    &mut edge_ids,
                    &mut buffer,
                    &mut msg_bufs,
                    &mut merge,
                ))
            })
        });
        group.bench_function("sssp_sparse64_rmat12/hash", |b| {
            b.iter(|| {
                black_box(fixture.iteration_hash(
                    block_size,
                    &mut edge_ids,
                    &mut buffer,
                    &mut msg_bufs,
                ))
            })
        });
    }
    group.finish();
}

/// The end-to-end bench workload shared by the `execution_modes` criterion
/// group and the JSON emitter: the rmat-12 graph, vertex-cut over 4 nodes.
fn end_to_end_workload() -> (PropertyGraph<Vec<f64>, f64>, Partitioning, usize) {
    let parts = 4;
    let list = Rmat::new(12, 8.0).generate(42);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    (graph, partitioning, parts)
}

/// Deploys the shared end-to-end configuration (one GPU + one CPU daemon per
/// node) in the given execution mode.  Both consumers of
/// [`end_to_end_workload`] go through this, so the criterion numbers and
/// `BENCH_pipeline.json` always measure the same deployment.
fn mixed_device_session<'g>(
    graph: &'g PropertyGraph<Vec<f64>, f64>,
    partitioning: &Partitioning,
    parts: usize,
    mode: ExecutionMode,
    backend: BackendKind,
) -> Session<'g, Vec<f64>, f64> {
    SessionBuilder::new(graph)
        .partitioned_by(partitioning.clone())
        .profile(RuntimeProfile::powergraph())
        .network(NetworkModel::datacenter())
        .devices(
            (0..parts)
                .map(|n| {
                    vec![
                        presets::gpu_v100(format!("n{n}g")),
                        presets::cpu_xeon_20c(format!("n{n}c")),
                    ]
                })
                .collect(),
        )
        .backend(backend)
        .config(MiddlewareConfig::default().with_execution(mode))
        .dataset("rmat12")
        .max_iterations(100)
        .build()
        .unwrap()
}

/// The live-mutation churn matrix: fraction of the edge table inserted per
/// batch, from "a trickle" to "a tenth of the graph at once".
const CHURN_ARMS: [(&str, f64); 3] = [("0.1%", 0.001), ("1%", 0.01), ("10%", 0.1)];

/// Deterministic insert-only churn batch: `batch_size` new edges whose
/// endpoints come from a splitmix64 hash of `(round, index)`, so every bench
/// invocation replays the identical mutation log.  Insert-only keeps the
/// warm distances valid upper bounds, which is what lets the incremental
/// rerun take the dirty-frontier path.
fn churn_batch(num_vertices: u32, batch_size: usize, round: usize) -> MutationBatch<Vec<f64>, f64> {
    let mut batch = MutationBatch::new();
    for i in 0..batch_size {
        let mut x = ((round as u64) << 32) | i as u64;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let src = (x as u32) % num_vertices;
        let dst = ((x >> 32) as u32) % num_vertices;
        batch = batch.add_edge(src, dst, 0.5 + (i % 7) as f64);
    }
    batch
}

/// Latency of the incremental rerun after each churn batch lands on a live
/// deployment: apply the delta in place (outside the clock), then rerun SSSP
/// seeded from the dirty frontier on the warm converged distances.  The log
/// keeps growing across iterations — exactly what a live deployment sees.
/// The paired full-recompute walls and the bit-equality check against them
/// live in the JSON emitter.
fn bench_incremental_recompute(c: &mut Criterion) {
    let (graph, partitioning, parts) = end_to_end_workload();
    let algorithm = MultiSourceSssp::paper_default();
    let num_edges = graph.num_edges();
    let mut group = c.benchmark_group("incremental_recompute");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for (pct, churn) in CHURN_ARMS {
        let batch_size = ((num_edges as f64 * churn) as usize).max(1);
        group.bench_with_input(
            BenchmarkId::new("sssp_rmat12_4nodes", format!("churn={pct}")),
            &batch_size,
            |b, &batch_size| {
                let mut session = mixed_device_session(
                    &graph,
                    &partitioning,
                    parts,
                    ExecutionMode::Threaded,
                    BackendKind::Sim,
                );
                // Converge once: the warm state every incremental rerun
                // starts from.
                session.run(&algorithm).unwrap();
                let mut log = MutationLog::new(
                    graph.num_vertices(),
                    graph.edges().iter().map(|e| (e.src, e.dst)),
                );
                let mut round = 0usize;
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let delta = log
                            .append(&churn_batch(graph.num_vertices() as u32, batch_size, round))
                            .unwrap();
                        round += 1;
                        session.apply_mutations(&delta);
                        let start = Instant::now();
                        black_box(session.run(&algorithm).unwrap());
                        total += start.elapsed();
                    }
                    total
                })
            },
        );
    }
    group.finish();
}

/// End-to-end wall-clock comparison of the middleware execution modes: the
/// same SSSP run with daemons serialised on one thread vs daemons on worker
/// threads and nodes fanned out per superstep.  On a multi-core host the
/// threaded mode's throughput should be at or above serial; results are
/// bit-identical either way (see the `determinism` integration test).
fn bench_execution_modes(c: &mut Criterion) {
    let (graph, partitioning, parts) = end_to_end_workload();
    let algorithm = MultiSourceSssp::paper_default();
    let mut group = c.benchmark_group("execution_modes");
    for (name, mode) in [
        ("serial", ExecutionMode::Serial),
        ("threaded", ExecutionMode::Threaded),
    ] {
        group.bench_with_input(
            BenchmarkId::new("sssp_rmat12_4nodes", name),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let outcome =
                        mixed_device_session(&graph, &partitioning, parts, mode, BackendKind::Sim)
                            .run(&algorithm)
                            .unwrap();
                    black_box(outcome.report.num_iterations())
                })
            },
        );
    }
    group.finish();
}

/// Setup amortization: running N jobs on one deployed session vs N one-shot
/// deployments.  The session arm builds the cluster (partition metadata,
/// node tables, vertex-edge maps) and initialises the devices once, then
/// only re-seeds vertex state between runs — the one-shot arm pays the full
/// deployment every time.  Results are bit-identical either way (see the
/// `determinism` integration test).
fn bench_session_reuse(c: &mut Criterion) {
    let list = Rmat::new(12, 8.0).generate(42);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).unwrap();
    let parts = 4;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    // A parameter sweep: the same algorithm submitted with different sources.
    let jobs: Vec<MultiSourceSssp> = (0..4u32)
        .map(|i| MultiSourceSssp::new(vec![i, i + 8]))
        .collect();
    let deploy = || {
        SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .profile(RuntimeProfile::powergraph())
            .network(NetworkModel::datacenter())
            .devices(
                (0..parts)
                    .map(|n| vec![presets::gpu_v100(format!("n{n}g"))])
                    .collect(),
            )
            .dataset("rmat")
            .max_iterations(100)
            .build()
            .unwrap()
    };
    let mut group = c.benchmark_group("session_reuse");
    group.bench_function("one_shot_per_job", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for job in &jobs {
                let mut session = deploy();
                total += session.run(job).unwrap().report.num_iterations();
            }
            black_box(total)
        })
    });
    group.bench_function("reused_session", |b| {
        b.iter(|| {
            let mut session = deploy();
            let mut total = 0usize;
            for job in &jobs {
                total += session.run(job).unwrap().report.num_iterations();
            }
            black_box(total)
        })
    });
    group.finish();
}

/// The accelerator backends compared by the `backend_matrix` group and the
/// JSON emitter: the cost-model sim backend against the host-parallel
/// backend executing `MSGGen` across OS threads.  Results are bit-identical
/// (the `determinism` integration test proves it); the comparison is pure
/// wall clock.
fn backend_arms() -> [(&'static str, BackendKind); 2] {
    [
        ("sim", BackendKind::Sim),
        ("host_parallel", BackendKind::host_parallel()),
    ]
}

/// End-to-end wall-clock comparison of the accelerator backends on the
/// shared rmat-12 deployment: the same SSSP job executed by the sim backend
/// and by the host-parallel backend behind the identical kernel ABI.  On a
/// multi-core host the host-parallel backend's chunked launches are where
/// real time is won; on a 1-core container the two arms converge.
fn bench_backend_matrix(c: &mut Criterion) {
    let (graph, partitioning, parts) = end_to_end_workload();
    let algorithm = MultiSourceSssp::paper_default();
    let mut group = c.benchmark_group("backend_matrix");
    for (name, backend) in backend_arms() {
        group.bench_with_input(
            BenchmarkId::new("sssp_rmat12_4nodes", name),
            &backend,
            |b, &backend| {
                b.iter(|| {
                    let outcome = mixed_device_session(
                        &graph,
                        &partitioning,
                        parts,
                        ExecutionMode::Threaded,
                        backend,
                    )
                    .run(&algorithm)
                    .unwrap();
                    black_box(outcome.report.num_iterations())
                })
            },
        );
    }
    group.finish();
}

/// Deploys a [`GraphService`] over the shared end-to-end workload: the same
/// mixed-device deployment as [`mixed_device_session`], pooled across
/// `workers` worker sessions.
fn mixed_device_service(
    graph: &Arc<PropertyGraph<Vec<f64>, f64>>,
    partitioning: &Partitioning,
    parts: usize,
    workers: usize,
) -> GraphService<Vec<f64>, f64> {
    GraphService::builder(Arc::clone(graph))
        .partitioned_by(partitioning.clone())
        .profile(RuntimeProfile::powergraph())
        .network(NetworkModel::datacenter())
        .devices(
            (0..parts)
                .map(|n| {
                    vec![
                        presets::gpu_v100(format!("n{n}g")),
                        presets::cpu_xeon_20c(format!("n{n}c")),
                    ]
                })
                .collect(),
        )
        .config(MiddlewareConfig::default())
        .dataset("rmat12")
        .max_iterations(100)
        .worker_sessions(workers)
        .build()
        .unwrap()
}

/// The job mix both service-throughput consumers submit: an SSSP source
/// sweep, four tenants deep.
fn service_job_mix() -> Vec<MultiSourceSssp> {
    (0..4u32)
        .map(|i| MultiSourceSssp::new(vec![i, i + 8]))
        .collect()
}

/// Jobs/second through the service at 1 vs 2 pooled worker sessions: each
/// sample submits the whole mix and waits for every ticket.  With one
/// worker the batch serialises; with two, jobs overlap across deployments —
/// on a multi-core host that is where throughput is won (on a 1-core
/// container the arms converge).  Results stay bit-identical either way
/// (the `determinism` integration test proves it).  Submissions bypass the
/// result cache: this group measures raw scheduling, and resubmitting the
/// same mix every sample would otherwise turn into pure cache hits.
fn bench_service_throughput(c: &mut Criterion) {
    let (graph, partitioning, parts) = end_to_end_workload();
    let graph = Arc::new(graph);
    let jobs = service_job_mix();
    let bypass = || JobOptions::new().with_cache(CachePolicy::Bypass);
    let mut group = c.benchmark_group("service_throughput");
    for workers in [1usize, 2] {
        let service = mixed_device_service(&graph, &partitioning, parts, workers);
        // Warm-up: every worker session pays its deployment outside the
        // measured region.
        let warm: Vec<_> = (0..workers)
            .map(|_| service.submit_with(jobs[0].clone(), bypass()).unwrap())
            .collect();
        for ticket in warm {
            ticket.wait().unwrap();
        }
        group.bench_with_input(
            BenchmarkId::new("sssp_mix_rmat12", format!("workers={workers}")),
            &workers,
            |b, _| {
                b.iter(|| {
                    let tickets: Vec<_> = jobs
                        .iter()
                        .map(|job| service.submit_with(job.clone(), bypass()).unwrap())
                        .collect();
                    let iterations: usize = tickets
                        .into_iter()
                        .map(|ticket| ticket.wait().unwrap().report.num_iterations())
                        .sum();
                    black_box(iterations)
                })
            },
        );
        service.shutdown();
    }
    group.finish();
}

/// The duplicate-ratio arms of the `service_cache` group: out of every
/// 10-job batch, how many submissions repeat the already-cached hot job.
const CACHE_BATCH: usize = 10;
const CACHE_DUPLICATE_ARMS: [(usize, &str); 3] = [(0, "0"), (5, "50"), (9, "90")];

/// A stream of fresh (uncached) SSSP jobs: each call yields a job whose
/// source pair has not been submitted before, cycling within the bench
/// graph's vertex range so every job does real work.
fn fresh_job(counter: &mut u32) -> MultiSourceSssp {
    let base = 64 + (*counter * 2) % 3_000;
    *counter += 1;
    MultiSourceSssp::new(vec![base, base + 1])
}

/// Throughput under duplicate traffic: batches with 0% / 50% / 90% of
/// submissions repeating one already-cached job, against a no-cache
/// baseline (the same 90%-duplicate stream submitted with
/// [`CachePolicy::Bypass`]).  Duplicate submissions resolve through the
/// scheduler-level result cache without touching a worker, so the
/// duplicate-heavy arms win roughly in proportion to their hit share.
fn bench_service_cache(c: &mut Criterion) {
    let (graph, partitioning, parts) = end_to_end_workload();
    let graph = Arc::new(graph);
    let hot = MultiSourceSssp::paper_default();
    let mut counter = 0u32;
    let mut group = c.benchmark_group("service_cache");
    let run_arm = |group: &mut criterion::BenchmarkGroup<'_>,
                   label: String,
                   duplicates: usize,
                   policy: CachePolicy,
                   counter: &mut u32| {
        let service = mixed_device_service(&graph, &partitioning, parts, 1);
        // Warm up: pay the deployment and (unless bypassing) fill the cache
        // with the hot job outside the measured region.
        service
            .submit_with(hot.clone(), JobOptions::new().with_cache(policy))
            .unwrap()
            .wait()
            .unwrap();
        group.bench_function(&format!("sssp_rmat12/{label}"), |b| {
            b.iter(|| {
                let tickets: Vec<_> = (0..CACHE_BATCH)
                    .map(|i| {
                        let job = if i < duplicates {
                            hot.clone()
                        } else {
                            fresh_job(counter)
                        };
                        service
                            .submit_with(job, JobOptions::new().with_cache(policy))
                            .unwrap()
                    })
                    .collect();
                let iterations: usize = tickets
                    .into_iter()
                    .map(|ticket| ticket.wait().unwrap().report.num_iterations())
                    .sum();
                black_box(iterations)
            })
        });
        service.shutdown();
    };
    for (duplicates, pct) in CACHE_DUPLICATE_ARMS {
        run_arm(
            &mut group,
            format!("dup={pct}%"),
            duplicates,
            CachePolicy::UseOrFill,
            &mut counter,
        );
    }
    run_arm(
        &mut group,
        "dup=90%_nocache".to_string(),
        9,
        CachePolicy::Bypass,
        &mut counter,
    );
    group.finish();
}

// ---------------------------------------------------------------------------
// server_http: the serving front end's socket overhead
// ---------------------------------------------------------------------------

/// A keep-alive HTTP client speaking the binary frame protocol — the bench
/// must measure protocol overhead, not per-request TCP connects.
struct WireClient {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl WireClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = std::net::TcpStream::connect(addr).expect("connect to bench server");
        writer.set_nodelay(true).unwrap();
        writer
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let reader = std::io::BufReader::new(writer.try_clone().unwrap());
        Self { reader, writer }
    }

    /// One request/response on the persistent connection.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        use std::io::{BufRead, Read, Write};
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\n\
             Authorization: Bearer bench-token\r\n\
             Content-Type: application/x-gxplug-frame\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).unwrap();
        self.writer.write_all(body).unwrap();

        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let status: u16 = line
            .split(' ')
            .nth(1)
            .expect("status line")
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = value.parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        (status, body)
    }

    /// Submits a spec and returns the job id (panics on a non-Accepted
    /// answer — the bench tenant is never over quota).
    fn submit(&mut self, spec: gxplug_ipc::wire::JobSpec, cache: u8) -> u64 {
        let frame = gxplug_ipc::wire::Frame::Submit {
            spec,
            options: gxplug_ipc::wire::WireJobOptions {
                cache,
                ..Default::default()
            },
        };
        let (status, body) = self.exchange("POST", "/v1/jobs", &gxplug_ipc::wire::encode(&frame));
        let (frame, _) = gxplug_ipc::wire::decode(&body).expect("frame response");
        match frame {
            gxplug_ipc::wire::Frame::Accepted { job } => job,
            other => panic!("submit answered {status}: {other:?}"),
        }
    }

    /// Polls a job until its Result frame lands.
    fn wait_result(&mut self, job: u64) -> gxplug_ipc::wire::JobResultFrame {
        loop {
            let (_, body) = self.exchange("GET", &format!("/v1/jobs/{job}"), &[]);
            let (frame, _) = gxplug_ipc::wire::decode(&body).expect("frame response");
            match frame {
                gxplug_ipc::wire::Frame::State { .. } => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                gxplug_ipc::wire::Frame::Result(result) => return result,
                other => panic!("job {job} failed: {other:?}"),
            }
        }
    }
}

/// Boots the stock serving deployment with one quota-free bench tenant.
fn bench_server() -> gxplug_server::Server<gxplug_server::ServeVertex, f64> {
    let queue_depth = 32;
    let service = gxplug_server::standard_service(8, 7, 2, queue_depth);
    let tenants = gxplug_server::TenantRegistry::new().register(
        "bench-token",
        gxplug_server::Tenant::new("bench").with_quota(gxplug_server::TenantQuota {
            max_in_flight: 64,
            queue_share: 1.0,
        }),
    );
    gxplug_server::Server::serve(
        service,
        gxplug_server::standard_registry(),
        tenants,
        gxplug_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            handler_threads: 6,
            queue_depth,
        },
    )
    .expect("bind the bench server")
}

/// The pre-warmed hot job of the latency arm: a cache hit resolves at
/// submit, so POST + GET measures pure transport overhead.
fn hot_spec() -> gxplug_ipc::wire::JobSpec {
    gxplug_ipc::wire::JobSpec::new("pagerank")
        .with_f64("damping", 0.85)
        .with_u64("iterations", 10)
}

fn bench_server_http(c: &mut Criterion) {
    let server = bench_server();
    let mut client = WireClient::connect(server.local_addr());
    // Warm the result cache so every measured iteration is a hit.
    let job = client.submit(hot_spec(), 0);
    client.wait_result(job);

    c.bench_function("server_http_cache_hit_roundtrips", |b| {
        b.iter(|| {
            let job = client.submit(hot_spec(), 0);
            black_box(client.wait_result(job).values.len())
        })
    });
    drop(client);
    server.shutdown();
}

criterion_group!(
    benches,
    bench_block_size_selection,
    bench_msg_gen_hot_path,
    bench_dense_hot_path,
    bench_execution_modes,
    bench_backend_matrix,
    bench_session_reuse,
    bench_incremental_recompute,
    bench_service_throughput,
    bench_service_cache,
    bench_server_http
);

/// One record of the machine-readable benchmark output.
struct BenchRecord {
    mode: String,
    backend: String,
    graph: String,
    wall_ms: f64,
    blocks: u64,
    triplets: u64,
    bytes_moved: u64,
    /// Job-service context of the record: `"-"` for single-session runs,
    /// otherwise the pool size plus throughput and queue-latency
    /// percentiles (`workers=… jobs_per_s=… queue_p50_ms=… queue_p95_ms=…`).
    service: String,
    /// Result-cache context of the record: `"-"` when the cache was not
    /// exercised, otherwise the duplicate ratio plus hit counters and
    /// hit-resolution latency percentiles
    /// (`dup=…% hits=… hit_p50_us=… hit_p95_us=…`).
    cache: String,
    /// Node data-layout context of the record: `"dense"` for the shipped
    /// dense-id path, `"hash"` for the in-bench replica of the seed's
    /// hash-keyed layout; the dense arm of a layout comparison appends its
    /// measured advantage (`dense speedup_vs_hash=…x`).
    layout: String,
    /// Live-mutation context of the record: `"-"` for runs over a static
    /// deployment, otherwise the churn arm plus the paired walls and the
    /// measured advantage of the dirty-frontier warm start
    /// (`churn=…% batch=… full_ms=… incremental_ms=… speedup_vs_full=…x`).
    mutation: String,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        format!(
            r#"    {{"mode": "{}", "backend": "{}", "graph": "{}", "wall_ms": {:.4}, "blocks": {}, "triplets": {}, "bytes_moved": {}, "service": "{}", "cache": "{}", "layout": "{}", "mutation": "{}"}}"#,
            self.mode,
            self.backend,
            self.graph,
            self.wall_ms,
            self.blocks,
            self.triplets,
            self.bytes_moved,
            self.service,
            self.cache,
            self.layout,
            self.mutation
        )
    }
}

/// The `service` label of a record that did not go through the job service.
fn no_service() -> String {
    "-".to_string()
}

/// The `cache` label of a record that did not exercise the result cache.
fn no_cache() -> String {
    "-".to_string()
}

/// The `layout` label of a record running the shipped dense-id data path —
/// every record except the in-bench hash-layout replica arms.
fn dense_layout() -> String {
    "dense".to_string()
}

/// The `mutation` label of a record that ran over a static deployment.
fn no_mutation() -> String {
    "-".to_string()
}

/// Times one [`LayoutFixture`] workload shape on both layouts and returns
/// the hash record plus the dense record carrying the measured
/// `speedup_vs_hash` label (what the CI tripwire asserts against).
fn layout_records<V, A>(
    label: &str,
    fixture: &mut LayoutFixture<V, A>,
    samples: usize,
) -> [BenchRecord; 2]
where
    V: Clone + Sync,
    A: GraphAlgorithm<V, f64>,
{
    let block_size = 1_024usize;
    let mut edge_ids = Vec::new();
    let mut buffer = TripletBuffer::new();
    let mut msg_bufs = vec![Vec::new(), Vec::new()];
    let mut merge = DenseSlots::new();
    // Warm both arms once so pooled buffers grow outside the clock.
    fixture.iteration_hash(block_size, &mut edge_ids, &mut buffer, &mut msg_bufs);
    fixture.iteration_dense(
        block_size,
        &mut edge_ids,
        &mut buffer,
        &mut msg_bufs,
        &mut merge,
    );
    let start = Instant::now();
    for _ in 0..samples {
        fixture.iteration_hash(block_size, &mut edge_ids, &mut buffer, &mut msg_bufs);
    }
    let hash_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
    let start = Instant::now();
    for _ in 0..samples {
        fixture.iteration_dense(
            block_size,
            &mut edge_ids,
            &mut buffer,
            &mut msg_bufs,
            &mut merge,
        );
    }
    let dense_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
    let triplets = fixture.node.active_edge_count() as u64;
    let triplet_bytes = std::mem::size_of::<Triplet<V, f64>>() as u64;
    let record = |layout: String, wall_ms: f64| BenchRecord {
        mode: format!("dense_hot_path/{label}"),
        backend: BackendKind::Sim.label().into(),
        graph: "rmat12-1node".into(),
        wall_ms,
        blocks: triplets.div_ceil(block_size as u64),
        triplets,
        bytes_moved: triplets * triplet_bytes,
        service: no_service(),
        cache: no_cache(),
        layout,
        mutation: no_mutation(),
    };
    [
        record("hash".to_string(), hash_ms),
        record(
            format!("dense speedup_vs_hash={:.2}x", hash_ms / dense_ms),
            dense_ms,
        ),
    ]
}

/// End-to-end wall of repeated full session runs on the shared rmat-12
/// 4-node mixed-device deployment — the `dense_hot_path/full_run_*` records.
fn full_run_record<V, A>(
    label: &str,
    algorithm: &A,
    default_value: V,
    samples: usize,
) -> BenchRecord
where
    V: Clone + Send + Sync + std::fmt::Debug + PartialEq,
    A: GraphAlgorithm<V, f64>,
{
    let parts = 4;
    let list = Rmat::new(12, 8.0).generate(42);
    let graph = PropertyGraph::from_edge_list(list, default_value).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, parts)
        .unwrap();
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .network(NetworkModel::datacenter())
        .devices(
            (0..parts)
                .map(|n| {
                    vec![
                        presets::gpu_v100(format!("n{n}g")),
                        presets::cpu_xeon_20c(format!("n{n}c")),
                    ]
                })
                .collect(),
        )
        .config(MiddlewareConfig::default())
        .dataset("rmat12")
        .max_iterations(100)
        .build()
        .unwrap();
    // Warm-up run: pays the deployment and grows the pooled arenas.
    session.run(algorithm).unwrap();
    let start = Instant::now();
    let mut outcome = None;
    for _ in 0..samples {
        outcome = Some(session.run(algorithm).unwrap());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
    let outcome = outcome.expect("at least one sample");
    let blocks: u64 = outcome
        .agent_stats
        .iter()
        .map(|stats| stats.kernel_launches)
        .sum();
    let triplets = outcome.report.total_triplets() as u64;
    BenchRecord {
        mode: format!("dense_hot_path/{label}"),
        backend: BackendKind::Sim.label().into(),
        graph: "rmat12-4nodes".into(),
        wall_ms,
        blocks,
        triplets,
        bytes_moved: triplets * std::mem::size_of::<Triplet<V, f64>>() as u64,
        service: no_service(),
        cache: no_cache(),
        layout: dense_layout(),
        mutation: no_mutation(),
    }
}

/// Measures the tracked perf numbers and writes `BENCH_pipeline.json` to the
/// workspace root:
///
/// * the `msg_gen_hot_path` arms (owned-copy vs borrowed-block, one
///   all-active iteration each);
/// * the end-to-end execution modes (serial vs threaded session runs on the
///   bench graph).
///
/// `bytes_moved` is the triplet payload through the agent→daemon boundary:
/// `triplets × size_of::<Triplet<V, E>>()` (inline struct bytes; heap
/// payloads of attribute vectors are not counted).  In `--test` mode (the CI
/// bench smoke) everything runs once so the file is produced cheaply.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 1 } else { 5 };
    let triplet_bytes = std::mem::size_of::<Triplet<Vec<f64>, f64>>() as u64;
    let mut records: Vec<BenchRecord> = Vec::new();

    // --- hot path: owned vs borrowed, one node, all vertices active -------
    {
        let mut fixture = HotPathFixture::new();
        let block_size = 1_024usize;
        let start = Instant::now();
        let mut blocks = 0usize;
        for _ in 0..samples {
            blocks = fixture.iteration_owned(block_size).1;
        }
        let owned_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
        let triplets = fixture.edge_ids.len() as u64;
        records.push(BenchRecord {
            mode: "hot_path/owned_copy".into(),
            backend: BackendKind::Sim.label().into(),
            graph: "rmat12-1node".into(),
            wall_ms: owned_ms,
            blocks: blocks as u64,
            triplets,
            bytes_moved: triplets * triplet_bytes,
            service: no_service(),
            cache: no_cache(),
            layout: dense_layout(),
            mutation: no_mutation(),
        });
        let mut buffer = TripletBuffer::new();
        let mut msg_bufs = vec![Vec::new(), Vec::new()];
        let start = Instant::now();
        for _ in 0..samples {
            blocks = fixture
                .iteration_borrowed(block_size, &mut buffer, &mut msg_bufs)
                .1;
        }
        let borrowed_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
        records.push(BenchRecord {
            mode: "hot_path/borrowed_block".into(),
            backend: BackendKind::Sim.label().into(),
            graph: "rmat12-1node".into(),
            wall_ms: borrowed_ms,
            blocks: blocks as u64,
            triplets,
            bytes_moved: triplets * triplet_bytes,
            service: no_service(),
            cache: no_cache(),
            layout: dense_layout(),
            mutation: no_mutation(),
        });
    }

    // --- dense hot path: dense-id layout vs the seed's hash-keyed layout --
    {
        // Per-superstep arms: the merge-heavy all-active PageRank iteration
        // and the 64-source sparse SSSP tail, dense vs hash on one node.
        let mut all_active = LayoutFixture::new(
            PageRank::new(20),
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        );
        records.extend(layout_records(
            "pagerank_allactive",
            &mut all_active,
            samples,
        ));
        let mut sparse = LayoutFixture::new(MultiSourceSssp::paper_default(), Vec::new());
        let sources: Vec<VertexId> = (0..64).collect();
        sparse.set_sparse_frontier(&sources);
        records.extend(layout_records("sssp_sparse64", &mut sparse, samples));

        // Full-run walls ride on the real session driver: the whole dense
        // path (planning, frontier, merge, halt check) under its production
        // call pattern.
        records.push(full_run_record(
            "full_run_pagerank",
            &PageRank::new(20),
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
            samples,
        ));
        records.push(full_run_record(
            "full_run_sssp",
            &MultiSourceSssp::paper_default(),
            Vec::new(),
            samples,
        ));
    }

    // --- end to end: serial vs threaded session runs ----------------------
    let (graph, partitioning, parts) = end_to_end_workload();
    let algorithm = MultiSourceSssp::paper_default();
    for (name, mode) in [
        ("serial", ExecutionMode::Serial),
        ("threaded", ExecutionMode::Threaded),
    ] {
        let mut session =
            mixed_device_session(&graph, &partitioning, parts, mode, BackendKind::Sim);
        // Warm-up run: pays the deployment and grows the pooled arenas.
        session.run(&algorithm).unwrap();
        let start = Instant::now();
        let mut outcome = None;
        for _ in 0..samples {
            outcome = Some(session.run(&algorithm).unwrap());
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
        let outcome = outcome.expect("at least one sample");
        let blocks: u64 = outcome
            .agent_stats
            .iter()
            .map(|stats| stats.kernel_launches)
            .sum();
        let triplets = outcome.report.total_triplets() as u64;
        records.push(BenchRecord {
            mode: format!("execution_modes/{name}"),
            backend: BackendKind::Sim.label().into(),
            graph: "rmat12-4nodes".into(),
            wall_ms,
            blocks,
            triplets,
            bytes_moved: triplets * triplet_bytes,
            service: no_service(),
            cache: no_cache(),
            layout: dense_layout(),
            mutation: no_mutation(),
        });
    }

    // --- backend matrix: sim vs host-parallel on one deployment -----------
    for (_name, backend) in backend_arms() {
        let mut session = mixed_device_session(
            &graph,
            &partitioning,
            parts,
            ExecutionMode::Threaded,
            backend,
        );
        session.run(&algorithm).unwrap();
        let start = Instant::now();
        let mut outcome = None;
        for _ in 0..samples {
            outcome = Some(session.run(&algorithm).unwrap());
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3 / samples as f64;
        let outcome = outcome.expect("at least one sample");
        let blocks: u64 = outcome
            .agent_stats
            .iter()
            .map(|stats| stats.kernel_launches)
            .sum();
        let triplets = outcome.report.total_triplets() as u64;
        records.push(BenchRecord {
            mode: "backend_matrix/threaded".into(),
            backend: backend.label().into(),
            graph: "rmat12-4nodes".into(),
            wall_ms,
            blocks,
            triplets,
            bytes_moved: triplets * triplet_bytes,
            service: no_service(),
            cache: no_cache(),
            layout: dense_layout(),
            mutation: no_mutation(),
        });
    }

    // --- incremental recompute: dirty-frontier warm start vs full rerun ---
    // Two sessions over the same deployment absorb the identical insert-only
    // churn deltas in place.  The full arm forgets its warm state before
    // every timed run (from-scratch re-initialisation over the mutated
    // cluster); the incremental arm reruns seeded from the dirty frontier on
    // its converged distances.  Results must stay bit-identical — the
    // speedup is iteration-count and frontier-size savings, never a
    // different answer.
    {
        let num_vertices = graph.num_vertices();
        let num_edges = graph.num_edges();
        let bits = |values: &[Vec<f64>]| -> Vec<Vec<u64>> {
            values
                .iter()
                .map(|d| d.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for (pct, churn) in CHURN_ARMS {
            let batch_size = ((num_edges as f64 * churn) as usize).max(1);
            let mut incremental = mixed_device_session(
                &graph,
                &partitioning,
                parts,
                ExecutionMode::Threaded,
                BackendKind::Sim,
            );
            let mut full = mixed_device_session(
                &graph,
                &partitioning,
                parts,
                ExecutionMode::Threaded,
                BackendKind::Sim,
            );
            // Both arms converge once before any churn lands.
            incremental.run(&algorithm).unwrap();
            full.run(&algorithm).unwrap();
            let mut log =
                MutationLog::new(num_vertices, graph.edges().iter().map(|e| (e.src, e.dst)));
            let mut incremental_s = 0.0f64;
            let mut full_s = 0.0f64;
            let mut triplets = 0u64;
            for round in 0..samples {
                let delta = log
                    .append(&churn_batch(num_vertices as u32, batch_size, round))
                    .unwrap();
                incremental.apply_mutations(&delta);
                full.apply_mutations(&delta);
                full.forget_warm_state();
                let start = Instant::now();
                let warm = incremental.run(&algorithm).unwrap();
                incremental_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                let cold = full.run(&algorithm).unwrap();
                full_s += start.elapsed().as_secs_f64();
                triplets += warm.report.total_triplets() as u64;
                assert_eq!(
                    bits(&warm.values),
                    bits(&cold.values),
                    "incremental recompute diverged from the full rerun at churn={pct}"
                );
            }
            let incremental_ms = incremental_s * 1e3 / samples as f64;
            let full_ms = full_s * 1e3 / samples as f64;
            records.push(BenchRecord {
                mode: format!("incremental_recompute/churn={pct}"),
                backend: BackendKind::Sim.label().into(),
                graph: "rmat12-4nodes".into(),
                wall_ms: incremental_ms,
                blocks: 0,
                triplets,
                bytes_moved: triplets * triplet_bytes,
                service: no_service(),
                cache: no_cache(),
                layout: dense_layout(),
                mutation: format!(
                    "churn={pct} batch={batch_size} full_ms={full_ms:.3} \
                     incremental_ms={incremental_ms:.3} speedup_vs_full={:.2}x",
                    full_ms / incremental_ms
                ),
            });
        }
    }

    // --- service throughput: 1 vs 2 pooled worker sessions ----------------
    // Submissions bypass the result cache: this section tracks raw
    // scheduling throughput, and the mix repeats across samples.
    let graph = Arc::new(graph);
    {
        let jobs = service_job_mix();
        for workers in [1usize, 2] {
            let service = mixed_device_service(&graph, &partitioning, parts, workers);
            // Warm-up: every worker pays its deployment before measuring.
            let warm: Vec<_> = (0..workers)
                .map(|_| {
                    service
                        .submit_with(
                            jobs[0].clone(),
                            JobOptions::new().with_cache(CachePolicy::Bypass),
                        )
                        .unwrap()
                })
                .collect();
            for ticket in warm {
                ticket.wait().unwrap();
            }
            let total_jobs = samples * jobs.len();
            let start = Instant::now();
            let mut blocks = 0u64;
            let mut triplets = 0u64;
            for _ in 0..samples {
                let tickets: Vec<_> = jobs
                    .iter()
                    .map(|job| {
                        service
                            .submit_with(
                                job.clone(),
                                JobOptions::new().with_cache(CachePolicy::Bypass),
                            )
                            .unwrap()
                    })
                    .collect();
                for ticket in tickets {
                    let outcome = ticket.wait().unwrap();
                    blocks += outcome
                        .agent_stats
                        .iter()
                        .map(|stats| stats.kernel_launches)
                        .sum::<u64>();
                    triplets += outcome.report.total_triplets() as u64;
                }
            }
            let elapsed = start.elapsed();
            let jobs_per_s = total_jobs as f64 / elapsed.as_secs_f64();
            let stats = service.stats();
            let percentile_ms = |q: f64| {
                stats
                    .queue_wait_percentile(q)
                    .map_or(0.0, |wait| wait.as_secs_f64() * 1e3)
            };
            let service_label = format!(
                "workers={workers} jobs={total_jobs} jobs_per_s={jobs_per_s:.2} \
                 queue_p50_ms={:.3} queue_p95_ms={:.3}",
                percentile_ms(0.5),
                percentile_ms(0.95)
            );
            service.shutdown();
            records.push(BenchRecord {
                mode: format!("service_throughput/workers={workers}"),
                backend: BackendKind::Sim.label().into(),
                graph: "rmat12-4nodes".into(),
                wall_ms: elapsed.as_secs_f64() * 1e3 / samples as f64,
                blocks,
                triplets,
                bytes_moved: triplets * triplet_bytes,
                service: service_label,
                cache: no_cache(),
                layout: dense_layout(),
                mutation: no_mutation(),
            });
        }
    }

    // --- service cache: duplicate traffic vs the no-cache baseline --------
    {
        let hot = MultiSourceSssp::paper_default();
        let mut counter = 0u32;
        // One arm of the duplicate-ratio matrix: `duplicates` of every
        // 10-job batch repeat the pre-warmed hot job under `policy`, the
        // rest are fresh keys.  Returns (jobs/sec, avg batch ms, triplets
        // served, final stats).
        let mut run_arm = |duplicates: usize, policy: CachePolicy| {
            let service = mixed_device_service(&graph, &partitioning, parts, 1);
            service
                .submit_with(hot.clone(), JobOptions::new().with_cache(policy))
                .unwrap()
                .wait()
                .unwrap();
            let total_jobs = samples * CACHE_BATCH;
            let mut triplets = 0u64;
            let start = Instant::now();
            for _ in 0..samples {
                let tickets: Vec<_> = (0..CACHE_BATCH)
                    .map(|i| {
                        let job = if i < duplicates {
                            hot.clone()
                        } else {
                            fresh_job(&mut counter)
                        };
                        service
                            .submit_with(job, JobOptions::new().with_cache(policy))
                            .unwrap()
                    })
                    .collect();
                for ticket in tickets {
                    triplets += ticket.wait().unwrap().report.total_triplets() as u64;
                }
            }
            let elapsed = start.elapsed();
            let stats = service.stats();
            service.shutdown();
            (
                total_jobs as f64 / elapsed.as_secs_f64(),
                elapsed.as_secs_f64() * 1e3 / samples as f64,
                triplets,
                stats,
            )
        };
        // The baseline: the 90%-duplicate stream with the cache bypassed —
        // every submission runs.
        let (nocache_jobs_per_s, nocache_ms, nocache_triplets, _) = run_arm(9, CachePolicy::Bypass);
        records.push(BenchRecord {
            mode: "service_cache/dup=90_nocache".into(),
            backend: BackendKind::Sim.label().into(),
            graph: "rmat12-4nodes".into(),
            wall_ms: nocache_ms,
            blocks: 0,
            triplets: nocache_triplets,
            bytes_moved: nocache_triplets * triplet_bytes,
            service: format!(
                "workers=1 jobs={} jobs_per_s={nocache_jobs_per_s:.2}",
                samples * CACHE_BATCH
            ),
            cache: "dup=90% policy=bypass".into(),
            layout: dense_layout(),
            mutation: no_mutation(),
        });
        for (duplicates, pct) in CACHE_DUPLICATE_ARMS {
            let (jobs_per_s, batch_ms, triplets, stats) =
                run_arm(duplicates, CachePolicy::UseOrFill);
            let hit_us = |q: f64| {
                stats
                    .cache_hit_percentile(q)
                    .map_or(0.0, |wait| wait.as_secs_f64() * 1e6)
            };
            let mut cache_label = format!(
                "dup={pct}% hits={} hit_p50_us={:.1} hit_p95_us={:.1}",
                stats.cache_hits,
                hit_us(0.5),
                hit_us(0.95)
            );
            if duplicates == 9 {
                cache_label.push_str(&format!(
                    " speedup_vs_nocache={:.1}x",
                    jobs_per_s / nocache_jobs_per_s
                ));
            }
            records.push(BenchRecord {
                mode: format!("service_cache/dup={pct}"),
                backend: BackendKind::Sim.label().into(),
                graph: "rmat12-4nodes".into(),
                wall_ms: batch_ms,
                blocks: 0,
                triplets,
                bytes_moved: triplets * triplet_bytes,
                service: format!(
                    "workers=1 jobs={} jobs_per_s={jobs_per_s:.2}",
                    samples * CACHE_BATCH
                ),
                cache: cache_label,
                layout: dense_layout(),
                mutation: no_mutation(),
            });
        }
    }

    // --- server_http: socket overhead vs in-process submission ------------
    {
        use gxplug_server::{ServeRank, ServeReach};
        let server = bench_server();
        let addr = server.local_addr();

        // Latency arm: pre-warmed cache-hit job, so POST + GET measures the
        // transport (HTTP parse, frame encode/decode, job-table hop) and not
        // graph compute.  The direct arm is the same cache hit in-process.
        let mut client = WireClient::connect(addr);
        let warm = client.submit(hot_spec(), 0);
        client.wait_result(warm);
        let latency_jobs = if test_mode { 20 } else { 200 };
        let mut socket_us: Vec<f64> = Vec::with_capacity(latency_jobs);
        for _ in 0..latency_jobs {
            let start = Instant::now();
            let job = client.submit(hot_spec(), 0);
            client.wait_result(job);
            socket_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let mut direct_us: Vec<f64> = Vec::with_capacity(latency_jobs);
        for _ in 0..latency_jobs {
            let start = Instant::now();
            server
                .service()
                .submit_with(
                    ServeRank {
                        damping: 0.85,
                        iterations: 10,
                    },
                    JobOptions::new(),
                )
                .unwrap()
                .wait()
                .unwrap();
            direct_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        socket_us.sort_by(|a, b| a.total_cmp(b));
        direct_us.sort_by(|a, b| a.total_cmp(b));
        let pct = |sorted: &[f64], q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        let overhead_p50_us = (pct(&socket_us, 0.5) - pct(&direct_us, 0.5)).max(0.0);
        records.push(BenchRecord {
            mode: "server_http/latency_cache_hit".into(),
            backend: BackendKind::Sim.label().into(),
            graph: "rmat8-2nodes".into(),
            wall_ms: pct(&socket_us, 0.5) / 1e3,
            blocks: 0,
            triplets: 0,
            bytes_moved: 0,
            service: format!(
                "jobs={latency_jobs} p50_us={:.1} p99_us={:.1} direct_p50_us={:.1} \
                 direct_p99_us={:.1} overhead_p50_us={overhead_p50_us:.1}",
                pct(&socket_us, 0.5),
                pct(&socket_us, 0.99),
                pct(&direct_us, 0.5),
                pct(&direct_us, 0.99),
            ),
            cache: "dup=100% policy=use-or-fill".into(),
            layout: dense_layout(),
            mutation: no_mutation(),
        });

        // Throughput arms: fresh single-source SSSP jobs (distinct sources,
        // cache bypassed), submit→wait serialised per lane, so the socket
        // figures are apples-to-apples with the direct baseline.
        let throughput_jobs = if test_mode { 8 } else { 40 };
        let start = Instant::now();
        for i in 0..throughput_jobs {
            server
                .service()
                .submit_with(
                    ServeReach {
                        sources: vec![i as u32],
                    },
                    JobOptions::new().with_cache(CachePolicy::Bypass),
                )
                .unwrap()
                .wait()
                .unwrap();
        }
        let direct_jobs_per_s = throughput_jobs as f64 / start.elapsed().as_secs_f64();

        fn sssp(source: u32) -> gxplug_ipc::wire::JobSpec {
            gxplug_ipc::wire::JobSpec::new("sssp").with_ids("sources", vec![source])
        }
        for conns in [1usize, 4] {
            let per_conn = throughput_jobs / conns;
            let start = Instant::now();
            let lanes: Vec<std::thread::JoinHandle<()>> = (0..conns)
                .map(|lane| {
                    std::thread::spawn(move || {
                        let mut client = WireClient::connect(addr);
                        for i in 0..per_conn {
                            let job = client.submit(sssp((lane * per_conn + i) as u32 + 64), 1);
                            client.wait_result(job);
                        }
                    })
                })
                .collect();
            for lane in lanes {
                lane.join().unwrap();
            }
            let elapsed = start.elapsed();
            let jobs = conns * per_conn;
            records.push(BenchRecord {
                mode: format!("server_http/throughput_conns={conns}"),
                backend: BackendKind::Sim.label().into(),
                graph: "rmat8-2nodes".into(),
                wall_ms: elapsed.as_secs_f64() * 1e3,
                blocks: 0,
                triplets: 0,
                bytes_moved: 0,
                service: format!(
                    "conns={conns} jobs={jobs} jobs_per_s={:.2} direct_jobs_per_s={direct_jobs_per_s:.2}",
                    jobs as f64 / elapsed.as_secs_f64(),
                ),
                cache: no_cache(),
                layout: dense_layout(),
                mutation: no_mutation(),
            });
        }
        drop(client);
        server.shutdown();
    }

    let body: Vec<String> = records.iter().map(BenchRecord::to_json).collect();
    let json = format!(
        "{{\n  \"suite\": \"pipeline\",\n  \"samples_per_record\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
        samples,
        body.join(",\n")
    );
    // Anchor the file at the workspace root regardless of the invocation's
    // working directory (cargo runs bench binaries from the package dir).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote BENCH_pipeline.json ({} records)", records.len()),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
}

fn main() {
    benches();
    emit_bench_json();
}
