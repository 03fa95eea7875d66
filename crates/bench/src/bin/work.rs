//! Work golden: exact counts of the four benchmark workload shapes.
//!
//! Runs `pr_dense`, `sssp_sparse`, `serve_mixed` and `mutate_live` in
//! miniature — the in-repo generators, fixed seeds, warm deployments — and
//! prints one row of exact counts per shape for the warm jobs it measures.
//! Each shape is deployed like its benchmark workload: `serve_mixed` is the
//! stock serving deployment (`gxplug_server::standard_service`, `ServeVertex`
//! values, two nodes, the default execution mode) with one worker session
//! and the benchmark's `ServeRank`/`ServeReach` keys; the others run
//! serially.  Per row:
//!
//! * supersteps, Σ triplets, kernel launches (one per pipeline block),
//!   messages after `MSGMerge`, downloads, the sync cache's hits, misses
//!   and evictions, remote messages and replica updates (summed over the
//!   row's jobs);
//! * heap allocations per warm job, counted by a counting global allocator
//!   around the job's submit-to-result span (a service job's worker thread
//!   included);
//! * for the two service shapes, allocations per warm cache hit
//!   (`serve_mixed` averages one hit on a `ServeRank` key and one on a
//!   `ServeReach` key);
//! * for `mutate_live`, the heap bytes each logged mutation batch retains
//!   (the submitting thread's net allocation across `apply_mutations`: the
//!   resolved batch plus the log's amortised growth).
//!
//! Every figure is a count, not a clock reading, so stdout is identical from
//! run to run and CI diffs it against `crates/bench/golden/work.txt`.  The
//! allocation counts also include what the standard library allocates (the
//! golden was made with rustc 1.95.0), so a toolchain update that moves them
//! regenerates the golden, like any other change that moves a count (CI
//! pins the toolchain for that reason).
//!
//! ```text
//! cargo run --release -p gxplug-bench --bin work
//! ```

use gxplug_accel::presets::{cpu_xeon_20c, gpu_v100};
use gxplug_accel::{BackendKind, DeviceSpec};
use gxplug_algos::{MultiSourceSssp, PageRank, RankValue};
use gxplug_bench::print_table;
use gxplug_core::{
    AgentStats, ExecutionMode, GraphService, MiddlewareConfig, RunOutcome, SessionBuilder,
};
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::generators::{Generator, GridRoad, Rmat};
use gxplug_graph::mutate::MutationBatch;
use gxplug_graph::partition::{GreedyVertexCutPartitioner, HashEdgePartitioner, Partitioner};
use gxplug_graph::PropertyGraph;
use gxplug_server::{standard_service, ServeRank, ServeReach};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forwards to [`System`], counting allocations process-wide and net bytes
/// per thread.
struct CountingAllocator;

/// Heap allocations (reallocations included) on every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed.  A
    /// const-initialised `Cell`: touching it from the allocator neither
    /// allocates nor registers a destructor.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_net_bytes(bytes: i64) {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = NET_BYTES.try_with(|net| net.set(net.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters neither allocate nor
// touch the memory being managed.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        add_net_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        add_net_bytes(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        add_net_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_net_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `f` causes on every thread.  Exact when nothing else
/// allocates meanwhile: the service's worker is parked or busy with `f`'s
/// own job.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (result, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// Net heap bytes `f` leaves allocated on the calling thread.
fn retained_bytes<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = NET_BYTES.with(Cell::get);
    let result = f();
    (result, NET_BYTES.with(Cell::get) - before)
}

const NODES: usize = 4;
const SEED: u64 = 1;
/// The miniature shapes' sizes (the figures' tiny scale; `GX_SCALE` does
/// not change them): rmat log2 vertex counts and the road grid's side.
const PR_LOG2: u32 = 10;
const GRID_SIDE: usize = 32;
const SERVE_LOG2: u32 = 10;
/// The stock serving deployment's graph seed and queue depth.
const SERVE_GRAPH_SEED: u64 = 42;
const SERVE_QUEUE_DEPTH: usize = 64;
const MUTATE_LOG2: u32 = 10;

fn mixed_devices(nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..nodes)
        .map(|n| {
            vec![
                gpu_v100(format!("node{n}-gpu0")),
                cpu_xeon_20c(format!("node{n}-cpu0")),
            ]
        })
        .collect()
}

/// The exact counts of one row: the measured warm jobs, summed.
#[derive(Default)]
struct Work {
    jobs: u64,
    supersteps: u64,
    triplets: u64,
    launches: u64,
    merged_messages: u64,
    downloads: u64,
    cache: [u64; 3],
    remote_messages: u64,
    replica_updates: u64,
    job_allocations: u64,
    /// `(allocations, hits)` over the measured cache hits.
    hit_allocations: Option<(u64, u64)>,
    batch_bytes: Option<(u64, u64)>,
}

impl Work {
    /// Adds one warm job's outcome and the allocations its span made.
    fn add<V>(&mut self, outcome: &RunOutcome<V>, allocations: u64) {
        let mut agents = AgentStats::default();
        for stats in &outcome.agent_stats {
            agents.merge(stats);
        }
        let report = &outcome.report;
        self.jobs += 1;
        self.supersteps += report.num_iterations() as u64;
        self.triplets += report.total_triplets() as u64;
        self.launches += agents.kernel_launches;
        self.merged_messages += agents.uploaded_entities + agents.uploads_avoided;
        self.downloads += agents.downloaded_entities;
        self.cache[0] += agents.cache.hits;
        self.cache[1] += agents.cache.misses;
        self.cache[2] += agents.cache.evictions;
        for iteration in &report.iterations {
            self.remote_messages += iteration.remote_messages as u64;
            self.replica_updates += iteration.replica_updates as u64;
        }
        self.job_allocations += allocations;
    }

    fn row(&self, shape: &str) -> Vec<String> {
        let per = |total: u64, count: u64| {
            if total.is_multiple_of(count) {
                (total / count).to_string()
            } else {
                format!("{:.2}", total as f64 / count as f64)
            }
        };
        vec![
            shape.to_string(),
            self.jobs.to_string(),
            self.supersteps.to_string(),
            self.triplets.to_string(),
            self.launches.to_string(),
            self.merged_messages.to_string(),
            self.downloads.to_string(),
            self.cache[0].to_string(),
            self.cache[1].to_string(),
            self.cache[2].to_string(),
            self.remote_messages.to_string(),
            self.replica_updates.to_string(),
            per(self.job_allocations, self.jobs),
            self.hit_allocations
                .map_or_else(|| "-".to_string(), |(total, hits)| per(total, hits)),
            self.batch_bytes
                .map_or_else(|| "-".to_string(), |(bytes, batches)| per(bytes, batches)),
        ]
    }
}

/// `algorithm` through a warm session over `graph`: the second run.
fn warm_session_run<V, A>(
    graph: &PropertyGraph<V, f64>,
    partitioner: &impl Partitioner,
    algorithm: &A,
    config: MiddlewareConfig,
) -> Work
where
    V: Clone + PartialEq + Send + Sync,
    A: GraphAlgorithm<V, f64>,
{
    let partitioning = partitioner
        .partition(graph, NODES)
        .expect("the graph partitions");
    let mut session = SessionBuilder::new(graph)
        .partitioned_by(partitioning)
        .devices(mixed_devices(NODES))
        .backend(BackendKind::Sim)
        .config(config)
        .build()
        .expect("a valid deployment");
    session.run(algorithm).expect("the cold run");
    let (outcome, allocations) = allocations(|| session.run(algorithm).expect("the warm run"));
    let mut work = Work::default();
    work.add(&outcome, allocations);
    work
}

/// All-active PageRank on rmat through a warm session.
fn pr_dense(log2: u32, config: MiddlewareConfig) -> Work {
    let rank = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    let graph =
        PropertyGraph::from_edge_list(Rmat::new(log2, 8.0).generate(SEED), rank).expect("rmat");
    let partitioner = GreedyVertexCutPartitioner::default();
    warm_session_run(&graph, &partitioner, &PageRank::new(10), config)
}

/// Four-source SSSP on a road grid through a warm session.
fn sssp_sparse(side: usize, config: MiddlewareConfig) -> Work {
    let list = GridRoad {
        weight_max: 2.0,
        ..GridRoad::new(side, side, 0.0)
    }
    .generate(SEED);
    let graph = PropertyGraph::from_edge_list(list, Vec::new()).expect("grid");
    let algorithm = MultiSourceSssp::new(vec![0, 1, 2, 3]);
    warm_session_run(&graph, &HashEdgePartitioner::default(), &algorithm, config)
}

/// A one-worker `Vec<f64>` service over rmat, deployed like `mutate_live`'s.
fn service(log2: u32, config: MiddlewareConfig) -> GraphService<Vec<f64>, f64> {
    let list = Rmat::new(log2, 8.0).generate(SEED);
    let graph = Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).expect("rmat"));
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, NODES)
        .expect("rmat graphs partition");
    GraphService::builder(graph)
        .partitioned_by(partitioning)
        .devices(mixed_devices(NODES))
        .backend(BackendKind::Sim)
        .config(config)
        .worker_sessions(1)
        .build()
        .expect("a valid deployment")
}

/// Hits a filled key five times; the allocations of the last hit.
fn hit_allocations<V, R>(service: &GraphService<V, f64>, hit: impl Fn() -> R) -> u64
where
    V: Clone + PartialEq + Send + Sync,
{
    // Identical hit histories, so the service's sample windows have grown
    // alike before the measured hit.
    for _ in 0..4 {
        hit();
    }
    let before = service.stats_snapshot().cache_hits;
    let (_, allocations) = allocations(hit);
    assert_eq!(service.stats_snapshot().cache_hits, before + 1);
    allocations
}

/// The stock serving deployment with the benchmark's traffic classes: a
/// never-repeated `ServeReach` source triple runs on the warm worker, and
/// hot `ServeRank` and `ServeReach` keys hit the cache.
fn serve_mixed(log2: u32) -> Work {
    let service = standard_service(log2, SERVE_GRAPH_SEED, 1, SERVE_QUEUE_DEPTH);
    let ask = |job: &Key| {
        match job {
            Key::Rank(damping) => service.submit(ServeRank {
                damping: *damping,
                iterations: 10,
            }),
            Key::Reach(sources) => service.submit(ServeReach {
                sources: sources.clone(),
            }),
        }
        .and_then(|ticket| ticket.wait())
        .expect("the job runs")
    };
    let top = (1u32 << log2) - 1;
    let hot = [Key::Rank(0.5), Key::Reach(vec![top, 5])];
    // The benchmark's set-up job, the hot keys' fills and one cold job run
    // first, so the measured cold job finds every per-run buffer warm.
    ask(&Key::Reach(vec![0]));
    for key in &hot {
        ask(key);
    }
    ask(&Key::Reach(vec![2, 5, 9]));
    let (outcome, allocations) = allocations(|| ask(&Key::Reach(vec![3, 7, 11])));
    let mut work = Work::default();
    work.add(&outcome, allocations);
    let hits = hot.iter().map(|key| hit_allocations(&service, || ask(key)));
    work.hit_allocations = Some((hits.sum(), hot.len() as u64));
    service.shutdown();
    work
}

/// A `serve_mixed` job: `ServeRank` by damping, `ServeReach` by sources.
enum Key {
    Rank(f64),
    Reach(Vec<u32>),
}

/// Rounds of one mutation cycle: every `RETIRE_EVERY`-th batch removes the
/// edges the others inserted.
const RETIRE_EVERY: usize = 8;

/// Writes beside reads on a warm service: a warm-up cycle of rounds, then
/// one measured cycle of incremental refreshes (the last round retires), and
/// a hit on the refreshed key.
fn mutate_live(log2: u32, config: MiddlewareConfig) -> Work {
    let service = service(log2, config);
    let algorithm = MultiSourceSssp::paper_default();
    let ask = || {
        service
            .submit(algorithm.clone())
            .and_then(|ticket| ticket.wait())
            .expect("the job runs")
    };
    ask();
    let (num_vertices, num_edges) = service.graph_shape();
    let batch_edges = (num_edges / 1000).max(1);
    let mut rng = SEED;
    let mut next = || {
        rng = gxplug_ipc::key::splitmix64(rng);
        (rng % num_vertices as u64) as u32
    };
    let mut inserted = 0usize;
    let mut work = Work::default();
    let mut retained = 0u64;
    for round in 1..=2 * RETIRE_EVERY {
        let (_, edges) = service.graph_shape();
        let mut batch = MutationBatch::new();
        if round.is_multiple_of(RETIRE_EVERY) {
            // Added edges take the largest ids, so ours are the tail.
            for edge in edges - inserted..edges {
                batch = batch.remove_edge(edge);
            }
            inserted = 0;
        }
        for i in 0..batch_edges {
            batch = batch.add_edge(next(), next(), 0.5 + (i % 7) as f64);
        }
        inserted += batch_edges;
        let (applied, bytes) = retained_bytes(|| service.apply_mutations(&batch));
        applied.expect("a valid batch");
        let (outcome, allocations) = allocations(ask);
        if round > RETIRE_EVERY {
            retained += u64::try_from(bytes).expect("a logged batch retains its bytes");
            work.add(&outcome, allocations);
        }
        ask();
    }
    work.hit_allocations = Some((hit_allocations(&service, ask), 1));
    work.batch_bytes = Some((retained, RETIRE_EVERY as u64));
    service.shutdown();
    work
}

fn main() {
    let config = MiddlewareConfig::default().with_execution(ExecutionMode::Serial);
    let rows = vec![
        pr_dense(PR_LOG2, config).row("pr_dense"),
        sssp_sparse(GRID_SIDE, config).row("sssp_sparse"),
        serve_mixed(SERVE_LOG2).row("serve_mixed"),
        mutate_live(MUTATE_LOG2, config).row("mutate_live"),
    ];
    print_table(
        "Work per warm job, exact counts (tiny shapes, seed 1)",
        &[
            "Shape",
            "Jobs",
            "Supersteps",
            "Triplets",
            "Launches",
            "Merged msgs",
            "Downloads",
            "Sync hits",
            "Sync misses",
            "Sync evictions",
            "Remote msgs",
            "Replica upd",
            "Allocs/job",
            "Allocs/hit",
            "Bytes/batch",
        ],
        &rows,
    );
}
