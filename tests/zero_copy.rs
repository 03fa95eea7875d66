//! Steady-state zero-copy guarantees of the triplet hot path.
//!
//! The middleware's central perf claim after the borrowed-block refactor:
//! once a triplet is materialised into the iteration's reusable buffer (the
//! one join of the node's edge and vertex tables), **nothing downstream
//! copies it again** — capacity shares are index ranges, pipeline blocks are
//! borrowed views, kernels read in place.  These tests pin that down two
//! ways:
//!
//! * a clone-counting edge attribute proves the *exact* copy count: one edge
//!   attribute clone per processed triplet per iteration, in both execution
//!   modes, with bit-identical results (the determinism suite's guarantee
//!   extended to the borrowed-block path);
//! * the session's pooled triplet arenas prove the *allocation* story: a
//!   reused session re-running a workload it has seen performs zero arena
//!   reallocations — warm-up discovers the peak, steady state refills in
//!   place;
//! * a counting global allocator proves the *message* path is
//!   allocation-free too: `MSGGen` appends into the agent's pooled block
//!   message buffer, so a warm agent's superstep allocates a constant
//!   handful of times, not once per triplet — for `Copy` PageRank values
//!   and for multi-source SSSP's heap-owning distance vectors alike (the
//!   block buffer refills its slots in place; the messages are inline rows);
//! * the agent's buffer after a warm superstep proves the *working set*: the
//!   superstep is streamed one pipeline block at a time, so the buffer holds
//!   one block of triplets, not the superstep's;
//! * the same allocator, counting per thread, proves the *service* shares
//!   results instead of copying them: a warm cache hit allocates the same
//!   handful of times whatever the result's size, and a submit that finds
//!   its key stale frees none of the stale result on the caller's thread;
//! * and, counting bytes, that replaying an insert-only mutation batch into
//!   a deployed session allocates for the batch, not for the graph: no
//!   node's CSR, ranks or routes are rebuilt.

use gx_plug::engine::node::NodeState;
use gx_plug::ipc::key::KeyGenerator;
use gx_plug::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serialises the tests of this binary: they count edge clones and heap
/// allocations into process-global counters, and cargo runs `#[test]` fns on
/// parallel threads by default.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Forwards to [`System`], counting every allocation and reallocation.
struct CountingAllocator;

/// Global count of heap allocations (including reallocations).  A statistic
/// that publishes no other data, hence `Relaxed` increments.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations (including reallocations) and frees: what
    /// a caller pays itself, whatever the service's worker threads do
    /// meanwhile.  Const-initialised `Cell`s, so touching them from the
    /// allocator neither allocates nor registers a destructor.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
    /// The bytes this thread's allocations asked for (a reallocation counts
    /// its new size).
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_here(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    add_here(counter, 1);
}

fn add_here(counter: &'static std::thread::LocalKey<Cell<u64>>, amount: u64) {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = counter.try_with(|count| count.set(count.get() + amount));
}

fn allocations_here() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn frees_here() -> u64 {
    THREAD_FREES.with(Cell::get)
}

fn bytes_here() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter increments neither
// allocate nor touch the memory being managed.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        count_here(&THREAD_ALLOCATIONS);
        add_here(&THREAD_BYTES, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        count_here(&THREAD_ALLOCATIONS);
        add_here(&THREAD_BYTES, layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        count_here(&THREAD_ALLOCATIONS);
        add_here(&THREAD_BYTES, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_here(&THREAD_FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn serialize_test() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Global count of edge-attribute clones.  Edge attributes are cloned in
/// exactly two places: once per local edge when a cluster is built (the edge
/// tables), and once per materialised triplet on the hot path.  They appear
/// in no message, cache or sync structure, which makes them a precise probe
/// for triplet copying.
static EDGE_CLONES: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, PartialEq)]
struct CountingEdge(f64);

impl Clone for CountingEdge {
    fn clone(&self) -> Self {
        EDGE_CLONES.fetch_add(1, Ordering::Relaxed);
        CountingEdge(self.0)
    }
}

/// Bellman-Ford-style relaxation over the counting edge type.
struct Relax;

impl GraphAlgorithm<f64, CountingEdge> for Relax {
    type Msg = f64;
    fn init_vertex(&self, v: VertexId, _d: usize) -> f64 {
        if v == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
    fn msg_gen_into(
        &self,
        t: &Triplet<f64, CountingEdge>,
        _i: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        if t.src_attr.is_finite() {
            out.push(AddressedMessage::new(t.dst, t.src_attr + t.edge_attr.0));
        }
    }
    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
    fn msg_apply(&self, _v: VertexId, cur: &f64, msg: &f64, _i: usize) -> Option<f64> {
        (*msg + 1e-12 < *cur).then_some(*msg)
    }
    fn initial_active(&self, _n: usize) -> Option<Vec<VertexId>> {
        Some(vec![0])
    }
    fn name(&self) -> &'static str {
        "relax-counting"
    }
}

/// A deterministic pseudo-random graph over the counting edge type
/// (irregular enough that the vertex-cut partitioner spreads edges over
/// every node).
fn counting_graph() -> PropertyGraph<f64, CountingEdge> {
    let n: u64 = 256;
    let list: EdgeList<CountingEdge> = (0..4_096u64)
        .map(|i| {
            let h = gx_plug::ipc::key::splitmix64(i);
            let src = (h % n) as u32;
            let dst = ((h >> 16) % n) as u32;
            (src, dst, CountingEdge(1.0 + (h % 5) as f64))
        })
        .collect();
    PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap()
}

fn deploy(
    graph: &PropertyGraph<f64, CountingEdge>,
    mode: ExecutionMode,
) -> Session<'_, f64, CountingEdge> {
    let parts = 2;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(graph, parts)
        .unwrap();
    SessionBuilder::new(graph)
        .partitioned_by(partitioning)
        .devices(
            (0..parts)
                .map(|node| {
                    vec![
                        gpu_v100(format!("n{node}-gpu")),
                        cpu_xeon_20c(format!("n{node}-cpu")),
                    ]
                })
                .collect(),
        )
        .config(MiddlewareConfig::default().with_execution(mode))
        .dataset("counting")
        .max_iterations(200)
        .build()
        .unwrap()
}

/// One steady-state run in `mode`: deploy + warm-up run first (cluster build
/// clones each edge into the node tables once — deployment, not hot path),
/// then measure the edge clones of a second run exactly.
fn measured_run(mode: ExecutionMode) -> (u64, u64, Vec<u64>) {
    let graph = counting_graph();
    let mut session = deploy(&graph, mode);
    session.run(&Relax).unwrap();
    let before = EDGE_CLONES.load(Ordering::SeqCst);
    let outcome = session.run(&Relax).unwrap();
    let clones = EDGE_CLONES.load(Ordering::SeqCst) - before;
    let triplets = outcome.report.total_triplets() as u64;
    let bits = outcome.values.iter().map(|v| v.to_bits()).collect();
    (clones, triplets, bits)
}

#[test]
fn agents_copy_each_triplet_exactly_once_in_both_execution_modes() {
    let _guard = serialize_test();
    // Run the two modes sequentially: the clone counter is process-global.
    let (serial_clones, serial_triplets, serial_bits) = measured_run(ExecutionMode::Serial);
    let (threaded_clones, threaded_triplets, threaded_bits) = measured_run(ExecutionMode::Threaded);

    assert!(serial_triplets > 0, "the workload must not be trivial");
    // THE zero-copy property: every triplet the daemons processed cloned its
    // edge attribute exactly once — at materialisation into the reusable
    // buffer.  The owned-copy pipeline of the seed cloned each triplet twice
    // more (capacity-share split + block packaging) and would report 3x.
    assert_eq!(
        serial_clones, serial_triplets,
        "serial path must clone one edge attribute per processed triplet"
    );
    assert_eq!(
        threaded_clones, threaded_triplets,
        "threaded path must clone one edge attribute per processed triplet"
    );

    // The borrowed-block path stays bit-identical across execution modes.
    assert_eq!(serial_triplets, threaded_triplets);
    assert_eq!(serial_bits, threaded_bits);
}

#[test]
fn reused_sessions_reach_zero_arena_reallocations_at_steady_state() {
    let _guard = serialize_test();
    let graph = counting_graph();
    let mut session = deploy(&graph, ExecutionMode::Threaded);

    // Warm-up: the first run grows each node's arena to its largest block.
    session.run(&Relax).unwrap();
    let warm = session.triplet_buffer_stats();
    assert!(!warm.is_empty());
    assert!(warm.iter().all(|s| s.fills > 0));

    // Steady state: further runs of the same job refill the warm arenas
    // without a single reallocation.
    for _ in 0..3 {
        session.run(&Relax).unwrap();
    }
    let steady = session.triplet_buffer_stats();
    for (node, (w, s)) in warm.iter().zip(&steady).enumerate() {
        assert!(
            s.fills > w.fills,
            "node {node}: steady-state runs must have refilled the arena"
        );
        assert_eq!(
            s.reallocations, w.reallocations,
            "node {node}: steady-state refills must not touch the allocator"
        );
    }
}

/// What [`warm_superstep`] measured.
struct WarmSuperstep {
    /// Heap allocations of the measured superstep.
    allocations: u64,
    /// Triplets it processed.
    triplets: u64,
    /// Triplets left in the agent's block buffer afterwards.
    buffered: usize,
    /// The block sizes of one superstep's shares, summed: a bound on the
    /// largest block.
    block_sizes: f64,
}

/// Runs one warm superstep of `algorithm` on a single-node deployment of
/// `graph` (two daemons) and measures it.  `prepare` sets the node's values
/// and frontier before each superstep, so the warm-up supersteps see exactly
/// the measured workload and size every pooled buffer for it: the block
/// buffer, the block message buffer, the dense merge slots, the sync cache.
fn warm_superstep<V, A>(
    graph: &PropertyGraph<V, f64>,
    algorithm: &A,
    prepare: impl Fn(&mut NodeState<V, f64>),
) -> WarmSuperstep
where
    V: Clone + PartialEq + Send + Sync,
    A: GraphAlgorithm<V, f64>,
{
    let partitioning = HashEdgePartitioner::new(0).partition(graph, 1).unwrap();
    let mut node = NodeState::build(0, graph, &partitioning, algorithm);
    let keys = KeyGenerator::new(2);
    let daemons = vec![
        Daemon::new("gpu", gpu_v100("gpu"), keys.key_for(0, 0)),
        Daemon::new("cpu", cpu_xeon_20c("cpu"), keys.key_for(0, 1)),
    ];
    let mut agent = Agent::new(
        0,
        daemons,
        RuntimeProfile::powergraph(),
        MiddlewareConfig::default(),
        node.num_vertices(),
    );
    agent.connect();
    for iteration in 0..2 {
        prepare(&mut node);
        agent
            .process_iteration(&mut node, algorithm, iteration)
            .unwrap();
    }
    prepare(&mut node);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let output = agent.process_iteration(&mut node, algorithm, 2).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    WarmSuperstep {
        allocations,
        triplets: output.triplets_processed as u64,
        buffered: agent.take_triplet_buffer().len(),
        block_sizes: agent.stats().mean_block_size(),
    }
}

#[test]
fn warm_agent_supersteps_allocate_far_less_than_once_per_triplet() {
    let _guard = serialize_test();
    let rank = RankValue {
        rank: 1.0,
        out_degree: 0,
    };
    let graph = PropertyGraph::from_edge_list(Rmat::new(11, 8.0).generate(5), rank).unwrap();
    let WarmSuperstep {
        allocations,
        triplets,
        buffered,
        block_sizes,
    } = warm_superstep(&graph, &PageRank::new(10), NodeState::activate_all);
    assert!(triplets >= 10_000, "only {triplets} triplets on the node");
    // One allocation per triplet would mean `MSGGen` returns a fresh `Vec`
    // per edge; what remains is per-superstep bookkeeping (the merged output
    // vector and the like), independent of the edge count.
    assert!(
        allocations < triplets / 64,
        "{allocations} allocations for {triplets} triplets in one warm superstep"
    );
    // The superstep streamed its shares block by block: the agent's buffer
    // holds the last block it filled, never the superstep's triplets.
    assert!(
        buffered as f64 <= block_sizes && (buffered as u64) < triplets / 4,
        "{buffered} triplets buffered of {triplets} (blocks of at most {block_sizes})"
    );
}

#[test]
fn warm_multi_source_sssp_supersteps_allocate_far_less_than_once_per_triplet() {
    let _guard = serialize_test();
    let graph = PropertyGraph::from_edge_list(Rmat::new(11, 8.0).generate(5), Vec::new()).unwrap();
    // Every vertex holds four distances, one of them infinite, so every
    // triplet relaxes and sends a 4-column message.
    let WarmSuperstep {
        allocations,
        triplets,
        ..
    } = warm_superstep(&graph, &MultiSourceSssp::paper_default(), |node| {
        let vertices: Vec<VertexId> = node.vertex_table().ids().collect();
        for v in vertices {
            let d = v as f64;
            node.update_vertex(v, vec![d, d + 0.5, f64::INFINITY, 2.0 * d]);
        }
        node.activate_all();
    });
    assert!(triplets >= 10_000, "only {triplets} triplets on the node");
    // A `Vec<f64>` value costs two allocations per triplet if the arena
    // clones fresh attributes, and a `Vec<f64>` message one more.
    assert!(
        allocations < triplets / 64,
        "{allocations} allocations for {triplets} SSSP triplets in one warm superstep"
    );
}

/// A multi-source SSSP answer as the service hands it out.
type SharedDistances = Arc<RunOutcome<Vec<f64>>>;

/// A one-worker, native `Vec<f64>` service over rmat-`scale`, its cache
/// filled once with `MultiSourceSssp::paper_default()`'s answer.
fn filled_sssp_service(scale: u32) -> (GraphService<Vec<f64>, f64>, SharedDistances) {
    let graph = Arc::new(
        PropertyGraph::from_edge_list(Rmat::new(scale, 8.0).generate(5), Vec::new()).unwrap(),
    );
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .unwrap();
    let service = GraphService::builder(graph)
        .partitioned_by(partitioning)
        .max_iterations(200)
        .build()
        .unwrap();
    let fill = service
        .submit(MultiSourceSssp::paper_default())
        .unwrap()
        .wait()
        .unwrap();
    (service, fill)
}

#[test]
fn a_warm_cache_hit_allocates_a_constant_handful_whatever_the_result_size() {
    let _guard = serialize_test();
    let measured = [10, 12].map(|scale| {
        let (service, fill) = filled_sssp_service(scale);
        let algorithm = MultiSourceSssp::paper_default();
        // The same hit history at both sizes, so the service's sample
        // windows have grown alike before the measured hit.
        for _ in 0..4 {
            service.submit(algorithm.clone()).unwrap().wait().unwrap();
        }
        let before = allocations_here();
        let hit = service.submit(algorithm).unwrap().wait().unwrap();
        let allocations = allocations_here() - before;
        assert!(Arc::ptr_eq(&hit, &fill), "the hit copied its fill");
        (fill.values.len(), allocations)
    });
    let [(small_rows, small), (large_rows, large)] = measured;
    assert_eq!((small_rows, large_rows), (1 << 10, 1 << 12));
    // A deep copy of the outcome allocates once per `Vec<f64>` row; a
    // shared one pays the job key's strings, the job box, the ticket and
    // its resolved slot.
    assert_eq!(
        small, large,
        "a warm hit allocated {small} times on {small_rows} rows, {large} on {large_rows}"
    );
    assert!(small < 32, "{small} allocations for one warm hit");
}

#[test]
fn a_submit_on_a_stale_key_frees_nothing_of_the_stale_result() {
    let _guard = serialize_test();
    let (service, fill) = filled_sssp_service(10);
    let rows = fill.values.len() as u64;
    // The cache entry becomes the stale result's only holder.
    drop(fill);
    service
        .apply_mutations(&MutationBatch::new().add_edge(0, 5, 0.5))
        .unwrap();
    let before = frees_here();
    let ticket = service.submit(MultiSourceSssp::paper_default()).unwrap();
    let frees = frees_here() - before;
    // The lookup leaves the stale entry in place; the refill replaces it on
    // the worker, after this ticket resolved.
    assert!(
        frees < rows / 64,
        "{frees} frees on the submitting thread, the stale result has {rows} rows"
    );
    let refill = ticket.wait().unwrap();
    assert_eq!(service.stats_snapshot().cache_hits, 0);
    assert_eq!(service.cached_results(), 1);
    let hit = service
        .submit(MultiSourceSssp::paper_default())
        .unwrap()
        .wait()
        .unwrap();
    assert!(Arc::ptr_eq(&hit, &refill));
}

/// Bytes the calling thread allocates replaying `measured` insert-only
/// 32-edge batches into a warm rmat-`scale` session, per batch, after
/// `warm_up` batches of the same shape.
fn replay_bytes(scale: u32, warm_up: usize, measured: usize) -> Vec<u64> {
    let graph =
        PropertyGraph::from_edge_list(Rmat::new(scale, 8.0).generate(5), Vec::new()).unwrap();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 4)
        .unwrap();
    let devices = (0..4)
        .map(|node| vec![cpu_xeon_20c(format!("n{node}-cpu"))])
        .collect();
    let mut session = SessionBuilder::new(&graph)
        .partitioned_by(partitioning)
        .devices(devices)
        .max_iterations(200)
        .build()
        .unwrap();
    session.run(&MultiSourceSssp::paper_default()).unwrap();
    let endpoints = graph.edges().iter().map(|e| (e.src, e.dst));
    let mut log = MutationLog::new(graph.num_vertices(), endpoints);
    let vertices = graph.num_vertices() as u64;
    let mut seed = u64::from(scale);
    let deltas: Vec<_> = (0..warm_up + measured)
        .map(|_| {
            let mut batch = MutationBatch::new();
            for i in 0..32 {
                seed = gx_plug::ipc::key::splitmix64(seed);
                let (src, dst) = (seed % vertices, (seed >> 32) % vertices);
                batch = batch.add_edge(src as u32, dst as u32, 0.5 + i as f64);
            }
            log.append(&batch).unwrap()
        })
        .collect();
    for delta in &deltas[..warm_up] {
        session.apply_mutations(delta);
    }
    deltas[warm_up..]
        .iter()
        .map(|delta| {
            let before = bytes_here();
            session.apply_mutations(delta);
            bytes_here() - before
        })
        .collect()
}

#[test]
fn replaying_an_insert_batch_allocates_for_the_batch_not_the_graph() {
    let _guard = serialize_test();
    // The warm-up batches take every buffer the build sized exactly past its
    // first growth; later growth is amortised, so a batch that does land on
    // a doubling stands out, and the medians below look past it.
    let [small, large] = [10, 12].map(|scale| {
        let mut bytes = replay_bytes(scale, 4, 16);
        bytes.sort_unstable();
        bytes[bytes.len() / 2]
    });
    // Rebuilding the nodes' CSR, endpoint maps and ranks and the routing
    // table allocates ≈ 0.3 MB per batch at rmat-10 and ≈ 1.2 MB at rmat-12;
    // in place, a batch pays for its own edges, replicas and dirty set.
    assert!(
        large < 32 << 10,
        "a batch allocated {large} bytes at rmat-12"
    );
    assert!(
        large < 2 * small,
        "the bytes a batch allocates grew with the graph: {small} at rmat-10, {large} at rmat-12"
    );
}
