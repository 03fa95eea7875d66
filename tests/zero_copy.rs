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
//!   one block of triplets, not the superstep's.

use gx_plug::engine::node::NodeState;
use gx_plug::ipc::key::KeyGenerator;
use gx_plug::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests of this binary: they count edge clones and heap
/// allocations into process-global counters, and cargo runs `#[test]` fns on
/// parallel threads by default.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Forwards to [`System`], counting every allocation and reallocation.
struct CountingAllocator;

/// Global count of heap allocations (including reallocations).  A statistic
/// that publishes no other data, hence `Relaxed` increments.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter increment neither
// allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
