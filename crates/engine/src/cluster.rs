//! The simulated distributed cluster.
//!
//! A [`Cluster`] holds one [`NodeState`] per distributed node, the runtime
//! profile of the upper system (GraphX-like or PowerGraph-like), and the
//! network model of the interconnect.  It drives iterations in the BSP/GAS
//! style: a per-node *compute* phase (supplied as a closure, so the native
//! path and the middleware-accelerated path share the same driver and are
//! compared fairly), followed by a global *synchronisation* phase that routes
//! messages to master vertices, applies them, refreshes replicas and
//! re-computes the active frontier.
//!
//! The synchronisation is *owner-computes over dense local ids*: one routing
//! table, derived from the nodes' vertex tables at build (and after a batch
//! that removes edges), extended in place by insert-only batches, names
//! each vertex's master row `(node, local id)` and,
//! per master row, the `(node, local id)` of every mirror — GraphX's routing
//! table, laid out as a flat array plus one CSR per node.  Applying a message
//! and refreshing a replica are then array loads in ascending local order,
//! with no per-vertex heap list and no global → local lookup.
//!
//! The table also records each mirror's *role*: a mirror that holds at least
//! one local out-edge of its vertex is a *source* mirror, because a forward
//! kernel (one that never reads the destination attribute) reads the value
//! there.  For such kernels the refresh stops at the source mirrors — GraphX's
//! routing tables likewise ship a vertex only to the partitions that read it.

use crate::fanout::{fan_out, floor_for, settle, Lane};
use crate::metrics::{IterationMetrics, RunReport};
use crate::network::NetworkModel;
use crate::node::NodeState;
use crate::profile::RuntimeProfile;
use crate::template::{AddressedMessage, GraphAlgorithm};
use gxplug_accel::SimDuration;
use gxplug_graph::csr::shift_run_starts;
use gxplug_graph::dense::{DenseSlots, FrontierSet};
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::partition::Partitioning;
use gxplug_graph::tables;
use gxplug_graph::types::{Edge, PartitionId, VertexId};
use gxplug_graph::view::TripletBuffer;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::{self, Scope};

/// `(&mut items[a], &items[b])` for two distinct positions.
fn pair_mut<T>(items: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (low, high) = items.split_at_mut(b);
        (&mut low[a], &high[0])
    } else {
        let (low, high) = items.split_at_mut(a);
        (&mut high[0], &low[b])
    }
}

/// Unwraps the result of an infallible compute phase.
fn into_ok<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// How the per-node compute phase of a superstep is executed.
///
/// The simulated *time* model is identical in both modes (per-iteration time
/// is the maximum over the nodes either way); the switch controls whether the
/// host may overlap the nodes' work on OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Nodes compute one after another on the calling thread: the threaded
    /// path with a fan-out floor no superstep reaches
    /// ([`floor_for`]), so it spawns nothing.
    Serial,
    /// Threading proportional to work ([`fanout`](crate::fanout)): a
    /// superstep whose active-edge count is below the fan-out floor runs its
    /// nodes in node order on the calling thread, exactly like
    /// [`ExecutionMode::Serial`]; a larger one lends every node but the last
    /// to a parked worker — spawned once per run, at the first such
    /// superstep — and takes them back in node order at the BSP barrier.  A
    /// run that never crosses the floor creates no thread.  Results are
    /// identical to [`ExecutionMode::Serial`] either way.
    #[default]
    Threaded,
}

/// The compute phase of one BSP superstep over every node of the cluster.
///
/// [`Cluster::run_phased`] calls [`ComputePhase::compute`] once per
/// iteration; implementations decide how the per-node work is scheduled
/// (serially, across scoped threads, through middleware agents, ...).  The
/// returned outputs must be in node order — the synchronisation phase relies
/// on that for deterministic message merging.
///
/// A compute phase that can fail (e.g. the middleware's agents, whose device
/// kernels may reject a block) reports its error type through
/// [`ComputePhase::Error`]; [`Cluster::run_phased`] then aborts the run and
/// propagates the first error in node order.  Infallible phases (native
/// execution) use [`std::convert::Infallible`] and pay nothing for the
/// plumbing.
pub trait ComputePhase<V, E, M> {
    /// The error a superstep can abort with ([`std::convert::Infallible`]
    /// for native phases).
    type Error;

    /// Runs the compute phase of iteration `iteration` on every node,
    /// returning one output per node, in node order.
    fn compute(
        &mut self,
        nodes: &mut [NodeState<V, E>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<V, M>>, Self::Error>;
}

/// [`ComputePhase`] adapter running a per-node closure sequentially.
struct SerialNodes<F>(F);

impl<V, E, M, F> ComputePhase<V, E, M> for SerialNodes<F>
where
    F: FnMut(&mut NodeState<V, E>, usize) -> NodeComputeOutput<V, M>,
{
    type Error = Infallible;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<V, E>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<V, M>>, Infallible> {
        Ok(nodes
            .iter_mut()
            .map(|node| (self.0)(node, iteration))
            .collect())
    }
}

/// [`ComputePhase`] adapter running a shared per-node function with
/// work-proportional threading: supersteps below the run's fan-out floor run
/// in node order on the calling thread, larger ones on parked per-run
/// workers ([`fanout`](crate::fanout)) spawned on the scope given to
/// [`ParallelNodes::new`].  Outputs are in node order either way.
///
/// The function is shared (`Fn + Clone`) rather than mutable per node, which
/// fits stateless compute phases such as [`native_node_compute`]; stateful
/// phases (one middleware agent per node) implement [`ComputePhase`]
/// directly.
pub struct ParallelNodes<'scope, 'env, V, E, M, F> {
    scope: &'scope Scope<'scope, 'env>,
    /// Fewest active edges a superstep lends its nodes for.
    floor: usize,
    f: F,
    /// One lane per node but the last, which the calling thread keeps.
    lanes: Vec<Lane<'scope, NodeState<V, E>, NodeComputeOutput<V, M>>>,
}

impl<'scope, 'env, V, E, M, F> ParallelNodes<'scope, 'env, V, E, M, F> {
    /// A compute phase running `f` per node, fanning out the supersteps that
    /// carry at least `floor` active edges; any worker it needs is spawned on
    /// `scope`, which must enclose the whole run.
    pub fn new(scope: &'scope Scope<'scope, 'env>, floor: usize, f: F) -> Self {
        Self {
            scope,
            floor,
            f,
            lanes: Vec::new(),
        }
    }

    /// Threads spawned so far: 0 until a superstep crosses the fan-out
    /// floor, one per node but the last ever after.
    pub fn threads_spawned(&self) -> usize {
        self.lanes.iter().map(|lane| lane.spawns()).sum()
    }
}

impl<'scope, V, E, M, F> ComputePhase<V, E, M> for ParallelNodes<'scope, '_, V, E, M, F>
where
    V: Send + 'scope,
    E: Send + 'scope,
    M: Send + 'scope,
    F: Fn(&mut NodeState<V, E>, usize) -> NodeComputeOutput<V, M> + Clone + Send + 'scope,
{
    type Error = Infallible;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<V, E>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<V, M>>, Infallible> {
        let active_edges: usize = nodes.iter().map(NodeState::active_edge_count).sum();
        if nodes.len() < 2 || active_edges < self.floor {
            return Ok(nodes
                .iter_mut()
                .map(|node| (self.f)(node, iteration))
                .collect());
        }
        self.lanes.resize_with(nodes.len() - 1, Lane::default);
        let f = self.f.clone();
        let lent = nodes.iter_mut().map(std::mem::take).collect();
        let returned = fan_out(
            self.scope,
            &mut self.lanes,
            lent,
            move |node: &mut NodeState<V, E>| f(node, iteration),
        );
        Ok(settle(returned, |index, node| nodes[index] = node))
    }
}

/// Whether the cluster may skip the global synchronisation of an iteration
/// when no cross-node data movement is required (§III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Always run the global synchronisation (native upper systems).
    AlwaysSync,
    /// Skip the upper-system synchronisation when every updated vertex and
    /// its out-edges live on the node that updated it, and no messages are
    /// addressed to remote masters.
    SkipWhenLocal,
}

/// What one node's compute phase produced during an iteration.
#[derive(Debug, Clone)]
pub struct NodeComputeOutput<V, M> {
    /// Simulated time the node spent computing (including any middleware
    /// work).
    pub compute_time: SimDuration,
    /// Portion of `compute_time` attributable to the middleware (agent and
    /// daemon work, transfers, packaging); zero for native execution.
    pub middleware_time: SimDuration,
    /// Number of edge triplets processed.
    pub triplets_processed: usize,
    /// Messages produced by `MSGGen`, merged per target vertex *within this
    /// node* (`MSGMerge`), still to be applied at the targets' master nodes.
    pub messages: Vec<AddressedMessage<M>>,
    /// Zero-sized: types the output by the vertex value `V` of the nodes
    /// that produced it.
    pub vertex_type: PhantomData<fn() -> V>,
}

impl<V, M> NodeComputeOutput<V, M> {
    /// An output representing "nothing to do" for idle nodes.
    pub fn idle() -> Self {
        Self {
            compute_time: SimDuration::ZERO,
            middleware_time: SimDuration::ZERO,
            triplets_processed: 0,
            messages: Vec::new(),
            vertex_type: PhantomData,
        }
    }
}

/// Pooled scratch for the synchronisation phase, allocated once per run and
/// reset with an epoch bump each iteration.
struct SyncScratch<M> {
    /// Per-target merged message of the current iteration, indexed by
    /// global id (the global vertex space is dense `0..num_vertices`).
    merged: DenseSlots<M>,
    /// Per node, the local ids of the master rows whose value changed this
    /// iteration; the ascending scan is the refresh order.
    changed: Vec<FrontierSet>,
}

impl<M> SyncScratch<M> {
    fn new<V, E>(num_vertices: usize, nodes: &[NodeState<V, E>]) -> Self {
        Self {
            merged: DenseSlots::with_capacity(num_vertices),
            changed: nodes
                .iter()
                .map(|node| FrontierSet::new(node.num_vertices()))
                .collect(),
        }
    }
}

/// The cluster's routing table over dense local ids: where each vertex's
/// master row lives, and where each master row's mirrors live.
///
/// Derived from the node vertex tables, their `is_master` flags and the
/// nodes' local out-degrees alone (no graph walk): built in O(Σ locals)
/// ([`SyncRoutes::build`]), rebuilt so after a batch that removes edges, and
/// extended in place by the rows an insert-only batch adds
/// ([`SyncRoutes::extend`]).
#[derive(Debug, Clone)]
struct SyncRoutes {
    /// Indexed by global id: `(master node, local id on the master)`.
    owner: Vec<(u32, u32)>,
    /// Per node, a CSR over its locals: `mirrors[offsets[l]..offsets[l + 1]]`
    /// lists `(node, local id there)` for every non-master replica of the
    /// vertex at local `l` (empty unless `l` is a master row).  The source
    /// mirrors — those holding a local out-edge of the vertex — come first,
    /// up to `sources_end[l]`; each part is ascending by node.
    nodes: Vec<MirrorCsr>,
}

/// One node's mirror lists (see [`SyncRoutes::nodes`]).
#[derive(Debug, Clone)]
struct MirrorCsr {
    offsets: Vec<u32>,
    /// Per local, where its source-mirror prefix of `mirrors` ends.
    sources_end: Vec<u32>,
    mirrors: Vec<(u32, u32)>,
}

impl SyncRoutes {
    fn build<V, E>(nodes: &[NodeState<V, E>], num_vertices: usize) -> Self {
        let mut owner = vec![(0, 0); num_vertices];
        let mut masters = 0;
        for (node_id, node) in nodes.iter().enumerate() {
            for (local, row) in node.vertex_table().rows().enumerate() {
                if row.is_master {
                    owner[row.id as usize] = (node_id as u32, local as u32);
                    masters += 1;
                }
            }
        }
        assert_eq!(masters, num_vertices, "every vertex needs one master row");
        // Every mirror row as `(master local, (node, local), is source)`,
        // grouped by master node, in node order then local order.
        type Found = (u32, (u32, u32), bool);
        let mut found: Vec<Vec<Found>> = vec![Vec::new(); nodes.len()];
        for (node_id, node) in nodes.iter().enumerate() {
            for (local, row) in node.vertex_table().rows().enumerate() {
                let (master, master_local) = owner[row.id as usize];
                if !row.is_master {
                    let source = node.local_out_degree(local as u32) > 0;
                    found[master as usize].push((
                        master_local,
                        (node_id as u32, local as u32),
                        source,
                    ));
                }
            }
        }
        let csrs = found
            .into_iter()
            .zip(nodes)
            .map(|(found, node)| {
                // Counting sort by master local, sources before the rest:
                // stable, so each part of a list keeps node order.
                let locals = node.num_vertices();
                let mut offsets = vec![0u32; locals + 1];
                let mut sources = vec![0u32; locals];
                for &(local, _, source) in &found {
                    offsets[local as usize + 1] += 1;
                    sources[local as usize] += u32::from(source);
                }
                for i in 1..offsets.len() {
                    offsets[i] += offsets[i - 1];
                }
                let mut sources_end = sources;
                for (end, &start) in sources_end.iter_mut().zip(&offsets) {
                    *end += start;
                }
                let mut source_cursor = offsets.clone();
                let mut other_cursor = sources_end.clone();
                let mut mirrors = vec![(0, 0); found.len()];
                for (local, mirror, source) in found {
                    let cursor = if source {
                        &mut source_cursor[local as usize]
                    } else {
                        &mut other_cursor[local as usize]
                    };
                    mirrors[*cursor as usize] = mirror;
                    *cursor += 1;
                }
                MirrorCsr {
                    offsets,
                    sources_end,
                    mirrors,
                }
            })
            .collect();
        Self { owner, nodes: csrs }
    }

    /// Routes the rows an insert-only batch added — each node's locals from
    /// `first_new[node]` on — without touching the rest: a new master row
    /// takes its vertex's owner entry, and a new mirror row joins its
    /// master's list among the non-source mirrors.  An insert never makes a
    /// source mirror (an added edge lands on its source's master part), so
    /// every list keeps its split, and each part stays in node order: the
    /// list equals the one [`SyncRoutes::build`] derives.
    fn extend<V, E>(
        &mut self,
        nodes: &[NodeState<V, E>],
        first_new: &[usize],
        num_vertices: usize,
    ) {
        self.owner.resize(num_vertices, (0, 0));
        let new_rows =
            (nodes.iter().zip(first_new).enumerate()).flat_map(|(id, (node, &first))| {
                (first..node.num_vertices()).map(move |local| {
                    let row = node.vertex_table().row_at(local as u32);
                    (id as u32, local as u32, row.id, row.is_master)
                })
            });
        for (node, local, v, _) in new_rows.clone().filter(|row| row.3) {
            self.owner[v as usize] = (node, local);
        }
        // `(master node, master local, (node, local))`, ordered so each
        // master's new mirrors come in node order.
        let mut mirrors: Vec<(u32, u32, (u32, u32))> = new_rows
            .filter(|row| !row.3)
            .map(|(node, local, v, _)| {
                debug_assert_eq!(
                    nodes[node as usize].local_out_degree(local),
                    0,
                    "an insert made a source mirror"
                );
                let (master, master_local) = self.owner[v as usize];
                (master, master_local, (node, local))
            })
            .collect();
        mirrors.sort_unstable();
        for (master, csr) in self.nodes.iter_mut().enumerate() {
            let from = mirrors.partition_point(|m| (m.0 as usize) < master);
            let to = mirrors.partition_point(|m| (m.0 as usize) <= master);
            csr.append(nodes[master].num_vertices(), &mirrors[from..to]);
        }
    }
}

impl MirrorCsr {
    /// Grows the table to `locals` rows (new ones with no mirrors) and adds
    /// `added` — `(_, master local, mirror)`, ascending by master local then
    /// node — as non-source mirrors: each goes to its place by node in its
    /// list's non-source part, all in one insertion pass, and the lists
    /// above the lowest touched master shift their bounds to match.
    fn append(&mut self, locals: usize, added: &[(u32, u32, (u32, u32))]) {
        let listed = self.mirrors.len() as u32;
        self.offsets.resize(locals + 1, listed);
        self.sources_end.resize(locals, listed);
        let placed: Vec<(usize, (u32, u32))> = (added.iter())
            .map(|&(_, local, mirror)| {
                let others = self.sources_end[local as usize] as usize;
                let end = self.offsets[local as usize + 1] as usize;
                let by_node = self.mirrors[others..end].partition_point(|m| m.0 < mirror.0);
                (others + by_node, mirror)
            })
            .collect();
        tables::insert_at_positions(&mut self.mirrors, placed.into_iter());
        let lists = added.iter().map(|&(_, local, _)| local as usize);
        shift_run_starts(&mut self.offsets, lists.clone());
        shift_run_starts(&mut self.sources_end, lists);
    }

    /// The mirrors of the master row at `local`: only its source mirrors if
    /// `sources_only`, every mirror otherwise.
    #[inline]
    fn of(&self, local: u32, sources_only: bool) -> &[(u32, u32)] {
        let local = local as usize;
        let end = if sources_only {
            self.sources_end[local]
        } else {
            self.offsets[local + 1]
        };
        &self.mirrors[self.offsets[local] as usize..end as usize]
    }
}

/// Clears `in_local[dst]` for every placed `(part, edge)` whose part is not
/// its destination's master part.
fn record_in_edge_placement<'a, E: 'a>(
    in_local: &mut [bool],
    partitioning: &Partitioning,
    placed: impl IntoIterator<Item = (PartitionId, &'a Edge<E>)>,
) {
    for (part, edge) in placed {
        in_local[edge.dst as usize] &= part == partitioning.master_of(edge.dst);
    }
}

/// For every vertex, whether all of its in-edges lie on its master part, read
/// from the node edge tables.
fn in_edge_locality<V, E>(
    nodes: &[NodeState<V, E>],
    partitioning: &Partitioning,
    num_vertices: usize,
) -> Vec<bool> {
    let mut in_local = vec![true; num_vertices];
    record_in_edge_placement(
        &mut in_local,
        partitioning,
        (nodes.iter().enumerate())
            .flat_map(|(part, node)| node.edge_table().edges().iter().map(move |e| (part, e))),
    );
    in_local
}

/// Outcome of the synchronisation phase of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SyncOutcome {
    time: SimDuration,
    apply_time: SimDuration,
    remote_messages: usize,
    replica_updates: usize,
    skipped: bool,
    changed_vertices: usize,
}

/// A simulated distributed cluster running one upper system.
#[derive(Debug, Clone)]
pub struct Cluster<V, E> {
    nodes: Vec<NodeState<V, E>>,
    partitioning: Arc<Partitioning>,
    /// Master and mirror rows of every vertex, in dense local ids.
    routes: SyncRoutes,
    /// For every vertex, whether all of its in-edges lie on its master part.
    in_local: Vec<bool>,
    /// `(src, dst, attr)` of every edge removed since the last
    /// [`Cluster::reset_for`] or [`Cluster::seed_incremental`]: what the
    /// next incremental seed trims from the warm values.
    removed: Vec<(VertexId, VertexId, E)>,
    profile: RuntimeProfile,
    network: NetworkModel,
    num_vertices: usize,
}

impl<V, E> Cluster<V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    /// Builds a cluster from a graph, a partitioning of it, and the algorithm
    /// whose `init_vertex` seeds the vertex tables: one
    /// [`NodeState::build`] per part, then the routing table and the in-edge
    /// locality flags, read from the nodes exactly as
    /// [`Cluster::apply_mutations`] re-reads them.
    ///
    /// # Panics
    /// Panics if `partitioning` does not partition `graph`: with "an
    /// endpoint of a local edge is not a local vertex" when some part's edge
    /// has an endpoint the part does not list, and with "every vertex needs
    /// one master row" when some vertex has none.  A session or service
    /// rejects a partitioning whose counts differ from the graph's with a
    /// typed error before it gets here.
    pub fn build<A>(
        graph: &PropertyGraph<V, E>,
        partitioning: Partitioning,
        algorithm: &A,
        profile: RuntimeProfile,
        network: NetworkModel,
    ) -> Self
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        let num_vertices = graph.num_vertices();
        let nodes: Vec<NodeState<V, E>> = (0..partitioning.num_parts())
            .map(|id| NodeState::build(id, graph, &partitioning, algorithm))
            .collect();
        let routes = SyncRoutes::build(&nodes, num_vertices);
        let in_local = in_edge_locality(&nodes, &partitioning, num_vertices);
        Self {
            nodes,
            partitioning: Arc::new(partitioning),
            routes,
            in_local,
            removed: Vec::new(),
            profile,
            network,
            num_vertices,
        }
    }

    /// Re-seeds every node's vertex attributes and active frontier for a
    /// fresh run of `algorithm`, keeping the expensive structural state
    /// (edge tables, vertex-edge maps, routing table and edge-locality
    /// flags) built by [`Cluster::build`].
    ///
    /// A reset cluster is bit-identical to a freshly built one, which is what
    /// lets a deployed session serve many algorithm runs: the deployment is
    /// paid once, each run only re-initialises the vertex state.
    pub fn reset_for<A>(&mut self, algorithm: &A)
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        let num_vertices = self.num_vertices;
        for node in &mut self.nodes {
            node.reset_for(algorithm, num_vertices);
        }
        self.removed.clear();
    }

    /// Applies one resolved mutation batch in place, touching only the
    /// shards the batch reaches.
    ///
    /// The cluster's own copy of the partitioning absorbs the batch (new
    /// vertices master like isolated ones, new edges land on their source's
    /// master part, and a mirror that loses its last local edge retires),
    /// each node applies its share ([`NodeState::apply_mutations`]), new
    /// replicas are upserted — new vertices with their op-supplied
    /// attribute, new replicas of existing vertices with a copy of their
    /// master's *current* value, so warm state survives for incremental
    /// recompute — and per-vertex out-degrees absorb the batch's degree
    /// deltas on every node holding the vertex.  The retired mirrors are the
    /// removed edges' endpoints that their part no longer lists, so the
    /// deployment stays the size of the graph however long the mutation
    /// history.  Each removed edge is recorded with its attribute for the
    /// next [`Cluster::seed_incremental`].  An added edge lands where its
    /// source is the master, so no mirror gains a local out-edge here: a
    /// mirror a forward kernel left stale (it refreshes source mirrors only)
    /// stays destination-only, and every source mirror still equals its
    /// master.
    ///
    /// What a batch costs depends on its kind:
    /// * **insert-only**: O(batch) planning and lookups.  A node the batch
    ///   does not reach only looks up its degree deltas; a reached node
    ///   appends (see [`NodeState::apply_mutations`]: one shift of its CSR
    ///   runs and orders, no rebuild).  The routing table is extended in
    ///   place — new masters take their owner entry, new mirrors join their
    ///   master's non-source list — and the in-edge locality flags are
    ///   narrowed by the added edges;
    /// * **with removals**: linear passes.  The partitioning compacts its
    ///   edge lists in one merge, the touched nodes compact their edges and
    ///   rows, and the routing table (mirror roles included) and the in-edge
    ///   locality flags are re-derived from the nodes in O(Σ locals + Σ
    ///   edges).
    ///
    /// Either way the synchronisation-skipping decision matches a cluster
    /// rebuilt from the mutated graph bit for bit.
    ///
    /// Batches must apply in log order, exactly once; afterwards the cluster
    /// is structurally identical to one built from the mutated graph with
    /// the same updated partitioning (local id assignment may differ, which
    /// no observable result depends on).
    ///
    /// # Panics
    /// Panics if `delta` was resolved against a different shape than this
    /// cluster currently holds.
    pub fn apply_mutations(&mut self, delta: &gxplug_graph::mutate::ResolvedMutation<V, E>) {
        assert_eq!(
            delta.prior_num_vertices, self.num_vertices,
            "mutation batch resolved against a different vertex count"
        );
        let num_parts = self.nodes.len();
        // Per-node removal positions, resolved against the *pre-mutation*
        // partitioning (part edge lists are ascending and position-aligned
        // with the node edge tables).
        let mut remove_positions: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
        // Per node, the removed edges' endpoints: the mirrors the batch may
        // retire.
        let mut dropped: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        for (edge_id, src, dst) in &delta.removed_edges {
            let part = self.partitioning.part_of_edge(edge_id);
            let position = self
                .partitioning
                .part(part)
                .edges
                .binary_search(&edge_id)
                .expect("partitioning must list every assigned edge");
            remove_positions[part].push(position);
            dropped[part].extend([src, dst]);
            let attr = &self.nodes[part].edge_table().edges()[position].attr;
            self.removed.push((src, dst, attr.clone()));
        }
        Arc::make_mut(&mut self.partitioning).apply_mutations(delta);
        // It retired those its part no longer lists.
        for (part, list) in dropped.iter_mut().enumerate() {
            let listed = &self.partitioning.part(part).vertices;
            list.retain(|v| listed.binary_search(v).is_err());
            list.sort_unstable();
            list.dedup();
        }
        // Added edges per part, aligned with the ids the partitioning just
        // assigned (base + i for the i-th added edge).
        let base = delta.prior_num_edges - delta.removed_edges.len();
        let mut add_edges: Vec<Vec<Edge<E>>> = vec![Vec::new(); num_parts];
        for (i, edge) in delta.added_edges.iter().enumerate() {
            let part = self.partitioning.part_of_edge(base + i);
            debug_assert_eq!(
                part,
                self.partitioning.master_of(edge.src),
                "an added edge must land on its source's master part"
            );
            add_edges[part].push(edge.clone());
        }
        // Global out-degree deltas of the batch, keyed ascending.
        let mut deltas: std::collections::BTreeMap<VertexId, i64> =
            std::collections::BTreeMap::new();
        for (_, src, _) in &delta.removed_edges {
            *deltas.entry(src).or_insert(0) -= 1;
        }
        for edge in &delta.added_edges {
            *deltas.entry(edge.src).or_insert(0) += 1;
        }
        let degree_adjust: Vec<(VertexId, i64)> = deltas.iter().map(|(&v, &d)| (v, d)).collect();
        self.num_vertices = delta.num_vertices();
        // Plan the vertex upserts per node: new masters first (id order),
        // then endpoints of added edges (op order), deduplicated.  Attribute
        // and degree sources: op-supplied for batch-new vertices, the master
        // node's current value (plus the batch's degree delta) for existing
        // vertices gaining a replica.
        let added_attr = |v: VertexId| -> &V {
            let index = v as usize - delta.prior_num_vertices;
            &delta.added_vertices[index].1
        };
        let degree_after = |nodes: &[NodeState<V, E>], v: VertexId| -> u32 {
            let shift = deltas.get(&v).copied().unwrap_or(0);
            let before = if (v as usize) < delta.prior_num_vertices {
                let master = self.partitioning.master_of(v);
                nodes[master]
                    .out_degree_of(v)
                    .expect("master node must hold its vertex") as i64
            } else {
                0
            };
            (before + shift).max(0) as u32
        };
        let mut upserts: Vec<Vec<(VertexId, V, bool, u32)>> = vec![Vec::new(); num_parts];
        let mut planned: Vec<std::collections::BTreeSet<VertexId>> =
            vec![std::collections::BTreeSet::new(); num_parts];
        {
            let nodes = &self.nodes;
            let plan =
                |part: PartitionId,
                 v: VertexId,
                 upserts: &mut Vec<Vec<(VertexId, V, bool, u32)>>,
                 planned: &mut Vec<std::collections::BTreeSet<VertexId>>| {
                    if nodes[part].vertex_table().contains(v) || !planned[part].insert(v) {
                        return;
                    }
                    let attr = if (v as usize) < delta.prior_num_vertices {
                        let master = self.partitioning.master_of(v);
                        nodes[master]
                            .vertex_value(v)
                            .expect("master node must hold its vertex")
                            .clone()
                    } else {
                        added_attr(v).clone()
                    };
                    let degree = degree_after(nodes, v);
                    let is_master = self.partitioning.master_of(v) == part;
                    upserts[part].push((v, attr, is_master, degree));
                };
            for &(v, _) in &delta.added_vertices {
                plan(
                    self.partitioning.master_of(v),
                    v,
                    &mut upserts,
                    &mut planned,
                );
            }
            for (i, edge) in delta.added_edges.iter().enumerate() {
                let part = self.partitioning.part_of_edge(base + i);
                plan(part, edge.src, &mut upserts, &mut planned);
                plan(part, edge.dst, &mut upserts, &mut planned);
            }
        }
        // Apply each node's share.
        let first_new: Vec<usize> = self.nodes.iter().map(NodeState::num_vertices).collect();
        for (part, node) in self.nodes.iter_mut().enumerate() {
            node.apply_mutations(
                &remove_positions[part],
                std::mem::take(&mut add_edges[part]),
                &dropped[part],
                std::mem::take(&mut upserts[part]),
                &degree_adjust,
                &delta.detached,
            );
        }
        // In-edge locality flags: inserts can only narrow them; a removal can
        // widen one, so removals recompute them from the node edge tables.
        // Likewise the routes: inserts add rows, removals compact the locals
        // and can turn a source mirror into a destination-only one.
        if delta.has_removals() {
            self.in_local = in_edge_locality(&self.nodes, &self.partitioning, self.num_vertices);
            self.routes = SyncRoutes::build(&self.nodes, self.num_vertices);
        } else {
            self.routes
                .extend(&self.nodes, &first_new, self.num_vertices);
            self.in_local.resize(self.num_vertices, true);
            record_in_edge_placement(
                &mut self.in_local,
                &self.partitioning,
                delta
                    .added_edges
                    .iter()
                    .enumerate()
                    .map(|(i, edge)| (self.partitioning.part_of_edge(base + i), edge)),
            );
        }
    }

    /// Seeds the cluster for an *incremental* recompute of `algorithm`: the
    /// warm converged vertex values stay in place, vertices in `reinit`
    /// (added since the warm run) are re-initialised through the template,
    /// and the active frontier is replaced everywhere by `seed` — the dirty
    /// vertices of the mutations applied since the warm run.  The algorithm
    /// must have declared the seed sound via its `rescope` hook.
    ///
    /// Edges removed since the warm run are trimmed first (KickStarter's
    /// trimmed approximation).  The heads of removed edges whose relaxation
    /// may have produced their warm value
    /// ([`GraphAlgorithm::derived_via`]) are *tainted*, and so is everything
    /// reached from a tainted vertex over such tight edges of the mutated
    /// graph.  Tainted vertices are re-initialised and every source of a
    /// local edge into one joins the seed; every other vertex keeps its warm
    /// value, which is still a path sum of the mutated graph.  The test
    /// reads master values only: a forward run leaves destination-only
    /// mirrors stale.
    pub fn seed_incremental<A>(&mut self, algorithm: &A, seed: &[VertexId], reinit: &[VertexId])
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        let removed = std::mem::take(&mut self.removed);
        if removed.is_empty() {
            for node in &mut self.nodes {
                node.seed_incremental(algorithm, seed, reinit);
            }
            return;
        }
        let tainted = self.taint(algorithm, &removed);
        let mut reinit = reinit.to_vec();
        reinit.extend((0..self.num_vertices as VertexId).filter(|&v| tainted[v as usize]));
        let mut seed = seed.to_vec();
        for node in &self.nodes {
            seed.extend(
                (node.edge_table().edges().iter())
                    .filter(|edge| tainted[edge.dst as usize])
                    .map(|edge| edge.src),
            );
        }
        seed.sort_unstable();
        seed.dedup();
        for node in &mut self.nodes {
            node.seed_incremental(algorithm, &seed, &reinit);
        }
    }

    /// The vertices `removed` may have invalidated (see
    /// [`Cluster::seed_incremental`]), as a flag per global id.
    fn taint<A>(&self, algorithm: &A, removed: &[(VertexId, VertexId, E)]) -> Vec<bool>
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        let master = |v: VertexId| {
            let (node, local) = self.routes.owner[v as usize];
            &self.nodes[node as usize].vertex_table().row_at(local).attr
        };
        let mut tainted = vec![false; self.num_vertices];
        let mut pending = Vec::new();
        for (src, dst, attr) in removed {
            if !tainted[*dst as usize] && algorithm.derived_via(master(*src), attr, master(*dst)) {
                tainted[*dst as usize] = true;
                pending.push(*dst);
            }
        }
        while let Some(v) = pending.pop() {
            let value = master(v);
            // The out-edges of `v` live on its master and its source mirrors.
            let (node, local) = self.routes.owner[v as usize];
            let mirrors = self.routes.nodes[node as usize].of(local, true);
            for &(node, local) in std::iter::once(&(node, local)).chain(mirrors) {
                for edge in self.nodes[node as usize].local_out_edges(local) {
                    let w = edge.dst;
                    if !tainted[w as usize] && algorithm.derived_via(value, &edge.attr, master(w)) {
                        tainted[w as usize] = true;
                        pending.push(w);
                    }
                }
            }
        }
        tainted
    }

    /// Number of distributed nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of vertices in the global graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The upper system's runtime profile.
    pub fn profile(&self) -> &RuntimeProfile {
        &self.profile
    }

    /// The interconnect model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The partitioning this cluster was built from.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Immutable access to a node.
    pub fn node(&self, id: PartitionId) -> &NodeState<V, E> {
        &self.nodes[id]
    }

    /// Iterates immutably over all nodes.
    pub fn nodes(&self) -> &[NodeState<V, E>] {
        &self.nodes
    }

    /// Total number of active vertices across the cluster.
    pub fn total_active(&self) -> usize {
        self.nodes.iter().map(|n| n.active_count()).sum()
    }

    /// Collects the converged vertex values from the master copies, in
    /// global id order.  Every vertex has one: [`Cluster::build`] checks it.
    pub fn collect_values(&self) -> Vec<V> {
        (self.routes.owner.iter())
            .map(|&(node, local)| {
                let table = self.nodes[node as usize].vertex_table();
                table.row_at(local).attr.clone()
            })
            .collect()
    }

    /// Runs the algorithm natively (no accelerators): every node processes its
    /// active triplets at the upper system's own per-edge cost, with
    /// work-proportional threading ([`ExecutionMode::Threaded`]); use
    /// [`Cluster::run_native_mode`] to pin the execution mode.
    pub fn run_native<A>(
        &mut self,
        algorithm: &A,
        dataset: &str,
        max_iterations: usize,
    ) -> RunReport
    where
        A: GraphAlgorithm<V, E>,
    {
        self.run_native_mode(algorithm, dataset, max_iterations, ExecutionMode::default())
    }

    /// [`Cluster::run_native`] with an explicit [`ExecutionMode`].
    pub fn run_native_mode<A>(
        &mut self,
        algorithm: &A,
        dataset: &str,
        max_iterations: usize,
        mode: ExecutionMode,
    ) -> RunReport
    where
        A: GraphAlgorithm<V, E>,
    {
        let profile = self.profile;
        let system = profile.name.to_string();
        let compute = |node: &mut NodeState<V, E>, iteration: usize| {
            native_node_compute(node, algorithm, &profile, iteration)
        };
        // The scope encloses the run, so the phase's workers are spawned at
        // most once and parked between supersteps — and never in a serial
        // run, whose floor no superstep reaches.
        into_ok(thread::scope(|scope| {
            self.run_phased(
                algorithm,
                dataset,
                &system,
                max_iterations,
                SyncPolicy::AlwaysSync,
                SimDuration::ZERO,
                &mut ParallelNodes::new(scope, floor_for(mode), compute),
            )
        }))
    }

    /// Runs the iteration driver with a custom per-node compute phase.
    ///
    /// This is the sequential-closure convenience over
    /// [`Cluster::run_phased`]: `node_compute` is called once per node per
    /// iteration on the calling thread.  Compute phases that need
    /// node-parallelism (such as the middleware's threaded agents) implement
    /// [`ComputePhase`] and call [`Cluster::run_phased`] directly.
    #[allow(clippy::too_many_arguments)]
    pub fn run_custom<A, F>(
        &mut self,
        algorithm: &A,
        dataset: &str,
        system: &str,
        max_iterations: usize,
        sync_policy: SyncPolicy,
        setup: SimDuration,
        node_compute: F,
    ) -> RunReport
    where
        A: GraphAlgorithm<V, E>,
        F: FnMut(&mut NodeState<V, E>, usize) -> NodeComputeOutput<V, A::Msg>,
    {
        into_ok(self.run_phased(
            algorithm,
            dataset,
            system,
            max_iterations,
            sync_policy,
            setup,
            &mut SerialNodes(node_compute),
        ))
    }

    /// Runs the iteration driver with a pluggable superstep compute phase.
    ///
    /// Each iteration runs `compute_phase` over all nodes (which may fan out
    /// across threads — the BSP barrier is the return of
    /// [`ComputePhase::compute`]), then the cluster performs the global
    /// synchronisation: message routing to masters, apply, replica refresh,
    /// activity tracking and metric collection.  Because outputs are
    /// consumed in node order, results are independent of how the compute
    /// phase schedules the per-node work.
    ///
    /// # Errors
    /// Aborts the run with the compute phase's error if any superstep fails
    /// (infallible phases make this a no-op — see [`ComputePhase::Error`]).
    #[allow(clippy::too_many_arguments)]
    pub fn run_phased<A, P>(
        &mut self,
        algorithm: &A,
        dataset: &str,
        system: &str,
        max_iterations: usize,
        sync_policy: SyncPolicy,
        setup: SimDuration,
        compute_phase: &mut P,
    ) -> Result<RunReport, P::Error>
    where
        A: GraphAlgorithm<V, E>,
        P: ComputePhase<V, E, A::Msg>,
    {
        let iteration_cap = max_iterations.min(algorithm.max_iterations());
        let mut report = RunReport {
            algorithm: algorithm.name().to_string(),
            system: system.to_string(),
            dataset: dataset.to_string(),
            num_nodes: self.num_nodes(),
            iterations: Vec::new(),
            converged: false,
            setup,
        };
        let mut scratch = SyncScratch::new(self.num_vertices, &self.nodes);
        for iteration in 0..iteration_cap {
            if algorithm.always_active() {
                // Fixed-point algorithms keep the whole frontier active —
                // a word fill, not a materialised all-ids set.
                for node in &mut self.nodes {
                    node.activate_all();
                }
            }
            let active_vertices = self.total_active();
            if active_vertices == 0 {
                report.converged = true;
                break;
            }
            // ---- compute phase (per node, barrier at the end) ----
            let outputs = compute_phase.compute(&mut self.nodes, iteration)?;
            debug_assert_eq!(outputs.len(), self.nodes.len());
            let mut max_compute = SimDuration::ZERO;
            let mut max_middleware = SimDuration::ZERO;
            let mut triplets_processed = 0usize;
            for output in &outputs {
                max_compute = max_compute.max(output.compute_time);
                max_middleware = max_middleware.max(output.middleware_time);
                triplets_processed += output.triplets_processed;
            }
            // ---- synchronisation phase ----
            let sync = self.synchronize(algorithm, outputs, sync_policy, iteration, &mut scratch);
            let upper_overhead = if sync.skipped {
                SimDuration::ZERO
            } else {
                self.profile.per_iteration_overhead
            };
            report.iterations.push(IterationMetrics {
                iteration,
                active_vertices,
                triplets_processed,
                compute: max_compute + sync.apply_time,
                middleware: max_middleware,
                upper_overhead,
                sync: sync.time,
                remote_messages: sync.remote_messages,
                replica_updates: sync.replica_updates,
                sync_skipped: sync.skipped,
            });
            // A fixed point (no vertex changed) terminates the run for every
            // algorithm, including always-active ones: re-running identical
            // iterations cannot change anything further.
            if sync.changed_vertices == 0 {
                report.converged = true;
                break;
            }
        }
        if !report.converged && self.total_active() == 0 {
            report.converged = true;
        }
        Ok(report)
    }

    /// Routes messages to master vertices, applies them, refreshes replicas
    /// and recomputes the active frontier — owner-computes over the routing
    /// table's dense local ids.  A kernel that reads destination attributes
    /// gets every mirror of a changed master refreshed and activated; a
    /// forward kernel only its source mirrors (see [`SyncRoutes`]), and
    /// `replica_updates` counts what was refreshed.
    ///
    /// Messages are merged per target into `scratch`'s global-id slots,
    /// consuming the outputs in node order, so each target's combine order
    /// (node order, then each node's own output order) is exactly what it
    /// was before the routing table existed.  Every step after the merge is
    /// per-vertex independent: each merged message is applied at its master
    /// row, each changed master lands in its node's changed set, and the
    /// refresh walks those sets in ascending local order, copying the master
    /// row into every mirror row.  Any drain order therefore gives
    /// bit-identical values, counters and frontiers.
    fn synchronize<A>(
        &mut self,
        algorithm: &A,
        outputs: Vec<NodeComputeOutput<V, A::Msg>>,
        policy: SyncPolicy,
        iteration: usize,
        scratch: &mut SyncScratch<A::Msg>,
    ) -> SyncOutcome
    where
        A: GraphAlgorithm<V, E>,
    {
        let Self {
            nodes,
            routes,
            in_local,
            profile,
            network,
            ..
        } = self;
        let SyncScratch { merged, changed } = scratch;
        merged.begin();
        // 1. Merge all per-node messages by target vertex, remembering how
        //    many crossed a node boundary (those are the entities the global
        //    data queue would carry).  Outputs arrive in node order, so the
        //    per-target combine order is deterministic.
        let mut remote_messages = 0usize;
        for (node_id, output) in outputs.into_iter().enumerate() {
            for message in output.messages {
                if routes.owner[message.target as usize].0 as usize != node_id {
                    remote_messages += 1;
                }
                merged.merge(message.target, message.payload, |existing, payload| {
                    algorithm.msg_merge(existing, payload)
                });
            }
        }
        // 2. Apply merged messages at the master rows.
        for set in changed.iter_mut() {
            set.clear();
        }
        let mut applies = 0usize;
        for i in 0..merged.len() {
            let target = merged.touched_at(i);
            let Some(message) = merged.take(target) else {
                continue;
            };
            let (master, local) = routes.owner[target as usize];
            let row = nodes[master as usize].vertex_table_mut().row_at_mut(local);
            applies += 1;
            if algorithm.msg_apply_in_place(target, &mut row.attr, &message, iteration) {
                changed[master as usize].insert(local);
            }
        }
        let changed_vertices: usize = changed.iter().map(FrontierSet::len).sum();
        // 3. Decide whether the global synchronisation can be skipped: every
        //    changed vertex must have all of its out-edges on its master node
        //    (no source mirror) and no message may have crossed a node
        //    boundary.
        let reads_destination = algorithm.reads_destination_attribute();
        let skipped = policy == SyncPolicy::SkipWhenLocal
            && remote_messages == 0
            && changed.iter().enumerate().all(|(master, set)| {
                let node = &nodes[master];
                set.iter().all(|local| {
                    let v = node.vertex_table().global_of(local) as usize;
                    routes.nodes[master].of(local, true).is_empty()
                        && (!reads_destination || in_local[v])
                })
            });
        // 4. Refresh the mirrors of changed vertices (unless skipped) and
        //    build the next active frontier.  A forward kernel reads a
        //    replica only as the source of a local edge, so only the source
        //    mirrors are refreshed and activated for it; a mirror without a
        //    local out-edge has nothing to compute either way.
        let mut replica_updates = 0usize;
        for node in nodes.iter_mut() {
            node.clear_active();
        }
        for (master, set) in changed.iter().enumerate() {
            let mirrors = &routes.nodes[master];
            for local in set.iter() {
                nodes[master].activate_local(local);
                if skipped {
                    continue;
                }
                for &(part, replica_local) in mirrors.of(local, !reads_destination) {
                    let (replica, owner) = pair_mut(nodes, part as usize, master);
                    let row = replica.vertex_table_mut().row_at_mut(replica_local);
                    row.attr
                        .clone_from(&owner.vertex_table().row_at(local).attr);
                    replica.activate_local(replica_local);
                    replica_updates += 1;
                }
            }
        }
        // 5. Cost attribution.
        let apply_time = profile.per_apply * applies as f64;
        let time = if skipped {
            SimDuration::ZERO
        } else {
            let items = remote_messages + replica_updates;
            network.synchronization(nodes.len(), items) + profile.per_item_sync * items as f64
        };
        SyncOutcome {
            time,
            apply_time,
            remote_messages,
            replica_updates,
            skipped,
            changed_vertices,
        }
    }
}

/// The output of [`DenseMerge::drain`].
#[derive(Debug)]
pub struct Merged<M> {
    /// One message per target, in first-seen order, then the overflow.
    pub messages: Vec<AddressedMessage<M>>,
    /// How many of `messages` target a vertex not mastered on this node.
    pub remote: usize,
}

/// One node's per-target `MSGMerge` of one iteration, through pooled dense
/// slots keyed by the node's dense local ids: [`DenseMerge::begin`] resets
/// it, [`DenseMerge::fold`] combines messages as they come, and
/// [`DenseMerge::drain`] hands the result over, allocating nothing at steady
/// state beyond the drained vector.  The native compute phase and the
/// middleware's agents both merge through it.
#[derive(Debug)]
pub struct DenseMerge<M> {
    slots: DenseSlots<M>,
    /// Messages whose target has no local replica (a kernel may address any
    /// vertex), appended verbatim after the dense drain.
    overflow: Vec<AddressedMessage<M>>,
}

impl<M> Default for DenseMerge<M> {
    fn default() -> Self {
        Self {
            slots: DenseSlots::new(),
            overflow: Vec::new(),
        }
    }
}

impl<M> DenseMerge<M> {
    /// Starts an iteration over a node of `num_vertices` local vertices (an
    /// epoch bump, not a clear).
    pub fn begin(&mut self, num_vertices: usize) {
        self.slots.ensure_capacity(num_vertices);
        self.slots.begin();
        self.overflow.clear();
    }

    /// Folds `messages` in: targets are resolved to the node's dense local
    /// ids and combined in arrival order (`msg_merge(existing, incoming)`),
    /// so the per-target combine order is the order callers fold in.
    /// Targets without a local replica pass through to the overflow: the
    /// cluster's synchronisation folds them with the same left-to-right
    /// combine order either way.
    pub fn fold<V, E, A>(
        &mut self,
        node: &NodeState<V, E>,
        algorithm: &A,
        messages: impl IntoIterator<Item = AddressedMessage<M>>,
    ) where
        A: GraphAlgorithm<V, E, Msg = M>,
    {
        let table = node.vertex_table();
        for message in messages {
            match table.local_of(message.target) {
                Some(local) => self
                    .slots
                    .merge(local, message.payload, |existing, payload| {
                        algorithm.msg_merge(existing, payload)
                    }),
                None => self.overflow.push(message),
            }
        }
    }

    /// Drains the merged messages in first-seen target order, then the
    /// overflow, which counts as remote.
    pub fn drain<V, E>(&mut self, node: &NodeState<V, E>) -> Merged<M> {
        let table = node.vertex_table();
        let slots = &mut self.slots;
        let mut messages = Vec::with_capacity(slots.len() + self.overflow.len());
        let mut remote = self.overflow.len();
        for i in 0..slots.len() {
            let local = slots.touched_at(i);
            if let Some(payload) = slots.take(local) {
                remote += usize::from(!table.row_at(local).is_master);
                messages.push(AddressedMessage::new(table.global_of(local), payload));
            }
        }
        messages.append(&mut self.overflow);
        Merged { messages, remote }
    }
}

/// Active triplets the native compute phase fills and folds at a time.
const NATIVE_BLOCK: usize = 1_024;

/// The native (non-accelerated) compute phase of one node: `MSGGen` over the
/// active triplets and `MSGMerge` per target ([`DenseMerge`]), all at the
/// upper system's own per-edge cost.  The triplets stream through one
/// [`TripletBuffer`] a block at a time, in active-edge order, so the phase
/// holds one block of attribute copies, not one per active edge.
pub fn native_node_compute<V, E, A>(
    node: &mut NodeState<V, E>,
    algorithm: &A,
    profile: &RuntimeProfile,
    iteration: usize,
) -> NodeComputeOutput<V, A::Msg>
where
    V: Clone,
    E: Clone,
    A: GraphAlgorithm<V, E>,
{
    let edge_ids = node.active_edge_ids();
    let node = &*node;
    let sources_only = !algorithm.reads_destination_attribute();
    let mut block = TripletBuffer::new();
    let mut merge = DenseMerge::default();
    merge.begin(node.num_vertices());
    // One scratch sink for every triplet: drained after each kernel call, so
    // its capacity is reused and the loop allocates only when it grows.
    let mut generated = Vec::new();
    for block_ids in edge_ids.chunks(NATIVE_BLOCK) {
        let triplets = if sources_only {
            node.fill_triplet_sources(block_ids, &mut block)
        } else {
            node.fill_triplets(block_ids, &mut block)
        };
        for triplet in triplets {
            algorithm.msg_gen_into(triplet, iteration, &mut generated);
            merge.fold(node, algorithm, generated.drain(..));
        }
    }
    let compute_time =
        profile.native_compute_cost(edge_ids.len(), 0, algorithm.operational_intensity());
    NodeComputeOutput {
        compute_time,
        middleware_time: SimDuration::ZERO,
        triplets_processed: edge_ids.len(),
        messages: merge.drain(node).messages,
        vertex_type: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::AddressedMessage;
    use gxplug_graph::edge_list::EdgeList;
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, HashEdgePartitioner, Partitioner};
    use gxplug_graph::types::Triplet;

    /// Single-source shortest path by min-propagation (unit test algorithm).
    struct MinDist {
        source: VertexId,
    }

    impl GraphAlgorithm<f64, f64> for MinDist {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _out_degree: usize) -> f64 {
            if v == self.source {
                0.0
            } else {
                f64::INFINITY
            }
        }
        fn msg_gen_into(
            &self,
            triplet: &Triplet<f64, f64>,
            _iteration: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            if triplet.src_attr.is_finite() {
                out.push(AddressedMessage::new(
                    triplet.dst,
                    triplet.src_attr + triplet.edge_attr,
                ));
            }
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn msg_apply(
            &self,
            _vertex: VertexId,
            current: &f64,
            message: &f64,
            _iteration: usize,
        ) -> Option<f64> {
            (message < current).then_some(*message)
        }
        fn initial_active(&self, _num_vertices: usize) -> Option<Vec<VertexId>> {
            Some(vec![self.source])
        }
        fn name(&self) -> &'static str {
            "min-dist"
        }
    }

    fn line_graph(n: u32) -> PropertyGraph<f64, f64> {
        let list: EdgeList<f64> = (0..n - 1).map(|v| (v, v + 1, 1.0)).collect();
        PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap()
    }

    /// Per global id, the nodes of the vertex's source mirrors and of its
    /// other mirrors, as the routing table lists them.
    fn mirror_roles<V, E>(cluster: &Cluster<V, E>) -> Vec<(Vec<u32>, Vec<u32>)> {
        let nodes = |list: &[(u32, u32)]| list.iter().map(|&(node, _)| node).collect();
        cluster
            .routes
            .owner
            .iter()
            .map(|&(master, local)| {
                let csr = &cluster.routes.nodes[master as usize];
                let (all, sources) = (csr.of(local, false), csr.of(local, true));
                (nodes(sources), nodes(&all[sources.len()..]))
            })
            .collect()
    }

    /// [`mirror_roles`] derived from the node edge tables instead: a mirror
    /// is a source mirror exactly when its node holds an out-edge of it.
    fn mirror_roles_from_edges<V, E>(cluster: &Cluster<V, E>) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut roles = vec![(Vec::new(), Vec::new()); cluster.num_vertices];
        for (part, node) in cluster.nodes.iter().enumerate() {
            for row in node.vertex_table().rows().filter(|row| !row.is_master) {
                let source = node.edge_table().edges().iter().any(|e| e.src == row.id);
                let (sources, others) = &mut roles[row.id as usize];
                if source { sources } else { others }.push(part as u32);
            }
        }
        roles
    }

    /// Requires every source mirror row to equal its master row.
    fn assert_source_mirrors_fresh(cluster: &Cluster<f64, f64>) {
        for (v, &(master, local)) in cluster.routes.owner.iter().enumerate() {
            let value = cluster.nodes[master as usize]
                .vertex_table()
                .row_at(local)
                .attr;
            for &(part, replica) in cluster.routes.nodes[master as usize].of(local, true) {
                let row = cluster.nodes[part as usize].vertex_table().row_at(replica);
                assert_eq!(row.attr.to_bits(), value.to_bits(), "vertex {v} on {part}");
            }
        }
    }

    #[test]
    fn native_run_computes_correct_distances_across_nodes() {
        let graph = line_graph(32);
        let algorithm = MinDist { source: 0 };
        for parts in [1usize, 2, 4] {
            let partitioning = HashEdgePartitioner::new(3)
                .partition(&graph, parts)
                .unwrap();
            let mut cluster = Cluster::build(
                &graph,
                partitioning,
                &algorithm,
                RuntimeProfile::powergraph(),
                NetworkModel::datacenter(),
            );
            let report = cluster.run_native(&algorithm, "line", 100);
            assert!(report.converged, "did not converge with {parts} parts");
            let values = cluster.collect_values();
            for (v, value) in values.iter().enumerate() {
                assert_eq!(*value, v as f64, "vertex {v} with {parts} parts");
            }
            assert!(report.total_time() > SimDuration::ZERO);
        }
    }

    #[test]
    fn reset_cluster_reruns_bit_identically_to_a_fresh_one() {
        let graph = line_graph(24);
        let algorithm = MinDist { source: 0 };
        let partitioning = HashEdgePartitioner::new(3).partition(&graph, 3).unwrap();
        let mut reused = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let first = reused.run_native(&algorithm, "line", 100);
        reused.reset_for(&algorithm);
        let second = reused.run_native(&algorithm, "line", 100);
        let mut fresh = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let reference = fresh.run_native(&algorithm, "line", 100);
        assert_eq!(second.iterations, first.iterations);
        assert_eq!(second.iterations, reference.iterations);
        assert_eq!(reused.collect_values(), fresh.collect_values());
    }

    #[test]
    fn single_node_cluster_has_no_sync_cost() {
        let graph = line_graph(16);
        let algorithm = MinDist { source: 0 };
        let partitioning = HashEdgePartitioner::new(0).partition(&graph, 1).unwrap();
        let mut cluster = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let report = cluster.run_native(&algorithm, "line", 100);
        assert!(report.sync_time().is_zero());
        assert!(report.converged);
    }

    #[test]
    fn more_nodes_reduce_per_iteration_compute_time() {
        // A uniform random graph spread over more nodes means each node
        // processes fewer triplets, so the max-per-node compute time drops.
        use gxplug_graph::generators::{ErdosRenyi, Generator};
        let list = ErdosRenyi::new(400, 4000).generate(7);
        let graph = PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap();
        let algorithm = MinDist { source: 0 };
        let mut times = Vec::new();
        for parts in [1usize, 4] {
            let partitioning = GreedyVertexCutPartitioner::default()
                .partition(&graph, parts)
                .unwrap();
            let mut cluster = Cluster::build(
                &graph,
                partitioning,
                &algorithm,
                RuntimeProfile::powergraph(),
                NetworkModel::datacenter(),
            );
            let report = cluster.run_native(&algorithm, "er", 100);
            times.push(report.compute_time());
        }
        assert!(
            times[1] < times[0],
            "4 nodes {:?} should compute faster than 1 node {:?}",
            times[1],
            times[0]
        );
    }

    #[test]
    fn fanned_out_native_supersteps_match_serial_ones_and_spawn_workers_once() {
        // 20 000 edges: once the frontier has spread, supersteps carry more
        // active edges than the fan-out floor and run on parked workers.
        use gxplug_graph::generators::{ErdosRenyi, Generator};
        let list = ErdosRenyi::new(2_000, 20_000).generate(7);
        let graph = PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap();
        let algorithm = MinDist { source: 0 };
        let parts = 3;
        let build = || {
            Cluster::build(
                &graph,
                HashEdgePartitioner::new(3)
                    .partition(&graph, parts)
                    .unwrap(),
                &algorithm,
                RuntimeProfile::powergraph(),
                NetworkModel::datacenter(),
            )
        };
        let mut serial = build();
        let expected = serial.run_native_mode(&algorithm, "er", 100, ExecutionMode::Serial);
        assert!(
            expected
                .iterations
                .iter()
                .any(|i| i.triplets_processed >= floor_for(ExecutionMode::Threaded)),
            "the run must cross the fan-out floor"
        );

        let mut threaded = build();
        let profile = *threaded.profile();
        let (report, spawned) = thread::scope(|scope| {
            let floor = floor_for(ExecutionMode::Threaded);
            let mut phase =
                ParallelNodes::new(scope, floor, |node: &mut NodeState<f64, f64>, i| {
                    native_node_compute(node, &algorithm, &profile, i)
                });
            let report = into_ok(threaded.run_phased(
                &algorithm,
                "er",
                profile.name,
                100,
                SyncPolicy::AlwaysSync,
                SimDuration::ZERO,
                &mut phase,
            ));
            (report, phase.threads_spawned())
        });
        assert_eq!(report, expected);
        assert_eq!(threaded.collect_values(), serial.collect_values());
        assert_eq!(spawned, parts - 1, "one parked worker per lent node, once");
    }

    #[test]
    fn sync_skipping_is_reported_when_updates_stay_local() {
        // Two disconnected chains, partitioned so each chain is wholly on one
        // node (range partitioner keeps vertex ranges together): after the
        // frontier leaves the cut, every update stays local and syncs can be
        // skipped.
        let mut list: EdgeList<f64> = EdgeList::default();
        for v in 0..15u32 {
            list.push(v, v + 1, 1.0);
        }
        for v in 16..31u32 {
            list.push(v, v + 1, 1.0);
        }
        let graph = PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap();
        let algorithm = MinDist { source: 0 };
        let partitioning = gxplug_graph::partition::RangePartitioner
            .partition(&graph, 2)
            .unwrap();
        let mut cluster = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let profile = *cluster.profile();
        let report = cluster.run_custom(
            &algorithm,
            "chains",
            "PowerGraph+skip",
            100,
            SyncPolicy::SkipWhenLocal,
            SimDuration::ZERO,
            |node, iteration| native_node_compute(node, &algorithm, &profile, iteration),
        );
        assert!(report.converged);
        assert!(
            report.skipped_iterations() > 0,
            "expected at least one skipped synchronisation"
        );
        // Results are still correct.
        let values = cluster.collect_values();
        for v in 0..16u32 {
            assert_eq!(values[v as usize], v as f64);
        }
    }

    /// Connected-components style minimum label: labels travel both ways
    /// along every edge, so the algorithm reads destination attributes.
    struct MinLabel;

    impl GraphAlgorithm<f64, f64> for MinLabel {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _out_degree: usize) -> f64 {
            v as f64
        }
        fn msg_gen_into(
            &self,
            triplet: &Triplet<f64, f64>,
            _iteration: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            out.push(AddressedMessage::new(triplet.dst, triplet.src_attr));
            out.push(AddressedMessage::new(triplet.src, triplet.dst_attr));
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn msg_apply(
            &self,
            _vertex: VertexId,
            current: &f64,
            message: &f64,
            _iteration: usize,
        ) -> Option<f64> {
            (message < current).then_some(*message)
        }
        fn reads_destination_attribute(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "min-label"
        }
    }

    #[test]
    fn mutated_cluster_matches_rebuild_from_mutated_graph() {
        use gxplug_graph::mutate::{MutationBatch, MutationLog};

        /// Runs `algorithm` under both sync policies on a cluster mutated in
        /// place and on one rebuilt from the mutated graph, requiring equal
        /// per-superstep metrics and values; returns the values.
        fn compare<A: GraphAlgorithm<f64, f64>>(
            algorithm: &A,
            graph: &PropertyGraph<f64, f64>,
            partitioning: &Partitioning,
            delta: &gxplug_graph::mutate::ResolvedMutation<f64, f64>,
        ) -> Vec<f64> {
            let build = |graph: &PropertyGraph<f64, f64>, partitioning: &Partitioning| {
                Cluster::build(
                    graph,
                    partitioning.clone(),
                    algorithm,
                    RuntimeProfile::powergraph(),
                    NetworkModel::datacenter(),
                )
            };
            let mut mutated = build(graph, partitioning);
            mutated.run_native(algorithm, "line", 100);
            mutated.apply_mutations(delta);
            let mut reference_graph = graph.clone();
            reference_graph.apply_mutations(delta);
            let mut reference_partitioning = partitioning.clone();
            reference_partitioning.apply_mutations(delta);
            let mut rebuilt = build(&reference_graph, &reference_partitioning);
            // Each master's source-mirror split matches the rebuilt one's,
            // and both match the edge tables.
            assert_eq!(mirror_roles(&mutated), mirror_roles(&rebuilt));
            assert_eq!(mirror_roles(&rebuilt), mirror_roles_from_edges(&rebuilt));
            // Replica for replica: a retired mirror's row is gone.
            let rows = |cluster: &Cluster<f64, f64>| -> Vec<usize> {
                cluster
                    .nodes()
                    .iter()
                    .map(NodeState::num_vertices)
                    .collect()
            };
            assert_eq!(rows(&mutated), rows(&rebuilt));
            let profile = *rebuilt.profile();
            for policy in [SyncPolicy::AlwaysSync, SyncPolicy::SkipWhenLocal] {
                let run = |cluster: &mut Cluster<f64, f64>| {
                    cluster.reset_for(algorithm);
                    cluster.run_custom(
                        algorithm,
                        "line",
                        profile.name,
                        100,
                        policy,
                        SimDuration::ZERO,
                        |node, iteration| native_node_compute(node, algorithm, &profile, iteration),
                    )
                };
                let report = run(&mut mutated);
                let reference = run(&mut rebuilt);
                assert!(report.converged);
                assert_eq!(report.iterations, reference.iterations, "{policy:?}");
                assert_eq!(mutated.collect_values(), rebuilt.collect_values());
            }
            mutated.collect_values()
        }

        let graph = line_graph(24);
        let partitioning = HashEdgePartitioner::new(3).partition(&graph, 3).unwrap();
        // A backward edge u → w (shortens no distance) whose head w has no
        // replica yet on u's master part: the new edge lands there, so an
        // existing vertex gains a mirror.  w is not the source, so its value
        // changes and the new mirror must be refreshed.
        let (u, w) = (2..24u32)
            .flat_map(|u| (1..u).map(move |w| (u, w)))
            .find(|&(u, w)| {
                !partitioning
                    .part(partitioning.master_of(u))
                    .vertices
                    .contains(&w)
            })
            .expect("some existing vertex lacks a replica on another's master part");

        // Splice vertex 24 into the line behind 23, cut edge 10→11, bridge
        // the cut with a heavier 10→12 edge, and add the backward u → w.
        let endpoints: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut log: MutationLog<f64, f64> = MutationLog::new(graph.num_vertices(), endpoints);
        let batch = MutationBatch::new()
            .add_vertex(f64::INFINITY)
            .add_edge(23, 24, 1.0)
            .remove_edge(10)
            .add_edge(10, 12, 3.0)
            .add_edge(u, w, 1.0);
        let delta = log.append(&batch).unwrap();
        assert!(delta.has_removals());

        let values = compare(&MinDist { source: 0 }, &graph, &partitioning, &delta);
        assert_eq!(values.len(), 25);
        // The detour through the heavier bridge costs one extra hop's worth.
        assert_eq!(values[12], 13.0);
        assert_eq!(values[24], 25.0);
        assert_eq!(compare(&MinLabel, &graph, &partitioning, &delta).len(), 25);

        // A removal that strands a mirror: the only edge on some part that
        // touches a vertex not mastered there.  The replica retires with it.
        let (edge, stranded, part) = (graph.edges().iter().enumerate())
            .flat_map(|(id, edge)| [(id, edge.src), (id, edge.dst)])
            .find_map(|(id, v)| {
                let part = partitioning.part_of_edge(id);
                let touching = (partitioning.part(part).edges.iter())
                    .filter(|&&e| [graph.edge(e).src, graph.edge(e).dst].contains(&v))
                    .count();
                (partitioning.master_of(v) != part && touching == 1).then_some((id, v, part))
            })
            .expect("some mirror hangs on a single edge");
        let endpoints: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut log: MutationLog<f64, f64> = MutationLog::new(graph.num_vertices(), endpoints);
        let delta = log
            .append(&MutationBatch::new().remove_edge(edge).add_edge(u, w, 1.0))
            .unwrap();
        let mut retiring = partitioning.clone();
        retiring.apply_mutations(&delta);
        assert!(retiring
            .part(part)
            .vertices
            .binary_search(&stranded)
            .is_err());
        compare(&MinDist { source: 0 }, &graph, &partitioning, &delta);
        compare(&MinLabel, &graph, &partitioning, &delta);
        // The warm cluster drops the row, and its trimmed refresh matches a
        // cold run.
        let algorithm = MinDist { source: 0 };
        let mut warm = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        warm.run_native(&algorithm, "line", 100);
        warm.apply_mutations(&delta);
        assert!(!warm.node(part).vertex_table().contains(stranded));
        let mut cold = warm.clone();
        warm.seed_incremental(&algorithm, &delta.dirty_vertices(), &[]);
        warm.run_native(&algorithm, "line", 100);
        cold.reset_for(&algorithm);
        cold.run_native(&algorithm, "line", 100);
        assert_eq!(warm.collect_values(), cold.collect_values());

        // The same batch without the removal and its bridge.
        let endpoints: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut log: MutationLog<f64, f64> = MutationLog::new(graph.num_vertices(), endpoints);
        let batch = MutationBatch::new()
            .add_vertex(f64::INFINITY)
            .add_edge(23, 24, 1.0)
            .add_edge(u, w, 1.0);
        let delta = log.append(&batch).unwrap();
        assert!(!delta.has_removals());
        let values = compare(&MinDist { source: 0 }, &graph, &partitioning, &delta);
        assert_eq!(values[24], 24.0);
        assert_eq!(compare(&MinLabel, &graph, &partitioning, &delta).len(), 25);
    }

    /// One node's structure in global ids: per vertex (ascending) its
    /// master flag, out-degree and CSR run of local edge ids; per local edge
    /// its endpoints as the endpoint-local arrays resolve them; the probe
    /// order; and every vertex's global rank.
    type NodeView = (
        Vec<(VertexId, bool, Option<u32>, Vec<usize>)>,
        Vec<(VertexId, VertexId)>,
        Vec<VertexId>,
        Vec<(VertexId, u32)>,
    );

    /// Every node's view, every vertex's owner `(node, vertex)`, every
    /// vertex's mirror roles, and the in-edge locality flags.
    type ClusterView = (
        Vec<NodeView>,
        Vec<(u32, VertexId)>,
        Vec<(Vec<u32>, Vec<u32>)>,
        Vec<bool>,
    );

    fn node_view<V, E>(node: &NodeState<V, E>) -> NodeView {
        let table = node.vertex_table();
        let mut rows: Vec<_> = (table.rows())
            .map(|row| {
                let run = node.out_edge_ids(row.id).to_vec();
                assert!(
                    run.windows(2).all(|w| w[0] < w[1]),
                    "a CSR run out of order"
                );
                (row.id, row.is_master, node.out_degree_of(row.id), run)
            })
            .collect();
        rows.sort_unstable_by_key(|row| row.0);
        let endpoints = (0..node.num_edges())
            .map(|id| {
                let (src, dst) = node.edge_endpoint_locals(id);
                let ends = (table.global_of(src), table.global_of(dst));
                let edge = node.edge(id).unwrap();
                assert_eq!(ends, (edge.src, edge.dst), "edge {id}");
                ends
            })
            .collect();
        let probe = (node.probe_order().iter())
            .map(|&local| table.global_of(local))
            .collect();
        let mut ranks: Vec<_> = (node.global_rank().iter().enumerate())
            .map(|(local, &rank)| (table.global_of(local as u32), rank))
            .collect();
        ranks.sort_unstable();
        (rows, endpoints, probe, ranks)
    }

    /// The cluster's whole structure in global ids.
    fn global_view<V, E>(cluster: &Cluster<V, E>) -> ClusterView {
        let owners = (cluster.routes.owner.iter())
            .map(|&(node, local)| {
                (
                    node,
                    cluster.nodes[node as usize].vertex_table().global_of(local),
                )
            })
            .collect();
        (
            cluster.nodes.iter().map(node_view).collect(),
            owners,
            mirror_roles(cluster),
            cluster.in_local.clone(),
        )
    }

    #[test]
    fn many_insert_batches_then_a_retiring_one_leave_the_structure_of_a_rebuild() {
        use gxplug_graph::generators::{Generator, Rmat};
        use gxplug_graph::mutate::{MutationBatch, MutationLog};
        use gxplug_graph::partition::RangePartitioner;
        use gxplug_ipc::key::splitmix64;

        let graph =
            PropertyGraph::from_edge_list(Rmat::new(7, 4.0).generate(3), f64::INFINITY).unwrap();
        let algorithm = MinDist { source: 0 };
        let build = |graph: &PropertyGraph<f64, f64>, partitioning: &Partitioning| {
            Cluster::build(
                graph,
                partitioning.clone(),
                &algorithm,
                RuntimeProfile::powergraph(),
                NetworkModel::datacenter(),
            )
        };
        let partitionings = [
            HashEdgePartitioner::new(3).partition(&graph, 3).unwrap(),
            RangePartitioner.partition(&graph, 3).unwrap(),
            GreedyVertexCutPartitioner::default()
                .partition(&graph, 4)
                .unwrap(),
        ];
        for partitioning in partitionings {
            let mut mutated = build(&graph, &partitioning);
            mutated.run_native(&algorithm, "rmat", 100);
            let (mut reference_graph, mut reference_partitioning) =
                (graph.clone(), partitioning.clone());
            let endpoints: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
            let mut log: MutationLog<f64, f64> = MutationLog::new(graph.num_vertices(), endpoints);
            let mut apply = |batch: &MutationBatch<f64, f64>, mutated: &mut Cluster<f64, f64>| {
                let delta = log.append(batch).unwrap();
                mutated.apply_mutations(&delta);
                reference_graph.apply_mutations(&delta);
                reference_partitioning.apply_mutations(&delta);
                let rebuilt = build(&reference_graph, &reference_partitioning);
                assert_eq!(global_view(mutated), global_view(&rebuilt));
                delta
            };
            let mut rng = 7u64;
            let mut next = |bound: usize| {
                rng = splitmix64(rng);
                (rng % bound as u64) as VertexId
            };
            let mut inserted = 0;
            for round in 0..24 {
                let (vertices, edges) =
                    (mutated.num_vertices(), mutated.partitioning().num_edges());
                let mut batch = MutationBatch::new();
                // Every fourth batch grows the graph by a vertex that the
                // batch's edges reach both ways.
                let grown = round % 4 == 0;
                if grown {
                    batch = batch.add_vertex(f64::INFINITY);
                }
                let reach = vertices + usize::from(grown);
                for i in 0..8 {
                    batch = batch.add_edge(next(reach), next(reach), 1.0 + i as f64);
                }
                apply(&batch, &mut mutated);
                assert_eq!(mutated.partitioning().num_edges(), edges + 8);
                inserted += 8;
            }
            // A batch that reaches one node leaves every other node's CSR
            // and rank buffers where they were.
            let addresses = |cluster: &Cluster<f64, f64>| -> Vec<[*const u32; 3]> {
                (cluster.nodes.iter())
                    .map(|node| {
                        let first = node.vertex_table().global_of(0);
                        [
                            node.out_edge_ids(first).as_ptr().cast(),
                            node.probe_rank().as_ptr(),
                            node.global_rank().as_ptr(),
                        ]
                    })
                    .collect()
            };
            let (src, dst) = (next(mutated.num_vertices()), next(mutated.num_vertices()));
            let reached = mutated.partitioning().master_of(src);
            let before = addresses(&mutated);
            apply(&MutationBatch::new().add_edge(src, dst, 2.0), &mut mutated);
            inserted += 1;
            let after = addresses(&mutated);
            for node in (0..mutated.num_nodes()).filter(|&node| node != reached) {
                assert_eq!(before[node], after[node], "node {node} was rebuilt");
            }
            // The retiring batch: every inserted edge goes, some edges come.
            let edges = mutated.partitioning().num_edges();
            let mut batch = MutationBatch::new();
            for edge in edges - inserted..edges {
                batch = batch.remove_edge(edge);
            }
            for _ in 0..8 {
                let vertices = mutated.num_vertices();
                batch = batch.add_edge(next(vertices), next(vertices), 1.5);
            }
            let delta = apply(&batch, &mut mutated);
            assert!(delta.has_removals());
            // And the mutated cluster still runs like the rebuilt one.
            let mut rebuilt = build(&reference_graph, &reference_partitioning);
            mutated.reset_for(&algorithm);
            let report = mutated.run_native(&algorithm, "rmat", 100);
            let reference = rebuilt.run_native(&algorithm, "rmat", 100);
            assert_eq!(report.iterations, reference.iterations);
            assert_eq!(mutated.collect_values(), rebuilt.collect_values());
        }
    }

    #[test]
    fn a_destination_only_mirror_left_stale_stays_unread_through_an_insert_only_batch() {
        use gxplug_graph::mutate::{MutationBatch, MutationLog};
        let graph = line_graph(24);
        let algorithm = MinDist { source: 0 };
        let partitioning = HashEdgePartitioner::new(3).partition(&graph, 3).unwrap();
        let mut warm = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        warm.run_native(&algorithm, "line", 100);
        assert_source_mirrors_fresh(&warm);
        // A vertex whose destination-only mirror the forward run left stale:
        // its master moved from infinity to a distance, the mirror did not.
        let roles = mirror_roles(&warm);
        let (w, part) = (1..23u32)
            .find_map(|w| roles[w as usize].1.first().map(|&part| (w, part)))
            .expect("some vertex has a destination-only mirror");
        let stale =
            |cluster: &Cluster<f64, f64>| *cluster.node(part as usize).vertex_value(w).unwrap();
        assert_eq!(stale(&warm), f64::INFINITY);

        // Insert-only: give w a new out-edge, a shortcut to the far end of
        // the line.  It lands on w's master part, so the stale mirror stays
        // destination-only, and every source mirror still equals its master.
        let endpoints: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut log: MutationLog<f64, f64> = MutationLog::new(graph.num_vertices(), endpoints);
        let batch = MutationBatch::new().add_edge(w, 23, 1.0);
        let delta = log.append(&batch).unwrap();
        warm.apply_mutations(&delta);
        assert_source_mirrors_fresh(&warm);
        assert!(mirror_roles(&warm)[w as usize].1.contains(&part));
        assert_eq!(stale(&warm), f64::INFINITY);

        // The incremental rerun is bit-identical to a rebuilt cluster's run.
        warm.seed_incremental(&algorithm, &delta.dirty_vertices(), &[]);
        warm.run_native(&algorithm, "line", 100);
        assert_source_mirrors_fresh(&warm);
        let mut reference_graph = graph.clone();
        reference_graph.apply_mutations(&delta);
        let mut reference_partitioning = partitioning;
        reference_partitioning.apply_mutations(&delta);
        let mut rebuilt = Cluster::build(
            &reference_graph,
            reference_partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        rebuilt.run_native(&algorithm, "line", 100);
        let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(warm.collect_values()), bits(rebuilt.collect_values()));
        assert_eq!(warm.collect_values()[23], (w + 1) as f64);
    }

    #[test]
    fn incremental_seed_converges_to_full_recompute_on_insert_only_batch() {
        use gxplug_graph::mutate::{MutationBatch, MutationLog};
        let graph = line_graph(16);
        let algorithm = MinDist { source: 0 };
        let partitioning = HashEdgePartitioner::new(3).partition(&graph, 3).unwrap();
        let mut warm = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        warm.run_native(&algorithm, "line", 100);

        // Insert-only: extend the line and add a shortcut 2→9.
        let endpoints: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut log: MutationLog<f64, f64> = MutationLog::new(graph.num_vertices(), endpoints);
        let batch = MutationBatch::new()
            .add_vertex(f64::INFINITY)
            .add_edge(15, 16, 1.0)
            .add_edge(2, 9, 1.0);
        let delta = log.append(&batch).unwrap();

        let mut reference_graph = graph.clone();
        reference_graph.apply_mutations(&delta);
        let mut reference_partitioning = partitioning;
        reference_partitioning.apply_mutations(&delta);

        warm.apply_mutations(&delta);
        warm.seed_incremental(&algorithm, &delta.dirty_vertices(), &[16]);
        warm.run_native(&algorithm, "line", 100);

        let mut rebuilt = Cluster::build(
            &reference_graph,
            reference_partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        rebuilt.run_native(&algorithm, "line", 100);

        let values = warm.collect_values();
        assert_eq!(values, rebuilt.collect_values());
        // The shortcut pulls 9..=16 six hops closer.
        assert_eq!(values[9], 3.0);
        assert_eq!(values[16], 10.0);
    }

    #[test]
    fn run_report_counts_iterations_and_triplets() {
        let graph = line_graph(8);
        let algorithm = MinDist { source: 0 };
        let partitioning = HashEdgePartitioner::new(0).partition(&graph, 2).unwrap();
        let mut cluster = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::graphx(),
            NetworkModel::datacenter(),
        );
        let report = cluster.run_native(&algorithm, "line", 100);
        // The frontier walks the 7-edge line one hop per iteration.
        assert!(report.num_iterations() >= 7);
        assert_eq!(report.total_triplets(), 7);
        assert_eq!(report.system, "GraphX");
        assert_eq!(report.dataset, "line");
    }

    #[test]
    #[should_panic(expected = "an endpoint of a local edge is not a local vertex")]
    fn a_partitioning_of_a_same_sized_graph_with_other_edges_panics_at_build() {
        let graph = |edges: [(u32, u32, f64); 2]| -> PropertyGraph<f64, f64> {
            let list: EdgeList<f64> = edges.into_iter().collect();
            PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap()
        };
        let deployed = graph([(0, 1, 1.0), (2, 3, 1.0)]);
        let other = graph([(0, 2, 1.0), (1, 3, 1.0)]);
        // Part 0 lists vertices 0 and 2 only, yet is handed the deployed
        // graph's edge 0 -> 1.
        let partitioning = Partitioning::from_edge_assignment(&other, 2, vec![0, 1]).unwrap();
        Cluster::build(
            &deployed,
            partitioning,
            &MinDist { source: 0 },
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
    }
}
