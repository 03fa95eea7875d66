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
//! table, derived from the nodes' vertex tables at build and after every
//! mutation batch, names each vertex's master row `(node, local id)` and,
//! per master row, the `(node, local id)` of every mirror — GraphX's routing
//! table, laid out as a flat array plus one CSR per node.  Applying a message
//! and refreshing a replica are then array loads in ascending local order,
//! with no per-vertex heap list and no global → local lookup.

use crate::fanout::{fan_out, floor_for, settle, Lane};
use crate::metrics::{IterationMetrics, RunReport};
use crate::network::NetworkModel;
use crate::node::NodeState;
use crate::profile::RuntimeProfile;
use crate::template::{AddressedMessage, GraphAlgorithm};
use gxplug_accel::SimDuration;
use gxplug_graph::dense::{DenseSlots, FrontierSet};
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::partition::Partitioning;
use gxplug_graph::types::{Edge, PartitionId, VertexId};
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

/// [`SyncRoutes::owner`] of a vertex no node masters (a broken partitioning).
const NO_OWNER: (u32, u32) = (u32::MAX, u32::MAX);

/// The cluster's routing table over dense local ids: where each vertex's
/// master row lives, and where each master row's mirrors live.
///
/// Derived from the node vertex tables and their `is_master` flags alone (no
/// graph walk), so it is rebuilt in O(Σ locals) whenever they change.
#[derive(Debug, Clone)]
struct SyncRoutes {
    /// Indexed by global id: `(master node, local id on the master)`.
    owner: Vec<(u32, u32)>,
    /// Per node, a CSR over its locals: `mirrors[offsets[l]..offsets[l + 1]]`
    /// lists `(node, local id there)` for every non-master replica of the
    /// vertex at local `l` (empty unless `l` is a master row), ascending by
    /// node.
    nodes: Vec<MirrorCsr>,
}

/// One node's mirror lists (see [`SyncRoutes::nodes`]).
#[derive(Debug, Clone)]
struct MirrorCsr {
    offsets: Vec<u32>,
    mirrors: Vec<(u32, u32)>,
}

impl SyncRoutes {
    fn build<V, E>(nodes: &[NodeState<V, E>], num_vertices: usize) -> Self {
        let mut owner = vec![NO_OWNER; num_vertices];
        for (node_id, node) in nodes.iter().enumerate() {
            for (local, row) in node.vertex_table().rows().enumerate() {
                if row.is_master {
                    owner[row.id as usize] = (node_id as u32, local as u32);
                }
            }
        }
        // Every mirror row as `(master local, (node, local))`, grouped by
        // master node, in node order then local order.
        let mut found: Vec<Vec<(u32, (u32, u32))>> = vec![Vec::new(); nodes.len()];
        for (node_id, node) in nodes.iter().enumerate() {
            for (local, row) in node.vertex_table().rows().enumerate() {
                let (master, master_local) = owner[row.id as usize];
                if !row.is_master && master != NO_OWNER.0 {
                    found[master as usize].push((master_local, (node_id as u32, local as u32)));
                }
            }
        }
        let csrs = found
            .into_iter()
            .zip(nodes)
            .map(|(found, node)| {
                // Counting sort by master local: stable, so each list keeps
                // node order.
                let mut offsets = vec![0u32; node.num_vertices() + 1];
                for &(local, _) in &found {
                    offsets[local as usize + 1] += 1;
                }
                for i in 1..offsets.len() {
                    offsets[i] += offsets[i - 1];
                }
                let mut cursor = offsets.clone();
                let mut mirrors = vec![(0, 0); found.len()];
                for (local, mirror) in found {
                    mirrors[cursor[local as usize] as usize] = mirror;
                    cursor[local as usize] += 1;
                }
                MirrorCsr { offsets, mirrors }
            })
            .collect();
        Self { owner, nodes: csrs }
    }
}

impl MirrorCsr {
    /// The mirrors of the master row at `local`.
    #[inline]
    fn of(&self, local: u32) -> &[(u32, u32)] {
        let local = local as usize;
        &self.mirrors[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

/// Clears `out_local[src]` / `in_local[dst]` for every placed `(part, edge)`
/// whose part is not that endpoint's master part.
fn record_edge_placement<'a, E: 'a>(
    out_local: &mut [bool],
    in_local: &mut [bool],
    partitioning: &Partitioning,
    placed: impl IntoIterator<Item = (PartitionId, &'a Edge<E>)>,
) {
    for (part, edge) in placed {
        out_local[edge.src as usize] &= part == partitioning.master_of(edge.src);
        in_local[edge.dst as usize] &= part == partitioning.master_of(edge.dst);
    }
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
    /// For every vertex, whether all of its out-edges lie on its master part.
    out_local: Vec<bool>,
    /// For every vertex, whether all of its in-edges lie on its master part.
    in_local: Vec<bool>,
    profile: RuntimeProfile,
    network: NetworkModel,
    num_vertices: usize,
}

impl<V, E> Cluster<V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    /// Builds a cluster from a graph, a partitioning, and the algorithm whose
    /// `init_vertex` seeds the vertex tables.
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
        let mut out_local = vec![true; num_vertices];
        let mut in_local = vec![true; num_vertices];
        record_edge_placement(
            &mut out_local,
            &mut in_local,
            &partitioning,
            graph
                .edges()
                .iter()
                .enumerate()
                .map(|(edge_id, edge)| (partitioning.part_of_edge(edge_id), edge)),
        );
        Self {
            nodes,
            partitioning: Arc::new(partitioning),
            routes,
            out_local,
            in_local,
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
    }

    /// Applies one resolved mutation batch in place, touching only the
    /// shards the batch reaches.
    ///
    /// The cluster's own copy of the partitioning is extended (new vertices
    /// master like isolated ones, new edges land on their source's master
    /// part), each touched node compacts/appends its edge table and rebuilds
    /// its local CSR, new replicas are upserted — new vertices with their
    /// op-supplied attribute, new replicas of existing vertices with a copy
    /// of their master's *current* value, so warm state survives for
    /// incremental recompute — and per-vertex out-degrees absorb the batch's
    /// degree deltas on every node holding the vertex.  The routing table is
    /// rebuilt from the grown vertex tables (O(Σ locals)); the edge-locality
    /// flags are narrowed incrementally for insert-only batches and
    /// recomputed exactly after removals, so the synchronisation-skipping
    /// decision matches a cluster rebuilt from the mutated graph bit for bit.
    ///
    /// Batches must apply in log order, exactly once; afterwards the cluster
    /// is structurally identical to one built from the mutated graph with
    /// the same extended partitioning (local id assignment may differ, which
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
        for &(edge_id, _, _) in &delta.removed_edges {
            let part = self.partitioning.part_of_edge(edge_id);
            let position = self
                .partitioning
                .part(part)
                .edges
                .binary_search(&edge_id)
                .expect("partitioning must list every assigned edge");
            remove_positions[part].push(position);
        }
        Arc::make_mut(&mut self.partitioning).apply_mutations(delta);
        // Added edges per part, aligned with the ids the partitioning just
        // assigned (base + i for the i-th added edge).
        let base = delta.prior_num_edges - delta.removed_edges.len();
        let mut add_edges: Vec<Vec<Edge<E>>> = vec![Vec::new(); num_parts];
        for (i, edge) in delta.added_edges.iter().enumerate() {
            let part = self.partitioning.part_of_edge(base + i);
            add_edges[part].push(edge.clone());
        }
        // Global out-degree deltas of the batch, keyed ascending.
        let mut deltas: std::collections::BTreeMap<VertexId, i64> =
            std::collections::BTreeMap::new();
        for &(_, src, _) in &delta.removed_edges {
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
        for (part, node) in self.nodes.iter_mut().enumerate() {
            node.apply_mutations(
                &remove_positions[part],
                &add_edges[part],
                std::mem::take(&mut upserts[part]),
                &degree_adjust,
                &delta.detached,
            );
        }
        // Edge-locality flags: inserts can only narrow them; a removal can
        // widen one, so removals recompute them from the node edge tables.
        if delta.has_removals() {
            self.out_local = vec![true; self.num_vertices];
            self.in_local = vec![true; self.num_vertices];
            record_edge_placement(
                &mut self.out_local,
                &mut self.in_local,
                &self.partitioning,
                self.nodes.iter().enumerate().flat_map(|(part, node)| {
                    node.edge_table()
                        .edges()
                        .iter()
                        .map(move |edge| (part, edge))
                }),
            );
        } else {
            self.out_local.resize(self.num_vertices, true);
            self.in_local.resize(self.num_vertices, true);
            record_edge_placement(
                &mut self.out_local,
                &mut self.in_local,
                &self.partitioning,
                delta
                    .added_edges
                    .iter()
                    .enumerate()
                    .map(|(i, edge)| (self.partitioning.part_of_edge(base + i), edge)),
            );
        }
        self.routes = SyncRoutes::build(&self.nodes, self.num_vertices);
    }

    /// Seeds the cluster for an *incremental* recompute of `algorithm`: the
    /// warm converged vertex values stay in place, vertices in `reinit`
    /// (added since the warm run) are re-initialised through the template,
    /// and the active frontier is replaced everywhere by `seed` — the dirty
    /// vertices of the mutations applied since the warm run.  The algorithm
    /// must have declared the seed sound via its `rescope` hook.
    pub fn seed_incremental<A>(&mut self, algorithm: &A, seed: &[VertexId], reinit: &[VertexId])
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        for node in &mut self.nodes {
            node.seed_incremental(algorithm, seed, reinit);
        }
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

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: PartitionId) -> &mut NodeState<V, E> {
        &mut self.nodes[id]
    }

    /// Iterates immutably over all nodes.
    pub fn nodes(&self) -> &[NodeState<V, E>] {
        &self.nodes
    }

    /// Total number of active vertices across the cluster.
    pub fn total_active(&self) -> usize {
        self.nodes.iter().map(|n| n.active_count()).sum()
    }

    /// Total number of edges whose source vertex is active across the cluster
    /// — the data volume `D` the workload balancer reasons about.
    pub fn total_active_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.active_edge_count()).sum()
    }

    /// Collects the converged vertex values from the master copies.
    ///
    /// # Panics
    /// Panics if some vertex has no master copy (which would indicate a
    /// broken partitioning).
    pub fn collect_values(&self) -> Vec<V> {
        self.routes
            .owner
            .iter()
            .enumerate()
            .map(|(v, &(node, local))| {
                self.nodes
                    .get(node as usize)
                    .unwrap_or_else(|| panic!("vertex {v} has no master copy"))
                    .vertex_table()
                    .row_at(local)
                    .attr
                    .clone()
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
    /// table's dense local ids.
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
            out_local,
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
            match algorithm.msg_apply(target, &row.attr, &message, iteration) {
                Some(new_value) if new_value != row.attr => {
                    row.attr = new_value;
                    row.dirty = true;
                    changed[master as usize].insert(local);
                }
                _ => {}
            }
        }
        let changed_vertices: usize = changed.iter().map(FrontierSet::len).sum();
        // 3. Decide whether the global synchronisation can be skipped: every
        //    changed vertex must have all of its out-edges on its master node
        //    and no message may have crossed a node boundary.
        let needs_in_edges_local = algorithm.reads_destination_attribute();
        let skipped = policy == SyncPolicy::SkipWhenLocal
            && remote_messages == 0
            && changed.iter().zip(nodes.iter()).all(|(set, node)| {
                set.iter().all(|local| {
                    let v = node.vertex_table().global_of(local) as usize;
                    out_local[v] && (!needs_in_edges_local || in_local[v])
                })
            });
        // 4. Refresh the mirrors of changed vertices (unless skipped) and
        //    build the next active frontier.
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
                for &(part, replica_local) in mirrors.of(local) {
                    let (replica, owner) = pair_mut(nodes, part as usize, master);
                    let row = replica.vertex_table_mut().row_at_mut(replica_local);
                    row.attr
                        .clone_from(&owner.vertex_table().row_at(local).attr);
                    row.dirty = true;
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

/// The native (non-accelerated) compute phase of one node: `MSGGen` over the
/// active triplets and `MSGMerge` per target, all at the upper system's own
/// per-edge cost.
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
    let triplets = node.active_triplets();
    // Merge per target into dense slots keyed by local id; targets without a
    // local replica (never produced by a sound partitioning) fall through to
    // the overflow list.  Merging is commutative only in arrival order, which
    // is the triplet order either way; the output order is per-vertex
    // independent downstream, so first-seen drain order is safe.
    let mut merged: DenseSlots<A::Msg> = DenseSlots::with_capacity(node.num_vertices());
    merged.begin();
    let mut overflow: Vec<AddressedMessage<A::Msg>> = Vec::new();
    // One scratch sink for every triplet: drained after each kernel call, so
    // its capacity is reused and the loop allocates only when it grows.
    let mut generated: Vec<AddressedMessage<A::Msg>> = Vec::new();
    for triplet in &triplets {
        algorithm.msg_gen_into(triplet, iteration, &mut generated);
        for message in generated.drain(..) {
            match node.vertex_table().local_of(message.target) {
                Some(local) => merged.merge(local, message.payload, |existing, payload| {
                    algorithm.msg_merge(existing, payload)
                }),
                None => overflow.push(message),
            }
        }
    }
    let mut messages: Vec<AddressedMessage<A::Msg>> = Vec::with_capacity(merged.len());
    for i in 0..merged.len() {
        let local = merged.touched_at(i);
        if let Some(payload) = merged.take(local) {
            messages.push(AddressedMessage::new(
                node.vertex_table().global_of(local),
                payload,
            ));
        }
    }
    messages.extend(overflow);
    let compute_time =
        profile.native_compute_cost(triplets.len(), 0, algorithm.operational_intensity());
    NodeComputeOutput {
        compute_time,
        middleware_time: SimDuration::ZERO,
        triplets_processed: triplets.len(),
        messages,
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

        let values = compare(&MinDist { source: 0 }, &graph, &partitioning, &delta);
        assert_eq!(values.len(), 25);
        // The detour through the heavier bridge costs one extra hop's worth.
        assert_eq!(values[12], 13.0);
        assert_eq!(values[24], 25.0);
        assert_eq!(compare(&MinLabel, &graph, &partitioning, &delta).len(), 25);
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
        warm.seed_incremental(&algorithm, delta.dirty_vertices(), &[16]);
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
}
