//! Per-distributed-node state.
//!
//! A [`NodeState`] is the local view one distributed node of the upper system
//! holds: its partition's vertex table and edge table (§II-B), the paper's
//! vertex-edge mapping table realised as a per-node [`Csr`] over **dense local
//! ids**, plus the set of vertices that are *active* for the next iteration.
//! Both the native execution paths and the middleware's agents operate on this
//! state.
//!
//! A node is built one way: [`NodeState::build`] starts from an empty node
//! and applies the whole part as one all-inserts
//! [`NodeState::apply_mutations`], the same step every later mutation batch
//! takes — so a mutated node equals a rebuilt one by construction.  That
//! step requires both endpoints of every local edge to be local vertices,
//! which [`PartInfo::vertices`] guarantees for a partitioning of the graph
//! the edges come from.
//!
//! The data path is hash-free at steady state: the vertex table assigns every
//! global id a dense local id once, edges carry their endpoints' local ids,
//! the frontier is an epoch-stamped [`FrontierSet`] bitset, and active-edge
//! enumeration walks contiguous CSR slices — every hot-path lookup is an
//! array load, and every iteration order is ascending by construction.
//!
//! [`PartInfo::vertices`]: gxplug_graph::partition::PartInfo::vertices

use crate::template::GraphAlgorithm;
use gxplug_graph::csr::Csr;
use gxplug_graph::dense::FrontierSet;
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::partition::Partitioning;
use gxplug_graph::tables::{self, EdgeTable, VertexTable};
use gxplug_graph::types::{Edge, EdgeId, PartitionId, Triplet, VertexId};
use gxplug_graph::view::TripletBuffer;
use gxplug_ipc::key::splitmix64;

/// The middleware's synchronization-cache probe order of a vertex: probes
/// decide LRU evictions, so a fixed total order (independent of how a working
/// set was gathered) is what makes the cache counters reproducible.  The
/// order is scrambled by a fixed mix rather than ascending because a strict
/// sequential scan is LRU's worst case — it would evict every entry just
/// before re-probing it.
fn probe_key(global: VertexId) -> (u64, VertexId) {
    (splitmix64(global as u64), global)
}

/// Merges the locals `order.len()..locals`, appended since the last call,
/// into `order` — every local sorted by a distinct `key` — and updates
/// `rank`, the inverse permutation.  Keys are computed for the new locals and
/// for the old ones a binary search probes, never for every local: the new
/// ones are sorted, each finds its place by bisection, and one backward pass
/// inserts them all ([`tables::insert_at_positions`]).  The ranks are
/// rewritten from the lowest insertion on.  Building an order is the all-new
/// case.
fn merge_new_locals<K: Ord>(
    order: &mut Vec<u32>,
    rank: &mut Vec<u32>,
    locals: usize,
    key: impl Fn(u32) -> K,
) {
    let old = order.len();
    if locals <= old {
        return;
    }
    let mut fresh: Vec<(K, u32)> = (old as u32..locals as u32)
        .map(|local| (key(local), local))
        .collect();
    fresh.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let placed: Vec<(usize, u32)> = (fresh.into_iter())
        .map(|(new_key, local)| (order.partition_point(|&l| key(l) < new_key), local))
        .collect();
    let lowest = placed[0].0;
    tables::insert_at_positions(order, placed.into_iter());
    rank.resize(locals, 0);
    for (position, &local) in order.iter().enumerate().skip(lowest) {
        rank[local as usize] = position as u32;
    }
}

/// Compacts `order` (locals in some key order) and its inverse `rank`
/// through `remap` (old local → new local, [`DROPPED`] for a dropped row):
/// the survivors keep their relative order, so no key is recomputed.
fn compact_order(order: &mut Vec<u32>, rank: &mut Vec<u32>, remap: &[u32]) {
    order.retain_mut(|local| {
        *local = remap[*local as usize];
        *local != DROPPED
    });
    rank.truncate(order.len());
    for (position, &local) in order.iter().enumerate() {
        rank[local as usize] = position as u32;
    }
}

/// [`compact_order`]'s mark for a dropped row.
const DROPPED: u32 = u32::MAX;

/// The state of one distributed node.
#[derive(Debug, Clone)]
pub struct NodeState<V, E> {
    id: PartitionId,
    vertex_table: VertexTable<V>,
    edge_table: EdgeTable<E>,
    /// Out-edge CSR over dense local vertex ids; its edge ids are the edge
    /// table's.
    csr: Csr,
    /// Per-edge source local id.
    edge_src_local: Vec<u32>,
    /// Per-edge destination local id.
    edge_dst_local: Vec<u32>,
    /// The active frontier, over dense local vertex ids.
    active: FrontierSet,
    /// Reusable scratch marking the active *edges* of the current superstep,
    /// over local edge ids — its ascending word scan is what makes
    /// [`NodeState::active_edge_ids_into`] sorted without sorting.
    active_edges: FrontierSet,
    /// Global out-degree of every local vertex (indexed by local id), captured
    /// at build time so the node can re-seed itself for a new algorithm
    /// without the graph.
    out_degrees: Vec<u32>,
    /// Locals in synchronization-cache probe order (see [`probe_key`]).
    probe_order: Vec<u32>,
    /// Every local's position in `probe_order`, indexed by local id.
    probe_rank: Vec<u32>,
    /// Locals ascending by global id.
    global_order: Vec<u32>,
    /// Every local's position in `global_order`: the cache's recency
    /// tie-break.
    global_rank: Vec<u32>,
}

/// An empty node: no vertices, no edges, nothing active.  It is where
/// [`NodeState::build`] starts, and what `std::mem::take` leaves in a
/// cluster's node slot while the real state is lent by value to a parked
/// worker for one superstep ([`fanout`](crate::fanout)).
impl<V, E> Default for NodeState<V, E> {
    fn default() -> Self {
        Self {
            id: 0,
            vertex_table: VertexTable::new(),
            edge_table: EdgeTable::new(),
            csr: Csr::default(),
            edge_src_local: Vec::new(),
            edge_dst_local: Vec::new(),
            active: FrontierSet::default(),
            active_edges: FrontierSet::default(),
            out_degrees: Vec::new(),
            probe_order: Vec::new(),
            probe_rank: Vec::new(),
            global_order: Vec::new(),
            global_rank: Vec::new(),
        }
    }
}

impl<V: Clone, E: Clone> NodeState<V, E> {
    /// Builds the node state for partition `id` of a partitioned graph: an
    /// empty node, one all-inserts [`NodeState::apply_mutations`] that
    /// upserts the part's vertices — each initialised through the algorithm
    /// template once — and moves in the part's edges, then the frontier
    /// `algorithm` starts from.
    ///
    /// # Panics
    /// Panics with "an endpoint of a local edge is not a local vertex" if
    /// some edge of the part has an endpoint the part does not list — a
    /// partitioning of another graph.
    pub fn build<A>(
        id: PartitionId,
        graph: &PropertyGraph<V, E>,
        partitioning: &Partitioning,
        algorithm: &A,
    ) -> Self
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        let part = partitioning.part(id);
        let upserts = (part.vertices.iter())
            .map(|&v| {
                let degree = graph.out_degree(v);
                let attr = algorithm.init_vertex(v, degree);
                (v, attr, partitioning.master_of(v) == id, degree as u32)
            })
            .collect();
        let edges = (part.edges.iter())
            .map(|&edge_id| graph.edge(edge_id).clone())
            .collect();
        let mut node = Self {
            id,
            ..Self::default()
        };
        node.apply_mutations(&[], edges, &[], upserts, &[], &[]);
        node.seed_frontier(algorithm, graph.num_vertices());
        node
    }

    /// Re-seeds the vertex attributes and the active frontier for a fresh run
    /// of `algorithm`, keeping the structural state (edge table, CSR, local id
    /// assignment, master flags) untouched.  `num_global_vertices` is the size
    /// of the global vertex space (the argument `initial_active` expects).
    ///
    /// After a reset the node equals one freshly built for the same
    /// algorithm — this is what lets a deployed session serve many runs
    /// without rebuilding its cluster.
    pub fn reset_for<A>(&mut self, algorithm: &A, num_global_vertices: usize)
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        for local in 0..self.vertex_table.len() as u32 {
            let v = self.vertex_table.global_of(local);
            let degree = self.out_degrees[local as usize] as usize;
            self.vertex_table.row_at_mut(local).attr = algorithm.init_vertex(v, degree);
        }
        self.seed_frontier(algorithm, num_global_vertices);
    }

    /// Replaces the frontier with the one `algorithm` starts from: its
    /// `initial_active` vertices held here, or every local.
    fn seed_frontier<A>(&mut self, algorithm: &A, num_global_vertices: usize)
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        match algorithm.initial_active(num_global_vertices) {
            Some(seed) => {
                self.active.clear();
                for v in seed {
                    self.activate(v);
                }
            }
            None => self.active.activate_all(),
        }
    }

    /// Applies one node's share of a mutation batch in place: local edges at
    /// `remove_positions` (ascending local ids) compact out, `add_edges`
    /// move in at the end (keeping the table aligned, position for position,
    /// with the partitioning's global edge-id list), the rows of `dropped`
    /// (ascending global ids: retired mirrors, which no local edge touches
    /// any more) go and the surviving locals compact, `upserts` grow the
    /// vertex table with new dense local ids `(id, attr, is_master,
    /// out_degree)`, `degree_adjust` folds global out-degree deltas into the
    /// locally held vertices, and `detached` resets attributes in place.
    ///
    /// What it costs depends on what the batch brings here:
    /// * nothing but degree deltas and detaches (a node the batch does not
    ///   reach): one lookup per delta, and no buffer moves;
    /// * inserts only: the new edges' endpoint locals are appended and each
    ///   new edge id goes to the tail of its source's CSR run
    ///   ([`Csr::append_edges`]: one pass that shifts the runs above the
    ///   lowest touched source); the new locals' keys are computed, sorted
    ///   and placed into the probe and global-id orders by binary search,
    ///   and the ranks are rewritten from the lowest placement on;
    /// * removals: linear passes.  The edge arrays compact, dropped rows
    ///   compact the locals and both orders through the retain mapping (no
    ///   key is recomputed, nothing re-sorted), and the surviving edges are
    ///   re-indexed through the same CSR append, from empty.
    ///
    /// The frontier itself is cleared: the caller re-seeds it through
    /// [`NodeState::reset_for`] or [`NodeState::seed_incremental`] before
    /// the next run.
    ///
    /// # Panics
    /// Panics if an endpoint of a local edge is not a local vertex after the
    /// batch.
    pub fn apply_mutations(
        &mut self,
        remove_positions: &[usize],
        add_edges: Vec<Edge<E>>,
        dropped: &[VertexId],
        upserts: Vec<(VertexId, V, bool, u32)>,
        degree_adjust: &[(VertexId, i64)],
        detached: &[(VertexId, V)],
    ) {
        self.active.clear();
        let removes = !remove_positions.is_empty() || !dropped.is_empty();
        if removes {
            self.edge_table.remove_positions(remove_positions);
            tables::remove_positions(&mut self.edge_src_local, remove_positions);
            tables::remove_positions(&mut self.edge_dst_local, remove_positions);
            if !dropped.is_empty() {
                self.drop_rows(dropped);
            }
            // The survivors are re-indexed below, with the added edges.
            self.csr = Csr::default();
        }
        for &(v, delta) in degree_adjust {
            if let Some(local) = self.vertex_table.local_of(v) {
                let degree = &mut self.out_degrees[local as usize];
                *degree = (*degree as i64 + delta).max(0) as u32;
            }
        }
        if !removes && add_edges.is_empty() && upserts.is_empty() {
            self.reset_detached(detached);
            return;
        }
        self.vertex_table.reserve(upserts.len());
        self.out_degrees.reserve(upserts.len());
        for (v, attr, is_master, degree) in upserts {
            if self.vertex_table.upsert(v, attr, is_master) {
                self.out_degrees.push(degree);
            }
        }
        self.reset_detached(detached);
        let num_locals = self.vertex_table.len();
        let table = &self.vertex_table;
        merge_new_locals(
            &mut self.probe_order,
            &mut self.probe_rank,
            num_locals,
            |local| probe_key(table.global_of(local)),
        );
        merge_new_locals(
            &mut self.global_order,
            &mut self.global_rank,
            num_locals,
            |local| table.global_of(local),
        );
        let local_of =
            |v| (table.local_of(v)).expect("an endpoint of a local edge is not a local vertex");
        self.edge_src_local
            .extend(add_edges.iter().map(|e| local_of(e.src)));
        self.edge_dst_local
            .extend(add_edges.iter().map(|e| local_of(e.dst)));
        self.edge_table.append(add_edges);
        let indexed = self.csr.num_edges();
        self.csr.append_edges(
            num_locals,
            (self.edge_src_local[indexed..].iter().copied())
                .zip(self.edge_dst_local[indexed..].iter().copied()),
        );
        self.active.ensure_capacity(num_locals);
        self.active_edges.ensure_capacity(self.edge_table.len());
    }

    /// Resets the attributes of the `detached` vertices held here.
    fn reset_detached(&mut self, detached: &[(VertexId, V)]) {
        for (v, attr) in detached {
            if let Some(row) = self.vertex_table.get_mut(*v) {
                row.attr = attr.clone();
            }
        }
    }

    /// Drops the rows of `dropped` (ascending global ids, touched by no
    /// local edge): the surviving locals compact in their order, and every
    /// structure indexed by local id follows through one retain mapping.
    /// The CSR is left for the caller to re-index.
    fn drop_rows(&mut self, dropped: &[VertexId]) {
        let mut remap = Vec::with_capacity(self.vertex_table.len());
        let mut kept = 0;
        for v in self.vertex_table.ids() {
            if dropped.binary_search(&v).is_ok() {
                remap.push(DROPPED);
            } else {
                remap.push(kept);
                kept += 1;
            }
        }
        // `retain` visits each element once, in order.
        let (mut degrees, mut rows) = (remap.iter(), remap.iter());
        self.out_degrees
            .retain(|_| degrees.next() != Some(&DROPPED));
        self.vertex_table.retain(|_| rows.next() != Some(&DROPPED));
        for local in self
            .edge_src_local
            .iter_mut()
            .chain(&mut self.edge_dst_local)
        {
            *local = remap[*local as usize];
            assert_ne!(
                *local, DROPPED,
                "an endpoint of a local edge is not a local vertex"
            );
        }
        compact_order(&mut self.probe_order, &mut self.probe_rank, &remap);
        compact_order(&mut self.global_order, &mut self.global_rank, &remap);
        // `activate_all` fills a frontier's whole capacity, which must not
        // outgrow the compacted locals.
        self.active = FrontierSet::new(self.vertex_table.len());
    }

    /// Seeds the node for an *incremental* recompute: vertices in `reinit`
    /// (those added since the warm state) are re-initialised through the
    /// algorithm template, every other row keeps its warm converged value,
    /// and the frontier is replaced by the `seed` set — the dirty vertices
    /// of the mutations since the warm run.
    pub fn seed_incremental<A>(&mut self, algorithm: &A, seed: &[VertexId], reinit: &[VertexId])
    where
        A: GraphAlgorithm<V, E> + ?Sized,
    {
        for &v in reinit {
            if let Some(local) = self.vertex_table.local_of(v) {
                let degree = self.out_degrees[local as usize] as usize;
                let attr = algorithm.init_vertex(v, degree);
                self.vertex_table.row_at_mut(local).attr = attr;
            }
        }
        self.active.clear();
        for &v in seed {
            self.activate(v);
        }
    }
}

impl<V, E> NodeState<V, E> {
    /// The partition / distributed node id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Number of local vertex replicas.
    pub fn num_vertices(&self) -> usize {
        self.vertex_table.len()
    }

    /// Number of local edges.
    pub fn num_edges(&self) -> usize {
        self.edge_table.len()
    }

    /// The node's vertex table.
    pub fn vertex_table(&self) -> &VertexTable<V> {
        &self.vertex_table
    }

    /// Mutable access to the node's vertex table.
    pub fn vertex_table_mut(&mut self) -> &mut VertexTable<V> {
        &mut self.vertex_table
    }

    /// The node's edge table.
    pub fn edge_table(&self) -> &EdgeTable<E> {
        &self.edge_table
    }

    /// Out-edge local ids of `v` — the paper's vertex-edge mapping table,
    /// served as a contiguous CSR slice (empty if `v` has no local out-edges
    /// or is not local).
    pub fn out_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        match self.vertex_table.local_of(v) {
            Some(local) => self.csr.edge_ids(local),
            None => &[],
        }
    }

    /// Every local id, in the middleware's synchronization-cache probe order:
    /// ascending `(splitmix64(global), global)`.  Computed at build, merged
    /// on growth by [`NodeState::apply_mutations`], never sorted per
    /// superstep.
    pub fn probe_order(&self) -> &[u32] {
        &self.probe_order
    }

    /// The position of every local id in [`NodeState::probe_order`], indexed
    /// by local id.
    pub fn probe_rank(&self) -> &[u32] {
        &self.probe_rank
    }

    /// The rank of every local id among the node's locals sorted by global
    /// id, indexed by local id: compares like the global ids, but stays below
    /// [`NodeState::num_vertices`].
    pub fn global_rank(&self) -> &[u32] {
        &self.global_rank
    }

    /// The dense local ids `(src, dst)` of local edge `id`'s endpoints.
    ///
    /// # Panics
    /// Panics if `id` is not a local edge id.
    #[inline]
    pub fn edge_endpoint_locals(&self, id: EdgeId) -> (u32, u32) {
        (self.edge_src_local[id], self.edge_dst_local[id])
    }

    /// The out-edges stored on this node of the vertex at dense local id
    /// `local`.
    pub(crate) fn local_out_edges(&self, local: u32) -> impl Iterator<Item = &Edge<E>> + '_ {
        let edges = self.edge_table.edges();
        self.csr.edge_ids(local).iter().map(move |&id| &edges[id])
    }

    /// Number of out-edges of the vertex at dense local id `local` that are
    /// stored on this node: non-zero exactly when this replica is a *source*
    /// of some local edge, i.e. when a forward kernel reads its value here.
    #[inline]
    pub(crate) fn local_out_degree(&self, local: u32) -> usize {
        self.csr.degree(local)
    }

    /// Number of currently active local vertices.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Iterates over the active vertices, ascending by dense local id.
    pub fn active_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.active
            .iter()
            .map(move |local| self.vertex_table.global_of(local))
    }

    /// Marks every local vertex active — the dense replacement for
    /// materialising an all-ids set when a template declares itself
    /// always-active.
    pub fn activate_all(&mut self) {
        self.active.activate_all();
    }

    /// Marks a single vertex active (ignored if `v` is not local).
    pub fn activate(&mut self, v: VertexId) {
        if let Some(local) = self.vertex_table.local_of(v) {
            self.active.insert(local);
        }
    }

    /// Marks the vertex at dense local id `local` active.
    pub(crate) fn activate_local(&mut self, local: u32) {
        self.active.insert(local);
    }

    /// Clears the active set.
    pub fn clear_active(&mut self) {
        self.active.clear();
    }

    /// Current attribute of a local vertex.
    pub fn vertex_value(&self, v: VertexId) -> Option<&V> {
        self.vertex_table.get(v).map(|row| &row.attr)
    }

    /// Global out-degree of `v` as tracked locally (`None` if not local).
    pub fn out_degree_of(&self, v: VertexId) -> Option<u32> {
        self.vertex_table
            .local_of(v)
            .map(|local| self.out_degrees[local as usize])
    }

    /// Local edge ids whose source vertex is currently active — the workload
    /// of the next computation iteration on this node.
    pub fn active_edge_ids(&mut self) -> Vec<EdgeId> {
        let mut ids = Vec::new();
        self.active_edge_ids_into(&mut ids);
        ids
    }

    /// [`NodeState::active_edge_ids`] into a reusable output vector (cleared
    /// first) — the pooled variant the middleware's planning path uses, so
    /// steady-state supersteps refill one warm buffer instead of allocating a
    /// fresh id vector per iteration.
    ///
    /// Ids come out ascending *by construction*: active sources' CSR slices
    /// are marked in the `active_edges` bitset and drained by its word scan,
    /// so no sort is needed, and an all-active frontier short-circuits to the
    /// full `0..num_edges` range.
    pub fn active_edge_ids_into(&mut self, ids: &mut Vec<EdgeId>) {
        ids.clear();
        if self.active.len() == self.num_vertices() {
            ids.extend(0..self.edge_table.len());
            return;
        }
        let Self {
            active,
            active_edges,
            csr,
            ..
        } = self;
        active_edges.clear();
        for local in active.iter() {
            for &edge_id in csr.edge_ids(local) {
                active_edges.insert(edge_id as u32);
            }
        }
        ids.extend(active_edges.iter().map(|id| id as EdgeId));
    }

    /// Number of edges whose source is active (without materialising ids).
    pub fn active_edge_count(&self) -> usize {
        if self.active.len() == self.num_vertices() {
            return self.num_edges();
        }
        self.active.iter().map(|local| self.csr.degree(local)).sum()
    }

    /// The local edge with the given local id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge<E>> {
        self.edge_table.get(id)
    }
}

impl<V: Clone, E: Clone> NodeState<V, E> {
    /// An owned copy of the triplet of local edge `id` (`None` if `id` is
    /// not a local edge id): the reference the fill tests compare
    /// [`NodeState::fill_triplets`] against.
    #[cfg(test)]
    fn triplet(&self, id: EdgeId) -> Option<Triplet<V, E>> {
        (id < self.num_edges()).then(|| {
            let t = self.triplet_ref(id);
            Triplet::new(
                t.src,
                t.dst,
                t.src_attr.clone(),
                t.dst_attr.clone(),
                t.edge_attr.clone(),
            )
        })
    }

    /// The triplet of local edge `id`, borrowed from the tables through the
    /// precomputed endpoint local ids: two array loads, no hashing, no clone.
    #[inline]
    fn triplet_ref(&self, id: EdgeId) -> Triplet<&V, &E> {
        let edge = &self.edge_table.edges()[id];
        let (src_local, dst_local) = self.edge_endpoint_locals(id);
        Triplet::new(
            edge.src,
            edge.dst,
            &self.vertex_table.row_at(src_local).attr,
            &self.vertex_table.row_at(dst_local).attr,
            &edge.attr,
        )
    }

    /// Materialises triplets for the given local edge ids.
    #[cfg(test)]
    fn triplets_for(&self, edge_ids: &[EdgeId]) -> Vec<Triplet<V, E>> {
        edge_ids.iter().filter_map(|&id| self.triplet(id)).collect()
    }

    /// Materialises triplets for the given local edge ids into a reusable
    /// [`TripletBuffer`], returning the filled view.  This is the zero-copy
    /// entry to the middleware hot path: attributes are cloned exactly once
    /// (the table join), straight from the tables into the buffer's retained
    /// slots, so neither the buffer nor a heap-owning attribute allocates
    /// once warm; everything downstream borrows slices of it.
    ///
    /// # Panics
    /// Panics if some id is not a local edge id.
    pub fn fill_triplets<'b>(
        &self,
        edge_ids: &[EdgeId],
        buffer: &'b mut TripletBuffer<V, E>,
    ) -> &'b [Triplet<V, E>] {
        buffer.refill_in_place(edge_ids.iter().map(|&id| self.triplet_ref(id)))
    }

    /// [`NodeState::fill_triplets`] for a kernel that never reads the
    /// destination attribute
    /// ([`GraphAlgorithm::reads_destination_attribute`] is `false`): a slot
    /// the buffer retains keeps the `dst_attr` it last held, so only the
    /// source and edge attributes are copied
    /// ([`TripletBuffer::refill_sources_in_place`]).  Sources, destinations,
    /// source and edge attributes equal [`NodeState::fill_triplets`]'s.
    pub fn fill_triplet_sources<'b>(
        &self,
        edge_ids: &[EdgeId],
        buffer: &'b mut TripletBuffer<V, E>,
    ) -> &'b [Triplet<V, E>] {
        buffer.refill_sources_in_place(edge_ids.iter().map(|&id| self.triplet_ref(id)))
    }

    /// Updates the attribute of a local vertex; returns `true` if the vertex
    /// exists locally.
    pub fn update_vertex(&mut self, v: VertexId, value: V) -> bool {
        self.vertex_table.update(v, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::AddressedMessage;
    use gxplug_graph::edge_list::EdgeList;
    use gxplug_graph::partition::{HashEdgePartitioner, Partitioner};

    /// Minimal min-propagation algorithm used to exercise node construction.
    struct MinLabel;

    impl GraphAlgorithm<u32, f64> for MinLabel {
        type Msg = u32;
        fn init_vertex(&self, v: VertexId, _out_degree: usize) -> u32 {
            v
        }
        fn msg_gen_into(
            &self,
            triplet: &Triplet<u32, f64>,
            _iteration: usize,
            out: &mut Vec<AddressedMessage<u32>>,
        ) {
            out.push(AddressedMessage::new(triplet.dst, triplet.src_attr));
        }
        fn msg_merge(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn msg_apply(
            &self,
            _vertex: VertexId,
            current: &u32,
            message: &u32,
            _iteration: usize,
        ) -> Option<u32> {
            (message < current).then_some(*message)
        }
        fn name(&self) -> &'static str {
            "min-label"
        }
    }

    fn setup() -> (PropertyGraph<u32, f64>, Partitioning) {
        setup_with(0u32)
    }

    fn setup_with<V: Clone>(default: V) -> (PropertyGraph<V, f64>, Partitioning) {
        let list: EdgeList<f64> = [
            (0u32, 1u32, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (4, 0, 1.0),
            (2, 0, 1.0),
        ]
        .into_iter()
        .collect();
        let graph = PropertyGraph::from_edge_list(list, default).unwrap();
        let partitioning = HashEdgePartitioner::new(1).partition(&graph, 2).unwrap();
        (graph, partitioning)
    }

    #[test]
    fn build_initialises_tables_and_active_set() {
        let (graph, partitioning) = setup();
        let node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        assert_eq!(node.id(), 0);
        assert_eq!(node.num_edges(), partitioning.part(0).edges.len());
        assert_eq!(node.num_vertices(), partitioning.part(0).vertices.len());
        // Everything starts active by default.
        assert_eq!(node.active_count(), node.num_vertices());
        // Vertex attributes follow init_vertex.
        for row in node.vertex_table().rows() {
            assert_eq!(row.attr, row.id);
        }
    }

    #[test]
    fn active_edges_follow_active_sources() {
        let (graph, partitioning) = setup();
        let mut node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        node.clear_active();
        assert_eq!(node.active_edge_count(), 0);
        assert!(node.active_edge_ids().is_empty());
        // Activate one vertex that has local out-edges.
        let some_src = node
            .edge_table()
            .edges()
            .first()
            .map(|e| e.src)
            .expect("node 0 should hold at least one edge");
        node.activate(some_src);
        assert_eq!(node.active_vertices().collect::<Vec<_>>(), [some_src]);
        let expected = node.out_edge_ids(some_src).len();
        assert_eq!(node.active_edge_count(), expected);
        assert_eq!(node.active_edge_ids().len(), expected);
    }

    #[test]
    fn active_edge_ids_ascend_without_sorting() {
        let (graph, partitioning) = setup();
        let mut node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        // All-active takes the 0..num_edges fast path.
        let all = node.active_edge_ids();
        assert_eq!(all, (0..node.num_edges()).collect::<Vec<_>>());
        // A partial frontier drains the edge bitset ascending.
        node.clear_active();
        let srcs: Vec<VertexId> = node.edge_table().edges().iter().map(|e| e.src).collect();
        for v in srcs.into_iter().rev() {
            node.activate(v);
        }
        let partial = node.active_edge_ids();
        let mut sorted = partial.clone();
        sorted.sort_unstable();
        assert_eq!(partial, sorted);
        assert_eq!(partial.len(), node.active_edge_count());
    }

    #[test]
    fn triplets_join_local_attributes() {
        let (graph, partitioning) = setup();
        let node = NodeState::build(1, &graph, &partitioning, &MinLabel);
        for id in 0..node.num_edges() {
            let triplet = node.triplet(id).expect("local triplet must resolve");
            assert_eq!(triplet.src_attr, triplet.src);
            assert_eq!(triplet.dst_attr, triplet.dst);
        }
        assert!(node.triplet(999).is_none());
    }

    #[test]
    fn reset_restores_a_freshly_built_state() {
        let (graph, partitioning) = setup();
        let mut node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        let fresh = node.clone();
        // Dirty the node the way a run would: update values, shrink the
        // frontier.
        let ids: Vec<VertexId> = node.vertex_table().ids().collect();
        for &v in &ids {
            node.update_vertex(v, 999);
        }
        node.clear_active();
        assert_eq!(node.vertex_value(ids[0]), Some(&999));
        node.reset_for(&MinLabel, graph.num_vertices());
        assert_eq!(node.active_count(), fresh.active_count());
        for (got, want) in node.vertex_table().rows().zip(fresh.vertex_table().rows()) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn fill_triplets_matches_triplets_for_and_reuses_allocation() {
        let (graph, partitioning) = setup();
        let mut node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        let ids = node.active_edge_ids();
        let owned = node.triplets_for(&ids);
        let mut buffer = TripletBuffer::new();
        let view = node.fill_triplets(&ids, &mut buffer);
        assert_eq!(view, owned.as_slice());
        // Refilling with the same workload reuses the warm allocation.
        node.fill_triplets(&ids, &mut buffer);
        let stats = buffer.stats();
        assert_eq!(stats.fills, 2);
        assert!(stats.reallocations <= 1);
    }

    /// Vertex values that own heap data: one column vector per vertex.
    struct Columns;

    impl GraphAlgorithm<Vec<f64>, f64> for Columns {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _out_degree: usize) -> Vec<f64> {
            vec![v as f64; 4]
        }
        fn msg_gen_into(
            &self,
            triplet: &Triplet<Vec<f64>, f64>,
            _iteration: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            out.push(AddressedMessage::new(triplet.dst, triplet.src_attr[0]));
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn msg_apply(&self, _v: VertexId, _c: &Vec<f64>, _m: &f64, _i: usize) -> Option<Vec<f64>> {
            None
        }
        fn name(&self) -> &'static str {
            "columns"
        }
    }

    #[test]
    fn in_place_refills_of_heap_attributes_match_triplets_for() {
        let (graph, partitioning) = setup_with(Vec::<f64>::new());
        let mut node = NodeState::build(0, &graph, &partitioning, &Columns);
        let all = node.active_edge_ids();
        let some: Vec<EdgeId> = all.iter().copied().step_by(2).collect();
        assert!(some.len() < all.len());
        let mut buffer = TripletBuffer::new();
        // Full, then shrunk, then grown again, with the values changing
        // between fills (and one vertex changing width): every fill equals a
        // fresh owned materialisation of the same ids.
        for (round, ids) in [&all, &some, &all, &some, &all].into_iter().enumerate() {
            let vertices: Vec<VertexId> = node.vertex_table().ids().collect();
            for (i, &v) in vertices.iter().enumerate() {
                let width = if i == 0 { 2 + round } else { 4 };
                node.update_vertex(v, vec![(round * 100 + i) as f64; width]);
            }
            let view = node.fill_triplets(ids, &mut buffer);
            assert_eq!(view, node.triplets_for(ids).as_slice(), "round {round}");
        }
        // A released arena rebuilds the same view without regrowing.
        let warm = buffer.stats().reallocations;
        for _ in 0..3 {
            buffer.release();
            let view = node.fill_triplets(&all, &mut buffer);
            assert_eq!(view, node.triplets_for(&all).as_slice());
        }
        assert_eq!(buffer.stats().reallocations, warm);
    }

    #[test]
    fn probe_and_global_orders_match_a_fresh_sort_after_build_and_growth() {
        fn check(node: &NodeState<u32, f64>) {
            let locals = node.num_vertices() as u32;
            let global = |local: u32| node.vertex_table().global_of(local);
            let mut probe: Vec<u32> = (0..locals).collect();
            probe.sort_by_key(|&local| (splitmix64(global(local) as u64), global(local)));
            assert_eq!(node.probe_order(), probe.as_slice());
            let mut by_global: Vec<u32> = (0..locals).collect();
            by_global.sort_by_key(|&local| global(local));
            for (order, rank) in [
                (&probe, node.probe_rank()),
                (&by_global, node.global_rank()),
            ] {
                assert_eq!(rank.len(), order.len());
                for (position, &local) in order.iter().enumerate() {
                    assert_eq!(rank[local as usize], position as u32);
                }
            }
        }
        let list: EdgeList<f64> = (0u32..64).map(|v| (v, (v * 7 + 3) % 64, 1.0)).collect();
        let graph = PropertyGraph::from_edge_list(list, 0u32).unwrap();
        let partitioning = HashEdgePartitioner::new(3).partition(&graph, 2).unwrap();
        let mut node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        check(&node);
        // Grow by replicas of existing low-id vertices (their new locals fall
        // out of global order) and by brand-new vertices.
        let mut upserts: Vec<(VertexId, u32, bool, u32)> = (0u32..64)
            .filter(|&v| !node.vertex_table().contains(v))
            .take(5)
            .map(|v| (v, v, false, 1))
            .collect();
        assert!(!upserts.is_empty(), "node 0 misses some vertex");
        upserts.extend((64u32..67).map(|v| (v, v, true, 0)));
        let mut mirrors: Vec<VertexId> = upserts.iter().map(|u| u.0).filter(|&v| v < 64).collect();
        let before = node.num_vertices();
        node.apply_mutations(&[], Vec::new(), &[], upserts, &[], &[]);
        assert!(node.num_vertices() > before);
        check(&node);
        // Retire the new mirrors again (no local edge touches them): the
        // locals compact and both orders are rebuilt over the survivors.
        mirrors.sort_unstable();
        let degrees: Vec<_> = (0u32..67).map(|v| node.out_degree_of(v)).collect();
        let grown = node.num_vertices();
        node.apply_mutations(&[], Vec::new(), &mirrors, Vec::new(), &[], &[]);
        assert_eq!(node.num_vertices(), grown - mirrors.len());
        check(&node);
        for v in 0u32..67 {
            let want = if mirrors.contains(&v) {
                None
            } else {
                degrees[v as usize]
            };
            assert_eq!(node.out_degree_of(v), want, "vertex {v}");
        }
        for (id, edge) in node.edge_table().edges().iter().enumerate() {
            let (src, dst) = node.edge_endpoint_locals(id);
            let global = |local| node.vertex_table().global_of(local);
            assert_eq!((global(src), global(dst)), (edge.src, edge.dst));
        }
    }

    #[test]
    fn update_vertex_writes_the_value() {
        let (graph, partitioning) = setup();
        let mut node = NodeState::build(0, &graph, &partitioning, &MinLabel);
        let ids: Vec<VertexId> = node.vertex_table().ids().take(2).collect();
        let (v, other) = (ids[0], ids[1]);
        let before = *node.vertex_value(other).unwrap();
        assert!(node.update_vertex(v, 99));
        assert!(!node.update_vertex(10_000, 0));
        assert_eq!(*node.vertex_value(v).unwrap(), 99);
        assert_eq!(*node.vertex_value(other).unwrap(), before);
    }
}
