//! The iterative graph-algorithm template shared by upper systems and daemons.
//!
//! The paper's algorithm template exposes three APIs — `MSGGen()`,
//! `MSGMerge()` and `MSGApply()` (§IV-A1) — whose invocation *order* is what
//! distinguishes computation models: BSP runs `Gen → Merge → Apply`, GAS runs
//! `Merge → Apply → Gen` (§IV-B2).  Because the template follows the same
//! iterative model as the upper systems, "existing distributed graph
//! algorithms can be transplanted for accessing accelerators with ease": the
//! very same implementation of this trait drives
//!
//! * the native (non-accelerated) execution paths of the BSP and GAS engines
//!   in this crate, and
//! * the daemon-side accelerated execution in `gxplug-core`.
//!
//! # The `MSGGen` kernel contract
//!
//! In the paper a daemon runs `MSGGen` over a triplet block and writes the
//! messages into the shared memory space its agent drains.  Here that space
//! is a caller-owned buffer: [`GraphAlgorithm::msg_gen_into`] *appends* zero
//! or more messages to `out` and never reads, reorders or clears what is
//! already there.  The daemon passes its pooled per-share buffer straight
//! through, so for flat message types (`f64`, integers, small `Copy`
//! structs) a steady-state superstep generates every message without a heap
//! allocation.  [`GraphAlgorithm::msg_gen`] is only a convenience wrapper
//! for one-off calls; the superstep path never uses it.

use gxplug_graph::mutate::MutationScope;
use gxplug_graph::types::{Triplet, VertexId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The computation model of an upper system (§IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputationModel {
    /// Bulk Synchronous Parallel (Pregel / GraphX): `Gen → Merge → Apply`.
    Bsp,
    /// Gather-Apply-Scatter (PowerGraph): `Merge → Apply → Gen`.
    Gas,
}

/// A message produced by `MSGGen` addressed to a destination vertex.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AddressedMessage<M> {
    /// The vertex whose value the message targets.
    pub target: VertexId,
    /// The message payload.
    pub payload: M,
}

impl<M> AddressedMessage<M> {
    /// Creates an addressed message.
    pub fn new(target: VertexId, payload: M) -> Self {
        Self { target, payload }
    }
}

/// An iterative graph algorithm expressed against the GX-Plug template.
///
/// `V` is the vertex attribute type, `E` the edge attribute type and
/// [`GraphAlgorithm::Msg`] the message type flowing between vertices.
pub trait GraphAlgorithm<V, E>: Send + Sync {
    /// Message type exchanged between vertices.
    type Msg: Clone + Send + Sync;

    /// Initial attribute of vertex `v` before the first iteration.
    ///
    /// `out_degree` is the vertex's out-degree in the *global* graph, which
    /// algorithms like PageRank need to pre-compute per-edge contributions.
    fn init_vertex(&self, v: VertexId, out_degree: usize) -> V;

    /// `MSGGen()` — given an edge triplet whose *source* vertex is active,
    /// append its messages (usually one, to the destination) to `out`.
    /// Called once per active triplet per iteration.
    ///
    /// The kernel contract: append zero or more messages and never read or
    /// clear `out` — it holds the messages of earlier triplets, and their
    /// order is part of the deterministic message stream.
    fn msg_gen_into(
        &self,
        triplet: &Triplet<V, E>,
        iteration: usize,
        out: &mut Vec<AddressedMessage<Self::Msg>>,
    );

    /// [`msg_gen_into`](GraphAlgorithm::msg_gen_into) into a fresh `Vec`,
    /// for one-off calls.
    ///
    /// Never override: the superstep path calls `msg_gen_into`.
    fn msg_gen(
        &self,
        triplet: &Triplet<V, E>,
        iteration: usize,
    ) -> Vec<AddressedMessage<Self::Msg>> {
        let mut out = Vec::new();
        self.msg_gen_into(triplet, iteration, &mut out);
        out
    }

    /// `MSGMerge()` — combine two messages addressed to the same vertex.
    fn msg_merge(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;

    /// `MSGApply()` — apply a merged message to the current attribute of
    /// `vertex`.  Returns `Some(new_value)` if the attribute changed (which
    /// re-activates the vertex for the next iteration) or `None` if it is
    /// unchanged.
    fn msg_apply(
        &self,
        vertex: VertexId,
        current: &V,
        message: &Self::Msg,
        iteration: usize,
    ) -> Option<V>;

    /// `MSGApply()` in place: applies a merged message to `value`, the
    /// current attribute of `vertex`, and returns `true` if the attribute
    /// changed (which re-activates the vertex).  The synchronisation phase
    /// calls only this hook.
    ///
    /// The default calls [`msg_apply`](GraphAlgorithm::msg_apply) and assigns
    /// its result when it differs from `value`.  Algorithms whose values own
    /// heap data override it to update the value without allocating; the
    /// override must leave `value` bit-identical to what `msg_apply` would
    /// have returned, and unchanged whenever it returns `false`.
    fn msg_apply_in_place(
        &self,
        vertex: VertexId,
        value: &mut V,
        message: &Self::Msg,
        iteration: usize,
    ) -> bool
    where
        V: PartialEq,
    {
        match self.msg_apply(vertex, value, message, iteration) {
            Some(next) if next != *value => {
                *value = next;
                true
            }
            _ => false,
        }
    }

    /// Vertices that are active before the first iteration.  `None` (the
    /// default) means every vertex starts active.
    fn initial_active(&self, _num_vertices: usize) -> Option<Vec<VertexId>> {
        None
    }

    /// Upper bound on the number of iterations (e.g. the paper caps LP at 15).
    fn max_iterations(&self) -> usize {
        usize::MAX
    }

    /// Returns `true` if every vertex stays active on every iteration
    /// regardless of whether its value changed (PageRank-style fixed-point
    /// algorithms).  The default, `false`, means only vertices whose value
    /// changed in the previous iteration generate messages (SSSP-style
    /// frontier algorithms).
    fn always_active(&self) -> bool {
        false
    }

    /// Returns `true` if `msg_gen_into` reads the *destination* vertex
    /// attribute (or addresses messages back to the source), as
    /// connected-components style algorithms do.  Forward-only algorithms
    /// (SSSP, PageRank, LP) keep the default `false`.
    ///
    /// The declaration governs what a superstep moves:
    ///
    /// * `true`: the agent downloads both endpoints of every active edge,
    ///   fills `dst_attr` into every triplet, and synchronisation refreshes
    ///   and activates every mirror of a changed master.  Synchronization
    ///   skipping then also requires a changed vertex's in-edges to be
    ///   co-located with its master, otherwise a stale replica could be read
    ///   on another node.
    /// * `false`: the agent downloads only the sources of active edges, a
    ///   triplet's `dst_attr` may hold **any** value of `V` (a stale
    ///   replica, or whatever a reused buffer slot held before), and only the
    ///   mirrors holding a local out-edge of a changed master are refreshed
    ///   and activated.  Skipping keeps the paper's "updated vertex and its
    ///   outer edges" condition exactly.
    ///
    /// A `false` kernel's messages must therefore not depend on `dst_attr`
    /// at all; `gxplug-algos` checks that for every shipped forward kernel
    /// by generating its messages again over poisoned destination
    /// attributes.
    fn reads_destination_attribute(&self) -> bool {
        false
    }

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Relative operational intensity of the per-triplet kernel, used by the
    /// cost models to scale per-edge compute cost between cheap kernels
    /// (label propagation) and heavier ones (multi-source SSSP).  1.0 is the
    /// PageRank baseline.
    fn operational_intensity(&self) -> f64 {
        1.0
    }

    /// A canonical encoding of the algorithm's *parameters* for result
    /// caching.
    ///
    /// Two instances with equal `(name(), cache_key())` must compute
    /// bit-identical results on the same graph under the same configuration —
    /// that contract is what lets a scheduler serve one instance's result for
    /// the other.  Encode every parameter that influences the output;
    /// floating-point parameters must go through [`f64::to_bits`] so the
    /// encoding is exact (`0.1 + 0.2` and `0.3` must not collide).
    ///
    /// `None` (the default) marks the algorithm as uncacheable: the scheduler
    /// will never serve a stored result for it, so existing algorithms are
    /// unaffected until they opt in.
    fn cache_key(&self) -> Option<String> {
        None
    }

    /// Returns `true` if the algorithm can continue from a previous
    /// converged run after live graph mutations, re-seeding only what the
    /// mutations invalidate instead of re-initialising every vertex.
    ///
    /// Opting in asserts a monotonicity contract for selective kernels
    /// (values only ever tighten, by a strict-improvement apply over positive
    /// edge weights): starting every vertex from its previously converged
    /// value, activating the vertices a mutation batch touched, and — for
    /// batches that remove edges — re-initialising every vertex whose value
    /// may have come through a removed edge (see
    /// [`derived_via`](GraphAlgorithm::derived_via)) and activating its
    /// in-neighbours, must reach the *bit-identical* fixed point a
    /// from-scratch run over the mutated graph reaches.  SSSP-style
    /// relaxation satisfies this; fixed-point algorithms whose every value
    /// depends on every other (PageRank) do not and keep the default
    /// `false`.
    fn supports_incremental(&self) -> bool {
        false
    }

    /// Given the [`MutationScope`] accumulated since the last converged run,
    /// returns the seed frontier for an incremental recompute — or `None`
    /// when these particular mutations force a full re-run (the engine then
    /// falls back to a cold reset).  Only consulted when
    /// [`supports_incremental`](GraphAlgorithm::supports_incremental) is
    /// `true`.  A seed returned for a batch with removals is completed by
    /// the engine's trim: the vertices removed edges invalidate are
    /// re-initialised and their in-neighbours join the seed.
    fn rescope(&self, scope: &MutationScope) -> Option<Vec<VertexId>> {
        let _ = scope;
        None
    }

    /// Whether `dst`'s current value may have been produced by relaxing an
    /// edge with attribute `edge` from a source holding `src` — the test an
    /// incremental recompute uses to find the vertices an edge removal
    /// invalidates, and the vertices reached from them over such "tight"
    /// edges.
    ///
    /// The default, `true`, is conservative: every head of a removed edge
    /// and everything reachable from it is re-initialised.  That stays
    /// correct for any selective, monotone kernel and is only slower.  An
    /// override may answer `false` only when `dst`'s value provably did not
    /// come through this edge.
    fn derived_via(&self, src: &V, edge: &E, dst: &V) -> bool {
        let _ = (src, edge, dst);
        true
    }

    /// Heap bytes owned by one vertex value *beyond* `size_of::<V>()`,
    /// charged against a result cache's byte budget.
    ///
    /// The default, `0`, is exact for flat vertex values (`f64`, integers,
    /// small structs).  Algorithms whose vertex values own heap data — like
    /// multi-source SSSP's per-vertex distance vector — should override it
    /// so a byte-budgeted cache tracks resident memory instead of only the
    /// values' inline headers.  This is a `Self: Sized` hook: it does not
    /// survive [`SharedAlgorithm`] erasure, which falls back to the shallow
    /// default.
    fn value_bytes(value: &V) -> usize
    where
        Self: Sized,
    {
        let _ = value;
        0
    }
}

/// Object-safe view of a [`GraphAlgorithm`] with the message type lifted
/// into a type parameter.
///
/// [`GraphAlgorithm::Msg`] is an associated type, so two different algorithm
/// implementations are two different types even when they exchange the same
/// messages — fine for a single monomorphised run, but a *job service* wants
/// one queue of heterogeneous jobs over one deployed graph.  `DynAlgorithm`
/// erases the implementation: every `A: GraphAlgorithm<V, E>` automatically
/// implements `DynAlgorithm<V, E, A::Msg>` (blanket impl), so a
/// `dyn DynAlgorithm<V, E, M>` can stand for any algorithm whose messages
/// are `M` — PageRank-style contributions and SSSP-style relaxations share a
/// queue as long as they agree on `M`.
///
/// [`SharedAlgorithm`] closes the loop: it wraps an
/// `Arc<dyn DynAlgorithm<V, E, M>>` back into a concrete type implementing
/// [`GraphAlgorithm`], so erased jobs run through the exact same engine and
/// middleware code paths as statically-typed ones — bit-identically, since
/// every call is a plain delegation.
pub trait DynAlgorithm<V, E, M>: Send + Sync {
    /// See [`GraphAlgorithm::init_vertex`].
    fn init_vertex(&self, v: VertexId, out_degree: usize) -> V;
    /// See [`GraphAlgorithm::msg_gen_into`].
    fn msg_gen_into(
        &self,
        triplet: &Triplet<V, E>,
        iteration: usize,
        out: &mut Vec<AddressedMessage<M>>,
    );
    /// See [`GraphAlgorithm::msg_merge`].
    fn msg_merge(&self, a: M, b: M) -> M;
    /// See [`GraphAlgorithm::msg_apply`].
    fn msg_apply(&self, vertex: VertexId, current: &V, message: &M, iteration: usize) -> Option<V>;
    /// See [`GraphAlgorithm::msg_apply_in_place`].
    fn msg_apply_in_place(
        &self,
        vertex: VertexId,
        value: &mut V,
        message: &M,
        iteration: usize,
    ) -> bool
    where
        V: PartialEq;
    /// See [`GraphAlgorithm::initial_active`].
    fn initial_active(&self, num_vertices: usize) -> Option<Vec<VertexId>>;
    /// See [`GraphAlgorithm::max_iterations`].
    fn max_iterations(&self) -> usize;
    /// See [`GraphAlgorithm::always_active`].
    fn always_active(&self) -> bool;
    /// See [`GraphAlgorithm::reads_destination_attribute`].
    fn reads_destination_attribute(&self) -> bool;
    /// See [`GraphAlgorithm::name`].
    fn name(&self) -> &'static str;
    /// See [`GraphAlgorithm::operational_intensity`].
    fn operational_intensity(&self) -> f64;
    /// See [`GraphAlgorithm::cache_key`].
    fn cache_key(&self) -> Option<String>;
    /// See [`GraphAlgorithm::supports_incremental`].
    fn supports_incremental(&self) -> bool;
    /// See [`GraphAlgorithm::rescope`].
    fn rescope(&self, scope: &MutationScope) -> Option<Vec<VertexId>>;
    /// See [`GraphAlgorithm::derived_via`].
    fn derived_via(&self, src: &V, edge: &E, dst: &V) -> bool;
}

impl<V, E, A> DynAlgorithm<V, E, A::Msg> for A
where
    A: GraphAlgorithm<V, E>,
{
    fn init_vertex(&self, v: VertexId, out_degree: usize) -> V {
        GraphAlgorithm::init_vertex(self, v, out_degree)
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<V, E>,
        iteration: usize,
        out: &mut Vec<AddressedMessage<A::Msg>>,
    ) {
        GraphAlgorithm::msg_gen_into(self, triplet, iteration, out)
    }

    fn msg_merge(&self, a: A::Msg, b: A::Msg) -> A::Msg {
        GraphAlgorithm::msg_merge(self, a, b)
    }

    fn msg_apply(
        &self,
        vertex: VertexId,
        current: &V,
        message: &A::Msg,
        iteration: usize,
    ) -> Option<V> {
        GraphAlgorithm::msg_apply(self, vertex, current, message, iteration)
    }

    fn msg_apply_in_place(
        &self,
        vertex: VertexId,
        value: &mut V,
        message: &A::Msg,
        iteration: usize,
    ) -> bool
    where
        V: PartialEq,
    {
        GraphAlgorithm::msg_apply_in_place(self, vertex, value, message, iteration)
    }

    fn initial_active(&self, num_vertices: usize) -> Option<Vec<VertexId>> {
        GraphAlgorithm::initial_active(self, num_vertices)
    }

    fn max_iterations(&self) -> usize {
        GraphAlgorithm::max_iterations(self)
    }

    fn always_active(&self) -> bool {
        GraphAlgorithm::always_active(self)
    }

    fn reads_destination_attribute(&self) -> bool {
        GraphAlgorithm::reads_destination_attribute(self)
    }

    fn name(&self) -> &'static str {
        GraphAlgorithm::name(self)
    }

    fn operational_intensity(&self) -> f64 {
        GraphAlgorithm::operational_intensity(self)
    }

    fn cache_key(&self) -> Option<String> {
        GraphAlgorithm::cache_key(self)
    }

    fn supports_incremental(&self) -> bool {
        GraphAlgorithm::supports_incremental(self)
    }

    fn rescope(&self, scope: &MutationScope) -> Option<Vec<VertexId>> {
        GraphAlgorithm::rescope(self, scope)
    }

    fn derived_via(&self, src: &V, edge: &E, dst: &V) -> bool {
        GraphAlgorithm::derived_via(self, src, edge, dst)
    }
}

/// A cheaply-cloneable, type-erased [`GraphAlgorithm`] handle.
///
/// Wraps an `Arc<dyn DynAlgorithm<V, E, M>>` and implements
/// [`GraphAlgorithm`] by delegation, so heterogeneous algorithms sharing a
/// message type can travel through APIs written against the static trait —
/// in particular, through a job queue.  Because every method forwards
/// unchanged, an algorithm run through its `SharedAlgorithm` wrapper is
/// bit-identical to the same algorithm run directly.
pub struct SharedAlgorithm<V, E, M> {
    inner: Arc<dyn DynAlgorithm<V, E, M>>,
}

impl<V, E, M> SharedAlgorithm<V, E, M> {
    /// Erases `algorithm` behind the shared handle.
    pub fn new<A>(algorithm: A) -> Self
    where
        A: GraphAlgorithm<V, E, Msg = M> + 'static,
        V: 'static,
        E: 'static,
        M: 'static,
    {
        Self {
            inner: Arc::new(algorithm),
        }
    }

    /// Wraps an already-erased algorithm.
    pub fn from_arc(inner: Arc<dyn DynAlgorithm<V, E, M>>) -> Self {
        Self { inner }
    }
}

impl<V, E, M> Clone for SharedAlgorithm<V, E, M> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V, E, M> fmt::Debug for SharedAlgorithm<V, E, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedAlgorithm")
            .field("algorithm", &self.inner.name())
            .finish()
    }
}

impl<V, E, M> GraphAlgorithm<V, E> for SharedAlgorithm<V, E, M>
where
    V: Send + Sync,
    E: Send + Sync,
    M: Clone + Send + Sync,
{
    type Msg = M;

    fn init_vertex(&self, v: VertexId, out_degree: usize) -> V {
        self.inner.init_vertex(v, out_degree)
    }

    fn msg_gen_into(
        &self,
        triplet: &Triplet<V, E>,
        iteration: usize,
        out: &mut Vec<AddressedMessage<M>>,
    ) {
        self.inner.msg_gen_into(triplet, iteration, out)
    }

    fn msg_merge(&self, a: M, b: M) -> M {
        self.inner.msg_merge(a, b)
    }

    fn msg_apply(&self, vertex: VertexId, current: &V, message: &M, iteration: usize) -> Option<V> {
        self.inner.msg_apply(vertex, current, message, iteration)
    }

    fn msg_apply_in_place(
        &self,
        vertex: VertexId,
        value: &mut V,
        message: &M,
        iteration: usize,
    ) -> bool
    where
        V: PartialEq,
    {
        self.inner
            .msg_apply_in_place(vertex, value, message, iteration)
    }

    fn initial_active(&self, num_vertices: usize) -> Option<Vec<VertexId>> {
        self.inner.initial_active(num_vertices)
    }

    fn max_iterations(&self) -> usize {
        self.inner.max_iterations()
    }

    fn always_active(&self) -> bool {
        self.inner.always_active()
    }

    fn reads_destination_attribute(&self) -> bool {
        self.inner.reads_destination_attribute()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn operational_intensity(&self) -> f64 {
        self.inner.operational_intensity()
    }

    fn cache_key(&self) -> Option<String> {
        self.inner.cache_key()
    }

    fn supports_incremental(&self) -> bool {
        self.inner.supports_incremental()
    }

    fn rescope(&self, scope: &MutationScope) -> Option<Vec<VertexId>> {
        self.inner.rescope(scope)
    }

    fn derived_via(&self, src: &V, edge: &E, dst: &V) -> bool {
        self.inner.derived_via(src, edge, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressed_message_construction() {
        let m = AddressedMessage::new(7, 1.5f64);
        assert_eq!(m.target, 7);
        assert_eq!(m.payload, 1.5);
    }

    /// Min-propagation over f64 vertices, f64 messages.
    struct MinProp;

    impl GraphAlgorithm<f64, f64> for MinProp {
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
            t: &Triplet<f64, f64>,
            _i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            out.push(AddressedMessage::new(t.dst, t.src_attr + t.edge_attr));
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn msg_apply(&self, _v: VertexId, cur: &f64, msg: &f64, _i: usize) -> Option<f64> {
            (msg < cur).then_some(*msg)
        }
        fn derived_via(&self, src: &f64, edge: &f64, dst: &f64) -> bool {
            *dst == src + edge
        }
        fn name(&self) -> &'static str {
            "min-prop"
        }
    }

    /// Max-propagation: a *different* implementation with the same message
    /// type, so both fit behind one `dyn DynAlgorithm<f64, f64, f64>`.
    struct MaxProp;

    impl GraphAlgorithm<f64, f64> for MaxProp {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _d: usize) -> f64 {
            v as f64
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            _i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            out.push(AddressedMessage::new(t.dst, t.src_attr));
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.max(b)
        }
        fn msg_apply(&self, _v: VertexId, cur: &f64, msg: &f64, _i: usize) -> Option<f64> {
            (msg > cur).then_some(*msg)
        }
        fn always_active(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "max-prop"
        }
        fn cache_key(&self) -> Option<String> {
            Some("v=1".into())
        }
    }

    #[test]
    fn heterogeneous_algorithms_share_a_dyn_slot() {
        // The whole point of the erasure: one collection holds different
        // implementations that agree on the message type.
        let jobs: Vec<Arc<dyn DynAlgorithm<f64, f64, f64>>> =
            vec![Arc::new(MinProp), Arc::new(MaxProp)];
        assert_eq!(jobs[0].name(), "min-prop");
        assert_eq!(jobs[1].name(), "max-prop");
        assert!(!jobs[0].always_active());
        assert!(jobs[1].always_active());
    }

    #[test]
    fn shared_algorithm_delegates_every_method() {
        let shared = SharedAlgorithm::new(MinProp);
        let cloned = shared.clone();
        let triplet = Triplet::new(0, 1, 2.0, f64::INFINITY, 3.0);
        assert_eq!(
            GraphAlgorithm::msg_gen(&cloned, &triplet, 0),
            GraphAlgorithm::msg_gen(&MinProp, &triplet, 0)
        );
        assert_eq!(
            GraphAlgorithm::init_vertex(&shared, 5, 2).to_bits(),
            GraphAlgorithm::init_vertex(&MinProp, 5, 2).to_bits()
        );
        assert_eq!(GraphAlgorithm::msg_merge(&shared, 4.0, 2.0), 2.0);
        assert_eq!(
            GraphAlgorithm::msg_apply(&shared, 1, &5.0, &2.0, 0),
            Some(2.0)
        );
        // In place: an improvement assigns and reports a change, anything
        // else leaves the value alone.
        let mut value = 5.0;
        assert!(GraphAlgorithm::msg_apply_in_place(
            &shared, 1, &mut value, &2.0, 0
        ));
        assert_eq!(value, 2.0);
        assert!(!GraphAlgorithm::msg_apply_in_place(
            &shared, 1, &mut value, &7.0, 0
        ));
        assert_eq!(value, 2.0);
        assert!(GraphAlgorithm::derived_via(&shared, &1.0, &2.0, &3.0));
        assert!(!GraphAlgorithm::derived_via(&shared, &1.0, &2.0, &4.0));
        // The default is the conservative answer.
        assert!(GraphAlgorithm::derived_via(&MaxProp, &1.0, &2.0, &4.0));
        assert_eq!(GraphAlgorithm::name(&shared), "min-prop");
        assert_eq!(
            GraphAlgorithm::max_iterations(&shared),
            GraphAlgorithm::max_iterations(&MinProp)
        );
    }

    #[test]
    fn msg_gen_into_appends_through_the_erased_handle() {
        // The kernel contract: earlier messages in the sink are kept, in
        // order, and the wrapper yields exactly what was appended.
        let shared = SharedAlgorithm::new(MinProp);
        let triplet = Triplet::new(0, 1, 2.0, f64::INFINITY, 3.0);
        let mut out = vec![AddressedMessage::new(9, -1.0)];
        GraphAlgorithm::msg_gen_into(&shared, &triplet, 0, &mut out);
        GraphAlgorithm::msg_gen_into(&MinProp, &triplet, 0, &mut out);
        assert_eq!(
            out,
            vec![
                AddressedMessage::new(9, -1.0),
                AddressedMessage::new(1, 5.0),
                AddressedMessage::new(1, 5.0),
            ]
        );
        assert_eq!(GraphAlgorithm::msg_gen(&shared, &triplet, 0), out[2..]);
    }

    #[test]
    fn the_cache_hook_defaults_to_opted_out() {
        // Algorithms that don't opt in are uncacheable.
        assert_eq!(GraphAlgorithm::cache_key(&MinProp), None);
    }

    #[test]
    fn cache_keys_survive_erasure() {
        // The cache key delegates through the erased handle unchanged.
        let shared = SharedAlgorithm::new(MaxProp);
        assert_eq!(GraphAlgorithm::cache_key(&shared), Some("v=1".into()));
    }
}
