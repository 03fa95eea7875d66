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
    /// never serves a stored result for it.
    fn cache_key(&self) -> Option<String> {
        None
    }

    /// The seed frontier for continuing a converged run after the mutations
    /// in `scope`, or `None` (the default) to start cold with a full reset.
    /// Consulted only when the deployment holds this algorithm's own
    /// converged values; the engine's trim completes a seed for a batch
    /// with removals.
    ///
    /// Returning a seed asserts a monotonicity contract (values only ever
    /// tighten, by a strict-improvement apply over positive edge weights):
    /// starting every vertex from its converged value, activating the seed
    /// and, for removals, re-initialising every vertex whose value may have
    /// come through a removed edge (see
    /// [`derived_via`](GraphAlgorithm::derived_via)) and activating its
    /// in-neighbours must reach the *bit-identical* fixed point of a
    /// from-scratch run over the mutated graph.  SSSP-style relaxation
    /// satisfies this; PageRank, where every value depends on every other,
    /// does not and keeps the default.
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
    /// values' inline headers.
    fn value_bytes(value: &V) -> usize
    where
        Self: Sized,
    {
        let _ = value;
        0
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

    /// Min-propagation over f64 vertices, f64 messages; overrides
    /// `derived_via`.
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

    /// Max-propagation: keeps the `derived_via` default and opts into
    /// caching.
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
        fn name(&self) -> &'static str {
            "max-prop"
        }
        fn cache_key(&self) -> Option<String> {
            Some("v=1".into())
        }
    }

    #[test]
    fn default_hooks_apply_in_place_and_derive_conservatively() {
        // In place: an improvement assigns and reports a change, anything
        // else leaves the value alone.
        let mut value = 5.0;
        assert!(MinProp.msg_apply_in_place(1, &mut value, &2.0, 0));
        assert_eq!(value, 2.0);
        assert!(!MinProp.msg_apply_in_place(1, &mut value, &7.0, 0));
        assert_eq!(value, 2.0);
        let mut value = 3.0;
        assert!(MaxProp.msg_apply_in_place(1, &mut value, &4.0, 0));
        assert!(!MaxProp.msg_apply_in_place(1, &mut value, &4.0, 0));
        assert_eq!(value, 4.0);
        // The override answers per edge; the default is the conservative
        // answer.
        assert!(MinProp.derived_via(&1.0, &2.0, &3.0));
        assert!(!MinProp.derived_via(&1.0, &2.0, &4.0));
        assert!(MaxProp.derived_via(&1.0, &2.0, &4.0));
        assert_eq!(MinProp.max_iterations(), usize::MAX);
        assert_eq!(MinProp.rescope(&MutationScope::default()), None);
    }

    #[test]
    fn msg_gen_into_appends_without_clearing() {
        // The kernel contract: earlier messages in the sink are kept, in
        // order, and `msg_gen` yields exactly what one call appends.
        let triplet = Triplet::new(0, 1, 2.0, f64::INFINITY, 3.0);
        let mut out = vec![AddressedMessage::new(9, -1.0)];
        MinProp.msg_gen_into(&triplet, 0, &mut out);
        MaxProp.msg_gen_into(&triplet, 0, &mut out);
        assert_eq!(
            out,
            vec![
                AddressedMessage::new(9, -1.0),
                AddressedMessage::new(1, 5.0),
                AddressedMessage::new(1, 2.0),
            ]
        );
        assert_eq!(MinProp.msg_gen(&triplet, 0), out[1..2]);
    }

    #[test]
    fn the_cache_hook_defaults_to_opted_out() {
        // Algorithms that don't opt in are uncacheable.
        assert_eq!(MinProp.cache_key(), None);
        assert_eq!(MaxProp.cache_key(), Some("v=1".into()));
    }

    #[test]
    fn cache_keys_survive_erasure() {
        // Queues that mix algorithm types erase each one behind a trait
        // object of their own and read the key through the generic bound;
        // the key must come out as the concrete algorithm reports it.
        trait Keyed {
            fn key(&self) -> Option<String>;
        }
        struct Erased<A>(A);
        impl<A: GraphAlgorithm<f64, f64>> Keyed for Erased<A> {
            fn key(&self) -> Option<String> {
                self.0.cache_key()
            }
        }
        let jobs: Vec<Box<dyn Keyed>> = vec![Box::new(Erased(MaxProp)), Box::new(Erased(MinProp))];
        let keys: Vec<_> = jobs.iter().map(|job| job.key()).collect();
        assert_eq!(keys, vec![MaxProp.cache_key(), MinProp.cache_key()]);
        assert_eq!(keys, vec![Some("v=1".into()), None]);
    }
}
