//! # gxplug-graph
//!
//! Graph storage, synthetic generators, partitioners and the dataset catalogue
//! used by the GX-Plug middleware reproduction.
//!
//! This crate is the lowest layer of the workspace: it knows nothing about
//! accelerators, daemons or distributed nodes.  It provides
//!
//! * [`EdgeList`] / [`PropertyGraph`] / [`Csr`] — construction and storage of
//!   directed property graphs;
//! * [`tables`] — the agent-side vertex table and edge table described in
//!   §II-B of the paper, indexed by dense local ids;
//! * [`dense`] — the dense-id primitives ([`LocalIdMap`], [`FrontierSet`],
//!   [`DenseSlots`]) that make the per-node superstep data path hash-free;
//! * [`generators`] — R-MAT, Erdős–Rényi and road-network generators used to
//!   build synthetic analogues of the paper's datasets;
//! * [`mutate`] — the versioned, replayable mutation log ([`MutationBatch`],
//!   [`MutationLog`]) behind live graph updates;
//! * [`partition`] — hash, range, greedy vertex-cut and capacity-weighted
//!   partitioners;
//! * [`datasets`] — the Table I catalogue with scaled synthetic analogues;
//! * [`io`] — plain-text edge list reading and writing;
//! * [`view`] — reusable [`TripletBuffer`] arenas whose borrowed slices are
//!   the zero-copy currency of the middleware's agent–daemon hot path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod datasets;
pub mod dense;
pub mod edge_list;
pub mod generators;
pub mod graph;
pub mod io;
pub mod mutate;
pub mod partition;
pub mod tables;
pub mod types;
pub mod view;

pub use csr::Csr;
pub use dense::{DenseSlots, FrontierSet, LocalIdMap};
pub use edge_list::EdgeList;
pub use graph::PropertyGraph;
pub use mutate::{
    MutationBatch, MutationError, MutationLog, MutationOp, MutationScope, RemovedEdges,
    ResolvedMutation,
};
pub use types::{Edge, EdgeId, GraphError, PartitionId, Result, Triplet, VertexId};
pub use view::{TripletBuffer, ViewStats};
