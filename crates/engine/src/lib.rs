//! # gxplug-engine
//!
//! Distributed upper-system substrate for the GX-Plug reproduction: a
//! simulated cluster of distributed nodes running either a GraphX-like (JVM,
//! BSP, vertex-centric) or PowerGraph-like (C++, GAS, edge-centric) upper
//! system.
//!
//! * [`template`] — the `MSGGen` / `MSGMerge` / `MSGApply` algorithm template
//!   shared by native execution and the middleware daemons;
//! * [`profile`] — runtime cost profiles of the two upper systems;
//! * [`network`] — the interconnect cost model;
//! * [`node`] — per-distributed-node state (vertex/edge tables, frontier);
//! * [`cluster`] — the iteration driver (native or custom/middleware compute
//!   phases, synchronisation, replica refresh, activity tracking);
//! * [`fanout`] — work-proportional threading: the floor below which a
//!   superstep runs inline, and the parked per-run workers above it;
//! * [`metrics`] — per-iteration metrics and run reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod fanout;
pub mod metrics;
pub mod network;
pub mod node;
pub mod profile;
pub mod template;

pub use cluster::{
    native_node_compute, Cluster, ComputePhase, ExecutionMode, NodeComputeOutput, ParallelNodes,
    SyncPolicy,
};
pub use metrics::{IterationMetrics, RunReport};
pub use network::NetworkModel;
pub use node::NodeState;
pub use profile::RuntimeProfile;
pub use template::{AddressedMessage, ComputationModel, GraphAlgorithm};
