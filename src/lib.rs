//! # gx-plug
//!
//! A Rust reproduction of **"GX-Plug: a Middleware for Plugging Accelerators
//! to Distributed Graph Processing"** (ICDE 2022).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — graph storage, generators, partitioners, dataset catalogue;
//! * [`accel`] — the pluggable accelerator substrate: the
//!   `AcceleratorBackend` kernel ABI and the one host backend (one thread
//!   or a worker pool) behind `DeviceSpec` descriptors;
//! * [`ipc`] — cross-thread queues, triplet blocks and the wire frame protocol;
//! * [`engine`] — the simulated distributed upper systems (GraphX-like BSP,
//!   PowerGraph-like GAS) and the cluster iteration driver;
//! * [`core`] — the GX-Plug middleware itself (daemon–agent framework,
//!   pipeline block sizing, synchronization caching/skipping, workload
//!   balancing), the `Session` API and the `GraphService` concurrent job
//!   service;
//! * [`algos`] — SSSP-BF, PageRank, LP, CC and k-core on the algorithm
//!   template.
//!
//! # Quickstart
//!
//! Deploy once with [`SessionBuilder`](prelude::SessionBuilder), then submit
//! as many runs as you like — the deployed graph, partitioning and daemon
//! device contexts are reused, so only the first run pays the setup cost:
//!
//! ```
//! use gx_plug::prelude::*;
//!
//! // A small power-law graph, partitioned over two simulated nodes.
//! let dataset = gx_plug::graph::datasets::find("Orkut").unwrap();
//! let graph = dataset.build_graph(Scale::Tiny, 7, Vec::new()).unwrap();
//! let partitioning = GreedyVertexCutPartitioner::default()
//!     .partition(&graph, 2)
//!     .unwrap();
//!
//! // Deploy: plug one GPU daemon into each node.
//! let mut session = SessionBuilder::new(&graph)
//!     .partitioned_by(partitioning)
//!     .profile(RuntimeProfile::powergraph())
//!     .network(NetworkModel::datacenter())
//!     .devices(vec![vec![gpu_v100("node0-gpu0")], vec![gpu_v100("node1-gpu0")]])
//!     .dataset("Orkut")
//!     .max_iterations(100)
//!     .build()
//!     .expect("a valid deployment");
//!
//! // Submit runs: the paper's multi-source SSSP, then a parameter sweep.
//! let outcome = session.run(&MultiSourceSssp::paper_default()).unwrap();
//! assert!(outcome.report.converged);
//!
//! let sweep = session.run(&MultiSourceSssp::new(vec![1, 2])).unwrap();
//! assert!(sweep.report.converged);
//! // The deployment was already paid by the first run.
//! assert!(sweep.report.setup.is_zero());
//!
//! // The same deployed cluster also serves the native baseline.
//! let native = session.run_native(&MultiSourceSssp::paper_default());
//! assert_eq!(native.values, outcome.values);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use gxplug_accel as accel;
pub use gxplug_algos as algos;
pub use gxplug_core as core;
pub use gxplug_engine as engine;
pub use gxplug_graph as graph;
pub use gxplug_ipc as ipc;
pub use gxplug_server as server;

/// Convenience re-exports covering the most common entry points.
pub mod prelude {
    pub use gxplug_accel::presets::{cpu_xeon_20c, fpga, gpu_v100, node_devices};
    pub use gxplug_accel::{AcceleratorBackend, BackendKind, DeviceKind, DeviceSpec, SimDuration};
    pub use gxplug_algos::{
        ConnectedComponents, KCore, LabelPropagation, MultiSourceSssp, PageRank, RankValue,
        Relaxation,
    };
    pub use gxplug_core::{
        balance_capacities, balance_partitioning, split_by_capacity, Agent, CachePolicy, Daemon,
        ExecutionMode, GraphService, JobOptions, JobPriority, JobStatus, JobTicket,
        MiddlewareConfig, PipelineCoefficients, PipelineMode, RunOutcome, RunOverrides,
        RuntimeError, ServiceBuilder, ServiceError, ServiceStats, Session, SessionBuilder,
        SessionError, SessionSpec,
    };
    pub use gxplug_engine::{
        AddressedMessage, Cluster, ComputationModel, GraphAlgorithm, NetworkModel, RunReport,
        RuntimeProfile, SyncPolicy,
    };
    pub use gxplug_graph::datasets::{DatasetSpec, Scale, CATALOGUE};
    pub use gxplug_graph::generators::{ErdosRenyi, Generator, GridRoad, Rmat};
    pub use gxplug_graph::partition::{
        GreedyVertexCutPartitioner, HashEdgePartitioner, Partitioner, Partitioning,
        RangePartitioner, WeightedEdgePartitioner,
    };
    pub use gxplug_graph::{
        Edge, EdgeList, MutationBatch, MutationError, MutationLog, MutationOp, MutationScope,
        PropertyGraph, ResolvedMutation, Triplet, TripletBuffer, VertexId, ViewStats,
    };
    pub use gxplug_ipc::wire::{
        Frame, JobSpec, JobState, ServerError, WireJobOptions, WireMutationOp,
    };
    pub use gxplug_ipc::TripletBlockRef;
    pub use gxplug_server::{
        standard_registry, standard_service, AlgorithmRegistry, ServeRank, ServeReach, ServeVertex,
        Server, ServerConfig, Tenant, TenantQuota, TenantRegistry,
    };
}
