//! # gxplug-core
//!
//! The GX-Plug middleware: the paper's primary contribution.
//!
//! GX-Plug plugs accelerators (GPUs, multi-core CPUs) into heterogeneous
//! distributed graph systems through a *daemon–agent framework*:
//!
//! * a [`Daemon`] wraps one pluggable accelerator backend
//!   (any [`AcceleratorBackend`](gxplug_accel::AcceleratorBackend)
//!   implementation — cost-model sim or real host-parallel execution),
//!   holds an instance of the `MSGGen`/`MSGMerge`/`MSGApply` algorithm
//!   template and keeps the device context alive across iterations (runtime
//!   isolation);
//! * an [`Agent`] lives in a distributed node, bridges the upper
//!   system and its daemons, and owns the data-exchange optimisations.
//!
//! The three optimisation families of §III are implemented here:
//!
//! * **intra-iteration** — [`pipeline`]: the Lemma-1 block-size selection
//!   and the cost model of the 3-layer pipeline shuffle (the pipeline itself
//!   is modelled, not executed);
//! * **inter-iteration** — [`sync_cache`]: the LRU synchronization cache
//!   whose hit/miss accounting prices the download phase (lazy uploading is
//!   a count in the agent's upload phase; synchronization skipping is decided
//!   per iteration by the cluster driver when the configuration enables it);
//! * **beyond-iteration** — [`balance`]: the Lemma-2 / Lemma-3 workload
//!   balancing prescriptions and device-to-node assignment.
//!
//! # The threaded runtime
//!
//! By default the middleware executes *concurrently*, matching the process
//! structure of the paper rather than simulating it — but only where the
//! work pays for the hand-off.  A thread hand-off costs two queue hops
//! whatever it carries, so, like a kernel launch in the §III-A pipeline
//! model, it has to be amortised: one floor on a superstep's active-edge
//! count ([`gxplug_engine::fanout`]) decides, and the nodes of a superstep
//! that crosses it are lent *by value* to parked per-run lanes, one per
//! node:
//!
//! * a superstep below the floor runs its nodes in node order on the calling
//!   thread; a larger one lends each node but the last, with its agent, to
//!   that node's lane and takes it back at the BSP barrier
//!   ([`runtime::ThreadedNodes`], [`runtime::ThreadedAgent`]);
//! * every daemon share of a node runs, block by block and in daemon order,
//!   on whichever thread computes the node.  The cost model prices a node's
//!   daemons as concurrent — the node's compute time is its longest share's
//!   — so where the shares run on the host changes no simulated number;
//! * lane workers are spawned once per run, at the first loan, and sleep in
//!   between, so a run whose supersteps all stay small creates no thread and
//!   crosses no queue.
//!
//! There is one [`Agent`] and one run path.  The [`config::ExecutionMode`]
//! switch in [`MiddlewareConfig`] only sets the floor: a serial run is the
//! same run with a floor of `usize::MAX`, so nothing is ever lent.  Where a
//! node was computed never shows in the result: each agent folds its
//! daemons' messages in daemon order, every node's output lands in that
//! node's slot and the slots are read in node order — so the two modes
//! produce **bit-identical** results (the
//! `determinism` integration test runs PageRank and SSSP both ways, on both
//! sides of the floor, and compares exactly).
//!
//! [`session`] ties everything together: a [`SessionBuilder`] validates and
//! deploys the cluster once (typed [`SessionError`]s instead of panics), and
//! the resulting [`Session`] serves many algorithm runs on the same deployed
//! graph, partitioning and daemon device contexts — parameter sweeps and
//! multi-algorithm serving pay the setup cost once.
//!
//! [`service`] turns that single-tenant session into a concurrent job
//! service: a [`GraphService`] owns a pool of worker sessions, each driven
//! by its own scheduler thread off shared priority lanes, and any number of
//! caller threads submit jobs ([`GraphService::submit`] →
//! [`JobTicket::wait`]) with typed backpressure, per-job overrides,
//! cancellation and deterministic shutdown.  In front of the lanes sits a
//! keyed result cache (duplicate submissions resolve in microseconds without
//! touching a worker) and behind them a coalescing pass: a worker claiming a
//! job absorbs queued duplicates into its run — answers stay bit-identical
//! to fresh runs either way.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod balance;
pub mod config;
pub mod daemon;
pub mod metrics;
pub mod pipeline;
pub mod runtime;
pub mod service;
pub mod session;
pub mod sync_cache;

pub use agent::{split_by_capacity, split_by_capacity_into, Agent};
pub use balance::{
    assign_devices_to_nodes, balance_capacities, balance_partitioning, estimate_makespan,
    BalanceError, CapacityPlan, PartitionPlan,
};
pub use config::{ExecutionMode, MiddlewareConfig, PipelineMode};
pub use daemon::{merge_addressed, ChunkStaging, Daemon};
pub use metrics::AgentStats;
pub use pipeline::{BlockSizeChoice, LemmaCase, PipelineCoefficients};
pub use runtime::{RuntimeError, ThreadedAgent, ThreadedNodes};
pub use service::{
    CachePolicy, GraphService, JobOptions, JobPriority, JobStatus, JobTicket, ServiceBuilder,
    ServiceError, ServiceStats, StatsSnapshot,
};
pub use session::{
    system_label, RunOutcome, RunOverrides, Session, SessionBuilder, SessionError, SessionSpec,
};
pub use sync_cache::{CacheStats, VertexCache};
