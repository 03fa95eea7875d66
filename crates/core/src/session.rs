//! The session API: deploy once, run many times.
//!
//! GX-Plug's central claim is that accelerators are *plugged in* as
//! long-lived daemons that an upper system attaches to — so the public API
//! separates the *deployed system* from the *submitted job*, the way GraphX
//! separates a graph from the queries run against it:
//!
//! * [`SessionBuilder`] describes a deployment fluently (graph, partitioning,
//!   upper-system profile, network, plugged devices, middleware
//!   configuration) and validates it with typed [`SessionError`]s instead of
//!   panics deep inside the runner;
//! * [`Session::run`] / [`Session::run_native`] submit one algorithm run to
//!   the deployed cluster.  Repeated runs — parameter sweeps, multi-algorithm
//!   serving, benchmarks — reuse the deployed graph, partitioning metadata
//!   and daemon device contexts: the cluster is built once and *reset*
//!   between runs ([`Cluster::reset_for`]), and the daemons stay connected,
//!   so every accelerated run after the first accelerated one reports
//!   `setup == 0` (native runs never touch the daemons).
//!
//! Per-run middleware state (agent caches, statistics, the edge-topology
//! registration) is created fresh for every run, which keeps a reused
//! session **bit-identical** to a sequence of one-shot runs — the only
//! difference is the amortised deployment cost (device initialisation and
//! host-side cluster construction).  The `determinism` integration test
//! checks this exactly.
//!
//! Every accelerated run takes one path: one `std::thread::scope` around the
//! run and one [`ThreadedAgent`] per node, driven by [`ThreadedNodes`].
//! [`MiddlewareConfig::execution`] only sets the run's fan-out floor.  Under
//! the default [`Threaded`](crate::ExecutionMode::Threaded) mode a superstep
//! below the floor runs on the calling thread and a larger one lends its
//! nodes to parked per-run node lanes, every daemon share of a node running
//! on the node's thread — so a run of small supersteps creates no thread at
//! all.
//! [`Serial`](crate::ExecutionMode::Serial) is the same run with a floor no
//! work reaches.  The two modes produce bit-identical results, and
//! [`Session::set_config`] can switch any middleware knob between runs on
//! the same deployment (ablations without re-deploying).

use crate::config::MiddlewareConfig;
use crate::daemon::Daemon;
use crate::metrics::AgentStats;
use crate::runtime::{RuntimeError, ThreadedAgent, ThreadedNodes};
use gxplug_accel::{BackendKind, DeviceKind, DeviceSpec, SimDuration};
use gxplug_engine::cluster::{Cluster, SyncPolicy};
use gxplug_engine::metrics::RunReport;
use gxplug_engine::network::NetworkModel;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::mutate::{MutationScope, ResolvedMutation};
use gxplug_graph::partition::Partitioning;
use gxplug_graph::view::{TripletBuffer, ViewStats};
use gxplug_ipc::key::KeyGenerator;
use std::fmt;
use std::sync::Arc;
use std::thread;

/// Iteration cap used when [`SessionBuilder::max_iterations`] is not called.
pub const DEFAULT_MAX_ITERATIONS: usize = 10_000;

/// The outcome of an accelerated (or native) run.
#[derive(Debug, Clone)]
pub struct RunOutcome<V> {
    /// The cluster-level report (iterations, timing, convergence).
    pub report: RunReport,
    /// Per-agent middleware statistics (empty for native runs).
    pub agent_stats: Vec<AgentStats>,
    /// The final vertex values collected from the master copies.
    pub values: Vec<V>,
}

/// Typed validation errors of the session API.
///
/// These replace the panics (and silent misconfigurations) of the legacy
/// free-function runners: a deployment that cannot work is rejected at
/// [`SessionBuilder::build`] time with a description of what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The builder was never given a partitioning
    /// ([`SessionBuilder::partitioned_by`]).
    MissingPartitioning,
    /// The partitioning was made for another graph: its vertex or edge
    /// count differs from the deployed graph's.
    PartitioningMismatch {
        /// `(vertices, edges)` of the deployed graph.
        graph: (usize, usize),
        /// `(vertices, edges)` the partitioning covers.
        partitioning: (usize, usize),
    },
    /// `devices_per_node` does not have exactly one device list per
    /// partition of the deployed graph.
    DeviceCountMismatch {
        /// Number of partitions (distributed nodes) in the deployment.
        partitions: usize,
        /// Number of per-node device lists supplied.
        device_lists: usize,
    },
    /// A node's device list is empty — every node of an accelerated
    /// deployment needs at least one device to plug in.
    EmptyDeviceList {
        /// The node whose device list is empty.
        node: usize,
    },
    /// [`Session::run`] was called on a session deployed without devices
    /// (use [`Session::run_native`], or rebuild with
    /// [`SessionBuilder::devices`]).
    NoDevices,
    /// The run aborted with a middleware runtime error (e.g. a device kernel
    /// rejected a block).  The session itself stays usable: the daemons were
    /// recovered, so a corrected configuration can be submitted next.
    Runtime(RuntimeError),
    /// The operating system refused to start one of a
    /// [`GraphService`](crate::GraphService)'s scheduler threads.  The
    /// workers that did start were stopped and joined before the error
    /// returned.
    WorkerSpawn(std::io::ErrorKind),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingPartitioning => {
                write!(
                    f,
                    "the session needs a partitioning (SessionBuilder::partitioned_by)"
                )
            }
            SessionError::PartitioningMismatch {
                graph,
                partitioning,
            } => write!(
                f,
                "the partitioning covers {} vertices and {} edges but the graph has {} and {}",
                partitioning.0, partitioning.1, graph.0, graph.1
            ),
            SessionError::DeviceCountMismatch {
                partitions,
                device_lists,
            } => write!(
                f,
                "one device list per distributed node is required: \
                 the partitioning has {partitions} parts but {device_lists} device lists were given"
            ),
            SessionError::EmptyDeviceList { node } => write!(
                f,
                "node {node} has an empty device list: every node of an accelerated \
                 deployment needs at least one device"
            ),
            SessionError::NoDevices => write!(
                f,
                "the session was deployed without devices; plug devices in with \
                 SessionBuilder::devices or use Session::run_native"
            ),
            SessionError::Runtime(error) => write!(f, "the run aborted: {error}"),
            SessionError::WorkerSpawn(kind) => {
                write!(f, "a service worker thread could not be started: {kind}")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Runtime(error) => Some(error),
            _ => None,
        }
    }
}

impl From<RuntimeError> for SessionError {
    fn from(error: RuntimeError) -> Self {
        SessionError::Runtime(error)
    }
}

/// Builds a human-readable system label such as `"PowerGraph+GPU"` from the
/// device specs plugged into each node.
pub fn system_label(profile: &RuntimeProfile, devices_per_node: &[Vec<DeviceSpec>]) -> String {
    let mut has_gpu = false;
    let mut has_cpu = false;
    let mut has_fpga = false;
    for device in devices_per_node.iter().flatten() {
        match device.kind {
            DeviceKind::Gpu => has_gpu = true,
            DeviceKind::Cpu => has_cpu = true,
            DeviceKind::Fpga => has_fpga = true,
        }
    }
    let accel = match (has_gpu, has_cpu, has_fpga) {
        (true, false, false) => "GPU",
        (false, true, false) => "CPU",
        (false, false, true) => "FPGA",
        (false, false, false) => return profile.name.to_string(),
        _ => "Mixed",
    };
    format!("{}+{}", profile.name, accel)
}

/// Builds the named daemons of one node from its device specs.
fn daemons_for_node(
    key_generator: &KeyGenerator,
    node_id: usize,
    specs: &[DeviceSpec],
) -> Vec<Daemon> {
    specs
        .iter()
        .enumerate()
        .map(|(daemon_index, spec)| {
            let key = key_generator.key_for(node_id, daemon_index);
            Daemon::new(
                format!("node{node_id}-daemon{daemon_index}"),
                spec.build(),
                key,
            )
        })
        .collect()
}

/// The deterministic key-space seed of a session's daemons.
const SESSION_KEY_SEED: u32 = 0xC1;

/// Builds the per-node daemon lists of a deployment from its specs.
fn daemons_for_deployment(specs: &[Vec<DeviceSpec>]) -> Vec<Vec<Daemon>> {
    let key_generator = KeyGenerator::new(SESSION_KEY_SEED);
    specs
        .iter()
        .enumerate()
        .map(|(node_id, node_specs)| daemons_for_node(&key_generator, node_id, node_specs))
        .collect()
}

/// An owned, graph-independent description of a deployment: everything a
/// [`SessionBuilder`] collects except the graph reference itself.
///
/// The builder is the fluent front-end for deploying *one* session against a
/// borrowed graph.  The spec is the piece a [`GraphService`](crate::service)
/// keeps: it is `Clone`, it owns its partitioning and device lists, and
/// [`SessionSpec::build_session`] stamps out an identical deployment against
/// any reference to the graph — which is how every scheduler worker of a
/// service gets its own pooled session of the same shape.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub(crate) partitioning: Option<Partitioning>,
    pub(crate) profile: RuntimeProfile,
    pub(crate) network: NetworkModel,
    pub(crate) devices: Vec<Vec<DeviceSpec>>,
    pub(crate) backend: Option<BackendKind>,
    pub(crate) config: MiddlewareConfig,
    pub(crate) dataset: String,
    pub(crate) max_iterations: usize,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            partitioning: None,
            profile: RuntimeProfile::powergraph(),
            network: NetworkModel::datacenter(),
            devices: Vec::new(),
            backend: None,
            config: MiddlewareConfig::default(),
            dataset: "unnamed".to_string(),
            max_iterations: DEFAULT_MAX_ITERATIONS,
        }
    }
}

impl SessionSpec {
    /// Validates the deployment description without building anything.
    ///
    /// # Errors
    /// The same typed errors as [`SessionBuilder::build`]:
    /// [`SessionError::MissingPartitioning`],
    /// [`SessionError::DeviceCountMismatch`] and
    /// [`SessionError::EmptyDeviceList`].
    pub fn validate(&self) -> Result<(), SessionError> {
        let partitioning = self
            .partitioning
            .as_ref()
            .ok_or(SessionError::MissingPartitioning)?;
        if !self.devices.is_empty() {
            if self.devices.len() != partitioning.num_parts() {
                return Err(SessionError::DeviceCountMismatch {
                    partitions: partitioning.num_parts(),
                    device_lists: self.devices.len(),
                });
            }
            if let Some(node) = self.devices.iter().position(Vec::is_empty) {
                return Err(SessionError::EmptyDeviceList { node });
            }
        }
        Ok(())
    }

    /// [`SessionSpec::validate`], plus
    /// [`SessionError::PartitioningMismatch`] unless the partitioning covers
    /// exactly `graph`'s vertices and edges.
    pub(crate) fn validate_for<V, E>(
        &self,
        graph: &PropertyGraph<V, E>,
    ) -> Result<(), SessionError> {
        self.validate()?;
        let sizes = (graph.num_vertices(), graph.num_edges());
        match &self.partitioning {
            Some(p) if (p.num_vertices(), p.num_edges()) != sizes => {
                Err(SessionError::PartitioningMismatch {
                    graph: sizes,
                    partitioning: (p.num_vertices(), p.num_edges()),
                })
            }
            _ => Ok(()),
        }
    }

    /// Deploys a fresh [`Session`] of this shape against `graph`.
    ///
    /// Every call produces an independent deployment (its own daemons,
    /// cluster and pooled buffers); a job service calls this once per worker.
    ///
    /// # Errors
    /// See [`SessionSpec::validate`]; also
    /// [`SessionError::PartitioningMismatch`] if the partitioning's vertex
    /// or edge count differs from `graph`'s.
    pub fn build_session<'g, V, E>(
        &self,
        graph: &'g PropertyGraph<V, E>,
    ) -> Result<Session<'g, V, E>, SessionError>
    where
        V: Clone + PartialEq + Send + Sync,
        E: Clone + Send + Sync,
    {
        self.clone().into_session(graph)
    }

    /// Consuming flavour of [`SessionSpec::build_session`].
    pub fn into_session<'g, V, E>(
        self,
        graph: &'g PropertyGraph<V, E>,
    ) -> Result<Session<'g, V, E>, SessionError>
    where
        V: Clone + PartialEq + Send + Sync,
        E: Clone + Send + Sync,
    {
        self.validate_for(graph)?;
        let partitioning = self.partitioning.ok_or(SessionError::MissingPartitioning)?;
        let mut specs = self.devices;
        if let Some(backend) = self.backend {
            for spec in specs.iter_mut().flatten() {
                spec.backend = backend;
            }
        }
        let system = system_label(&self.profile, &specs);
        let daemons = daemons_for_deployment(&specs);
        Ok(Session {
            deployment: Deployment {
                graph,
                partitioning,
                profile: self.profile,
                network: self.network,
                cluster: None,
                pending_mutations: Vec::new(),
                scope: MutationScope::new(),
                warm: None,
            },
            config: self.config,
            dataset: self.dataset,
            max_iterations: self.max_iterations,
            system,
            specs,
            daemons,
            triplet_pool: Vec::new(),
        })
    }
}

/// Per-job overrides of a session's middleware configuration and iteration
/// cap.
///
/// A deployed session (or a pooled service worker) serves many jobs; some of
/// them want their own knobs — a different pipeline mode, a tighter
/// iteration budget — without mutating the session for every job after them.
/// `RunOverrides` routes those knobs through a single run:
/// [`Session::run_with`] applies them for that job only, the cluster is
/// re-seeded per job through [`Cluster::reset_for`] as always, and the
/// session's own configuration is untouched.  `None` fields fall back to the
/// session's values, so [`RunOverrides::default`] reproduces
/// [`Session::run`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunOverrides {
    /// Replaces the session's [`MiddlewareConfig`] for this run.
    pub config: Option<MiddlewareConfig>,
    /// Replaces the session's iteration cap for this run.
    pub max_iterations: Option<usize>,
}

impl RunOverrides {
    /// No overrides: the session's own configuration and cap apply.
    pub fn none() -> Self {
        Self::default()
    }

    /// Overrides the middleware configuration for this run.
    pub fn with_config(mut self, config: MiddlewareConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Overrides the iteration cap for this run.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }
}

/// Fluent description of a GX-Plug deployment.
///
/// Required: the graph (constructor) and a partitioning
/// ([`SessionBuilder::partitioned_by`]).  Everything else has defaults: the
/// PowerGraph-like profile, the datacenter network, no devices (native-only
/// session), [`MiddlewareConfig::default`], dataset label `"unnamed"` and a
/// cap of [`DEFAULT_MAX_ITERATIONS`] iterations per run.
///
/// ```
/// use gxplug_accel::presets::gpu_v100;
/// use gxplug_core::{SessionBuilder, SessionError};
/// use gxplug_graph::generators::{Generator, Rmat};
/// use gxplug_graph::graph::PropertyGraph;
/// use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
///
/// let list = Rmat::new(6, 4.0).generate(3);
/// let graph: PropertyGraph<f64, f64> =
///     PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap();
/// let partitioning = GreedyVertexCutPartitioner::default()
///     .partition(&graph, 2)
///     .unwrap();
/// // Misconfigured deployments are typed errors, not panics: here one device
/// // list is missing for the two-node partitioning.
/// let err = SessionBuilder::new(&graph)
///     .partitioned_by(partitioning)
///     .devices(vec![vec![gpu_v100("n0-g0")]])
///     .build()
///     .unwrap_err();
/// assert!(matches!(err, SessionError::DeviceCountMismatch { .. }));
/// ```
#[derive(Debug)]
pub struct SessionBuilder<'g, V, E> {
    graph: &'g PropertyGraph<V, E>,
    spec: SessionSpec,
}

impl<'g, V, E> SessionBuilder<'g, V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    /// Starts describing a deployment of `graph`.
    pub fn new(graph: &'g PropertyGraph<V, E>) -> Self {
        Self {
            graph,
            spec: SessionSpec::default(),
        }
    }

    /// The partitioning of the graph over distributed nodes (required).
    pub fn partitioned_by(mut self, partitioning: Partitioning) -> Self {
        self.spec.partitioning = Some(partitioning);
        self
    }

    /// The upper system's runtime profile (default: PowerGraph-like).
    pub fn profile(mut self, profile: RuntimeProfile) -> Self {
        self.spec.profile = profile;
        self
    }

    /// The interconnect model (default: datacenter).
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.spec.network = network;
        self
    }

    /// The devices plugged into each node, one spec list per partition.
    /// Leave unset for a native-only session.
    pub fn devices(mut self, devices_per_node: Vec<Vec<DeviceSpec>>) -> Self {
        self.spec.devices = devices_per_node;
        self
    }

    /// Selects the [`BackendKind`] every plugged device is built with,
    /// overriding the per-spec selection.  Leave unset to honour each spec's
    /// own backend (the presets default to [`BackendKind::Sim`]).
    ///
    /// Backends are interchangeable behind the kernel ABI: whichever backend
    /// executes the kernels, vertex results are bit-identical — only real
    /// wall-clock time changes.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.spec.backend = Some(backend);
        self
    }

    /// The middleware configuration (default: all optimisations on,
    /// threaded execution).
    pub fn config(mut self, config: MiddlewareConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// The dataset label carried into run reports (default: `"unnamed"`).
    pub fn dataset(mut self, dataset: impl Into<String>) -> Self {
        self.spec.dataset = dataset.into();
        self
    }

    /// The per-run iteration cap (default: [`DEFAULT_MAX_ITERATIONS`];
    /// algorithms with their own caps converge earlier).
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.spec.max_iterations = max_iterations;
        self
    }

    /// Validates the deployment and builds the [`Session`].
    ///
    /// # Errors
    /// [`SessionError::MissingPartitioning`] without a partitioning;
    /// [`SessionError::PartitioningMismatch`] if the partitioning's vertex or
    /// edge count differs from the graph's;
    /// [`SessionError::DeviceCountMismatch`] if the number of device lists
    /// does not match the partition count; [`SessionError::EmptyDeviceList`]
    /// if some node of an accelerated deployment has no device.
    pub fn build(self) -> Result<Session<'g, V, E>, SessionError> {
        self.spec.into_session(self.graph)
    }
}

/// What a session deploys and carries from run to run: the partitioned
/// graph, the upper system's profile and network, and the cluster built from
/// them, with the mutations and the warm state it has seen.
struct Deployment<'g, V, E> {
    graph: &'g PropertyGraph<V, E>,
    partitioning: Partitioning,
    profile: RuntimeProfile,
    network: NetworkModel,
    /// Built on the first run, reset (not rebuilt) on every further run.
    cluster: Option<Cluster<V, E>>,
    /// Mutation batches accepted before the cluster was first built; replayed
    /// in log order right after [`Cluster::build`], so a lazily-deployed
    /// session catches up with the mutated graph.
    pending_mutations: Vec<Arc<ResolvedMutation<V, E>>>,
    /// What the mutations since the last completed run touched — the input
    /// to [`GraphAlgorithm::rescope`] when the next run can go incremental.
    scope: MutationScope,
    /// Identity of the run whose converged values currently sit in the
    /// cluster, if any — the warm state an incremental recompute may
    /// continue from.
    warm: Option<WarmState>,
}

impl<V, E> Deployment<'_, V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    /// Builds the cluster on the first run, resets it on every further run —
    /// or, after live mutations, re-seeds just the dirty frontier when
    /// `algorithm` is warm-continuing and opts in.
    fn prepare_cluster<A>(&mut self, algorithm: &A) -> &mut Cluster<V, E>
    where
        A: GraphAlgorithm<V, E>,
    {
        let built_now = self.cluster.is_none();
        let cluster = self.cluster.get_or_insert_with(|| {
            Cluster::build(
                self.graph,
                self.partitioning.clone(),
                algorithm,
                self.profile,
                self.network,
            )
        });
        let mutated = !self.scope.is_empty();
        for delta in std::mem::take(&mut self.pending_mutations) {
            cluster.apply_mutations(&delta);
        }
        if built_now && !mutated {
            // A fresh build is already initialised for `algorithm`.
            return cluster;
        }
        let seed = if mutated {
            self.warm
                .as_ref()
                .filter(|warm| {
                    warm.converged
                        && warm.name == algorithm.name()
                        && warm.cache_key == algorithm.cache_key()
                })
                .and_then(|_| algorithm.rescope(&self.scope))
        } else {
            None
        };
        match seed {
            Some(seed) => cluster.seed_incremental(algorithm, &seed, &self.scope.added_vertices),
            None => cluster.reset_for(algorithm),
        }
        self.scope.clear();
        cluster
    }
}

/// A deployed GX-Plug system: the partitioned graph distributed over a
/// simulated cluster, with the configured daemons plugged into its nodes.
///
/// Built by [`SessionBuilder`].  [`Session::run`] submits one algorithm run
/// through the middleware; [`Session::run_native`] runs the upper system
/// without accelerators on the same deployment (apples-to-apples baseline).
/// The deployment — cluster structure and daemon device contexts — is reused
/// across runs: only the first run pays the setup cost.
pub struct Session<'g, V, E> {
    deployment: Deployment<'g, V, E>,
    config: MiddlewareConfig,
    dataset: String,
    max_iterations: usize,
    system: String,
    /// The device specs the deployment was built from (backend overrides
    /// applied), kept so the backend can be swapped between runs.
    specs: Vec<Vec<DeviceSpec>>,
    /// One daemon list per node; daemons stay connected between runs.
    daemons: Vec<Vec<Daemon>>,
    /// One pooled block buffer per node (one pipeline block of triplets),
    /// installed into the run's agents and recovered (and released)
    /// afterwards: a reused session refills the same warm buffers run after
    /// run instead of re-growing fresh ones.
    triplet_pool: Vec<Arc<TripletBuffer<V, E>>>,
}

/// Identity of the converged values left in a session's cluster by its most
/// recent run.  An incremental recompute is only sound when the *same*
/// algorithm (name and parameters) continues from its own converged state.
struct WarmState {
    name: &'static str,
    cache_key: Option<String>,
    converged: bool,
}

impl<V, E> fmt::Debug for Session<'_, V, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("system", &self.system)
            .field("nodes", &self.deployment.partitioning.num_parts())
            .field("daemons", &self.daemons.iter().map(Vec::len).sum::<usize>())
            .field("deployed", &self.deployment.cluster.is_some())
            .finish()
    }
}

impl<'g, V, E> Session<'g, V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    /// Starts a [`SessionBuilder`] for `graph` (same as
    /// [`SessionBuilder::new`]).
    pub fn builder(graph: &'g PropertyGraph<V, E>) -> SessionBuilder<'g, V, E> {
        SessionBuilder::new(graph)
    }

    /// Number of distributed nodes in the deployment.
    pub fn num_nodes(&self) -> usize {
        self.deployment.partitioning.num_parts()
    }

    /// The partitioning the session was deployed with.
    pub fn partitioning(&self) -> &Partitioning {
        &self.deployment.partitioning
    }

    /// The middleware configuration used for the next run.
    pub fn config(&self) -> &MiddlewareConfig {
        &self.config
    }

    /// The system label reported by accelerated runs (e.g.
    /// `"PowerGraph+GPU"`).
    pub fn system(&self) -> &str {
        &self.system
    }

    /// Whether any devices are plugged into this session.
    pub fn has_devices(&self) -> bool {
        !self.daemons.is_empty()
    }

    /// Replaces the middleware configuration for subsequent runs.
    ///
    /// Middleware state is per run, so this is exactly as if the session had
    /// been deployed with `config` — ablation sweeps can reuse one deployment
    /// for every configuration.
    pub fn set_config(&mut self, config: MiddlewareConfig) {
        self.config = config;
    }

    /// Swaps the accelerator backend of every plugged device for subsequent
    /// runs on this deployment.
    ///
    /// Backends are interchangeable behind the kernel ABI, so the swap
    /// changes *only* real wall-clock behaviour: vertex results (and every
    /// simulated metric) stay bit-identical run to run.  The daemons are
    /// rebuilt from the stored specs, which tears down the old device
    /// contexts — the next accelerated run pays setup again, exactly like a
    /// fresh deployment.  A no-op on sessions without devices.
    pub fn set_backend(&mut self, backend: BackendKind) {
        if self.specs.is_empty() {
            return;
        }
        self.close();
        for spec in self.specs.iter_mut().flatten() {
            spec.backend = backend;
        }
        self.daemons = daemons_for_deployment(&self.specs);
    }

    /// Applies one resolved mutation batch to the deployed cluster in place,
    /// or queues it for replay right after the cluster is first built.
    ///
    /// The session's own graph reference stays what it was deployed with —
    /// the mutation lives in the cluster's per-node state (and in the queue
    /// until there is one).  Batches must arrive in log order, each exactly
    /// once; the [`GraphService`](crate::service) guarantees that by fanning
    /// every accepted batch to its worker sessions under the log lock.
    ///
    /// The batch's footprint is folded into the session's mutation scope:
    /// the next run either re-seeds incrementally from the accumulated dirty
    /// frontier (when the algorithm's [`GraphAlgorithm::rescope`] returns a
    /// seed and it is continuing from its own converged values) or falls
    /// back to a full
    /// [`Cluster::reset_for`].
    pub fn apply_mutations(&mut self, delta: &Arc<ResolvedMutation<V, E>>) {
        let deployment = &mut self.deployment;
        deployment.scope.absorb(delta);
        match deployment.cluster.as_mut() {
            Some(cluster) => cluster.apply_mutations(delta),
            None => deployment.pending_mutations.push(Arc::clone(delta)),
        }
    }

    /// Drops the warm converged state of the most recent run, forcing the
    /// next run after mutations to re-initialise every vertex even if the
    /// algorithm supports incremental recompute.  Benchmarks use this to
    /// measure the full-recompute baseline on one deployment; it has no
    /// effect on results (an incremental recompute is bit-identical to the
    /// full one by contract).
    pub fn forget_warm_state(&mut self) {
        self.deployment.warm = None;
    }

    /// Takes the per-node block buffers out of the pool for a run,
    /// initialising them on the first accelerated run.
    fn take_triplet_pool(&mut self) -> Vec<Arc<TripletBuffer<V, E>>> {
        let pool = std::mem::take(&mut self.triplet_pool);
        let nodes = self.num_nodes();
        if pool.len() == nodes {
            pool
        } else {
            (0..nodes).map(|_| Arc::new(TripletBuffer::new())).collect()
        }
    }

    /// Usage statistics of the pooled per-node block buffers (empty before
    /// the first accelerated run).  At steady state — a reused session
    /// re-running workloads it has seen — `reallocations` stops growing: the
    /// hot path refills the warm buffers without touching the allocator.
    pub fn triplet_buffer_stats(&self) -> Vec<ViewStats> {
        self.triplet_pool
            .iter()
            .map(|buffer| buffer.stats())
            .collect()
    }

    /// Runs `algorithm` through the GX-Plug middleware on the deployed
    /// cluster: one agent per distributed node, bridging the node's plugged
    /// daemons.
    ///
    /// The first run pays the device initialisation (`report.setup`); every
    /// further run reuses the live daemon contexts and reports zero setup.
    ///
    /// # Errors
    /// [`SessionError::NoDevices`] if the session was deployed without
    /// devices; [`SessionError::Runtime`] if the run aborted on a middleware
    /// runtime error (e.g. a device kernel rejecting a mis-sized block).  On
    /// a runtime error the daemons and pooled buffers are recovered, so the
    /// session stays usable for further runs.
    ///
    /// # Panics
    /// Panics if a kernel panics while computing (the kernel's own panic is
    /// propagated, whichever thread it ran on).  The run's daemons are lost
    /// in the unwind, so a session whose run panicked is poisoned: if the
    /// panic is caught, further [`Session::run`] calls report
    /// [`SessionError::NoDevices`].
    pub fn run<A>(&mut self, algorithm: &A) -> Result<RunOutcome<V>, SessionError>
    where
        A: GraphAlgorithm<V, E>,
    {
        self.run_with(algorithm, RunOverrides::none())
    }

    /// [`Session::run`] with per-job [`RunOverrides`].
    ///
    /// The overrides apply to *this run only*: the session's own
    /// configuration and iteration cap are untouched, so concurrent callers
    /// of a pooled deployment (the scheduler workers of a
    /// [`GraphService`](crate::service)) can give every job its own knobs
    /// without session-wide mutation ordering mattering.
    ///
    /// # Errors
    /// See [`Session::run`].
    pub fn run_with<A>(
        &mut self,
        algorithm: &A,
        overrides: RunOverrides,
    ) -> Result<RunOutcome<V>, SessionError>
    where
        A: GraphAlgorithm<V, E>,
    {
        if self.daemons.is_empty() {
            return Err(SessionError::NoDevices);
        }
        let pool = self.take_triplet_pool();
        let config = overrides.config.unwrap_or(self.config);
        let max_iterations = overrides.max_iterations.unwrap_or(self.max_iterations);
        let sync_policy = if config.skipping {
            SyncPolicy::SkipWhenLocal
        } else {
            SyncPolicy::AlwaysSync
        };
        let profile = self.deployment.profile;
        let cluster = self.deployment.prepare_cluster(algorithm);
        let daemons = std::mem::take(&mut self.daemons);
        // One scope encloses the run: the agents' lanes spawn their workers
        // on it if and when the work crosses the floor `config.execution`
        // sets — never in a serial run.
        let (report, agent_stats, daemons, pool) = thread::scope(|scope| {
            let mut agents: Vec<ThreadedAgent<'_, '_, V, E, A::Msg>> = daemons
                .into_iter()
                .zip(pool)
                .enumerate()
                .map(|(node_id, (node_daemons, buffer))| {
                    let mut agent = ThreadedAgent::spawn(
                        scope,
                        node_id,
                        node_daemons,
                        profile,
                        config,
                        cluster.node(node_id).num_vertices(),
                    );
                    agent.install_triplet_buffer(buffer);
                    agent
                })
                .collect();

            // connect(): device contexts are initialised in parallel across
            // nodes, so the setup cost is the slowest node's initialisation —
            // and zero when the session already connected them on an earlier
            // run.
            let setup = agents
                .iter_mut()
                .map(ThreadedAgent::connect)
                .fold(SimDuration::ZERO, SimDuration::max);
            let report = cluster.run_phased(
                algorithm,
                &self.dataset,
                &self.system,
                max_iterations,
                sync_policy,
                setup,
                &mut ThreadedNodes {
                    agents: &mut agents,
                    algorithm,
                },
            );
            let agent_stats: Vec<AgentStats> = agents.iter().map(ThreadedAgent::stats).collect();
            // Stop the lanes WITHOUT disconnecting: the recovered daemons
            // keep their device contexts alive for the session's next run.
            let (daemons, pool): (Vec<Vec<Daemon>>, Vec<_>) = agents
                .into_iter()
                .map(|mut agent| {
                    let buffer = agent.take_triplet_buffer();
                    (agent.join(), buffer)
                })
                .unzip();
            (report, agent_stats, daemons, pool)
        });
        let collected = report.map(|report| (report, cluster.collect_values()));
        // Recover the deployment (daemons, warm buffers) before surfacing
        // any error, so a failed run does not poison the session.  The
        // block buffers keep their slots across a run's supersteps but are
        // released between runs: an idle session pins no attribute heap.
        self.daemons = daemons;
        self.triplet_pool = pool;
        for buffer in &mut self.triplet_pool {
            if let Some(buffer) = Arc::get_mut(buffer) {
                buffer.release();
            }
        }
        // An aborted run leaves partially-updated vertex values behind —
        // nothing an incremental recompute may continue from.
        self.deployment.warm = None;
        let (report, values) = collected?;
        self.deployment.warm = Some(WarmState {
            name: algorithm.name(),
            cache_key: algorithm.cache_key(),
            converged: report.converged,
        });
        Ok(RunOutcome {
            report,
            agent_stats,
            values,
        })
    }

    /// Runs `algorithm` natively (no accelerators) on the same deployed
    /// cluster, using the configured [`ExecutionMode`](crate::ExecutionMode).
    pub fn run_native<A>(&mut self, algorithm: &A) -> RunOutcome<V>
    where
        A: GraphAlgorithm<V, E>,
    {
        self.run_native_with(algorithm, RunOverrides::none())
    }

    /// [`Session::run_native`] with per-job [`RunOverrides`] (only the
    /// execution mode and iteration cap matter natively — the middleware
    /// knobs have nothing to configure).
    pub fn run_native_with<A>(&mut self, algorithm: &A, overrides: RunOverrides) -> RunOutcome<V>
    where
        A: GraphAlgorithm<V, E>,
    {
        let cluster = self.deployment.prepare_cluster(algorithm);
        let report = cluster.run_native_mode(
            algorithm,
            &self.dataset,
            overrides.max_iterations.unwrap_or(self.max_iterations),
            overrides.config.unwrap_or(self.config).execution,
        );
        let values = cluster.collect_values();
        self.deployment.warm = Some(WarmState {
            name: algorithm.name(),
            cache_key: algorithm.cache_key(),
            converged: report.converged,
        });
        RunOutcome {
            report,
            agent_stats: Vec::new(),
            values,
        }
    }
}

impl<V, E> Session<'_, V, E> {
    /// Tears the deployment down: shuts every daemon's device context down.
    ///
    /// Idempotent — closing twice is a no-op, because [`Daemon::shutdown`]
    /// is.  A dropped session needs no close: its daemons drop their
    /// backends, and with them any worker threads.  A closed session is
    /// *not* poisoned: the next
    /// accelerated run reconnects the daemons and pays the device
    /// initialisation again, exactly like a fresh deployment.
    pub fn close(&mut self) {
        for daemon in self.daemons.iter_mut().flatten() {
            daemon.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineMode;
    use gxplug_accel::presets;
    use gxplug_engine::template::AddressedMessage;
    use gxplug_graph::generators::{Generator, Rmat};
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
    use gxplug_graph::types::{Triplet, VertexId};

    struct Sssp {
        sources: Vec<VertexId>,
    }

    impl GraphAlgorithm<f64, f64> for Sssp {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _d: usize) -> f64 {
            if self.sources.contains(&v) {
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
            if t.src_attr.is_finite() {
                out.push(AddressedMessage::new(t.dst, t.src_attr + t.edge_attr));
            }
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn msg_apply(&self, _v: VertexId, cur: &f64, msg: &f64, _i: usize) -> Option<f64> {
            (msg + 1e-12 < *cur).then_some(*msg)
        }
        fn initial_active(&self, _n: usize) -> Option<Vec<VertexId>> {
            Some(self.sources.clone())
        }
        fn name(&self) -> &'static str {
            "sssp-bf"
        }
    }

    fn test_graph() -> PropertyGraph<f64, f64> {
        let list = Rmat::new(11, 8.0).generate(11);
        PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap()
    }

    fn gpus_per_node(nodes: usize, per_node: usize) -> Vec<Vec<DeviceSpec>> {
        (0..nodes)
            .map(|n| {
                (0..per_node)
                    .map(|g| presets::gpu_v100(format!("n{n}g{g}")))
                    .collect()
            })
            .collect()
    }

    fn partitioned(graph: &PropertyGraph<f64, f64>, parts: usize) -> Partitioning {
        GreedyVertexCutPartitioner::default()
            .partition(graph, parts)
            .unwrap()
    }

    #[test]
    fn accelerated_run_matches_native_results() {
        let graph = test_graph();
        let algorithm = Sssp { sources: vec![0] };
        let parts = 3;
        let partitioning = partitioned(&graph, parts);
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioning)
            .devices(gpus_per_node(parts, 1))
            .dataset("rmat")
            .max_iterations(200)
            .build()
            .unwrap();
        let native = session.run_native(&algorithm);
        let accelerated = session.run(&algorithm).unwrap();
        assert!(native.report.converged);
        assert!(accelerated.report.converged);
        assert_eq!(native.values.len(), accelerated.values.len());
        for (v, (a, b)) in native.values.iter().zip(&accelerated.values).enumerate() {
            let same = (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9;
            assert!(same, "vertex {v}: native {a} vs accelerated {b}");
        }
    }

    #[test]
    fn gpu_acceleration_beats_native_powergraph() {
        let graph = test_graph();
        let algorithm = Sssp {
            sources: vec![0, 1, 2, 3],
        };
        let parts = 2;
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, parts))
            .devices(gpus_per_node(parts, 1))
            .dataset("rmat")
            .max_iterations(200)
            .build()
            .unwrap();
        let native = session.run_native(&algorithm);
        let accelerated = session.run(&algorithm).unwrap();
        // Compare iteration time excluding the one-off GPU initialisation
        // (which amortises over a session's lifetime; this test graph is
        // small).
        let native_iter_time = native.report.total_time();
        let accel_iter_time = accelerated.report.total_time() - accelerated.report.setup;
        assert!(
            accel_iter_time < native_iter_time,
            "accelerated {accel_iter_time:?} should beat native {native_iter_time:?}"
        );
        assert_eq!(accelerated.report.system, "PowerGraph+GPU");
    }

    #[test]
    fn agent_stats_are_collected_per_node() {
        let graph = test_graph();
        let algorithm = Sssp { sources: vec![0] };
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .devices(gpus_per_node(2, 2))
            .profile(RuntimeProfile::graphx())
            .config(MiddlewareConfig::default().with_pipeline(PipelineMode::Optimal))
            .dataset("rmat")
            .max_iterations(200)
            .build()
            .unwrap();
        let outcome = session.run(&algorithm).unwrap();
        assert_eq!(outcome.agent_stats.len(), 2);
        let total_triplets: u64 = outcome
            .agent_stats
            .iter()
            .map(|s| s.triplets_processed)
            .sum();
        assert_eq!(total_triplets as usize, outcome.report.total_triplets());
        assert!(outcome.report.setup > SimDuration::ZERO);
        assert_eq!(outcome.report.system, "GraphX+GPU");
    }

    #[test]
    fn session_reuse_amortizes_setup_and_keeps_results_identical() {
        let graph = test_graph();
        let algorithm = Sssp { sources: vec![0] };
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .devices(gpus_per_node(2, 1))
            .dataset("rmat")
            .max_iterations(200)
            .build()
            .unwrap();
        let first = session.run(&algorithm).unwrap();
        let second = session.run(&algorithm).unwrap();
        // The deployment is paid exactly once...
        assert!(first.report.setup > SimDuration::ZERO);
        assert!(second.report.setup.is_zero());
        // ...and nothing else differs between the runs.
        assert_eq!(first.report.iterations, second.report.iterations);
        for (a, b) in first.values.iter().zip(&second.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sessions_serve_different_algorithms_on_one_deployment() {
        let graph = test_graph();
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .devices(gpus_per_node(2, 1))
            .max_iterations(200)
            .build()
            .unwrap();
        // A parameter sweep: each source set is its own submitted job.
        for sources in [vec![0], vec![1, 2], vec![5]] {
            let outcome = session.run(&Sssp { sources }).unwrap();
            assert!(outcome.report.converged);
        }
        // The cluster was reset in between: the last run is not polluted by
        // the earlier frontiers.
        let last = session.run(&Sssp { sources: vec![0] }).unwrap();
        let fresh = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .devices(gpus_per_node(2, 1))
            .max_iterations(200)
            .build()
            .unwrap()
            .run(&Sssp { sources: vec![0] })
            .unwrap();
        for (a, b) in last.values.iter().zip(&fresh.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn set_config_applies_to_subsequent_runs() {
        let graph = test_graph();
        let algorithm = Sssp { sources: vec![0] };
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .devices(gpus_per_node(2, 1))
            .max_iterations(200)
            .build()
            .unwrap();
        let optimised = session.run(&algorithm).unwrap();
        session.set_config(MiddlewareConfig::baseline());
        let baseline = session.run(&algorithm).unwrap();
        assert_eq!(session.config(), &MiddlewareConfig::baseline());
        for (a, b) in optimised.values.iter().zip(&baseline.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The baseline moves more data through the upper system.
        let moved = |stats: &[AgentStats]| {
            stats
                .iter()
                .map(|s| s.downloaded_entities + s.uploaded_entities)
                .sum::<u64>()
        };
        assert!(moved(&baseline.agent_stats) > moved(&optimised.agent_stats));
    }

    #[test]
    fn builder_requires_a_partitioning() {
        let graph = test_graph();
        let result = SessionBuilder::new(&graph).build();
        assert_eq!(
            result.err().map(|e| e.to_string()),
            Some(SessionError::MissingPartitioning.to_string())
        );
    }

    #[test]
    fn a_partitioning_of_another_graph_is_a_typed_error() {
        let graph = Arc::new(test_graph());
        // Fewer vertices, then as many vertices but fewer edges.
        for list in [
            Rmat::new(10, 8.0).generate(11),
            Rmat::new(11, 4.0).generate(11),
        ] {
            let other = PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap();
            let expected = SessionError::PartitioningMismatch {
                graph: (graph.num_vertices(), graph.num_edges()),
                partitioning: (other.num_vertices(), other.num_edges()),
            };
            let session = SessionBuilder::new(&*graph)
                .partitioned_by(partitioned(&other, 2))
                .devices(gpus_per_node(2, 1))
                .build();
            assert_eq!(session.err(), Some(expected.clone()));
            let service = crate::service::GraphService::builder(Arc::clone(&graph))
                .partitioned_by(partitioned(&other, 2))
                .build();
            assert_eq!(service.err(), Some(expected));
        }
    }

    #[test]
    fn device_list_length_must_match_partition_count() {
        let graph = test_graph();
        let result = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 3))
            .devices(gpus_per_node(2, 1))
            .build();
        match result {
            Err(SessionError::DeviceCountMismatch {
                partitions,
                device_lists,
            }) => {
                assert_eq!(partitions, 3);
                assert_eq!(device_lists, 2);
            }
            other => panic!("expected DeviceCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_device_lists_are_rejected() {
        let graph = test_graph();
        let result = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .devices(vec![vec![presets::gpu_v100("g0")], Vec::new()])
            .build();
        assert_eq!(
            result.err(),
            Some(SessionError::EmptyDeviceList { node: 1 })
        );
    }

    #[test]
    fn running_accelerated_without_devices_is_a_typed_error() {
        let graph = test_graph();
        let mut session = SessionBuilder::new(&graph)
            .partitioned_by(partitioned(&graph, 2))
            .build()
            .unwrap();
        let result = session.run(&Sssp { sources: vec![0] });
        assert_eq!(result.err(), Some(SessionError::NoDevices));
        // The native path still works on the same session.
        assert!(
            session
                .run_native(&Sssp { sources: vec![0] })
                .report
                .converged
        );
    }

    #[test]
    fn system_labels_follow_device_mix() {
        let profile = RuntimeProfile::powergraph();
        assert_eq!(system_label(&profile, &[]), "PowerGraph");
        assert_eq!(
            system_label(&profile, &[vec![presets::gpu_v100("g")]]),
            "PowerGraph+GPU"
        );
        assert_eq!(
            system_label(&profile, &[vec![presets::cpu_xeon_20c("c")]]),
            "PowerGraph+CPU"
        );
        assert_eq!(
            system_label(
                &profile,
                &[vec![presets::gpu_v100("g"), presets::cpu_xeon_20c("c")]]
            ),
            "PowerGraph+Mixed"
        );
    }
}
