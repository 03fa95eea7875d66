//! The threaded runtime: one agent, one lane per node.
//!
//! The paper's daemons "work as independent processes" (§IV-C); this module
//! gives the reproduction real concurrency instead of a single-threaded
//! simulation of it — **in proportion to the work**.  Handing work to another
//! thread costs two queue hops whatever its size, so, like a kernel launch in
//! the §III-A pipeline model, it is only worth it when the work amortises it.
//! One floor on a superstep's active-edge count, fixed per run by its
//! [`ExecutionMode`](crate::ExecutionMode)
//! ([`floor_for`]), decides superstep by
//! superstep:
//!
//! * [`ThreadedNodes`] is the cluster-level
//!   [`ComputePhase`].  A superstep
//!   whose nodes hold fewer active edges than the floor runs them in node
//!   order on the calling thread.  A larger one lends every node but the
//!   last — its `NodeState` and its agent, *by value* — to that node's parked
//!   [`Lane`], computes the last node itself, and takes everything back in
//!   node order at the BSP barrier.
//! * [`ThreadedAgent`] is an [`Agent`] plus that lane, the run's scope and
//!   the floor.  Its iteration is the agent's own
//!   [`Agent::process_iteration`]: every daemon share of the node runs, block
//!   by block, on whichever thread computes the node.
//!
//! [`ExecutionMode::Serial`](crate::ExecutionMode::Serial) is this runtime
//! with a floor of `usize::MAX`: nothing is ever lent, so a serial run spawns
//! no thread, by construction.  Neither does a threaded run whose supersteps
//! all stay below the floor; [`ThreadedAgent::threads_spawned`] counts what a
//! run did create.  A lane spawns its worker at its first loan, and the
//! worker sleeps on its job queue between loans.
//!
//! Determinism: where a node is computed never shows in the result.  Every
//! node's output lands in that node's slot and the slots are read in node
//! order, and within a node the agent folds messages in daemon, block and
//! triplet order.  A threaded run is therefore bit-identical to a serial one,
//! whichever side of the floor its supersteps fall on (covered by the
//! `determinism` integration test).
//!
//! Failures come home too.  A kernel that panics on a lane does not take its
//! loan with it: the unwind is caught, the node and agent return with the
//! payload, and only once every loan is back is the first panic in node order
//! re-raised, with the kernel's own payload
//! ([`settle`]).  A device error is returned
//! as the first [`RuntimeError`] in node order, as a serial run reports it.
//!
//! Worker threads are *scoped* (`std::thread::scope`), which is what lets
//! jobs borrow the algorithm without `'static` bounds or reference counting;
//! the scope guarantees every worker is joined before the borrowed data goes
//! away.

use crate::agent::Agent;
use crate::config::MiddlewareConfig;
use crate::daemon::Daemon;
use crate::metrics::AgentStats;
use gxplug_accel::{AccelError, SimDuration};
use gxplug_engine::cluster::{ComputePhase, NodeComputeOutput};
use gxplug_engine::fanout::{fan_out, floor_for, settle, Lane};
use gxplug_engine::node::NodeState;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::GraphAlgorithm;
use gxplug_graph::types::PartitionId;
use gxplug_graph::view::TripletBuffer;
use std::fmt;
use std::sync::Arc;
use std::thread::Scope;

/// A superstep's result for one node.
type NodeResult<V, M> = Result<NodeComputeOutput<V, M>, RuntimeError>;

/// Errors surfaced by the middleware runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A device kernel rejected its block (e.g. the block exceeded device
    /// memory).  The error aborts the run with a typed failure instead of
    /// panicking the process.
    Kernel {
        /// Name of the daemon whose device rejected the block.
        daemon: String,
        /// The device-level error.
        error: AccelError,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Kernel { daemon, error } => {
                write!(f, "daemon '{daemon}' kernel failed: {error}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A [`ThreadedAgent`]'s agent is away only while [`ThreadedNodes`] has lent
/// it out, within one superstep.
const HOME: &str = "the agent is home between supersteps";

/// What travels to a node's lane for one superstep.
type NodeLoan<V, E, M> = (NodeState<V, E>, Agent<V, E, M>);

/// The threaded front of an [`Agent`]: the agent plus its node's lane, which
/// [`ThreadedNodes`] lends the node and agent to in supersteps that cross the
/// run's fan-out floor.  Until the work calls for it everything runs on the
/// calling thread and the agent owns no thread at all; in a serial run it
/// never does.
#[derive(Debug)]
pub struct ThreadedAgent<'scope, 'env, V, E, M> {
    /// `None` only while [`ThreadedNodes`] has lent it out for one superstep.
    agent: Option<Agent<V, E, M>>,
    /// This node's lane.
    lane: Lane<'scope, NodeLoan<V, E, M>, NodeResult<V, M>>,
    /// The run's scope, which the lane spawns its worker on.
    scope: &'scope Scope<'scope, 'env>,
    /// Fewest active edges a superstep lends its nodes for (`usize::MAX` in
    /// a serial run).
    floor: usize,
}

impl<'scope, 'env, V, E, M> ThreadedAgent<'scope, 'env, V, E, M>
where
    V: Clone + PartialEq + Send + Sync + 'env,
    E: Clone + Send + Sync + 'env,
    M: Clone + Send + Sync + 'env,
{
    /// Creates the agent for distributed node `node_id`, with the fan-out
    /// floor of `config.execution`.  No thread is spawned yet: the lane
    /// spawns its worker on `scope` — which must enclose the whole run — the
    /// first time the work calls for it.
    pub fn spawn(
        scope: &'scope Scope<'scope, 'env>,
        node_id: PartitionId,
        daemons: Vec<Daemon>,
        profile: RuntimeProfile,
        config: MiddlewareConfig,
        local_vertices: usize,
    ) -> Self {
        Self {
            agent: Some(Agent::new(
                node_id,
                daemons,
                profile,
                config,
                local_vertices,
            )),
            lane: Lane::default(),
            scope,
            floor: floor_for(config.execution),
        }
    }

    fn agent(&self) -> &Agent<V, E, M> {
        self.agent.as_ref().expect(HOME)
    }

    fn agent_mut(&mut self) -> &mut Agent<V, E, M> {
        self.agent.as_mut().expect(HOME)
    }

    /// The distributed node this agent serves.
    pub fn node_id(&self) -> PartitionId {
        self.agent().node_id()
    }

    /// Number of attached daemons.
    pub fn num_daemons(&self) -> usize {
        self.agent().num_daemons()
    }

    /// Total computation capacity factor of the attached daemons.
    pub fn capacity_factor(&self) -> f64 {
        self.agent().capacity_factor()
    }

    /// The middleware configuration in force.
    pub fn config(&self) -> &MiddlewareConfig {
        self.agent().config()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AgentStats {
        self.agent().stats()
    }

    /// OS threads this agent has spawned so far: its node's lane worker once
    /// [`ThreadedNodes`] has lent the node out, else none.  Zero for a run
    /// whose supersteps all stayed below the floor, for every serial run and
    /// for the last node, which the calling thread computes; never more than
    /// one, however many supersteps crossed the floor.
    pub fn threads_spawned(&self) -> usize {
        self.lane.spawns()
    }

    /// Installs a pooled block buffer (e.g. the session's, so a reused
    /// session keeps one warm buffer per node across runs); see
    /// [`Agent::install_triplet_buffer`].
    pub fn install_triplet_buffer(&mut self, buffer: Arc<TripletBuffer<V, E>>) {
        self.agent_mut().install_triplet_buffer(buffer);
    }

    /// Takes the block buffer back (leaving a fresh empty one to the
    /// agent), so the session can pool it for the next run.
    pub fn take_triplet_buffer(&mut self) -> Arc<TripletBuffer<V, E>> {
        self.agent_mut().take_triplet_buffer()
    }

    /// `connect()`: starts every daemon (device initialisation happens here,
    /// once per run — runtime isolation).  Returns the summed initialisation
    /// time.
    pub fn connect(&mut self) -> SimDuration {
        self.agent_mut().connect()
    }

    /// `disconnect()`: shuts every daemon down.
    pub fn disconnect(&mut self) {
        self.agent_mut().disconnect();
    }

    /// Executes one middleware iteration for this agent's node on the calling
    /// thread: [`Agent::process_iteration`].
    ///
    /// # Errors
    /// [`RuntimeError::Kernel`] if a device rejects a block: the first error
    /// in daemon order.
    pub fn process_iteration<A>(
        &mut self,
        node: &mut NodeState<V, E>,
        algorithm: &'env A,
        iteration: usize,
    ) -> Result<NodeComputeOutput<V, M>, RuntimeError>
    where
        A: GraphAlgorithm<V, E, Msg = M>,
    {
        self.agent_mut()
            .process_iteration(node, algorithm, iteration)
    }

    /// Stops the agent's lane (the run's scope joins its worker) and returns
    /// the daemons; the agent is home between supersteps.
    pub fn join(self) -> Vec<Daemon> {
        let ThreadedAgent { agent, lane, .. } = self;
        drop(lane);
        agent.expect(HOME).into_daemons()
    }
}

/// Cluster-level compute phase driving one [`ThreadedAgent`] per distributed
/// node, with threading proportional to the superstep's work.
///
/// A superstep whose nodes hold fewer active edges than the run's fan-out
/// floor runs them in node order on the calling thread.  A larger one lends
/// every node but the last — `NodeState` and agent, by value — to that
/// node's lane (whose worker is spawned once per run, at the first such
/// superstep), runs the last node itself, and takes everything back at the
/// BSP barrier.
///
/// Each node's output lands in that node's slot and the slots are read in
/// node order, so the global synchronisation sees the same message order
/// whichever way a superstep ran.  A per-node error (e.g. a rejected kernel
/// block) aborts the superstep with the first error in node order; a
/// per-node panic is re-raised only after every node and agent is back where
/// it was lent from.
pub struct ThreadedNodes<'agents, 'scope, 'env, V, E, A>
where
    A: GraphAlgorithm<V, E>,
{
    /// One threaded agent per node, in node order.
    pub agents: &'agents mut [ThreadedAgent<'scope, 'env, V, E, A::Msg>],
    /// The algorithm being executed.
    pub algorithm: &'env A,
}

impl<'agents, 'scope, 'env, V, E, A> ComputePhase<V, E, A::Msg>
    for ThreadedNodes<'agents, 'scope, 'env, V, E, A>
where
    V: Clone + PartialEq + Send + Sync + 'env,
    E: Clone + Send + Sync + 'env,
    A: GraphAlgorithm<V, E>,
    A::Msg: 'env,
{
    type Error = RuntimeError;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<V, E>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<V, A::Msg>>, RuntimeError> {
        assert_eq!(
            nodes.len(),
            self.agents.len(),
            "one threaded agent per node is required"
        );
        let algorithm = self.algorithm;
        let agents = &mut *self.agents;
        let active_edges: usize = nodes.iter().map(NodeState::active_edge_count).sum();
        if nodes.len() < 2 || active_edges < agents[0].floor {
            return nodes
                .iter_mut()
                .zip(agents.iter_mut())
                .map(|(node, agent)| agent.process_iteration(node, algorithm, iteration))
                .collect();
        }
        let scope = agents[0].scope;
        let lent: Vec<NodeLoan<V, E, A::Msg>> = nodes
            .iter_mut()
            .zip(agents.iter_mut())
            .map(|(node, agent)| (std::mem::take(node), agent.agent.take().expect(HOME)))
            .collect();
        let returned = fan_out(
            scope,
            agents.iter_mut().map(|agent| &mut agent.lane),
            lent,
            move |(node, agent): &mut NodeLoan<V, E, A::Msg>| {
                agent.process_iteration(node, algorithm, iteration)
            },
        );
        settle(returned, |index, (node, agent)| {
            nodes[index] = node;
            agents[index].agent = Some(agent);
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecutionMode, PipelineMode};
    use gxplug_accel::presets;
    use gxplug_ipc::key::KeyGenerator;
    use std::collections::HashSet;
    use std::thread;

    fn daemon(index: usize) -> Daemon {
        let key = KeyGenerator::new(9).key_for(0, index);
        Daemon::new(
            format!("d{index}"),
            presets::cpu_xeon_20c(format!("c{index}")),
            key,
        )
    }

    #[test]
    fn panicking_kernel_job_panics_the_agent_instead_of_hanging() {
        use gxplug_graph::edge_list::EdgeList;
        use gxplug_graph::graph::PropertyGraph;
        use gxplug_graph::partition::{HashEdgePartitioner, Partitioner};
        use gxplug_graph::types::{Triplet, VertexId};
        use std::panic::AssertUnwindSafe;

        struct Bomb;
        impl GraphAlgorithm<f64, f64> for Bomb {
            type Msg = f64;
            fn init_vertex(&self, _v: VertexId, _d: usize) -> f64 {
                0.0
            }
            fn msg_gen_into(
                &self,
                _t: &Triplet<f64, f64>,
                _i: usize,
                _out: &mut Vec<AddressedMessage<f64>>,
            ) {
                panic!("user kernel exploded")
            }
            fn msg_merge(&self, a: f64, _b: f64) -> f64 {
                a
            }
            fn msg_apply(&self, _v: VertexId, _c: &f64, m: &f64, _i: usize) -> Option<f64> {
                Some(*m)
            }
            fn name(&self) -> &'static str {
                "bomb"
            }
        }
        static BOMB: Bomb = Bomb;

        let list: EdgeList<f64> = [(0u32, 1u32, 1.0f64), (1, 2, 1.0)].into_iter().collect();
        let graph = PropertyGraph::from_edge_list(list, 0.0).unwrap();
        let partitioning = HashEdgePartitioner::new(0).partition(&graph, 1).unwrap();
        // Two edges stay far below the fan-out floor, so the kernel panics
        // right here on the calling thread (the fanned-out flavours are
        // covered by `kernel_panics_propagate_unchanged_...` below).
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            thread::scope(|scope| {
                let mut agent: ThreadedAgent<'_, '_, f64, f64, f64> = ThreadedAgent::spawn(
                    scope,
                    0,
                    vec![daemon(0)],
                    RuntimeProfile::powergraph(),
                    MiddlewareConfig::default(),
                    8,
                );
                agent.connect();
                let mut node = NodeState::build(0, &graph, &partitioning, &BOMB);
                let _ = agent.process_iteration(&mut node, &BOMB, 0);
            });
        }));
        assert!(result.is_err(), "the dead worker must panic the run");
    }

    // ---- work-proportional threading -------------------------------------

    use gxplug_accel::{AcceleratorBackend, ChunkKernel, CostModel};
    use gxplug_engine::cluster::{Cluster, SyncPolicy};
    use gxplug_engine::metrics::RunReport;
    use gxplug_engine::network::NetworkModel;
    use gxplug_engine::template::AddressedMessage;
    use gxplug_graph::edge_list::EdgeList;
    use gxplug_graph::graph::PropertyGraph;
    use gxplug_graph::partition::Partitioning;
    use gxplug_graph::types::{Triplet, VertexId};
    use std::panic::AssertUnwindSafe;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Every vertex pushes half its value along every out-edge, every
    /// superstep, for `rounds` supersteps — so each superstep carries every
    /// edge of the graph.  An armed instance panics on the one edge whose
    /// attribute is negative, after noting which thread it was on.
    struct Spread {
        rounds: usize,
        armed: bool,
        exploded_on: Mutex<Option<ThreadId>>,
    }

    impl Spread {
        fn new(rounds: usize, armed: bool) -> Self {
            Self {
                rounds,
                armed,
                exploded_on: Mutex::new(None),
            }
        }
    }

    impl GraphAlgorithm<f64, f64> for Spread {
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
            if self.armed && t.edge_attr < 0.0 {
                *self.exploded_on.lock().unwrap() = Some(thread::current().id());
                panic!("user kernel exploded");
            }
            out.push(AddressedMessage::new(t.dst, t.src_attr * 0.5));
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn msg_apply(&self, _v: VertexId, _c: &f64, m: &f64, _i: usize) -> Option<f64> {
            Some(*m)
        }
        fn always_active(&self) -> bool {
            true
        }
        fn max_iterations(&self) -> usize {
            self.rounds
        }
        fn name(&self) -> &'static str {
            "spread"
        }
    }

    /// A backend whose device rejects every block.
    #[derive(Debug)]
    struct Rejecting(Box<dyn AcceleratorBackend>);

    impl AcceleratorBackend for Rejecting {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn cost_model(&self) -> &CostModel {
            self.0.cost_model()
        }
        fn initialize(&mut self) -> SimDuration {
            self.0.initialize()
        }
        fn shutdown(&mut self) {
            self.0.shutdown()
        }
        fn max_concurrency(&self) -> usize {
            self.0.max_concurrency()
        }
        fn launch(&mut self, _items: usize, _kernel: &ChunkKernel<'_>) -> gxplug_accel::Result<()> {
            Err(AccelError::OutOfMemory {
                requested: 1,
                capacity: 0,
                device: self.0.name().to_string(),
            })
        }
    }

    /// A ring of `vertices` with `chords` out-edges per vertex, split by
    /// source into two equal nodes (edges `0..E/2` on node 0, in edge-id
    /// order).  Edge `marked` carries a negative attribute.
    fn ring(
        vertices: u32,
        chords: u32,
        marked: Option<usize>,
    ) -> (PropertyGraph<f64, f64>, Partitioning) {
        let mut list: EdgeList<f64> = EdgeList::with_vertices(vertices as usize);
        for v in 0..vertices {
            for j in 1..=chords {
                let attr = if Some(list.num_edges()) == marked {
                    -1.0
                } else {
                    1.0
                };
                list.push(v, (v + j) % vertices, attr);
            }
        }
        let graph = PropertyGraph::from_edge_list(list, 0.0).unwrap();
        let half = graph.num_edges() / 2;
        let assignment = (0..graph.num_edges())
            .map(|e| usize::from(e >= half))
            .collect();
        let partitioning = Partitioning::from_edge_assignment(&graph, 2, assignment).unwrap();
        (graph, partitioning)
    }

    /// 256 edges: every superstep stays below the floor.
    const SMALL: (u32, u32) = (64, 4);
    /// 81 920 edges, 40 960 per node, two equal shares of 20 480 per node:
    /// every superstep — and every share on its own — crosses the floor.
    const LARGE: (u32, u32) = (4_096, 20);

    /// Two equal daemons per node, so each daemon of a node takes half of
    /// the node's triplets.
    fn twin_daemons(reject: Option<(usize, usize)>) -> Vec<Vec<Daemon>> {
        let keys = KeyGenerator::new(9);
        (0..2)
            .map(|node| {
                (0..2)
                    .map(|index| {
                        let name = format!("node{node}-daemon{index}");
                        let backend = presets::gpu_v100(name.clone()).build();
                        let backend: Box<dyn AcceleratorBackend> = if reject == Some((node, index))
                        {
                            Box::new(Rejecting(backend))
                        } else {
                            backend
                        };
                        Daemon::new(name, backend, keys.key_for(node, index))
                    })
                    .collect()
            })
            .collect()
    }

    /// One run through [`ThreadedNodes`], the way the session drives it, in
    /// `mode`.  Returns the run's result, its final values, and how many
    /// threads each agent spawned.
    fn run_in<A>(
        mode: ExecutionMode,
        graph: &PropertyGraph<f64, f64>,
        partitioning: &Partitioning,
        algorithm: &A,
        daemons: Vec<Vec<Daemon>>,
    ) -> (Result<RunReport, RuntimeError>, Vec<f64>, Vec<usize>)
    where
        A: GraphAlgorithm<f64, f64, Msg = f64>,
    {
        let profile = RuntimeProfile::powergraph();
        let mut cluster = Cluster::build(
            graph,
            partitioning.clone(),
            algorithm,
            profile,
            NetworkModel::datacenter(),
        );
        let (report, spawned) = thread::scope(|scope| {
            let mut agents: Vec<ThreadedAgent<'_, '_, f64, f64, f64>> = daemons
                .into_iter()
                .enumerate()
                .map(|(node, node_daemons)| {
                    ThreadedAgent::spawn(
                        scope,
                        node,
                        node_daemons,
                        profile,
                        MiddlewareConfig::default().with_execution(mode),
                        cluster.node(node).num_vertices(),
                    )
                })
                .collect();
            let setup = agents
                .iter_mut()
                .map(ThreadedAgent::connect)
                .fold(SimDuration::ZERO, SimDuration::max);
            let report = cluster.run_phased(
                algorithm,
                "ring",
                "test",
                usize::MAX,
                SyncPolicy::AlwaysSync,
                setup,
                &mut ThreadedNodes {
                    agents: &mut agents,
                    algorithm,
                },
            );
            let spawned = agents.iter().map(ThreadedAgent::threads_spawned).collect();
            for agent in agents {
                agent.join();
            }
            (report, spawned)
        });
        (report, cluster.collect_values(), spawned)
    }

    /// [`run_in`] with the default, threaded execution.
    fn run_threaded(
        graph: &PropertyGraph<f64, f64>,
        partitioning: &Partitioning,
        algorithm: &Spread,
        daemons: Vec<Vec<Daemon>>,
    ) -> (Result<RunReport, RuntimeError>, Vec<f64>, Vec<usize>) {
        run_in(
            ExecutionMode::Threaded,
            graph,
            partitioning,
            algorithm,
            daemons,
        )
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_run_below_the_floor_spawns_no_thread_and_one_above_spawns_each_worker_once() {
        let algorithm = Spread::new(6, false);

        let (graph, partitioning) = ring(SMALL.0, SMALL.1, None);
        let (report, _, spawned) =
            run_threaded(&graph, &partitioning, &algorithm, twin_daemons(None));
        assert_eq!(report.unwrap().num_iterations(), 6);
        assert_eq!(spawned, vec![0, 0], "256 edges are not worth a thread");

        let (graph, partitioning) = ring(LARGE.0, LARGE.1, None);
        let (report, _, spawned) =
            run_threaded(&graph, &partitioning, &algorithm, twin_daemons(None));
        assert_eq!(report.unwrap().num_iterations(), 6);
        // Six supersteps crossed the floor, yet node 0 spawned its parked
        // node worker once; node 1 is the calling thread's own.  Every
        // daemon share ran on its node's thread, however large.
        assert_eq!(spawned, vec![1, 0]);
    }

    #[test]
    fn a_serial_run_spawns_nothing_and_matches_the_threaded_run_bit_for_bit() {
        let algorithm = Spread::new(4, false);
        let (graph, partitioning) = ring(LARGE.0, LARGE.1, None);
        let (threaded, threaded_values, spawned) =
            run_threaded(&graph, &partitioning, &algorithm, twin_daemons(None));
        assert_eq!(spawned, vec![1, 0]);
        let (serial, serial_values, spawned) = run_in(
            ExecutionMode::Serial,
            &graph,
            &partitioning,
            &algorithm,
            twin_daemons(None),
        );
        // Every superstep and share is large, yet a serial run's floor is
        // out of reach: not one thread.
        assert_eq!(spawned, vec![0, 0]);
        assert_eq!(serial.unwrap(), threaded.unwrap());
        assert_eq!(bits(&serial_values), bits(&threaded_values));
    }

    /// Superstep 0 has every vertex active; from then on only the vertices
    /// below `hot` take updates, so every later superstep is small.  The
    /// kernel notes, per superstep, the node of every triplet it sees (from
    /// its source: [`ring`] puts the lower half of the sources on node 0)
    /// and the thread it saw it on.
    struct Cooling {
        hot: VertexId,
        rounds: usize,
        node_1_from: VertexId,
        threads: Mutex<Vec<HashSet<(usize, ThreadId)>>>,
    }

    impl GraphAlgorithm<f64, f64> for Cooling {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, _d: usize) -> f64 {
            v as f64
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            let mut threads = self.threads.lock().unwrap();
            if threads.len() <= i {
                threads.resize_with(i + 1, HashSet::new);
            }
            let node = usize::from(t.src >= self.node_1_from);
            threads[i].insert((node, thread::current().id()));
            out.push(AddressedMessage::new(t.dst, t.src_attr + 1.0));
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            a.max(b)
        }
        fn msg_apply(&self, v: VertexId, _c: &f64, m: &f64, _i: usize) -> Option<f64> {
            (v < self.hot).then_some(*m)
        }
        fn max_iterations(&self) -> usize {
            self.rounds
        }
        fn name(&self) -> &'static str {
            "cooling"
        }
    }

    #[test]
    fn a_fanned_out_superstep_computes_each_node_on_one_thread() {
        let here = thread::current().id();
        let algorithm = Cooling {
            hot: 4,
            rounds: 4,
            node_1_from: LARGE.0 / 2,
            threads: Mutex::new(Vec::new()),
        };
        let (graph, partitioning) = ring(LARGE.0, LARGE.1, None);
        let (report, _, spawned) = run_in(
            ExecutionMode::Threaded,
            &graph,
            &partitioning,
            &algorithm,
            twin_daemons(None),
        );
        assert_eq!(report.unwrap().num_iterations(), 4);
        let threads = algorithm.threads.into_inner().unwrap();
        assert_eq!(threads.len(), 4, "every superstep had work");
        // Superstep 0 crosses the floor, and so does each node's second
        // daemon share on its own: still, node 0's triplets all ran on its
        // lane and node 1's all on the calling thread — two threads in all.
        let lane = threads[0]
            .iter()
            .find(|(node, _)| *node == 0)
            .map(|(_, thread)| *thread)
            .unwrap();
        assert_ne!(lane, here);
        assert_eq!(threads[0], HashSet::from([(0, lane), (1, here)]));
        for (superstep, seen) in threads.iter().enumerate().skip(1) {
            assert!(
                seen.iter().all(|(_, thread)| *thread == here),
                "superstep {superstep}: below the floor, every node ran on the calling thread"
            );
        }
        assert_eq!(spawned, vec![1, 0]);
    }

    #[test]
    fn fanned_out_supersteps_compute_exactly_what_inline_ones_do() {
        // The same large graph, once through the fan-out and once through the
        // serial agents: every bit of every value and the whole report match.
        let algorithm = Spread::new(4, false);
        let (graph, partitioning) = ring(LARGE.0, LARGE.1, None);
        let (threaded, threaded_values, spawned) =
            run_threaded(&graph, &partitioning, &algorithm, twin_daemons(None));
        assert_eq!(spawned, vec![1, 0]);

        let profile = RuntimeProfile::powergraph();
        let mut cluster = Cluster::build(
            &graph,
            partitioning.clone(),
            &algorithm,
            profile,
            NetworkModel::datacenter(),
        );
        let mut agents: Vec<crate::Agent<f64, f64, f64>> = twin_daemons(None)
            .into_iter()
            .enumerate()
            .map(|(node, node_daemons)| {
                crate::Agent::new(
                    node,
                    node_daemons,
                    profile,
                    MiddlewareConfig::default(),
                    cluster.node(node).num_vertices(),
                )
            })
            .collect();
        let setup = agents
            .iter_mut()
            .map(crate::Agent::connect)
            .fold(SimDuration::ZERO, SimDuration::max);
        let serial = cluster.run_custom(
            &algorithm,
            "ring",
            "test",
            usize::MAX,
            SyncPolicy::AlwaysSync,
            setup,
            |node, iteration| {
                agents[node.id()]
                    .process_iteration(node, &algorithm, iteration)
                    .unwrap()
            },
        );
        assert_eq!(threaded.unwrap(), serial);
        assert_eq!(bits(&threaded_values), bits(&cluster.collect_values()));
    }

    #[test]
    fn kernel_errors_are_the_same_typed_error_inline_and_fanned_out() {
        let algorithm = Spread::new(3, false);
        // (node, daemon) of the rejecting device: either daemon of the node
        // that is lent to its lane in the large run, and a daemon of the node
        // the calling thread computes.
        for reject in [(0, 0), (0, 1), (1, 1)] {
            let mut errors = Vec::new();
            for (scale, fanned_out) in [(SMALL, false), (LARGE, true)] {
                let (graph, partitioning) = ring(scale.0, scale.1, None);
                let (report, _, spawned) = run_threaded(
                    &graph,
                    &partitioning,
                    &algorithm,
                    twin_daemons(Some(reject)),
                );
                assert_eq!(
                    spawned.iter().sum::<usize>() > 0,
                    fanned_out,
                    "rejecting {reject:?}: spawned {spawned:?}"
                );
                errors.push(report.expect_err("the rejecting device aborts the run"));
            }
            assert_eq!(errors[0], errors[1], "rejecting {reject:?}");
            match &errors[0] {
                RuntimeError::Kernel { daemon, error } => {
                    assert_eq!(daemon, &format!("node{}-daemon{}", reject.0, reject.1));
                    assert!(matches!(error, AccelError::OutOfMemory { .. }));
                }
            }
        }
    }

    #[test]
    fn kernel_panics_propagate_unchanged_inline_and_fanned_out_and_never_hang() {
        let here = thread::current().id();
        // The armed edge sits first on node 0 (first share, lent node), last
        // on node 0 (second share, lent node) or last on node 1 (second
        // share, the calling thread's own node).  Every share runs on its
        // node's thread, so the kernel panics off the calling thread iff the
        // superstep fanned out and the edge is on node 0.
        for position in [0.0, 0.5, 1.0] {
            for (scale, fanned_out) in [(SMALL, false), (LARGE, true)] {
                let edges = (scale.0 * scale.1) as usize;
                let marked = ((edges as f64 * position) as usize).saturating_sub(1);
                let on_node_0 = marked < edges / 2;
                let (graph, partitioning) = ring(scale.0, scale.1, Some(marked));
                let algorithm = Spread::new(3, true);
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_threaded(&graph, &partitioning, &algorithm, twin_daemons(None))
                }));
                let payload = match result {
                    Err(payload) => payload,
                    Ok(_) => panic!("the kernel panic must abort the run"),
                };
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("user kernel exploded"),
                    "edge {marked} of {edges}: the kernel's own panic arrives"
                );
                let exploded_on = algorithm.exploded_on.lock().unwrap().expect("it exploded");
                assert_eq!(
                    exploded_on != here,
                    fanned_out && on_node_0,
                    "edge {marked} of {edges} exploded on the wrong thread"
                );
            }
        }
    }

    /// Every vertex sends its id along every out-edge, and a target's merged
    /// message lists its senders in combine order, so any change in the
    /// per-target fold order shows in the messages — and, through
    /// `msg_apply`'s order-sensitive hash, in the values.  An armed instance
    /// panics on the edge whose attribute is negative.
    struct Senders {
        armed: bool,
    }

    impl GraphAlgorithm<f64, f64> for Senders {
        type Msg = Vec<VertexId>;
        fn init_vertex(&self, v: VertexId, _d: usize) -> f64 {
            v as f64
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            _i: usize,
            out: &mut Vec<AddressedMessage<Vec<VertexId>>>,
        ) {
            if self.armed && t.edge_attr < 0.0 {
                panic!("user kernel exploded");
            }
            out.push(AddressedMessage::new(t.dst, vec![t.src]));
        }
        fn msg_merge(&self, mut a: Vec<VertexId>, b: Vec<VertexId>) -> Vec<VertexId> {
            a.extend(b);
            a
        }
        fn msg_apply(&self, _v: VertexId, c: &f64, m: &Vec<VertexId>, _i: usize) -> Option<f64> {
            Some(
                m.iter()
                    .fold(*c, |h, &s| (h * 31.0 + f64::from(s)) % 1_000_003.0),
            )
        }
        fn always_active(&self) -> bool {
            true
        }
        fn max_iterations(&self) -> usize {
            3
        }
        fn name(&self) -> &'static str {
            "senders"
        }
    }

    /// `ring(64, 16)` on one node: 1 024 edges, of which the CPU daemon's
    /// capacity share is the first ≈ 28 (sources 0 and 1).  Their targets
    /// also hear from sources in the GPU's share, so a fold that let the GPU
    /// go first would reorder them.
    fn one_node_ring(marked: Option<usize>) -> (PropertyGraph<f64, f64>, Partitioning) {
        let (graph, _) = ring(64, 16, marked);
        let partitioning =
            Partitioning::from_edge_assignment(&graph, 1, vec![0; graph.num_edges()]).unwrap();
        (graph, partitioning)
    }

    /// Daemons `[cpu, gpu]`: the small CPU share runs first, then the GPU's.
    /// `reject` marks the daemons whose device rejects every block.
    fn cpu_then_gpu(reject: [bool; 2]) -> Vec<Daemon> {
        let keys = KeyGenerator::new(11);
        [presets::cpu_xeon_20c("cpu"), presets::gpu_v100("gpu")]
            .into_iter()
            .enumerate()
            .map(|(index, spec)| {
                let backend = spec.build();
                let backend: Box<dyn AcceleratorBackend> = if reject[index] {
                    Box::new(Rejecting(backend))
                } else {
                    backend
                };
                Daemon::new(format!("daemon{index}"), backend, keys.key_for(0, index))
            })
            .collect()
    }

    /// One agent over [`cpu_then_gpu`] on `node`, with blocks of 8
    /// triplets: several per share, on both daemons.
    fn cpu_gpu_agent(
        node: &NodeState<f64, f64>,
        reject: [bool; 2],
    ) -> Agent<f64, f64, Vec<VertexId>> {
        let mut agent = Agent::new(
            0,
            cpu_then_gpu(reject),
            RuntimeProfile::powergraph(),
            MiddlewareConfig::default().with_pipeline(PipelineMode::FixedBlockSize(8)),
            node.num_vertices(),
        );
        agent.connect();
        agent
    }

    /// One superstep of `algorithm` on a fresh [`one_node_ring`], every
    /// share inline.
    fn one_superstep(
        algorithm: &Senders,
        marked: Option<usize>,
        reject: [bool; 2],
    ) -> thread::Result<NodeResult<f64, Vec<VertexId>>> {
        let (graph, partitioning) = one_node_ring(marked);
        let mut node = NodeState::build(0, &graph, &partitioning, algorithm);
        let mut agent = cpu_gpu_agent(&node, reject);
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            agent.process_iteration(&mut node, algorithm, 0)
        }))
    }

    #[test]
    fn shares_fold_in_daemon_order_then_block_by_block() {
        let algorithm = Senders { armed: false };
        let (graph, partitioning) = one_node_ring(None);
        let mut cluster = Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        );
        let mut agent = cpu_gpu_agent(cluster.node(0), [false; 2]);
        let mut messages = Vec::new();
        let report = cluster.run_custom(
            &algorithm,
            "ring",
            "test",
            usize::MAX,
            SyncPolicy::AlwaysSync,
            SimDuration::ZERO,
            |node, iteration| {
                let output = agent
                    .process_iteration(node, &algorithm, iteration)
                    .unwrap();
                messages.push(output.messages.clone());
                output
            },
        );
        assert_eq!(report.num_iterations(), 3);
        assert_eq!(messages.len(), 3);
        // Target 5 hears from sources 0..=4 and 53..=63: the CPU's share
        // (sources 0 and 1) folds first, then the GPU's blocks in order.
        let to_5 = messages[0].iter().find(|m| m.target == 5).unwrap();
        assert_eq!(
            to_5.payload,
            [0, 1, 2, 3, 4, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63]
        );
    }

    #[test]
    fn failures_in_a_streamed_share_stay_first_in_daemon_order() {
        let algorithm = Senders { armed: false };
        let name = |result: thread::Result<Result<_, RuntimeError>>| match result {
            Ok(Err(RuntimeError::Kernel { daemon, .. })) => daemon,
            Ok(Ok(_)) => panic!("the rejecting device must fail the superstep"),
            Err(_) => panic!("a device error is not a panic"),
        };
        // The streamed GPU share fails: its error.
        assert_eq!(
            name(one_superstep(&algorithm, None, [false, true])),
            "daemon1"
        );
        // Both fail: the CPU's error is first in daemon order.
        assert_eq!(
            name(one_superstep(&algorithm, None, [true, true])),
            "daemon0"
        );
        // The streamed GPU share's kernel panics on the last edge: the
        // kernel's own payload arrives.
        let armed = Senders { armed: true };
        let payload = one_superstep(&armed, Some(1_023), [false; 2])
            .expect_err("the kernel panic aborts the superstep");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("user kernel exploded")
        );
    }

    #[test]
    fn kernel_errors_render_their_daemon_and_cause() {
        let error = RuntimeError::Kernel {
            daemon: "node0-daemon1".to_string(),
            error: AccelError::OutOfMemory {
                requested: 10,
                capacity: 5,
                device: "g".to_string(),
            },
        };
        let rendered = error.to_string();
        assert!(rendered.contains("node0-daemon1"));
        assert!(rendered.contains("out of device memory"));
    }

    #[test]
    fn threaded_agent_requires_a_daemon() {
        let result = std::panic::catch_unwind(|| {
            thread::scope(|scope| {
                let agent: ThreadedAgent<'_, '_, f64, f64, f64> = ThreadedAgent::spawn(
                    scope,
                    0,
                    Vec::new(),
                    RuntimeProfile::powergraph(),
                    MiddlewareConfig::default(),
                    8,
                );
                drop(agent);
            });
        });
        assert!(result.is_err());
    }
}
