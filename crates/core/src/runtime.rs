//! The threaded daemon–agent runtime.
//!
//! The paper's daemons "work as independent processes" (§IV-C); this module
//! gives the reproduction real concurrency instead of a single-threaded
//! simulation of it — **in proportion to the work**.  Handing work to another
//! thread costs two queue hops whatever its size, so, like a kernel launch in
//! the §III-A pipeline model, it is only worth it when the work amortises it.
//! One floor on the active-edge count
//! ([`fanout`](gxplug_engine::fanout)) decides, superstep by superstep and
//! share by share:
//!
//! * [`ThreadedNodes`] is the cluster-level
//!   [`ComputePhase`](gxplug_engine::cluster::ComputePhase).  A superstep
//!   whose nodes hold fewer active edges than the floor runs them in node
//!   order on the calling thread.  A larger one lends every node but the
//!   last — its `NodeState` and its agent's state, *by value*, because the
//!   nodes are only borrowed for one `compute` call — to that node's parked
//!   worker, computes the last node itself, and takes everything back in node
//!   order at the BSP barrier.  The workers are spawned once, at the first
//!   superstep that crosses the floor, on the scope
//!   [`ThreadedAgent::spawn`] receives; between supersteps they sleep on
//!   their job queues.
//! * [`ThreadedAgent`] plans an iteration exactly like the serial
//!   [`Agent`](crate::Agent) (same download/cache/merge/upload/timing code
//!   via `AgentCore`).  Its daemons start out on the agent's own thread and a
//!   share below the floor is computed right there with `execute_share`.  The
//!   first share that crosses the floor moves its daemon onto a worker thread
//!   ([`DaemonHandle`]) for the rest of the run, so the daemons of a node
//!   compute large shares concurrently — the overlap the §III pipeline
//!   shuffle is designed around.  The daemon with the largest capacity factor
//!   never leaves: the agent's thread would otherwise only wait, so it
//!   computes the largest share itself.
//! * [`DaemonHandle`] runs one [`Daemon`] on its own OS worker thread (runtime
//!   isolation: the device context stays alive across iterations).  Work is
//!   submitted as jobs over the `Send + Sync` queue of `gxplug-ipc`;
//!   [`DaemonHandle::join`] recovers the daemon — or the panic payload if a
//!   kernel panicked.
//!
//! A run whose supersteps all stay below the floor therefore creates no
//! thread and crosses no queue; [`ThreadedAgent::threads_spawned`] counts
//! what a run did create.
//!
//! Zero-copy dispatch: a share job does not move an owned `Vec<Triplet>` to
//! the worker.  The iteration's triplets live in one reusable
//! [`TripletBuffer`](gxplug_graph::view::TripletBuffer) behind an `Arc`; the
//! job carries a cheap `Arc` handle plus an index range and reads its share
//! *in place*.  Generated messages travel back in the daemon's pooled reply
//! buffer, which the agent re-issues (cleared, never reallocated) on the next
//! iteration.  By collection time the `Arc` is uniquely held again, so the
//! next refill needs no new allocation either.
//!
//! Determinism: where a share or a node is computed never shows in the
//! result.  Every daemon writes its own message buffer and the buffers are
//! merged in daemon-index order; every node's output lands in that node's
//! slot and the slots are read in node order.  A threaded run is therefore
//! bit-identical to a serial one, whichever side of the floor its supersteps
//! fall on (covered by the `determinism` integration test).
//!
//! Worker threads are *scoped* (`std::thread::scope`), which is what lets
//! jobs borrow the algorithm without `'static` bounds or reference counting;
//! the scope guarantees every worker is joined before the borrowed data goes
//! away.

use crate::agent::{dense_merge, split_by_capacity_into, AgentCore, AgentScratch, ShareRun};
use crate::config::MiddlewareConfig;
use crate::daemon::{execute_share, Daemon, DaemonInfo, DaemonStats};
use crate::metrics::AgentStats;
use gxplug_accel::{AccelError, SimDuration};
use gxplug_engine::cluster::{ComputePhase, NodeComputeOutput};
use gxplug_engine::fanout::{fan_out, settle, worth_fanning_out, Lane};
use gxplug_engine::node::NodeState;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::PartitionId;
use gxplug_graph::view::TripletBuffer;
use gxplug_ipc::queue::{sync_queue, QueueSender};
use std::fmt;
use std::panic::resume_unwind;
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};

/// A superstep's result for one node.
type NodeResult<V, M> = Result<NodeComputeOutput<V, M>, RuntimeError>;

/// Errors surfaced by the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The daemon's worker thread is no longer accepting work (it panicked or
    /// was shut down).
    DaemonStopped {
        /// Name of the unavailable daemon.
        name: String,
    },
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
            RuntimeError::DaemonStopped { name } => {
                write!(f, "daemon '{name}' has stopped and no longer accepts work")
            }
            RuntimeError::Kernel { daemon, error } => {
                write!(f, "daemon '{daemon}' kernel failed: {error}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A unit of work executed on a daemon's worker thread.
pub type DaemonJob<'env> = Box<dyn FnOnce(&mut Daemon) + Send + 'env>;

/// A [`Daemon`] running on its own OS worker thread.
///
/// The worker owns the daemon for the duration of the enclosing
/// [`std::thread::scope`]; the handle keeps a [`DaemonInfo`] snapshot so
/// agents can plan (capacity split, block sizing, timing) without crossing
/// the thread boundary.  Lifecycle:
///
/// 1. [`DaemonHandle::spawn`] moves the daemon onto a new worker thread;
/// 2. [`DaemonHandle::submit`] enqueues fire-and-forget jobs,
///    [`DaemonHandle::call`] runs a job and blocks for its result;
/// 3. [`DaemonHandle::join`] closes the job queue, joins the worker and
///    returns the daemon (or the panic payload of a job that panicked).
///
/// Panic safety: a panicking job unwinds its worker thread, which drops the
/// job queue receiver.  Pending [`DaemonHandle::call`]s then observe the
/// disconnect and return [`RuntimeError::DaemonStopped`] instead of hanging,
/// and [`DaemonHandle::join`] yields `Err(payload)` so the panic can be
/// propagated with [`std::panic::resume_unwind`].
#[derive(Debug)]
pub struct DaemonHandle<'scope, 'env> {
    info: DaemonInfo,
    jobs: QueueSender<DaemonJob<'env>>,
    worker: ScopedJoinHandle<'scope, Daemon>,
}

impl<'scope, 'env> DaemonHandle<'scope, 'env> {
    /// Moves `daemon` onto a new worker thread spawned on `scope`.
    pub fn spawn(scope: &'scope Scope<'scope, 'env>, daemon: Daemon) -> Self {
        let info = daemon.info();
        let (jobs, job_rx) = sync_queue::<DaemonJob<'env>>();
        let worker = scope.spawn(move || {
            let mut daemon = daemon;
            // The loop ends when every sender is dropped (normal shutdown) —
            // or by unwinding out of a panicking job, in which case `job_rx`
            // is dropped mid-loop and waiting callers observe the disconnect.
            while let Ok(job) = job_rx.recv() {
                job(&mut daemon);
            }
            daemon
        });
        Self { info, jobs, worker }
    }

    /// The planning metadata snapshot of the daemon.
    pub fn info(&self) -> &DaemonInfo {
        &self.info
    }

    /// Enqueues a job without waiting for it.
    pub fn submit(&self, job: impl FnOnce(&mut Daemon) + Send + 'env) -> Result<(), RuntimeError> {
        self.jobs
            .send(Box::new(job))
            .map_err(|_| RuntimeError::DaemonStopped {
                name: self.info.name().to_string(),
            })
    }

    /// Runs `f` on the daemon thread and blocks until its result arrives.
    pub fn call<R, F>(&self, f: F) -> Result<R, RuntimeError>
    where
        R: Send + 'env,
        F: FnOnce(&mut Daemon) -> R + Send + 'env,
    {
        let (reply_tx, reply_rx) = mpsc::channel::<R>();
        self.submit(move |daemon| {
            let _ = reply_tx.send(f(daemon));
        })?;
        reply_rx.recv().map_err(|_| RuntimeError::DaemonStopped {
            name: self.info.name().to_string(),
        })
    }

    /// Cumulative statistics of the daemon (a blocking round-trip).
    pub fn stats(&self) -> Result<DaemonStats, RuntimeError> {
        self.call(|daemon| daemon.stats())
    }

    /// Closes the job queue and joins the worker, returning the daemon, or
    /// the panic payload of the job that killed the worker.
    pub fn join(self) -> std::thread::Result<Daemon> {
        let DaemonHandle { jobs, worker, .. } = self;
        drop(jobs);
        worker.join()
    }
}

/// What a share job sends back: the daemon's pooled message buffer (always
/// returned, so its capacity survives failed iterations) plus the number of
/// blocks launched or the error that aborted the share.
type ShareReply<M> = (Vec<AddressedMessage<M>>, Result<usize, RuntimeError>);

/// The reusable per-daemon reply channel pair of a [`ThreadedAgent`].
type ReplyChannel<M> = (mpsc::Sender<ShareReply<M>>, mpsc::Receiver<ShareReply<M>>);

/// Guarantees a share job *always* replies, even if it unwinds: the reply
/// channels are long-lived (the agent keeps a sender for the next
/// iteration), so a dead worker would otherwise leave the agent blocked on
/// `recv` forever.  A panicking job drops the guard, which reports
/// [`RuntimeError::DaemonStopped`]; the agent turns that into the documented
/// "daemon died while computing its share" panic, and the worker's own panic
/// payload resurfaces at join.
struct ReplyGuard<M> {
    tx: Option<mpsc::Sender<ShareReply<M>>>,
    daemon: String,
}

impl<M> ReplyGuard<M> {
    fn new(tx: mpsc::Sender<ShareReply<M>>, daemon: String) -> Self {
        Self {
            tx: Some(tx),
            daemon,
        }
    }

    fn reply(mut self, reply: ShareReply<M>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(reply);
        }
    }
}

impl<M> Drop for ReplyGuard<M> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send((
                Vec::new(),
                Err(RuntimeError::DaemonStopped {
                    name: std::mem::take(&mut self.daemon),
                }),
            ));
        }
    }
}

/// Where one of an agent's daemons currently lives.
#[derive(Debug)]
enum DaemonSeat<'scope, 'env, M> {
    /// On the agent's own thread, where every daemon starts: shares run in
    /// place.
    Home(Daemon),
    /// On its own worker thread, since the first share that crossed the
    /// fan-out floor: shares travel there as jobs and report on the seat's
    /// long-lived reply channel.
    Away {
        handle: DaemonHandle<'scope, 'env>,
        replies: ReplyChannel<M>,
    },
    /// Transient while [`DaemonSeat::send_away`] moves the daemon; permanent
    /// once the daemon's worker died and its panic was re-raised (a kernel
    /// panic takes the daemon with it).
    Vacant,
}

impl<'scope, 'env, M> DaemonSeat<'scope, 'env, M> {
    /// Moves a daemon that is still home onto its own worker thread; returns
    /// whether a thread was spawned.
    fn send_away(&mut self, scope: &'scope Scope<'scope, 'env>) -> bool {
        match std::mem::replace(self, DaemonSeat::Vacant) {
            DaemonSeat::Home(daemon) => {
                *self = DaemonSeat::Away {
                    handle: DaemonHandle::spawn(scope, daemon),
                    replies: mpsc::channel(),
                };
                true
            }
            seat => {
                *self = seat;
                false
            }
        }
    }

    /// Runs `f` on the daemon wherever it lives — in place when it is home, a
    /// blocking round-trip to its worker otherwise.
    fn with_daemon<R, F>(&mut self, f: F) -> Result<R, RuntimeError>
    where
        R: Send + 'env,
        F: FnOnce(&mut Daemon) -> R + Send + 'env,
    {
        match self {
            DaemonSeat::Home(daemon) => Ok(f(daemon)),
            DaemonSeat::Away { handle, .. } => handle.call(f),
            DaemonSeat::Vacant => Err(RuntimeError::DaemonStopped {
                name: "a daemon lost to a kernel panic".to_string(),
            }),
        }
    }
}

/// Everything of a [`ThreadedAgent`] that computes: boxed so it can be lent,
/// together with its node's `NodeState`, to a parked node worker for one
/// superstep and taken back with the output.
#[derive(Debug)]
struct AgentState<'scope, 'env, V, E, M> {
    scope: &'scope Scope<'scope, 'env>,
    core: AgentCore<V>,
    seats: Vec<DaemonSeat<'scope, 'env, M>>,
    /// Planning snapshots of the daemons, in seat order.
    infos: Vec<DaemonInfo>,
    /// Capacity factors of the daemons, captured once (they are static).
    capacities: Vec<f64>,
    /// The daemon with the largest capacity factor.  It takes the largest
    /// share of every iteration, and it never leaves: the agent's thread
    /// would otherwise only wait for the others, so it computes that share.
    resident: usize,
    scratch: AgentScratch<V, E, M>,
    /// Daemon worker threads spawned so far.
    daemon_workers: usize,
}

impl<'env, V, E, M> AgentState<'_, 'env, V, E, M>
where
    V: Clone + PartialEq + Send + Sync + 'env,
    E: Clone + Send + Sync + 'env,
    M: Clone + Send + Sync + 'env,
{
    fn process_iteration<A>(
        &mut self,
        node: &mut NodeState<V, E>,
        algorithm: &'env A,
        iteration: usize,
    ) -> NodeResult<V, M>
    where
        A: GraphAlgorithm<V, E, Msg = M>,
    {
        let plan = match self.core.begin_iteration(node, iteration) {
            Some(plan) => plan,
            None => return Ok(NodeComputeOutput::idle()),
        };

        // ---- compute phase: small shares in place, large ones dispatched ---
        let buffer = Arc::get_mut(&mut self.scratch.triplets)
            .expect("no triplet share views outstanding between iterations");
        node.fill_triplets(self.core.active_edge_ids(), buffer);
        let d = self.scratch.triplets.len();
        split_by_capacity_into(d, &self.capacities, &mut self.scratch.shares);
        self.scratch.share_runs.clear();
        self.scratch.dispatched.clear();
        let mut first_error: Option<RuntimeError> = None;
        for daemon_index in 0..self.scratch.shares.len() {
            let range = self.scratch.shares[daemon_index].clone();
            if range.is_empty() {
                continue;
            }
            let info = &self.infos[daemon_index];
            let coefficients = info.coefficients(self.core.profile());
            let share_len = range.len();
            let block_size =
                self.core
                    .block_size_for(&coefficients, share_len, info.memory_capacity_items());
            if daemon_index != self.resident
                && worth_fanning_out(share_len)
                && self.seats[daemon_index].send_away(self.scope)
            {
                self.daemon_workers += 1;
            }
            let executed = match &mut self.seats[daemon_index] {
                DaemonSeat::Home(daemon) => {
                    let out = &mut self.scratch.msg_bufs[daemon_index];
                    out.clear();
                    let share = &self.scratch.triplets.as_slice()[range];
                    execute_share(daemon, algorithm, share, block_size, iteration, out)
                }
                DaemonSeat::Away { handle, replies } => {
                    let view = Arc::clone(&self.scratch.triplets);
                    let mut out = std::mem::take(&mut self.scratch.msg_bufs[daemon_index]);
                    let reply_tx = replies.0.clone();
                    let submitted = handle.submit(move |daemon| {
                        let guard = ReplyGuard::new(reply_tx, daemon.name().to_string());
                        out.clear();
                        let result = execute_share(
                            daemon,
                            algorithm,
                            view.share(range),
                            block_size,
                            iteration,
                            &mut out,
                        );
                        // Release the share view BEFORE replying: the agent
                        // treats the reply as "this share is done" and may
                        // refill the triplet arena for the next iteration
                        // immediately, which requires the arena to be
                        // uniquely held again.
                        drop(view);
                        guard.reply((out, result));
                    });
                    // The block count arrives with the reply.
                    submitted.map(|()| {
                        let slot = self.scratch.share_runs.len();
                        self.scratch.dispatched.push((daemon_index, slot));
                        0
                    })
                }
                DaemonSeat::Vacant => Err(RuntimeError::DaemonStopped {
                    name: self.infos[daemon_index].name().to_string(),
                }),
            };
            match executed {
                Ok(blocks) => self.scratch.share_runs.push(ShareRun {
                    coefficients,
                    share_len,
                    block_size,
                    blocks,
                }),
                Err(error) => {
                    // A kernel rejected its block, or a worker is gone: stop
                    // handing out shares, but still collect what is already
                    // in flight below.
                    first_error = Some(error);
                    break;
                }
            }
        }
        // Collect in daemon-index order.  Every dispatched share is collected
        // even when one of them fails, so the buffer pool and the triplet
        // arena come back; and an error collected here belongs to a lower
        // daemon index than the one that stopped the loop above, so the run
        // reports the same first error a serial agent would.
        let mut collected_error: Option<RuntimeError> = None;
        for position in 0..self.scratch.dispatched.len() {
            let (daemon_index, slot) = self.scratch.dispatched[position];
            let DaemonSeat::Away { replies, .. } = &self.seats[daemon_index] else {
                unreachable!("only daemons on a worker are dispatched to");
            };
            match replies.1.recv() {
                // A DaemonStopped reply from inside a job is the ReplyGuard
                // reporting that the job unwound.
                Ok((_, Err(RuntimeError::DaemonStopped { .. }))) | Err(_) => {
                    self.reraise_worker_panic(daemon_index)
                }
                Ok((out, result)) => {
                    // The pooled buffer always comes back, so its capacity
                    // survives even a failed iteration.
                    self.scratch.msg_bufs[daemon_index] = out;
                    match result {
                        Ok(blocks) => self.scratch.share_runs[slot].blocks = blocks,
                        Err(error) => {
                            collected_error.get_or_insert(error);
                        }
                    }
                }
            }
        }
        if let Some(error) = collected_error.or(first_error) {
            for buf in &mut self.scratch.msg_bufs {
                buf.clear();
            }
            return Err(error);
        }

        // ---- merge phase (MSGMerge, into pooled dense slots) ----------------
        let AgentScratch {
            msg_bufs,
            merge,
            overflow,
            ..
        } = &mut self.scratch;
        let raw = msg_bufs.iter_mut().flat_map(|buf| buf.drain(..));
        let merged = dense_merge(node, algorithm, raw, merge, overflow);
        Ok(self
            .core
            .finish_iteration(&plan, merged, &self.scratch.share_runs))
    }
}

impl<V, E, M> AgentState<'_, '_, V, E, M> {
    /// A daemon worker died under its share — a kernel panicked.  Joins the
    /// worker and re-raises the kernel's own panic, so the run sees the same
    /// payload it would have seen had the share been computed in place.
    fn reraise_worker_panic(&mut self, daemon_index: usize) -> ! {
        let seat = std::mem::replace(&mut self.seats[daemon_index], DaemonSeat::Vacant);
        if let DaemonSeat::Away { handle, .. } = seat {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
        panic!(
            "daemon '{}' died while computing its share",
            self.infos[daemon_index].name()
        )
    }
}

/// What travels to a parked node worker for one superstep.
type NodeLoan<'scope, 'env, V, E, M> = (NodeState<V, E>, Box<AgentState<'scope, 'env, V, E, M>>);

/// The threaded front-end of an agent: same planning and bookkeeping as the
/// serial [`Agent`](crate::Agent), with threads added in proportion to the
/// work — a worker per daemon once that daemon's share crosses the fan-out
/// floor, and a parked node worker that [`ThreadedNodes`] lends the node to
/// in supersteps that cross it.  Until then everything runs on the calling
/// thread and the agent owns no thread at all.
///
/// Like the serial agent it is generic over the message type `M` of the
/// algorithm it serves, which lets it pool the per-daemon reply buffers and
/// reply channels across iterations.
#[derive(Debug)]
pub struct ThreadedAgent<'scope, 'env, V, E, M> {
    /// `None` only while [`ThreadedNodes`] has lent it out for one superstep.
    state: Option<Box<AgentState<'scope, 'env, V, E, M>>>,
    /// This node's parked worker.
    lane: Lane<'scope, NodeLoan<'scope, 'env, V, E, M>, NodeResult<V, M>>,
}

impl<'scope, 'env, V, E, M> ThreadedAgent<'scope, 'env, V, E, M>
where
    V: Clone + PartialEq + Send + Sync + 'env,
    E: Clone + Send + Sync + 'env,
    M: Clone + Send + Sync + 'env,
{
    /// Creates the agent for distributed node `node_id`.  No thread is
    /// spawned yet: the daemons' workers and the node's own worker are
    /// spawned on `scope` — which must enclose the whole run — the first
    /// time the work calls for them.
    pub fn spawn(
        scope: &'scope Scope<'scope, 'env>,
        node_id: PartitionId,
        daemons: Vec<Daemon>,
        profile: RuntimeProfile,
        config: MiddlewareConfig,
        local_vertices: usize,
    ) -> Self {
        assert!(!daemons.is_empty(), "an agent needs at least one daemon");
        let infos: Vec<DaemonInfo> = daemons.iter().map(Daemon::info).collect();
        let capacities: Vec<f64> = infos.iter().map(DaemonInfo::capacity_factor).collect();
        let resident = (1..capacities.len()).fold(0, |best, index| {
            if capacities[index] > capacities[best] {
                index
            } else {
                best
            }
        });
        let scratch = AgentScratch::new(daemons.len());
        let state = AgentState {
            scope,
            core: AgentCore::new(node_id, profile, config, local_vertices),
            seats: daemons.into_iter().map(DaemonSeat::Home).collect(),
            infos,
            capacities,
            resident,
            scratch,
            daemon_workers: 0,
        };
        Self {
            state: Some(Box::new(state)),
            lane: Lane::default(),
        }
    }

    fn state(&self) -> &AgentState<'scope, 'env, V, E, M> {
        self.state
            .as_deref()
            .expect("the agent's state is home between supersteps")
    }

    fn state_mut(&mut self) -> &mut AgentState<'scope, 'env, V, E, M> {
        self.state
            .as_deref_mut()
            .expect("the agent's state is home between supersteps")
    }

    /// The distributed node this agent serves.
    pub fn node_id(&self) -> PartitionId {
        self.state().core.node_id()
    }

    /// Number of attached daemons.
    pub fn num_daemons(&self) -> usize {
        self.state().seats.len()
    }

    /// Planning metadata of the attached daemons.
    pub fn daemon_infos(&self) -> Vec<&DaemonInfo> {
        self.state().infos.iter().collect()
    }

    /// Total computation capacity factor of the attached daemons.
    pub fn capacity_factor(&self) -> f64 {
        self.state().capacities.iter().sum()
    }

    /// The middleware configuration in force.
    pub fn config(&self) -> &MiddlewareConfig {
        self.state().core.config()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AgentStats {
        self.state().core.stats()
    }

    /// OS threads this agent has spawned so far: one per daemon whose share
    /// has crossed the fan-out floor, plus the node's own parked worker once
    /// [`ThreadedNodes`] has lent the node out.  Zero for a run whose
    /// supersteps all stayed below the floor; never more than one per worker,
    /// however many supersteps crossed it.
    pub fn threads_spawned(&self) -> usize {
        self.lane.spawns() + self.state().daemon_workers
    }

    /// Installs a pooled triplet arena (e.g. the session's, so a reused
    /// session keeps one warm buffer per node across runs).
    pub fn install_triplet_buffer(&mut self, buffer: Arc<TripletBuffer<V, E>>) {
        self.state_mut().scratch.install_triplets(buffer);
    }

    /// Takes the triplet arena back (returning a fresh empty one to the
    /// agent), so the session can pool it for the next run.
    pub fn take_triplet_buffer(&mut self) -> Arc<TripletBuffer<V, E>> {
        self.state_mut()
            .scratch
            .install_triplets(Arc::new(TripletBuffer::new()))
    }

    /// `connect()`: initialises every daemon's device context, once per run
    /// (runtime isolation).  Returns the summed initialisation time.
    ///
    /// # Panics
    /// Panics if a daemon that already lives on a worker thread has died.
    pub fn connect(&mut self) -> SimDuration {
        let state = self.state_mut();
        let mut total = SimDuration::ZERO;
        for seat in &mut state.seats {
            total += seat
                .with_daemon(|daemon| daemon.start())
                .unwrap_or_else(|error| panic!("{error} (during connect)"));
        }
        state.core.record_init_time(total);
        total
    }

    /// `disconnect()`: shuts every daemon down (device contexts torn down
    /// wherever the daemon lives; workers stay alive until [`Self::join`]).
    pub fn disconnect(&mut self) {
        for seat in &mut self.state_mut().seats {
            let _ = seat.with_daemon(|daemon| daemon.shutdown());
        }
    }

    /// Executes one middleware iteration for this agent's node on the calling
    /// thread: plans the download and the capacity shares, computes every
    /// share below the fan-out floor (and the resident daemon's, whatever its
    /// size) in place, dispatches the others — a borrowed view into the
    /// iteration's triplet buffer — to their daemons' worker threads, then
    /// collects the results in daemon order and finishes the
    /// merge/upload/timing phases.
    ///
    /// # Errors
    /// [`RuntimeError::Kernel`] if a device rejects a block, or
    /// [`RuntimeError::DaemonStopped`] if a worker is gone at dispatch time —
    /// the first error in daemon order, as the serial agent reports it.
    /// Every dispatched share is still collected before the error is
    /// returned, so the pooled buffers stay consistent.
    ///
    /// # Panics
    /// Panics if a kernel panics, with the kernel's own payload wherever the
    /// share ran: a dispatched share's dead worker is joined and its panic
    /// re-raised here.  The panic takes that daemon with it.
    pub fn process_iteration<A>(
        &mut self,
        node: &mut NodeState<V, E>,
        algorithm: &'env A,
        iteration: usize,
    ) -> Result<NodeComputeOutput<V, M>, RuntimeError>
    where
        A: GraphAlgorithm<V, E, Msg = M>,
    {
        self.state_mut()
            .process_iteration(node, algorithm, iteration)
    }

    /// Stops the agent's workers and returns the daemons (minus any that a
    /// kernel panic already took down).  Re-raises the panic of any daemon
    /// worker that died from a panicking job.
    pub fn join(self) -> Vec<Daemon> {
        let ThreadedAgent { state, lane } = self;
        drop(lane);
        let state = state.expect("the agent's state is home between supersteps");
        state
            .seats
            .into_iter()
            .filter_map(|seat| match seat {
                DaemonSeat::Home(daemon) => Some(daemon),
                DaemonSeat::Away { handle, .. } => match handle.join() {
                    Ok(daemon) => Some(daemon),
                    Err(payload) => resume_unwind(payload),
                },
                DaemonSeat::Vacant => None,
            })
            .collect()
    }
}

/// Cluster-level compute phase driving one [`ThreadedAgent`] per distributed
/// node, with threading proportional to the superstep's work.
///
/// A superstep whose nodes hold fewer active edges than the fan-out floor
/// runs them in node order on the calling thread.  A larger one lends every
/// node but the last — `NodeState` and agent state, by value — to that node's
/// parked worker (spawned once per run, at the first such superstep), runs
/// the last node itself, and takes everything back at the BSP barrier.
///
/// Each node's output lands in that node's slot and the slots are read in
/// node order, so the global synchronisation sees the same message order as
/// with the serial driver whichever way a superstep ran.  A per-node error
/// (e.g. a rejected kernel block) aborts the superstep with the first error
/// in node order; a per-node panic is re-raised only after every node and
/// agent state is back where it was lent from.
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
        if nodes.len() < 2 || !worth_fanning_out(active_edges) {
            return nodes
                .iter_mut()
                .zip(agents.iter_mut())
                .map(|(node, agent)| agent.process_iteration(node, algorithm, iteration))
                .collect();
        }
        let scope = agents[0].state().scope;
        let lent: Vec<NodeLoan<'scope, 'env, V, E, A::Msg>> = nodes
            .iter_mut()
            .zip(agents.iter_mut())
            .map(|(node, agent)| {
                let state = agent
                    .state
                    .take()
                    .expect("the agent's state is home between supersteps");
                (std::mem::take(node), state)
            })
            .collect();
        let returned = fan_out(
            scope,
            agents.iter_mut().map(|agent| &mut agent.lane),
            lent,
            move |(node, state): &mut NodeLoan<'scope, 'env, V, E, A::Msg>| {
                state.process_iteration(node, algorithm, iteration)
            },
        );
        settle(returned, |index, (node, state)| {
            nodes[index] = node;
            agents[index].state = Some(state);
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_accel::presets;
    use gxplug_ipc::key::KeyGenerator;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    fn daemon(index: usize) -> Daemon {
        let key = KeyGenerator::new(9).key_for(0, index);
        Daemon::new(
            format!("d{index}"),
            presets::cpu_xeon_20c(format!("c{index}")),
            key,
        )
    }

    #[test]
    fn spawn_submit_join_lifecycle() {
        let counter = AtomicUsize::new(0);
        let returned = thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, daemon(0));
            assert_eq!(handle.info().name(), "d0");
            for _ in 0..10 {
                handle
                    .submit(|_daemon| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap();
            }
            let started = handle.call(|daemon| daemon.start()).unwrap();
            assert!(started > SimDuration::ZERO);
            handle.join().expect("no job panicked")
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert!(returned.is_started());
    }

    #[test]
    fn jobs_run_on_a_different_thread_and_borrow_locals() {
        let main_thread = thread::current().id();
        // Declared outside the scope, borrowed by jobs inside it — the scoped
        // runtime needs no 'static bounds.
        let data = [1u64, 2, 3];
        let mut observed = Vec::new();
        thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, daemon(0));
            let worker_thread = handle.call(|_d| thread::current().id()).unwrap();
            assert_ne!(worker_thread, main_thread);
            let sum = handle.call(|_d| data.iter().sum::<u64>()).unwrap();
            observed.push(sum);
            handle.join().unwrap();
        });
        assert_eq!(observed, vec![6]);
    }

    #[test]
    fn panicking_job_surfaces_through_join_and_stops_the_worker() {
        thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, daemon(0));
            handle
                .submit(|_daemon| panic!("kernel exploded"))
                .expect("worker was alive at submit time");
            // The worker dies; a blocking call must error, not hang.
            let mut saw_stop = false;
            for _ in 0..50 {
                match handle.call(|d| d.stats()) {
                    Err(RuntimeError::DaemonStopped { name }) => {
                        assert_eq!(name, "d0");
                        saw_stop = true;
                        break;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                    Ok(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
            assert!(saw_stop, "worker kept accepting work after a panic");
            let payload = handle.join().expect_err("join must surface the panic");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert_eq!(message, "kernel exploded");
        });
    }

    #[test]
    fn kernel_errors_propagate_across_the_worker_boundary() {
        use gxplug_engine::template::AddressedMessage;
        use gxplug_graph::types::{Triplet, VertexId};

        struct Echo;
        impl GraphAlgorithm<f64, f64> for Echo {
            type Msg = f64;
            fn init_vertex(&self, _v: VertexId, _d: usize) -> f64 {
                0.0
            }
            fn msg_gen_into(
                &self,
                t: &Triplet<f64, f64>,
                _i: usize,
                out: &mut Vec<AddressedMessage<f64>>,
            ) {
                out.push(AddressedMessage::new(t.dst, t.src_attr));
            }
            fn msg_merge(&self, a: f64, _b: f64) -> f64 {
                a
            }
            fn msg_apply(&self, _v: VertexId, _c: &f64, m: &f64, _i: usize) -> Option<f64> {
                Some(*m)
            }
            fn name(&self) -> &'static str {
                "echo"
            }
        }

        let key = KeyGenerator::new(9).key_for(1, 0);
        let gpu = Daemon::new("g0", presets::gpu_v100("g0"), key);
        thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, gpu);
            let result = handle
                .call(|daemon| {
                    daemon.start();
                    let triplets = vec![
                        Triplet::new(0u32, 1u32, 0.0f64, 0.0f64, 1.0f64);
                        presets::GPU_MEMORY_ITEMS + 1
                    ];
                    let mut out = Vec::new();
                    execute_share(daemon, &Echo, &triplets, triplets.len(), 0, &mut out)
                })
                .expect("worker alive");
            // The device error crossed the thread boundary as a typed value,
            // not a panic: the worker is still serving jobs afterwards.
            match result {
                Err(RuntimeError::Kernel { daemon, error }) => {
                    assert_eq!(daemon, "g0");
                    assert!(matches!(error, AccelError::OutOfMemory { .. }));
                }
                other => panic!("expected a kernel error, got {other:?}"),
            }
            assert!(handle.stats().is_ok());
            handle.join().expect("worker survived the kernel error");
        });
    }

    #[test]
    fn panicking_kernel_job_panics_the_agent_instead_of_hanging() {
        use gxplug_engine::template::AddressedMessage;
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

    use gxplug_accel::{AcceleratorBackend, ChunkKernel, CostModel, DeviceKind, KernelTiming};
    use gxplug_engine::cluster::{Cluster, SyncPolicy};
    use gxplug_engine::metrics::RunReport;
    use gxplug_engine::network::NetworkModel;
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
        fn kind(&self) -> DeviceKind {
            self.0.kind()
        }
        fn cost_model(&self) -> &CostModel {
            self.0.cost_model()
        }
        fn spec(&self) -> gxplug_accel::DeviceSpec {
            self.0.spec()
        }
        fn is_initialized(&self) -> bool {
            self.0.is_initialized()
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
        fn launch(
            &mut self,
            _items: usize,
            _kernel: &ChunkKernel<'_>,
        ) -> gxplug_accel::Result<KernelTiming> {
            Err(AccelError::OutOfMemory {
                requested: 1,
                capacity: 0,
                device: self.0.name().to_string(),
            })
        }
        fn items_processed(&self) -> u64 {
            self.0.items_processed()
        }
        fn kernel_launches(&self) -> u64 {
            self.0.kernel_launches()
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

    /// 256 edges: every superstep and every share stays below the floor.
    const SMALL: (u32, u32) = (64, 4);
    /// 81 920 edges, 40 960 per node, two equal shares of 20 480 per node:
    /// every superstep and every share crosses the floor.
    const LARGE: (u32, u32) = (4_096, 20);

    /// Two equal daemons per node, so the second daemon of a node takes half
    /// of the node's triplets (the first one is the resident).
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

    /// One run through [`ThreadedNodes`], the way the session drives it.
    /// Returns the run's result, its final values, and how many threads each
    /// agent spawned.
    fn run_threaded(
        graph: &PropertyGraph<f64, f64>,
        partitioning: &Partitioning,
        algorithm: &Spread,
        daemons: Vec<Vec<Daemon>>,
    ) -> (Result<RunReport, RuntimeError>, Vec<f64>, Vec<usize>) {
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
                        MiddlewareConfig::default(),
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
        // node worker and its second daemon's worker once each; node 1 is
        // the calling thread's own, so it only ever spawned the daemon
        // worker.  The resident daemons never left.
        assert_eq!(spawned, vec![2, 1]);
    }

    #[test]
    fn fanned_out_supersteps_compute_exactly_what_inline_ones_do() {
        // The same large graph, once through the fan-out and once through the
        // serial agents: every bit of every value and the whole report match.
        let algorithm = Spread::new(4, false);
        let (graph, partitioning) = ring(LARGE.0, LARGE.1, None);
        let (threaded, threaded_values, spawned) =
            run_threaded(&graph, &partitioning, &algorithm, twin_daemons(None));
        assert_eq!(spawned, vec![2, 1]);

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
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&threaded_values), bits(&cluster.collect_values()));
    }

    #[test]
    fn kernel_errors_are_the_same_typed_error_inline_and_fanned_out() {
        let algorithm = Spread::new(3, false);
        // (node, daemon) of the rejecting device: a resident daemon (always
        // computed in place, on a lent node in the large run) and a second
        // daemon (dispatched to its worker in the large run).
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
                other => panic!("expected a kernel error, got {other:?}"),
            }
        }
    }

    #[test]
    fn kernel_panics_propagate_unchanged_inline_and_fanned_out_and_never_hang() {
        let here = thread::current().id();
        // The armed edge sits first on node 0 (resident share, lent node),
        // last on node 0 (dispatched share, lent node) or last on node 1
        // (dispatched share, the calling thread's own node).
        for position in [0.0, 0.5, 1.0] {
            for (scale, fanned_out) in [(SMALL, false), (LARGE, true)] {
                let edges = (scale.0 * scale.1) as usize;
                let marked = ((edges as f64 * position) as usize).saturating_sub(1);
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
                    fanned_out,
                    "edge {marked} of {edges} exploded on the wrong side of the floor"
                );
            }
        }
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
