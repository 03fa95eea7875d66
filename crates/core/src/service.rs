//! The concurrent job service: many tenants, one deployed substrate.
//!
//! A [`Session`] is a *single-tenant* object: one caller holds `&mut
//! Session` and blocks on every run.  GX-Plug's premise is the opposite — a
//! deployed accelerator cluster is a shared resource that many upper-system
//! jobs plug into (the way GraphX multiplexes many logical queries over one
//! resilient graph).  [`GraphService`] is that surface:
//!
//! * **Pooled deployments** — the service owns `worker_sessions` deployed
//!   [`Session`]s, each driven by its own scheduler thread.  Every worker is
//!   stamped from the same [`SessionSpec`], so any job can run on any
//!   worker; deployments amortise across the whole job stream, not just one
//!   caller's runs.
//! * **Decoupled submission** — [`GraphService::submit`] enqueues a job and
//!   returns a [`JobTicket`] immediately; the caller collects the result
//!   with [`JobTicket::wait`] / [`JobTicket::try_result`], or abandons it
//!   with [`JobTicket::cancel`].  The handle is cheap to clone and `Send +
//!   Sync`, so any number of threads submit concurrently.
//! * **Typed backpressure** — the queue is bounded (`queue_depth`).
//!   [`GraphService::submit`] parks the caller until a slot frees up;
//!   [`GraphService::try_submit`] never parks and reports
//!   [`ServiceError::QueueFull`] instead.
//! * **Priority lanes** — [`GraphService::submit_with`] takes
//!   [`JobOptions`]: a [`JobPriority`] lane plus per-job
//!   [`RunOverrides`]-style knobs (`max_iterations`, `config_override`)
//!   routed through [`Session::run_with`] so no job mutates the session for
//!   the jobs after it.
//! * **Heterogeneous jobs** — algorithms are erased behind
//!   [`DynAlgorithm`], so PageRank-style and SSSP-style jobs with the same
//!   message type share one queue ([`GraphService::submit_dyn`]).
//! * **Deterministic teardown** — [`GraphService::shutdown`] *drains*:
//!   every accepted job runs and every ticket resolves.
//!   [`GraphService::abort`] cancels the backlog: queued tickets resolve
//!   with [`ServiceError::Cancelled`], the jobs already running complete.
//!   Dropping the last handle drains implicitly.
//!
//! Scheduling changes *when* a job runs, never *what* it computes: each job
//! has a worker session to itself for the duration of its run, and a reused
//! session is bit-identical to a fresh one (PR 2), so results are
//! bit-identical to running the same jobs serially — the `determinism`
//! integration test submits from many threads and compares exactly.
//!
//! A panicking job costs its worker's deployment, not the service: the
//! scheduler catches the unwind, resolves every ticket of the job's flight
//! (see below) with [`ServiceError::JobPanicked`], drops the poisoned
//! session (daemons shut their device contexts down on drop) and redeploys
//! a fresh one.
//!
//! # Redeploys
//!
//! A worker deploys its session from the service's [`SessionSpec`] and its
//! pristine graph, both fixed for the worker's life, and replays the
//! mutation log on top.  [`ServiceBuilder::build`] validates exactly that
//! pair before it starts any worker, and deploying is a pure function of
//! it, so the redeploy after a panicked job cannot fail: the worker
//! `expect`s it.  A spawn the operating system refuses is the build's one
//! other failure, reported as [`SessionError::WorkerSpawn`].
//!
//! # Result cache and flights
//!
//! Duplicate traffic — the common shape of a many-tenant service — is served
//! without re-running anything:
//!
//! * **Result cache** — algorithms that implement
//!   [`GraphAlgorithm::cache_key`] get a *job key* (algorithm identity +
//!   parameter encoding + the effective [`MiddlewareConfig`] and iteration
//!   cap).  At submit time the key is checked against an LRU,
//!   byte-budgeted cache ([`ServiceBuilder::cache_capacity`],
//!   [`ServiceBuilder::cache_bytes`]); a hit resolves the [`JobTicket`]
//!   through an already-fired oneshot slot without touching a worker.
//!   Nothing is copied: a run's outcome lives in one `Arc` that its
//!   flight's tickets, its cache entry and every later hit share, so a hit
//!   costs one refcount bump whatever the result's size.  Entries are
//!   versioned: [`GraphService::invalidate_cache`] bumps the service's
//!   graph version so stale results are never served, and
//!   [`GraphService::clear_cache`] drops them outright.  A stale entry is
//!   not freed by the lookup that finds it — that would put its frees on
//!   the submitting caller's path — but stays, unserved, until its key
//!   refills or the LRU and byte bounds evict it;
//!   [`GraphService::cached_results`] counts it until then.  A fill whose
//!   run an invalidation or mutation overtook is stale on arrival and is
//!   not stored.  The entries a fill replaces or evicts are freed on the
//!   worker, after every ticket of the flight resolved.  Per job, [`CachePolicy`] opts out (`Bypass`) or
//!   forces a re-fill (`Refresh`).
//! * **Flights** — a worker runs one *flight* per claim: the job it
//!   dequeued (the leader) plus every queued same-key `UseOrFill` duplicate
//!   of it, claimed in one sweep per lane.  A duplicate is *coalesced*
//!   (single-flight): it takes the leader's result.  The flight runs once,
//!   then one loop resolves every member — success, session error and panic
//!   alike — leader first; the leader's cache fill lands before any ticket
//!   wakes.  Each member counts by outcome and records its own queue wait;
//!   the run records one wall sample.
//!
//! Both serve answers bit-identical to a fresh run — the `determinism`
//! integration test proves it for both execution modes.
//!
//! # Locks
//!
//! The backlog — the three lanes, the `open`/`abort` flags and the count
//! of parked submitters — is one `Mutex<Backlog>` with two condvars: `work`
//! wakes workers, `space` wakes submitters parked on a full queue.  A submit takes it once (admit and
//! push), a worker once per flight (pop the leader, sweep its duplicates).
//! The lock order is `backlog → stats`: a submit counts `submitted` before
//! the push, so no snapshot shows more executed jobs than submitted ones.
//! `cache`, `mutations` and `stopped` are never taken while `backlog` is
//! held, and no job is dropped under it (a job may own the last service
//! handle, whose drop stops the service).

use crate::config::{MiddlewareConfig, PipelineMode};
use crate::session::{RunOutcome, RunOverrides, Session, SessionError, SessionSpec};
use gxplug_engine::template::{DynAlgorithm, GraphAlgorithm, SharedAlgorithm};
use gxplug_graph::graph::PropertyGraph;
use gxplug_graph::mutate::{MutationBatch, MutationError, MutationLog, ResolvedMutation};
use gxplug_ipc::oneshot::{oneshot, resolved, OneshotReceiver, OneshotSender};
use gxplug_ipc::queue::QueueRecvError;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Number of priority lanes ([`JobPriority`] variants).
const LANES: usize = 3;

/// How many per-job `(queue wait, run wall)` samples [`ServiceStats`] keeps
/// for percentile queries (oldest evicted first).
const RECENT_SAMPLES: usize = 1024;

/// Locks a mutex, recovering from poisoning: every lock in this module only
/// guards plain bookkeeping that cannot be left inconsistent by an unwind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Scheduling priority of a submitted job.
///
/// The scheduler always drains higher lanes first; within a lane, jobs run
/// in submission order.  Priorities reorder *queued* jobs only — a running
/// job is never preempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobPriority {
    /// Latency-sensitive traffic, drained before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Batch traffic, drained when the other lanes are empty.
    Low,
}

impl JobPriority {
    /// The lane index of this priority (highest first).
    fn lane(self) -> usize {
        match self {
            JobPriority::High => 0,
            JobPriority::Normal => 1,
            JobPriority::Low => 2,
        }
    }
}

/// How one submission interacts with the service's result cache.
///
/// Only meaningful for algorithms that implement
/// [`GraphAlgorithm::cache_key`]; jobs without a key always run fresh and
/// never fill the cache, whatever the policy says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// Serve a stored result when one exists; otherwise run and store the
    /// fresh one.  Also allows the scheduler to coalesce this job with
    /// queued same-key duplicates (single-flight).
    #[default]
    UseOrFill,
    /// Ignore the cache entirely: no lookup, no fill, no coalescing.
    Bypass,
    /// Skip the lookup but store the fresh result, replacing any stored
    /// entry — a forced re-computation that warms the cache.
    Refresh,
}

/// Per-job options of [`GraphService::submit_with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobOptions {
    /// The priority lane the job queues in.
    pub priority: JobPriority,
    /// Per-job iteration cap, overriding the deployment's
    /// (see [`RunOverrides`]).
    pub max_iterations: Option<usize>,
    /// Per-job middleware configuration, overriding the deployment's
    /// (see [`RunOverrides`]).
    pub config_override: Option<MiddlewareConfig>,
    /// How this job interacts with the result cache (default:
    /// [`CachePolicy::UseOrFill`]).
    pub cache: CachePolicy,
}

impl JobOptions {
    /// Options with every field at its default (normal priority, the
    /// deployment's configuration and cap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the priority lane.
    pub fn with_priority(mut self, priority: JobPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Overrides the iteration cap for this job.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }

    /// Overrides the middleware configuration for this job.
    pub fn with_config(mut self, config: MiddlewareConfig) -> Self {
        self.config_override = Some(config);
        self
    }

    /// Sets how this job interacts with the result cache.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// The [`RunOverrides`] these options route through
    /// [`Session::run_with`].
    fn overrides(&self) -> RunOverrides {
        RunOverrides {
            config: self.config_override,
            max_iterations: self.max_iterations,
        }
    }
}

/// Errors of the job-service API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded queue is at `queue_depth` and the call does not block
    /// ([`GraphService::try_submit`]).
    QueueFull,
    /// The service has been shut down; no further jobs are accepted.
    ShutDown,
    /// The job was cancelled (via [`JobTicket::cancel`] or
    /// [`GraphService::abort`]) before it started running.
    Cancelled,
    /// The job panicked while running.  The worker's deployment was lost and
    /// has been replaced; the service keeps serving.
    JobPanicked,
    /// The job failed with a session-level error (e.g. a device kernel
    /// rejecting a block).  The worker session was recovered.
    Session(SessionError),
    /// The job's result can no longer be delivered — its worker died without
    /// resolving the ticket, or the result was already taken.
    Lost,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull => {
                write!(
                    f,
                    "the service queue is full (backpressure): retry or block"
                )
            }
            ServiceError::ShutDown => write!(f, "the service has been shut down"),
            ServiceError::Cancelled => write!(f, "the job was cancelled before it started"),
            ServiceError::JobPanicked => {
                write!(f, "the job panicked; its worker deployment was replaced")
            }
            ServiceError::Session(error) => write!(f, "the job failed: {error}"),
            ServiceError::Lost => write!(f, "the job's result is no longer available"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Session(error) => Some(error),
            _ => None,
        }
    }
}

impl From<SessionError> for ServiceError {
    fn from(error: SessionError) -> Self {
        ServiceError::Session(error)
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in a priority lane.
    Queued,
    /// Running on a worker session.
    Running,
    /// The ticket has (or had) a result: completed, failed or panicked.
    Finished,
    /// Cancelled before it started.
    Cancelled,
}

const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_FINISHED: u8 = 2;
const STATE_CANCELLED: u8 = 3;

/// The state machine one job and its ticket share.
#[derive(Debug)]
struct JobCell {
    state: AtomicU8,
}

impl JobCell {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(STATE_QUEUED),
        }
    }

    /// Scheduler-side: claim the job for execution.  Fails iff the job was
    /// cancelled first.
    fn begin_running(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_QUEUED,
                STATE_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Ticket-side: cancel the job if it has not started.  Returns whether
    /// this call won the race against the scheduler.
    fn cancel(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_QUEUED,
                STATE_CANCELLED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    fn finish(&self) {
        self.state.store(STATE_FINISHED, Ordering::Release);
    }

    fn status(&self) -> JobStatus {
        match self.state.load(Ordering::Acquire) {
            STATE_QUEUED => JobStatus::Queued,
            STATE_RUNNING => JobStatus::Running,
            STATE_CANCELLED => JobStatus::Cancelled,
            _ => JobStatus::Finished,
        }
    }

    /// What a ticket whose result slot is gone resolves to.
    fn unresolved(&self) -> ServiceError {
        match self.status() {
            JobStatus::Cancelled => ServiceError::Cancelled,
            _ => ServiceError::Lost,
        }
    }
}

/// What a ticket resolves to: the run's one shared outcome.  Every ticket
/// of a flight, the cache entry it fills and every later hit hold the same
/// allocation.
type JobResult<V> = Result<Arc<RunOutcome<V>>, ServiceError>;

/// A job with its algorithm type erased, so heterogeneous jobs share the
/// scheduler queue.  [`DynAlgorithm`] erases the *message* type behind a
/// shared handle; this second layer erases the vertex-level run entirely, so
/// the queue does not even need a common message type.
trait ErasedJob<V, E>: Send {
    /// The cacheable identity of this job — the algorithm's name combined
    /// with its [`GraphAlgorithm::cache_key`] parameter encoding — or `None`
    /// for uncacheable algorithms.
    fn cache_token(&self) -> Option<String>;

    /// Sizes one of this job's outcomes for the result cache's byte budget
    /// ([`sized_outcome_bytes`] instantiated at the concrete algorithm
    /// type).  A plain `fn` so the scheduler can size results after
    /// [`ErasedJob::run`] consumed the job box.
    fn outcome_sizer(&self) -> fn(&RunOutcome<V>) -> usize;

    /// Runs this job on a worker session: accelerated when the deployment
    /// has devices, native otherwise.
    fn run(
        self: Box<Self>,
        session: &mut Session<'_, V, E>,
        overrides: RunOverrides,
    ) -> Result<RunOutcome<V>, SessionError>;
}

struct AlgorithmJob<A>(A);

impl<V, E, A> ErasedJob<V, E> for AlgorithmJob<A>
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
    A: GraphAlgorithm<V, E> + 'static,
{
    fn cache_token(&self) -> Option<String> {
        self.0
            .cache_key()
            .map(|params| format!("{}\u{1f}{params}", self.0.name()))
    }

    fn outcome_sizer(&self) -> fn(&RunOutcome<V>) -> usize {
        sized_outcome_bytes::<V, E, A>
    }

    fn run(
        self: Box<Self>,
        session: &mut Session<'_, V, E>,
        overrides: RunOverrides,
    ) -> Result<RunOutcome<V>, SessionError> {
        if session.has_devices() {
            session.run_with(&self.0, overrides)
        } else {
            Ok(session.run_native_with(&self.0, overrides))
        }
    }
}

/// The cache identity of a job: everything that could change its result.
/// The graph's contents participate via the entry's *version* (see
/// [`CacheEntry`]), not the key — invalidation bumps the version instead of
/// rewriting keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JobKey {
    /// Algorithm name + its [`GraphAlgorithm::cache_key`] encoding.
    algorithm: String,
    /// Fingerprint of the effective [`MiddlewareConfig`] the job would run
    /// with.
    config: String,
    /// The effective iteration cap.
    max_iterations: usize,
}

/// A stable, collision-free encoding of every [`MiddlewareConfig`] field
/// that can influence a run's result or report.  Floats are encoded by bit
/// pattern, mirroring the `cache_key` contract.
fn config_fingerprint(config: &MiddlewareConfig) -> String {
    let pipeline = match config.pipeline {
        PipelineMode::Disabled => "off".to_string(),
        PipelineMode::FixedBlockSize(size) => format!("size:{size}"),
        PipelineMode::FixedBlockCount(count) => format!("count:{count}"),
        PipelineMode::Optimal => "optimal".to_string(),
    };
    format!(
        "{pipeline}|c{}|l{}|s{}|f{:016x}|{:?}",
        u8::from(config.caching),
        u8::from(config.lazy_upload),
        u8::from(config.skipping),
        config.cache_capacity_fraction.to_bits(),
        config.execution,
    )
}

/// One stored result.
struct CacheEntry<V> {
    key: Arc<JobKey>,
    /// The service graph version the result was computed under; an entry
    /// from an older version is never served, and stays until its key
    /// refills or the bounds evict it.
    version: u64,
    /// Shallow size estimate charged against the byte budget.
    bytes: usize,
    /// Shared with the tickets of the flight that filled it and with every
    /// hit since.
    outcome: Arc<RunOutcome<V>>,
}

/// Shallow size estimate of a stored outcome: the vectors' element payloads
/// plus the struct itself.  Heap data *inside* `V` is not traversed here —
/// [`sized_outcome_bytes`] adds it via [`GraphAlgorithm::value_bytes`], so
/// nested per-vertex payloads (multi-source SSSP's per-vertex distance
/// vector) are charged accurately when the algorithm declares them.
fn outcome_bytes<V>(outcome: &RunOutcome<V>) -> usize {
    std::mem::size_of::<RunOutcome<V>>()
        + std::mem::size_of_val(outcome.values.as_slice())
        + std::mem::size_of_val(outcome.agent_stats.as_slice())
}

/// Full size estimate of a stored outcome for algorithm `A`: the shallow
/// [`outcome_bytes`] plus `A`'s declared per-vertex heap payload.
fn sized_outcome_bytes<V, E, A>(outcome: &RunOutcome<V>) -> usize
where
    A: GraphAlgorithm<V, E>,
{
    outcome_bytes(outcome)
        + outcome
            .values
            .iter()
            .map(|value| A::value_bytes(value))
            .sum::<usize>()
}

/// The keyed result cache: LRU order in a deque (front = coldest), bounded
/// by entry count and by estimated bytes.
struct ResultCache<V> {
    entries: VecDeque<CacheEntry<V>>,
    capacity: usize,
    byte_budget: usize,
    bytes: usize,
}

impl<V> ResultCache<V> {
    fn new(capacity: usize, byte_budget: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            capacity,
            byte_budget,
            bytes: 0,
        }
    }

    /// Looks `key` up at `version`: a hit shares the stored outcome (one
    /// refcount bump) and refreshes the entry's LRU position.  An entry
    /// stored under an older version is not served, and is left in place —
    /// freeing it here would put its frees on the submitting caller's path,
    /// under this cache's lock.
    fn lookup(&mut self, key: &JobKey, version: u64) -> Option<Arc<RunOutcome<V>>> {
        let position = self.entries.iter().position(|entry| *entry.key == *key)?;
        if self.entries[position].version != version {
            return None;
        }
        let entry = self.entries.remove(position)?;
        let outcome = Arc::clone(&entry.outcome);
        self.entries.push_back(entry);
        Some(outcome)
    }

    /// Stores `outcome` under `key` at `version`, replacing any existing
    /// entry for the key and evicting from the cold end until both bounds
    /// hold.  `bytes` is the caller's size estimate (see
    /// [`ErasedJob::outcome_sizer`]); outcomes larger than the whole byte
    /// budget are not stored.  Returns the replaced and evicted entries
    /// unfreed, so the caller can drop them outside the lock.
    fn store(
        &mut self,
        key: Arc<JobKey>,
        outcome: Arc<RunOutcome<V>>,
        version: u64,
        bytes: usize,
    ) -> Vec<CacheEntry<V>> {
        let mut freed = Vec::new();
        if self.capacity == 0 || bytes > self.byte_budget {
            return freed;
        }
        let position = self.entries.iter().position(|entry| entry.key == key);
        if let Some(replaced) = position.and_then(|position| self.entries.remove(position)) {
            self.bytes -= replaced.bytes;
            freed.push(replaced);
        }
        self.bytes += bytes;
        self.entries.push_back(CacheEntry {
            key,
            version,
            bytes,
            outcome,
        });
        while self.entries.len() > self.capacity || self.bytes > self.byte_budget {
            let Some(evicted) = self.entries.pop_front() else {
                break;
            };
            self.bytes -= evicted.bytes;
            freed.push(evicted);
        }
        freed
    }

    /// Empties the cache, returning the entries unfreed.
    fn clear(&mut self) -> VecDeque<CacheEntry<V>> {
        self.bytes = 0;
        std::mem::take(&mut self.entries)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One queued job: the erased algorithm, its per-job knobs, its cache
/// identity, and the wiring back to the ticket.
struct JobEnvelope<V, E> {
    cell: Arc<JobCell>,
    reply: OneshotSender<JobResult<V>>,
    submitted: Instant,
    overrides: RunOverrides,
    /// The job's cache key — `None` for uncacheable algorithms and
    /// [`CachePolicy::Bypass`] submissions.
    key: Option<Arc<JobKey>>,
    policy: CachePolicy,
    job: Box<dyn ErasedJob<V, E>>,
}

/// The caller's handle to one submitted job.
///
/// Obtained from [`GraphService::submit`] and friends.  The ticket delivers
/// its result exactly once — through [`JobTicket::wait`] or a successful
/// [`JobTicket::try_result`].
#[derive(Debug)]
pub struct JobTicket<V> {
    id: u64,
    cell: Arc<JobCell>,
    reply: OneshotReceiver<JobResult<V>>,
}

impl<V> JobTicket<V> {
    /// The service-wide id of this job (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Where the job currently is in its lifecycle.
    pub fn status(&self) -> JobStatus {
        self.cell.status()
    }

    /// Cancels the job if it has not started running.  Returns `true` if
    /// the cancellation won (the job will never run; the ticket resolves
    /// with [`ServiceError::Cancelled`] when the scheduler skips it) and
    /// `false` if the job is already running or finished — running jobs are
    /// never preempted.
    pub fn cancel(&self) -> bool {
        self.cell.cancel()
    }

    /// Blocks until the job resolves and returns its result.
    ///
    /// # Errors
    /// Whatever the job resolved to: [`ServiceError::Session`] for a failed
    /// run, [`ServiceError::Cancelled`] for a cancelled one,
    /// [`ServiceError::JobPanicked`] for a panicking one, or
    /// [`ServiceError::Lost`] if the worker died without resolving the
    /// ticket.
    pub fn wait(self) -> JobResult<V> {
        match self.reply.recv() {
            Ok(result) => result,
            Err(_) => Err(self.cell.unresolved()),
        }
    }

    /// [`JobTicket::wait`] with a relative timeout.  `None` means the job
    /// has not resolved yet; the ticket stays valid.  The timeout re-arms on
    /// every call — a wait loop enforcing one overall budget should use
    /// [`JobTicket::wait_deadline`] instead.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult<V>> {
        self.wait_deadline(Instant::now() + timeout)
    }

    /// [`JobTicket::wait`] up to an absolute deadline.  `None` means the job
    /// has not resolved yet; the ticket stays valid, and a deadline already
    /// in the past degrades to a non-blocking poll — so a serving loop can
    /// interleave ticket waits with heartbeat deadlines without drifting.
    pub fn wait_deadline(&self, deadline: Instant) -> Option<JobResult<V>> {
        match self.reply.recv_deadline(deadline) {
            Ok(result) => Some(result),
            Err(QueueRecvError::Timeout) | Err(QueueRecvError::Empty) => None,
            Err(QueueRecvError::Disconnected) => Some(Err(self.cell.unresolved())),
        }
    }

    /// Non-blocking poll: `None` while the job is queued or running,
    /// `Some(result)` once it resolved.  The result is delivered once;
    /// polling again afterwards yields `Some(Err(ServiceError::Lost))`.
    pub fn try_result(&self) -> Option<JobResult<V>> {
        match self.reply.try_recv() {
            Ok(result) => Some(result),
            Err(QueueRecvError::Empty) => None,
            Err(_) => Some(Err(self.cell.unresolved())),
        }
    }
}

/// Every queued job, by lane, and whether jobs are still accepted.  A job
/// leaves its lane when a worker claims it, which frees its queue slot.
struct Backlog<V, E> {
    /// The priority lanes, highest first; FIFO within each.
    lanes: [VecDeque<JobEnvelope<V, E>>; LANES],
    /// Whether submissions are still accepted.
    open: bool,
    /// Set by [`GraphService::abort`]: workers cancel queued jobs instead of
    /// running them.
    abort: bool,
    /// Submitters parked on a full queue: a claim signals `space` only
    /// when one is.
    parked: usize,
}

impl<V, E> Backlog<V, E> {
    /// Jobs queued and not yet claimed by a worker.
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// Internal counters behind [`ServiceStats`].
struct StatsInner {
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    panicked: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced_jobs: u64,
    queue_wait_total: Duration,
    queue_wait_max: Duration,
    run_wall_total: Duration,
    run_wall_max: Duration,
    recent_waits: VecDeque<Duration>,
    recent_walls: VecDeque<Duration>,
    recent_hits: VecDeque<Duration>,
}

impl StatsInner {
    fn new() -> Self {
        Self {
            submitted: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            panicked: 0,
            cache_hits: 0,
            cache_misses: 0,
            coalesced_jobs: 0,
            queue_wait_total: Duration::ZERO,
            queue_wait_max: Duration::ZERO,
            run_wall_total: Duration::ZERO,
            run_wall_max: Duration::ZERO,
            recent_waits: VecDeque::new(),
            recent_walls: VecDeque::new(),
            recent_hits: VecDeque::new(),
        }
    }

    /// Counts one resolved job's queue wait.  Every member of a coalesced
    /// flight waited on its own, so this is recorded per job.
    fn record_wait(&mut self, queue_wait: Duration) {
        self.queue_wait_total += queue_wait;
        self.queue_wait_max = self.queue_wait_max.max(queue_wait);
        if self.recent_waits.len() == RECENT_SAMPLES {
            self.recent_waits.pop_front();
        }
        self.recent_waits.push_back(queue_wait);
    }

    /// Counts one *physical* run's wall time.  A coalesced flight executes
    /// once, so only its leader records this — the wall totals and
    /// percentiles measure worker occupancy, not per-job attribution.
    fn record_wall(&mut self, run_wall: Duration) {
        self.run_wall_total += run_wall;
        self.run_wall_max = self.run_wall_max.max(run_wall);
        if self.recent_walls.len() == RECENT_SAMPLES {
            self.recent_walls.pop_front();
        }
        self.recent_walls.push_back(run_wall);
    }

    fn record_hit(&mut self, latency: Duration) {
        self.cache_hits += 1;
        if self.recent_hits.len() == RECENT_SAMPLES {
            self.recent_hits.pop_front();
        }
        self.recent_hits.push_back(latency);
    }

    /// Builds the compact snapshot from one locked view of the counters and
    /// sample windows.  The gauges are sampled by the caller *before* taking
    /// the stats lock, so this never nests another lock inside it.
    fn snapshot(&self, queued: usize, running: usize, worker_sessions: usize) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            cancelled: self.cancelled,
            panicked: self.panicked,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            coalesced_jobs: self.coalesced_jobs,
            queued,
            running,
            worker_sessions,
            queue_wait_total: self.queue_wait_total,
            queue_wait_max: self.queue_wait_max,
            run_wall_total: self.run_wall_total,
            run_wall_max: self.run_wall_max,
            wait_p50: percentile(self.recent_waits.iter().copied(), 0.50),
            wait_p90: percentile(self.recent_waits.iter().copied(), 0.90),
            wait_p99: percentile(self.recent_waits.iter().copied(), 0.99),
            wall_p50: percentile(self.recent_walls.iter().copied(), 0.50),
            wall_p90: percentile(self.recent_walls.iter().copied(), 0.90),
            wall_p99: percentile(self.recent_walls.iter().copied(), 0.99),
            hit_p50: percentile(self.recent_hits.iter().copied(), 0.50),
        }
    }
}

/// A point-in-time snapshot of a service's counters and latency samples
/// ([`GraphService::stats`]).
///
/// *Queue wait* is submission → claimed by a worker; *run wall* is the
/// job's wall-clock execution time on its worker session.  The two together
/// separate "the service is saturated" (wait grows, wall steady) from "the
/// jobs got heavier" (wall grows).
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Jobs accepted into the queue since the service started.
    pub submitted: u64,
    /// Jobs that ran to a successful outcome.
    pub completed: u64,
    /// Jobs that ran and failed with a session error.
    pub failed: u64,
    /// Jobs cancelled before running.
    pub cancelled: u64,
    /// Jobs that panicked while running.
    pub panicked: u64,
    /// Submissions served straight from the result cache (their tickets
    /// resolved at submit time; they never occupied a queue slot and are
    /// *not* counted in `submitted`).
    pub cache_hits: u64,
    /// Cache-eligible submissions that missed the cache and queued normally.
    pub cache_misses: u64,
    /// Queued duplicate jobs resolved from another job's single flight.
    pub coalesced_jobs: u64,
    /// Jobs currently waiting in the priority lanes.
    pub queued: usize,
    /// Jobs currently executing on worker sessions.
    pub running: usize,
    /// Worker sessions the service was built with.
    pub worker_sessions: usize,
    /// Total queue wait across all executed jobs.
    pub queue_wait_total: Duration,
    /// Largest single queue wait.
    pub queue_wait_max: Duration,
    /// Total wall time across *physical* runs: a coalesced flight executes
    /// once and counts once here, however many job tickets it
    /// resolved — this is worker occupancy, not per-job attribution.
    pub run_wall_total: Duration,
    /// Largest single physical-run wall time.
    pub run_wall_max: Duration,
    /// The retained per-job queue-wait samples, oldest first (bounded; the
    /// basis of [`ServiceStats::queue_wait_percentile`]).
    recent_waits: Vec<Duration>,
    /// The retained per-physical-run wall samples, oldest first (bounded;
    /// the basis of [`ServiceStats::run_wall_percentile`]).
    recent_walls: Vec<Duration>,
    /// The retained cache-hit resolution latencies, oldest first (bounded).
    recent_hits: Vec<Duration>,
}

impl ServiceStats {
    /// Jobs that reached a worker and resolved (completed, failed or
    /// panicked).
    pub fn executed(&self) -> u64 {
        self.completed + self.failed + self.panicked
    }

    /// Mean queue wait over all executed jobs.
    pub fn queue_wait_mean(&self) -> Option<Duration> {
        let executed = self.executed();
        (executed > 0).then(|| self.queue_wait_total / executed as u32)
    }

    /// The retained per-job queue-wait samples, oldest first.
    pub fn recent_wait_samples(&self) -> &[Duration] {
        &self.recent_waits
    }

    /// The retained per-physical-run wall samples, oldest first.  A
    /// coalesced flight contributes one sample, recorded by its leader.
    pub fn recent_wall_samples(&self) -> &[Duration] {
        &self.recent_walls
    }

    /// The `q`-quantile (`0.0..=1.0`) of the retained queue-wait samples.
    pub fn queue_wait_percentile(&self, q: f64) -> Option<Duration> {
        percentile(self.recent_waits.iter().copied(), q)
    }

    /// The `q`-quantile (`0.0..=1.0`) of the retained run-wall samples (one
    /// per physical run).
    pub fn run_wall_percentile(&self, q: f64) -> Option<Duration> {
        percentile(self.recent_walls.iter().copied(), q)
    }

    /// The retained cache-hit resolution latencies, oldest first.
    pub fn cache_hit_samples(&self) -> &[Duration] {
        &self.recent_hits
    }

    /// The `q`-quantile (`0.0..=1.0`) of the retained cache-hit resolution
    /// latencies — submit-time lookup through ticket wiring.
    pub fn cache_hit_percentile(&self, q: f64) -> Option<Duration> {
        percentile(self.recent_hits.iter().copied(), q)
    }
}

/// A compact, lock-consistent point-in-time view of a service's counters
/// and latency percentiles — what a `/metrics` scrape renders.
///
/// Unlike [`ServiceStats`] it carries no sample vectors, so producing one is
/// a single stats-lock acquisition and a bounded percentile computation:
/// cheap enough to call on every scrape, and *torn-read free* — every
/// counter and every percentile comes from the same locked instant, so
/// [`StatsSnapshot::executed`] can never exceed
/// [`StatsSnapshot::submitted`].  (The `queued`/`running` gauges are sampled
/// immediately before that instant from their own sources; they are moving
/// occupancy figures, not monotone counters, and carry no cross-field
/// invariant.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue since the service started.
    pub submitted: u64,
    /// Jobs that ran to a successful outcome.
    pub completed: u64,
    /// Jobs that ran and failed with a session error.
    pub failed: u64,
    /// Jobs cancelled before running.
    pub cancelled: u64,
    /// Jobs that panicked while running.
    pub panicked: u64,
    /// Submissions served straight from the result cache.
    pub cache_hits: u64,
    /// Cache-eligible submissions that missed and queued normally.
    pub cache_misses: u64,
    /// Queued duplicate jobs resolved from another job's single flight.
    pub coalesced_jobs: u64,
    /// Jobs currently waiting in the priority lanes.
    pub queued: usize,
    /// Jobs currently executing on worker sessions.
    pub running: usize,
    /// Worker sessions the service was built with.
    pub worker_sessions: usize,
    /// Total queue wait across all executed jobs.
    pub queue_wait_total: Duration,
    /// Largest single queue wait.
    pub queue_wait_max: Duration,
    /// Total wall time across physical runs.
    pub run_wall_total: Duration,
    /// Largest single physical-run wall time.
    pub run_wall_max: Duration,
    /// Median queue wait over the retained samples.
    pub wait_p50: Option<Duration>,
    /// 90th-percentile queue wait.
    pub wait_p90: Option<Duration>,
    /// 99th-percentile queue wait.
    pub wait_p99: Option<Duration>,
    /// Median physical-run wall time.
    pub wall_p50: Option<Duration>,
    /// 90th-percentile physical-run wall time.
    pub wall_p90: Option<Duration>,
    /// 99th-percentile physical-run wall time.
    pub wall_p99: Option<Duration>,
    /// Median cache-hit resolution latency.
    pub hit_p50: Option<Duration>,
}

impl StatsSnapshot {
    /// Jobs that reached a worker and resolved (completed, failed or
    /// panicked).  Guaranteed `<=` [`StatsSnapshot::submitted`] within one
    /// snapshot.
    pub fn executed(&self) -> u64 {
        self.completed + self.failed + self.panicked
    }
}

/// Nearest-rank percentile over a sample iterator.
fn percentile(samples: impl Iterator<Item = Duration>, q: f64) -> Option<Duration> {
    let mut sorted: Vec<Duration> = samples.collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable();
    let index = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[index])
}

/// State shared between the handles and the scheduler workers.
struct ServiceShared<V, E> {
    backlog: Mutex<Backlog<V, E>>,
    /// Wakes parked workers: one per push, all on shutdown.
    work: Condvar,
    /// Wakes submitters parked on a full queue: as slots free, and on shutdown.
    space: Condvar,
    queue_depth: usize,
    worker_sessions: usize,
    running: AtomicUsize,
    next_id: AtomicU64,
    stats: Mutex<StatsInner>,
    /// The keyed result cache (empty-capacity when disabled).
    cache: Mutex<ResultCache<V>>,
    /// The service's graph version: entries are stored under the version
    /// current at fill time and only served while it still is current.
    /// [`GraphService::invalidate_cache`] bumps it, and so does every
    /// accepted mutation batch — cached results over the pre-mutation graph
    /// invalidate automatically.
    graph_version: AtomicU64,
    /// The service's versioned mutation log.  Batches are validated and
    /// appended under this lock ([`GraphService::apply_mutations`]); workers
    /// replay the suffix they have not applied yet right before each job
    /// runs, under the same lock — so a running job never observes a
    /// half-applied batch, and a batch accepted mid-run lands before the
    /// *next* job on each worker.
    mutations: Mutex<MutationLog<V, E>>,
    /// The deployment's defaults — the effective key fields of jobs that do
    /// not override them.
    default_config: MiddlewareConfig,
    default_max_iterations: usize,
}

/// The shared owner every [`GraphService`] clone points at.
struct ServiceInner<V, E> {
    shared: Arc<ServiceShared<V, E>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Thread ids of the scheduler workers, fixed at build time: `stop`
    /// consults it to recognise re-entrant teardown from inside a job.
    worker_ids: Vec<ThreadId>,
    /// Set once the backlog has drained and the workers were joined; late
    /// `stop` callers wait on it so the drain guarantee holds for every
    /// caller, not just the first.
    stopped: Mutex<bool>,
    stopped_signal: Condvar,
}

impl<V, E> ServiceInner<V, E> {
    /// Stops the service: closes admission, ends the workers (after the
    /// backlog drains — or is cancelled, when `abort`), joins them.
    /// Idempotent; callable from any handle and any thread — including,
    /// degenerately, a scheduler worker's own thread (a job holding a
    /// service clone): the worker's own handle is detached instead of
    /// joined, which forfeits the stronger "all workers torn down before
    /// return" guarantee only for that re-entrant caller.
    fn stop(&self, abort: bool) {
        {
            let mut backlog = lock(&self.shared.backlog);
            backlog.open = false;
            backlog.abort |= abort;
        }
        // Parked submitters must observe the close; parked workers drain the
        // backlog and then exit.
        self.shared.space.notify_all();
        self.shared.work.notify_all();
        let current = thread::current().id();
        let workers = std::mem::take(&mut *lock(&self.workers));
        if workers.is_empty() {
            // Another caller claimed the joiner role.  Wait for it to finish
            // so this caller gets the documented drain guarantee too — except
            // on a worker thread, where waiting would deadlock the joiner
            // that is waiting for *this* thread.
            if !self.worker_ids.contains(&current) {
                let mut stopped = lock(&self.stopped);
                while !*stopped {
                    stopped = self
                        .stopped_signal
                        .wait(stopped)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            return;
        }
        for worker in workers {
            if worker.thread().id() == current {
                // Re-entrant stop from inside a job on this very worker:
                // joining our own thread would deadlock.  Detach it — the
                // loop is already doomed (admission closed) and exits after
                // the drain.
                drop(worker);
            } else {
                let _ = worker.join();
            }
        }
        *lock(&self.stopped) = true;
        self.stopped_signal.notify_all();
    }
}

impl<V, E> Drop for ServiceInner<V, E> {
    /// Dropping the last handle drains and joins, so no scheduler thread
    /// (or its deployed session) outlives the service.
    fn drop(&mut self) {
        self.stop(false);
    }
}

/// A concurrent graph-analytics job service over pooled deployments.
///
/// Built by [`ServiceBuilder`] (see [`GraphService::builder`]).  The handle
/// is cheap to clone and `Send + Sync`; all clones share the same pool,
/// queue and statistics.  See the [module docs](self) for the full model.
pub struct GraphService<V: 'static, E: 'static> {
    inner: Arc<ServiceInner<V, E>>,
}

impl<V, E> Clone for GraphService<V, E> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V, E> fmt::Debug for GraphService<V, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shared = &self.inner.shared;
        f.debug_struct("GraphService")
            .field("worker_sessions", &shared.worker_sessions)
            .field("queue_depth", &shared.queue_depth)
            .field("queued", &lock(&shared.backlog).queued())
            .field("running", &shared.running.load(Ordering::Relaxed))
            .finish()
    }
}

impl<V, E> GraphService<V, E>
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    /// Starts describing a service over `graph` (same as
    /// [`ServiceBuilder::new`]).
    pub fn builder(graph: Arc<PropertyGraph<V, E>>) -> ServiceBuilder<V, E> {
        ServiceBuilder::new(graph)
    }

    /// Submits a job at normal priority, parking the caller while the queue
    /// is full.
    ///
    /// # Errors
    /// [`ServiceError::ShutDown`], also when the service shuts down while
    /// the caller is parked.
    pub fn submit<A>(&self, algorithm: A) -> Result<JobTicket<V>, ServiceError>
    where
        A: GraphAlgorithm<V, E> + 'static,
    {
        self.submit_with(algorithm, JobOptions::default())
    }

    /// [`GraphService::submit`] with explicit [`JobOptions`] (priority lane,
    /// per-job iteration cap and configuration override).
    ///
    /// # Errors
    /// See [`GraphService::submit`].
    pub fn submit_with<A>(
        &self,
        algorithm: A,
        options: JobOptions,
    ) -> Result<JobTicket<V>, ServiceError>
    where
        A: GraphAlgorithm<V, E> + 'static,
    {
        self.enqueue(Box::new(AlgorithmJob(algorithm)), options, true)
    }

    /// Non-blocking submission: returns [`ServiceError::QueueFull`] instead
    /// of ever waiting for a slot.
    ///
    /// # Errors
    /// [`ServiceError::QueueFull`] or [`ServiceError::ShutDown`].
    pub fn try_submit<A>(&self, algorithm: A) -> Result<JobTicket<V>, ServiceError>
    where
        A: GraphAlgorithm<V, E> + 'static,
    {
        self.try_submit_with(algorithm, JobOptions::default())
    }

    /// [`GraphService::try_submit`] with explicit [`JobOptions`].
    ///
    /// # Errors
    /// See [`GraphService::try_submit`].
    pub fn try_submit_with<A>(
        &self,
        algorithm: A,
        options: JobOptions,
    ) -> Result<JobTicket<V>, ServiceError>
    where
        A: GraphAlgorithm<V, E> + 'static,
    {
        self.enqueue(Box::new(AlgorithmJob(algorithm)), options, false)
    }

    /// Submits an algorithm already erased behind [`DynAlgorithm`] — the
    /// route for heterogeneous job mixes sharing a message type `M`
    /// (mixed PageRank/SSSP traffic in one queue).
    ///
    /// # Errors
    /// See [`GraphService::submit`].
    pub fn submit_dyn<M>(
        &self,
        algorithm: Arc<dyn DynAlgorithm<V, E, M>>,
        options: JobOptions,
    ) -> Result<JobTicket<V>, ServiceError>
    where
        M: Clone + Send + Sync + 'static,
    {
        self.submit_with(SharedAlgorithm::from_arc(algorithm), options)
    }

    fn enqueue(
        &self,
        job: Box<dyn ErasedJob<V, E>>,
        options: JobOptions,
        blocking: bool,
    ) -> Result<JobTicket<V>, ServiceError> {
        let shared = &self.inner.shared;
        // The job's cache identity: algorithm identity + parameters, plus
        // the effective configuration and iteration cap the run would use.
        // Uncacheable algorithms (and Bypass submissions) skip the cache
        // machinery entirely.
        let key = if options.cache == CachePolicy::Bypass {
            None
        } else {
            job.cache_token().map(|algorithm| {
                Arc::new(JobKey {
                    algorithm,
                    config: config_fingerprint(
                        &options.config_override.unwrap_or(shared.default_config),
                    ),
                    max_iterations: options
                        .max_iterations
                        .unwrap_or(shared.default_max_iterations),
                })
            })
        };
        if options.cache == CachePolicy::UseOrFill {
            if let Some(key) = key.as_deref() {
                let looked_up = Instant::now();
                let version = shared.graph_version.load(Ordering::Acquire);
                let hit = lock(&shared.cache).lookup(key, version);
                match hit {
                    Some(outcome) => {
                        // A hit still honours shutdown: a closed service
                        // serves nothing, not even cached answers.
                        if !lock(&shared.backlog).open {
                            return Err(ServiceError::ShutDown);
                        }
                        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                        let cell = Arc::new(JobCell::new());
                        cell.finish();
                        lock(&shared.stats).record_hit(looked_up.elapsed());
                        // The ticket resolves through an already-fired slot:
                        // no queue slot, no worker.
                        return Ok(JobTicket {
                            id,
                            cell,
                            reply: resolved(Ok(outcome)),
                        });
                    }
                    None => lock(&shared.stats).cache_misses += 1,
                }
            }
        }
        let cell = Arc::new(JobCell::new());
        let (reply, ticket_reply) = oneshot();
        // Admission and push under one acquisition: a concurrent shutdown
        // either sees this job (and drains it) or this call sees the close.
        let mut backlog = lock(&shared.backlog);
        loop {
            if !backlog.open {
                return Err(ServiceError::ShutDown);
            }
            if backlog.queued() < shared.queue_depth {
                break;
            }
            if !blocking {
                return Err(ServiceError::QueueFull);
            }
            backlog.parked += 1;
            backlog = shared
                .space
                .wait(backlog)
                .unwrap_or_else(PoisonError::into_inner);
            backlog.parked -= 1;
        }
        // Counted before the push: a worker can claim and finish the job the
        // moment it is queued, and a stats snapshot must never show more
        // executed jobs than submitted ones.
        lock(&shared.stats).submitted += 1;
        backlog.lanes[options.priority.lane()].push_back(JobEnvelope {
            cell: Arc::clone(&cell),
            reply,
            submitted: Instant::now(),
            overrides: options.overrides(),
            key,
            policy: options.cache,
            job,
        });
        drop(backlog);
        shared.work.notify_one();
        Ok(JobTicket {
            id: shared.next_id.fetch_add(1, Ordering::Relaxed),
            cell,
            reply: ticket_reply,
        })
    }

    /// A point-in-time snapshot of the service's counters and latency
    /// samples.
    ///
    /// The gauges (`queued`, `running`) are sampled from their own sources
    /// immediately before the stats lock is taken — never nested inside it —
    /// and every counter and sample window is then read under that one
    /// acquisition, so the monotone counters are mutually consistent
    /// (`executed() <= submitted`, always).
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.inner.shared;
        let queued = lock(&shared.backlog).queued();
        let running = shared.running.load(Ordering::Relaxed);
        let stats = lock(&shared.stats);
        ServiceStats {
            submitted: stats.submitted,
            completed: stats.completed,
            failed: stats.failed,
            cancelled: stats.cancelled,
            panicked: stats.panicked,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            coalesced_jobs: stats.coalesced_jobs,
            queued,
            running,
            worker_sessions: shared.worker_sessions,
            queue_wait_total: stats.queue_wait_total,
            queue_wait_max: stats.queue_wait_max,
            run_wall_total: stats.run_wall_total,
            run_wall_max: stats.run_wall_max,
            recent_waits: stats.recent_waits.iter().copied().collect(),
            recent_walls: stats.recent_walls.iter().copied().collect(),
            recent_hits: stats.recent_hits.iter().copied().collect(),
        }
    }

    /// The compact, lock-consistent [`StatsSnapshot`]: one stats-lock
    /// acquisition, no sample-vector clones, percentiles pre-computed.  This
    /// is the scrape path — a `/metrics` endpoint calling this on every
    /// request never observes torn counters (`executed > submitted` is
    /// impossible) and never pays the allocation cost of
    /// [`GraphService::stats`].
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let shared = &self.inner.shared;
        let queued = lock(&shared.backlog).queued();
        let running = shared.running.load(Ordering::Relaxed);
        lock(&shared.stats).snapshot(queued, running, shared.worker_sessions)
    }

    /// Invalidates every cached result by bumping the service's graph
    /// version: entries stored under earlier versions are never served again
    /// (each stays, unserved, until its key refills or the cache's bounds
    /// evict it).  Call this whenever
    /// the graph data changes out from under the service —
    /// [`GraphService::apply_mutations`] rides on this same counter.
    pub fn invalidate_cache(&self) {
        self.inner
            .shared
            .graph_version
            .fetch_add(1, Ordering::AcqRel);
    }

    /// Applies one live mutation batch to the served graph.
    ///
    /// The batch is validated against the current graph shape and appended
    /// to the service's versioned mutation log; the graph version is bumped
    /// under the same lock, so every previously cached result is invalid
    /// the moment this returns.  Worker sessions replay the new batch in
    /// place right before their next job — in-flight jobs finish on the
    /// shape they started with, queued and future jobs observe the mutated
    /// graph.  Nothing is redeployed: each worker's cost is proportional to
    /// the delta and the shards it touches.
    ///
    /// Returns the resolved batch: its [`version`](ResolvedMutation::version)
    /// is the log position the mutation committed at, and its
    /// [`num_vertices`](ResolvedMutation::num_vertices) /
    /// [`num_edges`](ResolvedMutation::num_edges) describe the post-batch
    /// shape.
    ///
    /// # Errors
    /// The batch is rejected as a whole (and nothing changes) when any op is
    /// invalid against the working shape — see [`MutationError`].
    pub fn apply_mutations(
        &self,
        batch: &MutationBatch<V, E>,
    ) -> Result<Arc<ResolvedMutation<V, E>>, MutationError> {
        let shared = &self.inner.shared;
        let mut log = lock(&shared.mutations);
        let delta = log.append(batch)?;
        // Bumped while the log lock is held: a worker sampling the version
        // under that lock is guaranteed to have replayed every batch the
        // version covers.
        shared.graph_version.fetch_add(1, Ordering::AcqRel);
        Ok(delta)
    }

    /// The mutation-log version of the served graph: the number of mutation
    /// batches accepted so far.
    pub fn mutation_version(&self) -> u64 {
        lock(&self.inner.shared.mutations).version()
    }

    /// The served graph's current shape, mutations included:
    /// `(num_vertices, num_edges)`.
    pub fn graph_shape(&self) -> (usize, usize) {
        let log = lock(&self.inner.shared.mutations);
        (log.num_vertices(), log.num_edges())
    }

    /// Drops every cached result immediately, freeing the cache's memory.
    /// Unlike [`GraphService::invalidate_cache`] this does not change what
    /// is *valid* — fills after the clear serve again.
    pub fn clear_cache(&self) {
        // Taken out under the lock, freed after it is released.
        let cleared = lock(&self.inner.shared.cache).clear();
        drop(cleared);
    }

    /// Number of results currently held by the cache, stale entries that
    /// have not been refilled or evicted yet included.
    pub fn cached_results(&self) -> usize {
        lock(&self.inner.shared.cache).len()
    }

    /// Number of pooled worker sessions.
    pub fn worker_sessions(&self) -> usize {
        self.inner.shared.worker_sessions
    }

    /// Capacity of the bounded job queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.shared.queue_depth
    }

    /// Whether the service still accepts submissions.
    pub fn is_open(&self) -> bool {
        lock(&self.inner.shared.backlog).open
    }

    /// Shuts the service down, **draining** the queue: submissions are
    /// rejected from this point on, every already-accepted job still runs,
    /// every ticket resolves, and all worker sessions are torn down before
    /// this returns.  Idempotent, callable from any clone of the handle.
    pub fn shutdown(&self) {
        self.inner.stop(false);
    }

    /// Shuts the service down, **aborting** the queue: jobs already running
    /// complete, queued jobs are cancelled (their tickets resolve with
    /// [`ServiceError::Cancelled`]), and all worker sessions are torn down
    /// before this returns.  Idempotent, callable from any clone.
    pub fn abort(&self) {
        self.inner.stop(true);
    }
}

impl<V, E> ServiceShared<V, E> {
    /// Parks until a job is queued, then takes the oldest job of the highest
    /// non-empty lane — and, when it is a keyed `UseOrFill` job, every queued
    /// same-key `UseOrFill` duplicate, lanes highest first, FIFO within each
    /// — in one acquisition.  Returns them leader first, with the abort
    /// flag; `None` once the service is closed and the backlog has drained.
    fn take_flight(&self) -> Option<(Vec<JobEnvelope<V, E>>, bool)> {
        let mut backlog = lock(&self.backlog);
        let leader = loop {
            if let Some(leader) = backlog.lanes.iter_mut().find_map(VecDeque::pop_front) {
                break leader;
            }
            if !backlog.open {
                return None;
            }
            backlog = self
                .work
                .wait(backlog)
                .unwrap_or_else(PoisonError::into_inner);
        };
        let coalescing = leader.policy == CachePolicy::UseOrFill;
        let sweep = leader.key.clone().filter(|_| coalescing);
        let mut taken = vec![leader];
        if let Some(key) = sweep {
            for lane in &mut backlog.lanes {
                let (swept, kept): (VecDeque<_>, VecDeque<_>) =
                    std::mem::take(lane).into_iter().partition(|peer| {
                        peer.policy == CachePolicy::UseOrFill && peer.key.as_ref() == Some(&key)
                    });
                *lane = kept;
                taken.extend(swept);
            }
        }
        if backlog.parked > 0 {
            self.space.notify_all();
        }
        Some((taken, backlog.abort))
    }
}

/// The ticket side of one flight member.
struct Member<V> {
    cell: Arc<JobCell>,
    reply: OneshotSender<JobResult<V>>,
    queue_wait: Duration,
}

/// One physical run and every ticket it resolves.
struct Flight<V, E> {
    /// The leader's job, consumed by the run.
    job: Box<dyn ErasedJob<V, E>>,
    overrides: RunOverrides,
    /// The key the run's result fills: the leader's, `None` for uncacheable
    /// jobs and `Bypass` submissions.
    key: Option<Arc<JobKey>>,
    /// The leader first, then the coalesced duplicates in sweep order: each
    /// takes the leader's result.
    members: Vec<Member<V>>,
}

impl<V, E> Flight<V, E> {
    /// Claims the jobs [`ServiceShared::take_flight`] took — measures each
    /// one's queue wait and marks it running, or resolves it
    /// [`ServiceError::Cancelled`] if its caller cancelled it or an abort
    /// voids it — and assembles their flight: the first claimed job leads,
    /// the rest are its duplicates.  `None` if every job was cancelled.
    fn assemble(
        shared: &ServiceShared<V, E>,
        taken: Vec<JobEnvelope<V, E>>,
        abort: bool,
    ) -> Option<Self> {
        let mut claimed = taken.into_iter().filter_map(|envelope| {
            let queue_wait = envelope.submitted.elapsed();
            if abort || !envelope.cell.begin_running() {
                envelope.cell.cancel();
                lock(&shared.stats).cancelled += 1;
                let _ = envelope.reply.send(Err(ServiceError::Cancelled));
                return None;
            }
            let member = Member {
                cell: envelope.cell,
                reply: envelope.reply,
                queue_wait,
            };
            Some((envelope.job, envelope.overrides, envelope.key, member))
        });
        let (job, overrides, key, leader) = claimed.next()?;
        let members = std::iter::once(leader)
            .chain(claimed.map(|(.., member)| member))
            .collect();
        Some(Flight {
            job,
            overrides,
            key,
            members,
        })
    }
}

/// Resolves every member of a flight from its run's `result` (`None` when
/// the run panicked).  The outcome is wrapped in one `Arc` that the cache
/// entry and every member share.  The result fills `key` before any ticket
/// wakes; the leader resolves first and alone records the physical run's
/// wall.  The entries the fill replaced or evicted are freed last, after
/// every ticket resolved.  `sizer` is the leader's
/// [`ErasedJob::outcome_sizer`].
fn land<V, E>(
    shared: &ServiceShared<V, E>,
    members: Vec<Member<V>>,
    key: Option<Arc<JobKey>>,
    result: Option<Result<RunOutcome<V>, SessionError>>,
    run_wall: Duration,
    version: u64,
    sizer: fn(&RunOutcome<V>) -> usize,
) {
    let result: JobResult<V> = match result {
        Some(result) => result.map(Arc::new).map_err(ServiceError::Session),
        None => Err(ServiceError::JobPanicked),
    };
    let freed = match (&result, key) {
        // A fill the graph has already moved past (an invalidation or a
        // mutation raced with the run) would never be served; storing it
        // would only push colder, valid entries out.
        (Ok(outcome), Some(key)) if version == shared.graph_version.load(Ordering::Acquire) => {
            let bytes = sizer(outcome);
            lock(&shared.cache).store(key, Arc::clone(outcome), version, bytes)
        }
        _ => Vec::new(),
    };
    let resolve = |member: Member<V>, leader: bool, result: JobResult<V>| {
        member.cell.finish();
        {
            let mut stats = lock(&shared.stats);
            stats.record_wait(member.queue_wait);
            match &result {
                Ok(_) => stats.completed += 1,
                Err(ServiceError::JobPanicked) => stats.panicked += 1,
                Err(_) => stats.failed += 1,
            }
            if leader {
                stats.record_wall(run_wall);
            } else {
                stats.coalesced_jobs += 1;
            }
        }
        let _ = member.reply.send(result);
    };
    for (index, member) in members.into_iter().enumerate() {
        resolve(member, index == 0, result.clone());
    }
    drop(freed);
}

/// The scheduler loop of one worker session.
fn worker_loop<V, E>(
    graph: Arc<PropertyGraph<V, E>>,
    spec: SessionSpec,
    shared: Arc<ServiceShared<V, E>>,
) where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    // Cannot fail: `ServiceBuilder::build` validated the spec against this
    // graph before starting any worker (see "Redeploys" in the module docs).
    let deploy = || {
        spec.build_session(&graph)
            .expect("the spec was validated when the service was built")
    };
    let mut session = deploy();
    // How many mutation batches this worker's session has replayed.  A
    // redeployed (post-panic) session starts from zero and replays the whole
    // log before its next job.
    let mut mutations_applied = 0usize;
    while let Some((taken, abort)) = shared.take_flight() {
        let Some(Flight {
            job,
            overrides,
            key,
            members,
        }) = Flight::assemble(&shared, taken, abort)
        else {
            continue;
        };
        // Catch the session up with the mutation log, then sample the
        // version the results are stored under — both under the log lock,
        // so the sampled version never covers a batch this session has not
        // replayed.  Sampling *before* the run means an invalidation (or a
        // mutation) racing with the run makes the fill stale (never stored)
        // rather than wrongly fresh.
        let version = {
            let log = lock(&shared.mutations);
            for delta in &log.batches()[mutations_applied..] {
                session.apply_mutations(delta);
            }
            mutations_applied = log.batches().len();
            shared.graph_version.load(Ordering::Acquire)
        };
        // Captured before `run` consumes the job box.
        let sizer = job.outcome_sizer();
        shared.running.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| job.run(&mut session, overrides))).ok();
        let run_wall = started.elapsed();
        shared.running.fetch_sub(1, Ordering::SeqCst);
        let panicked = result.is_none();
        land(&shared, members, key, result, run_wall, version, sizer);
        if panicked {
            // The unwound run consumed the deployment's daemons (their
            // device contexts shut down as they dropped).  Replace the
            // poisoned session so the service keeps serving; the fresh
            // deployment is pre-mutation, so the whole log replays before
            // the next job.
            session = deploy();
            mutations_applied = 0;
        }
    }
    // `session` drops here: the worker's daemons disconnect with it.
}

/// Fluent description of a [`GraphService`]: a deployment spec (the same
/// knobs as [`SessionBuilder`](crate::SessionBuilder)) plus the service's
/// own knobs — pool size, queue depth and the result cache's bounds.
///
/// The graph is shared (`Arc`) rather than borrowed because the worker
/// sessions live on scheduler threads that outlive the builder's scope.  An
/// existing [`SessionBuilder`](crate::SessionBuilder) converts via
/// [`SessionBuilder::into_spec`](crate::SessionBuilder::into_spec) +
/// [`ServiceBuilder::from_spec`].
#[derive(Debug)]
pub struct ServiceBuilder<V, E> {
    graph: Arc<PropertyGraph<V, E>>,
    spec: SessionSpec,
    worker_sessions: usize,
    queue_depth: usize,
    cache_capacity: usize,
    cache_bytes: usize,
}

/// Default queue depth of a [`ServiceBuilder`].
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Default entry capacity of the result cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Default byte budget of the result cache (64 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

impl<V, E> ServiceBuilder<V, E>
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    /// Starts describing a service over `graph` with one worker session and
    /// a queue depth of [`DEFAULT_QUEUE_DEPTH`].
    pub fn new(graph: Arc<PropertyGraph<V, E>>) -> Self {
        Self::from_spec(graph, SessionSpec::default())
    }

    /// Starts from an existing deployment description (e.g.
    /// [`SessionBuilder::into_spec`](crate::SessionBuilder::into_spec)).
    pub fn from_spec(graph: Arc<PropertyGraph<V, E>>, spec: SessionSpec) -> Self {
        Self {
            graph,
            spec,
            worker_sessions: 1,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }

    /// The partitioning of the graph over distributed nodes (required).
    pub fn partitioned_by(mut self, partitioning: gxplug_graph::partition::Partitioning) -> Self {
        self.spec.partitioning = Some(partitioning);
        self
    }

    /// The upper system's runtime profile (default: PowerGraph-like).
    pub fn profile(mut self, profile: gxplug_engine::profile::RuntimeProfile) -> Self {
        self.spec.profile = profile;
        self
    }

    /// The interconnect model (default: datacenter).
    pub fn network(mut self, network: gxplug_engine::network::NetworkModel) -> Self {
        self.spec.network = network;
        self
    }

    /// The devices plugged into each node of every worker deployment, one
    /// spec list per partition.  Leave unset for a native-only service.
    pub fn devices(mut self, devices_per_node: Vec<Vec<gxplug_accel::DeviceSpec>>) -> Self {
        self.spec.devices = devices_per_node;
        self
    }

    /// Overrides the backend every plugged device is built with.
    pub fn backend(mut self, backend: gxplug_accel::BackendKind) -> Self {
        self.spec.backend = Some(backend);
        self
    }

    /// The middleware configuration jobs run with unless they override it.
    pub fn config(mut self, config: MiddlewareConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// The dataset label carried into run reports.
    pub fn dataset(mut self, dataset: impl Into<String>) -> Self {
        self.spec.dataset = dataset.into();
        self
    }

    /// The iteration cap jobs run with unless they override it.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.spec.max_iterations = max_iterations;
        self
    }

    /// Number of pooled worker sessions (≥ 1; default 1).  Each worker is a
    /// full deployment of the spec driving jobs concurrently with the
    /// others.
    pub fn worker_sessions(mut self, worker_sessions: usize) -> Self {
        self.worker_sessions = worker_sessions.max(1);
        self
    }

    /// Capacity of the bounded job queue (≥ 1; default
    /// [`DEFAULT_QUEUE_DEPTH`]).  Beyond it [`GraphService::submit`] parks
    /// and [`GraphService::try_submit`] reports [`ServiceError::QueueFull`].
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Entry capacity of the result cache (default
    /// [`DEFAULT_CACHE_CAPACITY`]).  `0` disables caching — every keyed
    /// lookup misses and nothing is stored; single-flight coalescing of
    /// queued duplicates still applies.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Byte budget of the result cache (default [`DEFAULT_CACHE_BYTES`]).
    /// Entries are evicted coldest-first until the estimated resident bytes
    /// fit; a single result larger than the whole budget is never stored.
    ///
    /// The estimate counts the outcome's inline vectors plus whatever heap
    /// payload the algorithm declares via [`GraphAlgorithm::value_bytes`].
    /// For vertex values owning heap data the algorithm does not declare
    /// (including any algorithm erased behind `SharedAlgorithm`, where the
    /// `Self: Sized` hook is unreachable), the estimate undercounts by that
    /// payload — size the budget conservatively or rely on
    /// [`ServiceBuilder::cache_capacity`]'s entry cap in that case.
    pub fn cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Validates the deployment description, deploys the worker sessions and
    /// starts the scheduler threads.
    ///
    /// # Errors
    /// The same typed [`SessionError`]s as
    /// [`SessionBuilder::build`](crate::SessionBuilder::build) — a service
    /// cannot be built from a deployment a session could not be built from.
    pub fn build(self) -> Result<GraphService<V, E>, SessionError> {
        self.spec.validate_for(&self.graph)?;
        let shared = Arc::new(ServiceShared {
            backlog: Mutex::new(Backlog {
                lanes: Default::default(),
                open: true,
                abort: false,
                parked: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            queue_depth: self.queue_depth,
            worker_sessions: self.worker_sessions,
            running: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            stats: Mutex::new(StatsInner::new()),
            cache: Mutex::new(ResultCache::new(self.cache_capacity, self.cache_bytes)),
            graph_version: AtomicU64::new(0),
            mutations: Mutex::new(MutationLog::new(
                self.graph.num_vertices(),
                self.graph.edges().iter().map(|edge| (edge.src, edge.dst)),
            )),
            default_config: self.spec.config,
            default_max_iterations: self.spec.max_iterations,
        });
        let mut workers = Vec::with_capacity(self.worker_sessions);
        let mut refused = None;
        for index in 0..self.worker_sessions {
            let graph = Arc::clone(&self.graph);
            let spec = self.spec.clone();
            let worker_shared = Arc::clone(&shared);
            match thread::Builder::new()
                .name(format!("gxplug-service-{index}"))
                .spawn(move || worker_loop(graph, spec, worker_shared))
            {
                Ok(worker) => workers.push(worker),
                Err(error) => {
                    refused = Some(error.kind());
                    break;
                }
            }
        }
        let worker_ids = workers.iter().map(|worker| worker.thread().id()).collect();
        let inner = Arc::new(ServiceInner {
            shared,
            workers: Mutex::new(workers),
            worker_ids,
            stopped: Mutex::new(false),
            stopped_signal: Condvar::new(),
        });
        if let Some(kind) = refused {
            // Dropping the half-built service stops and joins the workers
            // that did start.
            drop(inner);
            return Err(SessionError::WorkerSpawn(kind));
        }
        Ok(GraphService { inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;
    use gxplug_accel::{presets, DeviceSpec};
    use gxplug_engine::template::AddressedMessage;
    use gxplug_graph::generators::{Generator, Rmat};
    use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner};
    use gxplug_graph::types::{Triplet, VertexId};
    use std::sync::atomic::AtomicBool;
    use std::sync::Once;
    use std::thread::{self, JoinHandle};

    /// Single-source SSSP over f64 vertices (the module's workhorse job).
    #[derive(Clone)]
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

    /// A gate the test holds closed while it stuffs the queue: the worker
    /// blocks in the job's first `msg_gen_into` until released.
    #[derive(Clone, Default)]
    struct GateControl(Arc<(Mutex<bool>, Condvar)>);

    impl GateControl {
        fn release(&self) {
            let (flag, condvar) = &*self.0;
            *lock(flag) = true;
            condvar.notify_all();
        }

        fn wait_open(&self) {
            let (flag, condvar) = &*self.0;
            let mut open = lock(flag);
            while !*open {
                open = condvar.wait(open).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// SSSP that blocks on a gate before generating its first message.
    struct GatedSssp {
        inner: Sssp,
        gate: GateControl,
    }

    impl GraphAlgorithm<f64, f64> for GatedSssp {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, d: usize) -> f64 {
            GraphAlgorithm::init_vertex(&self.inner, v, d)
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            self.gate.wait_open();
            GraphAlgorithm::msg_gen_into(&self.inner, t, i, out)
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            GraphAlgorithm::msg_merge(&self.inner, a, b)
        }
        fn msg_apply(&self, v: VertexId, cur: &f64, msg: &f64, i: usize) -> Option<f64> {
            GraphAlgorithm::msg_apply(&self.inner, v, cur, msg, i)
        }
        fn initial_active(&self, n: usize) -> Option<Vec<VertexId>> {
            GraphAlgorithm::initial_active(&self.inner, n)
        }
        fn name(&self) -> &'static str {
            "gated-sssp"
        }
    }

    /// SSSP that appends its tag to a shared log when it starts executing
    /// (exactly once), so tests can observe scheduling order.
    struct LoggedSssp {
        inner: Sssp,
        tag: u32,
        log: Arc<Mutex<Vec<u32>>>,
        once: Once,
    }

    impl LoggedSssp {
        fn new(tag: u32, log: Arc<Mutex<Vec<u32>>>) -> Self {
            Self {
                inner: Sssp { sources: vec![0] },
                tag,
                log,
                once: Once::new(),
            }
        }
    }

    impl GraphAlgorithm<f64, f64> for LoggedSssp {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, d: usize) -> f64 {
            self.once.call_once(|| lock(&self.log).push(self.tag));
            GraphAlgorithm::init_vertex(&self.inner, v, d)
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            GraphAlgorithm::msg_gen_into(&self.inner, t, i, out)
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            GraphAlgorithm::msg_merge(&self.inner, a, b)
        }
        fn msg_apply(&self, v: VertexId, cur: &f64, msg: &f64, i: usize) -> Option<f64> {
            GraphAlgorithm::msg_apply(&self.inner, v, cur, msg, i)
        }
        fn initial_active(&self, n: usize) -> Option<Vec<VertexId>> {
            GraphAlgorithm::initial_active(&self.inner, n)
        }
        fn name(&self) -> &'static str {
            "logged-sssp"
        }
    }

    /// An algorithm that panics in its first kernel call.  It is keyed, so
    /// queued copies coalesce into one flight.
    struct PanickingJob;

    impl GraphAlgorithm<f64, f64> for PanickingJob {
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
            panic!("injected job failure");
        }
        fn msg_merge(&self, a: f64, _b: f64) -> f64 {
            a
        }
        fn msg_apply(&self, _v: VertexId, _c: &f64, _m: &f64, _i: usize) -> Option<f64> {
            None
        }
        fn name(&self) -> &'static str {
            "panicking-job"
        }
        fn cache_key(&self) -> Option<String> {
            Some(String::new())
        }
    }

    fn test_graph() -> Arc<PropertyGraph<f64, f64>> {
        let list = Rmat::new(8, 8.0).generate(11);
        Arc::new(PropertyGraph::from_edge_list(list, f64::INFINITY).unwrap())
    }

    fn gpus_per_node(nodes: usize) -> Vec<Vec<DeviceSpec>> {
        (0..nodes)
            .map(|n| vec![presets::gpu_v100(format!("n{n}g0"))])
            .collect()
    }

    fn small_service(
        graph: &Arc<PropertyGraph<f64, f64>>,
        workers: usize,
        queue_depth: usize,
    ) -> GraphService<f64, f64> {
        let parts = 2;
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(graph, parts)
            .unwrap();
        GraphService::builder(Arc::clone(graph))
            .partitioned_by(partitioning)
            .devices(gpus_per_node(parts))
            .dataset("rmat8")
            .max_iterations(200)
            .worker_sessions(workers)
            .queue_depth(queue_depth)
            .build()
            .unwrap()
    }

    #[test]
    fn service_handle_is_send_sync_clone() {
        fn assert_service<T: Send + Sync + Clone>() {}
        assert_service::<GraphService<f64, f64>>();
    }

    #[test]
    fn submit_and_wait_roundtrip() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 16);
        let ticket = service.submit(Sssp { sources: vec![0] }).unwrap();
        let outcome = ticket.wait().unwrap();
        assert!(outcome.report.converged);
        assert_eq!(outcome.values.len(), graph.num_vertices());
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.executed(), 1);
        assert!(stats.queue_wait_percentile(0.5).is_some());
        service.shutdown();
        assert!(!service.is_open());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let graph = test_graph();
        let service = small_service(&graph, 2, 64);
        let submitters: Vec<_> = (0..4u32)
            .map(|t| {
                let service = service.clone();
                thread::spawn(move || {
                    (0..3u32)
                        .map(|j| {
                            let sources = vec![VertexId::from(t * 3 + j)];
                            let ticket = service.submit(Sssp { sources }).unwrap();
                            ticket.wait().unwrap().report.converged
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        for submitter in submitters {
            assert!(submitter.join().unwrap().into_iter().all(|c| c));
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.running, 0);
    }

    #[test]
    fn snapshots_are_never_torn_under_concurrent_load() {
        // Regression: a metrics scrape racing the submit/complete paths must
        // never observe more executed jobs than submitted ones — the
        // counters all come from one stats-lock acquisition.
        let graph = test_graph();
        let service = small_service(&graph, 2, 64);
        let stop = Arc::new(AtomicBool::new(false));
        // Submissions start only once every scraper has scraped: on a fast
        // build the twelve jobs can otherwise finish before a scraper runs.
        let scraping = Arc::new(std::sync::Barrier::new(4));
        let scrapers: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                let stop = Arc::clone(&stop);
                let scraping = Arc::clone(&scraping);
                thread::spawn(move || {
                    let mut scrapes = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = service.stats_snapshot();
                        assert!(
                            snap.executed() <= snap.submitted,
                            "torn snapshot: executed {} > submitted {}",
                            snap.executed(),
                            snap.submitted
                        );
                        assert!(snap.completed <= snap.submitted);
                        // Percentiles exist exactly when a sample was taken,
                        // which by the same consistency can only be after
                        // the first submission was counted.
                        if snap.wait_p50.is_some() {
                            assert!(snap.submitted > 0);
                            assert!(snap.wait_p50 <= snap.wait_p99);
                        }
                        scrapes += 1;
                        if scrapes == 1 {
                            scraping.wait();
                        }
                    }
                    scrapes
                })
            })
            .collect();
        let submitters: Vec<_> = (0..2u32)
            .map(|t| {
                let service = service.clone();
                let scraping = Arc::clone(&scraping);
                thread::spawn(move || {
                    scraping.wait();
                    for j in 0..6u32 {
                        let sources = vec![VertexId::from((t * 6 + j) % 50)];
                        let ticket = service
                            .submit_with(
                                Sssp { sources },
                                JobOptions::default().with_cache(CachePolicy::Bypass),
                            )
                            .unwrap();
                        ticket.wait().unwrap();
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for scraper in scrapers {
            assert!(scraper.join().unwrap() > 0, "scraper never ran");
        }
        let snap = service.stats_snapshot();
        assert_eq!(snap.submitted, 12);
        assert_eq!(snap.executed(), 12);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.running, 0);
        // The snapshot's percentiles agree with the heavyweight report's.
        let stats = service.stats();
        assert_eq!(snap.wait_p50, stats.queue_wait_percentile(0.5));
        assert_eq!(snap.wall_p99, stats.run_wall_percentile(0.99));
    }

    #[test]
    fn wait_deadline_polls_then_delivers() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 16);
        let gate = GateControl::default();
        let ticket = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        // The job is gated, so an absolute deadline expires without a result
        // and the ticket stays valid.
        let deadline = Instant::now() + Duration::from_millis(30);
        assert!(ticket.wait_deadline(deadline).is_none());
        assert!(Instant::now() >= deadline);
        gate.release();
        let outcome = ticket
            .wait_deadline(Instant::now() + Duration::from_secs(30))
            .expect("released job resolves")
            .unwrap();
        assert!(outcome.report.converged);
        // A past deadline is a non-blocking poll now that the ticket has
        // delivered: the slot reads as lost, not as a hang.
        assert!(matches!(
            ticket.wait_deadline(Instant::now() - Duration::from_millis(1)),
            Some(Err(ServiceError::Lost))
        ));
    }

    #[test]
    fn try_submit_reports_queue_full() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 1);
        let gate = GateControl::default();
        // Occupy the only worker...
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        // ...wait until the worker has claimed it (the queue slot frees when
        // the job is claimed, not when it finishes)...
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        // ...fill the single queue slot...
        let queued = service.submit(Sssp { sources: vec![1] }).unwrap();
        // ...and observe typed backpressure.
        assert_eq!(
            service.try_submit(Sssp { sources: vec![2] }).unwrap_err(),
            ServiceError::QueueFull
        );
        gate.release();
        assert!(busy.wait().unwrap().report.converged);
        assert!(queued.wait().unwrap().report.converged);
    }

    /// Holds `service`'s only worker on a job gated by `gate`.
    fn hold_worker(service: &GraphService<f64, f64>, gate: &GateControl) -> JobTicket<f64> {
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        busy
    }

    /// Submits an SSSP job from a new thread and waits for the submitter to
    /// park on the full queue; the flag says whether it did.
    fn park_submitter(
        service: &GraphService<f64, f64>,
        source: u32,
    ) -> (JoinHandle<Result<JobTicket<f64>, ServiceError>>, bool) {
        let parked_now = || lock(&service.inner.shared.backlog).parked;
        let parked_before = parked_now();
        let submitter = {
            let service = service.clone();
            thread::spawn(move || {
                service.submit(Sssp {
                    sources: vec![source],
                })
            })
        };
        let parked = eventually(|| parked_now() > parked_before);
        (submitter, parked)
    }

    /// Polls `done` for up to 30 s; whether it came true.
    fn eventually(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn a_parked_submitter_is_admitted_when_the_job_ahead_is_claimed() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 1);
        let gate = GateControl::default();
        let busy = hold_worker(&service, &gate);
        // A gated job takes the only slot; the next submitter parks.
        let ahead_gate = GateControl::default();
        let ahead = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![1] },
                gate: ahead_gate.clone(),
            })
            .unwrap();
        let (submitter, parked) = park_submitter(&service, 2);
        // The worker finishes the busy job and claims the one ahead, which
        // frees the slot while that job is still running.
        gate.release();
        let admitted = eventually(|| submitter.is_finished());
        // The claim frees the slot before `Flight::assemble` marks the job
        // running, so the submitter can return first; the gate still holds
        // the job, so it is running, not finished.
        let ahead_running = eventually(|| ahead.status() == JobStatus::Running);
        ahead_gate.release();
        assert!(parked, "submit returned on a full queue");
        assert!(admitted, "the claim did not admit the parked submitter");
        assert!(ahead_running, "the slot freed only when the job finished");
        let ticket = submitter.join().unwrap().unwrap();
        assert!(ticket.wait().unwrap().report.converged);
        assert!(busy.wait().is_ok());
        assert!(ahead.wait().is_ok());
        assert_eq!(service.stats().submitted, 3);
    }

    #[test]
    fn a_flight_sweep_admits_every_submitter_its_slots_free() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 2);
        let gate = GateControl::default();
        let busy = hold_worker(&service, &gate);
        // A gated keyed leader and its duplicate fill the queue; two
        // submitters park behind them.
        let leader_gate = GateControl::default();
        let leader = service
            .submit(KeyedSssp {
                gate: Some(leader_gate.clone()),
                ..KeyedSssp::new(vec![3])
            })
            .unwrap();
        let duplicate = service.submit(KeyedSssp::new(vec![3])).unwrap();
        let parked: Vec<_> = (4..6).map(|s| park_submitter(&service, s)).collect();
        // One claim takes the leader and sweeps its duplicate: both slots
        // free while the flight is still running.
        gate.release();
        let admitted = eventually(|| parked.iter().all(|(s, _)| s.is_finished()));
        // As above: marked running just after the claim freed the slots.
        let leader_running = eventually(|| leader.status() == JobStatus::Running);
        leader_gate.release();
        assert!(parked.iter().all(|(_, parked)| *parked));
        assert!(admitted, "the sweep did not admit both parked submitters");
        assert!(leader_running);
        for (submitter, _) in parked {
            assert!(submitter.join().unwrap().unwrap().wait().is_ok());
        }
        assert!(busy.wait().is_ok());
        assert!(leader.wait().is_ok());
        assert!(duplicate.wait().is_ok());
        assert_eq!(service.stats().coalesced_jobs, 1);
    }

    #[test]
    fn shutdown_and_abort_wake_parked_submitters() {
        let graph = test_graph();
        for abort in [false, true] {
            let service = small_service(&graph, 1, 1);
            let gate = GateControl::default();
            let busy = hold_worker(&service, &gate);
            let queued = service.submit(Sssp { sources: vec![1] }).unwrap();
            let (submitter, parked) = park_submitter(&service, 2);
            let stopper = {
                let service = service.clone();
                thread::spawn(move || {
                    if abort {
                        service.abort();
                    } else {
                        service.shutdown();
                    }
                })
            };
            // The close wakes the submitter while the worker is still held,
            // so no slot has freed.
            let woken = eventually(|| submitter.is_finished());
            gate.release();
            stopper.join().unwrap();
            assert!(parked, "submit returned on a full queue");
            assert!(woken, "stopping left the submitter parked");
            assert_eq!(
                submitter.join().unwrap().unwrap_err(),
                ServiceError::ShutDown
            );
            assert!(busy.wait().is_ok());
            let queued = queued.wait();
            if abort {
                assert!(matches!(queued, Err(ServiceError::Cancelled)));
            } else {
                assert!(queued.is_ok());
            }
            assert_eq!(service.stats().submitted, 2);
        }
    }

    #[test]
    fn cancel_skips_a_queued_job() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        let doomed = service.submit(Sssp { sources: vec![1] }).unwrap();
        assert_eq!(doomed.status(), JobStatus::Queued);
        assert!(doomed.cancel());
        assert_eq!(doomed.status(), JobStatus::Cancelled);
        // Cancelling twice (or cancelling a running job) reports failure.
        assert!(!doomed.cancel());
        assert!(!busy.cancel());
        gate.release();
        assert!(matches!(doomed.wait(), Err(ServiceError::Cancelled)));
        assert!(busy.wait().is_ok());
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn high_priority_jobs_jump_the_queue() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let gate = GateControl::default();
        let log = Arc::new(Mutex::new(Vec::new()));
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        // Queue a low-priority job first, then a high-priority one.
        let low = service
            .submit_with(
                LoggedSssp::new(1, Arc::clone(&log)),
                JobOptions::new().with_priority(JobPriority::Low),
            )
            .unwrap();
        let high = service
            .submit_with(
                LoggedSssp::new(2, Arc::clone(&log)),
                JobOptions::new().with_priority(JobPriority::High),
            )
            .unwrap();
        gate.release();
        busy.wait().unwrap();
        high.wait().unwrap();
        low.wait().unwrap();
        // The single worker must have started the high-priority job first.
        assert_eq!(*lock(&log), vec![2, 1]);
    }

    #[test]
    fn per_job_overrides_do_not_leak_between_jobs() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        // A one-iteration budget cannot converge this SSSP...
        let capped = service
            .submit_with(
                Sssp {
                    sources: vec![VertexId::from(0u32)],
                },
                JobOptions::new().with_max_iterations(1),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(!capped.report.converged);
        // ...and the override is gone for the next job on the same worker.
        let free = service
            .submit(Sssp {
                sources: vec![VertexId::from(0u32)],
            })
            .unwrap()
            .wait()
            .unwrap();
        assert!(free.report.converged);
        // Config overrides hold per job too: a serial-execution job and a
        // threaded job produce bit-identical values.
        let serial = service
            .submit_with(
                Sssp { sources: vec![3] },
                JobOptions::new()
                    .with_config(MiddlewareConfig::default().with_execution(ExecutionMode::Serial)),
            )
            .unwrap()
            .wait()
            .unwrap();
        let threaded = service
            .submit(Sssp { sources: vec![3] })
            .unwrap()
            .wait()
            .unwrap();
        for (a, b) in serial.values.iter().zip(&threaded.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shutdown_drains_the_backlog() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 32);
        let tickets: Vec<_> = (0..6u32)
            .map(|i| service.submit(Sssp { sources: vec![i] }).unwrap())
            .collect();
        service.shutdown();
        // Every accepted job ran to completion before shutdown returned.
        for ticket in tickets {
            assert!(ticket.wait().unwrap().report.converged);
        }
        assert_eq!(
            service.submit(Sssp { sources: vec![0] }).unwrap_err(),
            ServiceError::ShutDown
        );
        let stats = service.stats();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn abort_cancels_the_backlog() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 32);
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        let doomed: Vec<_> = (1..4u32)
            .map(|i| service.submit(Sssp { sources: vec![i] }).unwrap())
            .collect();
        // Abort from another thread (it blocks joining the workers, which
        // are blocked on the gate); wait for admission to close, then let
        // the running job finish.
        let aborter = {
            let service = service.clone();
            thread::spawn(move || service.abort())
        };
        while service.is_open() {
            thread::yield_now();
        }
        gate.release();
        aborter.join().unwrap();
        // The running job completed; the backlog was cancelled.
        assert!(busy.wait().unwrap().report.converged);
        for ticket in doomed {
            assert!(matches!(ticket.wait(), Err(ServiceError::Cancelled)));
        }
        assert_eq!(service.stats().cancelled, 3);
    }

    #[test]
    fn panicking_job_resolves_its_ticket_and_the_service_recovers() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let panicked = service.submit(PanickingJob).unwrap().wait();
        assert!(matches!(panicked, Err(ServiceError::JobPanicked)));
        // The worker redeployed: the next job runs normally.
        let outcome = service
            .submit(Sssp { sources: vec![0] })
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.report.converged);
        let stats = service.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn a_panicked_flight_records_one_queue_wait_per_ticket() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        // A keyed panicking job and two same-key duplicates queue behind the
        // gated job, so they run as one flight.
        let tickets: Vec<_> = (0..3)
            .map(|_| service.submit(PanickingJob).unwrap())
            .collect();
        gate.release();
        busy.wait().unwrap();
        for ticket in tickets {
            assert!(matches!(ticket.wait(), Err(ServiceError::JobPanicked)));
        }
        let stats = service.stats();
        assert_eq!(stats.panicked, 3);
        // One wait for the gated job, then one per panicked ticket; one wall
        // per physical run.
        assert_eq!(stats.recent_wait_samples().len(), 1 + 3);
        assert_eq!(stats.recent_wall_samples().len(), 2);
        // The duplicates were resolved from the leader's flight.
        assert_eq!(stats.coalesced_jobs, 2);
    }

    #[test]
    fn heterogeneous_dyn_jobs_share_one_queue() {
        // Two different algorithm types with the same message type in one
        // queue: Sssp and GatedSssp behind `dyn DynAlgorithm<f64, f64, f64>`.
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let jobs: Vec<Arc<dyn DynAlgorithm<f64, f64, f64>>> = vec![
            Arc::new(Sssp { sources: vec![0] }),
            Arc::new(LoggedSssp::new(9, Arc::new(Mutex::new(Vec::new())))),
        ];
        let tickets: Vec<_> = jobs
            .into_iter()
            .map(|job| service.submit_dyn(job, JobOptions::new()).unwrap())
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().unwrap().report.converged);
        }
    }

    #[test]
    fn native_only_service_runs_jobs_natively() {
        let graph = test_graph();
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 2)
            .unwrap();
        let service = GraphService::builder(Arc::clone(&graph))
            .partitioned_by(partitioning)
            .max_iterations(200)
            .build()
            .unwrap();
        let outcome = service
            .submit(Sssp { sources: vec![0] })
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.report.converged);
        assert!(outcome.agent_stats.is_empty());
    }

    #[test]
    fn builder_validation_matches_the_session_builder() {
        let graph = test_graph();
        let err = GraphService::builder(Arc::clone(&graph))
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::MissingPartitioning);
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, 3)
            .unwrap();
        let err = GraphService::builder(Arc::clone(&graph))
            .partitioned_by(partitioning)
            .devices(gpus_per_node(2))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::DeviceCountMismatch {
                partitions: 3,
                device_lists: 2
            }
        );
    }

    /// SSSP that *owns* a service handle: when the job is consumed on the
    /// scheduler thread, the handle drops with it — possibly as the last
    /// one alive.
    struct HandleOwner {
        inner: Sssp,
        _service: GraphService<f64, f64>,
    }

    impl GraphAlgorithm<f64, f64> for HandleOwner {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, d: usize) -> f64 {
            GraphAlgorithm::init_vertex(&self.inner, v, d)
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            GraphAlgorithm::msg_gen_into(&self.inner, t, i, out)
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            GraphAlgorithm::msg_merge(&self.inner, a, b)
        }
        fn msg_apply(&self, v: VertexId, cur: &f64, msg: &f64, i: usize) -> Option<f64> {
            GraphAlgorithm::msg_apply(&self.inner, v, cur, msg, i)
        }
        fn initial_active(&self, n: usize) -> Option<Vec<VertexId>> {
            GraphAlgorithm::initial_active(&self.inner, n)
        }
        fn name(&self) -> &'static str {
            "handle-owner"
        }
    }

    #[test]
    fn job_owning_the_last_service_handle_does_not_deadlock() {
        // The job captures a clone of the service; the caller then drops its
        // own handle, so the job's clone is the LAST one and is dropped on
        // the scheduler worker's own thread when the job is consumed.  The
        // re-entrant teardown must detach that worker instead of joining it
        // (joining your own thread deadlocks forever) — and the ticket must
        // still resolve.
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let ticket = service
            .submit(HandleOwner {
                inner: Sssp { sources: vec![0] },
                _service: service.clone(),
            })
            .unwrap();
        drop(service);
        assert!(ticket.wait().unwrap().report.converged);
    }

    #[test]
    fn concurrent_shutdowns_both_honor_the_drain_guarantee() {
        // Two racing shutdown() calls: only one joins the workers, but BOTH
        // must return only once the backlog has drained — the loser waits
        // for the joiner instead of returning early.
        let graph = test_graph();
        let service = small_service(&graph, 1, 32);
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![0] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        let backlog: Vec<_> = (1..4u32)
            .map(|i| service.submit(Sssp { sources: vec![i] }).unwrap())
            .collect();
        let stoppers: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                thread::spawn(move || service.shutdown())
            })
            .collect();
        while service.is_open() {
            thread::yield_now();
        }
        gate.release();
        for stopper in stoppers {
            stopper.join().unwrap();
        }
        // Whichever shutdown call a caller raced, by the time it returned
        // every accepted ticket had resolved.
        assert!(busy.try_result().expect("drained").is_ok());
        for ticket in backlog {
            assert!(ticket.try_result().expect("drained").is_ok());
        }
    }

    #[test]
    fn dropping_the_last_handle_drains_and_joins() {
        let graph = test_graph();
        let tickets: Vec<_> = {
            let service = small_service(&graph, 2, 16);
            (0..4u32)
                .map(|i| service.submit(Sssp { sources: vec![i] }).unwrap())
                .collect()
            // `service` drops here; its Drop drains the queue and joins the
            // workers, so every ticket below must already be resolved.
        };
        for ticket in tickets {
            assert!(ticket.try_result().expect("resolved by drop").is_ok());
        }
    }

    /// SSSP that opts into the result cache by declaring a cache key.
    #[derive(Clone)]
    struct KeyedSssp {
        inner: Sssp,
        /// When set, the run blocks on it like [`GatedSssp`]'s.
        gate: Option<GateControl>,
    }

    impl KeyedSssp {
        fn new(sources: Vec<VertexId>) -> Self {
            Self {
                inner: Sssp { sources },
                gate: None,
            }
        }
    }

    impl GraphAlgorithm<f64, f64> for KeyedSssp {
        type Msg = f64;
        fn init_vertex(&self, v: VertexId, d: usize) -> f64 {
            GraphAlgorithm::init_vertex(&self.inner, v, d)
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<f64, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<f64>>,
        ) {
            if let Some(gate) = &self.gate {
                gate.wait_open();
            }
            GraphAlgorithm::msg_gen_into(&self.inner, t, i, out)
        }
        fn msg_merge(&self, a: f64, b: f64) -> f64 {
            GraphAlgorithm::msg_merge(&self.inner, a, b)
        }
        fn msg_apply(&self, v: VertexId, cur: &f64, msg: &f64, i: usize) -> Option<f64> {
            GraphAlgorithm::msg_apply(&self.inner, v, cur, msg, i)
        }
        fn initial_active(&self, n: usize) -> Option<Vec<VertexId>> {
            GraphAlgorithm::initial_active(&self.inner, n)
        }
        fn name(&self) -> &'static str {
            "keyed-sssp"
        }
        fn cache_key(&self) -> Option<String> {
            Some(format!("{:?}", self.inner.sources))
        }
    }

    #[test]
    fn cache_hit_serves_the_identical_outcome_without_rerunning() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let fill = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        let hit = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(fill.report, hit.report);
        assert_eq!(fill.values.len(), hit.values.len());
        for (a, b) in fill.values.iter().zip(&hit.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        // Hits never enter the queue: only the fill run was submitted.
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(service.cached_results(), 1);
        assert_eq!(stats.cache_hit_samples().len(), 1);
        assert!(stats.cache_hit_percentile(0.5).unwrap() < Duration::from_millis(50));
    }

    #[test]
    fn bypass_skips_the_cache_and_refresh_overwrites_it() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        // Bypass on an empty cache: no lookup, no store.
        service
            .submit_with(
                KeyedSssp::new(vec![0]),
                JobOptions::new().with_cache(CachePolicy::Bypass),
            )
            .unwrap()
            .wait()
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(service.cached_results(), 0);
        // Fill, then Refresh: the job reruns even though the key is cached.
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        service
            .submit_with(
                KeyedSssp::new(vec![0]),
                JobOptions::new().with_cache(CachePolicy::Refresh),
            )
            .unwrap()
            .wait()
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.submitted, 3);
        assert_eq!(service.cached_results(), 1);
        // The refreshed entry still serves hits.
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn invalidation_and_clearing_force_fresh_runs() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        service.invalidate_cache();
        // The stale entry must not serve; the job reruns and refills.
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().cache_hits, 0);
        assert_eq!(service.stats().submitted, 2);
        service.clear_cache();
        assert_eq!(service.cached_results(), 0);
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().submitted, 3);
    }

    #[test]
    fn a_mutation_makes_the_duplicate_submit_a_cache_miss() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let before = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(before.values.len(), graph.num_vertices());
        assert_eq!(service.stats().cache_misses, 1);

        // Append a vertex hanging off source 0 at distance 0.25.
        let new_vertex = graph.num_vertices() as VertexId;
        let delta = service
            .apply_mutations(
                &MutationBatch::new()
                    .add_vertex(f64::INFINITY)
                    .add_edge(0, new_vertex, 0.25),
            )
            .unwrap();
        assert_eq!(delta.version, 1);
        assert_eq!(service.mutation_version(), 1);
        assert_eq!(
            service.graph_shape(),
            (graph.num_vertices() + 1, graph.num_edges() + 1)
        );

        // The duplicate submission must not serve the pre-mutation entry: it
        // is a miss, reruns against the mutated deployment and sees the new
        // vertex.
        let after = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.submitted, 2);
        assert_eq!(after.values.len(), graph.num_vertices() + 1);
        assert_eq!(after.values[new_vertex as usize], 0.25);

        // The refilled entry serves hits again at the new version.
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().cache_hits, 1);

        // An invalid batch is rejected atomically: no version bump, cache
        // entries stay live.
        assert!(service
            .apply_mutations(&MutationBatch::new().remove_edge(usize::MAX))
            .is_err());
        assert_eq!(service.mutation_version(), 1);
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().cache_hits, 2);
    }

    #[test]
    fn lru_capacity_and_byte_budget_bound_the_cache() {
        let graph = test_graph();
        let parts = 2;
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, parts)
            .unwrap();
        let service = GraphService::builder(Arc::clone(&graph))
            .partitioned_by(partitioning.clone())
            .devices(gpus_per_node(parts))
            .max_iterations(200)
            .worker_sessions(1)
            .cache_capacity(1)
            .build()
            .unwrap();
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        // A second key evicts the first (capacity 1, LRU).
        service
            .submit(KeyedSssp::new(vec![1]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.cached_results(), 1);
        service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().cache_hits, 0);
        assert_eq!(service.stats().submitted, 3);

        // A byte budget too small for any outcome never stores anything.
        let tiny = GraphService::builder(Arc::clone(&graph))
            .partitioned_by(partitioning)
            .devices(gpus_per_node(parts))
            .max_iterations(200)
            .worker_sessions(1)
            .cache_bytes(16)
            .build()
            .unwrap();
        tiny.submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(tiny.cached_results(), 0);
        tiny.submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(tiny.stats().cache_hits, 0);
        assert_eq!(tiny.stats().submitted, 2);
    }

    #[test]
    fn queued_duplicates_coalesce_into_a_single_run() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 16);
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![7] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        // Four identical keyed jobs pile up behind the busy worker.
        let duplicates: Vec<_> = (0..4)
            .map(|_| service.submit(KeyedSssp::new(vec![0])).unwrap())
            .collect();
        gate.release();
        busy.wait().unwrap();
        let outcomes: Vec<_> = duplicates
            .into_iter()
            .map(|ticket| ticket.wait().unwrap())
            .collect();
        for outcome in &outcomes[1..] {
            assert_eq!(outcome.report, outcomes[0].report);
            for (a, b) in outcome.values.iter().zip(&outcomes[0].values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = service.stats();
        assert_eq!(stats.coalesced_jobs, 3);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.cache_hits, 0);
        // The coalesced run filled the cache once.
        assert_eq!(service.cached_results(), 1);
    }

    #[test]
    fn a_hit_shares_the_allocation_its_fill_landed() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let fill = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        let hits: Vec<_> = (0..3)
            .map(|_| {
                service
                    .submit(KeyedSssp::new(vec![0]))
                    .unwrap()
                    .wait()
                    .unwrap()
            })
            .collect();
        for hit in &hits {
            assert!(Arc::ptr_eq(hit, &fill));
        }
        assert_eq!(service.stats().cache_hits, 3);
        // Joined workers hold nothing: the caller's handles and the cache
        // entry are the outcome's only owners.
        service.shutdown();
        assert_eq!(Arc::strong_count(&fill), 1 + hits.len() + 1);
    }

    #[test]
    fn coalesced_flight_members_share_one_outcome() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 16);
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![7] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        let duplicates: Vec<_> = (0..4)
            .map(|_| service.submit(KeyedSssp::new(vec![0])).unwrap())
            .collect();
        gate.release();
        busy.wait().unwrap();
        let outcomes: Vec<Arc<RunOutcome<f64>>> = duplicates
            .into_iter()
            .map(|ticket| ticket.wait().unwrap())
            .collect();
        assert_eq!(service.stats().coalesced_jobs, 3);
        for outcome in &outcomes[1..] {
            assert!(Arc::ptr_eq(outcome, &outcomes[0]));
        }
        // The cache entry the flight filled is that same allocation.
        let hit = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &outcomes[0]));
    }

    #[test]
    fn a_stale_entry_stays_unserved_until_its_key_refills() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let fill = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        service.invalidate_cache();
        // The worker is held, so the refill waits in the queue while the
        // test looks: the lookup that found the entry stale left it in
        // place, counted.
        let gate = GateControl::default();
        let busy = service
            .submit(GatedSssp {
                inner: Sssp { sources: vec![7] },
                gate: gate.clone(),
            })
            .unwrap();
        let pending = service.submit(KeyedSssp::new(vec![0])).unwrap();
        let held = service.cached_results();
        gate.release();
        assert_eq!(held, 1);
        busy.wait().unwrap();
        let refill = pending.wait().unwrap();
        assert_eq!(service.stats().cache_hits, 0);
        assert_eq!(service.stats().submitted, 3);
        assert!(!Arc::ptr_eq(&fill, &refill));
        // The refill replaced the stale entry rather than adding a second.
        assert_eq!(service.cached_results(), 1);
        let hit = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &refill));

        // A stale entry nobody refills stays until the bounds evict it.
        service.invalidate_cache();
        service
            .submit_with(
                KeyedSssp::new(vec![1]),
                JobOptions::new().with_cache(CachePolicy::Bypass),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.cached_results(), 1);
        service
            .submit(KeyedSssp::new(vec![1]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.cached_results(), 2);
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn a_fill_that_lands_after_an_invalidation_is_not_stored() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let gate = GateControl::default();
        let racing = service
            .submit(KeyedSssp {
                inner: Sssp { sources: vec![0] },
                gate: Some(gate.clone()),
            })
            .unwrap();
        // `running` counts the job once its version is sampled.
        while service.stats_snapshot().running == 0 {
            thread::yield_now();
        }
        service.invalidate_cache();
        gate.release();
        racing.wait().unwrap();
        assert_eq!(service.cached_results(), 0);
        // The next ask runs again, and its fill is stored and served.
        let refill = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.cached_results(), 1);
        let hit = service
            .submit(KeyedSssp::new(vec![0]))
            .unwrap()
            .wait()
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &refill));
        assert_eq!(service.stats().cache_hits, 1);
    }

    #[test]
    fn a_redeploy_after_a_panicked_job_replays_the_log_and_serves() {
        let graph = test_graph();
        let service = small_service(&graph, 1, 8);
        let new_vertex = graph.num_vertices() as VertexId;
        service
            .apply_mutations(
                &MutationBatch::new()
                    .add_vertex(f64::INFINITY)
                    .add_edge(0, new_vertex, 0.25),
            )
            .unwrap();
        let before = service
            .submit(Sssp { sources: vec![0] })
            .unwrap()
            .wait()
            .unwrap();
        for _ in 0..2 {
            let panicked = service.submit(PanickingJob).unwrap().wait();
            assert!(matches!(panicked, Err(ServiceError::JobPanicked)));
            // The redeployed session starts from the pristine graph and
            // replays the whole log before its next job.
            let after = service
                .submit(Sssp { sources: vec![0] })
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(after.values.len(), graph.num_vertices() + 1);
            assert_eq!(after.values[new_vertex as usize], 0.25);
            for (a, b) in after.values.iter().zip(&before.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = service.stats();
        assert_eq!(stats.panicked, 2);
        assert_eq!(stats.completed, 3);
    }

    /// Minimal multi-column SSSP (vertex = one distance per source): a job
    /// whose vertex values own heap data, for the flight test.
    #[derive(Clone)]
    struct MiniMulti {
        sources: Vec<VertexId>,
    }

    impl GraphAlgorithm<Vec<f64>, f64> for MiniMulti {
        type Msg = Vec<f64>;
        fn init_vertex(&self, v: VertexId, _d: usize) -> Vec<f64> {
            self.sources
                .iter()
                .map(|&s| if s == v { 0.0 } else { f64::INFINITY })
                .collect()
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<Vec<f64>, f64>,
            _i: usize,
            out: &mut Vec<AddressedMessage<Vec<f64>>>,
        ) {
            if t.src_attr.iter().all(|d| d.is_infinite()) {
                return;
            }
            out.push(AddressedMessage::new(
                t.dst,
                t.src_attr.iter().map(|d| d + t.edge_attr).collect(),
            ));
        }
        fn msg_merge(&self, a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
            a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect()
        }
        fn msg_apply(
            &self,
            _v: VertexId,
            cur: &Vec<f64>,
            msg: &Vec<f64>,
            _i: usize,
        ) -> Option<Vec<f64>> {
            let mut improved = false;
            let next: Vec<f64> = cur
                .iter()
                .zip(msg)
                .map(|(c, m)| {
                    if *m < *c {
                        improved = true;
                        *m
                    } else {
                        *c
                    }
                })
                .collect();
            improved.then_some(next)
        }
        fn initial_active(&self, _n: usize) -> Option<Vec<VertexId>> {
            Some(self.sources.clone())
        }
        fn name(&self) -> &'static str {
            "mini-multi"
        }
        fn cache_key(&self) -> Option<String> {
            Some(format!("{:?}", self.sources))
        }
    }

    /// A gated `MiniMulti` so the flight test can hold the worker busy.
    struct GatedMini {
        inner: MiniMulti,
        gate: GateControl,
    }

    impl GraphAlgorithm<Vec<f64>, f64> for GatedMini {
        type Msg = Vec<f64>;
        fn init_vertex(&self, v: VertexId, d: usize) -> Vec<f64> {
            GraphAlgorithm::init_vertex(&self.inner, v, d)
        }
        fn msg_gen_into(
            &self,
            t: &Triplet<Vec<f64>, f64>,
            i: usize,
            out: &mut Vec<AddressedMessage<Vec<f64>>>,
        ) {
            self.gate.wait_open();
            GraphAlgorithm::msg_gen_into(&self.inner, t, i, out)
        }
        fn msg_merge(&self, a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
            GraphAlgorithm::msg_merge(&self.inner, a, b)
        }
        fn msg_apply(&self, v: VertexId, c: &Vec<f64>, m: &Vec<f64>, i: usize) -> Option<Vec<f64>> {
            GraphAlgorithm::msg_apply(&self.inner, v, c, m, i)
        }
        fn initial_active(&self, n: usize) -> Option<Vec<VertexId>> {
            GraphAlgorithm::initial_active(&self.inner, n)
        }
        fn name(&self) -> &'static str {
            "gated-mini"
        }
    }

    /// A one-worker `MiniMulti` service.
    fn mini_service() -> GraphService<Vec<f64>, f64> {
        let list = Rmat::new(8, 8.0).generate(11);
        let graph = Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).unwrap());
        let parts = 2;
        let partitioning = GreedyVertexCutPartitioner::default()
            .partition(&graph, parts)
            .unwrap();
        GraphService::builder(graph)
            .partitioned_by(partitioning)
            .devices(gpus_per_node(parts))
            .max_iterations(200)
            .worker_sessions(1)
            .build()
            .unwrap()
    }

    /// Holds `service`'s only worker on a gated job until the gate opens.
    fn occupy(service: &GraphService<Vec<f64>, f64>, gate: &GateControl) -> JobTicket<Vec<f64>> {
        let busy = service
            .submit(GatedMini {
                inner: MiniMulti { sources: vec![9] },
                gate: gate.clone(),
            })
            .unwrap();
        while busy.status() == JobStatus::Queued {
            thread::yield_now();
        }
        busy
    }

    fn assert_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.len(), y.len());
            for (x, y) in x.iter().zip(y) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn one_sweep_coalesces_duplicates_and_leaves_other_jobs_their_own_flights() {
        let service = mini_service();
        let gate = GateControl::default();
        let busy = occupy(&service, &gate);
        // A leader, its same-key duplicate, a job with other sources, and a
        // job whose iteration cap gives it another key.
        let own_cap = JobOptions::new().with_max_iterations(150);
        let jobs = [
            (vec![0, 3], JobOptions::new()),
            (vec![0, 3], JobOptions::new()),
            (vec![5], JobOptions::new()),
            (vec![7], own_cap),
        ];
        let tickets: Vec<_> = jobs
            .iter()
            .map(|(sources, options)| {
                let job = MiniMulti {
                    sources: sources.clone(),
                };
                service.submit_with(job, *options).unwrap()
            })
            .collect();
        gate.release();
        busy.wait().unwrap();
        let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let stats = service.stats();
        assert_eq!(stats.coalesced_jobs, 1);
        assert_eq!(stats.completed, 5);
        // One wall sample each: the gated job, the leader's flight (with its
        // duplicate) and the two other jobs' own flights.
        assert_eq!(stats.recent_wall_samples().len(), 4);
        let solo = mini_service();
        for ((sources, options), outcome) in jobs.iter().zip(&outcomes) {
            let alone = solo
                .submit_with(
                    MiniMulti {
                        sources: sources.clone(),
                    },
                    options.with_cache(CachePolicy::Bypass),
                )
                .unwrap()
                .wait()
                .unwrap();
            assert_bit_identical(&outcome.values, &alone.values);
        }
    }
}
