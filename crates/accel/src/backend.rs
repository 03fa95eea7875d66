//! The pluggable accelerator backend API.
//!
//! The paper's daemons are "abstract representations of accelerators" (§I):
//! the middleware is supposed to work with *any* device that can execute the
//! kernel ABI, not with one hard-coded cost model.  This module is that seam.
//! [`AcceleratorBackend`] is the object-safe trait the daemon layer drives;
//! [`DeviceSpec`] is the serializable descriptor a deployment is built from;
//! and two backends ship behind the same ABI:
//!
//! * [`SimBackend`] — the cost-model device of the earlier PRs: kernels run
//!   for real on the calling thread, time is attributed analytically, results
//!   are bit-identical to the pre-trait middleware;
//! * [`HostParallelBackend`] — the first backend where *wall-clock* time
//!   improves: each kernel launch is split into contiguous chunks executed
//!   across OS threads, with deterministic per-chunk output ordering so the
//!   results stay bit-identical to [`SimBackend`].
//!
//! # The kernel ABI
//!
//! A launch is described as `items` independent data entities plus a chunk
//! kernel.  The backend partitions `0..items` into contiguous, disjoint,
//! in-order chunks — chunk `i` covers the items right after chunk `i - 1`,
//! chunk indices are dense `0..chunks`, and `chunks` never exceeds
//! [`AcceleratorBackend::max_concurrency`] — and invokes the kernel once per
//! chunk, possibly concurrently.  Callers that need ordered output collect
//! per-chunk results and concatenate them in chunk-index order, which equals
//! the serial item order by construction.  This is what makes backends
//! interchangeable without touching the determinism guarantees.

use crate::cost::CostModel;
use crate::device::{AccelError, DeviceKind, KernelTiming, Result};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One chunk of a kernel launch: which slice of the batch to process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Dense chunk index, `0..chunks`.
    pub index: usize,
    /// Total number of chunks of this launch.
    pub chunks: usize,
    /// The item range this chunk covers.  Chunks are contiguous, disjoint
    /// and in order: concatenating them in index order yields `0..items`.
    pub range: Range<usize>,
}

/// The kernel a backend executes per chunk.  It must be `Sync`: a parallel
/// backend invokes it from several threads at once (with distinct chunks).
pub type ChunkKernel<'a> = dyn Fn(ChunkSpec) + Sync + 'a;

/// Which backend implementation a [`DeviceSpec`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The cost-model backend: kernels run on the calling thread, timing is
    /// analytic ([`SimBackend`]).
    Sim,
    /// Kernels execute for real across OS threads ([`HostParallelBackend`]).
    HostParallel {
        /// Worker threads per launch; `None` picks the host's available
        /// parallelism (capped by the cost model's `lanes`).
        threads: Option<usize>,
    },
}

impl BackendKind {
    /// The host-parallel backend with automatically chosen thread count.
    pub fn host_parallel() -> Self {
        BackendKind::HostParallel { threads: None }
    }

    /// Stable lowercase label (used in benchmark records and reports).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::HostParallel { .. } => "host-parallel",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Serializable descriptor of one accelerator: everything needed to
/// construct (or reconstruct) a backend.  Deployments — sessions, registries,
/// the workload balancer — traffic in specs and only build live backends at
/// daemon-creation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Device name (e.g. `"node0-gpu0"`).
    pub name: String,
    /// Hardware flavour.
    pub kind: DeviceKind,
    /// Analytic cost model (also the planning model for capacity splits and
    /// block sizing, whichever backend executes the kernels).
    pub cost: CostModel,
    /// Which backend implementation to build.
    pub backend: BackendKind,
}

impl DeviceSpec {
    /// Creates a spec with the default [`BackendKind::Sim`] backend.
    pub fn new(name: impl Into<String>, kind: DeviceKind, cost: CostModel) -> Self {
        Self {
            name: name.into(),
            kind,
            cost,
            backend: BackendKind::Sim,
        }
    }

    /// Returns the spec with a different backend selection.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The computation capacity factor `1/c_j` (§III-C) of this device.
    pub fn capacity_factor(&self) -> f64 {
        self.cost.capacity_factor()
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Builds the live backend this spec describes.
    pub fn build(&self) -> Box<dyn AcceleratorBackend> {
        match self.backend {
            BackendKind::Sim => Box::new(SimBackend::new(self.name.clone(), self.kind, self.cost)),
            BackendKind::HostParallel { threads } => Box::new(HostParallelBackend::new(
                self.name.clone(),
                self.kind,
                self.cost,
                threads,
            )),
        }
    }
}

impl From<DeviceSpec> for Box<dyn AcceleratorBackend> {
    fn from(spec: DeviceSpec) -> Self {
        spec.build()
    }
}

impl From<SimBackend> for Box<dyn AcceleratorBackend> {
    fn from(backend: SimBackend) -> Self {
        Box::new(backend)
    }
}

impl From<HostParallelBackend> for Box<dyn AcceleratorBackend> {
    fn from(backend: HostParallelBackend) -> Self {
        Box::new(backend)
    }
}

/// The kernel ABI a GX-Plug daemon drives.  Implementations execute kernels
/// for real; how much host parallelism they use — and what hardware they
/// would map to in a non-simulated deployment — is entirely their business.
///
/// # Contract
///
/// * [`launch`](Self::launch) partitions `0..items` into contiguous,
///   disjoint, in-order chunks with dense indices `0..chunks`, where
///   `chunks <= max_concurrency()`, and invokes the kernel once per chunk
///   (possibly concurrently).  Every chunk is invoked exactly once before
///   `launch` returns.
/// * A launch that exceeds the device memory capacity fails with
///   [`AccelError::OutOfMemory`] *without* invoking the kernel.
/// * The first (successful) launch after construction or
///   [`shutdown`](Self::shutdown) pays the cost model's initialisation time
///   in its [`KernelTiming::init`]; later launches report zero init.
/// * Reported timing comes from the device's [`CostModel`] for every
///   backend, so simulated time attribution is backend-independent; real
///   backends improve *wall-clock* time, which benchmarks measure directly.
pub trait AcceleratorBackend: Send + fmt::Debug {
    /// Device name (e.g. `"node0-gpu0"`).
    fn name(&self) -> &str;

    /// Hardware flavour this backend represents.
    fn kind(&self) -> DeviceKind;

    /// The analytic cost model used for planning and time attribution.
    fn cost_model(&self) -> &CostModel;

    /// The serializable descriptor that would rebuild this backend.
    fn spec(&self) -> DeviceSpec;

    /// Whether the device context is currently initialised.
    fn is_initialized(&self) -> bool;

    /// Initialises the device context if necessary and returns the time it
    /// took (zero when already initialised).  Daemons call this once per
    /// lifetime — runtime isolation, §IV-C.
    fn initialize(&mut self) -> SimDuration;

    /// Tears down the device context (the next launch pays init again).
    fn shutdown(&mut self);

    /// Upper bound on the number of chunks a launch is split into.  Callers
    /// size their per-chunk output staging with this.
    fn max_concurrency(&self) -> usize;

    /// Executes one kernel launch over `items` data entities (see the trait
    /// contract for the chunking rules).
    ///
    /// # Errors
    /// [`AccelError::OutOfMemory`] when `items` exceeds the device memory.
    fn launch(&mut self, items: usize, kernel: &ChunkKernel<'_>) -> Result<KernelTiming>;

    /// Cumulative number of items processed (for utilisation metrics).
    fn items_processed(&self) -> u64;

    /// Cumulative number of kernel launches.
    fn kernel_launches(&self) -> u64;

    /// The computation capacity factor `1/c_j` (§III-C) of this device.
    fn capacity_factor(&self) -> f64 {
        self.cost_model().capacity_factor()
    }

    /// Estimated time of a kernel over `n` items, excluding pending
    /// initialisation (used by block sizing and the workload balancer).
    fn estimate_invocation(&self, n: usize) -> SimDuration {
        self.cost_model().invocation_time(n)
    }

    /// Device memory capacity in items, if bounded.
    fn memory_capacity_items(&self) -> Option<usize> {
        self.cost_model().memory_capacity_items
    }
}

/// Fails with [`AccelError::OutOfMemory`] if a batch of `n` items exceeds
/// the cost model's device memory.
fn check_memory(cost: &CostModel, name: &str, n: usize) -> Result<()> {
    if cost.exceeds_memory(n) {
        return Err(AccelError::OutOfMemory {
            requested: n,
            capacity: cost.memory_capacity_items.unwrap_or(0),
            device: name.to_string(),
        });
    }
    Ok(())
}

/// Timing attribution shared by every backend: initialisation (if pending)
/// plus `Tcall + Tcopy(n) + Tcomp(n)` from the cost model.
fn cost_timing(cost: &CostModel, init: SimDuration, n: usize) -> KernelTiming {
    KernelTiming {
        init,
        call: cost.call,
        copy: cost.copy_time(n),
        compute: cost.compute_time(n),
    }
}

/// The cost-model backend: kernels execute for real on the calling thread
/// (one chunk per launch), time is attributed through the analytic
/// [`CostModel`] so every experiment's *shape* is host-independent.
///
/// This is the `Device` of the earlier PRs behind the trait; its behaviour —
/// execution order, memory checks, stats, timing — is preserved
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimBackend {
    name: String,
    kind: DeviceKind,
    cost: CostModel,
    initialized: bool,
    /// Cumulative number of items processed (for utilisation metrics).
    items_processed: u64,
    /// Cumulative number of kernel launches.
    kernel_launches: u64,
}

impl SimBackend {
    /// Creates a new, uninitialised backend.
    pub fn new(name: impl Into<String>, kind: DeviceKind, cost: CostModel) -> Self {
        Self {
            name: name.into(),
            kind,
            cost,
            initialized: false,
            items_processed: 0,
            kernel_launches: 0,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device kind.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The computation capacity factor `1/c_j` (§III-C) of this device.
    pub fn capacity_factor(&self) -> f64 {
        self.cost.capacity_factor()
    }

    /// Initialises the device context if necessary; see
    /// [`AcceleratorBackend::initialize`].
    pub fn initialize(&mut self) -> SimDuration {
        if self.initialized {
            SimDuration::ZERO
        } else {
            self.initialized = true;
            self.cost.init
        }
    }
}

impl AcceleratorBackend for SimBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        self.kind
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn spec(&self) -> DeviceSpec {
        DeviceSpec::new(self.name.clone(), self.kind, self.cost)
    }

    fn is_initialized(&self) -> bool {
        self.initialized
    }

    fn initialize(&mut self) -> SimDuration {
        SimBackend::initialize(self)
    }

    fn shutdown(&mut self) {
        self.initialized = false;
    }

    fn max_concurrency(&self) -> usize {
        1
    }

    fn launch(&mut self, items: usize, kernel: &ChunkKernel<'_>) -> Result<KernelTiming> {
        check_memory(&self.cost, &self.name, items)?;
        let init = self.initialize();
        kernel(ChunkSpec {
            index: 0,
            chunks: 1,
            range: 0..items,
        });
        self.items_processed += items as u64;
        self.kernel_launches += 1;
        Ok(cost_timing(&self.cost, init, items))
    }

    fn items_processed(&self) -> u64 {
        self.items_processed
    }

    fn kernel_launches(&self) -> u64 {
        self.kernel_launches
    }
}

/// Smallest chunk worth a thread of its own: below this, the spawn overhead
/// dwarfs the kernel work and the launch degenerates to a single inline
/// chunk.
const MIN_ITEMS_PER_CHUNK: usize = 256;

/// Hard cap on worker threads per launch, whatever the host reports.
const MAX_HOST_THREADS: usize = 64;

/// Locks a pool mutex, recovering from poisoning (pool bookkeeping holds its
/// invariants between operations; kernel panics are caught before they can
/// poison anything mid-update).
fn lock_pool<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Completion tracking of one launch dispatched to the worker pool.
struct LaunchState {
    progress: Mutex<LaunchProgress>,
    finished: Condvar,
}

struct LaunchProgress {
    remaining: usize,
    /// The first ferried kernel panic payload, re-raised on the launching
    /// thread (matching the panic propagation of a scoped spawn).
    panic: Option<Box<dyn Any + Send>>,
}

impl LaunchState {
    fn new(chunks: usize) -> Self {
        Self {
            progress: Mutex::new(LaunchProgress {
                remaining: chunks,
                panic: None,
            }),
            finished: Condvar::new(),
        }
    }

    /// Marks one chunk done (with its panic payload, if it unwound).
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut progress = lock_pool(&self.progress);
        progress.remaining -= 1;
        if progress.panic.is_none() {
            progress.panic = panic;
        }
        if progress.remaining == 0 {
            self.finished.notify_all();
        }
    }

    /// Blocks until every chunk completed; returns the first ferried panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut progress = lock_pool(&self.progress);
        while progress.remaining > 0 {
            progress = self
                .finished
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        progress.panic.take()
    }
}

/// The lifetime-erased kernel of one launch, carried to the pool workers as
/// a raw pointer.  Raw — not `&'static` — because a worker still holds the
/// job after its `complete()` call briefly unblocks the launching thread and
/// ends the kernel borrow; a leftover raw pointer is inert, while a dangling
/// reference would be a Stacked/Tree Borrows violation even undereferenced.
#[derive(Clone, Copy)]
struct KernelPtr(*const ChunkKernel<'static>);

// SAFETY: the pointee is `Sync` (`ChunkKernel` is `dyn Fn(..) + Sync`), so
// shipping the pointer to a worker thread and dereferencing it there is a
// shared borrow of a `Sync` value.  Liveness is the dispatch protocol's
// contract: workers dereference only before marking their chunk complete,
// while the launching thread is pinned in [`LaunchState::wait`].
unsafe impl Send for KernelPtr {}

/// One chunk dispatched to the pool.
struct PoolJob {
    kernel: KernelPtr,
    chunk: ChunkSpec,
    launch: Arc<LaunchState>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when jobs arrive or the pool shuts down.
    available: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    open: bool,
}

/// The persistent worker threads of a [`HostParallelBackend`]: spawned once
/// (lazily, at the first multi-chunk launch) and fed launches through a
/// shared job queue, so a workload of many small launches — a deep
/// pipeline — pays thread-spawn cost once instead of per launch.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn new(threads: usize, name: &str) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-pool{index}"))
                    .spawn(move || pool_worker(&shared))
                    .expect("spawning a backend pool worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues one launch's chunks and wakes the workers.
    fn dispatch(&self, jobs: impl Iterator<Item = PoolJob>) {
        lock_pool(&self.shared.queue).jobs.extend(jobs);
        self.shared.available.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_pool(&self.shared.queue).open = false;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The loop of one pool worker: pop a chunk, run it (panics caught and
/// ferried to the launching thread), mark it done.
fn pool_worker(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock_pool(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if !queue.open {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let PoolJob {
            kernel,
            chunk,
            launch,
        } = job;
        // SAFETY: this chunk has not been marked complete yet, so the
        // launching thread is still blocked in `LaunchState::wait` and the
        // borrow behind the pointer is live.  The reference exists only for
        // this call and is gone before `complete()` releases the launcher.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*kernel.0)(chunk) }));
        launch.complete(outcome.err());
    }
}

/// The lazily-created pool slot of a [`HostParallelBackend`].  Deliberately
/// inert for the derived impls: clones start without a pool (each backend
/// owns its own threads), equality ignores it, `Debug` shows only whether it
/// is live.
#[derive(Default)]
struct PoolSlot(Option<WorkerPool>);

impl Clone for PoolSlot {
    fn clone(&self) -> Self {
        PoolSlot(None)
    }
}

impl PartialEq for PoolSlot {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for PoolSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PoolSlot").field(&self.0.is_some()).finish()
    }
}

/// The host-parallel backend: every kernel launch is split into contiguous
/// chunks executed across a pool of long-lived OS threads (spawned at the
/// first multi-chunk launch and reused until the backend drops, so a stream
/// of small launches does not pay spawn cost per launch).  Kernels may
/// borrow the iteration's data without `'static` bounds: a launch blocks
/// until its last chunk completes, pinning the borrow.
///
/// Chunks are contiguous, disjoint and index-dense, so a caller that
/// concatenates per-chunk output in chunk order reproduces the serial item
/// order exactly — results are bit-identical to [`SimBackend`].  Simulated
/// [`KernelTiming`] still comes from the cost model (time attribution is
/// backend-independent); what this backend improves is real wall-clock time,
/// which the benchmark measures directly (`accel.host_parallel_speedup`).
#[derive(Debug, Clone, PartialEq)]
pub struct HostParallelBackend {
    name: String,
    kind: DeviceKind,
    cost: CostModel,
    threads: usize,
    configured_threads: Option<usize>,
    initialized: bool,
    items_processed: u64,
    kernel_launches: u64,
    pool: PoolSlot,
}

impl HostParallelBackend {
    /// Creates the backend.  `threads = None` picks the host's available
    /// parallelism; the effective count is clamped to
    /// `1..=min(cost.lanes, 64)` — a backend cannot be more parallel than
    /// the device width it models.
    pub fn new(
        name: impl Into<String>,
        kind: DeviceKind,
        cost: CostModel,
        threads: Option<usize>,
    ) -> Self {
        let host = threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        let cap = (cost.lanes as usize).clamp(1, MAX_HOST_THREADS);
        let effective = host.clamp(1, cap);
        Self {
            name: name.into(),
            kind,
            cost,
            threads: effective,
            configured_threads: threads,
            initialized: false,
            items_processed: 0,
            kernel_launches: 0,
            pool: PoolSlot(None),
        }
    }

    /// The effective number of worker threads per launch.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl AcceleratorBackend for HostParallelBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        self.kind
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn spec(&self) -> DeviceSpec {
        DeviceSpec::new(self.name.clone(), self.kind, self.cost).with_backend(
            BackendKind::HostParallel {
                threads: self.configured_threads,
            },
        )
    }

    fn is_initialized(&self) -> bool {
        self.initialized
    }

    fn initialize(&mut self) -> SimDuration {
        if self.initialized {
            SimDuration::ZERO
        } else {
            self.initialized = true;
            self.cost.init
        }
    }

    fn shutdown(&mut self) {
        self.initialized = false;
    }

    fn max_concurrency(&self) -> usize {
        self.threads
    }

    fn launch(&mut self, items: usize, kernel: &ChunkKernel<'_>) -> Result<KernelTiming> {
        check_memory(&self.cost, &self.name, items)?;
        let init = self.initialize();
        let chunks = self.threads.min(items.div_ceil(MIN_ITEMS_PER_CHUNK)).max(1);
        if chunks == 1 {
            kernel(ChunkSpec {
                index: 0,
                chunks: 1,
                range: 0..items,
            });
        } else {
            let pool = self
                .pool
                .0
                .get_or_insert_with(|| WorkerPool::new(self.threads, &self.name));
            // Erase the kernel borrow's lifetime into a raw pointer.  The
            // pool workers dereference it only between the dispatch below
            // and the `launch_state.wait()` that follows, and `wait` does
            // not return until every chunk completed — the borrow strictly
            // outlives every dereference.
            let kernel = KernelPtr(unsafe {
                std::mem::transmute::<*const ChunkKernel<'_>, *const ChunkKernel<'static>>(
                    kernel as *const ChunkKernel<'_>,
                )
            });
            let launch_state = Arc::new(LaunchState::new(chunks));
            // Contiguous even split: the first `rem` chunks take one extra
            // item, so concatenating ranges in index order covers 0..items.
            let base = items / chunks;
            let rem = items % chunks;
            let mut start = 0usize;
            pool.dispatch((0..chunks).map(|index| {
                let len = base + usize::from(index < rem);
                let range = start..start + len;
                start += len;
                PoolJob {
                    kernel,
                    chunk: ChunkSpec {
                        index,
                        chunks,
                        range,
                    },
                    launch: Arc::clone(&launch_state),
                }
            }));
            if let Some(payload) = launch_state.wait() {
                // A panicking kernel unwinds the launching thread, exactly
                // as it did under the scoped-spawn implementation.
                resume_unwind(payload);
            }
        }
        self.items_processed += items as u64;
        self.kernel_launches += 1;
        Ok(cost_timing(&self.cost, init, items))
    }

    fn items_processed(&self) -> u64 {
        self.items_processed
    }

    fn kernel_launches(&self) -> u64 {
        self.kernel_launches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn cost() -> CostModel {
        CostModel {
            init: SimDuration::from_millis(50.0),
            call: SimDuration::from_millis(1.0),
            copy_per_item: SimDuration::from_micros(1.0),
            compute_per_item: SimDuration::from_micros(10.0),
            lanes: 100,
            parallel_efficiency: 1.0,
            memory_capacity_items: Some(10_000),
        }
    }

    fn spec(backend: BackendKind) -> DeviceSpec {
        DeviceSpec::new("test-dev", DeviceKind::Gpu, cost()).with_backend(backend)
    }

    /// Collects the chunk ranges a backend hands out for `items`.
    fn observed_chunks(backend: &mut dyn AcceleratorBackend, items: usize) -> Vec<ChunkSpec> {
        let seen: Mutex<Vec<ChunkSpec>> = Mutex::new(Vec::new());
        backend
            .launch(items, &|chunk| seen.lock().unwrap().push(chunk))
            .unwrap();
        let mut chunks = seen.into_inner().unwrap();
        chunks.sort_by_key(|c| c.index);
        chunks
    }

    /// Chunks must be dense, contiguous, disjoint, in order, covering the
    /// whole batch — the invariant ordered output collection relies on.
    fn assert_chunk_contract(chunks: &[ChunkSpec], items: usize, max_concurrency: usize) {
        assert!(!chunks.is_empty());
        assert!(chunks.len() <= max_concurrency);
        let mut next = 0usize;
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.index, i);
            assert_eq!(chunk.chunks, chunks.len());
            assert_eq!(chunk.range.start, next);
            next = chunk.range.end;
        }
        assert_eq!(next, items);
    }

    #[test]
    fn both_backends_respect_the_chunk_contract() {
        for kind in [
            BackendKind::Sim,
            BackendKind::HostParallel { threads: Some(4) },
        ] {
            let mut backend = spec(kind).build();
            for items in [1usize, 255, 256, 1_000, 4_096] {
                let chunks = observed_chunks(backend.as_mut(), items);
                assert_chunk_contract(&chunks, items, backend.max_concurrency());
            }
        }
    }

    #[test]
    fn first_launch_pays_init_later_launches_do_not() {
        for kind in [BackendKind::Sim, BackendKind::host_parallel()] {
            let mut backend = spec(kind).build();
            assert!(!backend.is_initialized());
            let first = backend.launch(100, &|_| {}).unwrap();
            assert_eq!(first.init.as_millis(), 50.0);
            let second = backend.launch(100, &|_| {}).unwrap();
            assert!(second.init.is_zero());
            backend.shutdown();
            let third = backend.launch(100, &|_| {}).unwrap();
            assert_eq!(third.init.as_millis(), 50.0);
            assert_eq!(backend.kernel_launches(), 3);
            assert_eq!(backend.items_processed(), 300);
        }
    }

    #[test]
    fn oversized_launches_fail_without_invoking_the_kernel() {
        for kind in [
            BackendKind::Sim,
            BackendKind::HostParallel { threads: Some(2) },
        ] {
            let mut backend = spec(kind).build();
            let invoked = Mutex::new(false);
            let result = backend.launch(10_001, &|_| *invoked.lock().unwrap() = true);
            assert!(matches!(
                result,
                Err(AccelError::OutOfMemory {
                    requested: 10_001,
                    capacity: 10_000,
                    ..
                })
            ));
            assert!(!*invoked.lock().unwrap());
            assert_eq!(backend.kernel_launches(), 0);
        }
    }

    #[test]
    fn timing_attribution_is_backend_independent() {
        let mut sim = spec(BackendKind::Sim).build();
        let mut par = spec(BackendKind::HostParallel { threads: Some(4) }).build();
        let a = sim.launch(5_000, &|_| {}).unwrap();
        let b = par.launch(5_000, &|_| {}).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn host_parallel_uses_multiple_threads_for_large_launches() {
        let mut backend = HostParallelBackend::new("p", DeviceKind::Cpu, cost(), Some(4));
        assert_eq!(backend.threads(), 4);
        // Each chunk blocks on the barrier until all four are in flight, so
        // the launch cannot complete unless four distinct workers run it.
        let rendezvous = std::sync::Barrier::new(4);
        let thread_ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        backend
            .launch(4 * MIN_ITEMS_PER_CHUNK, &|_| {
                rendezvous.wait();
                thread_ids
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
            })
            .unwrap();
        assert_eq!(thread_ids.lock().unwrap().len(), 4);
        // Tiny launches stay inline: one chunk, the calling thread.
        let chunks = observed_chunks(&mut backend, MIN_ITEMS_PER_CHUNK / 2);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn pool_threads_persist_across_launches() {
        let mut backend = HostParallelBackend::new("p", DeviceKind::Cpu, cost(), Some(4));
        let ids = |backend: &mut HostParallelBackend| {
            // Rendezvous forces every worker to take exactly one chunk, so
            // each launch observes the full, stable set of pool threads.
            let rendezvous = std::sync::Barrier::new(4);
            let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
            backend
                .launch(4 * MIN_ITEMS_PER_CHUNK, &|_| {
                    rendezvous.wait();
                    seen.lock().unwrap().insert(std::thread::current().id());
                })
                .unwrap();
            seen.into_inner().unwrap()
        };
        let first = ids(&mut backend);
        let second = ids(&mut backend);
        assert_eq!(first.len(), 4);
        // Long-lived pool: later launches run on the same worker threads
        // instead of freshly spawned ones, and never on the caller's.
        assert_eq!(second, first);
        assert!(!first.contains(&std::thread::current().id()));
        // Clones own their threads: the pool itself is not duplicated.
        let mut cloned = backend.clone();
        assert_eq!(cloned, backend);
        let third = ids(&mut cloned);
        assert!(third.is_disjoint(&first));
    }

    #[test]
    fn kernel_panics_propagate_from_the_pool() {
        let mut backend = HostParallelBackend::new("p", DeviceKind::Cpu, cost(), Some(4));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = backend.launch(4 * MIN_ITEMS_PER_CHUNK, &|chunk| {
                assert!(chunk.index != 1, "kernel died");
            });
        }));
        assert!(unwound.is_err());
        // The pool survives a panicking kernel: the next launch completes.
        backend.launch(4 * MIN_ITEMS_PER_CHUNK, &|_| {}).unwrap();
    }

    #[test]
    fn thread_count_is_clamped_to_the_device_width() {
        let narrow = CostModel { lanes: 2, ..cost() };
        let backend = HostParallelBackend::new("n", DeviceKind::Cpu, narrow, Some(16));
        assert_eq!(backend.threads(), 2);
        let auto = HostParallelBackend::new("a", DeviceKind::Cpu, cost(), None);
        assert!(auto.threads() >= 1);
    }

    #[test]
    fn specs_round_trip_through_live_backends() {
        for kind in [
            BackendKind::Sim,
            BackendKind::HostParallel { threads: Some(3) },
        ] {
            let spec = spec(kind);
            let backend = spec.build();
            assert_eq!(backend.spec(), spec);
            assert_eq!(backend.name(), "test-dev");
            assert_eq!(backend.kind(), DeviceKind::Gpu);
            assert_eq!(backend.capacity_factor(), spec.capacity_factor());
        }
    }

    #[test]
    fn backend_kind_labels_are_stable() {
        assert_eq!(BackendKind::Sim.label(), "sim");
        assert_eq!(BackendKind::host_parallel().to_string(), "host-parallel");
    }
}
