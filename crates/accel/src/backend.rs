//! The pluggable accelerator backend API.
//!
//! The paper's daemons are "abstract representations of accelerators" (§I):
//! the middleware is supposed to work with *any* device that can execute the
//! kernel ABI, not with one hard-coded cost model.  This module is that seam.
//! [`AcceleratorBackend`] is the object-safe trait the daemon layer drives;
//! [`DeviceSpec`] is the serializable descriptor a deployment is built from.
//!
//! One host backend ships behind the ABI, and [`DeviceSpec::build`] is how
//! it is made.  Kernels run for real on the host; the [`BackendKind`] only
//! picks its thread count.  [`BackendKind::Sim`] is one thread: every launch
//! is a single chunk on the calling thread.  [`BackendKind::HostParallel`]
//! splits a large enough launch into contiguous chunks run on a pool of
//! long-lived worker threads.  The ABI reports no time: simulated time is
//! priced from the device's [`CostModel`] by whoever needs it.
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
//! the serial item order by construction.  This is what makes thread counts
//! interchangeable without touching the determinism guarantees.

use crate::cost::CostModel;
use crate::device::{AccelError, DeviceKind, Result};
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

/// How many host threads a [`DeviceSpec`]'s backend runs kernels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// One thread: every launch runs as a single chunk on the calling
    /// thread.
    Sim,
    /// Large launches are split across a pool of worker threads.
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

    /// The effective thread count on a device `lanes` wide: one for
    /// [`BackendKind::Sim`]; otherwise the requested (or available) count,
    /// clamped to `1..=min(lanes, 64)` — a backend cannot be more parallel
    /// than the device width it models.
    fn threads(self, lanes: u32) -> usize {
        match self {
            BackendKind::Sim => 1,
            BackendKind::HostParallel { threads } => {
                let host = threads.unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                });
                host.clamp(1, (lanes as usize).clamp(1, MAX_HOST_THREADS))
            }
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
    /// How many host threads the built backend runs kernels on.
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
        Box::new(HostBackend {
            name: self.name.clone(),
            cost: self.cost,
            threads: self.backend.threads(self.cost.lanes),
            initialized: false,
            pool: None,
        })
    }
}

impl From<DeviceSpec> for Box<dyn AcceleratorBackend> {
    fn from(spec: DeviceSpec) -> Self {
        spec.build()
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
/// * A kernel panic unwinds out of `launch` on the launching thread.
/// * [`initialize`](Self::initialize) pays the cost model's initialisation
///   time once per device context; `launch` never initialises.
pub trait AcceleratorBackend: Send + fmt::Debug {
    /// Device name (e.g. `"node0-gpu0"`).
    fn name(&self) -> &str;

    /// The analytic cost model used for planning and time attribution.
    fn cost_model(&self) -> &CostModel;

    /// Initialises the device context if necessary and returns the time it
    /// took (zero when already initialised).  Daemons call this once per
    /// lifetime — runtime isolation, §IV-C.
    fn initialize(&mut self) -> SimDuration;

    /// Tears down the device context (the next `initialize` pays again).
    /// Idempotent.
    fn shutdown(&mut self);

    /// Upper bound on the number of chunks a launch is split into.  Callers
    /// size their per-chunk output staging with this.
    fn max_concurrency(&self) -> usize;

    /// Executes one kernel launch over `items` data entities (see the trait
    /// contract for the chunking rules).
    ///
    /// # Errors
    /// [`AccelError::OutOfMemory`] when `items` exceeds the device memory.
    fn launch(&mut self, items: usize, kernel: &ChunkKernel<'_>) -> Result<()>;
}

/// Smallest chunk worth a thread of its own: below this, the hand-off
/// overhead dwarfs the kernel work and the launch degenerates to a single
/// inline chunk.
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
    /// thread (as an inline chunk's panic unwinds it).
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

/// The persistent worker threads of a multi-threaded backend: spawned once
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

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
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

/// The one host backend.  A launch too small to split, or on a one-thread
/// backend, runs as a single chunk on the calling thread.  Otherwise it is
/// split into contiguous chunks that a pool of long-lived OS threads runs
/// (spawned at the first multi-chunk launch and reused until the backend
/// drops).  Kernels may borrow the iteration's data without `'static`
/// bounds: a launch blocks until its last chunk completes, pinning the
/// borrow.
#[derive(Debug)]
struct HostBackend {
    name: String,
    cost: CostModel,
    threads: usize,
    initialized: bool,
    pool: Option<WorkerPool>,
}

impl AcceleratorBackend for HostBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn initialize(&mut self) -> SimDuration {
        if std::mem::replace(&mut self.initialized, true) {
            SimDuration::ZERO
        } else {
            self.cost.init
        }
    }

    fn shutdown(&mut self) {
        self.initialized = false;
    }

    fn max_concurrency(&self) -> usize {
        self.threads
    }

    fn launch(&mut self, items: usize, kernel: &ChunkKernel<'_>) -> Result<()> {
        if self.cost.exceeds_memory(items) {
            return Err(AccelError::OutOfMemory {
                requested: items,
                capacity: self.cost.memory_capacity_items.unwrap_or(0),
                device: self.name.clone(),
            });
        }
        let chunks = self.threads.min(items.div_ceil(MIN_ITEMS_PER_CHUNK)).max(1);
        if chunks == 1 {
            kernel(ChunkSpec {
                index: 0,
                chunks: 1,
                range: 0..items,
            });
            return Ok(());
        }
        let pool = self
            .pool
            .get_or_insert_with(|| WorkerPool::new(self.threads, &self.name));
        // SAFETY: erasing the kernel borrow's lifetime into a raw pointer
        // only changes its type.  The pool workers dereference it only
        // between the dispatch below and the `launch_state.wait()` that
        // follows, and `wait` does not return until every chunk completed —
        // the borrow strictly outlives every dereference.
        let kernel = KernelPtr(unsafe {
            std::mem::transmute::<*const ChunkKernel<'_>, *const ChunkKernel<'static>>(
                kernel as *const ChunkKernel<'_>,
            )
        });
        let launch_state = Arc::new(LaunchState::new(chunks));
        // Contiguous even split: the first `rem` chunks take one extra item,
        // so concatenating ranges in index order covers 0..items.
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
            // A panicking kernel unwinds the launching thread, exactly as an
            // inline chunk does.
            resume_unwind(payload);
        }
        Ok(())
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

    fn build(backend: BackendKind) -> Box<dyn AcceleratorBackend> {
        DeviceSpec::new("test-dev", DeviceKind::Gpu, cost())
            .with_backend(backend)
            .build()
    }

    /// Both thread counts a backend is built with: one, and a pool of four.
    const KINDS: [BackendKind; 2] = [
        BackendKind::Sim,
        BackendKind::HostParallel { threads: Some(4) },
    ];

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

    /// Thread ids that ran one launch of four rendezvousing chunks.  The
    /// barrier forces every pool worker to take exactly one chunk, so the
    /// launch cannot complete unless four distinct workers run it.
    fn pool_thread_ids(backend: &mut dyn AcceleratorBackend) -> HashSet<std::thread::ThreadId> {
        let rendezvous = std::sync::Barrier::new(4);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        backend
            .launch(4 * MIN_ITEMS_PER_CHUNK, &|_| {
                rendezvous.wait();
                seen.lock().unwrap().insert(std::thread::current().id());
            })
            .unwrap();
        seen.into_inner().unwrap()
    }

    #[test]
    fn both_backends_respect_the_chunk_contract() {
        for kind in KINDS {
            let mut backend = build(kind);
            for items in [0usize, 1, 255, 256, 1_000, 4_096] {
                let chunks = observed_chunks(backend.as_mut(), items);
                assert_chunk_contract(&chunks, items, backend.max_concurrency());
            }
        }
    }

    #[test]
    fn initialize_pays_init_once_per_context() {
        for kind in KINDS {
            let mut backend = build(kind);
            assert_eq!(backend.initialize().as_millis(), 50.0);
            assert!(backend.initialize().is_zero());
            backend.launch(100, &|_| {}).unwrap();
            assert!(backend.initialize().is_zero());
            backend.shutdown();
            backend.shutdown();
            assert_eq!(backend.initialize().as_millis(), 50.0);
        }
    }

    #[test]
    fn oversized_launches_fail_without_invoking_the_kernel() {
        for kind in KINDS {
            let mut backend = build(kind);
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
        }
    }

    #[test]
    fn host_parallel_uses_multiple_threads_for_large_launches() {
        let mut backend = build(BackendKind::HostParallel { threads: Some(4) });
        assert_eq!(backend.max_concurrency(), 4);
        assert_eq!(pool_thread_ids(backend.as_mut()).len(), 4);
        // Tiny launches stay inline: one chunk, the calling thread.
        let chunks = observed_chunks(backend.as_mut(), MIN_ITEMS_PER_CHUNK / 2);
        assert_eq!(chunks.len(), 1);
        // One thread never splits, however large the launch.
        let mut single = build(BackendKind::Sim);
        assert_eq!(single.max_concurrency(), 1);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        single
            .launch(4 * MIN_ITEMS_PER_CHUNK, &|chunk| {
                ran_on
                    .lock()
                    .unwrap()
                    .push((chunk, std::thread::current().id()));
            })
            .unwrap();
        let whole = ChunkSpec {
            index: 0,
            chunks: 1,
            range: 0..4 * MIN_ITEMS_PER_CHUNK,
        };
        assert_eq!(ran_on.into_inner().unwrap(), vec![(whole, caller)]);
    }

    #[test]
    fn pool_threads_persist_across_launches() {
        let mut backend = build(BackendKind::HostParallel { threads: Some(4) });
        let first = pool_thread_ids(backend.as_mut());
        let second = pool_thread_ids(backend.as_mut());
        assert_eq!(first.len(), 4);
        // Long-lived pool: later launches run on the same worker threads
        // instead of freshly spawned ones, and never on the caller's.
        assert_eq!(second, first);
        assert!(!first.contains(&std::thread::current().id()));
        // Each backend owns its threads.
        let mut other = build(BackendKind::HostParallel { threads: Some(4) });
        assert!(pool_thread_ids(other.as_mut()).is_disjoint(&first));
    }

    #[test]
    fn kernel_panics_propagate_from_the_pool() {
        for kind in KINDS {
            let mut backend = build(kind);
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let _ = backend.launch(4 * MIN_ITEMS_PER_CHUNK, &|chunk| {
                    assert!(chunk.index + 1 != chunk.chunks, "kernel died");
                });
            }));
            // The launching thread re-raises the kernel's own payload.
            let payload = unwound.expect_err("the kernel panic unwinds the launch");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("kernel died"));
            // The backend survives a panicking kernel: the next launch
            // completes.
            backend.launch(4 * MIN_ITEMS_PER_CHUNK, &|_| {}).unwrap();
        }
    }

    #[test]
    fn thread_count_is_clamped_to_the_device_width() {
        let narrow = CostModel { lanes: 2, ..cost() };
        let threads = |backend| {
            DeviceSpec::new("n", DeviceKind::Cpu, narrow)
                .with_backend(backend)
                .build()
                .max_concurrency()
        };
        assert_eq!(threads(BackendKind::HostParallel { threads: Some(16) }), 2);
        assert_eq!(threads(BackendKind::HostParallel { threads: Some(0) }), 1);
        assert_eq!(threads(BackendKind::Sim), 1);
        assert!(build(BackendKind::host_parallel()).max_concurrency() >= 1);
    }

    #[test]
    fn backend_kind_labels_are_stable() {
        assert_eq!(BackendKind::Sim.label(), "sim");
        assert_eq!(BackendKind::host_parallel().to_string(), "host-parallel");
    }
}
