//! The computation daemon (§II-A1).
//!
//! "A daemon represents an accelerator, where graph algorithms are executed."
//! A [`Daemon`] wraps one pluggable [`AcceleratorBackend`], holds an instance
//! of the algorithm template for the duration of a run, and keeps the device
//! context alive across iterations (runtime isolation, §IV-C) so that
//! initialisation is paid once per daemon lifetime rather than once per call.
//!
//! The daemon executes the template's `MSGGen` over triplet blocks on the
//! backend.  `MSGMerge` folds the generated messages into the agent's dense
//! per-target slots, and `MSGApply` runs in the upper system's synchronize
//! step.
//!
//! # Backend-independent determinism
//!
//! A backend may execute a launch in parallel chunks
//! ([`HostParallelBackend`](gxplug_accel::HostParallelBackend)); the daemon
//! stages each chunk's output in its own slot and concatenates the slots in
//! chunk-index order.  Chunks are contiguous and in order (the trait
//! contract), so the concatenated stream equals the serial item order and
//! every backend produces bit-identical message streams.

use crate::pipeline::block_size::PipelineCoefficients;
use crate::runtime::RuntimeError;
use gxplug_accel::{
    AccelError, AcceleratorBackend, ChunkSpec, DeviceKind, KernelTiming, SimDuration,
};
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::VertexId;
use gxplug_ipc::blocks::TripletBlockRef;
use gxplug_ipc::key::IpcKey;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// What one `MSGGen` kernel launch produces: the generated messages plus the
/// device timing attribution.
pub type GenOutput<M> = (Vec<AddressedMessage<M>>, KernelTiming);

/// `MSGMerge` as a pure function: combines messages addressed to the same
/// vertex, preserving first-seen target order for determinism.  The merge is
/// memory-bound host work, so it does not need a device.  The
/// [`Agent`](crate::Agent) merges through its pooled dense slots instead;
/// this hash-based form serves callers that merge a standalone message
/// stream.
///
/// Takes any message iterator so callers can drain their pooled per-daemon
/// buffers straight into the merge without concatenating them first.
pub fn merge_addressed<V, E, A, I>(algorithm: &A, messages: I) -> Vec<AddressedMessage<A::Msg>>
where
    A: GraphAlgorithm<V, E>,
    I: IntoIterator<Item = AddressedMessage<A::Msg>>,
{
    let mut order: Vec<VertexId> = Vec::new();
    let mut merged: HashMap<VertexId, A::Msg> = HashMap::new();
    for message in messages {
        match merged.remove(&message.target) {
            Some(existing) => {
                let combined = algorithm.msg_merge(existing, message.payload);
                merged.insert(message.target, combined);
            }
            None => {
                order.push(message.target);
                merged.insert(message.target, message.payload);
            }
        }
    }
    order
        .into_iter()
        .map(|target| {
            let payload = merged.remove(&target).expect("target recorded in order");
            AddressedMessage::new(target, payload)
        })
        .collect()
}

/// One `MSGGen` launch of `block` on `daemon` through
/// [`Daemon::execute_gen_staged`], appending the block's messages to `out`:
/// the unit of work the agent runs for every pipeline block it fills.  The
/// kernel appends through [`GraphAlgorithm::msg_gen_into`] straight into
/// `out` (or a pooled per-chunk slot on multi-lane backends), so for flat
/// message types it allocates nothing beyond `out`'s amortised growth.
///
/// # Errors
/// A block the backend rejects (e.g. [`AccelError::OutOfMemory`] for a
/// mis-sized block), as [`RuntimeError::Kernel`] naming the daemon, instead
/// of aborting the process; the agent returns it from `process_iteration` so
/// the run fails with a typed error.
pub(crate) fn launch_block<V, E, A>(
    daemon: &mut Daemon,
    algorithm: &A,
    block: TripletBlockRef<'_, V, E>,
    iteration: usize,
    staging: &mut ChunkStaging<A::Msg>,
    out: &mut Vec<AddressedMessage<A::Msg>>,
) -> Result<(), RuntimeError>
where
    V: Sync,
    E: Sync,
    A: GraphAlgorithm<V, E>,
{
    daemon
        .execute_gen_staged(algorithm, block, iteration, staging, out)
        .map(drop)
        .map_err(|error| RuntimeError::Kernel {
            daemon: daemon.name().to_string(),
            error,
        })
}

/// Pooled per-chunk output staging for `MSGGen` launches on multi-lane
/// backends: one message slot per possible chunk.  Slots are *drained* into
/// the output buffer after each launch — their capacity survives — so a
/// staging reused across block launches stops allocating once warm.
/// Single-lane backends need no staging at all (the kernel sinks straight
/// into the output buffer); [`ChunkStaging::for_daemon`] returns an empty
/// pool for them.
#[derive(Debug)]
pub struct ChunkStaging<M> {
    slots: Vec<Mutex<Vec<AddressedMessage<M>>>>,
}

impl<M> ChunkStaging<M> {
    /// Staging sized for `daemon`'s backend.
    pub fn for_daemon(daemon: &Daemon) -> Self {
        let mut staging = Self { slots: Vec::new() };
        staging.ensure(daemon.backend().max_concurrency());
        staging
    }

    /// Grows the pool to at least `lanes` slots (no-op for `lanes <= 1`).
    fn ensure(&mut self, lanes: usize) {
        if lanes > 1 {
            while self.slots.len() < lanes {
                self.slots.push(Mutex::new(Vec::new()));
            }
        }
    }
}

/// Cumulative per-daemon counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Kernel launches issued to the device.
    pub kernel_launches: u64,
    /// Triplets processed by `MSGGen`.
    pub triplets_processed: u64,
    /// Messages produced by `MSGGen` (before merging).
    pub messages_generated: u64,
}

/// A computation daemon bound to one accelerator backend.
#[derive(Debug)]
pub struct Daemon {
    name: String,
    backend: Box<dyn AcceleratorBackend>,
    key: IpcKey,
    started: bool,
    stats: DaemonStats,
}

/// Locks a mutex, recovering from poisoning (a panicking kernel unwinds the
/// whole launch anyway; the slot content is never observed after a poison).
fn lock_slot<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Daemon {
    /// Creates a daemon for an accelerator, addressed by the System-V-style
    /// `key`.  Accepts anything that converts into a boxed backend: a
    /// [`DeviceSpec`](gxplug_accel::DeviceSpec) (built here), a concrete
    /// backend, or an already-boxed one.
    pub fn new(
        name: impl Into<String>,
        device: impl Into<Box<dyn AcceleratorBackend>>,
        key: IpcKey,
    ) -> Self {
        Self {
            name: name.into(),
            backend: device.into(),
            key,
            started: false,
            stats: DaemonStats::default(),
        }
    }

    /// Daemon name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The IPC key of this daemon's shared memory space.
    pub fn key(&self) -> IpcKey {
        self.key
    }

    /// The wrapped accelerator backend.
    pub fn backend(&self) -> &dyn AcceleratorBackend {
        self.backend.as_ref()
    }

    /// The device kind (GPU / CPU / FPGA).
    pub fn kind(&self) -> DeviceKind {
        self.backend.kind()
    }

    /// The device's computation capacity factor `1/c_j`.
    pub fn capacity_factor(&self) -> f64 {
        self.backend.capacity_factor()
    }

    /// Whether [`Daemon::start`] has been called.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// Starts the daemon: initialises the device context once.  Returns the
    /// initialisation time (zero if already started).
    ///
    /// Under runtime isolation the daemon outlives upper-system calls, so
    /// this cost is paid exactly once per run; the naive "raw call"
    /// integration of Fig. 13 instead pays it on every iteration.
    pub fn start(&mut self) -> SimDuration {
        self.started = true;
        self.backend.initialize()
    }

    /// Stops the daemon and tears down the device context.  Idempotent: a
    /// daemon that was never started (or is already shut down) is left
    /// untouched, so a session can be closed any number of times — and the
    /// automatic shutdown in [`Daemon`]'s `Drop` never double-tears a
    /// context that an explicit `shutdown` already released.
    pub fn shutdown(&mut self) {
        if self.started {
            self.started = false;
            self.backend.shutdown();
        }
    }

    /// Derives the Lemma-1 pipeline coefficients of this agent–daemon pair:
    /// `k1`/`k3` come from the upper system's per-item transfer costs, `k2`
    /// and `a` from the device.
    pub fn coefficients(&self, profile: &RuntimeProfile) -> PipelineCoefficients {
        let cost = self.backend.cost_model();
        PipelineCoefficients::new(
            profile.per_item_download.as_millis().max(1e-9),
            cost.per_item_cost().as_millis().max(1e-9),
            profile.per_item_upload.as_millis().max(1e-9),
            cost.call.as_millis().max(0.0),
        )
    }

    /// `MSGGen` over one borrowed triplet block: runs the kernel on the
    /// backend and returns the generated messages together with the device
    /// timing.
    pub fn execute_gen<V, E, A>(
        &mut self,
        algorithm: &A,
        block: TripletBlockRef<'_, V, E>,
        iteration: usize,
    ) -> Result<GenOutput<A::Msg>, AccelError>
    where
        V: Sync,
        E: Sync,
        A: GraphAlgorithm<V, E>,
    {
        let mut messages: Vec<AddressedMessage<A::Msg>> = Vec::new();
        let timing = self.execute_gen_into(algorithm, block, iteration, &mut messages)?;
        Ok((messages, timing))
    }

    /// `MSGGen` over one borrowed triplet block, appending the generated
    /// messages to the caller's reusable `out` buffer — the zero-copy variant
    /// of [`Daemon::execute_gen`]: the triplets are read in place from the
    /// block view.
    ///
    /// On a single-lane backend (e.g.
    /// [`SimBackend`](gxplug_accel::SimBackend)) the kernel appends straight
    /// into `out`, allocating nothing per launch.  On a multi-lane backend
    /// each chunk writes its own staging slot and the slots drain into `out`
    /// in chunk order, so the message stream — and everything merged from it —
    /// is bit-identical whichever backend executes the launch.
    pub fn execute_gen_into<V, E, A>(
        &mut self,
        algorithm: &A,
        block: TripletBlockRef<'_, V, E>,
        iteration: usize,
        out: &mut Vec<AddressedMessage<A::Msg>>,
    ) -> Result<KernelTiming, AccelError>
    where
        V: Sync,
        E: Sync,
        A: GraphAlgorithm<V, E>,
    {
        let mut staging = ChunkStaging::for_daemon(self);
        self.execute_gen_staged(algorithm, block, iteration, &mut staging, out)
    }

    /// [`Daemon::execute_gen_into`] with caller-pooled chunk staging: the
    /// variant the agent drives, reusing one [`ChunkStaging`] across every
    /// block launch of a share.
    pub fn execute_gen_staged<V, E, A>(
        &mut self,
        algorithm: &A,
        block: TripletBlockRef<'_, V, E>,
        iteration: usize,
        staging: &mut ChunkStaging<A::Msg>,
        out: &mut Vec<AddressedMessage<A::Msg>>,
    ) -> Result<KernelTiming, AccelError>
    where
        V: Sync,
        E: Sync,
        A: GraphAlgorithm<V, E>,
    {
        let triplets = block.triplets;
        let before = out.len();
        let lanes = self.backend.max_concurrency();
        let timing = if lanes <= 1 {
            // Single chunk on the calling thread: sink directly into `out`,
            // no staging.  The mutex is uncontended (locked once per launch).
            let sink = Mutex::new(&mut *out);
            self.backend.launch(triplets.len(), &|chunk: ChunkSpec| {
                let mut sink = lock_slot(&sink);
                for triplet in &triplets[chunk.range] {
                    algorithm.msg_gen_into(triplet, iteration, &mut sink);
                }
            })?
        } else {
            // One staging slot per possible chunk; each chunk locks only its
            // own slot, so the locks never contend and the content per slot
            // is deterministic.
            staging.ensure(lanes);
            let slots = &staging.slots;
            let timing = self.backend.launch(triplets.len(), &|chunk: ChunkSpec| {
                let mut slot = lock_slot(&slots[chunk.index]);
                for triplet in &triplets[chunk.range] {
                    algorithm.msg_gen_into(triplet, iteration, &mut slot);
                }
            })?;
            // Drain in chunk order — serial item order by the chunk
            // contract.  `append` leaves each slot empty with its capacity
            // intact for the next launch.
            for slot in slots {
                out.append(&mut lock_slot(slot));
            }
            timing
        };
        self.stats.kernel_launches += 1;
        self.stats.triplets_processed += block.len() as u64;
        self.stats.messages_generated += (out.len() - before) as u64;
        Ok(timing)
    }
}

impl Drop for Daemon {
    /// A dropped daemon tears its device context down.  This is what lets a
    /// pooled worker session be dropped (or lost to a panicking job) without
    /// leaking live device contexts: the daemons go down with it, whether or
    /// not [`Daemon::shutdown`] was called explicitly first.
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_accel::{presets, BackendKind, DeviceSpec, SimBackend};
    use gxplug_engine::template::AddressedMessage;
    use gxplug_graph::types::Triplet;
    use gxplug_ipc::key::KeyGenerator;

    /// Min-distance relaxation used to exercise the daemon APIs.
    struct Relax;

    impl GraphAlgorithm<f64, f64> for Relax {
        type Msg = f64;
        fn init_vertex(&self, _v: VertexId, _d: usize) -> f64 {
            f64::INFINITY
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
            (msg < cur).then_some(*msg)
        }
        fn name(&self) -> &'static str {
            "relax"
        }
    }

    fn daemon() -> Daemon {
        let key = KeyGenerator::new(0).key_for(0, 0);
        Daemon::new("d0", presets::cpu_xeon_20c("c0"), key)
    }

    fn triplets() -> Vec<Triplet<f64, f64>> {
        vec![
            Triplet::new(0, 1, 0.0, f64::INFINITY, 2.0),
            Triplet::new(0, 2, 0.0, f64::INFINITY, 5.0),
            Triplet::new(3, 1, f64::INFINITY, f64::INFINITY, 1.0),
            Triplet::new(2, 1, 7.0, f64::INFINITY, 1.0),
        ]
    }

    #[test]
    fn start_pays_init_once() {
        let mut d = daemon();
        assert!(!d.is_started());
        let first = d.start();
        assert!(first > SimDuration::ZERO);
        assert!(d.is_started());
        let second = d.start();
        assert!(second.is_zero());
        d.shutdown();
        assert!(!d.is_started());
        assert!(d.start() > SimDuration::ZERO);
    }

    #[test]
    fn execute_gen_produces_real_messages() {
        let mut d = daemon();
        d.start();
        let triplets = triplets();
        let block = TripletBlockRef {
            index: 0,
            triplets: &triplets,
        };
        let (messages, timing) = d.execute_gen(&Relax, block, 0).unwrap();
        // The triplet with an infinite source produces nothing.
        assert_eq!(messages.len(), 3);
        assert!(timing.total() > SimDuration::ZERO);
        assert!(timing.init.is_zero());
        assert_eq!(d.stats().triplets_processed, 4);
        assert_eq!(d.stats().messages_generated, 3);
    }

    #[test]
    fn gen_output_is_identical_across_backends() {
        // A batch large enough that the host-parallel backend really splits
        // it into several chunks; message order (and content) must match the
        // sim backend's exactly.
        let triplets: Vec<Triplet<f64, f64>> = (0..4_096u32)
            .map(|i| Triplet::new(i, (i * 7) % 4_096, (i % 13) as f64, f64::INFINITY, 1.0))
            .collect();
        let keys = KeyGenerator::new(3);
        let run = |backend: BackendKind| {
            let spec = presets::cpu_xeon_20c("c").with_backend(backend);
            let mut d = Daemon::new("d", spec, keys.key_for(0, 0));
            d.start();
            let block = TripletBlockRef {
                index: 0,
                triplets: &triplets,
            };
            d.execute_gen(&Relax, block, 0).unwrap().0
        };
        let sim = run(BackendKind::Sim);
        let parallel = run(BackendKind::HostParallel { threads: Some(4) });
        assert_eq!(sim.len(), parallel.len());
        for (a, b) in sim.iter().zip(&parallel) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.payload.to_bits(), b.payload.to_bits());
        }
    }

    #[test]
    fn merge_keeps_the_minimum_per_target() {
        let merged = merge_addressed::<f64, f64, Relax, _>(
            &Relax,
            vec![
                AddressedMessage::new(1, 2.0),
                AddressedMessage::new(2, 5.0),
                AddressedMessage::new(1, 8.0),
                AddressedMessage::new(1, 1.0),
            ],
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].target, 1);
        assert_eq!(merged[0].payload, 1.0);
        assert_eq!(merged[1].target, 2);
        assert_eq!(merged[1].payload, 5.0);
    }

    #[test]
    fn coefficients_reflect_device_and_profile() {
        let d = daemon();
        let coefficients = d.coefficients(&RuntimeProfile::powergraph());
        assert!(coefficients.k2 > 0.0);
        assert!(coefficients.a >= 0.0);
        // GPU daemons have a larger call constant than CPU daemons.
        let key = KeyGenerator::new(0).key_for(0, 1);
        let gpu = Daemon::new("g0", presets::gpu_v100("g"), key);
        let gpu_coefficients = gpu.coefficients(&RuntimeProfile::powergraph());
        assert!(gpu_coefficients.a > coefficients.a);
        assert!(gpu_coefficients.k2 < coefficients.k2);
    }

    #[test]
    fn daemons_accept_specs_and_live_backends() {
        let keys = KeyGenerator::new(4);
        let spec: DeviceSpec = presets::gpu_v100("g");
        let from_spec = Daemon::new("a", spec.clone(), keys.key_for(0, 0));
        let from_backend = Daemon::new(
            "b",
            SimBackend::new(spec.name.clone(), spec.kind, spec.cost),
            keys.key_for(0, 1),
        );
        assert_eq!(from_spec.kind(), from_backend.kind());
        assert_eq!(from_spec.capacity_factor(), from_backend.capacity_factor());
    }

    #[test]
    fn gpu_daemon_reports_oom_for_oversized_blocks() {
        let key = KeyGenerator::new(0).key_for(0, 2);
        let mut d = Daemon::new("g1", presets::gpu_v100("g1"), key);
        d.start();
        let oversized = vec![Triplet::new(0, 1, 0.0, 0.0, 1.0); presets::GPU_MEMORY_ITEMS + 1];
        let block = TripletBlockRef {
            index: 0,
            triplets: &oversized,
        };
        assert!(matches!(
            d.execute_gen(&Relax, block, 0),
            Err(AccelError::OutOfMemory { .. })
        ));
    }
}
