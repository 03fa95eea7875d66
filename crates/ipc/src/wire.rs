//! The network wire format: versioned, length-prefixed binary frames.
//!
//! Everything the serving front end (`gxplug-server`) says on a socket —
//! job submissions, acceptance acks, state transitions, results, errors and
//! stats snapshots — travels as a [`Frame`], encoded with [`encode`] and
//! decoded with [`decode`].  The format is deliberately dependency-free and
//! transport-agnostic: the same frames ride inside HTTP bodies, WebSocket
//! binary messages, and (per the roadmap) future raw-socket multi-process
//! IPC.
//!
//! # Framing
//!
//! Every frame starts with a 9-byte header:
//!
//! | bytes | field                                        |
//! |-------|----------------------------------------------|
//! | 0..2  | magic `b"GX"`                                |
//! | 2..4  | wire version, `u16` little-endian            |
//! | 4     | frame kind                                   |
//! | 5..9  | payload length, `u32` little-endian          |
//!
//! followed by exactly `payload length` bytes of kind-specific payload.
//! All integers are little-endian; floats travel as their IEEE-754 bit
//! patterns (`f64::to_bits`), so a result decoded on the client is
//! **bit-identical** to the value the service computed — the repository's
//! determinism invariant extends across the socket.
//!
//! # Error vocabulary
//!
//! [`ServerError`] is the single error model shared by every transport: the
//! HTTP front end maps each variant to a status code, the WebSocket stream
//! delivers it as an [`Frame::Error`] frame, and future transports reuse it
//! unchanged.  Decoding is strict: bad magic, version mismatches, unknown
//! kinds, truncated buffers, oversized declarations and trailing payload
//! bytes are all rejected with a typed [`WireError`].

use std::fmt;

/// The two magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 2] = *b"GX";

/// The wire version this build speaks.  Decoders reject every other version:
/// the format is young enough that cross-version tolerance would only hide
/// bugs.
pub const WIRE_VERSION: u16 = 2;

/// Size of the fixed frame header (magic + version + kind + payload length).
pub const HEADER_LEN: usize = 9;

/// Upper bound a decoder accepts for the declared payload length, so a
/// corrupt or hostile header cannot make a reader allocate gigabytes.
pub const MAX_PAYLOAD: u32 = 1 << 28; // 256 MiB

const KIND_SUBMIT: u8 = 1;
const KIND_ACCEPTED: u8 = 2;
const KIND_STATE: u8 = 3;
const KIND_RESULT: u8 = 4;
const KIND_ERROR: u8 = 5;
const KIND_STATS: u8 = 6;
const KIND_CANCEL: u8 = 7;
const KIND_MUTATE: u8 = 8;
const KIND_MUTATED: u8 = 9;

/// Decode-side failures.  Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the header or declared payload does.
    Truncated,
    /// The first two bytes are not [`WIRE_MAGIC`].
    BadMagic([u8; 2]),
    /// The frame was produced by a different wire version.
    VersionMismatch {
        /// The version in the frame header.
        got: u16,
        /// The version this build speaks ([`WIRE_VERSION`]).
        expected: u16,
    },
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload bytes do not parse as the declared kind.
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:?}"),
            WireError::VersionMismatch { got, expected } => {
                write!(f, "wire version mismatch: got {got}, expected {expected}")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::Oversized(len) => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The lifecycle states a job reports over the wire, matching the service's
/// queued → running → resolved progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Accepted and waiting in a priority lane.
    Queued,
    /// Executing on a worker session.
    Running,
    /// Ran to a successful result.
    Done,
    /// Ran and failed (session error or panic).
    Failed,
    /// Cancelled before it ran.
    Cancelled,
}

impl JobState {
    /// The wire code of this state.
    pub fn code(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            _ => return None,
        })
    }

    /// `true` once the job can change state no further.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        })
    }
}

/// One named argument of a job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name, e.g. `"sources"` or `"damping"`.
    pub name: String,
    /// Parameter value.
    pub value: ParamValue,
}

/// The value of a [`Param`].  The vocabulary is deliberately small: graph
/// algorithms are parameterised by counts, scalars and vertex-id lists.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An unsigned integer (iteration caps, counts).
    U64(u64),
    /// A float, transported as its exact bit pattern.
    F64(f64),
    /// A list of vertex ids (SSSP sources and the like).
    IdList(Vec<u32>),
}

/// A transport-level job description: which algorithm to run and with what
/// parameters.  The server maps the `algorithm` name onto a registered
/// in-process algorithm; the `ipc` crate itself attaches no meaning to it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registered algorithm name, e.g. `"pagerank"` or `"sssp"`.
    pub algorithm: String,
    /// Named parameters, in submission order.
    pub params: Vec<Param>,
}

impl JobSpec {
    /// Creates a spec with no parameters.
    pub fn new(algorithm: impl Into<String>) -> Self {
        Self {
            algorithm: algorithm.into(),
            params: Vec::new(),
        }
    }

    /// Adds an integer parameter.
    pub fn with_u64(mut self, name: impl Into<String>, value: u64) -> Self {
        self.params.push(Param {
            name: name.into(),
            value: ParamValue::U64(value),
        });
        self
    }

    /// Adds a float parameter.
    pub fn with_f64(mut self, name: impl Into<String>, value: f64) -> Self {
        self.params.push(Param {
            name: name.into(),
            value: ParamValue::F64(value),
        });
        self
    }

    /// Adds a vertex-id-list parameter.
    pub fn with_ids(mut self, name: impl Into<String>, ids: Vec<u32>) -> Self {
        self.params.push(Param {
            name: name.into(),
            value: ParamValue::IdList(ids),
        });
        self
    }

    /// Looks up an integer parameter by name.
    pub fn u64_param(&self, name: &str) -> Option<u64> {
        self.params.iter().find_map(|p| match &p.value {
            ParamValue::U64(v) if p.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a float parameter by name.
    pub fn f64_param(&self, name: &str) -> Option<f64> {
        self.params.iter().find_map(|p| match &p.value {
            ParamValue::F64(v) if p.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a vertex-id-list parameter by name.
    pub fn ids_param(&self, name: &str) -> Option<&[u32]> {
        self.params.iter().find_map(|p| match &p.value {
            ParamValue::IdList(ids) if p.name == name => Some(ids.as_slice()),
            _ => None,
        })
    }
}

/// Wire encoding of the intra-iteration pipeline mode (mirrors the core
/// crate's `PipelineMode` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePipeline {
    /// No pipeline parallelism.
    Disabled,
    /// Fixed block size in triplets.
    FixedBlockSize(u32),
    /// Fixed number of blocks per iteration.
    FixedBlockCount(u32),
    /// The Lemma-1 optimal block size.
    Optimal,
}

/// Wire encoding of a middleware configuration override (mirrors the core
/// crate's `MiddlewareConfig` field for field; the server performs the
/// mapping so `ipc` stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireConfig {
    /// Pipeline mode.
    pub pipeline: WirePipeline,
    /// LRU synchronization caching.
    pub caching: bool,
    /// Lazy uploading (requires `caching`).
    pub lazy_upload: bool,
    /// Synchronization skipping.
    pub skipping: bool,
    /// Agent cache capacity as a fraction of local vertices, in `(0, 1]`.
    pub cache_capacity_fraction: f64,
    /// Run daemons/agents on the calling thread instead of worker threads.
    pub serial: bool,
}

/// Job options carried with a submission: priority lane, cache policy, an
/// optional iteration cap and an optional configuration override.  Codes
/// match the server's documented REST vocabulary; the server maps them onto
/// the core crate's `JobOptions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireJobOptions {
    /// Priority lane: 0 = high, 1 = normal, 2 = low.
    pub priority: u8,
    /// Cache policy: 0 = use-or-fill, 1 = bypass, 2 = refresh.
    pub cache: u8,
    /// Iteration cap override, if any.
    pub max_iterations: Option<u32>,
    /// Middleware configuration override, if any.
    pub config: Option<WireConfig>,
}

impl Default for WireJobOptions {
    fn default() -> Self {
        Self {
            priority: 1,
            cache: 0,
            max_iterations: None,
            config: None,
        }
    }
}

/// A resolved job's payload: the converged per-vertex values plus run
/// metadata.  Values travel as `f64` bit patterns, indexed by vertex id.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResultFrame {
    /// The job this result resolves.
    pub job: u64,
    /// The algorithm that produced it (echo of the submission).
    pub algorithm: String,
    /// Whether the run converged before its iteration cap.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: u32,
    /// The run's simulated time under the cost model
    /// (`RunReport::total_time`), in microseconds — not the wall clock.
    pub sim_time_us: u64,
    /// One value per vertex, in vertex-id order.
    pub values: Vec<f64>,
}

/// A consistent snapshot of the service's counters, as rendered by
/// `/metrics` and streamed to monitoring clients.  Durations travel in
/// microseconds; percentile fields are `None` until a sample exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsFrame {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that failed with a session error.
    pub failed: u64,
    /// Jobs cancelled before running.
    pub cancelled: u64,
    /// Jobs that panicked while running.
    pub panicked: u64,
    /// Submissions served from the result cache.
    pub cache_hits: u64,
    /// Cache-eligible submissions that missed.
    pub cache_misses: u64,
    /// Queued duplicates resolved from another job's flight.
    pub coalesced_jobs: u64,
    /// Jobs currently waiting in the lanes.
    pub queued: u32,
    /// Jobs currently executing.
    pub running: u32,
    /// Worker sessions the service runs.
    pub worker_sessions: u32,
    /// Total queue wait across executed jobs, microseconds.
    pub queue_wait_total_us: u64,
    /// Largest single queue wait, microseconds.
    pub queue_wait_max_us: u64,
    /// Total wall time across physical runs, microseconds.
    pub run_wall_total_us: u64,
    /// Largest single physical-run wall time, microseconds.
    pub run_wall_max_us: u64,
    /// Median queue wait, microseconds.
    pub wait_p50_us: Option<u64>,
    /// 99th-percentile queue wait, microseconds.
    pub wait_p99_us: Option<u64>,
    /// Median physical-run wall time, microseconds.
    pub wall_p50_us: Option<u64>,
    /// 99th-percentile physical-run wall time, microseconds.
    pub wall_p99_us: Option<u64>,
}

/// The unified error model every transport shares.  The HTTP front end maps
/// variants onto status codes (401, 429, 503, 404, 400, 500); the WebSocket
/// stream and future raw-socket transports carry them verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Missing or unknown bearer token.
    Unauthorized,
    /// The tenant is over its in-flight-job quota.
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
        /// Jobs the tenant currently has in flight.
        in_flight: u32,
        /// The tenant's in-flight limit.
        limit: u32,
    },
    /// The service queue is full and the submission does not wait for a slot.
    QueueFull,
    /// The service is shutting down.
    ShutDown,
    /// No such job (or it was evicted after resolving).
    NotFound,
    /// The request could not be parsed or validated.
    BadRequest(String),
    /// The submission names an algorithm the server has not registered.
    UnknownAlgorithm(String),
    /// The job was cancelled before it ran.
    Cancelled,
    /// The job panicked while running.
    JobPanicked,
    /// The job failed with a session error.
    JobFailed(String),
    /// The job's result was lost (worker died without reporting).
    Lost,
    /// The peer violated the wire or WebSocket protocol.
    Protocol(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Unauthorized => write!(f, "missing or unknown bearer token"),
            ServerError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant {tenant} is over quota: {in_flight} jobs in flight, limit {limit}"
            ),
            ServerError::QueueFull => write!(f, "job queue is full"),
            ServerError::ShutDown => write!(f, "service is shutting down"),
            ServerError::NotFound => write!(f, "no such job"),
            ServerError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServerError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            ServerError::Cancelled => write!(f, "job was cancelled"),
            ServerError::JobPanicked => write!(f, "job panicked while running"),
            ServerError::JobFailed(why) => write!(f, "job failed: {why}"),
            ServerError::Lost => write!(f, "job result was lost"),
            ServerError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// One live graph-mutation operation as it travels on the wire.
///
/// The wire shape is deliberately narrower than the in-memory
/// `MutationOp<V, E>`: served graphs initialise vertex attributes through
/// their algorithms, so added and detached vertices carry no attribute bytes,
/// and edge attributes are the one `f64` weight the serving model exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMutationOp {
    /// Append one vertex (its id is the next dense id; its attribute is the
    /// serving model's default).
    AddVertex,
    /// Append one weighted edge between existing (or batch-added) vertices.
    AddEdge {
        /// Source vertex id.
        src: u32,
        /// Destination vertex id.
        dst: u32,
        /// Edge weight.
        attr: f64,
    },
    /// Remove the edge holding this id *before* the batch applies.
    RemoveEdge {
        /// Pre-batch edge id.
        edge: u64,
    },
    /// Reset a (necessarily edge-free) vertex's attribute to the default.
    DetachVertex {
        /// The vertex to detach.
        vertex: u32,
    },
}

/// Everything that travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run this job.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// How to run it.
        options: WireJobOptions,
    },
    /// Server → client: the submission was accepted under this job id.
    Accepted {
        /// The assigned job id.
        job: u64,
    },
    /// Server → client: a job changed state (streamed over `/v1/stream`).
    State {
        /// The job that transitioned.
        job: u64,
        /// Its new state.
        state: JobState,
    },
    /// Server → client: a job's final values.
    Result(JobResultFrame),
    /// Server → client: a typed failure, optionally tied to a job.
    Error {
        /// The job the error concerns, if any.
        job: Option<u64>,
        /// What went wrong.
        error: ServerError,
    },
    /// Server → client: a stats snapshot.
    Stats(StatsFrame),
    /// Client → server: cancel this job.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Client → server: apply this mutation batch to the served graph.
    Mutate {
        /// The operations of the batch, applied atomically in order.
        ops: Vec<WireMutationOp>,
    },
    /// Server → client: the batch committed; the served graph now has this
    /// shape.
    Mutated {
        /// The mutation-log version the batch committed at.
        version: u64,
        /// Vertices in the mutated graph.
        num_vertices: u64,
        /// Edges in the mutated graph.
        num_edges: u64,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::Accepted { .. } => KIND_ACCEPTED,
            Frame::State { .. } => KIND_STATE,
            Frame::Result(_) => KIND_RESULT,
            Frame::Error { .. } => KIND_ERROR,
            Frame::Stats(_) => KIND_STATS,
            Frame::Cancel { .. } => KIND_CANCEL,
            Frame::Mutate { .. } => KIND_MUTATE,
            Frame::Mutated { .. } => KIND_MUTATED,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding

struct Writer(Vec<u8>);

impl Writer {
    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
    fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u32(v);
            }
            None => self.put_u8(0),
        }
    }
    fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }
}

fn encode_options(w: &mut Writer, options: &WireJobOptions) {
    w.put_u8(options.priority);
    w.put_u8(options.cache);
    w.put_opt_u32(options.max_iterations);
    match &options.config {
        None => w.put_u8(0),
        Some(config) => {
            w.put_u8(1);
            match config.pipeline {
                WirePipeline::Disabled => w.put_u8(0),
                WirePipeline::FixedBlockSize(size) => {
                    w.put_u8(1);
                    w.put_u32(size);
                }
                WirePipeline::FixedBlockCount(count) => {
                    w.put_u8(2);
                    w.put_u32(count);
                }
                WirePipeline::Optimal => w.put_u8(3),
            }
            w.put_bool(config.caching);
            w.put_bool(config.lazy_upload);
            w.put_bool(config.skipping);
            w.put_f64(config.cache_capacity_fraction);
            w.put_bool(config.serial);
        }
    }
}

fn encode_error(w: &mut Writer, error: &ServerError) {
    match error {
        ServerError::Unauthorized => w.put_u8(1),
        ServerError::QuotaExceeded {
            tenant,
            in_flight,
            limit,
        } => {
            w.put_u8(2);
            w.put_str(tenant);
            w.put_u32(*in_flight);
            w.put_u32(*limit);
        }
        ServerError::QueueFull => w.put_u8(3),
        ServerError::ShutDown => w.put_u8(4),
        ServerError::NotFound => w.put_u8(5),
        ServerError::BadRequest(why) => {
            w.put_u8(6);
            w.put_str(why);
        }
        ServerError::UnknownAlgorithm(name) => {
            w.put_u8(7);
            w.put_str(name);
        }
        ServerError::Cancelled => w.put_u8(8),
        ServerError::JobPanicked => w.put_u8(9),
        ServerError::JobFailed(why) => {
            w.put_u8(10);
            w.put_str(why);
        }
        ServerError::Lost => w.put_u8(11),
        ServerError::Protocol(why) => {
            w.put_u8(12);
            w.put_str(why);
        }
    }
}

/// Encodes a frame into a self-contained byte vector (header + payload).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut payload = Writer(Vec::new());
    match frame {
        Frame::Submit { spec, options } => {
            payload.put_str(&spec.algorithm);
            payload.put_u32(spec.params.len() as u32);
            for param in &spec.params {
                payload.put_str(&param.name);
                match &param.value {
                    ParamValue::U64(v) => {
                        payload.put_u8(0);
                        payload.put_u64(*v);
                    }
                    ParamValue::F64(v) => {
                        payload.put_u8(1);
                        payload.put_f64(*v);
                    }
                    ParamValue::IdList(ids) => {
                        payload.put_u8(2);
                        payload.put_u32(ids.len() as u32);
                        for id in ids {
                            payload.put_u32(*id);
                        }
                    }
                }
            }
            encode_options(&mut payload, options);
        }
        Frame::Accepted { job } => payload.put_u64(*job),
        Frame::State { job, state } => {
            payload.put_u64(*job);
            payload.put_u8(state.code());
        }
        Frame::Result(result) => {
            payload.put_u64(result.job);
            payload.put_str(&result.algorithm);
            payload.put_bool(result.converged);
            payload.put_u32(result.iterations);
            payload.put_u64(result.sim_time_us);
            payload.put_u32(result.values.len() as u32);
            for value in &result.values {
                payload.put_f64(*value);
            }
        }
        Frame::Error { job, error } => {
            payload.put_opt_u64(*job);
            encode_error(&mut payload, error);
        }
        Frame::Stats(stats) => {
            payload.put_u64(stats.submitted);
            payload.put_u64(stats.completed);
            payload.put_u64(stats.failed);
            payload.put_u64(stats.cancelled);
            payload.put_u64(stats.panicked);
            payload.put_u64(stats.cache_hits);
            payload.put_u64(stats.cache_misses);
            payload.put_u64(stats.coalesced_jobs);
            payload.put_u32(stats.queued);
            payload.put_u32(stats.running);
            payload.put_u32(stats.worker_sessions);
            payload.put_u64(stats.queue_wait_total_us);
            payload.put_u64(stats.queue_wait_max_us);
            payload.put_u64(stats.run_wall_total_us);
            payload.put_u64(stats.run_wall_max_us);
            payload.put_opt_u64(stats.wait_p50_us);
            payload.put_opt_u64(stats.wait_p99_us);
            payload.put_opt_u64(stats.wall_p50_us);
            payload.put_opt_u64(stats.wall_p99_us);
        }
        Frame::Cancel { job } => payload.put_u64(*job),
        Frame::Mutate { ops } => {
            payload.put_u32(ops.len() as u32);
            for op in ops {
                match op {
                    WireMutationOp::AddVertex => payload.put_u8(0),
                    WireMutationOp::AddEdge { src, dst, attr } => {
                        payload.put_u8(1);
                        payload.put_u32(*src);
                        payload.put_u32(*dst);
                        payload.put_f64(*attr);
                    }
                    WireMutationOp::RemoveEdge { edge } => {
                        payload.put_u8(2);
                        payload.put_u64(*edge);
                    }
                    WireMutationOp::DetachVertex { vertex } => {
                        payload.put_u8(3);
                        payload.put_u32(*vertex);
                    }
                }
            }
        }
        Frame::Mutated {
            version,
            num_vertices,
            num_edges,
        } => {
            payload.put_u64(*version);
            payload.put_u64(*num_vertices);
            payload.put_u64(*num_edges);
        }
    }

    let payload = payload.0;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(frame.kind());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// Decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }
    fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload("boolean byte is neither 0 nor 1")),
        }
    }
    fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::BadPayload("string is not valid UTF-8"))
    }
    /// Validates a declared element count against the bytes actually left,
    /// so a corrupt count cannot drive a huge allocation.
    fn checked_count(&self, count: u32, elem_size: usize) -> Result<usize, WireError> {
        let count = count as usize;
        if count.saturating_mul(elem_size) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }
    fn take_opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        Ok(match self.take_bool()? {
            true => Some(self.take_u32()?),
            false => None,
        })
    }
    fn take_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(match self.take_bool()? {
            true => Some(self.take_u64()?),
            false => None,
        })
    }
}

fn decode_options(r: &mut Reader<'_>) -> Result<WireJobOptions, WireError> {
    let priority = r.take_u8()?;
    if priority > 2 {
        return Err(WireError::BadPayload("priority code out of range"));
    }
    let cache = r.take_u8()?;
    if cache > 2 {
        return Err(WireError::BadPayload("cache-policy code out of range"));
    }
    let max_iterations = r.take_opt_u32()?;
    let config = match r.take_bool()? {
        false => None,
        true => {
            let pipeline = match r.take_u8()? {
                0 => WirePipeline::Disabled,
                1 => WirePipeline::FixedBlockSize(r.take_u32()?),
                2 => WirePipeline::FixedBlockCount(r.take_u32()?),
                3 => WirePipeline::Optimal,
                _ => return Err(WireError::BadPayload("unknown pipeline mode")),
            };
            Some(WireConfig {
                pipeline,
                caching: r.take_bool()?,
                lazy_upload: r.take_bool()?,
                skipping: r.take_bool()?,
                cache_capacity_fraction: r.take_f64()?,
                serial: r.take_bool()?,
            })
        }
    };
    Ok(WireJobOptions {
        priority,
        cache,
        max_iterations,
        config,
    })
}

fn decode_error(r: &mut Reader<'_>) -> Result<ServerError, WireError> {
    Ok(match r.take_u8()? {
        1 => ServerError::Unauthorized,
        2 => ServerError::QuotaExceeded {
            tenant: r.take_str()?,
            in_flight: r.take_u32()?,
            limit: r.take_u32()?,
        },
        3 => ServerError::QueueFull,
        4 => ServerError::ShutDown,
        5 => ServerError::NotFound,
        6 => ServerError::BadRequest(r.take_str()?),
        7 => ServerError::UnknownAlgorithm(r.take_str()?),
        8 => ServerError::Cancelled,
        9 => ServerError::JobPanicked,
        10 => ServerError::JobFailed(r.take_str()?),
        11 => ServerError::Lost,
        12 => ServerError::Protocol(r.take_str()?),
        _ => return Err(WireError::BadPayload("unknown error code")),
    })
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let frame = match kind {
        KIND_SUBMIT => {
            let algorithm = r.take_str()?;
            let declared = r.take_u32()?;
            // Every param costs at least a name length + a tag byte.
            let count = r.checked_count(declared, 5)?;
            let mut params = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.take_str()?;
                let value = match r.take_u8()? {
                    0 => ParamValue::U64(r.take_u64()?),
                    1 => ParamValue::F64(r.take_f64()?),
                    2 => {
                        let declared = r.take_u32()?;
                        let ids = r.checked_count(declared, 4)?;
                        let mut list = Vec::with_capacity(ids);
                        for _ in 0..ids {
                            list.push(r.take_u32()?);
                        }
                        ParamValue::IdList(list)
                    }
                    _ => return Err(WireError::BadPayload("unknown param tag")),
                };
                params.push(Param { name, value });
            }
            let options = decode_options(&mut r)?;
            Frame::Submit {
                spec: JobSpec { algorithm, params },
                options,
            }
        }
        KIND_ACCEPTED => Frame::Accepted { job: r.take_u64()? },
        KIND_STATE => Frame::State {
            job: r.take_u64()?,
            state: JobState::from_code(r.take_u8()?)
                .ok_or(WireError::BadPayload("unknown job state"))?,
        },
        KIND_RESULT => {
            let job = r.take_u64()?;
            let algorithm = r.take_str()?;
            let converged = r.take_bool()?;
            let iterations = r.take_u32()?;
            let sim_time_us = r.take_u64()?;
            let declared = r.take_u32()?;
            let count = r.checked_count(declared, 8)?;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.take_f64()?);
            }
            Frame::Result(JobResultFrame {
                job,
                algorithm,
                converged,
                iterations,
                sim_time_us,
                values,
            })
        }
        KIND_ERROR => Frame::Error {
            job: r.take_opt_u64()?,
            error: decode_error(&mut r)?,
        },
        KIND_STATS => Frame::Stats(StatsFrame {
            submitted: r.take_u64()?,
            completed: r.take_u64()?,
            failed: r.take_u64()?,
            cancelled: r.take_u64()?,
            panicked: r.take_u64()?,
            cache_hits: r.take_u64()?,
            cache_misses: r.take_u64()?,
            coalesced_jobs: r.take_u64()?,
            queued: r.take_u32()?,
            running: r.take_u32()?,
            worker_sessions: r.take_u32()?,
            queue_wait_total_us: r.take_u64()?,
            queue_wait_max_us: r.take_u64()?,
            run_wall_total_us: r.take_u64()?,
            run_wall_max_us: r.take_u64()?,
            wait_p50_us: r.take_opt_u64()?,
            wait_p99_us: r.take_opt_u64()?,
            wall_p50_us: r.take_opt_u64()?,
            wall_p99_us: r.take_opt_u64()?,
        }),
        KIND_CANCEL => Frame::Cancel { job: r.take_u64()? },
        KIND_MUTATE => {
            let declared = r.take_u32()?;
            // Every op costs at least its tag byte.
            let count = r.checked_count(declared, 1)?;
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                let op = match r.take_u8()? {
                    0 => WireMutationOp::AddVertex,
                    1 => WireMutationOp::AddEdge {
                        src: r.take_u32()?,
                        dst: r.take_u32()?,
                        attr: r.take_f64()?,
                    },
                    2 => WireMutationOp::RemoveEdge {
                        edge: r.take_u64()?,
                    },
                    3 => WireMutationOp::DetachVertex {
                        vertex: r.take_u32()?,
                    },
                    _ => return Err(WireError::BadPayload("unknown mutation-op tag")),
                };
                ops.push(op);
            }
            Frame::Mutate { ops }
        }
        KIND_MUTATED => Frame::Mutated {
            version: r.take_u64()?,
            num_vertices: r.take_u64()?,
            num_edges: r.take_u64()?,
        },
        _ => return Err(WireError::UnknownKind(kind)),
    };
    if r.remaining() != 0 {
        return Err(WireError::BadPayload("trailing bytes in payload"));
    }
    Ok(frame)
}

fn check_header(buf: &[u8]) -> Result<(), WireError> {
    if buf[0..2] != WIRE_MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    let version = u16::from_le_bytes(buf[2..4].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            expected: WIRE_VERSION,
        });
    }
    let len = u32::from_le_bytes(buf[5..9].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok(())
}

/// Decodes one frame from the front of `buf`, returning it together with the
/// number of bytes consumed (so several frames can be drained from one
/// buffer).  Decoding is strict: trailing bytes inside the declared payload
/// are rejected, making silent cross-version skew impossible.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    check_header(buf)?;
    let kind = buf[4];
    let len = u32::from_le_bytes(buf[5..9].try_into().unwrap()) as usize;
    if buf.len() < HEADER_LEN + len {
        return Err(WireError::Truncated);
    }
    let frame = decode_payload(kind, &buf[HEADER_LEN..HEADER_LEN + len])?;
    Ok((frame, HEADER_LEN + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode(&frame);
        let (decoded, consumed) = decode(&bytes).expect("decode");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Submit {
            spec: JobSpec::new("sssp")
                .with_ids("sources", vec![0, 7, 42])
                .with_u64("budget", 9)
                .with_f64("epsilon", 1e-9),
            options: WireJobOptions {
                priority: 0,
                cache: 2,
                max_iterations: Some(64),
                config: Some(WireConfig {
                    pipeline: WirePipeline::FixedBlockSize(512),
                    caching: true,
                    lazy_upload: false,
                    skipping: true,
                    cache_capacity_fraction: 0.25,
                    serial: true,
                }),
            },
        });
        roundtrip(Frame::Accepted { job: u64::MAX });
        roundtrip(Frame::State {
            job: 3,
            state: JobState::Running,
        });
        roundtrip(Frame::Result(JobResultFrame {
            job: 17,
            algorithm: "pagerank".into(),
            converged: true,
            iterations: 20,
            sim_time_us: 1_234_567,
            values: vec![0.15, f64::INFINITY, -0.0, f64::MIN_POSITIVE],
        }));
        roundtrip(Frame::Error {
            job: Some(5),
            error: ServerError::QuotaExceeded {
                tenant: "acme".into(),
                in_flight: 4,
                limit: 4,
            },
        });
        roundtrip(Frame::Stats(StatsFrame {
            submitted: 10,
            completed: 8,
            wait_p50_us: Some(120),
            wall_p99_us: None,
            ..StatsFrame::default()
        }));
        roundtrip(Frame::Cancel { job: 8 });
        roundtrip(Frame::Mutate { ops: Vec::new() });
        roundtrip(Frame::Mutate {
            ops: vec![
                WireMutationOp::AddVertex,
                WireMutationOp::AddEdge {
                    src: 7,
                    dst: u32::MAX,
                    attr: -0.5,
                },
                WireMutationOp::RemoveEdge { edge: u64::MAX },
                WireMutationOp::DetachVertex { vertex: 3 },
            ],
        });
        roundtrip(Frame::Mutated {
            version: 3,
            num_vertices: 1 << 40,
            num_edges: u64::MAX,
        });
    }

    #[test]
    fn unknown_mutation_op_tag_is_rejected() {
        let mut bytes = encode(&Frame::Mutate {
            ops: vec![WireMutationOp::AddVertex],
        });
        *bytes.last_mut().unwrap() = 4;
        assert_eq!(
            decode(&bytes),
            Err(WireError::BadPayload("unknown mutation-op tag"))
        );
    }

    #[test]
    fn a_hostile_mutation_count_cannot_drive_a_huge_allocation() {
        // A Mutate frame declaring u32::MAX ops in a 4-byte payload must fail
        // on the count check, not attempt a multi-gigabyte Vec.
        let mut bytes = encode(&Frame::Mutate { ops: Vec::new() });
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn nan_payloads_survive_bit_identically() {
        // NaN != NaN, so the PartialEq round-trip above cannot cover it; the
        // bit pattern must still travel unchanged.
        let quiet = f64::NAN;
        let signalling = f64::from_bits(0x7ff0_0000_0000_0001);
        let frame = Frame::Result(JobResultFrame {
            job: 1,
            algorithm: "x".into(),
            converged: false,
            iterations: 0,
            sim_time_us: 0,
            values: vec![quiet, signalling],
        });
        let (decoded, _) = decode(&encode(&frame)).unwrap();
        match decoded {
            Frame::Result(result) => {
                assert_eq!(result.values[0].to_bits(), quiet.to_bits());
                assert_eq!(result.values[1].to_bits(), signalling.to_bits());
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn every_error_variant_round_trips() {
        let variants = [
            ServerError::Unauthorized,
            ServerError::QuotaExceeded {
                tenant: "t".into(),
                in_flight: 1,
                limit: 1,
            },
            ServerError::QueueFull,
            ServerError::ShutDown,
            ServerError::NotFound,
            ServerError::BadRequest("no body".into()),
            ServerError::UnknownAlgorithm("bfs".into()),
            ServerError::Cancelled,
            ServerError::JobPanicked,
            ServerError::JobFailed("device lost".into()),
            ServerError::Lost,
            ServerError::Protocol("unmasked client frame".into()),
        ];
        for error in variants {
            roundtrip(Frame::Error { job: None, error });
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&Frame::Accepted { job: 1 });
        bytes[0] = b'Z';
        assert_eq!(decode(&bytes), Err(WireError::BadMagic([b'Z', b'X'])));
    }

    #[test]
    fn version_mismatch_is_rejected_before_the_payload_is_touched() {
        let mut bytes = encode(&Frame::Accepted { job: 1 });
        bytes[2..4].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(WireError::VersionMismatch {
                got: WIRE_VERSION + 1,
                expected: WIRE_VERSION,
            })
        );
        // The header alone is enough: the version is checked before the
        // missing payload is noticed.
        assert_eq!(
            decode(&bytes[..HEADER_LEN]),
            Err(WireError::VersionMismatch {
                got: WIRE_VERSION + 1,
                expected: WIRE_VERSION,
            })
        );
    }

    #[test]
    fn unknown_kind_and_oversized_payload_are_rejected() {
        let mut bytes = encode(&Frame::Accepted { job: 1 });
        bytes[4] = 200;
        assert_eq!(decode(&bytes), Err(WireError::UnknownKind(200)));

        let mut bytes = encode(&Frame::Accepted { job: 1 });
        bytes[5..9].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Oversized(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected() {
        let bytes = encode(&Frame::Submit {
            spec: JobSpec::new("pagerank").with_f64("damping", 0.85),
            options: WireJobOptions::default(),
        });
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]),
                Err(WireError::Truncated),
                "prefix of {cut} bytes must read as truncated"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = encode(&Frame::Cancel { job: 1 });
        // Declare one extra payload byte and append it: a lenient decoder
        // would silently ignore it; ours must refuse.
        let len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) + 1;
        bytes[5..9].copy_from_slice(&len.to_le_bytes());
        bytes.push(0xAB);
        assert_eq!(
            decode(&bytes),
            Err(WireError::BadPayload("trailing bytes in payload"))
        );
    }

    #[test]
    fn a_hostile_count_cannot_drive_a_huge_allocation() {
        // A Result frame declaring u32::MAX values in an 8-byte payload must
        // fail on the count check, not attempt a 32 GiB Vec.
        let mut bytes = encode(&Frame::Result(JobResultFrame {
            job: 0,
            algorithm: String::new(),
            converged: false,
            iterations: 0,
            sim_time_us: 0,
            values: vec![],
        }));
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn decode_reports_the_bytes_it_consumed() {
        let bytes = encode(&Frame::State {
            job: 9,
            state: JobState::Done,
        });
        // Two frames back to back: decode reports how much it consumed.
        let mut two = bytes.clone();
        two.extend_from_slice(&encode(&Frame::Cancel { job: 9 }));
        let (first, consumed) = decode(&two).unwrap();
        assert_eq!(consumed, bytes.len());
        assert!(matches!(first, Frame::State { job: 9, .. }));
        let (second, _) = decode(&two[consumed..]).unwrap();
        assert_eq!(second, Frame::Cancel { job: 9 });
    }

    #[test]
    fn job_spec_param_lookups_find_by_name_and_type() {
        let spec = JobSpec::new("sssp")
            .with_ids("sources", vec![3, 1])
            .with_u64("cap", 100)
            .with_f64("damping", 0.85);
        assert_eq!(spec.ids_param("sources"), Some(&[3, 1][..]));
        assert_eq!(spec.u64_param("cap"), Some(100));
        assert_eq!(spec.f64_param("damping"), Some(0.85));
        // Wrong type or missing name both come back None.
        assert_eq!(spec.u64_param("sources"), None);
        assert_eq!(spec.f64_param("absent"), None);
    }

    #[test]
    fn job_state_codes_are_stable_and_terminality_is_correct() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_code(state.code()), Some(state));
        }
        assert_eq!(JobState::from_code(5), None);
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
