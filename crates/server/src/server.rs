//! The serving front end: accept loop, HTTP routing, the job table, quota
//! enforcement and the WebSocket streaming loop.
//!
//! Architecture: a fixed pool of handler threads, each calling `accept` on
//! its own clone of the listener and checking the stop flag before and
//! after every `accept`.  A handler owns its connection for the
//! connection's lifetime (HTTP keep-alive or a WebSocket session) — the
//! same thread-per-conversation shape the middleware's daemons use, so no
//! async runtime is needed.  A connection's reads time out every
//! `POLL_INTERVAL` so an idle handler can poll the stop flag; once a
//! request or message has its first byte, the handler reads on until it is
//! complete (see `ConnReader`).
//!
//! Every submission is tenant-checked *before* it reaches the service: the
//! quota sweep runs under the job-table lock, so two racing submissions from
//! one tenant cannot both slip under the cap, and an over-quota tenant is
//! answered with a typed 429 without ever claiming a queue slot another
//! tenant could use.

use crate::auth::{bearer_token, Tenant, TenantRegistry};
use crate::http::{read_request, status_of, Request, RequestError, Response, FRAME_CONTENT_TYPE};
use crate::metrics::{self, TenantCounters};
use crate::model::{job_options, AlgorithmRegistry};
use crate::ws::{self, WsError, WsMessage};
use gxplug_core::{GraphService, JobStatus, JobTicket, ServiceError, StatsSnapshot};
use gxplug_graph::mutate::MutationBatch;
use gxplug_graph::types::EdgeId;
use gxplug_ipc::wire::{
    self, Frame, JobResultFrame, JobSpec, JobState, ServerError, StatsFrame, WireJobOptions,
    WireMutationOp,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a handler blocks on an idle socket before re-checking the stop
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Idle keep-alive budget: a connection with no request for this long is
/// closed so its handler can serve someone else.  A request or message
/// split across reads gets the same budget to complete.
const KEEP_ALIVE: Duration = Duration::from_secs(5);

/// WebSocket heartbeat interval.
const PING_EVERY: Duration = Duration::from_secs(5);

/// Resolved job entries retained for late polling before the oldest are
/// evicted.
const MAX_JOB_ENTRIES: usize = 1024;

/// Tunables of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Handler threads — the number of connections served concurrently.
    pub handler_threads: usize,
    /// The service's queue depth, mirrored here so tenant queue shares can
    /// be turned into absolute allowances.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            handler_threads: 4,
            queue_depth: 32,
        }
    }
}

/// Poison-tolerant lock (house idiom: a panicking holder must not wedge
/// every other thread).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A submitted job the server still remembers.
struct JobEntry<V: 'static> {
    tenant: String,
    algorithm: String,
    state: EntryState<V>,
}

enum EntryState<V: 'static> {
    /// The ticket is live; the extractor flattens its outcome when it lands.
    Pending {
        ticket: JobTicket<V>,
        extract: crate::model::Extractor<V>,
    },
    /// Terminal: the frame every further poll re-serves.
    Done(Frame),
}

/// The id-ordered job table (ids are monotonic, so ascending order is
/// submission order and eviction can walk from the oldest end).
struct JobTable<V: 'static> {
    entries: BTreeMap<u64, JobEntry<V>>,
}

impl<V> JobTable<V> {
    fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The tenant's `(in_flight, queued)` load: jobs queued or running count
    /// against `max_in_flight`, queued ones also against the queue share.
    fn tenant_load(&self, tenant: &str) -> (usize, usize) {
        let mut in_flight = 0;
        let mut queued = 0;
        for entry in self.entries.values() {
            if entry.tenant != tenant {
                continue;
            }
            if let EntryState::Pending { ticket, .. } = &entry.state {
                match ticket.status() {
                    JobStatus::Queued => {
                        queued += 1;
                        in_flight += 1;
                    }
                    JobStatus::Running => in_flight += 1,
                    JobStatus::Finished | JobStatus::Cancelled => {}
                }
            }
        }
        (in_flight, queued)
    }

    /// Drops the oldest *resolved* entries once the table outgrows its cap.
    /// Pending entries are never evicted — their tickets are the only handle
    /// on unfinished work.
    fn evict(&mut self) {
        if self.entries.len() <= MAX_JOB_ENTRIES {
            return;
        }
        let excess = self.entries.len() - MAX_JOB_ENTRIES;
        let victims: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, entry)| matches!(entry.state, EntryState::Done(_)))
            .map(|(&id, _)| id)
            .take(excess)
            .collect();
        for id in victims {
            self.entries.remove(&id);
        }
    }
}

/// State shared by the handlers and the owning [`Server`].
struct Shared<V: 'static, E: 'static> {
    service: GraphService<V, E>,
    registry: AlgorithmRegistry<V, E>,
    tenants: TenantRegistry,
    queue_depth: usize,
    stop: AtomicBool,
    jobs: Mutex<JobTable<V>>,
    counters: Mutex<HashMap<String, TenantCounters>>,
}

/// A running serving front end.  Dropping (or [`Server::shutdown`]) stops
/// and joins every handler; the wrapped service shuts down when the server
/// is dropped.
pub struct Server<V: 'static, E: 'static> {
    shared: Arc<Shared<V, E>>,
    addr: SocketAddr,
    handlers: Vec<JoinHandle<()>>,
}

impl<V, E> Server<V, E>
where
    V: Clone + Default + PartialEq + Send + Sync + 'static,
    E: Clone + From<f64> + Send + Sync + 'static,
{
    /// Binds the listener and starts the handler threads, each accepting
    /// connections on its own clone of the listener.
    ///
    /// `config.queue_depth` should mirror the queue depth the service was
    /// built with — it is the denominator of every tenant's queue share.
    pub fn serve(
        service: GraphService<V, E>,
        registry: AlgorithmRegistry<V, E>,
        tenants: TenantRegistry,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            registry,
            tenants,
            queue_depth: config.queue_depth.max(1),
            stop: AtomicBool::new(false),
            jobs: Mutex::new(JobTable::new()),
            counters: Mutex::new(HashMap::new()),
        });

        // Every clone first: a failed clone must not leave handlers behind.
        let listeners = (0..config.handler_threads.max(1))
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;
        let handlers = listeners
            .into_iter()
            .map(|listener| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    while !shared.stop.load(Ordering::Acquire) {
                        let Ok((stream, _)) = listener.accept() else {
                            continue;
                        };
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        handle_connection(&shared, stream);
                    }
                })
            })
            .collect();

        Ok(Self {
            shared,
            addr,
            handlers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped service — for in-process submission next to the socket
    /// path (the determinism tests submit to both and compare bits).
    pub fn service(&self) -> &GraphService<V, E> {
        &self.shared.service
    }

    /// A lock-consistent service snapshot (what `/metrics` renders).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.service.stats_snapshot()
    }

    /// Stops accepting, drains the handlers and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }
}

impl<V, E> Server<V, E> {
    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // An idle handler parks inside `accept()`; one throwaway connection
        // per handler wakes each of them to observe the flag.
        for _ in &self.handlers {
            let _ = TcpStream::connect(self.addr);
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl<V, E> Drop for Server<V, E> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Maps a service-side failure onto the wire error vocabulary.
fn map_service_error(error: ServiceError) -> ServerError {
    match error {
        ServiceError::QueueFull => ServerError::QueueFull,
        ServiceError::ShutDown => ServerError::ShutDown,
        ServiceError::Cancelled => ServerError::Cancelled,
        ServiceError::JobPanicked => ServerError::JobPanicked,
        ServiceError::Session(error) => ServerError::JobFailed(error.to_string()),
        ServiceError::Lost => ServerError::Lost,
    }
}

/// Maps a snapshot onto the wire stats frame.
fn stats_frame(snapshot: &StatsSnapshot) -> StatsFrame {
    let us = |duration: Duration| duration.as_micros() as u64;
    StatsFrame {
        submitted: snapshot.submitted,
        completed: snapshot.completed,
        failed: snapshot.failed,
        cancelled: snapshot.cancelled,
        panicked: snapshot.panicked,
        cache_hits: snapshot.cache_hits,
        cache_misses: snapshot.cache_misses,
        coalesced_jobs: snapshot.coalesced_jobs,
        queued: snapshot.queued as u32,
        running: snapshot.running as u32,
        worker_sessions: snapshot.worker_sessions as u32,
        queue_wait_total_us: us(snapshot.queue_wait_total),
        queue_wait_max_us: us(snapshot.queue_wait_max),
        run_wall_total_us: us(snapshot.run_wall_total),
        run_wall_max_us: us(snapshot.run_wall_max),
        wait_p50_us: snapshot.wait_p50.map(us),
        wait_p99_us: snapshot.wait_p99.map(us),
        wall_p50_us: snapshot.wall_p50.map(us),
        wall_p99_us: snapshot.wall_p99.map(us),
    }
}

/// Validates quota, submits and records the job.  Returns the job id.
fn submit_job<V, E>(
    shared: &Shared<V, E>,
    tenant: &Tenant,
    spec: &JobSpec,
    wire_options: &WireJobOptions,
) -> Result<u64, ServerError>
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    let prepared = shared.registry.prepare(spec)?;
    let mut options = job_options(wire_options)?;
    options.priority = tenant.effective_priority(options.priority);

    // Quota sweep and submission under one job-table lock: two racing
    // submissions from the same tenant serialise here, so the cap holds.
    let mut jobs = lock(&shared.jobs);
    let (in_flight, queued) = jobs.tenant_load(&tenant.name);
    let quota_error = if in_flight >= tenant.quota.max_in_flight {
        Some(ServerError::QuotaExceeded {
            tenant: tenant.name.clone(),
            in_flight: in_flight as u32,
            limit: tenant.quota.max_in_flight as u32,
        })
    } else if queued >= tenant.quota.queue_allowance(shared.queue_depth) {
        Some(ServerError::QuotaExceeded {
            tenant: tenant.name.clone(),
            in_flight: queued as u32,
            limit: tenant.quota.queue_allowance(shared.queue_depth) as u32,
        })
    } else {
        None
    };
    if let Some(error) = quota_error {
        drop(jobs);
        lock(&shared.counters)
            .entry(tenant.name.clone())
            .or_default()
            .rejected += 1;
        return Err(error);
    }

    let (ticket, extract) = prepared
        .submit(&shared.service, options)
        .map_err(map_service_error)?;
    let id = ticket.id();
    jobs.entries.insert(
        id,
        JobEntry {
            tenant: tenant.name.clone(),
            algorithm: spec.algorithm.clone(),
            state: EntryState::Pending { ticket, extract },
        },
    );
    jobs.evict();
    drop(jobs);

    lock(&shared.counters)
        .entry(tenant.name.clone())
        .or_default()
        .submitted += 1;
    Ok(id)
}

/// Polls one job on behalf of `tenant`: resolves a landed result into its
/// terminal frame (stored for re-polling), otherwise reports current state.
/// A job another tenant submitted is indistinguishable from a missing one.
fn poll_job<V>(table: &mut JobTable<V>, job: u64, tenant: &str) -> Result<Frame, ServerError> {
    let entry = table.entries.get_mut(&job).ok_or(ServerError::NotFound)?;
    if entry.tenant != tenant {
        return Err(ServerError::NotFound);
    }
    let (ticket, extract) = match &entry.state {
        EntryState::Done(frame) => return Ok(frame.clone()),
        EntryState::Pending { ticket, extract } => (ticket, Arc::clone(extract)),
    };
    match ticket.try_result() {
        None => {
            let state = match ticket.status() {
                JobStatus::Queued => JobState::Queued,
                // `Finished` with the result still in flight is a
                // micro-race; report Running so Done always comes with its
                // result frame.
                JobStatus::Running | JobStatus::Finished => JobState::Running,
                JobStatus::Cancelled => JobState::Cancelled,
            };
            Ok(Frame::State { job, state })
        }
        Some(Ok(outcome)) => {
            let frame = Frame::Result(JobResultFrame {
                job,
                algorithm: entry.algorithm.clone(),
                converged: outcome.report.converged,
                iterations: outcome.report.num_iterations() as u32,
                sim_time_us: (outcome.report.total_time().as_millis() * 1000.0) as u64,
                values: extract(&outcome.values),
            });
            entry.state = EntryState::Done(frame.clone());
            Ok(frame)
        }
        Some(Err(error)) => {
            let frame = Frame::Error {
                job: Some(job),
                error: map_service_error(error),
            };
            entry.state = EntryState::Done(frame.clone());
            Ok(frame)
        }
    }
}

/// A connection's read half.  A read that times out before the first byte
/// of a request or WebSocket message surfaces as a timeout, so an idle
/// handler can poll its stop flag.  After that first byte, a timeout is
/// retried until the request or message is complete, with the stop flag
/// checked between reads; the reader gives up [`KEEP_ALIVE`] after the read
/// that followed the first byte, so a client that trickles bytes cannot
/// hold a handler forever.  A request that arrives in one read costs no
/// more than a bare stream read.
struct ConnReader<'a> {
    stream: TcpStream,
    stop: &'a AtomicBool,
    /// Whether the current request or message has its first byte.
    started: bool,
    /// When a split request or message is given up.
    deadline: Option<Instant>,
}

impl ConnReader<'_> {
    /// Readies `reader` for the next request or message, which has started
    /// already if its first bytes are buffered.
    fn next_message(reader: &mut BufReader<Self>) {
        let started = !reader.buffer().is_empty();
        let conn = reader.get_mut();
        conn.started = started;
        conn.deadline = None;
    }
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.started {
            let read = self.stream.read(buf)?;
            self.started = read > 0;
            return Ok(read);
        }
        let deadline = *self
            .deadline
            .get_or_insert_with(|| Instant::now() + KEEP_ALIVE);
        loop {
            if self.stop.load(Ordering::Acquire) || Instant::now() >= deadline {
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                result => return result,
            }
        }
    }
}

/// Serves one accepted connection until it closes, upgrades, idles out or
/// the server stops.
fn handle_connection<V, E>(shared: &Arc<Shared<V, E>>, stream: TcpStream)
where
    V: Clone + Default + PartialEq + Send + Sync + 'static,
    E: Clone + From<f64> + Send + Sync + 'static,
{
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let reader_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(ConnReader {
        stream: reader_stream,
        stop: &shared.stop,
        started: false,
        deadline: None,
    });
    let mut writer = stream;
    let mut idle_deadline = Instant::now() + KEEP_ALIVE;

    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        ConnReader::next_message(&mut reader);
        match read_request(&mut reader) {
            Ok(request) => {
                if request.path == "/v1/stream" && is_upgrade(&request) {
                    serve_websocket(shared, &request, reader, writer);
                    return;
                }
                let keep_alive = request.keep_alive();
                let response = route(shared, &request);
                if response.write_to(&mut writer).is_err() || !keep_alive {
                    return;
                }
                idle_deadline = Instant::now() + KEEP_ALIVE;
            }
            Err(RequestError::TimedOut) => {
                if Instant::now() >= idle_deadline {
                    return;
                }
            }
            Err(RequestError::ConnectionClosed) | Err(RequestError::Io(_)) => return,
            Err(RequestError::BodyTooLarge) => {
                let _ = error_response(
                    true,
                    ServerError::BadRequest("request body too large".into()),
                )
                .write_to(&mut writer);
                return;
            }
            Err(RequestError::Malformed(reason)) => {
                let _ = error_response(true, ServerError::Protocol(reason.to_string()))
                    .write_to(&mut writer);
                return;
            }
        }
    }
}

/// `true` when the request asks for a WebSocket upgrade.
fn is_upgrade(request: &Request) -> bool {
    request
        .header("upgrade")
        .is_some_and(|u| u.eq_ignore_ascii_case("websocket"))
}

/// Routes one plain-HTTP request.
fn route<V, E>(shared: &Shared<V, E>, request: &Request) -> Response
where
    V: Clone + Default + PartialEq + Send + Sync + 'static,
    E: Clone + From<f64> + Send + Sync + 'static,
{
    // /metrics is unauthenticated by design: scrapers hold no tenant
    // identity, and the exposition carries no tenant-submitted data beyond
    // names.
    if request.path == "/metrics" {
        if request.method != "GET" {
            return method_not_allowed(request);
        }
        return Response::text(200, render_metrics(shared));
    }

    let tenant = match authenticate(shared, request) {
        Ok(tenant) => tenant,
        Err(error) => return error_response(request.wants_text(), error),
    };
    let wants_text = request.wants_text();

    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => match parse_submission(request) {
            Ok((spec, options)) => match submit_job(shared, &tenant, &spec, &options) {
                Ok(job) => frame_response(wants_text, 202, &Frame::Accepted { job }),
                Err(error) => error_response(wants_text, error),
            },
            Err(error) => error_response(wants_text, error),
        },
        ("POST", "/v1/graph/mutations") => apply_graph_mutation(shared, request, wants_text),
        ("GET", "/v1/stats") => {
            if wants_text {
                Response::text(200, render_metrics(shared))
            } else {
                let frame = Frame::Stats(stats_frame(&shared.service.stats_snapshot()));
                Response::frame(200, wire::encode(&frame))
            }
        }
        ("GET", "/v1/stream") => {
            // Reachable only without upgrade headers.
            Response::text(
                426,
                "this endpoint speaks WebSocket; send an Upgrade request\n",
            )
        }
        (method, path) => {
            if let Some(job) = path
                .strip_prefix("/v1/jobs/")
                .and_then(|id| id.parse::<u64>().ok())
            {
                match method {
                    "GET" => {
                        let polled = poll_job(&mut lock(&shared.jobs), job, &tenant.name);
                        match polled {
                            Ok(frame) => frame_response(wants_text, poll_status(&frame), &frame),
                            Err(error) => error_response(wants_text, error),
                        }
                    }
                    "DELETE" => cancel_job(shared, job, &tenant, wants_text),
                    _ => method_not_allowed(request),
                }
            } else if path.starts_with("/v1/jobs/") {
                error_response(
                    wants_text,
                    ServerError::BadRequest("job ids are integers".into()),
                )
            } else {
                error_response(wants_text, ServerError::NotFound)
            }
        }
    }
}

/// POST /v1/graph/mutations: decodes a [`Frame::Mutate`] body, applies the
/// batch to the served graph through the service's mutation log (which
/// version-gates the result cache and re-deploys the delta to every worker
/// session), and answers with the committed log version and graph shape.
///
/// Mutations are binary-only: the wire frame is the validated, replayable
/// unit the whole mutation subsystem is built around, so there is no
/// curl-text form to drift from it.  Added and detached vertices take the
/// serving model's default attribute (`V: Default`); edge weights travel as
/// the one `f64` the wire op carries (`E: From<f64>`).
fn apply_graph_mutation<V, E>(
    shared: &Shared<V, E>,
    request: &Request,
    wants_text: bool,
) -> Response
where
    V: Clone + Default + PartialEq + Send + Sync + 'static,
    E: Clone + From<f64> + Send + Sync + 'static,
{
    if !request
        .header("content-type")
        .is_some_and(|t| t.starts_with(FRAME_CONTENT_TYPE))
    {
        return error_response(
            wants_text,
            ServerError::BadRequest("mutations are submitted as a binary Mutate frame".into()),
        );
    }
    let ops = match wire::decode(&request.body) {
        Ok((Frame::Mutate { ops }, _)) => ops,
        Ok(_) => {
            return error_response(
                wants_text,
                ServerError::Protocol("body must be a Mutate frame".into()),
            )
        }
        Err(error) => return error_response(wants_text, ServerError::Protocol(error.to_string())),
    };
    if ops.is_empty() {
        return error_response(
            wants_text,
            ServerError::BadRequest("a mutation batch needs at least one op".into()),
        );
    }
    let mut batch = MutationBatch::new();
    for op in ops {
        batch = match op {
            WireMutationOp::AddVertex => batch.add_vertex(V::default()),
            WireMutationOp::AddEdge { src, dst, attr } => batch.add_edge(src, dst, E::from(attr)),
            WireMutationOp::RemoveEdge { edge } => batch.remove_edge(edge as EdgeId),
            WireMutationOp::DetachVertex { vertex } => batch.detach_vertex(vertex, V::default()),
        };
    }
    match shared.service.apply_mutations(&batch) {
        Ok(delta) => frame_response(
            wants_text,
            200,
            &Frame::Mutated {
                version: delta.version,
                num_vertices: delta.num_vertices() as u64,
                num_edges: delta.num_edges() as u64,
            },
        ),
        Err(error) => error_response(wants_text, ServerError::BadRequest(error.to_string())),
    }
}

/// The HTTP status a polled frame travels under.
fn poll_status(frame: &Frame) -> u16 {
    match frame {
        Frame::Error { error, .. } => status_of(error),
        _ => 200,
    }
}

/// DELETE /v1/jobs/{id}: requests cancellation, then reports the job's
/// (possibly already-terminal) state.  A successful cancellation answers
/// 200 — the client got what it asked for — even though late polls of the
/// same job see the stored 409 Cancelled error.
fn cancel_job<V, E>(shared: &Shared<V, E>, job: u64, tenant: &Tenant, wants_text: bool) -> Response
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    let mut jobs = lock(&shared.jobs);
    match jobs.entries.get(&job) {
        Some(entry) if entry.tenant == tenant.name => {
            if let EntryState::Pending { ticket, .. } = &entry.state {
                ticket.cancel();
            }
        }
        _ => return error_response(wants_text, ServerError::NotFound),
    }
    match poll_job(&mut jobs, job, &tenant.name) {
        Ok(frame) => {
            let status = match &frame {
                Frame::Error {
                    error: ServerError::Cancelled,
                    ..
                } => 200,
                other => poll_status(other),
            };
            frame_response(wants_text, status, &frame)
        }
        Err(error) => error_response(wants_text, error),
    }
}

/// Resolves the request's bearer token to a tenant.
fn authenticate<V, E>(shared: &Shared<V, E>, request: &Request) -> Result<Tenant, ServerError> {
    request
        .header("authorization")
        .and_then(bearer_token)
        .and_then(|token| shared.tenants.authenticate(token))
        .cloned()
        .ok_or(ServerError::Unauthorized)
}

/// Parses a submission body — binary wire frame or the curl-friendly text
/// form, switched on Content-Type.
fn parse_submission(request: &Request) -> Result<(JobSpec, WireJobOptions), ServerError> {
    if request
        .header("content-type")
        .is_some_and(|t| t.starts_with(FRAME_CONTENT_TYPE))
    {
        let (frame, _) = wire::decode(&request.body)
            .map_err(|error| ServerError::Protocol(error.to_string()))?;
        match frame {
            Frame::Submit { spec, options } => Ok((spec, options)),
            _ => Err(ServerError::Protocol("body must be a Submit frame".into())),
        }
    } else {
        let body = std::str::from_utf8(&request.body)
            .map_err(|_| ServerError::BadRequest("text submission must be UTF-8".into()))?;
        crate::model::parse_text_submission(body)
    }
}

/// Renders the `/metrics` exposition.
fn render_metrics<V, E>(shared: &Shared<V, E>) -> String
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    let snapshot = shared.service.stats_snapshot();
    let jobs = lock(&shared.jobs);
    let counters = lock(&shared.counters);
    let mut tenants = BTreeMap::new();
    for tenant in shared.tenants.tenants() {
        let mut tenant_counters = counters.get(&tenant.name).copied().unwrap_or_default();
        tenant_counters.in_flight = jobs.tenant_load(&tenant.name).0 as u64;
        tenants.insert(tenant.name.clone(), (tenant.clone(), tenant_counters));
    }
    drop(counters);
    drop(jobs);
    metrics::render(&snapshot, &tenants)
}

/// An error as a response, in the representation the client asked for.
fn error_response(wants_text: bool, error: ServerError) -> Response {
    let status = status_of(&error);
    if wants_text {
        Response::text(status, format!("error: {error}\n"))
    } else {
        Response::frame(status, wire::encode(&Frame::Error { job: None, error }))
    }
}

/// A frame as a response, binary or rendered as text.
fn frame_response(wants_text: bool, status: u16, frame: &Frame) -> Response {
    if !wants_text {
        return Response::frame(status, wire::encode(frame));
    }
    let text = match frame {
        Frame::Accepted { job } => format!("job {job} accepted\n"),
        Frame::State { job, state } => format!("job {job} {state}\n"),
        Frame::Result(result) => {
            let mut text = format!(
                "job {} {} converged={} iterations={}\nvalues:",
                result.job, result.algorithm, result.converged, result.iterations
            );
            for value in &result.values {
                text.push(' ');
                text.push_str(&value.to_string());
            }
            text.push('\n');
            text
        }
        Frame::Error { error, .. } => format!("error: {error}\n"),
        Frame::Mutated {
            version,
            num_vertices,
            num_edges,
        } => format!(
            "graph mutated to version {version}: {num_vertices} vertices, {num_edges} edges\n"
        ),
        other => format!("{other:?}\n"),
    };
    Response::text(status, text)
}

/// 405 with the frame/text duality preserved.
fn method_not_allowed(request: &Request) -> Response {
    if request.wants_text() {
        Response::text(405, "method not allowed\n")
    } else {
        Response::frame(
            405,
            wire::encode(&Frame::Error {
                job: None,
                error: ServerError::BadRequest("method not allowed".into()),
            }),
        )
    }
}

/// The WebSocket session: handshake, then a duplex loop that accepts
/// Submit/Cancel frames and pushes every watched job's state transitions
/// (queued → running → done/failed/cancelled) followed by its terminal
/// Result or Error frame.
fn serve_websocket<V, E>(
    shared: &Arc<Shared<V, E>>,
    request: &Request,
    mut reader: BufReader<ConnReader<'_>>,
    mut writer: TcpStream,
) where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    let tenant = match authenticate(shared, request) {
        Ok(tenant) => tenant,
        Err(error) => {
            let _ = error_response(true, error).write_to(&mut writer);
            return;
        }
    };
    let Some(key) = request.header("sec-websocket-key") else {
        let _ = error_response(
            true,
            ServerError::Protocol("missing Sec-WebSocket-Key".into()),
        )
        .write_to(&mut writer);
        return;
    };
    let handshake = format!(
        "HTTP/1.1 101 Switching Protocols\r\n\
         Upgrade: websocket\r\n\
         Connection: Upgrade\r\n\
         Sec-WebSocket-Accept: {}\r\n\r\n",
        ws::accept_key(key)
    );
    if writer.write_all(handshake.as_bytes()).is_err() {
        return;
    }

    // (job id, last state the client was told about)
    let mut watched: Vec<(u64, JobState)> = Vec::new();
    let mut next_ping = Instant::now() + PING_EVERY;

    loop {
        if shared.stop.load(Ordering::Acquire) {
            let _ = ws::write_close(&mut writer, 1001);
            return;
        }
        ConnReader::next_message(&mut reader);
        match ws::read_message(&mut reader) {
            Ok(WsMessage::Binary(payload)) => {
                let reply = match wire::decode(&payload) {
                    Ok((Frame::Submit { spec, options }, _)) => {
                        match submit_job(shared, &tenant, &spec, &options) {
                            Ok(job) => {
                                watched.push((job, JobState::Queued));
                                vec![
                                    Frame::Accepted { job },
                                    Frame::State {
                                        job,
                                        state: JobState::Queued,
                                    },
                                ]
                            }
                            Err(error) => vec![Frame::Error { job: None, error }],
                        }
                    }
                    Ok((Frame::Cancel { job }, _)) => {
                        let jobs = lock(&shared.jobs);
                        match jobs.entries.get(&job) {
                            Some(entry) if entry.tenant == tenant.name => {
                                if let EntryState::Pending { ticket, .. } = &entry.state {
                                    ticket.cancel();
                                }
                                if !watched.iter().any(|(id, _)| *id == job) {
                                    watched.push((job, JobState::Queued));
                                }
                                Vec::new()
                            }
                            _ => vec![Frame::Error {
                                job: Some(job),
                                error: ServerError::NotFound,
                            }],
                        }
                    }
                    Ok(_) => vec![Frame::Error {
                        job: None,
                        error: ServerError::Protocol("clients send Submit or Cancel".into()),
                    }],
                    Err(error) => vec![Frame::Error {
                        job: None,
                        error: ServerError::Protocol(error.to_string()),
                    }],
                };
                for frame in reply {
                    if ws::write_binary(&mut writer, &wire::encode(&frame)).is_err() {
                        return;
                    }
                }
            }
            Ok(WsMessage::Ping(payload)) => {
                if ws::write_pong(&mut writer, &payload).is_err() {
                    return;
                }
            }
            Ok(WsMessage::Pong(_)) => {}
            Ok(WsMessage::Close) => {
                let _ = ws::write_close(&mut writer, 1000);
                return;
            }
            Err(WsError::Io(error))
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }

        if push_transitions(shared, &tenant, &mut watched, &mut writer).is_err() {
            return;
        }

        if Instant::now() >= next_ping {
            if ws::write_ping(&mut writer, b"hb").is_err() {
                return;
            }
            next_ping = Instant::now() + PING_EVERY;
        }
    }
}

/// Pushes state transitions (and terminal frames) for every watched job,
/// dropping jobs that reached a terminal frame.
fn push_transitions<V, E>(
    shared: &Shared<V, E>,
    tenant: &Tenant,
    watched: &mut Vec<(u64, JobState)>,
    writer: &mut TcpStream,
) -> io::Result<()> {
    let mut index = 0;
    while index < watched.len() {
        let (job, last_state) = watched[index];
        let polled = poll_job(&mut lock(&shared.jobs), job, &tenant.name);
        let done;
        match polled {
            Ok(Frame::State { state, .. }) => {
                if state != last_state {
                    ws::write_binary(writer, &wire::encode(&Frame::State { job, state }))?;
                    watched[index].1 = state;
                }
                done = state.is_terminal();
            }
            Ok(frame @ Frame::Result(_)) => {
                if last_state != JobState::Done {
                    ws::write_binary(
                        writer,
                        &wire::encode(&Frame::State {
                            job,
                            state: JobState::Done,
                        }),
                    )?;
                }
                ws::write_binary(writer, &wire::encode(&frame))?;
                done = true;
            }
            Ok(frame @ Frame::Error { .. }) => {
                let state = match &frame {
                    Frame::Error {
                        error: ServerError::Cancelled,
                        ..
                    } => JobState::Cancelled,
                    _ => JobState::Failed,
                };
                if last_state != state {
                    ws::write_binary(writer, &wire::encode(&Frame::State { job, state }))?;
                }
                ws::write_binary(writer, &wire::encode(&frame))?;
                done = true;
            }
            Ok(_) | Err(_) => done = true,
        }
        if done {
            watched.swap_remove(index);
        } else {
            index += 1;
        }
    }
    Ok(())
}
