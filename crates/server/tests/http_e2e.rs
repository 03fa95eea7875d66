//! End-to-end serving tests: a real `Server` on an ephemeral port, driven by
//! raw `TcpStream` clients speaking HTTP/1.1 and RFC 6455 WebSocket frames.
//!
//! The central claim under test is the determinism invariant: a job's `f64`
//! values read over the socket are **bit-identical** to the same algorithm
//! submitted to the same `GraphService` in-process.  Around that: tenant
//! auth, over-quota 429s that leave other tenants untouched, cancellation,
//! the Prometheus exposition, and the WebSocket state stream.

use gxplug_core::{CachePolicy, JobOptions, JobStatus};
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::{Triplet, VertexId};
use gxplug_ipc::wire::{
    self, Frame, JobSpec, JobState, ServerError, WireJobOptions, WireMutationOp,
};
use gxplug_server::{
    metrics, standard_registry, standard_service, ws, ServeRank, ServeReach, ServeVertex, Server,
    ServerConfig, Tenant, TenantQuota, TenantRegistry,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Boots a server over the stock deployment with six handler threads.
fn boot(scale: u32, seed: u64, workers: usize) -> Server<gxplug_server::ServeVertex, f64> {
    boot_with_handlers(scale, seed, workers, 6)
}

/// Boots a server over the stock deployment.
fn boot_with_handlers(
    scale: u32,
    seed: u64,
    workers: usize,
    handler_threads: usize,
) -> Server<gxplug_server::ServeVertex, f64> {
    let queue_depth = 32;
    let service = standard_service(scale, seed, workers, queue_depth);
    let tenants = TenantRegistry::new()
        .register("tok-a", Tenant::new("acme"))
        .register(
            "tok-b",
            Tenant::new("burns").with_quota(TenantQuota {
                max_in_flight: 1,
                queue_share: 0.03,
            }),
        );
    Server::serve(
        service,
        standard_registry(),
        tenants,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            handler_threads,
            queue_depth,
        },
    )
    .expect("bind an ephemeral port")
}

/// One full HTTP exchange on a fresh connection (`Connection: close`).
/// Returns `(status, body)`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    token: Option<&str>,
    content_type: Option<&str>,
    accept_text: bool,
    body: &[u8],
) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n");
    if let Some(token) = token {
        head.push_str(&format!("Authorization: Bearer {token}\r\n"));
    }
    if let Some(content_type) = content_type {
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
    }
    if accept_text {
        head.push_str("Accept: text/plain\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    read_response(&mut stream)
}

/// Reads one response up to the server's close: `(status, body)`.
fn read_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = std::str::from_utf8(&raw[..header_end]).expect("ASCII headers");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, raw[header_end + 4..].to_vec())
}

/// POSTs a binary Submit frame; returns the job id from the Accepted frame,
/// or the error.
fn submit(
    addr: SocketAddr,
    token: &str,
    spec: JobSpec,
    options: WireJobOptions,
) -> Result<u64, (u16, ServerError)> {
    let body = wire::encode(&Frame::Submit { spec, options });
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        Some(token),
        Some("application/x-gxplug-frame"),
        false,
        &body,
    );
    let (frame, _) = wire::decode(&body).expect("response is a frame");
    match frame {
        Frame::Accepted { job } => {
            assert_eq!(status, 202);
            Ok(job)
        }
        Frame::Error { error, .. } => Err((status, error)),
        other => panic!("unexpected response frame {other:?}"),
    }
}

/// Polls a job until its terminal frame (Result or Error) lands.
fn poll_until_terminal(addr: SocketAddr, token: &str, job: u64) -> (u16, Frame) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = request(
            addr,
            "GET",
            &format!("/v1/jobs/{job}"),
            Some(token),
            None,
            false,
            &[],
        );
        let (frame, _) = wire::decode(&body).expect("poll response is a frame");
        match frame {
            Frame::State { .. } => {
                assert!(Instant::now() < deadline, "job {job} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            terminal => return (status, terminal),
        }
    }
}

/// The options every parity run uses: bypass the result cache so both the
/// direct and the socket submission do a full physical run.
fn bypass() -> WireJobOptions {
    WireJobOptions {
        cache: 1,
        ..WireJobOptions::default()
    }
}

#[test]
fn socket_results_are_bit_identical_to_direct_submission() {
    let server = boot(8, 11, 2);
    let addr = server.local_addr();

    // No token / bad token → 401, typed.
    let (status, _) = request(addr, "POST", "/v1/jobs", None, None, false, &[]);
    assert_eq!(status, 401);
    let (status, _) = request(addr, "GET", "/v1/jobs/1", Some("tok-zz"), None, false, &[]);
    assert_eq!(status, 401);

    // PageRank over the socket...
    let spec = JobSpec::new("pagerank")
        .with_f64("damping", 0.85)
        .with_u64("iterations", 20);
    let job = submit(addr, "tok-a", spec, bypass()).expect("accepted");
    let (status, frame) = poll_until_terminal(addr, "tok-a", job);
    assert_eq!(status, 200);
    let Frame::Result(socket_rank) = frame else {
        panic!("expected a result, got {frame:?}")
    };
    assert_eq!(socket_rank.algorithm, "pagerank");
    assert!(socket_rank.iterations > 0);

    // ... and the same algorithm struct, submitted in-process to the same
    // service.
    let direct = server
        .service()
        .submit_with(
            ServeRank {
                damping: 0.85,
                iterations: 20,
            },
            JobOptions::new().with_cache(CachePolicy::Bypass),
        )
        .expect("direct submit")
        .wait()
        .expect("direct run");
    let direct_bits: Vec<u64> = direct.values.iter().map(|v| v.rank.to_bits()).collect();
    let socket_bits: Vec<u64> = socket_rank.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        direct_bits, socket_bits,
        "PageRank bits differ across the socket"
    );

    // Same check for SSSP.
    let spec = JobSpec::new("sssp").with_ids("sources", vec![0, 7]);
    let job = submit(addr, "tok-a", spec, bypass()).expect("accepted");
    let (_, frame) = poll_until_terminal(addr, "tok-a", job);
    let Frame::Result(socket_sssp) = frame else {
        panic!("expected a result, got {frame:?}")
    };
    let direct = server
        .service()
        .submit_with(
            ServeReach {
                sources: vec![0, 7],
            },
            JobOptions::new().with_cache(CachePolicy::Bypass),
        )
        .expect("direct submit")
        .wait()
        .expect("direct run");
    let direct_bits: Vec<u64> = direct.values.iter().map(|v| v.dist.to_bits()).collect();
    let socket_bits: Vec<u64> = socket_sssp.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        direct_bits, socket_bits,
        "SSSP bits differ across the socket"
    );

    // The curl-friendly text form works too.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        Some("tok-a"),
        None,
        true,
        b"algorithm=sssp&sources=0,7&priority=high",
    );
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.starts_with("job ") && text.contains("accepted"),
        "{text}"
    );

    server.shutdown();
}

/// A gate the test holds closed while a [`HeldRank`] occupies the worker.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        let (open, signal) = &*self.0;
        *open.lock().unwrap() = true;
        signal.notify_all();
    }

    fn wait_open(&self) {
        let (open, signal) = &*self.0;
        let mut open = open.lock().unwrap();
        while !*open {
            open = signal.wait(open).unwrap();
        }
    }
}

/// PageRank that blocks on a [`Gate`] before generating its first message,
/// submitted in-process so the one worker is busy for as long as the test
/// needs — however fast the build runs a real job.
struct HeldRank {
    inner: ServeRank,
    gate: Gate,
}

impl GraphAlgorithm<ServeVertex, f64> for HeldRank {
    type Msg = f64;
    fn init_vertex(&self, v: VertexId, out_degree: usize) -> ServeVertex {
        self.inner.init_vertex(v, out_degree)
    }
    fn msg_gen_into(
        &self,
        t: &Triplet<ServeVertex, f64>,
        i: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        self.gate.wait_open();
        self.inner.msg_gen_into(t, i, out)
    }
    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        self.inner.msg_merge(a, b)
    }
    fn msg_apply(
        &self,
        v: VertexId,
        current: &ServeVertex,
        sum: &f64,
        i: usize,
    ) -> Option<ServeVertex> {
        self.inner.msg_apply(v, current, sum, i)
    }
    fn max_iterations(&self) -> usize {
        self.inner.max_iterations()
    }
    fn always_active(&self) -> bool {
        self.inner.always_active()
    }
    fn name(&self) -> &'static str {
        "held-pagerank"
    }
}

#[test]
fn over_quota_tenants_get_429_without_disturbing_others() {
    // One worker, held by a gated in-process job, so the queue stays
    // occupied: a real job over a rmat-7 graph can finish within one round
    // trip on an optimised build, and burns's first job with it.
    let server = boot(7, 3, 1);
    let addr = server.local_addr();
    let gate = Gate::default();
    let held = server
        .service()
        .submit(HeldRank {
            inner: ServeRank {
                damping: 0.85,
                iterations: 20,
            },
            gate: gate.clone(),
        })
        .expect("the holding job is accepted");
    while held.status() == JobStatus::Queued {
        std::thread::yield_now();
    }

    // acme queues a long PageRank behind it...
    let long = JobSpec::new("pagerank").with_u64("iterations", 120);
    let a1 = submit(addr, "tok-a", long.clone(), bypass()).expect("acme accepted");

    // ... burns (1 in flight, queue allowance 1) queues one job ...
    let b1 = submit(
        addr,
        "tok-b",
        JobSpec::new("sssp").with_ids("sources", vec![1]),
        bypass(),
    )
    .expect("burns first job accepted");

    // ... and the second burns submission is a typed 429.
    let refused = submit(
        addr,
        "tok-b",
        JobSpec::new("sssp").with_ids("sources", vec![2]),
        bypass(),
    );
    match refused {
        Err((429, ServerError::QuotaExceeded { tenant, limit, .. })) => {
            assert_eq!(tenant, "burns");
            assert_eq!(limit, 1);
        }
        other => panic!("expected a 429 quota rejection, got {other:?}"),
    }

    // The rejection cost acme nothing: its next submission is accepted.
    let a2 = submit(addr, "tok-a", long, bypass()).expect("acme still accepted");

    // Tenants cannot see each other's jobs.
    let (status, _) = request(
        addr,
        "GET",
        &format!("/v1/jobs/{b1}"),
        Some("tok-a"),
        None,
        false,
        &[],
    );
    assert_eq!(status, 404, "cross-tenant polling must look like a miss");

    // burns frees its slot with DELETE (200: the cancellation happened)...
    let (status, body) = request(
        addr,
        "DELETE",
        &format!("/v1/jobs/{b1}"),
        Some("tok-b"),
        None,
        false,
        &[],
    );
    let (frame, _) = wire::decode(&body).expect("cancel response is a frame");
    assert!(status == 200, "cancel answered {status} with {frame:?}");
    // ... and, once the worker is free to skip it, late polls of the
    // cancelled job are a stored 409.
    gate.open();
    let (status, frame) = poll_until_terminal(addr, "tok-b", b1);
    match frame {
        Frame::Error {
            error: ServerError::Cancelled,
            ..
        } => assert_eq!(status, 409),
        other => panic!("unexpected terminal frame {other:?}"),
    }

    // /metrics is unauthenticated, parses, and carries the 429.
    let (status, body) = request(addr, "GET", "/metrics", None, None, true, &[]);
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let samples = metrics::parse_exposition(&text).expect("valid Prometheus exposition");
    // Family totals: tenant-labelled families render one sample per tenant.
    let total = |name: &str| {
        let matching: Vec<f64> = samples
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        assert!(!matching.is_empty(), "{name} missing from exposition");
        matching.iter().sum::<f64>()
    };
    assert!(total("gxplug_jobs_submitted_total") >= 3.0);
    assert!(total("gxplug_tenant_jobs_rejected_total") >= 1.0);

    // Drain the jobs so shutdown has nothing in flight.
    assert!(held.wait().is_ok());
    for job in [a1, a2] {
        let (_, frame) = poll_until_terminal(addr, "tok-a", job);
        assert!(matches!(frame, Frame::Result(_)), "{frame:?}");
    }
    server.shutdown();
}

#[test]
fn live_mutations_apply_over_the_socket_and_invalidate_the_cache() {
    let server = boot(7, 5, 2);
    let addr = server.local_addr();
    let (vertices_before, edges_before) = server.service().graph_shape();

    // A baseline SSSP, cached under the pre-mutation graph version.
    let spec = JobSpec::new("sssp").with_ids("sources", vec![0]);
    let job = submit(addr, "tok-a", spec.clone(), WireJobOptions::default()).expect("accepted");
    let (_, frame) = poll_until_terminal(addr, "tok-a", job);
    let Frame::Result(before) = frame else {
        panic!("expected a result, got {frame:?}")
    };
    assert_eq!(before.values.len(), vertices_before);

    // Mutations are authenticated like every other endpoint.
    let batch = wire::encode(&Frame::Mutate {
        ops: vec![
            WireMutationOp::AddVertex,
            WireMutationOp::AddEdge {
                src: 0,
                dst: vertices_before as u32,
                attr: 0.5,
            },
        ],
    });
    let (status, _) = request(addr, "POST", "/v1/graph/mutations", None, None, false, &[]);
    assert_eq!(status, 401);

    // A text body is a typed 400 — mutations are binary-only.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/graph/mutations",
        Some("tok-a"),
        None,
        false,
        b"nope",
    );
    assert_eq!(status, 400);

    // A non-Mutate frame under the frame content type is a typed 400 too.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/graph/mutations",
        Some("tok-a"),
        Some("application/x-gxplug-frame"),
        false,
        &wire::encode(&Frame::Cancel { job: 1 }),
    );
    assert_eq!(status, 400);

    // The real batch commits and reports the post-mutation shape.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/graph/mutations",
        Some("tok-a"),
        Some("application/x-gxplug-frame"),
        false,
        &batch,
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (frame, _) = wire::decode(&body).expect("mutation response is a frame");
    let Frame::Mutated {
        version,
        num_vertices,
        num_edges,
    } = frame
    else {
        panic!("expected Mutated, got {frame:?}")
    };
    assert_eq!(version, 1);
    assert_eq!(num_vertices, vertices_before as u64 + 1);
    assert_eq!(num_edges, edges_before as u64 + 1);
    assert_eq!(
        server.service().graph_shape(),
        (vertices_before + 1, edges_before + 1)
    );

    // An invalid batch (removing an edge that does not exist) is a 400 and
    // does not bump the version.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/graph/mutations",
        Some("tok-a"),
        Some("application/x-gxplug-frame"),
        false,
        &wire::encode(&Frame::Mutate {
            ops: vec![WireMutationOp::RemoveEdge {
                edge: u64::from(u32::MAX),
            }],
        }),
    );
    assert_eq!(status, 400);
    assert_eq!(server.service().mutation_version(), 1);

    // The same submission again is a cache MISS (the mutation bumped the
    // graph version) and the fresh run sees the mutated graph: one more
    // value, and the new vertex is reachable from source 0 at distance 0.5.
    let job = submit(addr, "tok-a", spec, WireJobOptions::default()).expect("accepted");
    let (_, frame) = poll_until_terminal(addr, "tok-a", job);
    let Frame::Result(after) = frame else {
        panic!("expected a result, got {frame:?}")
    };
    assert_eq!(after.values.len(), vertices_before + 1);
    assert_eq!(after.values[vertices_before], 0.5);

    // And the socket result stays bit-identical to an in-process run over
    // the same (mutated) service.
    let direct = server
        .service()
        .submit_with(
            ServeReach { sources: vec![0] },
            JobOptions::new().with_cache(CachePolicy::Bypass),
        )
        .expect("direct submit")
        .wait()
        .expect("direct run");
    let direct_bits: Vec<u64> = direct.values.iter().map(|v| v.dist.to_bits()).collect();
    let socket_bits: Vec<u64> = after.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        direct_bits, socket_bits,
        "post-mutation bits differ across the socket"
    );

    // The frame's `sim_time_us` is the run's cost-model time: an in-process
    // cache hit on the same key shares the socket run's outcome.
    let hits = server.stats_snapshot().cache_hits;
    let shared = server
        .service()
        .submit(ServeReach { sources: vec![0] })
        .expect("direct submit")
        .wait()
        .expect("cache hit");
    assert_eq!(server.stats_snapshot().cache_hits, hits + 1);
    assert_eq!(
        after.sim_time_us,
        (shared.report.total_time().as_millis() * 1000.0) as u64
    );

    server.shutdown();
}

/// Reads one *server* (unmasked) WebSocket frame: `(opcode, payload)`.
fn read_server_frame(reader: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 2];
    reader.read_exact(&mut header)?;
    assert_eq!(header[0] & 0x80, 0x80, "server frames must set FIN");
    assert_eq!(header[1] & 0x80, 0, "server frames must be unmasked");
    let opcode = header[0] & 0x0F;
    let mut len = (header[1] & 0x7F) as usize;
    if len == 126 {
        let mut ext = [0u8; 2];
        reader.read_exact(&mut ext)?;
        len = u16::from_be_bytes(ext) as usize;
    } else if len == 127 {
        let mut ext = [0u8; 8];
        reader.read_exact(&mut ext)?;
        len = u64::from_be_bytes(ext) as usize;
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok((opcode, payload))
}

/// Opens a `/v1/stream` WebSocket as tenant `acme` and checks the 101
/// handshake.
fn ws_connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let key = "dGhlIHNhbXBsZSBub25jZQ==";
    let upgrade = format!(
        "GET /v1/stream HTTP/1.1\r\nHost: localhost\r\n\
         Authorization: Bearer tok-a\r\n\
         Upgrade: websocket\r\nConnection: Upgrade\r\n\
         Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
    );
    stream.write_all(upgrade.as_bytes()).unwrap();

    // Read the 101 handshake (headers only — no body follows).
    let mut response = Vec::new();
    let mut byte = [0u8; 1];
    while !response.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("handshake bytes");
        response.push(byte[0]);
    }
    let response = String::from_utf8(response).unwrap();
    assert!(response.starts_with("HTTP/1.1 101"), "{response}");
    assert!(
        response.contains(&format!("Sec-WebSocket-Accept: {}", ws::accept_key(key))),
        "{response}"
    );
    stream
}

#[test]
fn websocket_streams_transitions_and_bit_identical_results() {
    let server = boot(8, 29, 2);
    let addr = server.local_addr();

    let mut stream = ws_connect(addr);

    // Submit over the socket (client frames must be masked).
    let submit = wire::encode(&Frame::Submit {
        spec: JobSpec::new("sssp").with_ids("sources", vec![3]),
        options: bypass(),
    });
    let masked = ws::client_frame(0x2, &submit, [0x1b, 0x2c, 0x3d, 0x4e]);
    stream.write_all(&masked).unwrap();

    // Collect pushed frames until the Result arrives.
    let mut job = None;
    let mut states = Vec::new();
    let mut result = None;
    let deadline = Instant::now() + Duration::from_secs(60);
    while result.is_none() {
        assert!(Instant::now() < deadline, "no result over the stream");
        let (opcode, payload) = read_server_frame(&mut stream).expect("stream frame");
        match opcode {
            0x9 => {
                // Ping → masked pong.
                let pong = ws::client_frame(0xA, &payload, [9, 9, 9, 9]);
                stream.write_all(&pong).unwrap();
            }
            0x2 => {
                let (frame, _) = wire::decode(&payload).expect("pushed frame decodes");
                match frame {
                    Frame::Accepted { job: id } => job = Some(id),
                    Frame::State { state, job: id } => {
                        assert_eq!(Some(id), job, "states follow the accepted job");
                        states.push(state);
                    }
                    Frame::Result(r) => result = Some(r),
                    other => panic!("unexpected push {other:?}"),
                }
            }
            0x8 => panic!("server closed early"),
            other => panic!("unexpected opcode {other}"),
        }
    }

    // The stream narrated the lifecycle in order, ending Done.
    assert!(job.is_some(), "no Accepted frame");
    assert_eq!(states.first(), Some(&JobState::Queued));
    assert_eq!(states.last(), Some(&JobState::Done));
    let positions: Vec<Option<usize>> = [JobState::Queued, JobState::Running, JobState::Done]
        .iter()
        .map(|s| states.iter().position(|x| x == s))
        .collect();
    for window in positions.windows(2) {
        if let (Some(a), Some(b)) = (window[0], window[1]) {
            assert!(a < b, "out-of-order transitions: {states:?}");
        }
    }

    // And the values match the in-process run bit for bit.
    let result = result.unwrap();
    let direct = server
        .service()
        .submit_with(
            ServeReach { sources: vec![3] },
            JobOptions::new().with_cache(CachePolicy::Bypass),
        )
        .expect("direct submit")
        .wait()
        .expect("direct run");
    let direct_bits: Vec<u64> = direct.values.iter().map(|v| v.dist.to_bits()).collect();
    let socket_bits: Vec<u64> = result.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(direct_bits, socket_bits, "WS bits differ from direct run");

    // Clean close.
    let close = ws::client_frame(0x8, &1000u16.to_be_bytes(), [1, 2, 3, 4]);
    stream.write_all(&close).unwrap();
    server.shutdown();
}

/// The pause the split-request tests put between a request's pieces: three
/// times the handler's 100 ms read poll, so the server sees a read time out
/// mid-request.
const SPLIT_PAUSE: Duration = Duration::from_millis(300);

/// The server's keep-alive budget, which a trickled request also gets.
const KEEP_ALIVE: Duration = Duration::from_secs(5);

/// A text-form submission as raw bytes, on a closing connection.
fn text_submission() -> Vec<u8> {
    let body = "algorithm=sssp&sources=0";
    format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nAuthorization: Bearer tok-a\r\n\
         Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Writes `bytes` with a [`SPLIT_PAUSE`] at byte offset `cut`, then reads
/// the response.
fn send_split(addr: SocketAddr, bytes: &[u8], cut: usize) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&bytes[..cut]).unwrap();
    std::thread::sleep(SPLIT_PAUSE);
    stream.write_all(&bytes[cut..]).unwrap();
    read_response(&mut stream)
}

#[test]
fn a_body_sent_after_its_headers_is_still_read() {
    let server = boot(6, 3, 1);
    let bytes = text_submission();
    let headers_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let (status, body) = send_split(server.local_addr(), &bytes, headers_end);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    server.shutdown();
}

#[test]
fn a_request_line_split_by_a_pause_is_still_read() {
    let server = boot(6, 3, 1);
    let (status, body) = send_split(server.local_addr(), &text_submission(), "POST /v1/jo".len());
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    server.shutdown();
}

#[test]
fn a_websocket_frame_split_across_a_pause_is_still_read() {
    let server = boot(6, 3, 1);
    let mut stream = ws_connect(server.local_addr());
    stream.set_nodelay(true).unwrap();
    let submit = wire::encode(&Frame::Submit {
        spec: JobSpec::new("sssp").with_ids("sources", vec![0]),
        options: bypass(),
    });
    let masked = ws::client_frame(0x2, &submit, [7, 1, 7, 1]);
    // Cut inside the mask, so the head, the mask and the payload all wait.
    stream.write_all(&masked[..4]).unwrap();
    std::thread::sleep(SPLIT_PAUSE);
    stream.write_all(&masked[4..]).unwrap();
    loop {
        let (opcode, payload) = read_server_frame(&mut stream).expect("stream frame");
        match opcode {
            0x9 => continue,
            0x2 => {
                let (frame, _) = wire::decode(&payload).expect("pushed frame decodes");
                assert!(matches!(frame, Frame::Accepted { .. }), "{frame:?}");
                break;
            }
            other => panic!("unexpected opcode {other}"),
        }
    }
    server.shutdown();
}

#[test]
fn a_trickled_request_is_closed_within_the_keep_alive_budget() {
    let server = boot(6, 3, 1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    // Each read below doubles as the 50 ms pause between bytes.
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    // Far longer than a trickle can deliver within the test's bound.
    let padding = "a".repeat(400);
    let bytes = format!(
        "GET /v1/stats HTTP/1.1\r\nAuthorization: Bearer tok-a\r\nX-Pad: {padding}\r\n\r\n"
    );
    let started = Instant::now();
    let mut closed = false;
    for byte in bytes.as_bytes() {
        if stream.write_all(&[*byte]).is_err() {
            closed = true;
            break;
        }
        let mut sink = [0u8; 64];
        match stream.read(&mut sink) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(_) => panic!("the server answered a request it never fully received"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                closed = true;
                break;
            }
        }
        assert!(
            started.elapsed() < KEEP_ALIVE + Duration::from_secs(1),
            "a trickling client held its handler past the keep-alive budget"
        );
    }
    assert!(closed, "the whole request trickled through");
    server.shutdown();
}

#[test]
fn binary_stats_match_the_snapshot_once_every_job_resolved() {
    let server = boot(6, 5, 1);
    let addr = server.local_addr();
    let spec = || JobSpec::new("sssp").with_ids("sources", vec![1]);
    for _ in 0..2 {
        // The second submission is a cache hit.
        let job = submit(addr, "tok-a", spec(), WireJobOptions::default()).expect("accepted");
        poll_until_terminal(addr, "tok-a", job);
    }
    let job = submit(addr, "tok-a", spec(), bypass()).expect("accepted");
    poll_until_terminal(addr, "tok-a", job);

    let (status, body) = request(addr, "GET", "/v1/stats", Some("tok-a"), None, false, &[]);
    assert_eq!(status, 200);
    let (frame, _) = wire::decode(&body).expect("stats response is a frame");
    let Frame::Stats(stats) = frame else {
        panic!("expected a Stats frame, got {frame:?}")
    };
    let snapshot = server.stats_snapshot();
    let us = |duration: Duration| duration.as_micros() as u64;
    assert_eq!(
        (stats.submitted, stats.completed, stats.failed),
        (snapshot.submitted, snapshot.completed, snapshot.failed)
    );
    assert_eq!(
        (stats.cancelled, stats.panicked, stats.coalesced_jobs),
        (
            snapshot.cancelled,
            snapshot.panicked,
            snapshot.coalesced_jobs
        )
    );
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (snapshot.cache_hits, snapshot.cache_misses)
    );
    assert_eq!(
        (stats.queued, stats.running, stats.worker_sessions),
        (0, 0, snapshot.worker_sessions as u32)
    );
    assert_eq!(stats.queue_wait_total_us, us(snapshot.queue_wait_total));
    assert_eq!(stats.run_wall_total_us, us(snapshot.run_wall_total));
    assert_eq!(stats.wait_p50_us, snapshot.wait_p50.map(us));
    assert_eq!(stats.wall_p99_us, snapshot.wall_p99.map(us));
    // Two physical runs and one hit.
    assert_eq!((stats.submitted, stats.completed), (2, 2));
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    server.shutdown();
}

#[test]
fn an_oversized_body_gets_400_and_closes_only_its_connection() {
    let server = boot(6, 3, 1);
    let addr = server.local_addr();
    // A keep-alive neighbour, open before and after the oversized request.
    let mut neighbour = TcpStream::connect(addr).expect("connect");
    neighbour
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let mut hostile = TcpStream::connect(addr).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nAuthorization: Bearer tok-a\r\nContent-Length: {}\r\n\r\n",
        gxplug_server::http::MAX_BODY + 1
    );
    hostile.write_all(head.as_bytes()).unwrap();
    // `read_response` reads to the close: the server hung up after the 400.
    let (status, _) = read_response(&mut hostile);
    assert_eq!(status, 400);

    neighbour
        .write_all(
            b"GET /v1/stats HTTP/1.1\r\nAuthorization: Bearer tok-a\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let (status, body) = read_response(&mut neighbour);
    assert_eq!(status, 200);
    assert!(matches!(wire::decode(&body), Ok((Frame::Stats(_), _))));
    server.shutdown();
}

#[test]
fn a_websocket_client_gone_mid_frame_frees_the_only_handler() {
    let server = boot_with_handlers(6, 3, 1, 1);
    let addr = server.local_addr();
    let mut stream = ws_connect(addr);
    let submit = wire::encode(&Frame::Submit {
        spec: JobSpec::new("sssp").with_ids("sources", vec![0]),
        options: bypass(),
    });
    let masked = ws::client_frame(0x2, &submit, [3, 1, 4, 1]);
    stream.write_all(&masked[..masked.len() / 2]).unwrap();
    drop(stream);

    // The one handler must be back in `accept` to answer this.
    let (status, body) = request(addr, "GET", "/v1/stats", Some("tok-a"), None, false, &[]);
    assert_eq!(status, 200);
    assert!(matches!(wire::decode(&body), Ok((Frame::Stats(_), _))));
    server.shutdown();
}
