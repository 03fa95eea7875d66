//! `serve_mixed`: the stock serving deployment driven through its socket.
//!
//! `Server::serve` over `standard_service(10, 42, 2, 64)` — the graph
//! `gxplug-serve` boots: rmat-10 on two nodes, two worker sessions, the
//! default 128-entry result cache.  The seed draws the key pools and the
//! request order, not the graph: how long a cold job runs depends on the
//! graph's shape, and with the graph drawn per seed that alone moved the
//! throughput by 15 % from seed to seed — more than the regression bound.  Two
//! keep-alive HTTP/1.1 connections speak binary frames: `POST /v1/jobs`,
//! then `GET /v1/jobs/{id}` with a 200 µs sleep after every `State` reply.
//! It is a closed loop (each caller waits for its reply) with as many
//! clients as the reference box has cores.
//!
//! The request mix is sized against the program's own cache: 60 % of the
//! requests come from a hot pool of 32 keys (pre-warmed, fits the cache),
//! 20 % from a warm pool of 512 keys (4x the cache's capacity, so it churns)
//! and 20 % are never-repeated SSSP source triples that always run on a
//! worker.  The shares are exact in every block of ten requests, so the mix
//! does not drift with the seed.

use super::{
    finish_traced, probe, put_end_to_end, put_hops, put_service_counts, put_service_overhead,
    Fingerprint, Outcome, Rng, RunArgs, Scale, SetupSpans, MIN_OPS,
};
use crate::stats;
use crate::trace::{Bucket, Tracer};
use gx_plug::ipc::wire::{self, JobResultFrame};
use gx_plug::prelude::*;
use gx_plug::server::http::{read_request, Response};
use gx_plug::server::model::job_options;
use gx_plug::server::{ServeVertex, TenantQuota};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TOKEN: &str = "bench-token";
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 64;
const POLL_SLEEP: Duration = Duration::from_micros(200);
/// Seed of the served graph (the stock deployment's).
const GRAPH_SEED: u64 = 42;
/// Set-ups per run whose median is `setup_s` (a set-up takes ~10 ms).
const SETUPS: usize = 15;

/// Sizes of the served graph and the key pools.
#[derive(Debug, Clone, Copy)]
struct Mix {
    log2_vertices: u32,
    hot: usize,
    warm: usize,
}

impl Mix {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                log2_vertices: 10,
                hot: 32,
                warm: 512,
            },
            Scale::Smoke => Self {
                log2_vertices: 8,
                hot: 8,
                warm: 64,
            },
        }
    }

    fn vertices(&self) -> u64 {
        1 << self.log2_vertices
    }
}

/// One cacheable job, as the wire and as the in-process API name it.
#[derive(Debug, Clone, PartialEq)]
enum Key {
    Rank { damping: f64, iterations: u64 },
    Reach(Vec<u32>),
}

impl Key {
    fn spec(&self) -> JobSpec {
        match self {
            Key::Rank {
                damping,
                iterations,
            } => JobSpec::new("pagerank")
                .with_f64("damping", *damping)
                .with_u64("iterations", *iterations),
            Key::Reach(sources) => JobSpec::new("sssp").with_ids("sources", sources.clone()),
        }
    }

    /// Submits the same job in-process.
    fn submit(
        &self,
        service: &GraphService<ServeVertex, f64>,
        options: JobOptions,
    ) -> Result<JobTicket<ServeVertex>, ServiceError> {
        match self {
            Key::Rank {
                damping,
                iterations,
            } => service.submit_with(
                ServeRank {
                    damping: *damping,
                    iterations: *iterations as usize,
                },
                options,
            ),
            Key::Reach(sources) => service.submit_with(
                ServeReach {
                    sources: sources.clone(),
                },
                options,
            ),
        }
    }

    /// Runs the job in-process and fingerprints its payload the way the
    /// socket's Result frame is fingerprinted.
    fn run_direct(
        &self,
        service: &GraphService<ServeVertex, f64>,
        policy: CachePolicy,
    ) -> Result<u64, ServiceError> {
        let run = self
            .submit(service, JobOptions::new().with_cache(policy))?
            .wait()?;
        Ok(match self {
            Key::Rank { .. } => Fingerprint::of_f64s(run.values.iter().map(|v| &v.rank)),
            Key::Reach(_) => Fingerprint::of_f64s(run.values.iter().map(|v| &v.dist)),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Hot,
    Warm,
    Cold,
}

/// The pools, drawn once from the seed and shared by both clients.
struct Pools {
    mix: Mix,
    hot: Vec<Key>,
    warm: Vec<Key>,
    /// Offsets scrambling the cold triples per seed.
    cold_offsets: [u64; 3],
}

impl Pools {
    fn new(mix: Mix, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let vertices = mix.vertices();
        // Hot keys alternate the two algorithm families; their first source
        // counts down from the top of the id space and warm keys' first
        // source counts up from 0, so no two pool keys collide.
        let hot = (0..mix.hot)
            .map(|i| {
                if i % 2 == 0 {
                    Key::Rank {
                        damping: 0.5 + 0.01 * i as f64,
                        iterations: 10,
                    }
                } else {
                    Key::Reach(vec![
                        (vertices - 1 - i as u64) as u32,
                        rng.below(vertices) as u32,
                    ])
                }
            })
            .collect();
        let warm = (0..mix.warm)
            .map(|j| Key::Reach(vec![j as u32, rng.below(vertices) as u32]))
            .collect();
        Self {
            mix,
            hot,
            warm,
            cold_offsets: [rng.next_u64(), rng.next_u64(), rng.next_u64()],
        }
    }

    /// The `n`-th cold key of `stream` (one stream per client and phase): a
    /// source triple no other request of the run uses (pool keys are pairs),
    /// so it can never hit the cache.
    fn cold(&self, stream: usize, n: u64) -> Key {
        let vertices = self.mix.vertices();
        // Multiplying by an odd constant permutes Z_vertices (a power of 2).
        let scramble = |x: u64, offset: u64| ((x.wrapping_mul(0x9e5) + offset) % vertices) as u32;
        Key::Reach(vec![
            scramble(n % vertices, self.cold_offsets[0]),
            scramble(n / vertices % vertices, self.cold_offsets[1]),
            scramble(stream as u64, self.cold_offsets[2]),
        ])
    }
}

/// A keep-alive HTTP/1.1 connection speaking binary frames.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Why a request did not end in a Result frame.
#[derive(Debug)]
struct Refused(String);

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to the benchmark's own server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set a read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Self { reader, writer }
    }

    /// One request/response on the persistent connection.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\n\
             Authorization: Bearer {TOKEN}\r\n\
             Content-Type: application/x-gxplug-frame\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let mut content_length = 0;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        let mut body = vec![0; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    fn frame(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Frame, Refused> {
        let (status, body) = self
            .exchange(method, path, body)
            .map_err(|error| Refused(format!("{method} {path}: {error}")))?;
        match wire::decode(&body) {
            Ok((frame, _)) => Ok(frame),
            Err(error) => Err(Refused(format!("{method} {path} -> {status}: {error}"))),
        }
    }

    /// POST the job, poll until its Result frame lands.  Spans go to
    /// `tracer` when there is one.
    fn request(
        &mut self,
        key: &Key,
        job_id: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Reply, Refused> {
        let submit = wire::encode(&Frame::Submit {
            spec: key.spec(),
            options: WireJobOptions::default(),
        });
        let start = Instant::now();
        let accepted = self.frame("POST", "/v1/jobs", &submit)?;
        let posted = Instant::now();
        let Frame::Accepted { job } = accepted else {
            return Err(Refused(format!("POST /v1/jobs answered {accepted:?}")));
        };
        let request_span = tracer.as_deref_mut().map(|tracer| {
            let span = tracer.open_at("request", None, None, job_id, Bucket::Transfer, start);
            tracer.record(
                "http.post",
                None,
                Some(span),
                job_id,
                Bucket::Transfer,
                start,
                posted,
            );
            span
        });
        let path = format!("/v1/jobs/{job}");
        let mut polls = 0;
        let result = loop {
            let poll_start = Instant::now();
            let frame = self.frame("GET", &path, &[])?;
            if let (Some(tracer), Some(span)) = (tracer.as_deref_mut(), request_span) {
                tracer.record(
                    "http.get",
                    Some(polls),
                    Some(span),
                    job_id,
                    Bucket::Transfer,
                    poll_start,
                    Instant::now(),
                );
            }
            polls += 1;
            match frame {
                Frame::State { .. } => std::thread::sleep(POLL_SLEEP),
                Frame::Result(result) => break result,
                other => return Err(Refused(format!("GET {path} answered {other:?}"))),
            }
        };
        let end = Instant::now();
        if let (Some(tracer), Some(span)) = (tracer, request_span) {
            tracer.close_at(span, end);
        }
        Ok(Reply {
            seconds: (end - start).as_secs_f64(),
            polls,
            fingerprint: Fingerprint::of_f64s(&result.values),
            result,
        })
    }
}

struct Reply {
    seconds: f64,
    polls: u32,
    fingerprint: u64,
    result: JobResultFrame,
}

/// What a client remembers of one request.
struct Record {
    class: Class,
    /// Index into the class's pool, or the cold counter.
    key: u64,
    /// The cold stream the key came from.
    stream: usize,
    seconds: f64,
    polls: u32,
    fingerprint: u64,
}

struct Deployed {
    server: Server<ServeVertex, f64>,
    setup_seconds: f64,
    deploy_seconds: f64,
    first_run_seconds: f64,
}

/// Set-up as a user pays it: build the stock deployment, put it on a
/// socket, connect and get the first cold answer back.
fn deploy(mix: Mix) -> Deployed {
    let start = Instant::now();
    let service = standard_service(mix.log2_vertices, GRAPH_SEED, WORKERS, QUEUE_DEPTH);
    let tenants = TenantRegistry::new().register(
        TOKEN,
        Tenant::new("bench").with_quota(TenantQuota {
            max_in_flight: QUEUE_DEPTH,
            queue_share: 1.0,
        }),
    );
    let config = ServerConfig {
        queue_depth: QUEUE_DEPTH,
        ..ServerConfig::default()
    };
    let server = Server::serve(service, standard_registry(), tenants, config).expect("bind a port");
    let deploy_seconds = start.elapsed().as_secs_f64();
    let first = Instant::now();
    Client::connect(server.local_addr())
        .request(&Key::Reach(vec![0]), 0, None)
        .expect("the first cold job runs");
    Deployed {
        server,
        setup_seconds: start.elapsed().as_secs_f64(),
        deploy_seconds,
        first_run_seconds: first.elapsed().as_secs_f64(),
    }
}

/// One measured phase: both clients loop until `seconds` have passed and
/// each finished at least [`MIN_OPS`] requests.
struct Phase {
    records: Vec<Record>,
    refused: Vec<String>,
    wall: f64,
    tracer: Tracer,
}

fn phase(
    addr: SocketAddr,
    pools: &Pools,
    seed: u64,
    round: u64,
    seconds: f64,
    traced: bool,
) -> Phase {
    let origin = Instant::now();
    let per_client: Vec<(Vec<Record>, Vec<String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut connection = Client::connect(addr);
                    let mut rng = Rng::new(seed, 16 + round * CLIENTS as u64 + client as u64);
                    let mut tracer = Tracer::with_origin(origin);
                    let mut records = Vec::new();
                    let mut refused = Vec::new();
                    let mut block = Vec::new();
                    let stream = round as usize * CLIENTS + client;
                    let mut cold = 0;
                    while records.len() + refused.len() < MIN_OPS
                        || origin.elapsed().as_secs_f64() < seconds
                    {
                        if block.is_empty() {
                            block.extend([Class::Hot; 6]);
                            block.extend([Class::Warm; 2]);
                            block.extend([Class::Cold; 2]);
                            rng.shuffle(&mut block);
                        }
                        let class = block.pop().expect("refilled above");
                        let (key_id, key) = match class {
                            Class::Hot => {
                                let i = rng.below(pools.hot.len() as u64);
                                (i, pools.hot[i as usize].clone())
                            }
                            Class::Warm => {
                                let j = rng.below(pools.warm.len() as u64);
                                (j, pools.warm[j as usize].clone())
                            }
                            Class::Cold => {
                                cold += 1;
                                (cold, pools.cold(stream, cold))
                            }
                        };
                        let job_id = (client as u64) << 48 | records.len() as u64;
                        match connection.request(&key, job_id, traced.then_some(&mut tracer)) {
                            Ok(reply) => records.push(Record {
                                class,
                                key: key_id,
                                stream,
                                seconds: reply.seconds,
                                polls: reply.polls,
                                fingerprint: reply.fingerprint,
                            }),
                            Err(Refused(why)) => refused.push(why),
                        }
                    }
                    (records, refused, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        records: Vec::new(),
        refused: Vec::new(),
        wall: origin.elapsed().as_secs_f64(),
        tracer: Tracer::with_origin(origin),
    };
    for (records, refused, tracer) in per_client {
        phase.records.extend(records);
        phase.refused.extend(refused);
        phase.tracer.absorb(tracer);
    }
    phase
}

impl Phase {
    fn seconds_of(&self, class: Option<Class>) -> Vec<f64> {
        self.records
            .iter()
            .filter(|record| class.is_none_or(|c| record.class == c))
            .map(|record| record.seconds)
            .collect()
    }

    /// Counts every request, every refusal and every answer that differs
    /// from an earlier answer to the same key; then resubmits a sample of
    /// the keys in-process, bypassing the cache, and compares the bits.
    fn verify(
        &self,
        outcome: &mut Outcome,
        pools: &Pools,
        service: &GraphService<ServeVertex, f64>,
    ) {
        outcome.attempted += (self.records.len() + self.refused.len()) as u64;
        outcome.failed += self.refused.len() as u64;
        for why in self.refused.iter().take(5) {
            eprintln!("REQUEST FAILED: {why}");
        }
        let mut seen: HashMap<(Class, u64, usize), u64> = HashMap::new();
        for record in &self.records {
            // Pool keys are shared by the clients; cold keys are per stream.
            let owner = if record.class == Class::Cold {
                record.stream
            } else {
                0
            };
            let first = *seen
                .entry((record.class, record.key, owner))
                .or_insert(record.fingerprint);
            if first != record.fingerprint {
                outcome.failed += 1;
                eprintln!("CHECK FAILED: two answers to one key differ");
            }
        }
        let mut sampled = [0usize; 3];
        for ((class, key_id, stream), fingerprint) in seen {
            let slot = class as usize;
            let limit = if class == Class::Hot { usize::MAX } else { 32 };
            if sampled[slot] >= limit {
                continue;
            }
            sampled[slot] += 1;
            let key = match class {
                Class::Hot => pools.hot[key_id as usize].clone(),
                Class::Warm => pools.warm[key_id as usize].clone(),
                Class::Cold => pools.cold(stream, key_id),
            };
            let direct = key.run_direct(service, CachePolicy::Bypass);
            outcome.check(
                direct.is_ok_and(|bits| bits == fingerprint),
                "a socket result is not bit-identical to in-process submission",
            );
        }
    }
}

/// Submits every hot key once so the measured phase starts with the hot
/// pool resident in the result cache.
fn prewarm(addr: SocketAddr, pools: &Pools, outcome: &mut Outcome) {
    let mut client = Client::connect(addr);
    for (i, key) in pools.hot.iter().enumerate() {
        let warmed = client.request(key, i as u64, None);
        outcome.check(warmed.is_ok(), "a pre-warm job failed");
    }
}

pub fn run(args: RunArgs) -> Outcome {
    let mix = Mix::of(args.scale);
    let pools = Pools::new(mix, args.seed);
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &pools, &mut outcome);
        return outcome;
    }
    let mut setup_seconds = Vec::new();
    let deployed = loop {
        let deployed = deploy(mix);
        setup_seconds.push(deployed.setup_seconds);
        if setup_seconds.len() == SETUPS {
            break deployed;
        }
        deployed.server.shutdown();
    };
    let addr = deployed.server.local_addr();
    prewarm(addr, &pools, &mut outcome);
    let measured = phase(addr, &pools, args.seed, 0, args.seconds, false);
    measured.verify(&mut outcome, &pools, deployed.server.service());
    put_end_to_end(
        &mut outcome,
        &setup_seconds,
        measured.records.len(),
        measured.wall,
    );
    deployed.server.shutdown();
    outcome
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

fn traced(args: RunArgs, pools: &Pools, outcome: &mut Outcome) {
    let mix = pools.mix;
    let deployed = deploy(mix);
    let addr = deployed.server.local_addr();
    let service = deployed.server.service();
    prewarm(addr, pools, outcome);

    // ---- tracing off, then the same mix with spans -------------------------
    let plain = phase(addr, pools, args.seed, 0, args.seconds / 3.0, false);
    plain.verify(outcome, pools, service);
    let before = deployed.server.stats_snapshot();
    let spans = phase(addr, pools, args.seed, 1, args.seconds / 3.0, true);
    let after = deployed.server.stats_snapshot();
    spans.verify(outcome, pools, service);

    let hot = plain.seconds_of(Some(Class::Hot));
    let cold = plain.seconds_of(Some(Class::Cold));
    outcome.put_median_ms("hot_ms_p50", &hot);
    outcome.put_median_ms("cold_ms_p50", &cold);
    outcome.put(
        "server.hot_ms_p99",
        stats::tail(&hot, 0.99) * 1e3,
        hot.len(),
    );
    outcome.put(
        "server.cold_ms_p95",
        stats::tail(&cold, 0.95) * 1e3,
        cold.len(),
    );
    outcome.put(
        "trace.overhead_share",
        stats::median(&spans.seconds_of(None)) / stats::median(&plain.seconds_of(None)) - 1.0,
        spans.records.len(),
    );
    outcome.put_median_ms(
        "server.http.post_ms_p50",
        &spans.tracer.durations("http.post"),
    );
    outcome.put_median_ms(
        "server.http.get_ms_p50",
        &spans.tracer.durations("http.get"),
    );
    let cold_polls: Vec<f64> = (spans.records.iter())
        .filter(|record| record.class == Class::Cold)
        .map(|record| record.polls as f64)
        .collect();
    outcome.put(
        "server.polls_per_cold_job",
        cold_polls.iter().sum::<f64>() / cold_polls.len().max(1) as f64,
        cold_polls.len(),
    );
    let requests = spans.records.len() + spans.refused.len();
    outcome.put(
        "server.rejected_share",
        spans.refused.len() as f64 / requests.max(1) as f64,
        requests,
    );

    // ---- counts: the traced phase's stats delta ----------------------------
    put_service_counts(outcome, &before, &after, spans.wall, WORKERS);

    // ---- diff: the hot stream in-process, without the socket ---------------
    let mut rng = Rng::new(args.seed, 2);
    let mut submit_laps = Vec::new();
    let mut direct_laps = Vec::new();
    let start = Instant::now();
    while direct_laps.len() < 100 || start.elapsed().as_secs_f64() < args.seconds / 24.0 {
        let key = &pools.hot[rng.below(pools.hot.len() as u64) as usize];
        let lap = Instant::now();
        let ticket = key
            .submit(service, JobOptions::new())
            .expect("in-process hot submission");
        submit_laps.push(lap.elapsed().as_secs_f64());
        black_box(ticket.wait().expect("in-process hot result"));
        direct_laps.push(lap.elapsed().as_secs_f64());
    }
    outcome.put(
        "core.service.submit_us",
        stats::median(&submit_laps) * 1e6,
        submit_laps.len(),
    );
    outcome.put(
        "server.transport_ms_p50",
        (stats::median(&hot) - stats::median(&direct_laps)) * 1e3,
        direct_laps.len(),
    );

    // One caller, one cold job at a time.
    let mut totals = Vec::new();
    for n in 0..40 {
        let key = pools.cold(2 * CLIENTS, n);
        let lap = Instant::now();
        let ran = key.run_direct(service, CachePolicy::UseOrFill);
        totals.push(lap.elapsed().as_secs_f64());
        outcome.check(ran.is_ok(), "an in-process cold job failed");
    }
    put_service_overhead(outcome, &service.stats(), &totals);

    // ---- probes on the workload's own frames -------------------------------
    let mut control = Client::connect(addr);
    let reply = control
        .request(&pools.hot[0], 0, None)
        .expect("a hot request for the probes");
    let values = reply.result.values.len();
    let result_frame = Frame::Result(reply.result);
    let encoded = wire::encode(&result_frame);
    let encode = probe(|| {
        black_box(wire::encode(black_box(&result_frame)));
    });
    let decode = probe(|| {
        black_box(wire::decode(black_box(&encoded)).expect("decodes"));
    });
    outcome.put(
        "ipc.wire.encode_ns_per_value",
        encode * 1e9 / values as f64,
        values,
    );
    outcome.put(
        "ipc.wire.decode_ns_per_value",
        decode * 1e9 / values as f64,
        values,
    );
    outcome.put("ipc.wire.result_frame_bytes", encoded.len() as f64, 1);

    let spec = pools.warm[0].spec();
    let submit_body = wire::encode(&Frame::Submit {
        spec: spec.clone(),
        options: WireJobOptions::default(),
    });
    let mut raw_request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nAuthorization: Bearer {TOKEN}\r\n\
         Content-Type: application/x-gxplug-frame\r\nContent-Length: {}\r\n\r\n",
        submit_body.len()
    )
    .into_bytes();
    raw_request.extend_from_slice(&submit_body);
    let parse = probe(|| {
        let mut reader: &[u8] = &raw_request;
        black_box(read_request(&mut reader).expect("parses"));
    });
    outcome.put("server.http.parse_us", parse * 1e6, 1);
    let response = Response::frame(200, encoded.clone());
    let mut sink = Vec::with_capacity(encoded.len() + 256);
    let write = probe(|| {
        sink.clear();
        response.write_to(&mut sink).expect("writes to memory");
        black_box(&sink);
    });
    outcome.put("server.http.write_us", write * 1e6, 1);
    let registry = standard_registry();
    let prepare = probe(|| {
        black_box(registry.prepare(black_box(&spec)).is_ok());
        black_box(job_options(&WireJobOptions::default()).is_ok());
    });
    outcome.put("server.model.prepare_us", prepare * 1e6, 1);
    let mut render_laps = Vec::new();
    for _ in 0..20 {
        let lap = Instant::now();
        let scraped = control.exchange("GET", "/metrics", &[]);
        render_laps.push(lap.elapsed().as_secs_f64());
        outcome.check(
            scraped.is_ok_and(|(status, _)| status == 200),
            "GET /metrics failed",
        );
    }
    outcome.put(
        "server.metrics.render_us",
        stats::median(&render_laps) * 1e6,
        render_laps.len(),
    );
    put_hops(outcome);

    // ---- set-up, step by step ----------------------------------------------
    // `standard_service` builds its graph inside; replaying the same calls
    // times its steps.
    let lap = Instant::now();
    let list = Rmat::new(mix.log2_vertices, 8.0).generate(GRAPH_SEED);
    let generate = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let graph = PropertyGraph::from_edge_list(list, ServeVertex::default()).expect("valid list");
    let build = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, 2)
        .expect("partitions");
    let partition = lap.elapsed().as_secs_f64();
    let setup = SetupSpans {
        generate,
        build,
        partition,
        deploy: (deployed.deploy_seconds - generate - build - partition).max(0.0),
        first_run: deployed.first_run_seconds,
    };
    setup.report(outcome, &partitioning);
    finish_traced(outcome, &spans.tracer, "serve_mixed", args.scale);
    drop(control);
    deployed.server.shutdown();
}
