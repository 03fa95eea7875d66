//! The four workloads and what they share: sizes, the seeded generator, the
//! time-boxed closed loop and the result record.

pub mod mutate;
pub mod serve;
pub mod session;

use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use gx_plug::core::StatsSnapshot;
use gx_plug::ipc::{oneshot, sync_queue, OneshotSender};
use gx_plug::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Input sizes: the real ones, or miniatures for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Everything one invocation is told.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub scale: Scale,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the plain one
    /// (end-to-end metrics).
    pub trace: bool,
}

/// One reported number and how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed, were refused or came back wrong.
    pub failed: u64,
    pub samples: Vec<Sample>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(crate::spec::find(name).is_some(), "unknown metric {name}");
        self.samples.push(Sample { name, value, n });
    }

    /// Median of a timing sample given in seconds, reported in milliseconds.
    pub fn put_median_ms(&mut self, name: &'static str, seconds: &[f64]) {
        self.put(name, stats::median(seconds) * 1e3, seconds.len());
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// SplitMix64: the benchmark's own generator, so request streams and
/// mutation batches stay the same whatever `rand` the product links.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over a stream of words: results are compared by fingerprint so a
/// faster system (more jobs in the box) does not hold more memory.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of_f64s<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
        let mut fingerprint = Self::new();
        for value in values {
            fingerprint.word(value.to_bits());
        }
        fingerprint.0
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    pub generate: f64,
    pub build: f64,
    pub partition: f64,
    pub deploy: f64,
    pub first_run: f64,
}

impl SetupSpans {
    /// What `setup_s` reports.
    pub fn total(&self) -> f64 {
        self.generate + self.build + self.partition + self.deploy + self.first_run
    }

    /// The per-step metrics of the traced run.
    pub fn report(&self, outcome: &mut Outcome, partitioning: &Partitioning) {
        outcome.put("graph.generate_s", self.generate, 1);
        outcome.put("graph.build_s", self.build, 1);
        outcome.put("graph.partition_s", self.partition, 1);
        outcome.put(
            "graph.partition.replication_factor",
            partitioning.replication_factor(),
            1,
        );
        outcome.put("core.session.deploy_ms", self.deploy * 1e3, 1);
        outcome.put("core.session.first_run_ms", self.first_run * 1e3, 1);
    }
}

/// One V100-class GPU daemon plus one Xeon CPU daemon on every node.
pub fn mixed_devices(nodes: usize) -> Vec<Vec<DeviceSpec>> {
    (0..nodes)
        .map(|n| {
            vec![
                gpu_v100(format!("node{n}-gpu0")),
                cpu_xeon_20c(format!("node{n}-cpu0")),
            ]
        })
        .collect()
}

/// Fewest operations a measured phase accepts before its box may close.
pub const MIN_OPS: usize = 3;

/// The measured phase: a closed loop that calls `op` back to back until
/// `seconds` have passed and at least [`MIN_OPS`] operations finished.  The
/// box keeps run length the same on every commit while the operation count
/// grows as the code gets faster.  Returns the wall seconds of the whole
/// phase.
pub fn time_box(seconds: f64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    while ops < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        op();
        ops += 1;
    }
    start.elapsed().as_secs_f64()
}

/// Times a small operation: repeats it for ~0.1 s (at least 5 times) and
/// returns the median seconds per call.
pub fn probe(mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut laps = Vec::new();
    while laps.len() < 5 || (start.elapsed().as_secs_f64() < 0.1 && laps.len() < 100_000) {
        let lap = Instant::now();
        op();
        laps.push(lap.elapsed().as_secs_f64());
    }
    stats::median(&laps)
}

/// One-way latency of the two `ipc` primitives the service hands jobs and
/// results over, between two threads: `(queue hop, oneshot hop)` in seconds.
fn hop_probes() -> (f64, f64) {
    const ROUNDS: usize = 20_000;
    // Queue: ping-pong over two queues; a hop is half a round trip.
    let (ping_tx, ping_rx) = sync_queue::<u32>();
    let (pong_tx, pong_rx) = sync_queue::<u32>();
    let queue_hop = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(value) = ping_rx.recv() {
                if pong_tx.send(value).is_err() {
                    break;
                }
            }
        });
        let start = Instant::now();
        for round in 0..ROUNDS {
            ping_tx
                .send(round as u32)
                .expect("the echo thread is alive");
            black_box(pong_rx.recv().expect("the echo thread answers"));
        }
        drop(ping_tx);
        start.elapsed().as_secs_f64() / (2 * ROUNDS) as f64
    });
    // Oneshot: hand a fresh sender over a queue, wait for its one value; the
    // queue hop that carried the sender is subtracted.
    let (work_tx, work_rx) = sync_queue::<OneshotSender<u32>>();
    let round_trip = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(sender) = work_rx.recv() {
                let _ = sender.send(1);
            }
        });
        let start = Instant::now();
        for _ in 0..ROUNDS {
            let (sender, receiver) = oneshot::<u32>();
            work_tx.send(sender).expect("the resolver thread is alive");
            black_box(receiver.recv().expect("the resolver thread answers"));
        }
        drop(work_tx);
        start.elapsed().as_secs_f64() / ROUNDS as f64
    });
    (queue_hop, (round_trip - queue_hop).max(0.0))
}

/// `ipc.queue.hop_ns` and `ipc.oneshot.hop_ns`.
pub fn put_hops(outcome: &mut Outcome) {
    let (queue_hop, oneshot_hop) = hop_probes();
    outcome.put("ipc.queue.hop_ns", queue_hop * 1e9, 1);
    outcome.put("ipc.oneshot.hop_ns", oneshot_hop * 1e9, 1);
}

/// The `core.service.*` counts of a phase `wall` seconds long, from the
/// service's snapshots before and after it.
pub fn put_service_counts(
    outcome: &mut Outcome,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    wall: f64,
    workers: usize,
) {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let lookups = hits + (after.cache_misses - before.cache_misses) as f64;
    let submissions = hits + (after.submitted - before.submitted) as f64;
    outcome.put(
        "core.service.cache_hit_ratio",
        hits / lookups.max(1.0),
        lookups as usize,
    );
    outcome.put(
        "core.service.coalesced_share",
        (after.coalesced_jobs - before.coalesced_jobs) as f64 / submissions.max(1.0),
        submissions as usize,
    );
    outcome.put(
        "core.service.worker_busy_share",
        (after.run_wall_total - before.run_wall_total).as_secs_f64() / (wall * workers as f64),
        (after.completed - before.completed) as usize,
    );
    let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    outcome.put("core.service.queue_wait_ms_p50", ms(after.wait_p50), 1);
    outcome.put("core.service.run_wall_ms_p50", ms(after.wall_p50), 1);
    outcome.put("core.service.hit_us_p50", ms(after.hit_p50) * 1e3, 1);
}

/// `core.service.overhead_ms_p50`: what the service adds around a run.
/// `totals` are the submit-to-answer walls of the newest jobs, submitted by
/// one caller one at a time, so the service's newest queue-wait and run-wall
/// samples are theirs, in order; the overhead is what is left of each total.
pub fn put_service_overhead(outcome: &mut Outcome, stats: &ServiceStats, totals: &[f64]) {
    let newest = |samples: &[Duration]| -> Vec<f64> {
        (samples.iter().rev().take(totals.len()).rev())
            .map(Duration::as_secs_f64)
            .collect()
    };
    let waits = newest(stats.recent_wait_samples());
    let walls = newest(stats.recent_wall_samples());
    let overheads: Vec<f64> = (totals.iter().zip(&waits).zip(&walls))
        .map(|((total, wait), wall)| total - wait - wall)
        .collect();
    outcome.put_median_ms("core.service.overhead_ms_p50", &overheads);
}

/// Ends a traced run: `failed_share`, and the spans go to
/// `out/trace-<workload>.json`.
pub fn finish_traced(outcome: &mut Outcome, tracer: &Tracer, workload: &str, scale: Scale) {
    outcome.put(
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted as usize,
    );
    let path = crate::out_dir(scale).join(format!("trace-{workload}.json"));
    if let Err(error) = tracer.write(workload, &path) {
        eprintln!("could not write {}: {error}", path.display());
    }
}

/// The three end-to-end metrics, identical in form on every workload.
pub fn put_end_to_end(outcome: &mut Outcome, setup_seconds: &[f64], jobs: usize, wall: f64) {
    outcome.put("setup_s", stats::median(setup_seconds), setup_seconds.len());
    outcome.put("jobs_per_s", jobs as f64 / wall, jobs);
    outcome.put("peak_rss_mb", sys::peak_rss_mb(), 1);
}

/// Runs one workload by name.
pub fn run(name: &str, args: RunArgs) -> Option<Outcome> {
    Some(match name {
        "pr_dense" => session::run::<session::PrDense>(args),
        "sssp_sparse" => session::run::<session::SsspSparse>(args),
        "serve_mixed" => serve::run(args),
        "mutate_live" => mutate::run(args),
        _ => return None,
    })
}
