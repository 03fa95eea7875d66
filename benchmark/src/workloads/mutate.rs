//! `mutate_live`: writes beside reads, in-process on a [`GraphService`].
//!
//! rmat-12 over 4 nodes with mixed devices and one worker session, so which
//! worker holds the warm state is never in question.  Each round applies one
//! batch of 0.1 % of the edges (32 inserts), asks for
//! `MultiSourceSssp::paper_default()` — a version bump, so a cache miss, an
//! in-place replay of the batch and an incremental recompute from the dirty
//! frontier — and asks again (a cache hit).  Every 8th batch also *retires*
//! the edges the rounds since the last retirement inserted: a removal gates
//! the warm path off and forces a full reset, and it keeps the graph the
//! same size however many rounds fit the box, so a faster system is not
//! measured on a bigger graph.
//!
//! The shared structures are the ones `pr_dense` reads; here they are
//! written, so a layout that speeds reads and slows `apply_mutations`, or a
//! cache change that breaks version bumps, shows here and nowhere else.

use super::{
    finish_traced, mixed_devices, put_end_to_end, put_hops, put_service_counts,
    put_service_overhead, time_box, Fingerprint, Outcome, Rng, RunArgs, Scale, SetupSpans,
};
use crate::stats;
use crate::trace::{Bucket, Tracer};
use gx_plug::prelude::*;
use std::sync::Arc;
use std::time::Instant;

type Graph = PropertyGraph<Vec<f64>, f64>;
type Batch = MutationBatch<Vec<f64>, f64>;
type Delta = Arc<ResolvedMutation<Vec<f64>, f64>>;

const NODES: usize = 4;
/// Every `RETIRE_EVERY`-th batch removes what the others inserted.
const RETIRE_EVERY: usize = 8;
/// Every `CHECK_EVERY`-th round's answer is rebuilt from scratch afterwards.
const CHECK_EVERY: usize = 16;
/// At most this many of those rebuilds run, evenly spread over the phase.
const MAX_REBUILDS: usize = 8;
/// Set-ups per run whose median is `setup_s` (a set-up takes ~90 ms).
const SETUPS: usize = 15;

fn fingerprint(values: &[Vec<f64>]) -> u64 {
    Fingerprint::of_f64s(values.iter().flatten())
}

struct Deployed {
    graph: Arc<Graph>,
    partitioning: Partitioning,
    service: GraphService<Vec<f64>, f64>,
    setup: SetupSpans,
}

fn deploy(scale: Scale, seed: u64) -> Deployed {
    let log2_vertices = match scale {
        Scale::Full => 12,
        Scale::Smoke => 8,
    };
    let lap = Instant::now();
    let list = Rmat::new(log2_vertices, 8.0).generate(seed);
    let generate = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let graph = Arc::new(PropertyGraph::from_edge_list(list, Vec::new()).expect("valid list"));
    let build = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, NODES)
        .expect("rmat graphs partition");
    let partition = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let service = GraphService::builder(Arc::clone(&graph))
        .partitioned_by(partitioning.clone())
        .devices(mixed_devices(NODES))
        .worker_sessions(1)
        .build()
        .expect("a valid deployment");
    let deploy = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    service
        .submit(MultiSourceSssp::paper_default())
        .and_then(JobTicket::wait)
        .expect("the first cold job runs");
    let first_run = lap.elapsed().as_secs_f64();
    Deployed {
        graph,
        partitioning,
        service,
        setup: SetupSpans {
            generate,
            build,
            partition,
            deploy,
            first_run,
        },
    }
}

/// Generates the round batches from the seed and tracks which tail of the
/// edge id space the benchmark itself inserted.
struct Churn {
    rng: Rng,
    num_vertices: u64,
    batch_edges: usize,
    /// Edges currently in the graph, and how many of the newest are ours.
    num_edges: usize,
    inserted: usize,
    round: usize,
}

impl Churn {
    fn new(graph: &Graph, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 3),
            num_vertices: graph.num_vertices() as u64,
            batch_edges: (graph.num_edges() / 1000).max(1),
            num_edges: graph.num_edges(),
            inserted: 0,
            round: 0,
        }
    }

    /// The next batch, and whether it retires edges.
    fn next(&mut self) -> (Batch, bool) {
        self.round += 1;
        let retire = self.round.is_multiple_of(RETIRE_EVERY);
        let mut batch = Batch::new();
        if retire {
            // Added edges take the largest ids, so ours are the tail.
            for edge in self.num_edges - self.inserted..self.num_edges {
                batch = batch.remove_edge(edge);
            }
            self.num_edges -= self.inserted;
            self.inserted = 0;
        }
        for i in 0..self.batch_edges {
            let src = self.rng.below(self.num_vertices) as u32;
            let dst = self.rng.below(self.num_vertices) as u32;
            batch = batch.add_edge(src, dst, 0.5 + (i % 7) as f64);
        }
        self.num_edges += self.batch_edges;
        self.inserted += self.batch_edges;
        (batch, retire)
    }
}

#[derive(Default)]
struct Rounds {
    /// Whole rounds, seconds.
    round: Vec<f64>,
    /// `apply_mutations` call until the fresh answer, insert-only rounds.
    refresh: Vec<f64>,
    /// The same on rounds whose batch retires edges.
    full_refresh: Vec<f64>,
    /// The second ask of the round.
    reread: Vec<f64>,
    /// The `submit` call alone.
    submit: Vec<f64>,
    /// Triplets the incremental refreshes processed.
    incremental_triplets: Vec<f64>,
    /// Every batch the service accepted, for the rebuild checks.
    deltas: Vec<Delta>,
    /// `(rounds applied, fingerprint of the answer)` every 16th round.
    snapshots: Vec<(usize, u64)>,
}

/// One round; spans go to `tracer` when there is one.
fn round(
    service: &GraphService<Vec<f64>, f64>,
    churn: &mut Churn,
    rounds: &mut Rounds,
    outcome: &mut Outcome,
    tracer: Option<&mut Tracer>,
) {
    let algorithm = MultiSourceSssp::paper_default();
    let (batch, retire) = churn.next();
    let job = rounds.round.len() as u64;
    let start = Instant::now();
    let applied = service.apply_mutations(&batch);
    let mutated = Instant::now();
    let ticket = service.submit(algorithm.clone());
    let submitted = Instant::now();
    let fresh = ticket.and_then(JobTicket::wait);
    let refreshed = Instant::now();
    let again = service.submit(algorithm).and_then(JobTicket::wait);
    let end = Instant::now();

    if let Some(tracer) = tracer {
        let span = tracer.record("round", None, None, job, Bucket::Compute, start, end);
        let parent = Some(span);
        tracer.record(
            "service.apply_mutations",
            None,
            parent,
            job,
            Bucket::Preprocessing,
            start,
            mutated,
        );
        tracer.record(
            "refresh",
            None,
            parent,
            job,
            Bucket::Compute,
            mutated,
            refreshed,
        );
        tracer.record(
            "reread",
            None,
            parent,
            job,
            Bucket::Transfer,
            refreshed,
            end,
        );
    }
    rounds.round.push((end - start).as_secs_f64());
    rounds.submit.push((submitted - mutated).as_secs_f64());
    let refresh = (refreshed - start).as_secs_f64();
    if retire {
        rounds.full_refresh.push(refresh);
    } else {
        rounds.refresh.push(refresh);
    }
    rounds.reread.push((end - refreshed).as_secs_f64());

    match (applied, fresh, again) {
        (Ok(delta), Ok(fresh), Ok(again)) => {
            let bits = fingerprint(&fresh.values);
            outcome.check(
                bits == fingerprint(&again.values),
                "the reread differs from the refresh it should repeat",
            );
            if !retire {
                rounds
                    .incremental_triplets
                    .push(fresh.report.total_triplets() as f64);
            }
            rounds.deltas.push(delta);
            if rounds.deltas.len().is_multiple_of(CHECK_EVERY) {
                rounds.snapshots.push((rounds.deltas.len(), bits));
            }
        }
        (applied, fresh, again) => {
            let why = format!(
                "apply {:?}, refresh {:?}, reread {:?}",
                applied.err(),
                fresh.err(),
                again.err()
            );
            outcome.check(false, &why);
        }
    }
}

/// Outside the clock: rebuilds a session from scratch over the graph as it
/// stood at (a spread of) the snapshot versions and compares the bits.
fn verify_rebuilds(deployed: &Deployed, rounds: &Rounds, outcome: &mut Outcome) {
    let stride = rounds.snapshots.len().div_ceil(MAX_REBUILDS).max(1);
    let mut graph = (*deployed.graph).clone();
    let mut partitioning = deployed.partitioning.clone();
    let mut applied = 0;
    for &(version, expected) in rounds.snapshots.iter().skip(stride - 1).step_by(stride) {
        for delta in &rounds.deltas[applied..version] {
            graph.apply_mutations(delta);
            partitioning.apply_mutations(delta);
        }
        applied = version;
        let rebuilt = SessionBuilder::new(&graph)
            .partitioned_by(partitioning.clone())
            .devices(mixed_devices(NODES))
            .build()
            .and_then(|mut session| session.run(&MultiSourceSssp::paper_default()));
        outcome.check(
            rebuilt.is_ok_and(|run| fingerprint(&run.values) == expected),
            "the mutated service's answer is not bit-identical to a rebuild at that version",
        );
    }
}

pub fn run(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if args.trace {
        traced(args, &mut outcome);
        return outcome;
    }
    let mut setup_seconds = Vec::new();
    let deployed = loop {
        let deployed = deploy(args.scale, args.seed);
        setup_seconds.push(deployed.setup.total());
        if setup_seconds.len() == SETUPS {
            break deployed;
        }
    };
    let mut churn = Churn::new(&deployed.graph, args.seed);
    let mut rounds = Rounds::default();
    let wall = time_box(args.seconds, || {
        round(
            &deployed.service,
            &mut churn,
            &mut rounds,
            &mut outcome,
            None,
        )
    });
    verify_rebuilds(&deployed, &rounds, &mut outcome);
    put_end_to_end(&mut outcome, &setup_seconds, rounds.round.len(), wall);
    deployed.service.shutdown();
    outcome
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

fn traced(args: RunArgs, outcome: &mut Outcome) {
    let deployed = deploy(args.scale, args.seed);
    let service = &deployed.service;
    let mut churn = Churn::new(&deployed.graph, args.seed);

    // ---- tracing off, then the same rounds with spans ----------------------
    let mut plain = Rounds::default();
    time_box(args.seconds / 3.0, || {
        round(service, &mut churn, &mut plain, outcome, None)
    });
    let mut tracer = Tracer::new();
    let mut spans = Rounds::default();
    let before = service.stats_snapshot();
    let spans_wall = time_box(args.seconds / 3.0, || {
        round(service, &mut churn, &mut spans, outcome, Some(&mut tracer))
    });
    let after = service.stats_snapshot();
    // The rebuild checks walk the log from version 0, so they need both
    // phases' batches in order.
    let base = plain.deltas.len();
    let mut all = Rounds {
        deltas: plain.deltas.clone(),
        snapshots: plain.snapshots.clone(),
        ..Rounds::default()
    };
    all.deltas.extend(spans.deltas.iter().cloned());
    all.snapshots
        .extend(spans.snapshots.iter().map(|&(v, bits)| (base + v, bits)));
    verify_rebuilds(&deployed, &all, outcome);

    outcome.put_median_ms("refresh_ms_p50", &plain.refresh);
    outcome.put_median_ms("full_refresh_ms_p50", &plain.full_refresh);
    outcome.put_median_ms("reread_ms_p50", &plain.reread);
    outcome.put(
        "trace.overhead_share",
        stats::median(&spans.round) / stats::median(&plain.round) - 1.0,
        spans.round.len(),
    );
    outcome.put(
        "core.session.incremental_triplets_per_run",
        stats::median(&plain.incremental_triplets),
        plain.incremental_triplets.len(),
    );
    outcome.put(
        "core.service.submit_us",
        stats::median(&spans.submit) * 1e6,
        spans.submit.len(),
    );

    // ---- counts: the traced phase's stats delta ----------------------------
    put_service_counts(outcome, &before, &after, spans_wall, 1);
    // A refresh is the round without its write and its reread.
    let asks: Vec<f64> = (spans.round.iter().zip(&spans.reread))
        .zip(tracer.durations("service.apply_mutations"))
        .map(|((round, reread), apply)| round - reread - apply)
        .collect();
    let newest = asks.len().saturating_sub(128);
    put_service_overhead(outcome, &service.stats(), &asks[newest..]);

    // ---- probes and diffs on a plain session, over the same batches --------
    session_probes(&deployed, args.seed, outcome);
    put_hops(outcome);
    deployed.setup.report(outcome, &deployed.partitioning);
    finish_traced(outcome, &tracer, "mutate_live", args.scale);
    deployed.service.shutdown();
}

/// Replays insert-only batches of the workload's own shape through each
/// layer's `apply_mutations` in isolation, and runs the refresh both ways —
/// incrementally and after `forget_warm_state` — on one plain session each.
fn session_probes(deployed: &Deployed, seed: u64, outcome: &mut Outcome) {
    const BATCHES: usize = 16;
    let algorithm = MultiSourceSssp::paper_default();
    let graph = &*deployed.graph;
    let mut churn = Churn::new(graph, seed ^ 0x5eed);
    let mut log = MutationLog::new(
        graph.num_vertices(),
        graph.edges().iter().map(|e| (e.src, e.dst)),
    );
    let mut append_per_op = Vec::new();
    let deltas: Vec<Delta> = (0..BATCHES)
        .map(|_| {
            // Skip the retiring batches: the probes time the insert-only path.
            let batch = loop {
                let (batch, retire) = churn.next();
                if !retire {
                    break batch;
                }
            };
            let lap = Instant::now();
            let delta = log.append(&batch).expect("a valid batch");
            append_per_op.push(lap.elapsed().as_secs_f64() / batch.len() as f64);
            delta
        })
        .collect();
    outcome.put(
        "graph.mutate.append_us_per_op",
        stats::median(&append_per_op) * 1e6,
        append_per_op.len(),
    );

    let mut cluster = Cluster::build(
        graph,
        deployed.partitioning.clone(),
        &algorithm,
        RuntimeProfile::powergraph(),
        NetworkModel::datacenter(),
    );
    let cluster_applies: Vec<f64> = (deltas.iter())
        .map(|delta| {
            let lap = Instant::now();
            cluster.apply_mutations(delta);
            lap.elapsed().as_secs_f64()
        })
        .collect();
    outcome.put_median_ms("engine.cluster.apply_mutations_ms", &cluster_applies);

    let session = || {
        let mut session = SessionBuilder::new(graph)
            .partitioned_by(deployed.partitioning.clone())
            .devices(mixed_devices(NODES))
            .build()
            .expect("a valid deployment");
        session.run(&algorithm).expect("the warm-up job runs");
        session
    };
    let mut incremental = session();
    let mut full = session();
    let mut session_applies = Vec::new();
    let mut incremental_walls = Vec::new();
    let mut full_walls = Vec::new();
    for delta in &deltas {
        let lap = Instant::now();
        incremental.apply_mutations(delta);
        session_applies.push(lap.elapsed().as_secs_f64());
        let lap = Instant::now();
        let warm = incremental.run(&algorithm);
        incremental_walls.push(lap.elapsed().as_secs_f64());

        full.apply_mutations(delta);
        full.forget_warm_state();
        let lap = Instant::now();
        let reset = full.run(&algorithm);
        full_walls.push(lap.elapsed().as_secs_f64());
        outcome.check(
            matches!((&warm, &reset), (Ok(w), Ok(r)) if fingerprint(&w.values) == fingerprint(&r.values)),
            "incremental recompute is not bit-identical to the full one",
        );
    }
    outcome.put_median_ms("core.session.apply_mutations_ms", &session_applies);
    outcome.put(
        "core.session.incremental_speedup",
        stats::median(&full_walls) / stats::median(&incremental_walls),
        full_walls.len(),
    );
}
