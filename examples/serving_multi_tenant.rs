//! Multi-tenant serving: mixed PageRank/SSSP traffic through one
//! [`GraphService`], with priority lanes and per-job overrides.
//!
//! One accelerator deployment serves many tenants at once.  PageRank-style
//! and SSSP-style jobs are *different algorithm types*; each is submitted
//! as itself, and the service erases the run behind its job queue, so both
//! share a single scheduler queue — the service never needs to know which
//! is which, nor that their messages agree.  Interactive SSSP tenants
//! submit at high priority; the heavier PageRank batch jobs ride the
//! low-priority lane.
//!
//! ```bash
//! cargo run --release --example serving_multi_tenant
//! ```

use gx_plug::prelude::*;
use std::sync::Arc;

/// The vertex attribute one deployed graph needs to serve both tenant
/// families: the graph is deployed *once*, so its vertex state carries a
/// slot for each algorithm family (exactly like a GraphX property graph
/// whose schema is the union of the queries run against it).
#[derive(Debug, Clone, PartialEq)]
struct TenantVertex {
    /// PageRank state.
    rank: f64,
    /// SSSP state.
    dist: f64,
    /// Static out-degree, pre-computed for PageRank contributions.
    degree: u32,
}

/// PageRank over [`TenantVertex`] (messages: summed `f64` contributions).
struct RankJob {
    damping: f64,
    iterations: usize,
}

impl GraphAlgorithm<TenantVertex, f64> for RankJob {
    type Msg = f64;

    fn init_vertex(&self, _v: VertexId, out_degree: usize) -> TenantVertex {
        TenantVertex {
            rank: 1.0,
            dist: f64::INFINITY,
            degree: out_degree as u32,
        }
    }

    fn msg_gen_into(
        &self,
        t: &Triplet<TenantVertex, f64>,
        _i: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        let degree = t.src_attr.degree.max(1) as f64;
        out.push(AddressedMessage::new(t.dst, t.src_attr.rank / degree));
    }

    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn msg_apply(
        &self,
        _v: VertexId,
        current: &TenantVertex,
        sum: &f64,
        _i: usize,
    ) -> Option<TenantVertex> {
        Some(TenantVertex {
            rank: (1.0 - self.damping) + self.damping * sum,
            ..current.clone()
        })
    }

    fn max_iterations(&self) -> usize {
        self.iterations
    }

    fn always_active(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "rank-job"
    }
}

/// SSSP over [`TenantVertex`] (messages: min-merged `f64` distances) — a
/// different implementation sharing the service's queue with [`RankJob`].
struct ReachJob {
    source: VertexId,
}

impl GraphAlgorithm<TenantVertex, f64> for ReachJob {
    type Msg = f64;

    fn init_vertex(&self, v: VertexId, out_degree: usize) -> TenantVertex {
        TenantVertex {
            rank: 1.0,
            dist: if v == self.source { 0.0 } else { f64::INFINITY },
            degree: out_degree as u32,
        }
    }

    fn msg_gen_into(
        &self,
        t: &Triplet<TenantVertex, f64>,
        _i: usize,
        out: &mut Vec<AddressedMessage<f64>>,
    ) {
        if t.src_attr.dist.is_finite() {
            out.push(AddressedMessage::new(t.dst, t.src_attr.dist + t.edge_attr));
        }
    }

    fn msg_merge(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn msg_apply(
        &self,
        _v: VertexId,
        current: &TenantVertex,
        dist: &f64,
        _i: usize,
    ) -> Option<TenantVertex> {
        (*dist + 1e-12 < current.dist).then(|| TenantVertex {
            dist: *dist,
            ..current.clone()
        })
    }

    fn initial_active(&self, _n: usize) -> Option<Vec<VertexId>> {
        Some(vec![self.source])
    }

    fn name(&self) -> &'static str {
        "reach-job"
    }
}

fn main() {
    // One power-law graph, deployed once, serving every tenant below.
    let list = Rmat::new(12, 8.0).generate(42);
    let default = TenantVertex {
        rank: 1.0,
        dist: f64::INFINITY,
        degree: 0,
    };
    let graph = Arc::new(PropertyGraph::from_edge_list(list, default).expect("valid edge list"));
    let num_nodes = 2;
    let partitioning = GreedyVertexCutPartitioner::default()
        .partition(&graph, num_nodes)
        .expect("partitioning succeeds");

    // The service: two pooled worker deployments (one GPU daemon per node
    // each), a bounded queue, blocking admission.
    let service = GraphService::builder(Arc::clone(&graph))
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .devices(vec![
            vec![gpu_v100("node0-gpu0")],
            vec![gpu_v100("node1-gpu0")],
        ])
        .dataset("rmat12")
        .max_iterations(200)
        .worker_sessions(2)
        .queue_depth(32)
        .build()
        .expect("a valid deployment");
    println!(
        "service up: {} worker sessions, queue depth {}",
        service.worker_sessions(),
        service.queue_depth()
    );

    // The traffic mix, all in one queue: interactive SSSP tenants at
    // high priority, PageRank batch analytics at low priority.  Submission
    // is non-blocking; every tenant gets a ticket.
    let mut tickets: Vec<(String, JobTicket<TenantVertex>)> = Vec::new();
    for source in [0u32, 7, 23, 41] {
        let ticket = service
            .submit_with(
                ReachJob { source },
                JobOptions::new().with_priority(JobPriority::High),
            )
            .expect("service is accepting");
        tickets.push((format!("sssp from {source}"), ticket));
    }
    for (damping, iterations) in [(0.85, 20), (0.90, 15)] {
        let ticket = service
            .submit_with(
                RankJob {
                    damping,
                    iterations,
                },
                JobOptions::new()
                    .with_priority(JobPriority::Low)
                    // Batch tenants also carry their own iteration budget —
                    // routed through this job only, never mutating the
                    // deployment for the tenants after it.
                    .with_max_iterations(iterations),
            )
            .expect("service is accepting");
        tickets.push((format!("pagerank d={damping}"), ticket));
    }
    println!("submitted {} tenant jobs", tickets.len());

    // Collect: every ticket resolves independently.
    for (label, ticket) in tickets {
        let outcome = ticket.wait().expect("job succeeds");
        println!(
            "  {label:<16} -> {} iterations, converged={}, total {:?}",
            outcome.report.num_iterations(),
            outcome.report.converged,
            outcome.report.total_time(),
        );
    }

    // The books: queue wait vs run wall separates saturation from job cost.
    let stats = service.stats_snapshot();
    println!(
        "served {} jobs ({} completed) on {} workers",
        stats.submitted, stats.completed, stats.worker_sessions
    );
    if let (Some(p50), Some(p90)) = (stats.wait_p50, stats.wait_p90) {
        println!("queue wait p50 {p50:?}, p90 {p90:?}");
    }

    // Drain-shutdown: deterministic teardown, every worker session closed.
    service.shutdown();
    println!("service drained and shut down");
}
