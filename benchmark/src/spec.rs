//! The benchmark's vocabulary: workloads, metrics, units, directions and
//! regression bounds.  `BENCHMARK.json` at the repository root is generated
//! from these tables (`--manifest`), and the package's test checks the two
//! agree.

use crate::json::Json;

/// One named set of inputs.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "pr_dense",
        why: "all-active PageRank on rmat-14 through a warm Session: the superstep data path \
              (fill_triplets, agent, daemon, sync_cache, accel) does nearly all the work",
    },
    WorkloadSpec {
        name: "sssp_sparse",
        why: "255 tiny supersteps of SSSP on a 128x128 road grid: per-superstep fixed cost \
              (frontier scan, thread fan-out, barrier, sync) dominates, the kernel does little",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "2 keep-alive socket clients, 60% hot / 20% LRU-churning / 20% never-repeated jobs: \
              server, ipc::wire and the service cache and lanes do the work on hot requests",
    },
    WorkloadSpec {
        name: "mutate_live",
        why: "writes beside reads on a GraphService: apply a 0.1% edge batch, refresh \
              incrementally, reread from cache; every 8th batch retires edges and forces a reset",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `--compare` calls it a regression; `None` for attribution-only
    /// metrics.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

/// What a user of the system sees, defined on every workload and measured
/// with tracing off.  A *job* is one unit of the workload's closed loop: a
/// `Session::run`, a socket request (POST until the Result frame), or a
/// mutate-refresh-reread round.  The bounds follow what the 2-core reference
/// VM repeats: in quiet minutes a run comes back within 2-6 %, but several
/// times an hour the host slows the thread-heavy workloads by 10-40 % for
/// minutes at a time.  Job latency is not here for that reason: the median
/// hot request of `serve_mixed` alone spread by 25 % over ten runs; the traced
/// run reports each kind of job's median instead.
pub const END_TO_END: [MetricSpec; 3] = [
    lower("setup_s", "s", Some(0.25)),
    higher("jobs_per_s", "1/s", Some(0.25)),
    lower("peak_rss_mb", "MB", Some(0.10)),
];

/// Reported by the traced run.  The first block is user-visible too but
/// exists on some workloads only (0 elsewhere), so it cannot sit in
/// [`END_TO_END`]; `--compare` still holds it to its bound.  The rest is
/// attribution: one layer each, no bound.
pub const PER_LAYER: &[MetricSpec] = &[
    // -- user-visible, workload-specific --------------------------------
    lower("job_ms_p50", "ms", Some(0.10)),
    higher("edges_per_s", "1/s", Some(0.10)),
    higher("supersteps_per_s", "1/s", Some(0.10)),
    higher("sim_accel_ratio", "x", Some(0.0)),
    lower("hot_ms_p50", "ms", Some(0.10)),
    lower("cold_ms_p50", "ms", Some(0.10)),
    lower("refresh_ms_p50", "ms", Some(0.10)),
    lower("full_refresh_ms_p50", "ms", Some(0.10)),
    lower("reread_ms_p50", "ms", Some(0.10)),
    lower("failed_share", "ratio", Some(0.0)),
    // -- graph ----------------------------------------------------------
    lower("graph.generate_s", "s", None),
    lower("graph.build_s", "s", None),
    lower("graph.partition_s", "s", None),
    lower("graph.partition.replication_factor", "ratio", None),
    lower("graph.mutate.append_us_per_op", "us", None),
    // -- engine ---------------------------------------------------------
    lower("engine.cluster.build_ms", "ms", None),
    lower("engine.cluster.reset_ms", "ms", None),
    lower("engine.collect_ms", "ms", None),
    lower("engine.node.frontier_scan_ns_per_edge", "ns", None),
    lower("engine.node.fill_triplets_ns_per_triplet", "ns", None),
    lower("engine.sync.us_per_superstep", "us", None),
    lower("engine.sync.wall_share", "ratio", None),
    lower("engine.sync.remote_msgs_per_superstep", "count", None),
    lower("engine.sync.replica_updates_per_superstep", "count", None),
    higher("engine.sync.skipped_share", "ratio", None),
    lower("engine.supersteps_per_job", "count", None),
    lower("engine.cluster.apply_mutations_ms", "ms", None),
    // -- core -----------------------------------------------------------
    lower("core.agent.wall_share", "ratio", None),
    lower("core.agent.us_per_superstep_node", "us", None),
    lower("core.daemon.gen_ns_per_triplet", "ns", None),
    lower("core.daemon.merge_ns_per_msg", "ns", None),
    lower("core.daemon.launches_per_superstep", "count", None),
    higher("core.pipeline.mean_block_size", "count", None),
    lower("core.sync_cache.wall_share", "ratio", None),
    higher("core.sync_cache.hit_ratio", "ratio", None),
    lower("core.sync_cache.evictions_per_superstep", "count", None),
    higher("core.runtime.threaded_speedup", "x", None),
    lower("core.runtime.coordination_us_per_superstep", "us", None),
    lower("core.middleware.wall_ratio", "x", None),
    lower("core.session.deploy_ms", "ms", None),
    lower("core.session.first_run_ms", "ms", None),
    lower("core.session.apply_mutations_ms", "ms", None),
    lower("core.session.incremental_triplets_per_run", "count", None),
    higher("core.session.incremental_speedup", "x", None),
    lower("core.service.submit_us", "us", None),
    lower("core.service.queue_wait_ms_p50", "ms", None),
    lower("core.service.run_wall_ms_p50", "ms", None),
    lower("core.service.hit_us_p50", "us", None),
    higher("core.service.cache_hit_ratio", "ratio", None),
    higher("core.service.coalesced_share", "ratio", None),
    lower("core.service.worker_busy_share", "ratio", None),
    lower("core.service.overhead_ms_p50", "ms", None),
    // -- accel ----------------------------------------------------------
    lower("accel.launch_overhead_ns", "ns", None),
    lower("accel.launch_ns_per_item", "ns", None),
    higher("accel.host_parallel_speedup", "x", None),
    // -- algos ----------------------------------------------------------
    lower("algos.msg_gen_ns_per_triplet", "ns", None),
    // -- ipc ------------------------------------------------------------
    lower("ipc.wire.encode_ns_per_value", "ns", None),
    lower("ipc.wire.decode_ns_per_value", "ns", None),
    lower("ipc.wire.result_frame_bytes", "bytes", None),
    lower("ipc.queue.hop_ns", "ns", None),
    lower("ipc.oneshot.hop_ns", "ns", None),
    // -- server ---------------------------------------------------------
    lower("server.transport_ms_p50", "ms", None),
    lower("server.http.post_ms_p50", "ms", None),
    lower("server.http.get_ms_p50", "ms", None),
    lower("server.http.parse_us", "us", None),
    lower("server.http.write_us", "us", None),
    lower("server.model.prepare_us", "us", None),
    lower("server.metrics.render_us", "us", None),
    lower("server.polls_per_cold_job", "count", None),
    lower("server.rejected_share", "ratio", None),
    lower("server.hot_ms_p99", "ms", None),
    lower("server.cold_ms_p95", "ms", None),
    // -- the tracing itself ---------------------------------------------
    lower("trace.overhead_share", "ratio", None),
];

/// Seconds one run measures when the caller does not say.
pub const RUN_SECONDS: u64 = 12;

pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|spec| spec.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            (
                                "bound",
                                Json::Num(m.bound.expect("end-to-end metrics are bounded")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
