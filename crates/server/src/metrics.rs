//! Prometheus text exposition of the serving stack.
//!
//! `GET /metrics` renders one [`StatsSnapshot`] — the lock-consistent service
//! view, so `executed <= submitted` holds inside a single scrape — plus the
//! server's own per-tenant counters, in the Prometheus text format
//! (version 0.0.4): `# HELP` / `# TYPE` preamble, one sample per line,
//! labels in `{}`.  Everything is computed from a point-in-time snapshot;
//! the renderer itself takes no locks.

use crate::auth::Tenant;
use gxplug_core::StatsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Per-tenant serving counters, maintained by the server and rendered next
/// to the service-wide snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs this tenant submitted that the service accepted.
    pub submitted: u64,
    /// Submissions rejected over quota (429s).
    pub rejected: u64,
    /// The tenant's jobs currently queued or running.
    pub in_flight: u64,
}

/// Renders the full `/metrics` payload.
///
/// `tenants` pairs each tenant with its counters; a [`BTreeMap`] keyed by
/// tenant name keeps the exposition order deterministic scrape-to-scrape.
pub fn render(
    snapshot: &StatsSnapshot,
    tenants: &BTreeMap<String, (Tenant, TenantCounters)>,
) -> String {
    let mut out = String::with_capacity(4096);

    let counters: [(&str, &str, u64); 8] = [
        (
            "jobs_submitted",
            "Jobs accepted into the queue",
            snapshot.submitted,
        ),
        (
            "jobs_completed",
            "Jobs that ran to a successful outcome",
            snapshot.completed,
        ),
        (
            "jobs_failed",
            "Jobs that failed with a session error",
            snapshot.failed,
        ),
        (
            "jobs_cancelled",
            "Jobs cancelled before running",
            snapshot.cancelled,
        ),
        (
            "jobs_panicked",
            "Jobs that panicked while running",
            snapshot.panicked,
        ),
        (
            "cache_hits",
            "Submissions served from the result cache",
            snapshot.cache_hits,
        ),
        (
            "cache_misses",
            "Cache-eligible submissions that queued normally",
            snapshot.cache_misses,
        ),
        (
            "coalesced_jobs",
            "Duplicate jobs resolved from another job's flight",
            snapshot.coalesced_jobs,
        ),
    ];
    for (name, help, value) in counters {
        let _ = writeln!(out, "# HELP gxplug_{name}_total {help}.");
        let _ = writeln!(out, "# TYPE gxplug_{name}_total counter");
        let _ = writeln!(out, "gxplug_{name}_total {value}");
    }

    let gauges: [(&str, &str, u64); 3] = [
        (
            "jobs_queued",
            "Jobs currently waiting in the priority lanes",
            snapshot.queued as u64,
        ),
        (
            "jobs_running",
            "Jobs currently executing on worker sessions",
            snapshot.running as u64,
        ),
        (
            "worker_sessions",
            "Worker sessions the service was built with",
            snapshot.worker_sessions as u64,
        ),
    ];
    for (name, help, value) in gauges {
        let _ = writeln!(out, "# HELP gxplug_{name} {help}.");
        let _ = writeln!(out, "# TYPE gxplug_{name} gauge");
        let _ = writeln!(out, "gxplug_{name} {value}");
    }

    summary(
        &mut out,
        "gxplug_queue_wait_seconds",
        "Queue wait of executed jobs",
        &[
            ("0.5", snapshot.wait_p50),
            ("0.9", snapshot.wait_p90),
            ("0.99", snapshot.wait_p99),
        ],
        snapshot.queue_wait_total,
        snapshot.executed(),
    );
    summary(
        &mut out,
        "gxplug_run_wall_seconds",
        "Wall time of physical runs",
        &[
            ("0.5", snapshot.wall_p50),
            ("0.9", snapshot.wall_p90),
            ("0.99", snapshot.wall_p99),
        ],
        snapshot.run_wall_total,
        snapshot.completed + snapshot.failed,
    );

    if !tenants.is_empty() {
        let _ = writeln!(
            out,
            "# HELP gxplug_tenant_jobs_submitted_total Accepted submissions per tenant."
        );
        let _ = writeln!(out, "# TYPE gxplug_tenant_jobs_submitted_total counter");
        for (name, (_, counters)) in tenants {
            let _ = writeln!(
                out,
                "gxplug_tenant_jobs_submitted_total{{tenant=\"{name}\"}} {}",
                counters.submitted
            );
        }
        let _ = writeln!(
            out,
            "# HELP gxplug_tenant_jobs_rejected_total Over-quota rejections per tenant."
        );
        let _ = writeln!(out, "# TYPE gxplug_tenant_jobs_rejected_total counter");
        for (name, (_, counters)) in tenants {
            let _ = writeln!(
                out,
                "gxplug_tenant_jobs_rejected_total{{tenant=\"{name}\"}} {}",
                counters.rejected
            );
        }
        let _ = writeln!(
            out,
            "# HELP gxplug_tenant_jobs_in_flight Queued or running jobs per tenant."
        );
        let _ = writeln!(out, "# TYPE gxplug_tenant_jobs_in_flight gauge");
        for (name, (tenant, counters)) in tenants {
            let _ = writeln!(
                out,
                "gxplug_tenant_jobs_in_flight{{tenant=\"{name}\"}} {}",
                counters.in_flight
            );
            let _ = writeln!(
                out,
                "gxplug_tenant_jobs_in_flight_limit{{tenant=\"{name}\"}} {}",
                tenant.quota.max_in_flight
            );
        }
    }

    out
}

/// Appends one Prometheus summary: quantile samples (omitted while no data
/// has been retained), `_sum` in seconds and `_count`.
fn summary(
    out: &mut String,
    name: &str,
    help: &str,
    quantiles: &[(&str, Option<Duration>)],
    sum: Duration,
    count: u64,
) {
    let _ = writeln!(out, "# HELP {name} {help}.");
    let _ = writeln!(out, "# TYPE {name} summary");
    for (q, value) in quantiles {
        if let Some(value) = value {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", value.as_secs_f64());
        }
    }
    let _ = writeln!(out, "{name}_sum {}", sum.as_secs_f64());
    let _ = writeln!(out, "{name}_count {count}");
}

/// A structural validity check of Prometheus text exposition, used by the
/// tests (and usable by callers that scrape themselves): every non-comment
/// line must be `name{labels} value` with a parseable value, and every
/// sample's metric family must have been introduced by a `# TYPE` line.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| format!("line {}: empty TYPE", number + 1))?;
            typed.push(family.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value", number + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: unparseable value {value:?}", number + 1))?;
        let name = name_and_labels
            .split('{')
            .next()
            .unwrap_or(name_and_labels)
            .to_string();
        if !typed.iter().any(|family| name.starts_with(family.as_str())) {
            return Err(format!("line {}: sample {name} lacks a TYPE", number + 1));
        }
        samples.push((name, value));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> StatsSnapshot {
        StatsSnapshot {
            submitted: 10,
            completed: 7,
            failed: 1,
            cancelled: 1,
            panicked: 0,
            cache_hits: 3,
            cache_misses: 5,
            coalesced_jobs: 0,
            queued: 1,
            running: 1,
            worker_sessions: 2,
            queue_wait_total: Duration::from_millis(120),
            queue_wait_max: Duration::from_millis(40),
            run_wall_total: Duration::from_millis(900),
            run_wall_max: Duration::from_millis(300),
            wait_p50: Some(Duration::from_millis(10)),
            wait_p90: Some(Duration::from_millis(35)),
            wait_p99: Some(Duration::from_millis(40)),
            wall_p50: Some(Duration::from_millis(100)),
            wall_p90: Some(Duration::from_millis(250)),
            wall_p99: Some(Duration::from_millis(300)),
            hit_p50: None,
        }
    }

    #[test]
    fn the_exposition_parses_and_carries_the_counters() {
        let mut tenants = BTreeMap::new();
        tenants.insert(
            "acme".to_string(),
            (
                Tenant::new("acme"),
                TenantCounters {
                    submitted: 4,
                    rejected: 2,
                    in_flight: 1,
                },
            ),
        );
        let text = render(&snapshot(), &tenants);
        let samples = parse_exposition(&text).unwrap();
        let value = |name: &str| {
            samples
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(value("gxplug_jobs_submitted_total"), 10.0);
        assert_eq!(value("gxplug_jobs_queued"), 1.0);
        assert_eq!(value("gxplug_queue_wait_seconds"), 0.010);
        assert_eq!(value("gxplug_queue_wait_seconds_count"), 8.0);
        assert_eq!(value("gxplug_tenant_jobs_rejected_total"), 2.0);
        assert_eq!(value("gxplug_tenant_jobs_in_flight_limit"), 16.0);
    }

    #[test]
    fn empty_percentiles_are_omitted_not_zeroed() {
        let mut empty = snapshot();
        empty.wait_p50 = None;
        empty.wait_p90 = None;
        empty.wait_p99 = None;
        let text = render(&empty, &BTreeMap::new());
        assert!(!text.contains("gxplug_queue_wait_seconds{quantile=\"0.5\"}"));
        // The summary skeleton stays.
        assert!(text.contains("gxplug_queue_wait_seconds_sum"));
        parse_exposition(&text).unwrap();
    }

    #[test]
    fn the_parser_rejects_untyped_and_garbled_samples() {
        assert!(parse_exposition("loose_metric 1\n").is_err());
        assert!(parse_exposition("# TYPE m counter\nm not-a-number\n").is_err());
        assert!(parse_exposition("# TYPE m counter\nm 4\n").is_ok());
    }
}
