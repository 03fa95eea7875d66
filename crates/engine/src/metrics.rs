//! Per-iteration and per-run metrics.
//!
//! The evaluation reports times at several granularities: total computation
//! time per algorithm/system/dataset (Fig. 8, 9), per-mechanism breakdowns
//! (Fig. 10–13), the ratio of middleware time to total time (Fig. 14) and
//! per-iteration block statistics (Fig. 15).  [`IterationMetrics`] and
//! [`RunReport`] carry everything those harnesses need.

use gxplug_accel::SimDuration;
use serde::{Deserialize, Serialize};

/// Timing and volume breakdown of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationMetrics {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Number of vertices active at the start of the iteration (cluster-wide).
    pub active_vertices: usize,
    /// Number of edge triplets processed (cluster-wide).
    pub triplets_processed: usize,
    /// Slowest node's compute time (the barrier waits for it).
    pub compute: SimDuration,
    /// Portion of `compute` spent inside the middleware (agent/daemon work,
    /// transfers, packaging); zero for native runs.
    pub middleware: SimDuration,
    /// Time spent in upper-system per-iteration scheduling overhead.
    pub upper_overhead: SimDuration,
    /// Time spent in the global synchronisation phase.
    pub sync: SimDuration,
    /// Messages routed to remote masters during synchronisation.
    pub remote_messages: usize,
    /// Replica copies refreshed during synchronisation.
    pub replica_updates: usize,
    /// Whether the global synchronisation was skipped for this iteration
    /// (synchronization-skipping optimisation, §III-B3).
    pub sync_skipped: bool,
}

impl IterationMetrics {
    /// Total simulated time of the iteration.
    pub fn total(&self) -> SimDuration {
        self.compute + self.upper_overhead + self.sync
    }
}

/// The outcome of running an algorithm on a cluster configuration.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Algorithm name.
    pub algorithm: String,
    /// System label (e.g. "PowerGraph", "GraphX+GPU").
    pub system: String,
    /// Dataset label.
    pub dataset: String,
    /// Number of distributed nodes.
    pub num_nodes: usize,
    /// Per-iteration metrics in execution order.
    pub iterations: Vec<IterationMetrics>,
    /// Whether the run converged (no active vertices remained) rather than
    /// hitting the iteration cap.
    pub converged: bool,
    /// One-off setup time (device initialisation, daemon start-up) attributed
    /// to the run.
    pub setup: SimDuration,
}

impl RunReport {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total simulated time, including setup.
    pub fn total_time(&self) -> SimDuration {
        self.setup + self.iterations.iter().map(|it| it.total()).sum()
    }

    /// Total compute time (max-per-node, summed over iterations).
    pub fn compute_time(&self) -> SimDuration {
        self.iterations.iter().map(|it| it.compute).sum()
    }

    /// Total synchronisation time.
    pub fn sync_time(&self) -> SimDuration {
        self.iterations.iter().map(|it| it.sync).sum()
    }

    /// Total middleware-attributed time.
    pub fn middleware_time(&self) -> SimDuration {
        self.setup + self.iterations.iter().map(|it| it.middleware).sum()
    }

    /// Ratio of middleware time to total time (Fig. 14's y-axis).
    pub fn middleware_ratio(&self) -> f64 {
        let total = self.total_time().as_millis();
        if total == 0.0 {
            0.0
        } else {
            self.middleware_time().as_millis() / total
        }
    }

    /// Total time excluding the one-off setup (device initialisation) — the
    /// steady-state "CompTime" most figures plot, since on production-scale
    /// runs the one-off initialisation is negligible while on the scaled-down
    /// analogues it would otherwise dominate.
    pub fn steady_time(&self) -> SimDuration {
        self.total_time() - self.setup
    }

    /// Middleware cost ratio of the steady state (setup excluded from both
    /// numerator and denominator), used by the Fig. 14 harness.
    pub fn steady_middleware_ratio(&self) -> f64 {
        let total = self.steady_time().as_millis();
        if total == 0.0 {
            0.0
        } else {
            (self.middleware_time() - self.setup).as_millis() / total
        }
    }

    /// Total triplets processed over the whole run.
    pub fn total_triplets(&self) -> usize {
        self.iterations.iter().map(|it| it.triplets_processed).sum()
    }

    /// Number of iterations whose synchronisation was skipped.
    pub fn skipped_iterations(&self) -> usize {
        self.iterations.iter().filter(|it| it.sync_skipped).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(
        compute_ms: f64,
        sync_ms: f64,
        middleware_ms: f64,
        skipped: bool,
    ) -> IterationMetrics {
        IterationMetrics {
            compute: SimDuration::from_millis(compute_ms),
            sync: SimDuration::from_millis(sync_ms),
            middleware: SimDuration::from_millis(middleware_ms),
            upper_overhead: SimDuration::from_millis(1.0),
            sync_skipped: skipped,
            ..Default::default()
        }
    }

    fn report() -> RunReport {
        RunReport {
            algorithm: "pr".into(),
            system: "PowerGraph+GPU".into(),
            dataset: "Orkut".into(),
            num_nodes: 4,
            iterations: vec![
                iteration(10.0, 5.0, 2.0, false),
                iteration(8.0, 0.0, 2.0, true),
                iteration(6.0, 5.0, 2.0, false),
            ],
            converged: true,
            setup: SimDuration::from_millis(100.0),
        }
    }

    #[test]
    fn totals_add_up() {
        let r = report();
        assert_eq!(r.num_iterations(), 3);
        // compute 24 + overhead 3 + sync 10 + setup 100 = 137.
        assert!((r.total_time().as_millis() - 137.0).abs() < 1e-9);
        assert!((r.compute_time().as_millis() - 24.0).abs() < 1e-9);
        assert!((r.sync_time().as_millis() - 10.0).abs() < 1e-9);
        assert!((r.middleware_time().as_millis() - 106.0).abs() < 1e-9);
        assert_eq!(r.skipped_iterations(), 1);
    }

    #[test]
    fn middleware_ratio_is_bounded() {
        let r = report();
        let ratio = r.middleware_ratio();
        assert!(ratio > 0.0 && ratio < 1.0);
        let empty = RunReport::default();
        assert_eq!(empty.middleware_ratio(), 0.0);
    }
}
