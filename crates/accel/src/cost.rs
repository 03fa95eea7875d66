//! Analytic cost model for accelerator devices.
//!
//! The paper models the compute thread's cost of one block as
//! `Tc(b) = Tcall + Tcomp(b) + Tcopy(b)` (§III-A2c): a constant device-call
//! cost plus copy and compute terms proportional to the block size.  The
//! [`CostModel`] here captures exactly those coefficients plus the device's
//! parallel width and (optional) memory capacity, so the middleware's
//! block-size and workload-balancing analyses operate on the same quantities
//! as the paper's.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Cost coefficients of a single accelerator device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One-off cost of initialising the device context (CUDA context
    /// creation, JIT, memory pools).  Paid once per daemon lifetime under
    /// runtime isolation, or once per call in the naive "raw call" setup
    /// (Fig. 13).
    pub init: SimDuration,
    /// Constant cost of launching one kernel / calling the device
    /// (`Tcall`, the paper's `a`).
    pub call: SimDuration,
    /// Cost of moving one data entity between host and device memory
    /// (`Tcopy` per item).
    pub copy_per_item: SimDuration,
    /// Cost of processing one data entity on a *single* lane
    /// (`Tcomp` per item before dividing by the parallel width).
    pub compute_per_item: SimDuration,
    /// Number of hardware lanes (threads, CUDA cores grouped as schedulable
    /// threads — the paper models the V100 as a "1024-thread multithread
    /// processing model" and the Xeon as 20 threads).
    pub lanes: u32,
    /// Fraction of the ideal `lanes`-way speed-up actually achieved
    /// (memory-bound kernels, divergence, scheduling overhead).
    pub parallel_efficiency: f64,
    /// Device memory capacity expressed in data entities; `None` means
    /// "large enough for every workload we run".  Used to reproduce the
    /// out-of-memory behaviour of single-GPU systems on Twitter/UK-2007
    /// (Fig. 9b).
    pub memory_capacity_items: Option<usize>,
}

impl CostModel {
    /// Effective number of items processed concurrently.
    pub fn effective_lanes(&self) -> f64 {
        (self.lanes as f64 * self.parallel_efficiency).max(1.0)
    }

    /// Compute time for `n` items (`Tcomp(n)`), assuming perfect lane
    /// utilisation at `effective_lanes`.
    pub fn compute_time(&self, n: usize) -> SimDuration {
        self.compute_per_item * (n as f64 / self.effective_lanes())
    }

    /// Host/device transfer time for `n` items (`Tcopy(n)`).
    pub fn copy_time(&self, n: usize) -> SimDuration {
        self.copy_per_item * n as f64
    }

    /// Marginal per-item processing cost (the `k2`-style coefficient seen by
    /// the block-size analysis): compute plus copy per item.
    pub fn per_item_cost(&self) -> SimDuration {
        SimDuration::from_millis(
            self.compute_per_item.as_millis() / self.effective_lanes()
                + self.copy_per_item.as_millis(),
        )
    }

    /// The *computation capacity factor* `1/c_j` of §III-C: data entities
    /// processed per simulated millisecond in steady state.
    pub fn capacity_factor(&self) -> f64 {
        1.0 / self.per_item_cost().as_millis()
    }

    /// Returns `true` if `n` items exceed the device memory capacity.
    pub fn exceeds_memory(&self, n: usize) -> bool {
        match self.memory_capacity_items {
            Some(cap) => n > cap,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            init: SimDuration::from_millis(100.0),
            call: SimDuration::from_millis(1.0),
            copy_per_item: SimDuration::from_micros(1.0),
            compute_per_item: SimDuration::from_micros(10.0),
            lanes: 10,
            parallel_efficiency: 0.5,
            memory_capacity_items: Some(1_000),
        }
    }

    #[test]
    fn effective_lanes_respects_efficiency() {
        assert_eq!(model().effective_lanes(), 5.0);
        let serial = CostModel {
            lanes: 1,
            parallel_efficiency: 0.1,
            ..model()
        };
        // Never below one lane.
        assert_eq!(serial.effective_lanes(), 1.0);
    }

    #[test]
    fn invocation_time_follows_tcall_plus_linear_terms() {
        // One kernel invocation over a block: `Tcall + Tcomp(n) + Tcopy(n)`.
        let m = model();
        let invocation = |n| m.call + m.compute_time(n) + m.copy_time(n);
        // call = 1 ms, compute = 1000 * 0.01 / 5 = 2 ms, copy = 1000 * 0.001 = 1 ms.
        let t = invocation(1_000);
        assert!((t.as_millis() - 4.0).abs() < 1e-9, "{}", t.as_millis());
        assert_eq!(invocation(0), m.call);
    }

    #[test]
    fn capacity_factor_is_items_per_millisecond() {
        let m = model();
        // per item: 0.01/5 + 0.001 = 0.003 ms -> 333.3 items/ms.
        assert!((m.capacity_factor() - 1.0 / 0.003).abs() < 1e-6);
    }

    #[test]
    fn memory_capacity_detection() {
        let m = model();
        assert!(!m.exceeds_memory(1_000));
        assert!(m.exceeds_memory(1_001));
        let unbounded = CostModel {
            memory_capacity_items: None,
            ..m
        };
        assert!(!unbounded.exceeds_memory(usize::MAX));
    }
}
