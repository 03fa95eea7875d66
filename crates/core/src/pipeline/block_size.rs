//! Optimal block-size selection (§III-A2c, Lemma 1).
//!
//! The pipeline splits the `d` data entities of one node-iteration into `s`
//! blocks of size `b = d / s`, processed by three threads
//! (`Thread.Download`, `Thread.Compute`, `Thread.Upload`).  With per-item
//! coefficients `k1` (download), `k2` (compute), `k3` (upload) and the fixed
//! device-call cost `a`, the paper models the pipelined makespan as
//!
//! ```text
//! T_total = k1·b + max(k1·b, a + k2·b)
//!         + (s − 2)·max(k1·b, a + k2·b, k3·b)
//!         + max(a + k2·b, k3·b) + k3·b              (Equation 2)
//! ```
//!
//! and Lemma 1 derives the block size minimising it.  This module implements
//! both the estimator and the closed-form optimum, which the agent uses to
//! pick `b` ("Pipeline*" in Fig. 10) and the Fig. 15 harness sweeps.

use serde::{Deserialize, Serialize};

/// The per-item cost coefficients of one agent–daemon pair.
///
/// All values are in simulated milliseconds (per item for the `k`s, absolute
/// for `a`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineCoefficients {
    /// Download cost per data entity (`Thread.Download`).
    pub k1: f64,
    /// Compute cost per data entity (`Thread.Compute`, excluding the call).
    pub k2: f64,
    /// Upload cost per data entity (`Thread.Upload`).
    pub k3: f64,
    /// Fixed cost of calling the computation device once per block (`Tcall`).
    pub a: f64,
}

impl PipelineCoefficients {
    /// Creates a coefficient set, validating positivity.
    pub fn new(k1: f64, k2: f64, k3: f64, a: f64) -> Self {
        assert!(
            k1 > 0.0 && k2 > 0.0 && k3 > 0.0 && a >= 0.0,
            "coefficients must be positive (k1={k1}, k2={k2}, k3={k3}, a={a})"
        );
        Self { k1, k2, k3, a }
    }

    /// The coefficients the paper measured for SSSP (footnote 6).
    pub fn paper_sssp() -> Self {
        Self::new(0.03, 0.51, 0.09, 84_671.0 * 1e-6)
    }

    /// The coefficients the paper measured for PageRank (footnote 6).
    pub fn paper_pagerank() -> Self {
        Self::new(0.02, 0.58, 0.1, 1_970.0 * 1e-6)
    }

    /// The coefficients the paper measured for LP (footnote 6).
    pub fn paper_lp() -> Self {
        Self::new(0.003, 0.59, 0.006, 498.0 * 1e-6)
    }

    /// Per-block time of the download thread, `Tn(b) = k1·b`.
    pub fn t_download(&self, b: f64) -> f64 {
        self.k1 * b
    }

    /// Per-block time of the compute thread, `Tc(b) = a + k2·b`.
    pub fn t_compute(&self, b: f64) -> f64 {
        self.a + self.k2 * b
    }

    /// Per-block time of the upload thread, `Tu(b) = k3·b`.
    pub fn t_upload(&self, b: f64) -> f64 {
        self.k3 * b
    }

    /// Estimates the pipelined makespan of processing `d` entities with block
    /// size `b` (Equation 2).  `b` is clamped to `[1, d]`.
    pub fn estimate_total(&self, d: usize, b: usize) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let b = b.clamp(1, d) as f64;
        let d = d as f64;
        let s = (d / b).ceil();
        let tn = self.t_download(b);
        let tc = self.t_compute(b);
        let tu = self.t_upload(b);
        if s <= 1.0 {
            // A single block degenerates to strictly sequential processing.
            return tn + tc + tu;
        }
        let stage_max = tn.max(tc).max(tu);
        tn + tn.max(tc) + (s - 2.0).max(0.0) * stage_max + tc.max(tu) + tu
    }

    /// Estimates the *unpipelined* makespan of the original 5-step workflow:
    /// the phases run strictly one after the other over the whole dataset,
    /// and the agent↔daemon hand-offs are conventional inter-process copies
    /// (no shared-memory zones, no pointer rotation), each costing about as
    /// much as the corresponding upper-system transfer in both directions.
    pub fn estimate_unpipelined(&self, d: usize) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let d = d as f64;
        let ipc_copy = (self.k1 + self.k3) * d;
        // download + agent->daemon copy + compute + daemon->agent copy + upload
        self.k1 * d + ipc_copy + (self.a + self.k2 * d) + ipc_copy + self.k3 * d
    }

    /// `Q = sqrt(a·d / (k1 + k3))`, the unconstrained optimum of Case 2.
    pub fn q(&self, d: usize) -> f64 {
        (self.a * d as f64 / (self.k1 + self.k3)).sqrt()
    }

    /// Simulates the actual three-stage pipeline schedule block by block
    /// (handling the ragged final block exactly) and returns its makespan.
    ///
    /// This is the "real" execution the Fig. 15 harness compares the
    /// Equation 2 estimate against: stage `i` of block `j` can only start once
    /// stage `i` finished block `j − 1` *and* stage `i − 1` finished block `j`.
    pub fn simulate_schedule(&self, d: usize, b: usize) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let b = b.clamp(1, d);
        let mut download_done = 0.0f64;
        let mut compute_done = 0.0f64;
        let mut upload_done = 0.0f64;
        let mut remaining = d;
        while remaining > 0 {
            let block = remaining.min(b) as f64;
            download_done += self.t_download(block);
            compute_done = download_done.max(compute_done) + self.t_compute(block);
            upload_done = compute_done.max(upload_done) + self.t_upload(block);
            remaining -= block as usize;
        }
        upload_done
    }

    /// Computes the optimal block size and the corresponding minimum makespan
    /// for `d` data entities (Lemma 1).
    pub fn optimal_block_size(&self, d: usize) -> BlockSizeChoice {
        if d == 0 {
            return BlockSizeChoice {
                block_size: 1,
                num_blocks: 0,
                estimated_total: 0.0,
                case: LemmaCase::Degenerate,
            };
        }
        let q = self.q(d);
        let d_f = d as f64;
        let (b_opt, _continuous_t_min, case) = if self.k1 >= self.k2 && self.k1 >= self.k3 {
            // kmax = k1.
            let threshold = self.a / (self.k1 - self.k2);
            if self.k1 > self.k2 && threshold < q {
                (
                    threshold,
                    self.a * (self.k1 + self.k3) / (self.k1 - self.k2) + self.k1 * d_f,
                    LemmaCase::DownloadBound,
                )
            } else {
                (
                    q,
                    self.k2 * d_f + 2.0 * ((self.k1 + self.k3) * self.a * d_f).sqrt(),
                    LemmaCase::ComputeBound,
                )
            }
        } else if self.k3 >= self.k2 && self.k3 >= self.k1 {
            // kmax = k3.
            let threshold = self.a / (self.k3 - self.k2);
            if self.k3 > self.k2 && threshold < q {
                (
                    threshold,
                    self.a * (self.k1 + self.k3) / (self.k3 - self.k2) + self.k3 * d_f,
                    LemmaCase::UploadBound,
                )
            } else {
                (
                    q,
                    self.k2 * d_f + 2.0 * ((self.k1 + self.k3) * self.a * d_f).sqrt(),
                    LemmaCase::ComputeBound,
                )
            }
        } else {
            // kmax = k2: the compute thread dominates regardless of b.
            (
                q,
                self.k2 * d_f + 2.0 * ((self.k1 + self.k3) * self.a * d_f).sqrt(),
                LemmaCase::ComputeBound,
            )
        };
        // Both b and s must be integers (the paper evaluates the floor/ceil
        // neighbours of both): consider the integer neighbours of the analytic
        // b as well as block sizes derived from the integer neighbours of
        // s = d / b, and keep whichever Equation 2 scores best.
        let s_opt = d_f / b_opt.max(1.0);
        let candidates = [
            b_opt.floor().max(1.0) as usize,
            b_opt.ceil().max(1.0) as usize,
            d.div_ceil(s_opt.floor().max(1.0) as usize),
            d.div_ceil(s_opt.ceil().max(1.0) as usize),
        ];
        let mut best_b = candidates[0].min(d.max(1)).max(1);
        let mut best_t = self.estimate_total(d, best_b);
        for &b in &candidates[1..] {
            let b = b.min(d.max(1)).max(1);
            let t = self.estimate_total(d, b);
            if t < best_t {
                best_t = t;
                best_b = b;
            }
        }
        BlockSizeChoice {
            block_size: best_b,
            num_blocks: d.div_ceil(best_b),
            estimated_total: best_t,
            case,
        }
    }
}

/// Which branch of Lemma 1 produced the optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LemmaCase {
    /// `k1` dominates and the threshold `a/(k1−k2)` is below `Q`.
    DownloadBound,
    /// `k3` dominates and the threshold `a/(k3−k2)` is below `Q`.
    UploadBound,
    /// The compute thread dominates: `b = Q`.
    ComputeBound,
    /// No data to process.
    Degenerate,
}

/// The outcome of block-size selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockSizeChoice {
    /// Chosen block size `b`.
    pub block_size: usize,
    /// Resulting number of blocks `s = ceil(d / b)`.
    pub num_blocks: usize,
    /// Estimated pipelined makespan at the chosen block size.
    pub estimated_total: f64,
    /// Which case of Lemma 1 applied.
    pub case: LemmaCase,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coefficients() -> PipelineCoefficients {
        // Compute-dominated: k2 is the largest coefficient (the common case
        // for accelerated kernels fed through cheap shared-memory transfers).
        PipelineCoefficients::new(0.02, 0.58, 0.1, 1.97)
    }

    #[test]
    fn estimate_matches_hand_computation_for_two_blocks() {
        let c = PipelineCoefficients::new(1.0, 2.0, 1.5, 0.5);
        // d = 20, b = 10 -> s = 2:
        // T = k1 b + max(k1 b, a + k2 b) + 0 + max(a + k2 b, k3 b) + k3 b
        //   = 10 + max(10, 20.5) + max(20.5, 15) + 15 = 10 + 20.5 + 20.5 + 15 = 66.
        let t = c.estimate_total(20, 10);
        assert!((t - 66.0).abs() < 1e-9, "{t}");
    }

    #[test]
    fn single_block_degenerates_to_sequential_sum() {
        let c = PipelineCoefficients::new(1.0, 2.0, 1.5, 0.5);
        let t = c.estimate_total(10, 10);
        assert!((t - (10.0 + 0.5 + 20.0 + 15.0)).abs() < 1e-9);
        assert_eq!(c.estimate_total(0, 5), 0.0);
    }

    #[test]
    fn estimate_is_u_shaped_in_block_count() {
        // As s grows (b shrinks), the call overhead dominates; as s shrinks
        // (b grows), the pipeline loses overlap.  The optimum is interior.
        let c = coefficients();
        let d = 100_000;
        let tiny_blocks = c.estimate_total(d, 10); // s = 10_000
        let optimal = c.optimal_block_size(d);
        let huge_blocks = c.estimate_total(d, d); // s = 1
        assert!(optimal.estimated_total < tiny_blocks);
        assert!(optimal.estimated_total < huge_blocks);
        assert!(optimal.block_size > 10 && optimal.block_size < d);
    }

    #[test]
    fn optimum_beats_a_sweep_of_alternatives() {
        let c = coefficients();
        let d = 50_000;
        let best = c.optimal_block_size(d);
        for b in [16usize, 64, 256, 1_024, 4_096, 16_384, 50_000] {
            let t = c.estimate_total(d, b);
            // Integer effects (s = ceil(d/b)) can shave a fraction of a percent
            // off block sizes that happen to divide d nicely; the analytic
            // optimum must stay within 1% of any swept configuration.
            assert!(
                best.estimated_total <= t * 1.01,
                "b={b}: sweep {t} beats optimum {}",
                best.estimated_total
            );
        }
    }

    #[test]
    fn paper_coefficients_give_compute_bound_optima() {
        for c in [
            PipelineCoefficients::paper_sssp(),
            PipelineCoefficients::paper_pagerank(),
            PipelineCoefficients::paper_lp(),
        ] {
            let choice = c.optimal_block_size(1_000_000);
            assert_eq!(choice.case, LemmaCase::ComputeBound);
            assert!(choice.block_size >= 1);
            assert!(choice.num_blocks >= 1);
        }
    }

    #[test]
    fn download_bound_case_is_detected() {
        // k1 dominates by a wide margin and the call cost is small, so the
        // threshold a/(k1-k2) falls below Q.
        let c = PipelineCoefficients::new(1.0, 0.1, 0.2, 0.5);
        let choice = c.optimal_block_size(100_000);
        assert_eq!(choice.case, LemmaCase::DownloadBound);
        // The analytic optimum is a/(k1-k2) = 0.555..; integer rounding keeps
        // it within one unit.
        assert!(choice.block_size <= 2);
    }

    #[test]
    fn upload_bound_case_is_detected() {
        let c = PipelineCoefficients::new(0.2, 0.1, 1.0, 0.5);
        let choice = c.optimal_block_size(100_000);
        assert_eq!(choice.case, LemmaCase::UploadBound);
    }

    #[test]
    fn pipelining_beats_the_unpipelined_baseline() {
        let c = coefficients();
        let d = 100_000;
        let pipelined = c.optimal_block_size(d).estimated_total;
        let unpipelined = c.estimate_unpipelined(d);
        assert!(
            pipelined < unpipelined,
            "pipelined {pipelined} should beat unpipelined {unpipelined}"
        );
    }

    #[test]
    #[should_panic]
    fn non_positive_coefficients_are_rejected() {
        let _ = PipelineCoefficients::new(0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn zero_data_is_degenerate() {
        let choice = coefficients().optimal_block_size(0);
        assert_eq!(choice.case, LemmaCase::Degenerate);
        assert_eq!(choice.num_blocks, 0);
    }

    #[test]
    fn simulated_schedule_tracks_the_estimate() {
        let c = coefficients();
        let d = 40_000;
        for b in [64usize, 500, 2_000, 10_000, 40_000] {
            let estimate = c.estimate_total(d, b);
            let simulated = c.simulate_schedule(d, b);
            let relative = (estimate - simulated).abs() / simulated.max(1e-9);
            assert!(
                relative < 0.15,
                "b={b}: estimate {estimate} vs simulated {simulated}"
            );
        }
        assert_eq!(c.simulate_schedule(0, 10), 0.0);
    }

    #[test]
    fn simulated_schedule_is_u_shaped_like_the_estimate() {
        let c = coefficients();
        let d = 50_000;
        let best = c.optimal_block_size(d);
        let at_opt = c.simulate_schedule(d, best.block_size);
        assert!(at_opt < c.simulate_schedule(d, 5));
        assert!(at_opt < c.simulate_schedule(d, d));
    }
}
