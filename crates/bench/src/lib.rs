//! # gxplug-bench
//!
//! Shared harness code for regenerating every table and figure of the paper's
//! evaluation (§V).  Each figure has a dedicated binary under `src/bin/`
//! (`table1`, `fig8`, `fig9`, …, `fig15`) that prints the same rows/series the
//! paper reports; `work` prints exact work counts of the benchmark's four
//! workload shapes in miniature; Criterion micro-benchmarks live under
//! `benches/`.
//!
//! All experiments run on the synthetic dataset analogues of
//! [`gxplug_graph::datasets`] at a scale selected by the `GX_SCALE`
//! environment variable (`tiny`, `small`, `medium`, `large`; default `small`),
//! so the full suite completes in minutes on a laptop while preserving the
//! relative shapes of the paper's results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod suite;
pub mod table;

pub use suite::{run_combo, Accel, Algo, ComboSpec, Upper};
pub use table::{format_duration, print_table};

use gxplug_graph::datasets::Scale;

/// Reads the experiment scale from the `GX_SCALE` environment variable.
pub fn scale_from_env() -> Scale {
    match std::env::var("GX_SCALE")
        .unwrap_or_default()
        .to_ascii_lowercase()
        .as_str()
    {
        "tiny" => Scale::Tiny,
        "medium" => Scale::Medium,
        "large" => Scale::Large,
        _ => Scale::Small,
    }
}

/// The default random seed used by every harness (reproducibility).
pub const DEFAULT_SEED: u64 = 20220331; // the paper's arXiv v3 date

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_stable() {
        assert_eq!(DEFAULT_SEED, 20220331);
        // Tiny is the cheapest scale and must stay below Small.
        assert!(Scale::Tiny.edge_budget() < Scale::Small.edge_budget());
    }
}
