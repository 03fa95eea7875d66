//! The repository's benchmark: four named workloads, end-to-end metrics a
//! user of the system would see, and per-layer wall-clock attribution
//! measured from outside the product — by *span* (timing calls into a
//! layer's public functions), *probe* (replaying a workload's own inputs
//! through one public function), *diff* (the same job with one public config
//! switch flipped) and *count* (counters the public API already returns).
//!
//! See `README.md` in this directory for how to run it and read its output.

pub mod cli;
pub mod json;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use workloads::Scale;

/// Where result and trace files go: `out/` beside this package's manifest,
/// `out/smoke/` for the miniature run so it never overwrites real numbers.
pub fn out_dir(scale: Scale) -> PathBuf {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    match scale {
        Scale::Full => out,
        Scale::Smoke => out.join("smoke"),
    }
}
