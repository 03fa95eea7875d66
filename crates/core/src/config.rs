//! Middleware configuration.
//!
//! Every optimisation the paper studies can be toggled independently so the
//! evaluation harness can reproduce the ablations of §V (pipeline on/off/optimal,
//! caching on/off, skipping on/off, balancing on/off).  On top of the paper's
//! knobs, [`MiddlewareConfig::execution`] sets the run's fan-out floor:
//! under [`ExecutionMode::Threaded`] (the default) supersteps below the
//! floor run on the calling thread and larger ones lend their nodes to
//! parked per-run lanes, spawned once per run;
//! [`ExecutionMode::Serial`] is the same run with a floor no work reaches,
//! so everything stays on the calling thread.  Results are identical in both
//! modes.

use serde::{Deserialize, Serialize};

pub use gxplug_engine::cluster::ExecutionMode;

/// How the intra-iteration pipeline is configured (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PipelineMode {
    /// No pipeline parallelism: the original 5-step workflow, with the three
    /// phases running strictly one after another ("WithoutPipeline" in
    /// Fig. 10).
    Disabled,
    /// 3-layer pipeline with a fixed block size ("Pipeline" in Fig. 10).
    FixedBlockSize(usize),
    /// 3-layer pipeline with a fixed *number* of blocks per iteration.
    FixedBlockCount(usize),
    /// 3-layer pipeline with the optimal block size from Lemma 1
    /// ("Pipeline*" in Fig. 10).
    Optimal,
}

impl PipelineMode {
    /// Returns `true` if pipeline parallelism is enabled at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, PipelineMode::Disabled)
    }
}

/// Full middleware configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MiddlewareConfig {
    /// Intra-iteration optimisation: pipeline shuffle.
    pub pipeline: PipelineMode,
    /// Inter-iteration optimisation: LRU-based synchronization caching.
    pub caching: bool,
    /// Inter-iteration optimisation: lazy uploading (Algorithm 3), modelled
    /// as uploading only remote-mastered targets (requires `caching`).
    pub lazy_upload: bool,
    /// Inter-iteration optimisation: synchronization skipping.
    pub skipping: bool,
    /// Fraction of a node's local vertices the agent cache may hold
    /// (in `(0, 1]`).
    pub cache_capacity_fraction: f64,
    /// How the runtime schedules daemons and agents on the host (threaded by
    /// default; serial execution produces identical results).
    pub execution: ExecutionMode,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineMode::Optimal,
            caching: true,
            lazy_upload: true,
            skipping: true,
            cache_capacity_fraction: 0.5,
            execution: ExecutionMode::Threaded,
        }
    }
}

impl MiddlewareConfig {
    /// The fully optimised configuration (the default).
    pub fn optimized() -> Self {
        Self::default()
    }

    /// A configuration with every optimisation disabled: the naive
    /// daemon-agent integration the paper's ablations compare against
    /// (single-threaded, like the naive integration's blocking calls).
    pub fn baseline() -> Self {
        Self {
            pipeline: PipelineMode::Disabled,
            caching: false,
            lazy_upload: false,
            skipping: false,
            cache_capacity_fraction: 0.5,
            execution: ExecutionMode::Serial,
        }
    }

    /// Enables or disables the pipeline.
    pub fn with_pipeline(mut self, pipeline: PipelineMode) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Enables or disables synchronization caching (and lazy uploading with
    /// it).
    pub fn with_caching(mut self, caching: bool) -> Self {
        self.caching = caching;
        if !caching {
            self.lazy_upload = false;
        }
        self
    }

    /// Enables or disables synchronization skipping.
    pub fn with_skipping(mut self, skipping: bool) -> Self {
        self.skipping = skipping;
        self
    }

    /// Selects serial or threaded execution of daemons and agents.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_every_optimisation() {
        let config = MiddlewareConfig::default();
        assert!(config.pipeline.is_enabled());
        assert!(config.caching);
        assert!(config.lazy_upload);
        assert!(config.skipping);
    }

    #[test]
    fn baseline_disables_everything() {
        let config = MiddlewareConfig::baseline();
        assert!(!config.pipeline.is_enabled());
        assert!(!config.caching);
        assert!(!config.lazy_upload);
        assert!(!config.skipping);
    }

    #[test]
    fn disabling_caching_also_disables_lazy_upload() {
        let config = MiddlewareConfig::optimized().with_caching(false);
        assert!(!config.caching);
        assert!(!config.lazy_upload);
    }

    #[test]
    fn builder_methods_compose() {
        let config = MiddlewareConfig::baseline()
            .with_pipeline(PipelineMode::FixedBlockSize(512))
            .with_skipping(true);
        assert_eq!(config.pipeline, PipelineMode::FixedBlockSize(512));
        assert!(config.skipping);
    }

    #[test]
    fn execution_mode_defaults_and_overrides() {
        assert_eq!(
            MiddlewareConfig::default().execution,
            ExecutionMode::Threaded
        );
        assert_eq!(
            MiddlewareConfig::baseline().execution,
            ExecutionMode::Serial
        );
        let config = MiddlewareConfig::baseline().with_execution(ExecutionMode::Threaded);
        assert_eq!(config.execution, ExecutionMode::Threaded);
    }
}
