//! Middleware-side statistics.
//!
//! The engine's [`gxplug_engine::RunReport`] carries the cluster-level timing;
//! the structures here record what happened *inside* the middleware — data
//! volumes moved across the upper-system boundary, cache effectiveness,
//! pipeline configuration choices — which the Fig. 10/11/15 harnesses report.

use crate::sync_cache::CacheStats;
use gxplug_accel::SimDuration;
use serde::{Deserialize, Serialize};

/// Statistics accumulated by one agent over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Data entities downloaded from the upper system (vertices + edges).
    pub downloaded_entities: u64,
    /// Data entities uploaded to the upper system.
    pub uploaded_entities: u64,
    /// Entities whose upload was avoided thanks to caching / lazy uploading.
    pub uploads_avoided: u64,
    /// Entities whose download was avoided thanks to the cache.
    pub downloads_avoided: u64,
    /// Edge triplets processed by this agent's daemons.
    pub triplets_processed: u64,
    /// Kernel launches issued to devices.
    pub kernel_launches: u64,
    /// Simulated time spent in the download/compute/upload pipeline.
    pub pipeline_time: SimDuration,
    /// Simulated time attributed to middleware overhead (everything in
    /// `pipeline_time` that is not pure device compute, plus crossings).
    pub overhead_time: SimDuration,
    /// Device initialisation time paid by this agent's daemons.
    pub init_time: SimDuration,
    /// Cache statistics (zeroed when caching is disabled).
    pub cache: CacheStats,
    /// Number of iterations this agent processed.
    pub iterations: u64,
    /// Sum of chosen block sizes (divide by `iterations` for the average).
    pub block_size_sum: u64,
    /// Sum of block counts per iteration.
    pub block_count_sum: u64,
}

impl AgentStats {
    /// Average block size chosen across iterations (0 when idle).
    pub fn mean_block_size(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.block_size_sum as f64 / self.iterations as f64
        }
    }

    /// Merges another agent's statistics into this one (for cluster-wide
    /// aggregation).
    pub fn merge(&mut self, other: &AgentStats) {
        self.downloaded_entities += other.downloaded_entities;
        self.uploaded_entities += other.uploaded_entities;
        self.uploads_avoided += other.uploads_avoided;
        self.downloads_avoided += other.downloads_avoided;
        self.triplets_processed += other.triplets_processed;
        self.kernel_launches += other.kernel_launches;
        self.pipeline_time += other.pipeline_time;
        self.overhead_time += other.overhead_time;
        self.init_time += other.init_time;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.iterations += other.iterations;
        self.block_size_sum += other.block_size_sum;
        self.block_count_sum += other.block_count_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_idle_agents() {
        let stats = AgentStats::default();
        assert_eq!(stats.mean_block_size(), 0.0);
    }

    #[test]
    fn averages_divide_by_iterations() {
        let stats = AgentStats {
            iterations: 4,
            block_size_sum: 4_000,
            block_count_sum: 40,
            ..Default::default()
        };
        assert_eq!(stats.mean_block_size(), 1_000.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = AgentStats {
            downloaded_entities: 10,
            pipeline_time: SimDuration::from_millis(5.0),
            iterations: 1,
            ..Default::default()
        };
        let b = AgentStats {
            downloaded_entities: 15,
            pipeline_time: SimDuration::from_millis(7.0),
            iterations: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.downloaded_entities, 25);
        assert_eq!(a.iterations, 3);
        assert!((a.pipeline_time.as_millis() - 12.0).abs() < 1e-12);
    }
}
