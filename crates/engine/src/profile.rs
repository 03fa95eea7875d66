//! Upper-system runtime profiles.
//!
//! The two upper systems the paper plugs accelerators into differ in runtime
//! environment and therefore in cost structure:
//!
//! * **GraphX** runs on the JVM: per-edge native processing is slow, and
//!   every crossing between the JVM and the local environment (JNI) carries
//!   overhead that the middleware's JNI transmitter and data packager reduce
//!   but never eliminate (§IV-B1);
//! * **PowerGraph** is native C++: per-edge processing is faster and crossing
//!   into the middleware is cheap.
//!
//! A [`RuntimeProfile`] captures those coefficients; the presets are relative
//! calibrations chosen to reproduce the paper's *shape* (PowerGraph faster
//! than GraphX; GraphX benefiting more from caching because its uploads and
//! downloads are pricier).

use crate::template::ComputationModel;
use gxplug_accel::SimDuration;
use serde::{Deserialize, Serialize};

/// Cost coefficients of an upper system's runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeProfile {
    /// Name of the upper system ("GraphX", "PowerGraph", …).
    pub name: &'static str,
    /// Computation model the system natively follows.
    pub model: ComputationModel,
    /// Cost of processing one edge triplet natively (without accelerators).
    pub per_edge_compute: SimDuration,
    /// Cost of applying one merged message to a vertex natively.
    pub per_apply: SimDuration,
    /// Cost, per data entity, of handing data from the upper system to the
    /// agent (the `USI.Download` of Algorithm 2).  For GraphX this includes
    /// JNI/serialisation work.
    pub per_item_download: SimDuration,
    /// Cost, per data entity, of pushing results back into the upper system
    /// (the `USI.Upload` of Algorithm 2).
    pub per_item_upload: SimDuration,
    /// Fixed cost of one upper-system ↔ middleware crossing (a JNI call /
    /// native function invocation), paid per `download()`/`upload()` call.
    pub per_crossing: SimDuration,
    /// Per-item cost of serialising data for inter-node synchronisation.
    pub per_item_sync: SimDuration,
    /// Fixed per-iteration scheduling overhead of the upper system
    /// (task scheduling in Spark, engine dispatch in PowerGraph).
    pub per_iteration_overhead: SimDuration,
}

impl RuntimeProfile {
    /// GraphX-like profile: JVM runtime, BSP model, vertex-centric storage.
    pub fn graphx() -> Self {
        Self {
            name: "GraphX",
            model: ComputationModel::Bsp,
            per_edge_compute: SimDuration::from_millis(0.004),
            per_apply: SimDuration::from_millis(0.002),
            per_item_download: SimDuration::from_millis(0.001),
            per_item_upload: SimDuration::from_millis(0.001),
            per_crossing: SimDuration::from_millis(0.05),
            per_item_sync: SimDuration::from_millis(0.0002),
            per_iteration_overhead: SimDuration::from_millis(0.5),
        }
    }

    /// PowerGraph-like profile: native C++, GAS model, edge-centric storage.
    pub fn powergraph() -> Self {
        Self {
            name: "PowerGraph",
            model: ComputationModel::Gas,
            per_edge_compute: SimDuration::from_millis(0.0012),
            per_apply: SimDuration::from_millis(0.0006),
            per_item_download: SimDuration::from_millis(0.0001),
            per_item_upload: SimDuration::from_millis(0.0001),
            per_crossing: SimDuration::from_millis(0.01),
            per_item_sync: SimDuration::from_millis(0.0001),
            per_iteration_overhead: SimDuration::from_millis(0.1),
        }
    }

    /// Cost of natively processing `triplets` edge triplets and applying
    /// `applies` merged messages (scaled by the algorithm's operational
    /// intensity).
    pub fn native_compute_cost(
        &self,
        triplets: usize,
        applies: usize,
        operational_intensity: f64,
    ) -> SimDuration {
        self.per_edge_compute * (triplets as f64 * operational_intensity)
            + self.per_apply * applies as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powergraph_is_faster_than_graphx_everywhere() {
        let gx = RuntimeProfile::graphx();
        let pg = RuntimeProfile::powergraph();
        assert!(pg.per_edge_compute < gx.per_edge_compute);
        assert!(pg.per_item_download < gx.per_item_download);
        assert!(pg.per_crossing < gx.per_crossing);
        assert!(pg.per_iteration_overhead < gx.per_iteration_overhead);
        assert_eq!(gx.model, ComputationModel::Bsp);
        assert_eq!(pg.model, ComputationModel::Gas);
    }

    #[test]
    fn native_compute_scales_with_intensity() {
        let pg = RuntimeProfile::powergraph();
        let light = pg.native_compute_cost(1_000, 100, 0.5);
        let heavy = pg.native_compute_cost(1_000, 100, 2.0);
        assert!(heavy > light);
    }
}
