//! Inter-node network cost model.
//!
//! The paper's cluster connects 6 physical nodes; the middleware's
//! inter-iteration optimisations exist precisely because cross-node
//! synchronisation "would trigger considerable data copying between two
//! successive iterations" (§III-B1).  The [`NetworkModel`] attributes a
//! latency per collective operation and a per-item transfer cost, which is all
//! the synchronisation analysis needs.

use gxplug_accel::SimDuration;
use serde::{Deserialize, Serialize};

/// Cost model of the cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Fixed latency of one collective operation (barrier / broadcast round).
    pub latency: SimDuration,
    /// Cost of moving one data entity between two nodes.
    pub per_item: SimDuration,
}

impl NetworkModel {
    /// A data-centre-class interconnect (the default for experiments).
    pub fn datacenter() -> Self {
        Self {
            latency: SimDuration::from_millis(0.1),
            per_item: SimDuration::from_micros(0.02),
        }
    }

    /// An ideal zero-cost network (to isolate compute effects in ablations).
    pub fn ideal() -> Self {
        Self {
            latency: SimDuration::ZERO,
            per_item: SimDuration::ZERO,
        }
    }

    /// Cost of a barrier among `nodes` nodes.
    ///
    /// Modelled as a logarithmic-depth reduction tree; a single-node
    /// "cluster" pays nothing.
    pub fn barrier(&self, nodes: usize) -> SimDuration {
        if nodes <= 1 {
            return SimDuration::ZERO;
        }
        let rounds = (nodes as f64).log2().ceil();
        self.latency * rounds
    }

    /// Cost of shipping `items` data entities across the interconnect
    /// (aggregated over all point-to-point transfers of one synchronisation).
    pub fn transfer(&self, items: usize) -> SimDuration {
        self.per_item * items as f64
    }

    /// Cost of one global synchronisation among `nodes` nodes moving `items`
    /// entities in total: a barrier plus the data transfer.
    pub fn synchronization(&self, nodes: usize, items: usize) -> SimDuration {
        if nodes <= 1 {
            // Single node: no global synchronisation is needed at all.
            return SimDuration::ZERO;
        }
        self.barrier(nodes) + self.transfer(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_has_no_synchronization_cost() {
        let net = NetworkModel::datacenter();
        assert!(net.synchronization(1, 1_000_000).is_zero());
        assert!(net.barrier(1).is_zero());
        assert!(net.barrier(0).is_zero());
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let net = NetworkModel::datacenter();
        let b2 = net.barrier(2);
        let b4 = net.barrier(4);
        let b32 = net.barrier(32);
        assert!(b4 > b2);
        assert!((b4.as_millis() - 2.0 * net.latency.as_millis()).abs() < 1e-9);
        assert!((b32.as_millis() - 5.0 * net.latency.as_millis()).abs() < 1e-9);
    }

    #[test]
    fn transfer_scales_linearly() {
        let net = NetworkModel::datacenter();
        assert!(
            (net.transfer(2_000).as_millis() - 2.0 * net.transfer(1_000).as_millis()).abs() < 1e-9
        );
    }

    #[test]
    fn network_presets_are_ordered() {
        assert!(NetworkModel::ideal().per_item < NetworkModel::datacenter().per_item);
    }
}
