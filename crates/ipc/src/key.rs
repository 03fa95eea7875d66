//! System-V-style IPC keys.
//!
//! In the paper "a daemon has a unique System V key pointing to its specific
//! shared memory space, while an agent has multiple keys to communicate with
//! all daemons attached to it" (§II-B).  [`IpcKey`] reproduces that addressing
//! scheme; [`KeyGenerator`] plays the role of `ftok`, deriving unique keys
//! from a (node, daemon) pair.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A key identifying one shared memory space / daemon endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IpcKey(u64);

impl fmt::Display for IpcKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// Deterministic key derivation (the simulation's `ftok`).
///
/// Keys are derived from `(node_id, daemon_index)` so that every
/// daemon-agent pair in a cluster gets a distinct shared memory space, and
/// re-running the same configuration yields the same keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyGenerator {
    /// A namespace salt (e.g. one per cluster) to keep concurrent clusters
    /// from colliding in a shared registry.
    pub namespace: u32,
}

impl KeyGenerator {
    /// Creates a generator for the given namespace.
    pub fn new(namespace: u32) -> Self {
        Self { namespace }
    }

    /// Derives the key for daemon `daemon_index` of distributed node
    /// `node_id`.
    pub fn key_for(&self, node_id: usize, daemon_index: usize) -> IpcKey {
        // Pack namespace | node | daemon into 64 bits, then mix so that keys
        // do not look sequential (mirrors how ftok hashes path + project id).
        let packed = ((self.namespace as u64) << 48)
            | ((node_id as u64 & 0x00ff_ffff) << 24)
            | (daemon_index as u64 & 0x00ff_ffff);
        IpcKey(splitmix64(packed))
    }
}

/// The SplitMix64 scramble used for key derivation: a cheap, deterministic,
/// well-distributed bit mix.  Exposed because other layers reuse it wherever
/// a fixed scrambled-but-reproducible order is needed (e.g. the agent's
/// cache probe order).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_are_unique_across_nodes_and_daemons() {
        let generator = KeyGenerator::new(1);
        let mut seen = HashSet::new();
        for node in 0..32 {
            for daemon in 0..16 {
                assert!(seen.insert(generator.key_for(node, daemon)));
            }
        }
        assert_eq!(seen.len(), 32 * 16);
    }

    #[test]
    fn keys_are_deterministic() {
        let g1 = KeyGenerator::new(7);
        let g2 = KeyGenerator::new(7);
        assert_eq!(g1.key_for(3, 2), g2.key_for(3, 2));
        assert_ne!(KeyGenerator::new(8).key_for(3, 2), g1.key_for(3, 2));
    }

    #[test]
    fn display_is_hex() {
        let key = IpcKey(0xabc);
        assert_eq!(format!("{key}"), "0x000000000abc");
    }
}
