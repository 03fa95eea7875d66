//! Shared device vocabulary: kinds and errors.
//!
//! The *execution* side of a device lives behind the
//! [`AcceleratorBackend`](crate::backend::AcceleratorBackend) trait in
//! [`backend`](crate::backend); this module holds the types every backend
//! (and every consumer of one) speaks: the hardware flavour and the error
//! vocabulary of a kernel launch.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The hardware flavour of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A multi-core / many-core CPU used as an accelerator.
    Cpu,
    /// A discrete GPU.
    Gpu,
    /// An FPGA-style streaming accelerator (provided for completeness; the
    /// paper's Figure 1 lists FPGAs as pluggable daemons).
    Fpga,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "CPU"),
            DeviceKind::Gpu => write!(f, "GPU"),
            DeviceKind::Fpga => write!(f, "FPGA"),
        }
    }
}

/// Errors produced by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// The batch does not fit in device memory.
    OutOfMemory {
        /// Number of items requested.
        requested: usize,
        /// Device capacity in items.
        capacity: usize,
        /// Device that rejected the batch.
        device: String,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::OutOfMemory {
                requested,
                capacity,
                device,
            } => write!(
                f,
                "out of device memory on {device}: batch of {requested} items exceeds capacity of {capacity}"
            ),
        }
    }
}

impl std::error::Error for AccelError {}

/// Result alias for accelerator operations.
pub type Result<T> = std::result::Result<T, AccelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let oom = AccelError::OutOfMemory {
            requested: 11,
            capacity: 10,
            device: "g0".to_string(),
        };
        assert!(oom.to_string().contains("out of device memory on g0"));
    }
}
