//! Shared device vocabulary: kinds, errors, kernel timing.
//!
//! The *execution* side of a device lives behind the
//! [`AcceleratorBackend`](crate::backend::AcceleratorBackend) trait in
//! [`backend`](crate::backend); this module holds the types every backend
//! (and every consumer of one) speaks: the hardware flavour, the error
//! vocabulary and the timing attribution of a kernel launch.

use crate::time::SimDuration;
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

/// Timing breakdown of a single kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelTiming {
    /// Device initialisation cost paid by this call (zero if the device was
    /// already initialised — the benefit of runtime isolation, Fig. 13).
    pub init: SimDuration,
    /// Kernel launch / device call overhead (`Tcall`).
    pub call: SimDuration,
    /// Host/device transfer time (`Tcopy`).
    pub copy: SimDuration,
    /// Parallel compute time (`Tcomp`).
    pub compute: SimDuration,
}

impl KernelTiming {
    /// Total simulated time of the call.
    pub fn total(&self) -> SimDuration {
        self.init + self.call + self.copy + self.compute
    }
}

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

    #[test]
    fn timing_totals_sum_all_phases() {
        let timing = KernelTiming {
            init: SimDuration::from_millis(1.0),
            call: SimDuration::from_millis(2.0),
            copy: SimDuration::from_millis(3.0),
            compute: SimDuration::from_millis(4.0),
        };
        assert_eq!(timing.total().as_millis(), 10.0);
    }
}
