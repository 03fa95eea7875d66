//! # gxplug-accel
//!
//! Accelerator substrate for the GX-Plug reproduction.
//!
//! The paper plugs real GPUs and multi-core CPUs into distributed graph
//! systems.  This crate provides the pluggable stand-in: the
//! [`AcceleratorBackend`] trait is the kernel ABI a daemon drives, and
//! [`DeviceSpec::build`] makes its one host backend.  Kernels run for real on
//! the host, on one thread ([`BackendKind::Sim`]) or split across a pool of
//! worker threads ([`BackendKind::HostParallel`]), with bit-identical
//! results.  A launch reports success or the kernel error, never time:
//! simulated time is priced from each device's [`CostModel`], so every
//! experiment's *shape* is reproducible on any machine.
//!
//! * [`time`] — simulated durations;
//! * [`cost`] — the per-device cost model;
//! * [`device`] — shared device vocabulary (kinds, errors);
//! * [`backend`] — the [`AcceleratorBackend`] trait, [`DeviceSpec`]
//!   descriptors and the host backend;
//! * [`presets`] — calibrated V100-class GPU / Xeon-class CPU / FPGA presets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cost;
pub mod device;
pub mod presets;
pub mod time;

pub use backend::{AcceleratorBackend, BackendKind, ChunkKernel, ChunkSpec, DeviceSpec};
pub use cost::CostModel;
pub use device::{AccelError, DeviceKind, Result};
pub use time::SimDuration;
