//! # gxplug-accel
//!
//! Accelerator substrate for the GX-Plug reproduction.
//!
//! The paper plugs real GPUs and multi-core CPUs into distributed graph
//! systems.  This crate provides the pluggable stand-in: the
//! [`AcceleratorBackend`] trait is the kernel ABI a daemon drives, and
//! interchangeable backends implement it — the cost-model [`SimBackend`]
//! (kernels run for real on the host, time is attributed analytically so
//! every experiment's *shape* is reproducible on any machine) and the
//! [`HostParallelBackend`] (kernels execute across OS threads, improving
//! real wall-clock time behind the same ABI).
//!
//! * [`time`] — simulated durations and clocks shared by all substrates;
//! * [`cost`] — the per-device cost model;
//! * [`device`] — shared device vocabulary (kinds, errors, kernel timing);
//! * [`backend`] — the [`AcceleratorBackend`] trait, [`DeviceSpec`]
//!   descriptors and the shipped backends;
//! * [`presets`] — calibrated V100-class GPU / Xeon-class CPU / FPGA presets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cost;
pub mod device;
pub mod presets;
pub mod time;

pub use backend::{
    AcceleratorBackend, BackendKind, ChunkKernel, ChunkSpec, DeviceSpec, HostParallelBackend,
    SimBackend,
};
pub use cost::CostModel;
pub use device::{AccelError, DeviceKind, KernelTiming, Result};
pub use time::{SimClock, SimDuration};
