//! # gxplug-baselines
//!
//! Comparator engines used in the paper's scalability evaluation (Fig. 9):
//!
//! * [`GunrockLike`] — single-node, single-GPU, frontier-centric engine
//!   (fastest on one GPU, no multi-GPU support, out-of-memory on graphs
//!   larger than device memory);
//! * [`LuxLike`] — distributed multi-GPU engine with hand-tuned kernels but
//!   eager, uncached synchronisation every iteration.
//!
//! Both run the same `GraphAlgorithm` template implementations as GX-Plug and
//! launch `MSGGen` through the same [`Daemon`] kernel ABI, so comparisons are
//! apples to apples.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gunrock_like;
pub mod lux_like;

pub use gunrock_like::GunrockLike;
pub use lux_like::LuxLike;

use gxplug_accel::{BackendKind, DeviceSpec};
use gxplug_core::Daemon;
use gxplug_ipc::key::KeyGenerator;

/// The daemon of device `index` on node `node_id`.  Baselines are
/// comparators for the *shape* of the results, so they always execute on one
/// thread per device ([`BackendKind::Sim`]), whatever backend the spec
/// selects for the middleware.  Each prices its own blocks from the device's
/// cost model.
fn sim_daemon(spec: DeviceSpec, node_id: usize, index: usize) -> Daemon {
    let key = KeyGenerator::default().key_for(node_id, index);
    Daemon::new(spec.name.clone(), spec.with_backend(BackendKind::Sim), key)
}
