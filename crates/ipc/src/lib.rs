//! # gxplug-ipc
//!
//! The dependency-free substrate the GX-Plug reproduction's threads and
//! sockets talk through.  The paper's agents and daemons are processes joined
//! by System-V shared memory and message queues; here they are threads in one
//! address space, so what remains of that layer is:
//!
//! * [`key`] — IPC keys, the `ftok`-style key generator and the `splitmix64`
//!   mix it is built on;
//! * [`queue`] — the `Send + Sync` Mutex/Condvar-backed MPMC queue the
//!   node lane workers, the service lanes and the server's connection
//!   hand-off are built on, with blocking, deadline and non-blocking receive
//!   flavours and peer-disconnect detection;
//! * [`oneshot`](mod@oneshot) — the exactly-once result slot job tickets park on;
//! * [`blocks`] — the borrowed [`TripletBlockRef`] views of the zero-copy
//!   pipeline;
//! * [`wire`] — the versioned, length-prefixed binary frame format the
//!   network serving layer speaks (job submissions, results, errors, stats),
//!   with the unified [`ServerError`] vocabulary every transport shares.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocks;
pub mod key;
pub mod oneshot;
pub mod queue;
pub mod wire;

pub use blocks::{triplet_block_views, TripletBlockRef};
pub use key::{IpcKey, KeyGenerator};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use queue::{sync_queue, QueueReceiver, QueueRecvError, QueueSendError, QueueSender};
pub use wire::{Frame, JobSpec, JobState, ServerError, StatsFrame, WireError, WireJobOptions};
