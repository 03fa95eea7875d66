//! # gxplug-ipc
//!
//! The dependency-free substrate the GX-Plug reproduction's threads and
//! sockets talk through.  The paper's agents and daemons are processes joined
//! by System-V shared memory and message queues; here they are threads in one
//! address space, so what remains of that layer is:
//!
//! * a channel — [`std::sync::mpsc`]'s, sized by the three constructors at
//!   the crate root: [`sync_queue`] (one message in flight, the shape of a
//!   node lane's loan), [`oneshot`] (a job ticket's result) and [`resolved`]
//!   (a ticket answered at submit time);
//! * [`key`] — IPC keys, the `ftok`-style key generator and the `splitmix64`
//!   mix it is built on;
//! * [`blocks`] — the borrowed [`TripletBlockRef`] views of the zero-copy
//!   pipeline;
//! * [`wire`] — the versioned, length-prefixed binary frame format the
//!   network serving layer speaks (job submissions, results, errors, stats),
//!   with the unified [`ServerError`] vocabulary every transport shares.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocks;
pub mod key;
pub mod wire;

pub use blocks::{triplet_block_views, TripletBlockRef};
pub use key::{IpcKey, KeyGenerator};
pub use wire::{Frame, JobSpec, JobState, ServerError, StatsFrame, WireError, WireJobOptions};

use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};

/// A channel holding at most one message in flight: a send blocks until the
/// previous message was received.  A bounded channel's slot is allocated
/// once, at creation, so a warm hand-off allocates nothing.
pub fn sync_queue<T>() -> (SyncSender<T>, Receiver<T>) {
    sync_channel(1)
}

/// The firing half of a [`oneshot`] channel: [`OneshotSender::send`]
/// consumes it, so it delivers at most one value.  Dropping it unfired
/// disconnects the receiver.
#[derive(Debug)]
pub struct OneshotSender<T>(SyncSender<T>);

impl<T> OneshotSender<T> {
    /// Delivers `value`, waking the receiver.  Never blocks: the channel's
    /// one slot is free until this call.
    ///
    /// # Errors
    /// Hands the value back if the receiver is gone.
    pub fn send(self, value: T) -> Result<(), SendError<T>> {
        self.0.send(value)
    }
}

/// Creates a channel that carries one value, from the [`OneshotSender`] to
/// the receiver.  Once the value is taken and [`OneshotSender::send`] has
/// returned, the receiver reads as disconnected.
pub fn oneshot<T>() -> (OneshotSender<T>, Receiver<T>) {
    let (sender, receiver) = sync_channel(1);
    (OneshotSender(sender), receiver)
}

/// A receiver whose value is already delivered: it reads exactly as a
/// [`oneshot`] receiver after its sender fired.  This is how the job service
/// answers a cache hit at submit time, without a worker round trip.
pub fn resolved<T>(value: T) -> Receiver<T> {
    let (sender, receiver) = oneshot();
    sender.send(value).expect("the receiver is alive");
    receiver
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{RecvError, TryRecvError};

    #[test]
    fn disconnection_is_observed_on_both_ends() {
        let (tx, rx) = sync_queue();
        tx.send(1).unwrap();
        drop(tx);
        // A queued message survives its sender, then the hang-up shows.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = sync_queue();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn value_travels_once() {
        let (tx, rx) = oneshot();
        tx.send(42u32).unwrap();
        assert_eq!(rx.try_recv(), Ok(42));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn dropped_sender_disconnects_a_blocked_receiver() {
        let (tx, rx) = oneshot::<u8>();
        let waiter = std::thread::spawn(move || rx.recv());
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn dropped_receiver_fails_the_send_and_returns_the_value() {
        let (tx, rx) = oneshot();
        drop(rx);
        assert_eq!(tx.send(5u64), Err(SendError(5)));
    }

    #[test]
    fn resolved_slot_reads_like_a_fired_slot() {
        let rx = resolved(99u32);
        assert_eq!(rx.try_recv(), Ok(99));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(resolved("cached").recv(), Ok("cached"));
    }
}
