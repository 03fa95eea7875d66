//! The cross-thread message queue under the threaded runtime and the socket
//! front end.
//!
//! Large supersteps run their nodes on parked OS threads (§IV-C: agents and
//! daemons "work as independent processes"), so the primitives connecting
//! them must be `Send + Sync` and block efficiently.  [`sync_queue`] creates a multi-producer,
//! multi-consumer FIFO built from `std::sync::Mutex` + `Condvar` — no
//! external dependencies, no spinning:
//!
//! * both endpoints are cloneable, so any number of producer and consumer
//!   threads can share one queue (the server's connection hand-off pattern);
//! * receivers block on a condition variable and are woken per message;
//! * [`QueueReceiver::recv_timeout`] provides real deadline semantics
//!   (re-arming the wait after spurious wake-ups);
//! * [`QueueReceiver::try_recv`] and the `len`/`is_empty` accessors on both
//!   endpoints support non-blocking polling;
//! * disconnection is tracked by endpoint counts: sends fail once every
//!   receiver is gone, receives fail once every sender is gone *and* the
//!   queue has drained.
//!
//! Values need not be `'static`: the queue is used to pass borrowed daemon
//! jobs between scoped threads in `gxplug-core`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`QueueSender::send`] when every receiver is gone; the
/// unsent value is handed back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSendError<T>(pub T);

impl<T> fmt::Display for QueueSendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "every receiver of the queue has disconnected")
    }
}

impl<T: fmt::Debug> std::error::Error for QueueSendError<T> {}

/// Errors returned by the receiving operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRecvError {
    /// Every sender is gone and the queue has drained.
    Disconnected,
    /// The deadline of [`QueueReceiver::recv_timeout`] elapsed.
    Timeout,
    /// [`QueueReceiver::try_recv`] found no pending message.
    Empty,
}

impl fmt::Display for QueueRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueRecvError::Disconnected => write!(f, "every sender of the queue disconnected"),
            QueueRecvError::Timeout => write!(f, "queue receive timed out"),
            QueueRecvError::Empty => write!(f, "no message pending in the queue"),
        }
    }
}

impl std::error::Error for QueueRecvError {}

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when a message arrives or the last sender departs.
    readable: Condvar,
}

impl<T> Shared<T> {
    /// Locks the state, recovering from poisoning: the lock is only ever held
    /// for queue bookkeeping, which cannot leave the state inconsistent.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half of a [`sync_queue`] pair.  Cloning adds a producer.
pub struct QueueSender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a [`sync_queue`] pair.  Cloning adds a consumer.
pub struct QueueReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded multi-producer multi-consumer FIFO.
pub fn sync_queue<T>() -> (QueueSender<T>, QueueReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            items: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        readable: Condvar::new(),
    });
    (
        QueueSender {
            shared: Arc::clone(&shared),
        },
        QueueReceiver { shared },
    )
}

impl<T> QueueSender<T> {
    /// Enqueues `value`, failing (and returning it) if every receiver is
    /// gone.
    pub fn send(&self, value: T) -> Result<(), QueueSendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(QueueSendError(value));
        }
        state.items.push_back(value);
        drop(state);
        // One message wakes exactly one waiting receiver: notify_all here
        // would stampede every blocked consumer for a single item and let all
        // but one reacquire the lock just to go back to sleep.  Disconnects
        // (see the sender's Drop) still notify_all so every receiver observes
        // the hang-up.
        self.shared.readable.notify_one();
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().items.len()
    }

    /// Returns `true` if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake every blocked receiver so it can observe disconnection.
            self.shared.readable.notify_all();
        }
    }
}

impl<T> fmt::Debug for QueueSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("QueueSender")
            .field("queued", &state.items.len())
            .field("senders", &state.senders)
            .field("receivers", &state.receivers)
            .finish()
    }
}

impl<T> QueueReceiver<T> {
    /// Blocks until a message arrives or every sender disconnects.
    pub fn recv(&self) -> Result<T, QueueRecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.items.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(QueueRecvError::Disconnected);
            }
            state = self
                .shared
                .readable
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until a message arrives, every sender disconnects, or `timeout`
    /// elapses.
    ///
    /// The timeout is *relative* and restarts with every call: a loop that
    /// calls `recv_timeout(d)` per message waits up to `d` per message, so
    /// its total wait drifts past any intended overall deadline by up to `d`
    /// per iteration.  Loops enforcing a total budget should compute the
    /// deadline once and call [`QueueReceiver::recv_deadline`] instead.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, QueueRecvError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    /// Blocks until a message arrives, every sender disconnects, or the
    /// absolute `deadline` passes.
    ///
    /// Unlike [`QueueReceiver::recv_timeout`], the deadline does not re-arm
    /// across calls: draining a burst in a loop with one shared deadline
    /// returns [`QueueRecvError::Timeout`] once that instant passes, however
    /// many messages arrived in between — the primitive the server's
    /// connection reaper and WebSocket heartbeats tick on.  A deadline
    /// already in the past degrades to a lock-protected poll: any message
    /// pending at call time is still delivered before `Timeout` is reported.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, QueueRecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.items.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(QueueRecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(QueueRecvError::Timeout);
            }
            let (guard, _result) = self
                .shared
                .readable
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// Returns a pending message without blocking.
    pub fn try_recv(&self) -> Result<T, QueueRecvError> {
        let mut state = self.shared.lock();
        match state.items.pop_front() {
            Some(value) => Ok(value),
            None if state.senders == 0 => Err(QueueRecvError::Disconnected),
            None => Err(QueueRecvError::Empty),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().items.len()
    }

    /// Returns `true` if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for QueueReceiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for QueueReceiver<T> {
    fn drop(&mut self) {
        let orphaned = {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                // No receiver will ever consume the remaining messages, so
                // drop them now: messages often carry reply handles whose
                // drop is what unblocks a waiting peer (the daemon runtime's
                // panic path relies on this).  Taken out under the lock,
                // dropped after releasing it, since their destructors may
                // take other locks.
                std::mem::take(&mut state.items)
            } else {
                VecDeque::new()
            }
        };
        drop(orphaned);
    }
}

impl<T> fmt::Debug for QueueReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("QueueReceiver")
            .field("queued", &state.items.len())
            .field("senders", &state.senders)
            .field("receivers", &state.receivers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = sync_queue();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_producers_deliver_everything() {
        let (tx, rx) = sync_queue();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100u32 {
                        tx.send(p * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for handle in producers {
            handle.join().unwrap();
        }
        assert_eq!(got.len(), 400);
        // Per-producer FIFO: each producer's stream arrives in order.
        for p in 0..4 {
            let stream: Vec<u32> = got.iter().copied().filter(|v| v / 1_000 == p).collect();
            let expected: Vec<u32> = (0..100).map(|i| p * 1_000 + i).collect();
            assert_eq!(stream, expected);
        }
    }

    #[test]
    fn recv_timeout_expires_and_recovers() {
        let (tx, rx) = sync_queue::<u8>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(QueueRecvError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(9));
    }

    #[test]
    fn recv_deadline_expires_at_the_absolute_instant() {
        let (tx, rx) = sync_queue::<u8>();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(40);
        assert_eq!(rx.recv_deadline(deadline), Err(QueueRecvError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(40));
        // The receiver survives the timeout and still delivers.
        tx.send(3).unwrap();
        assert_eq!(
            rx.recv_deadline(Instant::now() + Duration::from_millis(40)),
            Ok(3)
        );
        // A deadline already in the past is a poll: pending messages are
        // still delivered, an empty queue reports Timeout immediately.
        tx.send(4).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(rx.recv_deadline(past), Ok(4));
        assert_eq!(rx.recv_deadline(past), Err(QueueRecvError::Timeout));
    }

    #[test]
    fn recv_deadline_does_not_drift_across_a_wait_loop() {
        // The drift footgun: a loop calling recv_timeout(d) per message waits
        // up to d *per message*, overshooting any intended total budget.  The
        // same loop on recv_deadline with one shared deadline stops on time
        // however many messages trickle in.
        let (tx, rx) = sync_queue::<u32>();
        let producer = thread::spawn(move || {
            for i in 0..100u32 {
                thread::sleep(Duration::from_millis(5));
                if tx.send(i).is_err() {
                    return;
                }
            }
        });
        let budget = Duration::from_millis(60);
        let start = Instant::now();
        let deadline = start + budget;
        let mut seen = 0usize;
        while let Ok(_msg) = rx.recv_deadline(deadline) {
            seen += 1;
        }
        let elapsed = start.elapsed();
        // Messages kept arriving every 5ms, yet the loop ended within the
        // budget (generous slack for scheduler noise) instead of re-arming
        // per message the way a recv_timeout loop would.
        assert!(elapsed >= budget);
        assert!(
            elapsed < budget + Duration::from_millis(250),
            "deadline loop overshot: {elapsed:?} vs budget {budget:?}"
        );
        assert!(
            seen > 0,
            "the loop consumed the messages sent before expiry"
        );
        drop(rx);
        producer.join().unwrap();
    }

    #[test]
    fn disconnection_is_observed_on_both_ends() {
        let (tx, rx) = sync_queue();
        tx.send(1).unwrap();
        drop(tx);
        // Queued messages survive sender disconnection...
        assert_eq!(rx.recv(), Ok(1));
        // ...then the disconnect is reported.
        assert_eq!(rx.recv(), Err(QueueRecvError::Disconnected));
        let (tx, rx) = sync_queue();
        drop(rx);
        assert_eq!(tx.send(7), Err(QueueSendError(7)));
    }

    #[test]
    fn blocked_receiver_wakes_on_disconnect() {
        let (tx, rx) = sync_queue::<u8>();
        let waiter = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(QueueRecvError::Disconnected));
    }

    #[test]
    fn queued_messages_are_dropped_when_the_last_receiver_disconnects() {
        // A message carrying a reply handle: dropping the queue's receiver
        // must drop the queued message, which disconnects the reply channel
        // and unblocks whoever is waiting on it.
        let (tx, rx) = sync_queue();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel::<u8>();
        tx.send(reply_tx).unwrap();
        drop(rx);
        assert_eq!(
            reply_rx.recv_timeout(Duration::from_secs(5)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        );
        // The sender still observes the disconnect on its next send.
        let (other_tx, _) = std::sync::mpsc::channel::<u8>();
        assert!(tx.send(other_tx).is_err());
    }

    #[test]
    fn send_wakes_exactly_one_blocked_consumer_and_none_starve() {
        // `send` uses `notify_one`, so each message wakes exactly one of the
        // blocked receivers.  With as many messages as blocked consumers,
        // every consumer must come back with exactly one message — a lost or
        // double wake-up would leave one of them blocked forever (the join
        // would hang) or return a disconnect error.
        let (tx, rx) = sync_queue::<u32>();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.recv())
            })
            .collect();
        // Let every consumer block on the condvar before sending.
        thread::sleep(Duration::from_millis(30));
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        let mut got: Vec<u32> = consumers
            .into_iter()
            .map(|c| c.join().unwrap().expect("every consumer receives one"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(rx.is_empty());
    }

    #[test]
    fn multi_consumer_burst_drains_completely_under_single_wakeups() {
        // Stress the notify_one path: looping consumers racing a fast
        // producer must drain every message between them, and the stream must
        // end with a clean disconnect on every consumer (no starvation).
        let (tx, rx) = sync_queue::<u32>();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        match rx.recv() {
                            Ok(v) => seen.push(v),
                            Err(QueueRecvError::Disconnected) => return seen,
                            Err(other) => panic!("unexpected recv error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        drop(rx);
        for i in 0..3_000u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..3_000).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        // `try_recv` must distinguish "nothing pending right now" from
        // "this queue will never produce again".
        let (tx, rx) = sync_queue();
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Empty));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Disconnected));
    }

    #[test]
    fn try_recv_drains_the_backlog_before_reporting_disconnect() {
        let (tx, rx) = sync_queue();
        tx.send(7).unwrap();
        drop(tx);
        // A queued message outlives its senders...
        assert_eq!(rx.try_recv(), Ok(7));
        // ...and only then is the hang-up observed.
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Disconnected));
    }

    #[test]
    fn len_and_is_empty_track_both_endpoints() {
        let (tx, rx) = sync_queue();
        assert!(tx.is_empty());
        assert!(rx.is_empty());
        assert_eq!((tx.len(), rx.len()), (0, 0));
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!((tx.len(), rx.len()), (3, 3));
        assert!(!tx.is_empty());
        assert!(!rx.is_empty());
        rx.recv().unwrap();
        assert_eq!((tx.len(), rx.len()), (2, 2));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert!(tx.is_empty());
        assert!(rx.is_empty());
    }

    #[test]
    fn try_recv_competes_safely_with_blocking_consumers() {
        // A non-blocking poller racing blocking consumers must never lose or
        // duplicate a message.
        let (tx, rx) = sync_queue::<u32>();
        let blocking: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Ok(v) = rx.recv() {
                        seen.push(v);
                    }
                    seen
                })
            })
            .collect();
        let poller = {
            let rx = rx.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match rx.try_recv() {
                        Ok(v) => seen.push(v),
                        Err(QueueRecvError::Empty) => thread::yield_now(),
                        Err(QueueRecvError::Disconnected) => return seen,
                        Err(other) => panic!("unexpected: {other:?}"),
                    }
                }
            })
        };
        drop(rx);
        for i in 0..2_000u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = blocking
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.extend(poller.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_consumers_split_the_stream() {
        let (tx, rx) = sync_queue();
        let rx2 = rx.clone();
        let consumer = |rx: QueueReceiver<u32>| {
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Ok(v) = rx.recv() {
                    seen.push(v);
                }
                seen
            })
        };
        let a = consumer(rx);
        let b = consumer(rx2);
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
