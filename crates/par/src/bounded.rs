//! A **bounded SPSC channel** — the backpressure primitive behind the
//! fused `Pipeline` executor.
//!
//! The fused executor runs each transform stage as a worker thread and
//! connects consecutive stages with one of these channels, carrying one
//! *chunk* of records per message. The bound is the whole point: when the
//! downstream stage falls behind, [`Sender::send`] blocks instead of
//! buffering, so a `reconstruct → replay` chain holds at most
//! `capacity` in-flight chunks between stages — never a materialised
//! intermediate trace. The usual crate for this is `crossbeam-channel`,
//! which is unavailable in the offline build environment; a `Mutex` +
//! `Condvar` ring is entirely adequate for chunk-granularity traffic
//! (thousands of messages per run, not millions).
//!
//! Disconnect semantics mirror `std::sync::mpsc`:
//!
//! * dropping the [`Receiver`] makes every later [`Sender::send`] return
//!   the rejected value as `Err` (the producer learns the consumer is
//!   gone and stops);
//! * dropping the [`Sender`] lets the receiver drain what was queued and
//!   then observe end-of-stream (`recv() == None`).
//!
//! A channel can be **instrumented** with a [`ChannelStats`] block via
//! [`channel_instrumented`]: each send bumps the chunk count and the
//! **peak queue depth**, and time a side spends *actually parked* on the
//! condvar is credited as send-wait / recv-wait (the uncontended fast
//! path is never timed — see [`crate::telemetry`] for the recording
//! contract). The flight recorder reads the same block as each stage's
//! queue high-water mark — the witness that the bound held (peak ≤
//! capacity while total chunks ran far beyond it).
//!
//! ```
//! let (tx, rx) = tt_par::bounded::channel::<u32>(2);
//! std::thread::scope(|scope| {
//!     scope.spawn(move || {
//!         for i in 0..100 {
//!             tx.send(i).unwrap();
//!         }
//!     });
//!     let got: Vec<u32> = rx.iter().collect();
//!     assert_eq!(got, (0..100).collect::<Vec<u32>>());
//! });
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::telemetry::ChannelStats;

/// State shared by the two endpoints.
struct Shared<T> {
    queue: Mutex<Inner<T>>,
    /// Signalled when the queue gains a message or the sender disconnects.
    not_empty: Condvar,
    /// Signalled when the queue loses a message or the receiver disconnects.
    not_full: Condvar,
    capacity: usize,
    /// Counter block to update; `None` for an uninstrumented channel.
    stats: Option<Arc<ChannelStats>>,
}

impl<T> Shared<T> {
    /// Credits time parked on a full queue (no-op when never parked).
    fn credit_send_wait(&self, parked: Option<Instant>) {
        if let Some(parked) = parked {
            let ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(stats) = &self.stats {
                stats.add_send_wait(ns);
            }
        }
    }

    /// Credits time parked on an empty queue (no-op when never parked).
    fn credit_recv_wait(&self, parked: Option<Instant>) {
        if let Some(parked) = parked {
            let ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(stats) = &self.stats {
                stats.add_recv_wait(ns);
            }
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
}

/// The sending half of a [`channel`]; blocks on a full queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a [`channel`]; blocks on an empty queue.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

/// Creates a bounded SPSC channel holding at most `capacity` messages
/// (clamped to at least 1).
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel_instrumented(capacity, None)
}

/// [`channel`] updating a [`ChannelStats`] block: each send records the
/// chunk and the post-push queue depth, and time either side spends
/// parked on the condvar is credited as send-/recv-wait. `None` makes
/// this identical to [`channel`] (no timing, no counting — the fast path
/// stays untimed either way).
#[must_use]
pub fn channel_instrumented<T>(
    capacity: usize,
    stats: Option<Arc<ChannelStats>>,
) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Inner {
            items: VecDeque::new(),
            sender_alive: true,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
        stats,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the queue is at capacity.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the receiver has been dropped — the
    /// producer should stop; nothing it sends can be observed any more.
    ///
    /// A poisoned channel mutex (a peer thread panicked mid-operation) is
    /// recovered, not propagated: the queue's invariants are maintained
    /// before every await point, so the inner state is always coherent.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut inner = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Stamped the first time we actually park; blocked time is the
        // whole span from first park to completion, spurious wakes
        // included (we were blocked throughout).
        let mut parked: Option<Instant> = None;
        loop {
            if !inner.receiver_alive {
                drop(inner);
                self.shared.credit_send_wait(parked);
                return Err(value);
            }
            if inner.items.len() < self.shared.capacity {
                inner.items.push_back(value);
                let depth = inner.items.len();
                if let Some(stats) = &self.shared.stats {
                    stats.on_send(depth);
                }
                drop(inner);
                self.shared.credit_send_wait(parked);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            if parked.is_none() && self.shared.stats.is_some() {
                // lint:allow(determinism) -- blocked-time telemetry stamp; taken only when a recorder is attached and never feeds the data path
                parked = Some(Instant::now());
            }
            inner = self
                .shared
                .not_full
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.sender_alive = false;
        drop(inner);
        self.shared.not_empty.notify_one();
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, blocking while the queue is empty.
    /// Returns `None` once the sender is gone **and** the queue has
    /// drained — the clean end-of-stream.
    ///
    /// A poisoned channel mutex is recovered, not propagated, as in
    /// [`Sender::send`].
    pub fn recv(&self) -> Option<T> {
        let mut inner = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut parked: Option<Instant> = None;
        loop {
            if let Some(value) = inner.items.pop_front() {
                drop(inner);
                self.shared.credit_recv_wait(parked);
                self.shared.not_full.notify_one();
                return Some(value);
            }
            if !inner.sender_alive {
                drop(inner);
                self.shared.credit_recv_wait(parked);
                return None;
            }
            if parked.is_none() && self.shared.stats.is_some() {
                // lint:allow(determinism) -- blocked-time telemetry stamp; taken only when a recorder is attached and never feeds the data path
                parked = Some(Instant::now());
            }
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A blocking iterator over the stream: yields until end-of-stream.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| self.recv())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.receiver_alive = false;
        // Unblock a producer parked on a full queue; anything still queued
        // is dropped here with the receiver.
        inner.items.clear();
        drop(inner);
        self.shared.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn transfers_in_order_across_threads() {
        let (tx, rx) = channel::<u64>(3);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..10_000 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<u64> = rx.iter().collect();
            assert_eq!(got, (0..10_000).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn capacity_bounds_the_queue() {
        let stats = Arc::new(ChannelStats::new());
        let (tx, rx) = channel_instrumented::<u64>(4, Some(Arc::clone(&stats)));
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // A fast producer against a slow consumer: the bound, not
                // the consumer's pace, must cap the queue.
                for i in 0..500 {
                    tx.send(i).unwrap();
                }
            });
            let mut n = 0;
            while rx.recv().is_some() {
                n += 1;
                if n % 16 == 0 {
                    std::thread::yield_now();
                }
            }
            assert_eq!(n, 500);
        });
        assert_eq!(stats.chunks(), 500);
        assert!(
            stats.peak_depth() <= 4,
            "peak {} exceeded capacity",
            stats.peak_depth()
        );
        assert!(stats.peak_depth() >= 1);
    }

    #[test]
    fn dropped_receiver_rejects_sends() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn dropped_receiver_unblocks_a_full_sender() {
        let (tx, rx) = channel::<u32>(1);
        tx.send(1).unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(10));
            drop(rx);
            assert_eq!(handle.join().unwrap(), Err(2));
        });
    }

    #[test]
    fn dropped_sender_drains_then_ends() {
        let (tx, rx) = channel::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let (tx, rx) = channel::<u32>(0);
        tx.send(9).unwrap();
        assert_eq!(rx.recv(), Some(9));
    }

    #[test]
    fn blocked_sender_accrues_send_wait() {
        let stats = Arc::new(ChannelStats::new());
        let (tx, rx) = channel_instrumented::<u32>(1, Some(Arc::clone(&stats)));
        tx.send(1).unwrap();
        std::thread::scope(|scope| {
            // The queue is full: this send parks until the recv below.
            let handle = scope.spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Some(1));
            handle.join().unwrap().unwrap();
        });
        assert_eq!(rx.recv(), Some(2));
        assert!(
            stats.send_wait() >= Duration::from_millis(10),
            "send_wait {:?} too small for a ~20ms park",
            stats.send_wait()
        );
        // The receiver never parked: both recvs found items queued.
        assert_eq!(stats.recv_wait(), Duration::ZERO);
    }

    #[test]
    fn starved_receiver_accrues_recv_wait() {
        let stats = Arc::new(ChannelStats::new());
        let (tx, rx) = channel_instrumented::<u32>(4, Some(Arc::clone(&stats)));
        std::thread::scope(|scope| {
            // The queue is empty: this recv parks until the send below.
            let handle = scope.spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(5).unwrap();
            assert_eq!(handle.join().unwrap(), Some(5));
        });
        assert!(
            stats.recv_wait() >= Duration::from_millis(10),
            "recv_wait {:?} too small for a ~20ms park",
            stats.recv_wait()
        );
        assert_eq!(stats.send_wait(), Duration::ZERO);
    }

    #[test]
    fn uninstrumented_channel_records_nothing() {
        // No stats block must behave exactly like a plain channel (this
        // is the zero-overhead baseline).
        let (tx, rx) = channel_instrumented::<u32>(2, None);
        tx.send(1).unwrap();
        assert_eq!(rx.recv(), Some(1));
    }
}
