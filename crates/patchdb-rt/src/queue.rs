//! A small bounded MPMC queue over `Mutex` + `Condvar` — the admission
//! buffer behind `patchdb-serve`'s accept loop, usable anywhere a
//! fixed-capacity producer/consumer hand-off with explicit backpressure
//! is needed.
//!
//! The shape is deliberately minimal: producers **never block** — when
//! the queue is full, [`BoundedQueue::try_push`] hands the item straight
//! back so the caller can shed load (respond `503`, drop, retry later)
//! instead of queueing unboundedly. Consumers block in
//! [`BoundedQueue::pop`] until an item arrives or the queue is closed
//! and drained, which makes "stop accepting, finish what's queued" a
//! one-call graceful-drain protocol: `close()` wakes every sleeping
//! consumer, and each keeps popping until the backlog is empty.
//!
//! ```rust
//! use patchdb_rt::queue::{BoundedQueue, PushError};
//!
//! let q = BoundedQueue::new(2);
//! q.try_push(1).unwrap();
//! q.try_push(2).unwrap();
//! assert_eq!(q.try_push(3), Err(PushError::Full(3))); // backpressure
//! q.close();
//! assert_eq!(q.pop(), Some(1)); // drains in FIFO order after close
//! assert_eq!(q.pop(), Some(2));
//! assert_eq!(q.pop(), None);    // closed and empty
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused; the item comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the load.
    Full(T),
    /// The queue was closed — no new work is admitted.
    Closed(T),
}

impl<T> PushError<T> {
    /// The rejected item, regardless of the reason.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity FIFO hand-off between threads. See the module docs
/// for the non-blocking-producer / blocking-consumer contract.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (clamped to at
    /// least 1 — a zero-capacity queue could never hand anything off).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` unless the queue is full or closed; never blocks.
    ///
    /// # Errors
    ///
    /// Returns the item back inside [`PushError::Full`] (at capacity) or
    /// [`PushError::Closed`] (after [`close`](Self::close)).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open but
    /// empty. Returns `None` once the queue is closed **and** drained —
    /// the consumer's signal to exit its loop.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// already-queued items remain poppable, and every consumer blocked
    /// in [`pop`](Self::pop) wakes up. Idempotent.
    pub fn close(&self) {
        // Setting the flag is valid whatever a panicking holder left
        // behind, and a close from a drop guard must not panic again.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(3);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.try_push(4).unwrap(); // pops free capacity back up
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn full_queue_sheds_rather_than_blocks() {
        let q = BoundedQueue::new(1);
        q.try_push("a").unwrap();
        assert_eq!(q.try_push("b"), Err(PushError::Full("b")));
        assert_eq!(q.pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_rejects_pushes_but_drains_backlog() {
        let q = BoundedQueue::new(4);
        q.try_push(10).unwrap();
        q.close();
        assert_eq!(q.try_push(11), Err(PushError::Closed(11)));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays terminal
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
    }

    #[test]
    fn push_error_hands_the_item_back() {
        assert_eq!(PushError::Full(7).into_inner(), 7);
        assert_eq!(PushError::Closed(8).into_inner(), 8);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        // Give consumers a moment to block, then feed and close.
        std::thread::sleep(Duration::from_millis(10));
        for v in 0..20 {
            while q.try_push(v).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut all: Vec<u32> =
            consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }
}
