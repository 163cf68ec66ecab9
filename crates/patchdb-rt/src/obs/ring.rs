//! A fixed-capacity, overwrite-oldest ring buffer for structured event
//! records — the request log behind `GET /debug/requests`.
//!
//! Unlike counters and histograms, which aggregate, the ring keeps the
//! *individual* most-recent events (request records, slow exemplars) so
//! an operator can ask "what were the last N requests and where did each
//! spend its time". Pushing never blocks and never grows memory: at
//! capacity the oldest record is overwritten and counted as dropped, so
//! the drop counter tells a reader exactly how much history the window
//! has lost. One short mutex-guarded critical section per operation —
//! cheap next to the socket work surrounding every push.

use std::collections::VecDeque;
use std::sync::Mutex;

struct Inner<T> {
    items: VecDeque<T>,
    dropped: u64,
    total: u64,
}

/// A thread-safe, fixed-capacity, overwrite-oldest event buffer.
///
/// ```rust
/// use patchdb_rt::obs::EventRing;
///
/// let ring = EventRing::new(2);
/// ring.push("a");
/// ring.push("b");
/// ring.push("c"); // overwrites "a"
/// assert_eq!(ring.recent(8), vec!["b", "c"]);
/// assert_eq!(ring.dropped(), 1);
/// assert_eq!(ring.total(), 3);
/// ```
pub struct EventRing<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
}

impl<T: Clone> EventRing<T> {
    /// A ring holding at most `capacity` records (clamped to at least 1).
    pub fn new(capacity: usize) -> EventRing<T> {
        let capacity = capacity.max(1);
        EventRing {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                dropped: 0,
                total: 0,
            }),
            capacity,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, overwriting (and drop-counting) the oldest when
    /// the ring is full. Never blocks beyond the ring mutex.
    pub fn push(&self, item: T) {
        let mut inner = self.inner.lock().unwrap();
        if inner.items.len() == self.capacity {
            inner.items.pop_front();
            inner.dropped += 1;
        }
        inner.items.push_back(item);
        inner.total += 1;
    }

    /// The last `n` records, oldest first (fewer when the ring holds
    /// fewer).
    pub fn recent(&self, n: usize) -> Vec<T> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.items.len().saturating_sub(n);
        inner.items.iter().skip(skip).cloned().collect()
    }

    /// The newest held record matching `pred`, cloned — only the match
    /// is copied out, whatever the ring's size.
    pub fn rfind(&self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        self.inner.lock().unwrap().items.iter().rev().find(|item| pred(item)).cloned()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Records ever pushed (held + dropped).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_and_counts_the_drops() {
        let ring = EventRing::new(4);
        for v in 0..10 {
            ring.push(v);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recent(99), vec![6, 7, 8, 9]);
        assert_eq!(ring.recent(2), vec![8, 9]);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.rfind(|&v| v % 2 == 0), Some(8), "newest match wins");
        assert_eq!(ring.rfind(|&v| v < 6), None, "overwritten records are gone");
    }

    #[test]
    fn under_capacity_nothing_drops() {
        let ring = EventRing::new(8);
        ring.push('x');
        ring.push('y');
        assert_eq!(ring.recent(8), vec!['x', 'y']);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.total(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.recent(9), vec![2]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn concurrent_pushes_conserve_totals() {
        let ring = std::sync::Arc::new(EventRing::new(16));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..50 {
                        ring.push(t * 100 + i);
                    }
                });
            }
        });
        assert_eq!(ring.total(), 200);
        assert_eq!(ring.len(), 16);
        assert_eq!(ring.dropped(), 200 - 16);
    }
}
