//! The per-second slot ring behind every time-scoped observation: the
//! registry's rolling-window histograms, the [`tsdb`](super::tsdb)
//! series, and the serve tier's SLO good/bad tallies.
//!
//! Slot `second % capacity` covers one absolute second; the caller
//! supplies the clock, which keeps the type deterministic and testable
//! across simulated second boundaries. A write into a newer second
//! lazily reclaims the slot (rotation costs nothing when idle, one slot
//! reset per second under load); a write into an older second than the
//! slot holds is refused, since accepting it would resurrect evicted
//! data. What a write does to its slot is the caller's business: record
//! into a [`Hist`], overwrite an `f64`, add to a `(good, bad)` pair.

use super::Hist;

/// Values two rings can combine slot by slot (see
/// [`SecondRing::merge`]). The merge must be commutative and
/// associative for ring merges to be.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

impl Merge for Hist {
    fn merge(&mut self, other: &Hist) {
        Hist::merge(self, other);
    }
}

/// Marks a slot that has never been written. No real second reaches it.
const VACANT: u64 = u64::MAX;

/// A fixed ring of per-second `T` slots (see the module docs).
///
/// ```rust
/// use patchdb_rt::obs::SecondRing;
///
/// let mut samples: SecondRing<f64> = SecondRing::new(60);
/// *samples.slot_mut(100).unwrap() = 1.5;
/// *samples.slot_mut(101).unwrap() = 2.5;
/// let points: Vec<(u64, f64)> = samples.window(101, 10).map(|(s, &v)| (s, v)).collect();
/// assert_eq!(points, vec![(100, 1.5), (101, 2.5)]);
/// assert_eq!(samples.window(200, 60).count(), 0); // everything aged out
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecondRing<T> {
    slots: Vec<(u64, T)>,
}

impl<T: Default> SecondRing<T> {
    /// A ring keeping `capacity_s` one-second slots (clamped to at
    /// least 1).
    pub fn new(capacity_s: usize) -> SecondRing<T> {
        SecondRing { slots: (0..capacity_s.max(1)).map(|_| (VACANT, T::default())).collect() }
    }

    /// The slot for absolute second `second`, ready to write: the slot's
    /// current value when it already covers `second`, a fresh
    /// `T::default()` when `second` is newer than what the slot held
    /// (or the slot is vacant), and `None` when `second` is older — it
    /// is beyond the horizon already.
    pub fn slot_mut(&mut self, second: u64) -> Option<&mut T> {
        let idx = (second % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.0 != second {
            if slot.0 != VACANT && slot.0 > second {
                return None; // late arrival from a second the ring already evicted
            }
            *slot = (second, T::default());
        }
        Some(&mut slot.1)
    }
}

impl<T> SecondRing<T> {
    /// How many one-second slots the ring holds — the longest lookback
    /// [`window`](Self::window) can answer in full.
    pub fn capacity_s(&self) -> usize {
        self.slots.len()
    }

    /// Every held slot covering a second in `(now_s - window_s, now_s]`,
    /// as `(second, value)` in ascending second order. The lookback
    /// clamps to [`capacity_s`](Self::capacity_s); vacant slots, slots
    /// still holding an older second, and seconds newer than `now_s`
    /// are skipped. A `window_s` of `0` yields nothing.
    pub fn window(&self, now_s: u64, window_s: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        let len = self.slots.len() as u64;
        let newest = now_s.min(VACANT - 1);
        let oldest = newest.saturating_add(1).saturating_sub(window_s.min(len));
        // Slots in second order starting at `oldest`'s, wrapping once.
        let (before, from) = self.slots.split_at((oldest % len) as usize);
        (oldest..=newest)
            .zip(from.iter().chain(before))
            .filter_map(|(second, (held, value))| (*held == second).then_some((second, value)))
    }
}

impl<T: Merge + Clone> SecondRing<T> {
    /// Folds `other` into `self`, slot by slot: equal seconds merge
    /// their values, a colliding newer second wins, vacant loses to
    /// anything. For equal capacities the operation is commutative —
    /// `a.merge(&b)` and `b.merge(&a)` are equal (pinned by the
    /// `rt::check` property in `crates/patchdb-rt/tests/obs.rs`).
    pub fn merge(&mut self, other: &SecondRing<T>) {
        for (second, value) in &other.slots {
            if *second == VACANT {
                continue;
            }
            let idx = (second % self.slots.len() as u64) as usize;
            let mine = &mut self.slots[idx];
            if mine.0 == VACANT || mine.0 < *second {
                *mine = (*second, value.clone());
            } else if mine.0 == *second {
                mine.1.merge(value);
            }
            // mine.0 > second: other's slot already aged out.
        }
    }
}

/// A rolling-window histogram: one [`Hist`] per second. It answers
/// "what was the p99 over the last N seconds" — the live-telemetry
/// question a cumulative histogram cannot, because its since-start
/// totals bury the present under the past.
///
/// ```rust
/// use patchdb_rt::obs::WindowHist;
///
/// let mut w = WindowHist::new(60);
/// w.record_at(100, 5);
/// w.record_at(101, 7);
/// assert_eq!(w.merged(101, 1).count(), 1);  // only second 101
/// assert_eq!(w.merged(101, 10).count(), 2); // both
/// assert_eq!(w.merged(200, 60).count(), 0); // everything aged out
/// ```
pub type WindowHist = SecondRing<Hist>;

impl SecondRing<Hist> {
    /// Records one observation at absolute second `second` (dropped when
    /// the second was already evicted, see [`slot_mut`](Self::slot_mut)).
    pub fn record_at(&mut self, second: u64, value: u64) {
        if let Some(hist) = self.slot_mut(second) {
            hist.record(value);
        }
    }

    /// Folds the trailing window `(now_s - window_s, now_s]` into one
    /// [`Hist`] — count/sum/max/quantiles over those seconds.
    pub fn merged(&self, now_s: u64, window_s: u64) -> Hist {
        let mut out = Hist::default();
        for (_, hist) in self.window(now_s, window_s) {
            out.merge(hist);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(ring: &SecondRing<f64>, now_s: u64, window_s: u64) -> Vec<(u64, f64)> {
        ring.window(now_s, window_s).map(|(s, &v)| (s, v)).collect()
    }

    fn totals(ring: &SecondRing<(u64, u64)>, now_s: u64, window_s: u64) -> (u64, u64) {
        ring.window(now_s, window_s).fold((0, 0), |(g, b), (_, &(dg, db))| (g + dg, b + db))
    }

    fn add(ring: &mut SecondRing<(u64, u64)>, second: u64, good: u64, bad: u64) {
        if let Some(slot) = ring.slot_mut(second) {
            slot.0 += good;
            slot.1 += bad;
        }
    }

    fn put(ring: &mut SecondRing<f64>, second: u64, value: f64) {
        if let Some(slot) = ring.slot_mut(second) {
            *slot = value;
        }
    }

    #[test]
    fn slots_rotate_across_second_boundaries() {
        let mut w = WindowHist::new(4);
        w.record_at(0, 10);
        w.record_at(1, 20);
        w.record_at(2, 30);
        assert_eq!(w.merged(2, 4).count(), 3);
        // Second 4 collides with second 0's slot (4 % 4 == 0) and
        // reclaims it; second 0's value is gone from every window.
        w.record_at(4, 40);
        assert_eq!(w.merged(4, 4).count(), 3); // seconds 1, 2, 4
        assert_eq!(w.merged(4, 4).sum(), 90);
        assert_eq!(w.merged(4, 1).count(), 1); // only second 4
    }

    #[test]
    fn window_edges_evict_exactly() {
        let mut w = WindowHist::new(64);
        w.record_at(0, 1);
        // Window of 64 ending at second 63 still covers second 0...
        assert_eq!(w.merged(63, 64).count(), 1);
        // ...and ending at second 64 no longer does.
        assert_eq!(w.merged(64, 64).count(), 0);
        // A 1-second window sees only its own second.
        assert_eq!(w.merged(0, 1).count(), 1);
        assert_eq!(w.merged(1, 1).count(), 0);
    }

    #[test]
    fn future_slots_are_excluded_from_a_past_now() {
        let mut w = WindowHist::new(8);
        w.record_at(5, 1);
        w.record_at(6, 1);
        assert_eq!(w.merged(5, 8).count(), 1, "second 6 must not leak into a now_s=5 view");
        // The same rule for the other instantiations.
        let mut series = SecondRing::new(8);
        put(&mut series, 3, 0.5);
        put(&mut series, 4, 1.0);
        put(&mut series, 5, 1.5);
        assert_eq!(points(&series, 4, 8), vec![(3, 0.5), (4, 1.0)]);
    }

    #[test]
    fn late_records_into_evicted_seconds_are_dropped() {
        let mut w = WindowHist::new(4);
        w.record_at(7, 70); // slot 3
        w.record_at(3, 30); // same slot, older second: dropped
        assert_eq!(w.merged(7, 4).count(), 1);
        assert_eq!(w.merged(7, 4).max(), 70);
    }

    #[test]
    fn zero_window_is_empty_and_lookback_truncates_at_the_ring() {
        let mut w = WindowHist::new(8);
        for s in 0..4 {
            w.record_at(s, 1);
            w.record_at(s, 2);
        }
        assert_eq!(w.merged(3, 0).count(), 0);
        assert_eq!(w.merged(3, 4).count(), 8);
        assert_eq!(w.merged(3, 8).count(), 8); // the ring starts at second 0
        let mut tallies = SecondRing::new(4);
        add(&mut tallies, 3, 1, 1);
        assert_eq!(totals(&tallies, 3, 0), (0, 0), "a zero window counts nothing");
    }

    #[test]
    fn quantiles_come_from_the_window_not_the_lifetime() {
        let mut w = WindowHist::new(16);
        for _ in 0..100 {
            w.record_at(0, 1_000_000); // an old slow burst
        }
        for _ in 0..10 {
            w.record_at(10, 100); // the recent regime
        }
        let recent = w.merged(10, 5);
        assert_eq!(recent.count(), 10);
        assert!(recent.quantile(0.99) < 1000, "old burst leaked into the window");
        let all = w.merged(10, 16);
        assert_eq!(all.count(), 110);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut w = WindowHist::new(0);
        assert_eq!(w.capacity_s(), 1);
        w.record_at(9, 3);
        assert_eq!(w.merged(9, 1).count(), 1);
        assert_eq!(SecondRing::<f64>::new(0).capacity_s(), 1);
    }

    #[test]
    fn series_round_trips_in_second_order() {
        let mut ring = SecondRing::new(8);
        put(&mut ring, 5, 1.5);
        put(&mut ring, 3, 0.5);
        put(&mut ring, 4, 1.0);
        assert_eq!(points(&ring, 5, 8), vec![(3, 0.5), (4, 1.0), (5, 1.5)]);
        assert_eq!(points(&ring, 5, 2), vec![(4, 1.0), (5, 1.5)]);
    }

    #[test]
    fn series_newer_seconds_reclaim_and_older_are_dropped() {
        let mut ring = SecondRing::new(4);
        put(&mut ring, 0, 10.0);
        put(&mut ring, 4, 40.0); // collides with second 0, reclaims it
        assert_eq!(points(&ring, 4, 4), vec![(4, 40.0)]);
        put(&mut ring, 0, 99.0); // beyond the horizon: dropped
        assert_eq!(points(&ring, 4, 4), vec![(4, 40.0)]);
    }

    #[test]
    fn series_same_second_refreshes_in_place() {
        let mut ring = SecondRing::new(4);
        put(&mut ring, 7, 1.0);
        put(&mut ring, 7, 2.0);
        assert_eq!(points(&ring, 7, 1), vec![(7, 2.0)]);
    }

    #[test]
    fn series_lookback_clamps_to_capacity_and_zero_is_empty() {
        let mut ring = SecondRing::new(4);
        for s in 0..8u64 {
            put(&mut ring, s, s as f64);
        }
        assert_eq!(points(&ring, 7, 0), vec![]);
        // Only the last 4 seconds survive the 4-slot ring.
        assert_eq!(points(&ring, 7, 100), vec![(4, 4.0), (5, 5.0), (6, 6.0), (7, 7.0)]);
    }

    #[test]
    fn tallies_accumulate_within_second_and_reclaim() {
        let mut ring = SecondRing::new(4);
        add(&mut ring, 10, 1, 0);
        add(&mut ring, 10, 0, 1);
        add(&mut ring, 11, 1, 0);
        assert_eq!(totals(&ring, 11, 2), (2, 1));
        assert_eq!(totals(&ring, 11, 1), (1, 0));
        add(&mut ring, 14, 1, 0); // collides with second 10, reclaims
        assert_eq!(totals(&ring, 14, 4), (2, 0));
        add(&mut ring, 10, 5, 5); // beyond the horizon: dropped
        assert_eq!(totals(&ring, 14, 4), (2, 0));
    }
}
