//! Property: per-worker `obs::Shard`s merged in spawn order (the
//! `fold_chunked` combine discipline) carry exactly the totals a
//! single-threaded pass produces, at every thread count — the
//! determinism story of the tentpole's "thread-aware registry" — plus
//! the per-second-ring and event-ring laws the serve-path telemetry
//! leans on: `SecondRing<Hist>` merges commute, every `SecondRing`
//! instantiation (histogram, last-write-wins `f64`, `(good, bad)`
//! tallies) matches a brute-force oracle over the event log, and the
//! event ring conserves pushed = held + dropped.

use std::collections::BTreeMap;

use patchdb_rt::check::check;
use patchdb_rt::obs::{self, EventRing, Hist, SecondRing, Shard};
use patchdb_rt::par;

/// Folds `items` into a shard exactly as an instrumented parallel pass
/// would: one shard per chunk, combined left-to-right in chunk order.
fn sharded_totals(items: &[u64], threads: usize) -> Shard {
    par::fold_chunked(
        items,
        threads,
        Shard::new,
        |mut shard, &v| {
            shard.add("events", 1);
            shard.add("weight", v % 97);
            shard.record("value", v % 1000);
            shard
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    )
}

#[test]
fn shard_merge_equals_single_threaded_totals() {
    check("obs_shard_merge_thread_invariant", 128, |g| {
        let items = g.vec_with(0, 64, |g| g.u64());
        let serial = sharded_totals(&items, 1);
        for threads in [2usize, 8] {
            let parallel = sharded_totals(&items, threads);
            assert_eq!(
                serial.counter("events"),
                parallel.counter("events"),
                "event count drift at {threads} threads"
            );
            assert_eq!(
                serial.counter("weight"),
                parallel.counter("weight"),
                "weight drift at {threads} threads"
            );
        }
    });
}

/// Window merges are commutative for equal capacities: however two
/// workers' per-second shards are combined, the merged window reports
/// the same slots, counts and quantiles.
#[test]
fn window_merge_is_commutative() {
    check("obs_window_merge_commutative", 128, |g| {
        let capacity = g.usize_in(1, 12);
        let events = |g: &mut patchdb_rt::check::Gen| -> Vec<(u64, u64)> {
            g.vec_with(0, 40, |g| (g.u64_in(0, 30), g.u64_in(0, 5_000)))
        };
        let (ea, eb) = (events(g), events(g));
        let fill = |events: &[(u64, u64)]| {
            let mut w: SecondRing<Hist> = SecondRing::new(capacity);
            for &(second, value) in events {
                w.record_at(second, value);
            }
            w
        };
        let (a, b) = (fill(&ea), fill(&eb));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge order changed the window (capacity {capacity})");
    });
}

/// Every `SecondRing` instantiation agrees with a brute-force oracle
/// over the raw event log, for every (now, window) pair — slot rotation
/// and window-edge eviction can't silently double-count, resurrect, or
/// reorder seconds. One generated log drives all three: histogram
/// counts, last-write-wins `f64` samples, and `(good, bad)` tallies.
#[test]
fn window_counts_match_the_event_log_oracle() {
    check("obs_window_count_oracle", 128, |g| {
        let capacity = g.usize_in(1, 16) as u64;
        // Non-decreasing event seconds: a monotonic clock never hands a
        // recorder an already-evicted second, so every event is kept
        // unless the ring itself rotated past it.
        let mut second = 0u64;
        let events: Vec<(u64, u64)> = g.vec_with(0, 50, |g| {
            second += g.u64_in(0, 3);
            (second, g.u64_in(0, 100))
        });
        let mut hists: SecondRing<Hist> = SecondRing::new(capacity as usize);
        let mut samples: SecondRing<f64> = SecondRing::new(capacity as usize);
        let mut tallies: SecondRing<(u64, u64)> = SecondRing::new(capacity as usize);
        for &(s, v) in &events {
            hists.record_at(s, v);
            if let Some(slot) = samples.slot_mut(s) {
                *slot = v as f64;
            }
            if let Some((good, bad)) = tallies.slot_mut(s) {
                if v % 3 == 0 { *bad += 1 } else { *good += 1 }
            }
        }
        let now = second;
        for window in [0u64, 1, 2, capacity, capacity + 7] {
            // In the trailing window, and not rotated out of the ring.
            let kept: Vec<(u64, u64)> = events
                .iter()
                .copied()
                .filter(|&(s, _)| s + window > now && s + capacity > now && s <= now)
                .collect();
            let ctx = format!("window {window} at now {now} (capacity {capacity}): {events:?}");

            assert_eq!(hists.merged(now, window).count(), kept.len() as u64, "hist {ctx}");

            let last: BTreeMap<u64, f64> = kept.iter().map(|&(s, v)| (s, v as f64)).collect();
            let got: Vec<(u64, f64)> = samples.window(now, window).map(|(s, &v)| (s, v)).collect();
            assert_eq!(got, last.into_iter().collect::<Vec<_>>(), "f64 {ctx}");

            let bad = kept.iter().filter(|&&(_, v)| v % 3 == 0).count() as u64;
            let got = tallies
                .window(now, window)
                .fold((0, 0), |(g, b), (_, &(dg, db))| (g + dg, b + db));
            assert_eq!(got, (kept.len() as u64 - bad, bad), "tallies {ctx}");
        }
    });
}

/// The ring conserves records: pushed = held + dropped, and what is
/// held is exactly the newest suffix in push order.
#[test]
fn ring_overwrites_oldest_and_counts_drops() {
    check("obs_ring_conservation", 128, |g| {
        let capacity = g.usize_in(1, 8);
        let pushes = g.usize_in(0, 40);
        let ring: EventRing<usize> = EventRing::new(capacity);
        for i in 0..pushes {
            ring.push(i);
        }
        assert_eq!(ring.total(), pushes as u64);
        assert_eq!(ring.len(), pushes.min(capacity));
        assert_eq!(ring.dropped(), pushes.saturating_sub(capacity) as u64);
        let expect: Vec<usize> = (pushes.saturating_sub(capacity)..pushes).collect();
        assert_eq!(ring.recent(capacity + 5), expect, "ring lost order");
        let tail = ring.recent(1);
        if pushes > 0 {
            assert_eq!(tail, vec![pushes - 1]);
        } else {
            assert!(tail.is_empty());
        }
    });
}

/// A recorder that skips far ahead in absolute seconds — an idle server
/// waking after minutes of silence — must reclaim every stale slot it
/// collides with, across multiple full ring wraps, and never resurrect
/// evicted history into a fresh window.
#[test]
fn window_lookback_survives_multi_wrap_second_skips() {
    check("obs_window_multi_wrap_skip", 128, |g| {
        let capacity = g.usize_in(1, 8) as u64;
        // Fill an initial busy second range, then jump several full
        // wraps ahead (always > 2 rings), then record a small burst.
        let busy = g.u64_in(1, 20);
        for_each_skip(capacity, busy, g.u64_in(2, 5), g.u64_in(0, capacity - 1));
    });

    fn for_each_skip(capacity: u64, busy: u64, wraps: u64, offset: u64) {
        let mut w: SecondRing<Hist> = SecondRing::new(capacity as usize);
        for s in 0..busy {
            w.record_at(s, 100 + s);
        }
        let jump = busy + capacity * wraps + offset;
        w.record_at(jump, 7);
        // The old burst is beyond the horizon: no window anchored at the
        // new now may see it, even one as wide as the whole ring.
        let all = w.merged(jump, capacity);
        assert_eq!(all.count(), 1, "old seconds leaked after a {wraps}-wrap skip");
        assert_eq!(all.max(), 7);
        // Colliding slots were reclaimed lazily, so slots not collided
        // with may still *hold* stale seconds — but merged() must
        // exclude them at every window width.
        for window in 1..=capacity {
            assert!(
                w.merged(jump, window).count() <= 1,
                "stale slot counted at window {window} after skip to {jump}"
            );
        }
        // Recording into the current second keeps accumulating.
        w.record_at(jump, 9);
        assert_eq!(w.merged(jump, 1).count(), 2);
    }
}

/// Drop accounting at the exact capacity boundary: the push that fills
/// the ring drops nothing; the very next push drops exactly one.
#[test]
fn ring_drop_counting_at_exact_capacity_boundaries() {
    for capacity in [1usize, 2, 7, 64] {
        let ring: EventRing<usize> = EventRing::new(capacity);
        for i in 0..capacity {
            ring.push(i);
            assert_eq!(ring.dropped(), 0, "dropped before full at capacity {capacity}");
        }
        assert_eq!(ring.len(), capacity);
        assert_eq!(ring.total(), capacity as u64);
        // The boundary push: exactly one drop, length pinned at capacity.
        ring.push(capacity);
        assert_eq!(ring.dropped(), 1, "boundary push at capacity {capacity}");
        assert_eq!(ring.len(), capacity);
        assert_eq!(ring.total(), capacity as u64 + 1);
        assert_eq!(ring.recent(1), vec![capacity]);
        // And the one after: monotone by exactly one again.
        ring.push(capacity + 1);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), capacity);
    }
}

/// Flushing a shard lands its totals in the global registry (and is a
/// no-op while tracing is off). Serialized into one test because the
/// registry is process-global.
#[test]
fn shard_flush_respects_the_toggle() {
    obs::set_enabled(false);
    let mut shard = Shard::new();
    shard.add("obs_test.flush", 5);
    shard.record("obs_test.hist", 3);
    shard.flush(); // off: must not land
    assert_eq!(obs::counter_value("obs_test.flush"), 0);

    obs::set_enabled(true);
    obs::reset();
    shard.flush();
    shard.flush();
    let report = obs::report();
    obs::set_enabled(false);
    assert_eq!(report.counter("obs_test.flush"), Some(10));
    let (name, hist) = &report.histograms[0];
    assert_eq!(name, "obs_test.hist");
    assert_eq!(hist.count(), 2);
    assert_eq!(hist.sum(), 6);
}
