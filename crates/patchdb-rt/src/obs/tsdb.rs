//! An embedded metrics time-series store: one fixed-memory ring of
//! per-second scalar samples behind each metric name.
//!
//! `/metrics` answers "what is the value now"; the rolling windows
//! answer "what happened over the last minute". Neither answers "what
//! did this counter look like over the last ten minutes" — the question
//! an operator asks when a burn-rate alert fires and they want the
//! shape of the regression, not its instantaneous value. The tsdb keeps
//! that history in bounded memory: each series is a
//! [`SecondRing<f64>`](super::SecondRing) sized by a configurable
//! retention, where a same-second write overwrites (last write wins) —
//! rotation costs nothing when idle and one slot overwrite per second
//! under load. The store never allocates past
//! `series × retention × 16 bytes`, so a long-lived server's history
//! cost is fixed at boot.
//!
//! [`sample_registry`] is the bridge from the live registry: called
//! once per second (the serve event loop drives it off its tick), it
//! records every counter and gauge at its current value plus, for each
//! rolling window, the trailing-1 s rate and p99 — the series a latency
//! SLO wants to plot. Counters are sampled *cumulative*; consumers
//! difference adjacent points to recover per-second deltas, which keeps
//! the store stateless about what it sampled last.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use super::SecondRing;

/// Default per-series retention in seconds (10 minutes).
pub const DEFAULT_RETENTION_S: usize = 600;

struct Store {
    series: BTreeMap<String, SecondRing<f64>>,
    retention_s: usize,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(Store { series: BTreeMap::new(), retention_s: DEFAULT_RETENTION_S })
    })
}

/// Sets the retention for *new* series (existing rings keep their
/// size — resizing would re-hash history for no operational gain).
/// Clamped to at least 1.
pub fn set_retention_s(retention_s: usize) {
    store().lock().unwrap().retention_s = retention_s.max(1);
}

/// The retention new series are created with.
pub fn retention_s() -> usize {
    store().lock().unwrap().retention_s
}

impl Store {
    /// Writes `value` into the named series at `second`, creating the
    /// series (at the configured retention) on first touch. A second
    /// the ring already holds is overwritten — the sampler runs once
    /// per second, so this is the refresh path.
    fn put(&mut self, name: &str, second: u64, value: f64) {
        let retention = self.retention_s;
        let ring = self.series.entry(name.to_owned()).or_insert_with(|| SecondRing::new(retention));
        if let Some(slot) = ring.slot_mut(second) {
            *slot = value;
        }
    }
}

/// Records one sample into the named series at absolute second
/// `second`, creating the series (at the configured retention) on first
/// touch.
pub fn record_at(name: &str, second: u64, value: f64) {
    store().lock().unwrap().put(name, second, value);
}

/// The named series over the trailing `secs` seconds ending at `now_s`,
/// ascending by second. `None` when the series has never been recorded.
pub fn query(name: &str, now_s: u64, secs: u64) -> Option<Vec<(u64, f64)>> {
    let st = store().lock().unwrap();
    st.series.get(name).map(|ring| ring.window(now_s, secs).map(|(s, &v)| (s, v)).collect())
}

/// Every series name currently held, ascending.
pub fn names() -> Vec<String> {
    store().lock().unwrap().series.keys().cloned().collect()
}

/// Drops every series (the retention setting survives). Called by
/// [`reset`](super::reset) so a registry wipe cannot leave the store
/// plotting metrics that no longer exist.
pub fn reset() {
    store().lock().unwrap().series.clear();
}

/// Samples the live registry into the store at `now_s`: every counter
/// and gauge at its current value, plus `<name>.rate1s` /
/// `<name>.p99_1s` for each rolling window (the trailing-1 s request
/// rate and latency quantile — the raw series a latency SLO plots).
/// One registry snapshot per call; meant to run once per second.
pub fn sample_registry(now_s: u64) {
    let snap = super::metrics_snapshot();
    let mut st = store().lock().unwrap();
    for (name, value) in &snap.counters {
        st.put(name, now_s, *value as f64);
    }
    for (name, value) in &snap.gauges {
        st.put(name, now_s, *value as f64);
    }
    for (name, wh) in &snap.windows {
        let last = wh.merged(now_s, 1);
        st.put(&format!("{name}.rate1s"), now_s, last.count() as f64);
        st.put(&format!("{name}.p99_1s"), now_s, last.quantile(0.99) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_store_creates_series_lazily_and_resets() {
        // The store is process-global; use names no other test touches.
        record_at("tsdb.test.alpha", 10, 1.0);
        record_at("tsdb.test.alpha", 11, 2.0);
        assert_eq!(
            query("tsdb.test.alpha", 11, 60),
            Some(vec![(10, 1.0), (11, 2.0)])
        );
        assert_eq!(query("tsdb.test.never", 11, 60), None);
        assert!(names().contains(&"tsdb.test.alpha".to_owned()));
        reset();
        assert_eq!(query("tsdb.test.alpha", 11, 60), None);
    }
}
