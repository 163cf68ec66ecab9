//! The live-index handle: an atomically swappable, generation-counted
//! pointer to the currently served [`ServeIndex`].
//!
//! The swap protocol is copy-on-write and readers never block:
//!
//! * A new generation — index, plus a fresh identify cache, since
//!   cached scores must never leak across generations — is built
//!   entirely *off* the handle (from a dataset file or a snapshot).
//! * [`IndexHandle::swap`] replaces the current `Arc<Generation>` under
//!   a mutex held for a pointer store; [`IndexHandle::load`] is a lock
//!   + `Arc` clone, nanoseconds on the request path.
//! * Requests pin their generation at admission: an in-flight request
//!   keeps answering from the index it started with, a request admitted
//!   after the swap sees the new one, and the old generation is freed
//!   when its last pinned request drops its `Arc`.
//!
//! Swaps are driven by `POST /admin/reload` and SIGHUP (see
//! `event_loop`), surfaced as the `serve.index.generation` gauge, the
//! `serve.index.swaps` counter, `serve.index.swap_ns` /
//! `serve.index.reload_ns` histograms, and a generation stamp in
//! `/healthz`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use patchdb::{Error, PatchDb};
use patchdb_rt::obs;

use crate::cache::IdentifyCache;
use crate::index::ServeIndex;

/// One immutable served generation: the index plus its private
/// identify cache.
pub(crate) struct Generation {
    pub(crate) number: u64,
    pub(crate) index: ServeIndex,
    pub(crate) cache: IdentifyCache,
}

/// A shared, atomically swappable reference to the served index.
///
/// Cloning the handle is cheap and every clone observes the same
/// current generation; [`IndexHandle::swap`] is visible to all clones.
/// Single-index callers construct one with `From<ServeIndex>`.
#[derive(Clone)]
pub struct IndexHandle {
    current: Arc<Mutex<Arc<Generation>>>,
}

impl IndexHandle {
    /// Wraps an index as generation 1.
    pub fn new(index: ServeIndex) -> IndexHandle {
        let generation = Arc::new(Generation { number: 1, index, cache: IdentifyCache::new() });
        obs::gauge_set("serve.index.generation", 1);
        IndexHandle { current: Arc::new(Mutex::new(generation)) }
    }

    /// The currently served generation, pinned: the returned `Arc`
    /// keeps that generation's index and cache alive for as long as
    /// the caller holds it, across any number of swaps.
    pub(crate) fn load(&self) -> Arc<Generation> {
        self.current.lock().expect("index handle poisoned").clone()
    }

    /// The current generation number (1-based, bumped by every swap).
    pub fn generation(&self) -> u64 {
        self.load().number
    }

    /// Atomically replaces the served index with `index`, returning the
    /// new generation number. In-flight requests keep the generation
    /// they pinned at admission; requests admitted after this call see
    /// the new one. The critical section is a pointer exchange — no
    /// reader ever waits on an index build.
    pub fn swap(&self, index: ServeIndex) -> u64 {
        let swap_started = Instant::now();
        let number = {
            let mut current = self.current.lock().expect("index handle poisoned");
            let number = current.number + 1;
            *current = Arc::new(Generation { number, index, cache: IdentifyCache::new() });
            number
        };
        let swap_ns = swap_started.elapsed().as_nanos() as u64;
        obs::counter_add("serve.index.swaps", 1);
        obs::hist_record("serve.index.swap_ns", swap_ns);
        obs::gauge_set("serve.index.generation", number as i64);
        // The fresh generation starts with an empty cache; reset the
        // occupancy gauges its predecessor left behind.
        obs::gauge_set("serve.identify.cache_entries", 0);
        obs::gauge_set("serve.identify.cache_bytes", 0);
        // Stamp the swap into the time-series store immediately — an
        // idle server's next per-second sample could be up to a second
        // away, and swap-vs-latency correlation is the point of the
        // generation series.
        obs::tsdb::record_at("serve.index.generation", obs::process_second(), number as f64);
        number
    }
}

impl From<ServeIndex> for IndexHandle {
    fn from(index: ServeIndex) -> Self {
        IndexHandle::new(index)
    }
}

/// Where `/admin/reload` and SIGHUP rebuild the next generation from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadSource {
    /// Re-read a built dataset JSON file and re-run the index pipeline
    /// (weights, forest, signatures).
    Dataset(String),
    /// Re-read a binary snapshot file (no pipeline at all).
    Snapshot(String),
}

/// Builds the next generation from `source` and swaps it in. The
/// entire build happens before the swap — traffic keeps flowing against
/// the old generation throughout.
pub(crate) fn reload(handle: &IndexHandle, source: &ReloadSource) -> Result<u64, Error> {
    let started = Instant::now();
    let index = match source {
        ReloadSource::Dataset(path) => {
            let text = std::fs::read_to_string(path)?;
            ServeIndex::build(PatchDb::from_json(&text)?)
        }
        ReloadSource::Snapshot(path) => ServeIndex::load_snapshot(path)?,
    };
    let number = handle.swap(index);
    obs::hist_record("serve.index.reload_ns", started.elapsed().as_nanos() as u64);
    Ok(number)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchdb::BuildOptions;

    fn tiny(seed: u64) -> ServeIndex {
        ServeIndex::build(PatchDb::build(&BuildOptions::tiny(seed).synthesize(false)).db)
    }

    #[test]
    fn swap_bumps_generation_and_pins_old_readers() {
        let handle = IndexHandle::from(tiny(5));
        assert_eq!(handle.generation(), 1);
        let pinned = handle.load();
        let sigs_before = pinned.index.signature_count();
        let next = tiny(7);
        let sigs_after = next.signature_count();
        assert_ne!(sigs_before, sigs_after, "the two generations must be distinguishable");
        let new_number = handle.swap(next);
        assert_eq!(new_number, 2);
        assert_eq!(handle.generation(), 2);
        // The pinned generation still answers from the old index.
        assert_eq!(pinned.number, 1);
        assert_eq!(pinned.index.signature_count(), sigs_before);
        assert_eq!(handle.load().index.signature_count(), sigs_after);
    }

    #[test]
    fn clones_share_the_same_current_generation() {
        let handle = IndexHandle::from(tiny(5));
        let clone = handle.clone();
        handle.swap(tiny(5));
        assert_eq!(clone.generation(), 2);
    }

    #[test]
    fn reload_rejects_a_missing_source() {
        let handle = IndexHandle::from(tiny(5));
        let missing = ReloadSource::Dataset("/nonexistent/patchdb.json".into());
        assert!(matches!(reload(&handle, &missing), Err(Error::Io(_))));
        // A failed reload must leave the served generation untouched.
        assert_eq!(handle.generation(), 1);
    }
}
