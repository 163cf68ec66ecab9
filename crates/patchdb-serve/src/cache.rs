//! Content-addressed result cache for `/v1/identify`.
//!
//! Identify is a pure function of the request body: the same diff bytes
//! always parse to the same patch, extract the same feature row, and
//! score identically through the fitted forest. That purity makes the
//! response cacheable by construction: a hit returns byte-identical
//! output to the full pipeline, so the cache is a throughput lever with
//! no observable effect besides latency.
//!
//! The cache is keyed by a 64-bit hash of the raw body; every hit
//! verifies full byte equality against the stored body, so a hash
//! collision degrades to a miss instead of serving a wrong score.
//! Capacity is bounded twice — entry count and total stored body bytes —
//! and the whole map is flushed when either bound is hit: flush-on-full
//! keeps the structure trivially deterministic (no recency bookkeeping)
//! and refills within one pass over a hot working set.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Mutex;

use patchdb_rt::obs;

/// Default entry cap: tiny relative to serve memory, far above any hot
/// request working set.
const MAX_ENTRIES: usize = 4096;
/// Default byte cap on stored bodies (bodies can be up to the HTTP
/// layer's 4 MB body limit each).
const MAX_BYTES: usize = 64 * 1024 * 1024;

/// The 64-bit content key for a request body.
pub(crate) fn cache_key(body: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(body);
    hasher.finish()
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Vec<(Vec<u8>, f64)>>,
    entries: usize,
    bytes: usize,
}

/// Bounded body-bytes → score map shared by the event loop (lookup at
/// admission) and the workers (insert after scoring a miss).
pub(crate) struct IdentifyCache {
    inner: Mutex<Inner>,
    max_entries: usize,
    max_bytes: usize,
}

impl IdentifyCache {
    pub(crate) fn new() -> IdentifyCache {
        IdentifyCache::with_caps(MAX_ENTRIES, MAX_BYTES)
    }

    pub(crate) fn with_caps(max_entries: usize, max_bytes: usize) -> IdentifyCache {
        IdentifyCache {
            inner: Mutex::new(Inner::default()),
            max_entries,
            max_bytes,
        }
    }

    /// The cached score for `body`, if present. `key` must be
    /// `cache_key(body)`; callers pass it in so one hash serves both the
    /// lookup and a later insert.
    pub(crate) fn lookup(&self, key: u64, body: &[u8]) -> Option<f64> {
        let inner = self.inner.lock().unwrap();
        inner
            .map
            .get(&key)?
            .iter()
            .find(|(stored, _)| stored == body)
            .map(|&(_, score)| score)
    }

    /// Stores one scored body. Duplicate inserts (two in-flight misses
    /// for the same body) are collapsed; hitting either capacity bound
    /// flushes the whole map first.
    pub(crate) fn insert(&self, key: u64, body: Vec<u8>, score: f64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(bucket) = inner.map.get(&key) {
            if bucket.iter().any(|(stored, _)| stored == &body) {
                return;
            }
        }
        if inner.entries >= self.max_entries
            || inner.bytes.saturating_add(body.len()) > self.max_bytes
        {
            inner.map.clear();
            inner.entries = 0;
            inner.bytes = 0;
            obs::counter_add("serve.identify.cache_flushes", 1);
        }
        inner.entries += 1;
        inner.bytes += body.len();
        inner.map.entry(key).or_default().push((body, score));
        obs::gauge_set("serve.identify.cache_entries", inner.entries as i64);
        obs::gauge_set("serve.identify.cache_bytes", inner.bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_returns_what_insert_stored() {
        let cache = IdentifyCache::new();
        let body = b"diff --git a/x b/x".to_vec();
        let key = cache_key(&body);
        assert_eq!(cache.lookup(key, &body), None);
        cache.insert(key, body.clone(), 0.75);
        assert_eq!(cache.lookup(key, &body), Some(0.75));
    }

    #[test]
    fn colliding_key_with_different_bytes_is_a_miss_not_a_wrong_score() {
        let cache = IdentifyCache::new();
        let a = b"body a".to_vec();
        let key = cache_key(&a);
        cache.insert(key, a, 0.25);
        // Same key, different bytes: the equality check must refuse it.
        assert_eq!(cache.lookup(key, b"body b"), None);
        cache.insert(key, b"body b".to_vec(), 0.5);
        assert_eq!(cache.lookup(key, b"body b"), Some(0.5));
        assert_eq!(cache.lookup(key, b"body a"), Some(0.25));
    }

    #[test]
    fn duplicate_inserts_collapse() {
        let cache = IdentifyCache::with_caps(4, 1024);
        let body = b"same".to_vec();
        let key = cache_key(&body);
        for _ in 0..10 {
            cache.insert(key, body.clone(), 0.9);
        }
        assert_eq!(cache.inner.lock().unwrap().entries, 1);
    }

    #[test]
    fn entry_cap_flushes_and_refills() {
        let cache = IdentifyCache::with_caps(2, 1 << 20);
        for i in 0..3u8 {
            let body = vec![i; 4];
            cache.insert(cache_key(&body), body, f64::from(i));
        }
        // The third insert flushed the first two.
        let third = vec![2u8; 4];
        assert_eq!(cache.lookup(cache_key(&third), &third), Some(2.0));
        let first = vec![0u8; 4];
        assert_eq!(cache.lookup(cache_key(&first), &first), None);
        assert_eq!(cache.inner.lock().unwrap().entries, 1);
    }

    #[test]
    fn byte_cap_flushes_before_overflow() {
        let cache = IdentifyCache::with_caps(1024, 10);
        let big = vec![7u8; 8];
        cache.insert(cache_key(&big), big.clone(), 0.1);
        let more = vec![9u8; 8];
        cache.insert(cache_key(&more), more.clone(), 0.2);
        assert_eq!(cache.lookup(cache_key(&big), &big), None, "flushed");
        assert_eq!(cache.lookup(cache_key(&more), &more), Some(0.2));
        assert!(cache.inner.lock().unwrap().bytes <= 10);
    }
}
