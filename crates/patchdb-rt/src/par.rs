//! Scoped-thread fan-out over `std::thread::scope`, replacing the
//! `crossbeam::scope` uses in the workspace.
//!
//! The shapes the workspace needs are "map a slice across a few worker
//! threads, preserving order" ([`map_chunked`], [`map_chunked_indexed`])
//! and "fold a slice per chunk, then combine in a fixed order"
//! ([`fold_chunked`]). [`suggested_threads`] picks a sane worker count
//! and [`configured_threads`] layers the `PATCHDB_THREADS` environment
//! override on top, so one knob steers every parallel site.
//!
//! Every primitive here is deterministic: chunk boundaries depend only on
//! input length and thread count, results are reassembled in input order,
//! and [`fold_chunked`] combines chunk accumulators strictly left to
//! right — so output is a pure function of the input even though wall
//! time is not.

use std::panic;
use std::sync::OnceLock;

/// A worker count: available parallelism capped at `cap`, at least 1.
///
/// `available_parallelism` reads cgroup files on Linux, so it is asked
/// once per process and cached.
pub fn suggested_threads(cap: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available =
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    available.min(cap).max(1)
}

/// The worker count parallel call sites should use: the `PATCHDB_THREADS`
/// environment variable when set to a positive integer (taking precedence
/// over `cap` — an explicit override wins), otherwise
/// [`suggested_threads`]`(cap)`.
///
/// Because every primitive in this module is deterministic, changing
/// `PATCHDB_THREADS` changes wall time but never output bytes;
/// `tests/determinism.rs` pins that.
/// A misconfigured `PATCHDB_THREADS` must not fail silently, but it also
/// must not spam stderr once per parallel call site — warn exactly once
/// per process.
///
/// `0` is clamped to `1` (the smallest legal worker count); anything
/// unparsable falls back to [`suggested_threads`]. The variable is read
/// on every call, so a process may change it at runtime.
pub fn configured_threads(cap: usize) -> usize {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    let (threads, warning) =
        interpret_thread_override(std::env::var("PATCHDB_THREADS").ok().as_deref());
    if let Some(msg) = warning {
        WARN_ONCE.call_once(|| eprintln!("warning: {msg}"));
    }
    threads.unwrap_or_else(|| suggested_threads(cap))
}

/// The pure core of [`configured_threads`]: interprets a raw
/// `PATCHDB_THREADS` value as `(worker count override, warning)`.
fn interpret_thread_override(raw: Option<&str>) -> (Option<usize>, Option<String>) {
    let Some(raw) = raw else { return (None, None) };
    match raw.trim().parse::<usize>() {
        Ok(0) => (
            Some(1),
            Some("PATCHDB_THREADS=0 is not a valid worker count; clamping to 1".to_owned()),
        ),
        Ok(n) => (Some(n), None),
        Err(_) => (
            None,
            Some(format!(
                "PATCHDB_THREADS={raw:?} is not a positive integer; \
                 falling back to the suggested worker count"
            )),
        ),
    }
}

/// Maps `f` over `items` using up to `threads` scoped worker threads,
/// returning results in input order.
///
/// Items are split into contiguous chunks, one per worker, so `f` should
/// be roughly uniform in cost. With `threads <= 1` or a single-element
/// input this degrades to a plain serial map with no thread spawns.
///
/// # Panics
///
/// When workers panic, every chunk is still joined, and then the panic of
/// the **earliest chunk in spawn order** is resumed on the caller's
/// thread — deterministically, even if a later chunk's panic happened
/// first in wall-clock time.
pub fn map_chunked<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    map_chunked_indexed(items, threads, |_, item| f(item))
}

/// [`map_chunked`], but `f` also receives each item's index in `items`.
///
/// The index lets workers address side tables (norms, ids, labels)
/// without zipping them into the input slice first. Same chunking,
/// ordering, and panic semantics as [`map_chunked`].
pub fn map_chunked_indexed<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let chunk_len = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(chunk_no, chunk)| {
                let f = &f;
                let base = chunk_no * chunk_len;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(base + i, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        // Join every handle in spawn order before propagating anything,
        // so the panic we resume is the first chunk's — not whichever
        // worker happened to lose the race.
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(chunk_results) => results.push(chunk_results),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
    });
    results.into_iter().flatten().collect()
}

/// Folds `items` chunk-wise in parallel, then combines the per-chunk
/// accumulators **left to right in chunk order** on the caller's thread.
///
/// Each worker starts from `init()` and folds its contiguous chunk with
/// `fold`; the caller then reduces the chunk accumulators with `combine`,
/// always as `combine(combine(a0, a1), a2)…`. For `combine` operations
/// that are associative over the values produced (elementwise `max`,
/// set union, concatenation), the result is bitwise identical at every
/// thread count; the fixed combine order is what keeps even
/// non-associative floating-point reductions deterministic for a given
/// `threads` value.
///
/// Panic semantics match [`map_chunked`]: the earliest chunk's panic is
/// resumed deterministically.
pub fn fold_chunked<T: Sync, A: Send>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> A + Sync,
    fold: impl Fn(A, &T) -> A + Sync,
    combine: impl FnMut(A, A) -> A,
) -> A {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().fold(init(), fold);
    }

    let chunk_len = items.len().div_ceil(threads);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let accs = map_chunked(&chunks, threads, |chunk| chunk.iter().fold(init(), &fold));
    accs.into_iter().reduce(combine).unwrap_or_else(init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        let out = map_chunked(&items, 4, |&x| x * x);
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn handles_degenerate_shapes() {
        assert_eq!(map_chunked::<u32, u32>(&[], 4, |&x| x), Vec::<u32>::new());
        assert_eq!(map_chunked(&[7], 4, |&x| x + 1), vec![8]);
        assert_eq!(map_chunked(&[1, 2, 3], 1, |&x| x), vec![1, 2, 3]);
        // More threads than items must not spawn empty-chunk workers.
        assert_eq!(map_chunked(&[1, 2], 16, |&x| x), vec![1, 2]);
    }

    #[test]
    fn indexed_map_sees_global_indices() {
        let items: Vec<u64> = (0..97).map(|x| x * 3).collect();
        for threads in [1, 2, 5] {
            let out = map_chunked_indexed(&items, threads, |i, &x| (i, x));
            let expected: Vec<(usize, u64)> =
                items.iter().enumerate().map(|(i, &x)| (i, x)).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn fold_chunked_matches_serial_fold() {
        let items: Vec<u64> = (1..=1000).collect();
        for threads in [1, 2, 3, 8] {
            let sum = fold_chunked(&items, threads, || 0u64, |acc, &x| acc + x, |a, b| a + b);
            assert_eq!(sum, 500_500, "threads={threads}");
        }
        // Empty input returns init().
        let zero = fold_chunked(&[] as &[u64], 4, || 7u64, |a, &x| a + x, |a, b| a + b);
        assert_eq!(zero, 7);
    }

    #[test]
    fn fold_chunked_combines_in_chunk_order() {
        // Concatenation is associative but not commutative: any
        // out-of-order combine would scramble the result.
        let items: Vec<u32> = (0..37).collect();
        for threads in [2, 4, 16] {
            let cat = fold_chunked(
                &items,
                threads,
                Vec::new,
                |mut acc: Vec<u32>, &x| {
                    acc.push(x);
                    acc
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(cat, items, "threads={threads}");
        }
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        map_chunked(&items, 4, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(seen.lock().unwrap().len() > 1, "expected work on >1 thread");
    }

    #[test]
    fn worker_panic_propagates() {
        let result = panic::catch_unwind(|| {
            map_chunked(&[1, 2, 3, 4], 2, |&x| {
                assert_ne!(x, 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn first_chunk_panic_wins_even_when_it_finishes_last() {
        // Two panicking chunks: [1, 2] and [3, 4] under 2 threads. The
        // first chunk sleeps so the second chunk's panic lands earlier in
        // wall-clock time; spawn order must still win.
        let result = panic::catch_unwind(|| {
            map_chunked(&[1, 2, 3, 4], 2, |&x| {
                if x <= 2 {
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("first-chunk failure");
                }
                panic!("second-chunk failure");
            })
        });
        let payload = result.expect_err("both chunks panicked");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string panic payload");
        assert_eq!(msg, "first-chunk failure", "panic from the wrong chunk won");
    }

    #[test]
    fn suggested_threads_is_capped_and_positive() {
        assert!(suggested_threads(8) >= 1);
        assert!(suggested_threads(8) <= 8);
        assert_eq!(suggested_threads(1), 1);
    }

    #[test]
    fn configured_threads_defaults_to_suggestion() {
        // The test environment does not set PATCHDB_THREADS (and the
        // determinism suite may, in which case any positive value is
        // legal) — either way the result is a positive worker count.
        assert!(configured_threads(8) >= 1);
    }

    #[test]
    fn thread_override_interpretation() {
        // Unset: no override, no warning.
        assert_eq!(interpret_thread_override(None), (None, None));
        // A positive integer is taken verbatim, silently.
        assert_eq!(interpret_thread_override(Some("4")), (Some(4), None));
        assert_eq!(interpret_thread_override(Some(" 12 ")), (Some(12), None));
        // Zero is clamped to 1 with a warning.
        let (t, w) = interpret_thread_override(Some("0"));
        assert_eq!(t, Some(1));
        assert!(w.is_some_and(|m| m.contains("clamping to 1")), "missing clamp warning");
        // Garbage falls back to the suggestion with a warning.
        for bad in ["abc", "-3", "1.5", ""] {
            let (t, w) = interpret_thread_override(Some(bad));
            assert_eq!(t, None, "{bad:?} must not override");
            assert!(
                w.as_deref().is_some_and(|m| m.contains("not a positive integer")),
                "{bad:?} must warn"
            );
        }
    }
}
