//! Zero-dependency observability: hierarchical spans, named counters,
//! gauges, fixed-bucket histograms, rolling-window histograms and an
//! event ring buffer, behind one env switch, `PATCHDB_TRACE`.
//!
//! The registry is process-global and disabled by default; every probe
//! site guards itself with [`enabled`], a relaxed atomic load, so the
//! off path costs one predictable branch. Hot loops should go further
//! and monomorphize their probes away entirely (see the `Probe` trait in
//! `patchdb-nls`), keeping the disabled machine code identical to the
//! uninstrumented loop.
//!
//! Two introspection subsystems build on the registry (see DESIGN.md
//! §8 for the full architecture):
//!
//! * [`sampler`] — a span-path sampling profiler: while a sampler runs,
//!   threads mirror their open span path into seqlock slots and the
//!   sampler aggregates path → sample-count, rendered as folded stacks
//!   for `flamegraph.pl`.
//! * [`export`] — renders span trees as Chrome trace-event JSON for
//!   `chrome://tracing` / Perfetto.
//!
//! Two families of metrics coexist:
//!
//! * **Cumulative-since-start** — [`counter_add`], [`hist_record`]: the
//!   build-report view, exported to `TRACE_build.json`.
//! * **Live** — [`gauge_set`]/[`gauge_add`] point-in-time values and
//!   [`window_record`] rolling-window histograms (a [`WindowHist`]: a
//!   [`SecondRing`] of per-second [`Hist`] slots), the serve-path view: a
//!   scrape reads the *current* inflight count and the p99 of the last
//!   1 s/10 s/60 s instead of an average since boot. [`metrics_snapshot`]
//!   captures all metric families without cloning the span tree — the
//!   `/metrics` exporter's cheap path. [`ring::EventRing`] carries
//!   structured per-request records with overwrite-oldest semantics.
//!
//! ## Determinism contract
//!
//! Metrics observe the computation; they never steer it. Counter and
//! histogram updates are commutative (saturating addition), so the final
//! registry values are independent of thread interleaving; span *names
//! and nesting* are deterministic while span durations are wall time and
//! are the only nondeterministic values in a [`TraceReport`]. Nothing in
//! this module feeds back into output bytes — `tests/determinism.rs`
//! pins a traced and an untraced build byte-identical.
//!
//! Parallel sites that want deterministic *merge order* accumulate into
//! a per-worker [`Shard`] and combine shards in spawn order (mirroring
//! `par::fold_chunked`) before a single [`Shard::flush`] into the
//! registry.
//!
//! ```rust
//! use patchdb_rt::obs;
//!
//! obs::set_enabled(true);
//! obs::reset();
//! {
//!     let _outer = obs::span("build");
//!     let _inner = obs::span("mine");
//!     obs::counter_add("records", 3);
//!     obs::hist_record("batch_len", 17);
//! }
//! let report = obs::report();
//! assert_eq!(report.counter("records"), Some(3));
//! assert_eq!(report.spans[0].name, "build");
//! assert_eq!(report.spans[0].children[0].name, "mine");
//! obs::set_enabled(false);
//! ```

pub mod export;
pub mod ring;
pub mod sampler;
pub mod tsdb;
pub mod window;

pub use ring::EventRing;
pub use window::{Merge, SecondRing, WindowHist};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `k` holds
/// values in `[2^(k-1), 2^k)`, and the last bucket absorbs everything
/// from `2^(HIST_BUCKETS-2)` up. Sized so nanosecond-scale latencies
/// (up to `2^38` ns ≈ 4.6 min) still resolve into distinct buckets
/// instead of saturating the last one.
pub const HIST_BUCKETS: usize = 40;

/// The lookback windows (seconds) that [`MetricsSnapshot::to_metrics_text`]
/// reports for every rolling-window histogram.
pub const METRIC_WINDOWS_S: [u64; 3] = [1, 10, 60];

/// Number of one-second slots a registry-level rolling window keeps —
/// enough to answer every window in [`METRIC_WINDOWS_S`].
pub const WINDOW_SLOTS: usize = 64;

/// The tracing state: 0 = `PATCHDB_TRACE` not read yet, 1 = off, 2 = on.
static TRACE: AtomicU8 = AtomicU8::new(0);

/// Whether tracing is on. The first call reads `PATCHDB_TRACE` (any value
/// other than empty or `"0"` is on); later calls are one relaxed atomic
/// load.
#[inline]
pub fn enabled() -> bool {
    match TRACE.load(Ordering::Relaxed) {
        0 => enabled_from_env(),
        s => s == 2,
    }
}

#[cold]
fn enabled_from_env() -> bool {
    let on = std::env::var("PATCHDB_TRACE").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    set_enabled(on);
    on
}

/// Turns tracing on or off, overriding `PATCHDB_TRACE` for probes that
/// run after the store.
pub fn set_enabled(on: bool) {
    TRACE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

struct SpanNode {
    name: String,
    children: Vec<usize>,
    ns: u64,
}

#[derive(Default)]
struct Registry {
    /// Bumped by [`reset`]; guards and stack entries from an older
    /// generation become inert instead of writing into recycled slots.
    generation: u64,
    spans: Vec<SpanNode>,
    roots: Vec<usize>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
    gauges: BTreeMap<String, i64>,
    windows: BTreeMap<String, WindowHist>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

thread_local! {
    /// Open spans on this thread as `(generation, span index)`.
    static SPAN_STACK: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span`]; records the span's duration when
/// dropped. A no-op when tracing was off at creation time.
#[must_use = "a span measures nothing unless the guard lives to the end of the scope"]
pub struct SpanGuard {
    active: Option<(u64, usize, Instant)>,
    /// Whether this span pushed a frame into the sampler mirror (and so
    /// must pop one on drop).
    mirrored: bool,
}

/// Opens a span named `name`, nested under the innermost span already
/// open *on this thread* (spans opened on worker threads with an empty
/// stack become roots). Returns a guard that records the elapsed
/// monotonic time when dropped.
///
/// While a [`sampler`] runs, the span appears in its profile.
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None, mirrored: false };
    }
    let name = name.into();
    let mirrored = sampler::push_frame(&name);
    let idx;
    let generation;
    {
        let mut reg = registry().lock().unwrap();
        generation = reg.generation;
        let parent = SPAN_STACK.with(|s| {
            s.borrow().iter().rev().find(|&&(g, _)| g == generation).map(|&(_, i)| i)
        });
        idx = reg.spans.len();
        reg.spans.push(SpanNode { name, children: Vec::new(), ns: 0 });
        match parent {
            Some(p) => reg.spans[p].children.push(idx),
            None => reg.roots.push(idx),
        }
    }
    SPAN_STACK.with(|s| s.borrow_mut().push((generation, idx)));
    SpanGuard { active: Some((generation, idx, Instant::now())), mirrored }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((generation, idx, start)) = self.active.take() else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.mirrored {
            sampler::pop_frame();
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == (generation, idx)) {
                stack.remove(pos);
            }
        });
        let mut reg = registry().lock().unwrap();
        if reg.generation == generation {
            if let Some(node) = reg.spans.get_mut(idx) {
                node.ns = ns;
            }
        }
    }
}

/// Adds `delta` to the named counter (creating it at zero). A no-op
/// when tracing is off. Saturating, commutative — the final value is
/// independent of the order concurrent adds land in.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    let slot = reg.counters.entry(name.to_owned()).or_insert(0);
    *slot = slot.saturating_add(delta);
}

/// Current value of a counter, `0` when it does not exist. Reads work
/// even while tracing is off (the registry outlives toggles).
pub fn counter_value(name: &str) -> u64 {
    registry().lock().unwrap().counters.get(name).copied().unwrap_or(0)
}

/// Records one value into the named histogram. A no-op when tracing is
/// off.
pub fn hist_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    registry().lock().unwrap().hists.entry(name.to_owned()).or_default().record(value);
}

/// Merges a locally accumulated histogram into the named registry
/// histogram. A no-op when tracing is off.
pub fn hist_merge(name: &str, h: &Hist) {
    if !enabled() || h.count == 0 {
        return;
    }
    registry().lock().unwrap().hists.entry(name.to_owned()).or_default().merge(h);
}

/// Sets the named gauge to an absolute value. A no-op when tracing is
/// off. Unlike counters, gauges go up *and* down — they carry
/// point-in-time state (inflight requests, queue depth), not totals.
pub fn gauge_set(name: &str, value: i64) {
    if !enabled() {
        return;
    }
    registry().lock().unwrap().gauges.insert(name.to_owned(), value);
}

/// Adds `delta` (possibly negative) to the named gauge, creating it at
/// zero. Saturating and commutative, so paired `+1`/`-1` calls from any
/// interleaving of threads leave the gauge balanced. A no-op when
/// tracing is off.
pub fn gauge_add(name: &str, delta: i64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    let slot = reg.gauges.entry(name.to_owned()).or_insert(0);
    *slot = slot.saturating_add(delta);
}

/// Whole seconds elapsed on the monotonic clock since the first metrics
/// operation of the process — the time base every registry-level
/// rolling window records against.
pub fn process_second() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs()
}

/// Records one value into the named rolling-window histogram (a ring of
/// [`WINDOW_SLOTS`] per-second [`Hist`] slots) at the current
/// [`process_second`]. A no-op when tracing is off.
pub fn window_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let second = process_second();
    registry()
        .lock()
        .unwrap()
        .windows
        .entry(name.to_owned())
        .or_insert_with(|| WindowHist::new(WINDOW_SLOTS))
        .record_at(second, value);
}

/// Clears every span, counter, gauge, histogram and rolling window
/// (plus the [`tsdb`] series sampled from them), and invalidates
/// outstanding [`SpanGuard`]s (they become inert rather than writing
/// into recycled slots).
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    reg.generation += 1;
    reg.spans.clear();
    reg.roots.clear();
    reg.counters.clear();
    reg.hists.clear();
    reg.gauges.clear();
    reg.windows.clear();
    drop(reg);
    tsdb::reset();
}

/// A fixed-bucket log2 histogram: `count`/`sum`/`max` plus
/// [`HIST_BUCKETS`] power-of-two buckets. All updates saturate, so
/// merging shards in any order yields the same totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Hist {
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The bucket array; bucket 0 holds zeros, bucket `k` values in
    /// `[2^(k-1), 2^k)`.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the bucket counts,
    /// linearly interpolated *within* the bucket where the cumulative
    /// count crosses `ceil(q * count)` and capped at the recorded
    /// maximum. Observations inside a bucket are assumed uniformly
    /// spread over its value range `[2^(k-1), 2^k)`, so a distribution
    /// that lands entirely in one bucket still reports a `p50` below
    /// its `p99` instead of collapsing both onto the bucket edge.
    ///
    /// The log2 bucketing still bounds the error at one octave — the
    /// interpolated value never leaves the crossing bucket — which is
    /// plenty for latency reporting (`p50`/`p99` on `/metrics` and in
    /// `BENCH_serve.json`). Returns `0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut before = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n > 0 && before.saturating_add(n) >= target {
                // Bucket 0 holds exact zeros; bucket k holds [2^(k-1), 2^k).
                let (lower, upper) = if k == 0 {
                    (0u64, 0u64)
                } else {
                    (1u64 << (k - 1), (1u64 << k).saturating_sub(1))
                };
                let frac = (target - before) as f64 / n as f64;
                let value = lower + (frac * (upper - lower) as f64).round() as u64;
                return value.min(self.max);
            }
            before = before.saturating_add(n);
        }
        self.max
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            ("max".into(), Json::Num(self.max as f64)),
            (
                "buckets".into(),
                Json::Arr(self.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
            ),
        ])
    }
}

/// A thread-local accumulator for counters and histograms: workers fill
/// one shard each, the caller merges shards **in spawn order** (exactly
/// like `par::fold_chunked` combines chunk accumulators) and flushes the
/// merged shard into the registry once. Because every operation is a
/// saturating add, the merged totals equal the single-threaded totals —
/// the property test in `crates/patchdb-rt/tests/obs.rs` pins this
/// across thread counts.
#[derive(Debug, Default, Clone)]
pub struct Shard {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Shard {
    /// An empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Adds `delta` to the shard-local counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records one observation into the shard-local histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        self.hists.entry(name.to_owned()).or_default().record(value);
    }

    /// Shard-local counter value (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Shard) {
        for (name, delta) in &other.counters {
            self.add(name, *delta);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Adds every shard-local counter and histogram to the global
    /// registry (a no-op when tracing is off).
    pub fn flush(&self) {
        if !enabled() {
            return;
        }
        let mut reg = registry().lock().unwrap();
        for (name, delta) in &self.counters {
            let slot = reg.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*delta);
        }
        for (name, h) in &self.hists {
            reg.hists.entry(name.clone()).or_default().merge(h);
        }
    }
}

/// One span in a [`TraceReport`]: name, elapsed nanoseconds, nested
/// children in creation order. Spans still open at snapshot time report
/// `ns == 0`.
#[derive(Debug, Clone)]
pub struct SpanReport {
    /// The name passed to [`span`].
    pub name: String,
    /// Elapsed monotonic nanoseconds (duration only — never a
    /// timestamp-of-day).
    pub ns: u64,
    /// Child spans, in creation order.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("ns".into(), Json::Num(self.ns as f64)),
            (
                "children".into(),
                Json::Arr(self.children.iter().map(SpanReport::to_json).collect()),
            ),
        ])
    }
}

/// A snapshot of the registry: the span forest plus all counters and
/// histograms, sorted by name. Serialization via [`TraceReport::to_json`]
/// has stable key order and carries durations only.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Root spans in creation order.
    pub spans: Vec<SpanReport>,
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, ascending by name.
    pub histograms: Vec<(String, Hist)>,
}

impl TraceReport {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Depth-first search for the first span named `name`.
    pub fn find_span(&self, name: &str) -> Option<&SpanReport> {
        fn dfs<'a>(spans: &'a [SpanReport], name: &str) -> Option<&'a SpanReport> {
            for s in spans {
                if s.name == name {
                    return Some(s);
                }
                if let Some(hit) = dfs(&s.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        dfs(&self.spans, name)
    }

    /// Serializes as `{"spans": [...], "counters": {...},
    /// "histograms": {...}}` with deterministic key order (spans in
    /// creation order, metric names ascending).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(SpanReport::to_json).collect()),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(self.histograms.iter().map(|(n, h)| (n.clone(), h.to_json())).collect()),
            ),
        ])
    }
}

/// A spans-free snapshot of every metric family: counters, gauges,
/// cumulative histograms, and rolling-window histograms (cloned with the
/// [`process_second`] they were captured at, so windowed quantiles are
/// evaluated against a consistent "now").
///
/// This is the `/metrics` exporter's path: unlike [`report`], taking a
/// [`MetricsSnapshot`] never walks or clones the span tree, so a scrape
/// holds the registry mutex only for four map clones.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The [`process_second`] the snapshot was taken at.
    pub at_second: u64,
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, i64)>,
    /// Cumulative `(name, histogram)` pairs, ascending by name.
    pub histograms: Vec<(String, Hist)>,
    /// Rolling-window `(name, histogram)` pairs, ascending by name.
    pub windows: Vec<(String, WindowHist)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders every metric family as a plain-text exposition — the
    /// `GET /metrics` format of `patchdb-serve`. Section headers are
    /// comment lines; every metric line has the `patchdb_*{name="..."}`
    /// shape, names ascending within a family:
    ///
    /// ```text
    /// # counters (cumulative since start)
    /// patchdb_counter{name="serve.accepted"} 12
    /// # gauges (live values)
    /// patchdb_gauge{name="serve.inflight"} 3
    /// # histograms (cumulative since start)
    /// patchdb_hist_count{name="serve.identify.ns"} 12
    /// ...
    /// # windowed (trailing 1s/10s/60s)
    /// patchdb_window_count{name="serve.request.total_ns",window_s="10"} 9
    /// patchdb_window_rate{name="serve.request.total_ns",window_s="10"} 0.900
    /// patchdb_window_p50{name="serve.request.total_ns",window_s="10"} 524287
    /// patchdb_window_p90{name="serve.request.total_ns",window_s="10"} 1048575
    /// patchdb_window_p99{name="serve.request.total_ns",window_s="10"} 2097151
    /// ```
    pub fn to_metrics_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# counters (cumulative since start)\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("patchdb_counter{{name=\"{name}\"}} {value}\n"));
        }
        out.push_str("# gauges (live values)\n");
        for (name, value) in &self.gauges {
            out.push_str(&format!("patchdb_gauge{{name=\"{name}\"}} {value}\n"));
        }
        out.push_str("# histograms (cumulative since start)\n");
        for (name, h) in &self.histograms {
            out.push_str(&format!("patchdb_hist_count{{name=\"{name}\"}} {}\n", h.count()));
            out.push_str(&format!("patchdb_hist_sum{{name=\"{name}\"}} {}\n", h.sum()));
            out.push_str(&format!("patchdb_hist_max{{name=\"{name}\"}} {}\n", h.max()));
            out.push_str(&format!("patchdb_hist_p50{{name=\"{name}\"}} {}\n", h.quantile(0.50)));
            out.push_str(&format!("patchdb_hist_p99{{name=\"{name}\"}} {}\n", h.quantile(0.99)));
        }
        out.push_str(&format!(
            "# windowed (trailing {}, evaluated at second {})\n",
            METRIC_WINDOWS_S.map(|w| format!("{w}s")).join("/"),
            self.at_second
        ));
        for (name, wh) in &self.windows {
            for window_s in METRIC_WINDOWS_S {
                let h = wh.merged(self.at_second, window_s);
                let tag = format!("{{name=\"{name}\",window_s=\"{window_s}\"}}");
                out.push_str(&format!("patchdb_window_count{tag} {}\n", h.count()));
                out.push_str(&format!(
                    "patchdb_window_rate{tag} {:.3}\n",
                    h.count() as f64 / window_s as f64
                ));
                out.push_str(&format!("patchdb_window_p50{tag} {}\n", h.quantile(0.50)));
                out.push_str(&format!("patchdb_window_p90{tag} {}\n", h.quantile(0.90)));
                out.push_str(&format!("patchdb_window_p99{tag} {}\n", h.quantile(0.99)));
            }
        }
        out
    }
}

/// Snapshots counters, gauges, histograms and rolling windows into a
/// [`MetricsSnapshot`] **without touching the span tree** — the cheap
/// path a metrics scrape should take. Does not clear the registry.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let at_second = process_second();
    let reg = registry().lock().unwrap();
    MetricsSnapshot {
        at_second,
        counters: reg.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
        gauges: reg.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect(),
        histograms: reg.hists.iter().map(|(n, &h)| (n.clone(), h)).collect(),
        windows: reg.windows.iter().map(|(n, w)| (n.clone(), w.clone())).collect(),
    }
}

/// Snapshots the registry into a [`TraceReport`]. Does not clear it —
/// pair with [`reset`] to scope a measurement.
pub fn report() -> TraceReport {
    let reg = registry().lock().unwrap();
    fn build(reg: &Registry, idx: usize) -> SpanReport {
        let node = &reg.spans[idx];
        SpanReport {
            name: node.name.clone(),
            ns: node.ns,
            children: node.children.iter().map(|&c| build(reg, c)).collect(),
        }
    }
    TraceReport {
        spans: reg.roots.iter().map(|&r| build(&reg, r)).collect(),
        counters: reg.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
        histograms: reg.hists.iter().map(|(n, &h)| (n.clone(), h)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Serializes tests that toggle the global registry/state.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _g = guard();
        set_enabled(false);
        reset();
        {
            let _s = span("ghost");
            counter_add("ghost", 5);
            hist_record("ghost", 1);
        }
        set_enabled(true);
        let r = report();
        set_enabled(false);
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.histograms.is_empty());
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
            }
            let _d = span("d");
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.spans.len(), 1);
        let a = &r.spans[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.children.len(), 2);
        assert_eq!(a.children[0].name, "b");
        assert_eq!(a.children[0].children.len(), 1);
        assert_eq!(a.children[0].children[0].name, "c");
        assert_eq!(a.children[1].name, "d");
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let _g = guard();
        set_enabled(true);
        reset();
        counter_add("x", 2);
        counter_add("x", 3);
        hist_record("h", 0);
        hist_record("h", 1);
        hist_record("h", 100);
        let r = report();
        set_enabled(false);
        assert_eq!(r.counter("x"), Some(5));
        let (_, h) = &r.histograms[0];
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 101);
        assert_eq!(h.max(), 100);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 1); // the one
        assert_eq!(h.buckets()[7], 1); // 100 in [64, 128)
    }

    #[test]
    fn reset_invalidates_outstanding_guards() {
        let _g = guard();
        set_enabled(true);
        reset();
        let s = span("stale");
        reset();
        let _fresh = span("fresh");
        drop(s); // must not corrupt the fresh registry
        let r = report();
        set_enabled(false);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "fresh");
    }

    #[test]
    fn worker_thread_spans_become_roots() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _main = span("main");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span("worker");
                });
            });
        }
        let r = report();
        set_enabled(false);
        let names: Vec<&str> = r.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"main"));
        assert!(names.contains(&"worker"));
        assert!(r.find_span("worker").is_some());
    }

    #[test]
    fn shard_merge_equals_direct_adds() {
        let mut a = Shard::new();
        let mut b = Shard::new();
        a.add("c", 3);
        b.add("c", 4);
        a.record("h", 8);
        b.record("h", 9);
        let mut merged = Shard::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.counter("c"), 7);
        let mut direct = Shard::new();
        direct.add("c", 3);
        direct.add("c", 4);
        direct.record("h", 8);
        direct.record("h", 9);
        assert_eq!(merged.counter("c"), direct.counter("c"));
        assert_eq!(merged.hists, direct.hists);
    }

    #[test]
    fn quantiles_track_bucket_edges() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [0, 0, 1, 2, 3, 100] {
            h.record(v);
        }
        // Cumulative: bucket0=2 (zeros), bucket1=1 (the 1), bucket2=2
        // (2 and 3), bucket7=1 (100). p50 target is the 3rd observation.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.75), 3); // bucket 2 upper edge, capped by nothing
        assert_eq!(h.quantile(1.0), 100); // last bucket caps at the true max
        // A single-value histogram reports that value at every quantile.
        let mut one = Hist::default();
        one.record(1000);
        assert_eq!(one.quantile(0.5), 1000);
        assert_eq!(one.quantile(0.99), 1000);
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // A whole distribution inside one log2 bucket must not collapse
        // p50 and p99 onto the same edge (the degenerate
        // `server_p50_ns == server_p99_ns` rows in early BENCH_serve.json).
        let mut h = Hist::default();
        for i in 0..1_000u64 {
            h.record(2_100_000 + i * 2_000); // all in bucket 22: [2097152, 4194303)
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < p99, "p50={p50} p99={p99}");
        // Both stay inside the crossing bucket and at or below the true max.
        assert!((2_097_152..=4_098_000).contains(&p50));
        assert!((2_097_152..=4_098_000).contains(&p99));
        // Identical samples still collapse onto the exact value (max cap).
        let mut same = Hist::default();
        for _ in 0..100 {
            same.record(3_000_000);
        }
        assert_eq!(same.quantile(0.5), 3_000_000);
        assert_eq!(same.quantile(0.99), 3_000_000);
        // Monotone in q even across buckets.
        let mut m = Hist::default();
        for v in 1..=512u64 {
            m.record(v);
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = m.quantile(q);
            assert!(v >= last, "quantile must be monotone in q: {v} < {last}");
            last = v;
        }
        assert_eq!(m.quantile(1.0), 512);
    }

    #[test]
    fn gauges_set_add_and_read_back() {
        let _g = guard();
        set_enabled(true);
        reset();
        gauge_set("g.depth", 7);
        gauge_add("g.depth", -3);
        gauge_add("g.inflight", 2);
        let snap = metrics_snapshot();
        assert_eq!(snap.gauge("g.depth"), Some(4));
        assert_eq!(snap.gauge("g.inflight"), Some(2));
        assert_eq!(snap.gauge("g.absent"), None);
        set_enabled(false);
        gauge_add("g.depth", 100); // off: inert
        assert_eq!(metrics_snapshot().gauge("g.depth"), Some(4));
    }

    #[test]
    fn snapshot_skips_spans_and_carries_every_family() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _s = span("not-in-snapshot");
            counter_add("s.count", 3);
            gauge_set("s.gauge", -2);
            for v in [10, 20, 30] {
                hist_record("s.hist", v);
            }
            window_record("s.window", 9);
        }
        let snap = metrics_snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("s.count"), Some(3));
        assert_eq!(snap.gauge("s.gauge"), Some(-2));
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.windows.len(), 1);
        let (_, w) = &snap.windows[0];
        assert_eq!(w.merged(snap.at_second, 60).count(), 1);

        let text = snap.to_metrics_text();
        assert!(text.contains("# gauges"), "{text}");
        assert!(text.contains("patchdb_gauge{name=\"s.gauge\"} -2"), "{text}");
        assert!(text.contains("patchdb_counter{name=\"s.count\"} 3"), "{text}");
        assert!(text.contains("patchdb_hist_count{name=\"s.hist\"} 3"), "{text}");
        assert!(text.contains("patchdb_hist_sum{name=\"s.hist\"} 60"), "{text}");
        assert!(text.contains("patchdb_hist_max{name=\"s.hist\"} 30"), "{text}");
        assert!(text.contains("patchdb_hist_p99{name=\"s.hist\"}"), "{text}");
        assert!(
            text.contains("patchdb_window_count{name=\"s.window\",window_s=\"60\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("patchdb_window_p99{name=\"s.window\",window_s=\"60\"}"),
            "{text}"
        );
        assert!(
            text.lines().all(|l| l.starts_with("patchdb_") || l.starts_with('#')),
            "{text}"
        );
    }

    #[test]
    fn report_json_has_stable_shape() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _s = span("root");
            counter_add("b", 1);
            counter_add("a", 2);
            hist_record("h", 4);
        }
        let r = report();
        set_enabled(false);
        let json = r.to_json();
        let text = json.to_compact_string();
        // Counters serialize name-ascending regardless of insertion.
        let a_pos = text.find("\"a\"").unwrap();
        let b_pos = text.find("\"b\"").unwrap();
        assert!(a_pos < b_pos, "counters not sorted in {text}");
        let parsed = Json::parse(&text).unwrap();
        assert!(parsed.get("spans").is_some());
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("histograms").is_some());
    }
}
