//! A criterion-style micro-benchmark harness.
//!
//! Supplies the small slice of the `criterion` API the workspace's bench
//! targets use — [`Criterion`], [`black_box`], benchmark groups with
//! throughput, [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple but honest measurement
//! loop: calibrate a batch size so one sample takes a few milliseconds,
//! warm up, then time `sample_size` batches and report median and p95
//! per-iteration latency.
//!
//! Results print as a table on stdout; set `PATCHDB_BENCH_JSON=<path>` to
//! also append one JSON object per benchmark (JSON-lines) for scripted
//! consumption, and `PATCHDB_BENCH_FAST=1` to cut warmup and samples for
//! smoke runs.
//!
//! [`criterion_group!`]: crate::criterion_group
//! [`criterion_main!`]: crate::criterion_main

use std::fmt;
use std::time::{Duration, Instant};

use crate::json::{Json, ToJson};

/// An opaque sink preventing the optimizer from deleting a computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-iteration throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
    /// The benchmark processes this many abstract elements per iteration.
    Elements(u64),
}

/// A two-part benchmark name, rendered as `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id for `function` measured at `parameter`.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId { id: format!("{}/{}", function.into(), parameter) }
    }
}

/// One benchmark's measurements, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark name (`group/function/parameter`).
    pub name: String,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time.
    pub p95_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Throughput in bytes per iteration, when the group declared one.
    pub bytes_per_iter: Option<u64>,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("median_ns".into(), Json::Num(self.median_ns)),
            ("p95_ns".into(), Json::Num(self.p95_ns)),
            ("mean_ns".into(), Json::Num(self.mean_ns)),
            ("iters_per_sample".into(), Json::Num(self.iters_per_sample as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("bytes_per_iter".into(), self.bytes_per_iter.to_json()),
        ])
    }
}

/// The harness: configure, then register benchmarks with
/// [`bench_function`](Criterion::bench_function) or under a
/// [`benchmark_group`](Criterion::benchmark_group).
pub struct Criterion {
    sample_size: usize,
    warmup: Duration,
    sample_target: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        let fast = std::env::var_os("PATCHDB_BENCH_FAST").is_some();
        Criterion {
            sample_size: if fast { 5 } else { 20 },
            warmup: if fast { Duration::from_millis(20) } else { Duration::from_millis(200) },
            sample_target: if fast {
                Duration::from_micros(500)
            } else {
                Duration::from_millis(3)
            },
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the per-benchmark warmup budget.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warmup = d;
        self
    }

    /// Measures a standalone benchmark.
    pub fn bench_function(
        &mut self,
        name: &str,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        let mut b = Bencher::new(self);
        f(&mut b);
        self.record(name, None, b);
        self
    }

    /// Opens a named group; benchmarks in it share the group-name prefix
    /// and an optional throughput annotation.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_owned(), throughput: None }
    }

    /// All results measured so far, in registration order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    fn record(&mut self, name: &str, throughput: Option<Throughput>, b: Bencher) {
        let mut per_iter: Vec<f64> = b.samples;
        if per_iter.is_empty() {
            return; // the closure never called iter()
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
        let median = percentile(&per_iter, 50.0);
        let p95 = percentile(&per_iter, 95.0);
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let bytes_per_iter = match throughput {
            Some(Throughput::Bytes(n)) => Some(n),
            _ => None,
        };
        let result = BenchResult {
            name: name.to_owned(),
            median_ns: median,
            p95_ns: p95,
            mean_ns: mean,
            iters_per_sample: b.iters_per_sample,
            samples: per_iter.len(),
            bytes_per_iter,
        };
        print_result(&result, throughput);
        self.results.push(result);
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let Some(path) = std::env::var_os("PATCHDB_BENCH_JSON") else { return };
        let mut lines = String::new();
        for r in &self.results {
            lines.push_str(&r.to_json().to_compact_string());
            lines.push('\n');
        }
        use std::io::Write as _;
        if let Ok(mut f) =
            std::fs::OpenOptions::new().create(true).append(true).open(&path)
        {
            let _ = f.write_all(lines.as_bytes());
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares how much work one iteration performs, enabling MiB/s in
    /// the report.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measures `group-name/name`.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher::new(self.criterion);
        f(&mut b);
        let full = format!("{}/{}", self.name, name);
        self.criterion.record(&full, self.throughput, b);
        self
    }

    /// Measures `group-name/id` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher::new(self.criterion);
        f(&mut b, input);
        let full = format!("{}/{}", self.name, id.id);
        self.criterion.record(&full, self.throughput, b);
        self
    }

    /// Ends the group (kept for criterion API compatibility; dropping the
    /// group has the same effect).
    pub fn finish(self) {}
}

/// Hands the measurement loop to a benchmark body via
/// [`iter`](Bencher::iter).
pub struct Bencher {
    sample_size: usize,
    warmup: Duration,
    sample_target: Duration,
    samples: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(c: &Criterion) -> Bencher {
        Bencher {
            sample_size: c.sample_size,
            warmup: c.warmup,
            sample_target: c.sample_target,
            samples: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Times `f`: calibrates a batch size so one batch takes roughly the
    /// configured sample target, warms up, then records per-iteration
    /// times for `sample_size` batches.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Calibrate: double the batch until one batch meets the target.
        let mut iters: u64 = 1;
        loop {
            let elapsed = time_batch(iters, &mut f);
            if elapsed >= self.sample_target || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        self.iters_per_sample = iters;

        // Warm up within budget (calibration already touched caches).
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warmup {
            time_batch(iters, &mut f);
        }

        self.samples = (0..self.sample_size)
            .map(|_| time_batch(iters, &mut f).as_nanos() as f64 / iters as f64)
            .collect();
    }
}

fn time_batch<T>(iters: u64, f: &mut impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed()
}

/// Linear-interpolated percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn print_result(r: &BenchResult, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let mib_s = bytes as f64 / (1 << 20) as f64 / (r.median_ns / 1e9);
            format!("   {mib_s:.1} MiB/s")
        }
        Some(Throughput::Elements(n)) => {
            let elem_s = n as f64 / (r.median_ns / 1e9);
            format!("   {elem_s:.0} elem/s")
        }
        None => String::new(),
    };
    println!(
        "{:<44} median {:>10}   p95 {:>10}{}",
        r.name,
        format_ns(r.median_ns),
        format_ns(r.p95_ns),
        rate,
    );
}

/// Bundles benchmark functions into a group runner, mirroring criterion's
/// macro of the same name. Both the `name =/config =/targets =` form and
/// the positional form are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),* $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::bench::Criterion::default();
            targets = $($target),*
        }
    };
}

/// Generates `main` for a `harness = false` bench target, mirroring
/// criterion's macro of the same name. Ignores harness CLI flags such as
/// `--bench` that cargo passes along.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $($group();)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Criterion {
        let mut c = Criterion::default().sample_size(4).warm_up_time(Duration::from_micros(100));
        c.sample_target = Duration::from_micros(50);
        c
    }

    #[test]
    fn bench_function_records_a_result() {
        let mut c = fast();
        c.bench_function("square", |b| b.iter(|| black_box(7u64) * 7));
        let results = c.results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "square");
        assert!(results[0].samples >= 2);
        assert!(results[0].median_ns >= 0.0);
        assert!(results[0].p95_ns >= results[0].median_ns);
    }

    #[test]
    fn groups_prefix_names_and_carry_throughput() {
        let mut c = fast();
        {
            let mut g = c.benchmark_group("grp");
            g.throughput(Throughput::Bytes(1024));
            g.bench_function("touch", |b| b.iter(|| black_box([0u8; 64])));
            g.bench_with_input(BenchmarkId::new("sized", 32), &32usize, |b, &n| {
                b.iter(|| black_box(vec![0u8; n]))
            });
            g.finish();
        }
        let names: Vec<&str> = c.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["grp/touch", "grp/sized/32"]);
        assert_eq!(c.results()[0].bytes_per_iter, Some(1024));
    }

    #[test]
    fn calibration_scales_batch_for_cheap_bodies() {
        let mut c = fast();
        c.bench_function("noop", |b| b.iter(|| 1u32));
        assert!(
            c.results()[0].iters_per_sample > 1,
            "a no-op body should be batched, got {}",
            c.results()[0].iters_per_sample
        );
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 30.0);
        assert_eq!(percentile(&v, 50.0), 15.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_000_000.0), "2.00 ms");
        assert_eq!(format_ns(3_200_000_000.0), "3.200 s");
    }

    #[test]
    fn results_serialize_to_json() {
        let r = BenchResult {
            name: "x".into(),
            median_ns: 1.5,
            p95_ns: 2.0,
            mean_ns: 1.6,
            iters_per_sample: 8,
            samples: 4,
            bytes_per_iter: None,
        };
        let text = r.to_json().to_compact_string();
        assert!(text.contains("\"median_ns\":1.5"), "{text}");
        assert!(text.contains("\"bytes_per_iter\":null"), "{text}");
    }
}
