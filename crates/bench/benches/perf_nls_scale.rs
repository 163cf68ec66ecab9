//! Perf trajectory for the nearest link search: the seed's sqrt-based
//! full-scan init pass vs the partitioned `WildIndex` the search runs on,
//! at several `(M, N)`, plus an XL size class, the cost of tracing on
//! the index query, and the end-to-end pipeline build wall time —
//! written to `BENCH_nls.json` at the repo root so later changes can
//! compare against this one.
//!
//! * `PATCHDB_BENCH_FAST=1` shrinks sizes and sampling for the CI smoke
//!   run (the JSON is still produced and must still parse).
//! * `PATCHDB_BENCH_NLS_JSON=<path>` overrides the output location.
//! * `PATCHDB_THREADS=<n>` sets the worker count used to prepare the
//!   feature pools and recorded in the report; every timed row is
//!   single-threaded.
//!
//! The index is measured in two pieces — `partitioned-build` (one-time
//! partition construction, amortized across augmentation rounds, which
//! reuse the index) and `partitioned-query` (the per-sweep scan the
//! rounds actually repeat) — and `speedup_vs_seed` compares the query
//! piece against the seed baseline at the same shape. The query's
//! argmins are asserted equal to the seed baseline's before it is timed.

use std::time::{Duration, Instant};

use patchdb::{BuildOptions, PatchDb};
use patchdb_corpus::{CorpusConfig, GitHubForge};
use patchdb_features::{apply_weights, euclidean, extract, learn_weights, FeatureVector};
use patchdb_nls::{row_minima, NlsConfig, WildIndex};
use patchdb_rt::bench::{black_box, BenchResult, BenchmarkId, Criterion};
use patchdb_rt::json::{Json, Writer};
use patchdb_rt::{obs, par};

/// Weighted feature vectors of real (forge-materialized) patches — the
/// exact population the pipeline's nearest link search runs on: cleaned
/// patches, Table I extraction, `1/max|a_j|` weighting over the pool.
/// Patch features cluster by patch size (heavy-tailed), which is the
/// structure the k-means partition and its bounds exploit; synthetic
/// isotropic noise would understate that badly.
fn corpus_features(count: usize, seed: u64) -> Vec<FeatureVector> {
    let forge = GitHubForge::generate(&CorpusConfig::with_total_commits(count + count / 8, seed));
    let commits: Vec<_> = forge.all_commits().take(count).collect();
    assert_eq!(commits.len(), count, "forge too small for requested feature count");
    let threads = par::configured_threads(16);
    let raw = par::map_chunked(&commits, threads, |(_, c)| {
        let change = forge.materialize(c);
        let patch = change.patch.retain_c_files().unwrap_or(change.patch);
        extract(&patch, None)
    });
    let weights = learn_weights(raw.iter());
    par::map_chunked(&raw, threads, |v| apply_weights(v, &weights))
}

/// A faithful replica of the seed's init pass — per-row full scan with a
/// `sqrt` per pair — kept here as the fixed baseline the speedups in
/// `BENCH_nls.json` are measured against.
fn seed_init_pass(security: &[FeatureVector], wild: &[FeatureVector]) -> (Vec<f64>, Vec<usize>) {
    let mut u = vec![f64::INFINITY; security.len()];
    let mut v = vec![0usize; security.len()];
    for (m, sec) in security.iter().enumerate() {
        for (n, w) in wild.iter().enumerate() {
            let d = euclidean(sec, w);
            if d < u[m] {
                u[m] = d;
                v[m] = n;
            }
        }
    }
    (u, v)
}

fn fast_mode() -> bool {
    std::env::var_os("PATCHDB_BENCH_FAST").is_some()
}

fn sizes() -> Vec<(usize, usize)> {
    if fast_mode() {
        vec![(8, 150), (16, 400)]
    } else {
        vec![(50, 2_000), (100, 8_000), (200, 20_000)]
    }
}

/// The XL size class: an order of magnitude beyond the largest standard
/// shape on both axes, where the sublinear index separates decisively
/// from the linear scan. Kept out of `sizes()` because the
/// seed baseline takes tens of seconds per iteration here — it gets its
/// own low-sample `Criterion`.
fn xl_size() -> (usize, usize) {
    if fast_mode() {
        (40, 4_000)
    } else {
        (2_000, 200_000)
    }
}

/// The index row's mode name in `BENCH_nls.json`.
const MODE: &str = "partitioned";

/// The configuration every index row runs: single-threaded and argmin
/// only (`k_best = 1`), so the comparison against the single-threaded
/// seed baseline is one knob, with auto cells (`√N`).
fn index_config() -> NlsConfig {
    NlsConfig { threads: 1, k_best: 1, cells: 0 }
}

fn bench_init_pass(c: &mut Criterion, sizes: &[(usize, usize)]) {
    // One feature pool sized for the largest instance, sliced per size:
    // security rows from the front, wild rows from the back.
    let (max_m, max_n) = *sizes.last().expect("at least one size");
    let pool = corpus_features(max_m + max_n, 41);
    let cfg = index_config();
    let mut g = c.benchmark_group("nls-init");
    for &(m, n) in sizes {
        let sec = &pool[..m];
        let wild = &pool[pool.len() - n..];
        let shape = format!("{m}x{n}");

        // Sanity: the index query must agree with the seed baseline on
        // the argmin columns before we bother timing it.
        let (_, seed_v) = seed_init_pass(sec, wild);
        let ix = WildIndex::build(wild, &cfg);
        let (_, v) = row_minima(sec, &ix, &cfg);
        assert_eq!(seed_v, v, "{MODE} index drifted from the seed baseline at {shape}");

        g.bench_with_input(BenchmarkId::new("seed-baseline", &shape), &(), |b, ()| {
            b.iter(|| black_box(seed_init_pass(sec, wild)))
        });
        g.bench_with_input(BenchmarkId::new(format!("{MODE}-build"), &shape), &(), |b, ()| {
            b.iter(|| black_box(WildIndex::build(wild, &cfg)))
        });
        g.bench_with_input(BenchmarkId::new(format!("{MODE}-query"), &shape), &(), |b, ()| {
            b.iter(|| black_box(row_minima(sec, &ix, &cfg)))
        });
        // The toggle-cost pair: the same query re-timed with tracing on.
        // `row_minima` banks counters but opens no spans, so repeated
        // iterations don't grow the registry.
        g.bench_with_input(BenchmarkId::new(format!("{MODE}-traced"), &shape), &(), |b, ()| {
            obs::set_enabled(true);
            obs::reset();
            b.iter(|| black_box(row_minima(sec, &ix, &cfg)));
            obs::set_enabled(false);
        });
    }
    g.finish();
}

/// The XL class on its own `Criterion`: three samples, no warmup — the
/// seed baseline alone is tens of seconds per iteration, and the index
/// numbers it anchors are tens of milliseconds, so medians of a cheap
/// sample count carry all the signal the speedup ratio needs.
fn bench_xl(xc: &mut Criterion) {
    let (m, n) = xl_size();
    let pool = corpus_features(m + n, 43);
    let sec = &pool[..m];
    let wild = &pool[pool.len() - n..];
    let shape = format!("{m}x{n}");
    let cfg = index_config();

    let mut g = xc.benchmark_group("nls-xl");
    // The timed seed runs also yield the argmins the index must match,
    // so the baseline is not re-run an extra time for the identity check.
    let mut seed_v = Vec::new();
    g.bench_with_input(BenchmarkId::new("seed-baseline", &shape), &(), |b, ()| {
        b.iter(|| seed_v = black_box(seed_init_pass(sec, wild)).1)
    });
    let ix = WildIndex::build(wild, &cfg);
    let (_, v) = row_minima(sec, &ix, &cfg);
    assert_eq!(seed_v, v, "{MODE} index drifted from the seed baseline at {shape}");
    g.bench_with_input(BenchmarkId::new(format!("{MODE}-build"), &shape), &(), |b, ()| {
        b.iter(|| black_box(WildIndex::build(wild, &cfg)))
    });
    g.bench_with_input(BenchmarkId::new(format!("{MODE}-query"), &shape), &(), |b, ()| {
        b.iter(|| black_box(row_minima(sec, &ix, &cfg)))
    });
    g.finish();
}

/// End-to-end pipeline build wall time (one measurement — the build is
/// seconds-scale and deterministic, a median over repeats buys little).
fn pipeline_build_ms() -> f64 {
    let options = if fast_mode() {
        BuildOptions::tiny(7)
    } else {
        patchdb_bench::bench_options(7).synthesize(true)
    };
    let start = Instant::now();
    let report = PatchDb::build(&options);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    black_box(report.db.stats());
    elapsed
}

fn write_report(
    results: &[&BenchResult],
    sizes: &[(usize, usize)],
    threads: usize,
    build_ms: f64,
) {
    let largest = *sizes.last().expect("at least one size");
    let shape = format!("{}x{}", largest.0, largest.1);
    let median_of = |group: &str, name: &str, shape: &str| {
        results
            .iter()
            .find(|r| r.name == format!("{group}/{name}/{shape}"))
            .map(|r| r.median_ns)
    };
    // Observability cost at the largest shape: what flipping
    // PATCHDB_TRACE=1 costs on the index query.
    let off = median_of("nls-init", &format!("{MODE}-query"), &shape);
    let on = median_of("nls-init", &format!("{MODE}-traced"), &shape);
    let on_overhead_pct = match (on, off) {
        (Some(on), Some(off)) if off > 0.0 => 100.0 * (on - off) / off,
        _ => 0.0,
    };
    let obs_json = Json::Obj(vec![
        ("off_median_ns".into(), Json::Num(off.unwrap_or(0.0))),
        ("on_median_ns".into(), Json::Num(on.unwrap_or(0.0))),
        ("on_overhead_pct".into(), Json::Num(on_overhead_pct)),
    ]);

    // The index block: build/query medians and the query speedup
    // against the seed baseline at the largest standard shape and at the
    // XL shape.
    let xl = xl_size();
    let xl_shape = format!("{}x{}", xl.0, xl.1);
    let index_row = |group: &str, entry_shape: &str| {
        let seed = median_of(group, "seed-baseline", entry_shape);
        let build = median_of(group, &format!("{MODE}-build"), entry_shape);
        let query = median_of(group, &format!("{MODE}-query"), entry_shape);
        let speedup = match (seed, query) {
            (Some(s), Some(q)) if q > 0.0 => s / q,
            _ => 0.0,
        };
        let row = Json::Obj(vec![
            ("mode".into(), Json::Str(MODE.into())),
            ("shape".into(), Json::Str(entry_shape.into())),
            ("build_median_ns".into(), Json::Num(build.unwrap_or(0.0))),
            ("query_median_ns".into(), Json::Num(query.unwrap_or(0.0))),
            ("speedup_vs_seed".into(), Json::Num(speedup)),
        ]);
        (row, speedup)
    };
    let (largest_row, index_speedup_largest) = index_row("nls-init", &shape);
    let (xl_row, xl_speedup) = index_row("nls-xl", &xl_shape);
    let index_json = Json::Obj(vec![
        ("modes".into(), Json::Arr(vec![largest_row, xl_row])),
        ("index_speedup_largest".into(), Json::Num(index_speedup_largest)),
        ("xl_shape".into(), Json::Str(xl_shape.clone())),
        ("xl_speedup".into(), Json::Num(xl_speedup)),
    ]);

    let mut w = Writer::pretty();
    w.begin_object();
    w.field("schema", "patchdb-bench-nls/v2");
    w.field("fast_mode", &fast_mode());
    w.field("threads", &threads);
    w.field("sizes", &sizes.iter().map(|&(m, n)| vec![m, n]).collect::<Vec<_>>());
    w.field("index", &index_json);
    w.field("obs", &obs_json);
    w.field("pipeline_build_ms", &build_ms);
    w.field("results", results);
    w.end_object();

    let path = std::env::var("PATCHDB_BENCH_NLS_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nls.json").to_owned()
    });
    std::fs::write(&path, w.finish() + "\n").expect("write BENCH_nls.json");
    println!("\nwrote {path}");
    println!("index speedup at {shape}: {index_speedup_largest:.2}x (query vs seed)");
    println!("index speedup at {xl_shape}: {xl_speedup:.2}x (query vs seed)");
    println!("obs cost at {shape}: tracing on {on_overhead_pct:+.2}% vs off");
}

fn main() {
    let sizes = sizes();
    let threads = patchdb_rt::par::configured_threads(16);
    let mut c = Criterion::default();
    bench_init_pass(&mut c, &sizes);
    let mut xc = Criterion::default().sample_size(3).warm_up_time(Duration::ZERO);
    bench_xl(&mut xc);
    let build_ms = pipeline_build_ms();
    println!("pipeline build: {build_ms:.0} ms");
    let results: Vec<&BenchResult> = c.results().iter().chain(xc.results().iter()).collect();
    write_report(&results, &sizes, threads, build_ms);
}
