//! Perf trajectory for the nearest link search: the seed's sqrt-based
//! full-scan init pass vs the squared-distance, parallel, pruned, and
//! partitioned-index variants at several `(M, N)`, plus
//! an XL size class and the end-to-end pipeline build wall time —
//! written to `BENCH_nls.json` at the repo root so later PRs can
//! compare against this one.
//!
//! * `PATCHDB_BENCH_FAST=1` shrinks sizes and sampling for the CI smoke
//!   run (the JSON is still produced and must still parse).
//! * `PATCHDB_BENCH_NLS_JSON=<path>` overrides the output location.
//! * `PATCHDB_THREADS=<n>` steers the worker count of the parallel
//!   variants, as everywhere else.
//!
//! The index variant is measured in two pieces — `*-build` (one-time
//! partition construction, amortized across augmentation
//! rounds, which reuse the index) and `*-query` (the per-sweep scan the
//! rounds actually repeat) — and `speedup_vs_seed` compares the query
//! piece against the seed baseline at the same shape, single-threaded
//! on both sides. Every variant is asserted byte-identical to the seed
//! argmin before it is timed.

use std::time::{Duration, Instant};

use patchdb::{BuildOptions, PatchDb};
use patchdb_corpus::{CorpusConfig, GitHubForge};
use patchdb_features::{
    apply_weights, euclidean, extract, learn_weights, squared_euclidean, FeatureVector,
};
use patchdb_nls::{row_minima, row_minima_indexed, IndexMode, NlsConfig, WildIndex};
use patchdb_rt::bench::{black_box, BenchResult, BenchmarkId, Criterion};
use patchdb_rt::json::{Json, Writer};
use patchdb_rt::{obs, par};

/// Weighted feature vectors of real (forge-materialized) patches — the
/// exact population the pipeline's nearest link search runs on: cleaned
/// patches, Table I extraction, `1/max|a_j|` weighting over the pool.
/// Patch features cluster by patch size (heavy-tailed), which is the
/// structure the norm-bound pruning and the k-means partition exploit;
/// synthetic isotropic noise would understate both badly.
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

/// A bare, uninstrumented replica of what `row_minima` runs with the
/// `serial-squared` config — the same plain scan, candidate-list push
/// (lexicographic k-best at k = 1), and mask branch as the pre-obs
/// production loop, minus the `obs::enabled()` check and the
/// monomorphized probe plumbing. The gap between this and
/// `serial-squared` is the obs-off cost of the instrumentation alone
/// (`obs.off_overhead_pct` in BENCH_nls.json), which the `NoProbe`
/// design is meant to keep near zero.
fn bare_init_pass(security: &[FeatureVector], wild: &[FeatureVector]) -> (Vec<f64>, Vec<usize>) {
    let used: Option<&[bool]> = None;
    let lists: Vec<Vec<(f64, usize)>> = security
        .iter()
        .map(|sec| {
            let mut list: Vec<(f64, usize)> = Vec::with_capacity(1);
            for (n, w) in wild.iter().enumerate() {
                if used.is_some_and(|u| u[n]) {
                    continue;
                }
                let d2 = squared_euclidean(sec, w);
                if let Some(&(ld, li)) = list.first() {
                    if d2 < ld || (d2 == ld && n < li) {
                        list[0] = (d2, n);
                    }
                } else {
                    list.push((d2, n));
                }
            }
            list
        })
        .collect();
    lists.iter().map(|l| (l[0].0, l[0].1)).unzip()
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
/// from every flavor of linear scan. Kept out of `sizes()` because the
/// seed baseline takes tens of seconds per iteration here — it gets its
/// own low-sample `Criterion`.
fn xl_size() -> (usize, usize) {
    if fast_mode() {
        (40, 4_000)
    } else {
        (2_000, 200_000)
    }
}

/// The index variant measured at every shape: single-threaded, argmin
/// (`k_best = 1`) so the comparison against the single-threaded seed
/// baseline is one knob, auto cells (`√N`).
fn index_configs() -> [(&'static str, NlsConfig); 1] {
    [("partitioned", NlsConfig { threads: 1, k_best: 1, index: IndexMode::Partitioned, cells: 0 })]
}

fn bench_init_pass(c: &mut Criterion, sizes: &[(usize, usize)], threads: usize) {
    // One feature pool sized for the largest instance, sliced per size:
    // security rows from the front, wild rows from the back.
    let (max_m, max_n) = *sizes.last().expect("at least one size");
    let pool = corpus_features(max_m + max_n, 41);
    let mut g = c.benchmark_group("nls-init");
    for &(m, n) in sizes {
        let sec = &pool[..m];
        let wild = &pool[pool.len() - n..];
        let shape = format!("{m}x{n}");

        // Sanity: every variant must agree with the seed baseline on the
        // argmin columns before we bother timing it.
        let (_, seed_v) = seed_init_pass(sec, wild);
        let configs = [
            ("serial-squared", NlsConfig::serial()),
            ("parallel", NlsConfig { threads, k_best: 8, ..NlsConfig::serial() }),
            ("pruned", NlsConfig { k_best: 8, ..NlsConfig::serial().index(IndexMode::Pruned) }),
            (
                "parallel-pruned",
                NlsConfig { threads, k_best: 8, ..NlsConfig::serial().index(IndexMode::Pruned) },
            ),
        ];
        for (name, cfg) in &configs {
            let (_, v) = row_minima(sec, wild, cfg);
            assert_eq!(seed_v, v, "{name} drifted from the seed baseline at {shape}");
        }

        let (_, bare_v) = bare_init_pass(sec, wild);
        assert_eq!(seed_v, bare_v, "bare replica drifted from the seed baseline at {shape}");

        g.bench_with_input(BenchmarkId::new("seed-baseline", &shape), &(), |b, ()| {
            b.iter(|| black_box(seed_init_pass(sec, wild)))
        });
        // The instrumentation-cost pair: a bare uninstrumented scan vs the
        // same scan through the probe-generic production path (obs off).
        g.bench_with_input(BenchmarkId::new("serial-bare", &shape), &(), |b, ()| {
            b.iter(|| black_box(bare_init_pass(sec, wild)))
        });
        for (name, cfg) in &configs {
            g.bench_with_input(BenchmarkId::new(*name, &shape), &(), |b, ()| {
                b.iter(|| black_box(row_minima(sec, wild, cfg)))
            });
        }
        // The toggle-cost pair: the serial pruned scan re-timed with
        // tracing on. `row_minima` banks counters but opens no spans, so
        // repeated iterations don't grow the registry.
        let pruned_cfg = &configs[2].1;
        assert!(
            pruned_cfg.index == IndexMode::Pruned && pruned_cfg.threads == 1,
            "configs[2] must be `pruned`"
        );
        g.bench_with_input(BenchmarkId::new("pruned-traced", &shape), &(), |b, ()| {
            obs::set_enabled(true);
            obs::reset();
            b.iter(|| black_box(row_minima(sec, wild, pruned_cfg)));
            obs::set_enabled(false);
        });

        // The index variants: one-time build and the repeated query
        // sweep, separately.
        for (name, cfg) in index_configs() {
            let ix = WildIndex::build(wild, &cfg);
            let (_, v) = row_minima_indexed(sec, wild, &cfg, &ix);
            assert_eq!(seed_v, v, "{name} index drifted from the seed baseline at {shape}");
            g.bench_with_input(BenchmarkId::new(format!("{name}-build"), &shape), &(), |b, ()| {
                b.iter(|| black_box(WildIndex::build(wild, &cfg)))
            });
            g.bench_with_input(BenchmarkId::new(format!("{name}-query"), &shape), &(), |b, ()| {
                b.iter(|| black_box(row_minima_indexed(sec, wild, &cfg, &ix)))
            });
        }
    }
    g.finish();
}

/// The XL class on its own `Criterion`: two samples, no warmup — the
/// seed baseline alone is tens of seconds per iteration, and the index
/// numbers it anchors are tens of milliseconds, so medians of a cheap
/// sample count carry all the signal the speedup ratio needs.
fn bench_xl(xc: &mut Criterion) {
    let (m, n) = xl_size();
    let pool = corpus_features(m + n, 43);
    let sec = &pool[..m];
    let wild = &pool[pool.len() - n..];
    let shape = format!("{m}x{n}");

    // Identity at this scale is anchored through the pruned scan (itself
    // asserted against the seed replica at every standard shape) — the
    // seed replica is only *timed* here, not re-run an extra time.
    let pruned = NlsConfig::serial().index(IndexMode::Pruned);
    let (_, ref_v) = row_minima(sec, wild, &pruned);

    let mut g = xc.benchmark_group("nls-xl");
    g.bench_with_input(BenchmarkId::new("seed-baseline", &shape), &(), |b, ()| {
        b.iter(|| black_box(seed_init_pass(sec, wild)))
    });
    for (name, cfg) in index_configs() {
        let ix = WildIndex::build(wild, &cfg);
        let (_, v) = row_minima_indexed(sec, wild, &cfg, &ix);
        assert_eq!(ref_v, v, "{name} index drifted from the pruned scan at {shape}");
        g.bench_with_input(BenchmarkId::new(format!("{name}-build"), &shape), &(), |b, ()| {
            b.iter(|| black_box(WildIndex::build(wild, &cfg)))
        });
        g.bench_with_input(BenchmarkId::new(format!("{name}-query"), &shape), &(), |b, ()| {
            b.iter(|| black_box(row_minima_indexed(sec, wild, &cfg, &ix)))
        });
    }
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
    let speedup = match (
        median_of("nls-init", "seed-baseline", &shape),
        median_of("nls-init", "parallel-pruned", &shape),
    ) {
        (Some(base), Some(fast)) if fast > 0.0 => base / fast,
        _ => 0.0,
    };

    // Observability cost at the largest shape. `off_overhead_pct` is the
    // probe-generic production path (tracing off) against a bare
    // uninstrumented replica of the same scan. `on_overhead_pct` is what
    // flipping PATCHDB_TRACE=1 costs on the serial pruned init pass.
    let overhead_pct = |with: Option<f64>, without: Option<f64>| match (with, without) {
        (Some(w), Some(wo)) if wo > 0.0 => 100.0 * (w - wo) / wo,
        _ => 0.0,
    };
    let obs_json = Json::Obj(vec![
        (
            "bare_median_ns".into(),
            Json::Num(median_of("nls-init", "serial-bare", &shape).unwrap_or(0.0)),
        ),
        (
            "off_median_ns".into(),
            Json::Num(median_of("nls-init", "serial-squared", &shape).unwrap_or(0.0)),
        ),
        (
            "off_overhead_pct".into(),
            Json::Num(overhead_pct(
                median_of("nls-init", "serial-squared", &shape),
                median_of("nls-init", "serial-bare", &shape),
            )),
        ),
        (
            "on_median_ns".into(),
            Json::Num(median_of("nls-init", "pruned-traced", &shape).unwrap_or(0.0)),
        ),
        (
            "on_overhead_pct".into(),
            Json::Num(overhead_pct(
                median_of("nls-init", "pruned-traced", &shape),
                median_of("nls-init", "pruned", &shape),
            )),
        ),
    ]);

    // The index block: per (mode, shape) build/query medians and the
    // query speedup against the seed baseline at the same shape. The XL
    // class rides in the same array under its own shape string.
    let xl = xl_size();
    let xl_shape = format!("{}x{}", xl.0, xl.1);
    let mut mode_entries: Vec<Json> = Vec::new();
    let mut index_speedup_largest = 0.0f64;
    let mut xl_speedup = 0.0f64;
    for (group, entry_shape) in
        [("nls-init", shape.as_str()), ("nls-xl", xl_shape.as_str())]
    {
        let seed = median_of(group, "seed-baseline", entry_shape);
        for (mode, _) in index_configs() {
            let build = median_of(group, &format!("{mode}-build"), entry_shape);
            let query = median_of(group, &format!("{mode}-query"), entry_shape);
            let speedup = match (seed, query) {
                (Some(s), Some(q)) if q > 0.0 => s / q,
                _ => 0.0,
            };
            if entry_shape == shape {
                index_speedup_largest = index_speedup_largest.max(speedup);
            } else {
                xl_speedup = xl_speedup.max(speedup);
            }
            mode_entries.push(Json::Obj(vec![
                ("mode".into(), Json::Str(mode.into())),
                ("shape".into(), Json::Str(entry_shape.into())),
                ("build_median_ns".into(), Json::Num(build.unwrap_or(0.0))),
                ("query_median_ns".into(), Json::Num(query.unwrap_or(0.0))),
                ("speedup_vs_seed".into(), Json::Num(speedup)),
            ]));
        }
    }
    let index_json = Json::Obj(vec![
        ("modes".into(), Json::Arr(mode_entries)),
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
    w.field("init_speedup_largest", &speedup);
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
    println!("init speedup at {shape}: {speedup:.2}x (parallel-pruned vs seed)");
    println!("index speedup at {shape}: {index_speedup_largest:.2}x (best mode query vs seed)");
    println!("index speedup at {xl_shape}: {xl_speedup:.2}x (best mode query vs seed)");
    println!(
        "obs cost at {shape}: off {:+.2}% vs bare, on {:+.2}% vs off",
        overhead_pct(
            median_of("nls-init", "serial-squared", &shape),
            median_of("nls-init", "serial-bare", &shape)
        ),
        overhead_pct(
            median_of("nls-init", "pruned-traced", &shape),
            median_of("nls-init", "pruned", &shape)
        ),
    );
}

fn main() {
    let sizes = sizes();
    let threads = patchdb_rt::par::configured_threads(16);
    let mut c = Criterion::default();
    bench_init_pass(&mut c, &sizes, threads);
    let mut xc = Criterion::default().sample_size(3).warm_up_time(Duration::ZERO);
    bench_xl(&mut xc);
    let build_ms = pipeline_build_ms();
    println!("pipeline build: {build_ms:.0} ms");
    let results: Vec<&BenchResult> = c.results().iter().chain(xc.results().iter()).collect();
    write_report(&results, &sizes, threads, build_ms);
}
