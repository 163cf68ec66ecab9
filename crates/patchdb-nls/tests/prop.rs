//! Property tests for the nearest link search: output validity, agreement
//! between the matrix-free and explicit-matrix implementations, and
//! nearest-neighbor dominance. Runs on `patchdb_rt::check`.

use patchdb_rt::check::{check, Gen};

use patchdb_features::{euclidean, squared_euclidean, FeatureVector};
use patchdb_nls::{
    nearest_link_search, nearest_link_search_indexed, nearest_link_search_matrix,
    nearest_link_search_serial, nearest_link_search_with, row_minima, total_link_distance,
    NlsConfig, WildIndex,
};

/// Cell counts the masked-search property sweeps: auto, one cell (an
/// exhaustive blocked scan), and more cells than most generated pools
/// have rows.
const CELLS: [usize; 3] = [0, 1, 64];

const CASES: u32 = 128;

fn fv(vals: Vec<f64>) -> FeatureVector {
    let mut v = FeatureVector::zero();
    for (slot, x) in v.as_mut_slice().iter_mut().zip(vals) {
        *slot = x;
    }
    v
}

/// `[min, max]` points with 3 coordinates each in [-10, 10).
fn points(g: &mut Gen, min: usize, max: usize) -> Vec<FeatureVector> {
    g.vec_with(min, max, |g| fv(vec![
        g.f64_in(-10.0, 10.0),
        g.f64_in(-10.0, 10.0),
        g.f64_in(-10.0, 10.0),
    ]))
}

/// Links are a valid partial injection: every security patch gets a
/// distinct wild index in range.
#[test]
fn links_are_valid() {
    check("links_are_valid", CASES, |g| {
        let sec = points(g, 1, 19);
        let wild = points(g, 30, 59);
        let links = nearest_link_search(&sec, &wild);
        assert_eq!(links.len(), sec.len());
        assert!(links.iter().all(|&n| n < wild.len()));
        let mut sorted = links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sec.len(), "duplicate links");
    });
}

/// Matrix-free and explicit-matrix implementations agree exactly. The
/// matrix is fed squared distances because that is the (exact) space the
/// matrix-free search compares in.
#[test]
fn implementations_agree() {
    check("implementations_agree", CASES, |g| {
        let sec = points(g, 1, 14);
        let wild = points(g, 20, 39);
        let matrix: Vec<Vec<f64>> = sec
            .iter()
            .map(|s| wild.iter().map(|w| squared_euclidean(s, w)).collect())
            .collect();
        assert_eq!(nearest_link_search(&sec, &wild), nearest_link_search_matrix(&matrix));
    });
}

/// Tie-heavy instances: points drawn from a small palette so exact
/// duplicate distances (and heavy collisions) are guaranteed.
fn palette_points(g: &mut Gen, palette: &[FeatureVector], min: usize, max: usize) -> Vec<FeatureVector> {
    let n = g.usize_in(min, max);
    (0..n).map(|_| palette[g.index(palette.len())]).collect()
}

/// The parallel indexed search equals the faithful serial Algorithm 1
/// loop *and* the explicit-matrix reference for every configuration —
/// thread counts 1/2/8, several candidate-list lengths and cell counts —
/// including on tie-heavy instances.
#[test]
fn configs_agree_with_serial_and_matrix() {
    check("configs_agree_with_serial_and_matrix", CASES, |g| {
        let (sec, wild) = if g.bool() {
            (points(g, 1, 12), points(g, 16, 31))
        } else {
            let palette = points(g, 4, 9);
            (palette_points(g, &palette, 1, 12), palette_points(g, &palette, 16, 31))
        };
        let reference = nearest_link_search_serial(&sec, &wild);
        let matrix: Vec<Vec<f64>> = sec
            .iter()
            .map(|s| wild.iter().map(|w| squared_euclidean(s, w)).collect())
            .collect();
        assert_eq!(reference, nearest_link_search_matrix(&matrix), "serial vs matrix");
        // Each case draws one cell count; the threads × k_best grid is
        // swept exhaustively within it.
        let cells = g.usize_in(0, 6);
        for threads in [1usize, 2, 8] {
            for k_best in [1usize, 4] {
                let cfg = NlsConfig { threads, k_best, cells };
                assert_eq!(
                    nearest_link_search_with(&sec, &wild, &cfg),
                    reference,
                    "threads={threads} k_best={k_best} cells={cells}"
                );
            }
        }
    });
}

/// A masked search over the full pool equals a plain search over the
/// physically compacted pool, at every cell count, and both equal the
/// serial loop over the compacted pool — the equivalence the
/// augmentation driver's alive-bitmap (and cross-round index reuse)
/// stands on.
#[test]
fn masked_search_equals_compacted_search() {
    check("masked_search_equals_compacted_search", CASES, |g| {
        let sec = points(g, 1, 8);
        let wild = points(g, 20, 39);
        // Kill a random subset, keeping at least sec.len() alive.
        let mut dead = vec![false; wild.len()];
        let max_dead = wild.len() - sec.len();
        for _ in 0..g.usize_in(0, max_dead) {
            dead[g.index(wild.len())] = true;
        }
        while dead.iter().filter(|&&d| d).count() > max_dead {
            dead[g.index(wild.len())] = false;
        }
        let compacted: Vec<FeatureVector> = wild
            .iter()
            .zip(&dead)
            .filter(|(_, &d)| !d)
            .map(|(v, _)| *v)
            .collect();
        // full-pool index → compacted-pool index
        let to_full: Vec<usize> =
            (0..wild.len()).filter(|&i| !dead[i]).collect();
        let serial = nearest_link_search_serial(&sec, &compacted);
        for cells in CELLS {
            let cfg = NlsConfig { cells, ..NlsConfig::auto() };
            let masked = nearest_link_search_indexed(&sec, &wild, &cfg, None, Some(&dead));
            let compact_links = nearest_link_search_with(&sec, &compacted, &cfg);
            assert_eq!(compact_links, serial, "cells {cells}: compacted vs serial");
            let remapped: Vec<usize> = compact_links.iter().map(|&l| to_full[l]).collect();
            assert_eq!(masked, remapped, "cells {cells}");
        }
    });
}

/// A prebuilt index reused across searches (the augmentation driver's
/// pattern) gives the same answer as building one per call.
#[test]
fn prebuilt_index_matches_fresh_build() {
    check("prebuilt_index_matches_fresh_build", CASES / 2, |g| {
        let wild = points(g, 16, 47);
        let cfg = NlsConfig { cells: g.usize_in(0, 5), ..NlsConfig::auto() };
        let ix = WildIndex::build(&wild, &cfg);
        for _ in 0..3 {
            let sec = points(g, 1, 6);
            assert_eq!(
                nearest_link_search_indexed(&sec, &wild, &cfg, Some(&ix), None),
                nearest_link_search_with(&sec, &wild, &cfg),
            );
        }
    });
}

/// The literal Algorithm 1 init pass (lines 1–3): per-row minimum
/// squared distance and argmin, first strict minimum wins.
fn serial_init(sec: &[FeatureVector], wild: &[FeatureVector]) -> (Vec<f64>, Vec<usize>) {
    sec.iter()
        .map(|s| {
            let (mut u, mut v) = (f64::INFINITY, 0usize);
            for (n, w) in wild.iter().enumerate() {
                let d = squared_euclidean(s, w);
                if d < u {
                    u = d;
                    v = n;
                }
            }
            (u, v)
        })
        .unzip()
}

/// The indexed init pass (`row_minima`) is bitwise identical to the
/// serial init loop under every configuration: same argmin columns,
/// same squared distances.
#[test]
fn row_minima_bitwise_stable() {
    check("row_minima_bitwise_stable", CASES, |g| {
        let sec = points(g, 1, 10);
        let wild = points(g, 12, 47);
        let (u0, v0) = serial_init(&sec, &wild);
        let cells = g.usize_in(0, 6);
        for threads in [1usize, 2, 8] {
            for k_best in [1usize, 8] {
                let cfg = NlsConfig { threads, k_best, cells };
                let ix = WildIndex::build(&wild, &cfg);
                let (u, v) = row_minima(&sec, &ix, &cfg);
                let tag = format!("threads={threads} k_best={k_best} cells={cells}");
                assert_eq!(v0, v, "argmin drift: {tag}");
                for (a, b) in u0.iter().zip(&u) {
                    assert_eq!(a.to_bits(), b.to_bits(), "distance drift: {tag}");
                }
            }
        }
    });
}

/// The single-security case is exactly nearest-neighbor search.
#[test]
fn single_row_is_nearest_neighbor() {
    check("single_row_is_nearest_neighbor", CASES, |g| {
        let s = points(g, 1, 1);
        let wild = points(g, 5, 39);
        let links = nearest_link_search(&s, &wild);
        let nn = wild
            .iter()
            .enumerate()
            .min_by(|a, b| euclidean(&s[0], a.1).total_cmp(&euclidean(&s[0], b.1)))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(euclidean(&s[0], &wild[links[0]]), euclidean(&s[0], &wild[nn]));
    });
}

/// The greedy total never beats the sum of unconstrained per-row
/// minima (lower bound) — a sanity corridor for the objective.
#[test]
fn objective_sanity() {
    check("objective_sanity", CASES, |g| {
        let sec = points(g, 2, 11);
        let wild = points(g, 24, 47);
        let links = nearest_link_search(&sec, &wild);
        let total = total_link_distance(&sec, &wild, &links);
        let lower: f64 = sec
            .iter()
            .map(|s| {
                wild.iter()
                    .map(|w| euclidean(s, w))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!(total + 1e-9 >= lower, "total {total} below lower bound {lower}");
    });
}
