//! Adversarial-geometry corpus for the partitioned search: inputs chosen to
//! stress every tie-break and degenerate-partition path — all-identical
//! rows, duplicate norms, exact distance ties, single-cell clusterings,
//! pools smaller than the requested cell count, candidate lists longer
//! than the pool, NaN features, and heavily masked pools. Every case
//! asserts byte-identical agreement with the explicit-matrix oracle
//! (and, through it, the serial Algorithm 1 loop).

use patchdb_features::{squared_euclidean, FeatureVector};
use patchdb_nls::{
    nearest_link_search_indexed, nearest_link_search_matrix, nearest_link_search_serial,
    nearest_link_search_with, NlsConfig,
};

/// Cell counts swept where a case does not fix its own: auto, one cell
/// (an exhaustive blocked scan), and more cells than the pool has rows.
const CELLS: [usize; 3] = [0, 1, 1000];

fn fv(vals: &[f64]) -> FeatureVector {
    let mut v = FeatureVector::zero();
    v.as_mut_slice()[..vals.len()].copy_from_slice(vals);
    v
}

/// Asserts every knob combination equals the matrix oracle.
fn assert_oracle_agreement(sec: &[FeatureVector], wild: &[FeatureVector], tag: &str) {
    let matrix: Vec<Vec<f64>> = sec
        .iter()
        .map(|s| wild.iter().map(|w| squared_euclidean(s, w)).collect())
        .collect();
    let oracle = nearest_link_search_matrix(&matrix);
    assert_eq!(oracle, nearest_link_search_serial(sec, wild), "{tag}: serial vs matrix");
    for threads in [1usize, 2] {
        for cells in [0usize, 1, 2, 1000] {
            for k_best in [1usize, 4, 64] {
                let cfg = NlsConfig { threads, k_best, cells };
                assert_eq!(
                    nearest_link_search_with(sec, wild, &cfg),
                    oracle,
                    "{tag}: threads={threads} cells={cells} k_best={k_best}"
                );
            }
        }
    }
}

#[test]
fn all_identical_rows() {
    // Every wild row is the same point: all distances tie at the same
    // value, so the assignment is decided purely by the index tie-break.
    let sec = vec![fv(&[1.0, 2.0]); 4];
    let wild = vec![fv(&[1.5, 2.5]); 9];
    assert_oracle_agreement(&sec, &wild, "all_identical_rows");
}

#[test]
fn duplicate_norms_distinct_points() {
    // Points on a common sphere defeat norm-based pruning/ordering: the
    // norm gap between any two candidates is exactly zero.
    let r = 5.0f64;
    let wild: Vec<FeatureVector> = (0..12)
        .map(|i| {
            let t = i as f64 * 0.5;
            fv(&[r * t.cos(), r * t.sin()])
        })
        .collect();
    let sec = vec![fv(&[r, 0.1]), fv(&[-r, 0.0]), fv(&[0.0, r])];
    assert_oracle_agreement(&sec, &wild, "duplicate_norms");
}

#[test]
fn exact_distance_ties_across_cells() {
    // Mirror-image pairs: each security row is exactly equidistant from
    // two wild rows that k-means likely separates into different cells —
    // the tie must still resolve to the smaller index.
    let mut wild = Vec::new();
    for i in 0..6 {
        let x = 1.0 + i as f64;
        wild.push(fv(&[x, 0.0]));
        wild.push(fv(&[-x, 0.0]));
    }
    let sec = vec![fv(&[0.0, 0.0]), fv(&[0.0, 1.0]), fv(&[0.0, -2.0])];
    assert_oracle_agreement(&sec, &wild, "exact_ties");
}

#[test]
fn single_cell_degenerate_clustering() {
    // cells=1 collapses the partition to one cell: the index path must
    // degrade to a (blocked) exhaustive scan, not lose candidates.
    let wild: Vec<FeatureVector> =
        (0..17).map(|i| fv(&[i as f64 * 0.3, (i % 5) as f64])).collect();
    let sec = vec![fv(&[2.0, 1.0]), fv(&[0.1, 4.0])];
    let matrix: Vec<Vec<f64>> = sec
        .iter()
        .map(|s| wild.iter().map(|w| squared_euclidean(s, w)).collect())
        .collect();
    let oracle = nearest_link_search_matrix(&matrix);
    let cfg = NlsConfig { cells: 1, ..NlsConfig::auto() };
    assert_eq!(nearest_link_search_with(&sec, &wild, &cfg), oracle);
}

#[test]
fn pool_smaller_than_cell_count() {
    // More requested cells than pool rows: the cell count must clamp to
    // the pool size and still cover every row exactly once.
    let wild = vec![fv(&[0.0]), fv(&[1.0]), fv(&[2.0]), fv(&[3.0])];
    let sec = vec![fv(&[0.4]), fv(&[2.6])];
    let cfg = NlsConfig { cells: 64, ..NlsConfig::auto() };
    let links = nearest_link_search_with(&sec, &wild, &cfg);
    assert_eq!(links, nearest_link_search_serial(&sec, &wild));
}

#[test]
fn k_best_larger_than_pool() {
    // Candidate lists longer than the pool: every row's list holds the
    // whole pool, collisions never rescan.
    let wild = vec![fv(&[0.0]), fv(&[0.5]), fv(&[1.0])];
    let sec = vec![fv(&[0.1]), fv(&[0.2]), fv(&[0.3])];
    for cells in CELLS {
        let cfg = NlsConfig { k_best: 100, cells, ..NlsConfig::auto() };
        assert_eq!(
            nearest_link_search_with(&sec, &wild, &cfg),
            nearest_link_search_serial(&sec, &wild),
            "cells={cells}"
        );
    }
}

#[test]
fn nan_features_stay_safe_in_every_mode() {
    // NaN features poison distances. Byte-identity is only promised for
    // NaN-free inputs (a row whose candidates are *all* NaN has no
    // well-defined nearest), but the robustness contract holds at every
    // cell count: the bounds must never reject on a NaN comparison,
    // never panic, and still return valid distinct links.
    let mut bad = fv(&[1.0, 2.0]);
    bad.as_mut_slice()[2] = f64::NAN;
    let sec = vec![fv(&[0.0, 0.0]), bad];
    let wild = vec![fv(&[0.1, 0.0]), fv(&[5.0, 5.0]), bad, fv(&[0.2, 0.1])];
    for cells in [0usize, 1, 2] {
        let cfg = NlsConfig { cells, ..NlsConfig::auto() };
        let links = nearest_link_search_with(&sec, &wild, &cfg);
        assert_eq!(links.len(), sec.len(), "cells={cells}");
        assert!(links.iter().all(|&n| n < wild.len()), "cells={cells}");
        assert_ne!(links[0], links[1], "cells={cells}");
        // The finite security row has a unique finite nearest neighbor
        // (wild 0 at d²=0.01); no bound may lose it to a NaN-confused
        // comparison.
        assert_eq!(links[0], 0, "cells={cells}");
    }
}

#[test]
fn heavily_masked_pool_matches_compacted_oracle() {
    // Kill all but sec.len() rows: the masked search has zero slack and
    // must land exactly on the surviving columns, at every cell count.
    let wild: Vec<FeatureVector> =
        (0..20).map(|i| fv(&[i as f64, (i * i % 7) as f64])).collect();
    let sec = vec![fv(&[3.3, 1.0]), fv(&[11.0, 2.0]), fv(&[16.2, 0.0])];
    let dead: Vec<bool> = (0..wild.len()).map(|i| ![4, 11, 17].contains(&i)).collect();
    for cells in CELLS {
        let cfg = NlsConfig { cells, ..NlsConfig::auto() };
        let links = nearest_link_search_indexed(&sec, &wild, &cfg, None, Some(&dead));
        let mut claimed = links.clone();
        claimed.sort_unstable();
        assert_eq!(claimed, vec![4, 11, 17], "cells={cells}: must claim every live column");
    }
}

#[test]
fn clustered_geometry_with_far_outliers() {
    // Tight clusters plus extreme outliers: the cell bound should skip
    // aggressively here, which makes it the case most likely to expose
    // an unsound skip.
    let mut wild = Vec::new();
    for c in 0..4 {
        let cx = c as f64 * 100.0;
        for i in 0..8 {
            wild.push(fv(&[cx + i as f64 * 1e-3, c as f64]));
        }
    }
    wild.push(fv(&[1e9, 0.0]));
    wild.push(fv(&[-1e9, 0.0]));
    let sec = vec![
        fv(&[0.0, 0.0]),
        fv(&[100.0, 1.0]),
        fv(&[200.0, 2.0]),
        fv(&[300.0, 3.0]),
        fv(&[150.0, 1.5]), // equidistant between clusters 1 and 2
    ];
    assert_oracle_agreement(&sec, &wild, "clustered_with_outliers");
}
