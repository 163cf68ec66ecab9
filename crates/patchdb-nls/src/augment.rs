//! The multi-round human-in-the-loop dataset augmentation driver behind
//! Table II: nearest link search → manual verification → loop judgment.
//!
//! The driver maintains the round state incrementally instead of
//! recomputing it from scratch: the security-set `max|a_ij|` statistic
//! only grows (rows are only appended), so it is merged forward; the
//! pool statistic is refolded in parallel over the live rows; and the
//! weighted feature buffers are reused whenever the learned weights did
//! not change between rounds. Claimed candidates never leave the pool
//! buffers — they are masked out through a dead-row bitmap instead, which
//! keeps row indices stable so the [`WildIndex`] built over the weighted
//! pool survives from round to round (it is only rebuilt when the learned
//! weights actually change, which stops happening once the per-feature
//! maxima saturate). All of it is bitwise-equivalent to the naive
//! clone-reweight-compact-everything loop because elementwise `max` of
//! absolute values is associative and commutative, `apply_weights` is a
//! pure per-row function, and masking is byte-equivalent to compaction
//! (distances are unchanged and the `(d², index)` tie order is monotone
//! under compaction).

use patchdb_features::{
    apply_weights, max_abs, merge_max_abs, weights_from_max_abs, FeatureVector, Weights,
    FEATURE_DIM,
};
use patchdb_rt::{obs, par};

use crate::index::WildIndex;
use crate::search::{nearest_link_search_indexed, NlsConfig};

/// One unlabeled pool ("Set I/II/III" in Table II) and how many rounds to
/// run over it.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// Display name (e.g. `"Set I: 100K"`).
    pub name: String,
    /// Indices (into the caller's wild universe) of the pool members.
    pub members: Vec<usize>,
    /// Number of augmentation rounds over this pool.
    pub rounds: usize,
}

/// Outcome of one augmentation round — one row of Table II.
#[derive(Debug, Clone)]
pub struct AugmentationRound {
    /// Pool name the round ran in.
    pub pool: String,
    /// 1-based global round number.
    pub round: usize,
    /// Search range (unlabeled patches at the start of the round).
    pub search_range: usize,
    /// Candidates selected by nearest link search (= |known security|).
    pub candidates: usize,
    /// Candidates the oracle verified as security patches.
    pub verified_security: usize,
    /// `verified_security / candidates`.
    pub ratio: f64,
}

/// Global `nls.*` counters banked per round under
/// `nls.roundNN.<suffix>`. Order is irrelevant (each is snapshot/delta'd
/// independently); `tests/trace.rs` pins the accounting identity
/// `dist_evaluated + pruned_norm + masked_skipped + cells_skipped ==
/// (rows + rescans) × pool_rows` over them.
const ROUND_COUNTERS: [&str; 6] = [
    "nls.dist_evaluated",
    "nls.pruned_norm",
    "nls.masked_skipped",
    "nls.cells_skipped",
    "nls.rows",
    "nls.rescans",
];

/// Runs the Table II augmentation protocol with the production NLS
/// configuration ([`NlsConfig::auto`]). See [`augment_rounds_with`].
pub fn augment_rounds<F>(
    seed_features: &[FeatureVector],
    wild_features: &[FeatureVector],
    pools: &[PoolSpec],
    verify: F,
) -> (Vec<AugmentationRound>, Vec<usize>, Vec<usize>)
where
    F: FnMut(usize) -> bool,
{
    augment_rounds_with(seed_features, wild_features, pools, &NlsConfig::auto(), verify)
}

/// Runs the Table II augmentation protocol.
///
/// * `seed_features` — feature vectors of the initial (NVD) security set;
/// * `wild_features` — feature vectors of the whole wild universe, indexed
///   by the ids used in `pools`;
/// * `pools` — the unlabeled sets and their round counts, processed in
///   order;
/// * `config` — the nearest-link-search configuration (threads,
///   candidate-list length, cell count; output is identical under
///   every one);
/// * `verify` — the manual-verification oracle: given a wild index,
///   returns whether the commit is a security patch.
///
/// Per round: weights are (re)learned over the live population (Section
/// III-B-2 normalizes per feature), nearest link search selects one
/// candidate per known security patch, every candidate is verified,
/// verified positives join the security set, and **all** verified
/// candidates leave the pool (negatives become cleaned non-security
/// data). Returns the per-round rows plus the final security/non-security
/// index partitions.
///
/// Candidates are verified in ascending pool-index order (the links are
/// distinct by construction, so sorting them *is* the deterministic
/// claimed order); the oracle is always called serially.
pub fn augment_rounds_with<F>(
    seed_features: &[FeatureVector],
    wild_features: &[FeatureVector],
    pools: &[PoolSpec],
    config: &NlsConfig,
    mut verify: F,
) -> (Vec<AugmentationRound>, Vec<usize>, Vec<usize>)
where
    F: FnMut(usize) -> bool,
{
    let threads = config.threads.max(1);
    let mut security: Vec<FeatureVector> = seed_features.to_vec();
    let mut security_idx: Vec<usize> = Vec::new(); // wild indices verified positive
    let mut nonsecurity_idx: Vec<usize> = Vec::new();
    let mut rows = Vec::new();
    let mut round_no = 0usize;

    // `max_i |a_ij|` over the security set: rows are only ever appended,
    // so this statistic is monotone and can be merged forward.
    let mut sec_max = max_abs(security.iter());

    for pool_spec in pools {
        // The pool buffers are never compacted: claimed rows flip their
        // `alive` bit and the search masks them out, so indices stay
        // stable for the reusable index below.
        let pool: Vec<usize> = pool_spec.members.clone();
        let pool_feats: Vec<FeatureVector> = pool.iter().map(|&i| wild_features[i]).collect();
        let mut alive: Vec<bool> = vec![true; pool.len()];
        let mut alive_count = pool.len();
        // Weighted buffers, valid for `prev_weights`; rebuilt fresh per
        // pool (the pool contents changed) and reused across rounds while
        // the learned weights stay identical.
        let mut prev_weights: Option<Weights> = None;
        let mut sec_w: Vec<FeatureVector> = Vec::new();
        let mut pool_w: Vec<FeatureVector> = Vec::new();
        // The search index over `pool_w`, shared across rounds and
        // invalidated only when the weights change.
        let mut index: Option<WildIndex> = None;

        for _ in 0..pool_spec.rounds {
            round_no += 1;
            let search_range = alive_count;
            if search_range < security.len() {
                // Pool exhausted below the candidate count: stop this pool.
                break;
            }
            let tracing = obs::enabled();
            let _round_span =
                obs::span(format!("round {round_no:02} [{}]", pool_spec.name));
            // Weight over the joint population in play this round. The
            // pool statistic is refolded over the live rows (the live set
            // shrinks, so its max can drop); merging it with the monotone
            // security max is bitwise equal to one pass over the union
            // because elementwise max is associative and commutative.
            let live_idx: Vec<u32> = (0..pool_feats.len() as u32)
                .filter(|&i| alive[i as usize])
                .collect();
            let pool_max = par::fold_chunked(
                &live_idx,
                threads,
                || [0.0f64; FEATURE_DIM],
                |mut acc, &i| {
                    merge_max_abs(&mut acc, &max_abs(std::iter::once(&pool_feats[i as usize])));
                    acc
                },
                |mut a, b| {
                    merge_max_abs(&mut a, &b);
                    a
                },
            );
            let mut joint = sec_max;
            merge_max_abs(&mut joint, &pool_max);
            let weights = weights_from_max_abs(&joint);

            if prev_weights.as_ref() != Some(&weights) {
                sec_w = par::map_chunked(&security, threads, |v| apply_weights(v, &weights));
                // Dead rows are reweighted too: they cost one multiply
                // each and keep the buffer aligned with the index/mask.
                pool_w = par::map_chunked(&pool_feats, threads, |v| apply_weights(v, &weights));
                prev_weights = Some(weights);
                index = None;
            } else {
                // Same weights as last round: only the rows appended to
                // the security set since then still need weighting, the
                // pool buffer (and the index over it) carry over as-is.
                let w = prev_weights.as_ref().expect("weights set");
                for v in &security[sec_w.len()..] {
                    sec_w.push(apply_weights(v, w));
                }
            }
            if index.is_none() {
                let _s = obs::span("nls.index_build");
                index = Some(WildIndex::build(&pool_w, config));
            }

            // Per-round NLS efficiency: snapshot the global counters
            // around the search and bank the deltas under round-scoped
            // names (the examples print "comparisons avoided %" off
            // these, and `tests/trace.rs` pins the accounting identity
            // over them). The snapshot sits *after* the index build: the
            // k-means construction runs its own tiny centroid searches,
            // which would otherwise leak sweeps with a different row
            // count into the round's books. Saturating subtraction
            // guards against concurrent traced builds in tests.
            let snap: Vec<u64> = if tracing {
                ROUND_COUNTERS.iter().map(|n| obs::counter_value(n)).collect()
            } else {
                Vec::new()
            };

            let dead: Vec<bool> = alive.iter().map(|&a| !a).collect();
            let links =
                nearest_link_search_indexed(&sec_w, &pool_w, config, index.as_ref(), Some(&dead));
            if tracing {
                for (name, before) in ROUND_COUNTERS.iter().zip(&snap) {
                    let delta = obs::counter_value(name).saturating_sub(*before);
                    let suffix = name.strip_prefix("nls.").expect("nls-scoped counter");
                    obs::counter_add(&format!("nls.round{round_no:02}.{suffix}"), delta);
                }
                obs::counter_add(
                    &format!("nls.round{round_no:02}.pool_rows"),
                    pool_feats.len() as u64,
                );
            }

            // The search guarantees distinct columns; sorting them is the
            // deterministic (ascending pool index) verification order.
            let mut claimed: Vec<usize> = links.clone();
            claimed.sort_unstable();
            debug_assert!(
                claimed.windows(2).all(|w| w[0] != w[1]),
                "nearest_link_search returned a duplicate link"
            );
            let mut verified = 0usize;
            for &local in &claimed {
                debug_assert!(alive[local], "linked a dead pool row");
                let global = pool[local];
                if verify(global) {
                    verified += 1;
                    let row = wild_features[global];
                    merge_max_abs(&mut sec_max, &max_abs(std::iter::once(&row)));
                    security.push(row);
                    security_idx.push(global);
                } else {
                    nonsecurity_idx.push(global);
                }
                alive[local] = false;
            }
            alive_count -= claimed.len();
            let candidates = claimed.len();
            if tracing {
                obs::counter_add("augment.candidates", candidates as u64);
                obs::counter_add("augment.verified", verified as u64);
            }
            rows.push(AugmentationRound {
                pool: pool_spec.name.clone(),
                round: round_no,
                search_range,
                candidates,
                verified_security: verified,
                ratio: verified as f64 / candidates.max(1) as f64,
            });
        }
    }
    (rows, security_idx, nonsecurity_idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic universe where "security" items cluster near the seed.
    fn universe() -> (Vec<FeatureVector>, Vec<FeatureVector>, Vec<bool>) {
        let mut seed = Vec::new();
        for i in 0..10 {
            let mut v = FeatureVector::zero();
            v.as_mut_slice()[0] = 5.0 + (i as f64) * 0.01;
            v.as_mut_slice()[1] = 5.0;
            seed.push(v);
        }
        let mut wild = Vec::new();
        let mut truth = Vec::new();
        for i in 0..200 {
            let mut v = FeatureVector::zero();
            let is_sec = i % 10 == 0; // 10% security
            if is_sec {
                v.as_mut_slice()[0] = 5.0 + (i as f64) * 0.001;
                v.as_mut_slice()[1] = 5.0;
            } else {
                v.as_mut_slice()[0] = (i % 13) as f64 * 0.1;
                v.as_mut_slice()[1] = 0.0;
            }
            wild.push(v);
            truth.push(is_sec);
        }
        (seed, wild, truth)
    }

    /// The seed implementation (full clone + reweight + compact every
    /// round, linking through the serial Algorithm 1 loop) — the
    /// incremental masked driver must match it output-for-output under
    /// every configuration.
    fn augment_rounds_naive<F>(
        seed_features: &[FeatureVector],
        wild_features: &[FeatureVector],
        pools: &[PoolSpec],
        mut verify: F,
    ) -> (Vec<AugmentationRound>, Vec<usize>, Vec<usize>)
    where
        F: FnMut(usize) -> bool,
    {
        use patchdb_features::learn_weights;
        let mut security: Vec<FeatureVector> = seed_features.to_vec();
        let mut security_idx: Vec<usize> = Vec::new();
        let mut nonsecurity_idx: Vec<usize> = Vec::new();
        let mut rows = Vec::new();
        let mut round_no = 0usize;
        for pool_spec in pools {
            let mut pool: Vec<usize> = pool_spec.members.clone();
            for _ in 0..pool_spec.rounds {
                round_no += 1;
                let search_range = pool.len();
                if search_range < security.len() {
                    break;
                }
                let pool_feats: Vec<FeatureVector> =
                    pool.iter().map(|&i| wild_features[i]).collect();
                let weights = learn_weights(security.iter().chain(pool_feats.iter()));
                let sec_w: Vec<FeatureVector> =
                    security.iter().map(|v| apply_weights(v, &weights)).collect();
                let pool_w: Vec<FeatureVector> =
                    pool_feats.iter().map(|v| apply_weights(v, &weights)).collect();
                let links = crate::search::nearest_link_search_serial(&sec_w, &pool_w);
                let mut claimed: Vec<usize> = links.clone();
                claimed.sort_unstable();
                claimed.dedup();
                let mut verified = 0usize;
                for &local in &claimed {
                    let global = pool[local];
                    if verify(global) {
                        verified += 1;
                        security.push(wild_features[global]);
                        security_idx.push(global);
                    } else {
                        nonsecurity_idx.push(global);
                    }
                }
                let candidates = claimed.len();
                rows.push(AugmentationRound {
                    pool: pool_spec.name.clone(),
                    round: round_no,
                    search_range,
                    candidates,
                    verified_security: verified,
                    ratio: verified as f64 / candidates.max(1) as f64,
                });
                let claimed_set: std::collections::HashSet<usize> =
                    claimed.into_iter().collect();
                pool = pool
                    .into_iter()
                    .enumerate()
                    .filter(|(local, _)| !claimed_set.contains(local))
                    .map(|(_, g)| g)
                    .collect();
            }
        }
        (rows, security_idx, nonsecurity_idx)
    }

    fn assert_rounds_match(fast: &[AugmentationRound], naive: &[AugmentationRound], tag: &str) {
        assert_eq!(fast.len(), naive.len(), "{tag}: round count");
        for (a, b) in fast.iter().zip(naive) {
            assert_eq!(a.pool, b.pool, "{tag}");
            assert_eq!(a.round, b.round, "{tag}");
            assert_eq!(a.search_range, b.search_range, "{tag}");
            assert_eq!(a.candidates, b.candidates, "{tag}");
            assert_eq!(a.verified_security, b.verified_security, "{tag}");
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "{tag}");
        }
    }

    #[test]
    fn incremental_driver_matches_naive_reference_in_every_mode() {
        let (seed, wild, truth) = universe();
        let pools = vec![
            PoolSpec { name: "A".into(), members: (0..120).collect(), rounds: 3 },
            PoolSpec { name: "B".into(), members: (120..200).collect(), rounds: 2 },
        ];
        let naive = augment_rounds_naive(&seed, &wild, &pools, |i| truth[i]);
        for k_best in [1usize, 8] {
            for cells in [0usize, 1, 64] {
                let cfg = NlsConfig { k_best, cells, ..NlsConfig::auto() };
                let fast = augment_rounds_with(&seed, &wild, &pools, &cfg, |i| truth[i]);
                let tag = format!("k_best={k_best} cells={cells}");
                assert_eq!(fast.1, naive.1, "{tag}: security partitions differ");
                assert_eq!(fast.2, naive.2, "{tag}: non-security partitions differ");
                assert_rounds_match(&fast.0, &naive.0, &tag);
            }
        }
    }

    #[test]
    fn rounds_find_clustered_security() {
        let (seed, wild, truth) = universe();
        let pools = vec![PoolSpec {
            name: "Set T".to_owned(),
            members: (0..wild.len()).collect(),
            rounds: 2,
        }];
        let (rows, sec_idx, nonsec_idx) =
            augment_rounds(&seed, &wild, &pools, |i| truth[i]);
        assert_eq!(rows.len(), 2);
        // First round: 10 candidates, and the clustered security patches
        // should dominate (well above the 10% base rate).
        assert_eq!(rows[0].candidates, 10);
        assert!(rows[0].ratio > 0.5, "round 1 ratio {}", rows[0].ratio);
        // Bookkeeping: verified sets partition the claimed candidates.
        let total_claimed: usize = rows.iter().map(|r| r.candidates).sum();
        assert_eq!(sec_idx.len() + nonsec_idx.len(), total_claimed);
        // Candidate count grows with the security set.
        assert_eq!(rows[1].candidates, 10 + rows[0].verified_security);
    }

    #[test]
    fn verified_candidates_leave_the_pool() {
        let (seed, wild, truth) = universe();
        let pools = vec![PoolSpec {
            name: "Set T".to_owned(),
            members: (0..wild.len()).collect(),
            rounds: 3,
        }];
        let (_, sec_idx, nonsec_idx) = augment_rounds(&seed, &wild, &pools, |i| truth[i]);
        let mut all: Vec<usize> = sec_idx.iter().chain(&nonsec_idx).copied().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a wild item was verified twice");
    }

    #[test]
    fn stops_when_pool_exhausts() {
        let (seed, wild, truth) = universe();
        let pools = vec![PoolSpec {
            name: "Tiny".to_owned(),
            members: (0..12).collect(),
            rounds: 5,
        }];
        // 10 seed + verified → candidate demand quickly exceeds 12-item
        // pool; the driver must stop cleanly rather than panic.
        let (rows, ..) = augment_rounds(&seed, &wild, &pools, |i| truth[i]);
        assert!(rows.len() <= 2);
    }

    #[test]
    fn multiple_pools_run_in_sequence() {
        let (seed, wild, truth) = universe();
        let pools = vec![
            PoolSpec { name: "A".into(), members: (0..100).collect(), rounds: 1 },
            PoolSpec { name: "B".into(), members: (100..200).collect(), rounds: 1 },
        ];
        let (rows, ..) = augment_rounds(&seed, &wild, &pools, |i| truth[i]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].pool, "A");
        assert_eq!(rows[1].pool, "B");
        assert!(rows[1].candidates >= rows[0].candidates);
    }
}
