//! The sublinear wild-pool index: a coarse k-means partition with
//! structure-of-arrays side tables (centroid norms, cell radii, member
//! distances to their centroid) that let a query retire whole cells —
//! and whole flanks inside a cell — in O(1) per skip.
//!
//! ## The skip chain
//!
//! Per query `q` the scan walks the cells through a stack of ever more
//! expensive, ever tighter bounds; each layer only sees what the layer
//! above could not prove away:
//!
//! 1. **Bulk side retirement (O(1) per side).** Cells are walked
//!    outward from `‖q‖` in centroid-norm order, so the norm gap below
//!    only grows; once the nearest remaining cell on a side fails it
//!    even with that side's largest radius, the whole side retires.
//! 2. **Cell norm gap (O(1) per cell).** `d(q, x) ≥ |‖q‖ − ‖c‖| − r` for
//!    any member `x` of a cell with centroid `c` and radius
//!    `r = max d(c, ·)` (triangle via the origin, then via the
//!    centroid). One subtract against the SoA `cent_norms`/`radii`
//!    tables retires the whole cell without touching its 60-dim
//!    centroid.
//! 3. **Centroid distance (≤ 60 dims per cell).** Survivors get an
//!    early-exiting exact `d²(q, c)` against the d²-space bar
//!    `(r + t)²` where `t` is the distance-space threshold; crossing
//!    the bar mid-sum proves `d(q, x) ≥ d(q, c) − r > t` for every
//!    member, so the cell retires (possibly) without finishing the sum.
//! 4. **Member windowing (O(1) per skipped flank).** Inside a visited
//!    cell, `d(q, x) ≥ |d(q, c) − d(x, c)|` with every `d(x, c)`
//!    precomputed and the members sorted by it. Scanning expands
//!    outward from the query's position in that ordering and retires a
//!    whole side once its gap alone beats the threshold — exactly the
//!    norm-prune argument with the cell centroid in place of the
//!    origin, and a far tighter bound because the centroid is close.
//! 5. **Exact evaluation.** Whatever survives is evaluated with
//!    [`early_exit_d2`](crate::search), which accumulates in exactly
//!    `squared_euclidean`'s summation order — bit-identical values.
//!    Bitwise-duplicate rows sit adjacently in the window order, so
//!    each flank pays the kernel once per duplicate run and reuses the
//!    outcome for the rest.
//!
//! Before the walk, phase one scans the [`PROBES`] nearest cells
//! unconditionally (no bound can fire while the k-best list is short),
//! so the threshold the chain compares against starts tight.
//!
//! ## Why the indexed scan is byte-identical to the plain scan
//!
//! Every layer skips only *provable losers*: candidates whose computed
//! squared distance is guaranteed to exceed the current k-best
//! threshold, which `push_candidate` would reject anyway. The surviving
//! k-best set is therefore the same `(d², index)`-lexicographic set the
//! exhaustive scan keeps, and `push_candidate` is visit-order
//! independent, so the *order* in which cells are probed cannot change
//! the output. Distance-space bounds carry the same
//! [`PRUNE_SLACK`](crate::search) that guards the pruned scan's norm
//! bound (sqrt-derived quantities are a few ulps loose), and the
//! d²-space bars inflate by [`BOUND_CUSHION`] on top — orders of
//! magnitude more slack than the rounding they absorb. NaN distances
//! make every skip comparison come out false, so NaN-tainted
//! queries degrade to evaluating everything; NaN members sort to the
//! far end of every table and are only ever retired when the threshold
//! is finite — a regime where `push_candidate` rejects NaN anyway.
//!
//! Construction is deterministic for any thread count: centroids are
//! seeded from a fixed [`rt::rng`](patchdb_rt::rng) stream, Lloyd
//! updates run serially over a fixed subsample, and the full-pool
//! assignment reuses the (bitwise thread-invariant) pruned row scan.

use patchdb_features::{FeatureVector, FEATURE_DIM};
use patchdb_rt::rng::Xoshiro256pp;

use crate::search::{
    early_exit_d2, norm, push_candidate, row_minima, threshold, IndexMode, NlsConfig, Probe,
    PRUNE_SLACK,
};

/// Fixed seed of the centroid-sampling RNG stream — a constant, so the
/// index (and therefore every search through it) is a pure function of
/// the pool bytes.
const KMEANS_SEED: u64 = 0x5EED_01DE_CE11_5EED;

/// Lloyd refinement iterations over the training subsample.
const LLOYD_ITERS: usize = 2;

/// Nearest cells scanned unconditionally before the cell bound may
/// skip: scanning the runner-up cell tightens the k-best threshold
/// faster than its cost on every pool measured.
const PROBES: usize = 2;

/// Multiplicative inflation on the cell-level bars: makes the derived
/// thresholds strictly conservative against the handful of extra
/// roundings (`sqrt`, add, square) they stack on top of `PRUNE_SLACK`.
const BOUND_CUSHION: f64 = 1.0 + 1e-9;

/// One partition cell. Members are sorted by `(distance to centroid,
/// original index)` so a query can window-prune around its own centroid
/// distance; `dists` is the SoA bound table aligned to that order and
/// `rows` holds contiguous copies of the member features (the exact
/// kernel walks one 480-byte row at a time).
struct Cell {
    members: Vec<u32>,
    dists: Vec<f64>,
    rows: Vec<FeatureVector>,
    /// `same[p]` = `rows[p]` is bitwise-identical to `rows[p - 1]`.
    /// Duplicate rows share a centroid distance, so the window order
    /// parks them adjacently (ids ascending) and each flank of the
    /// window walk visits them consecutively — one exact evaluation
    /// per duplicate run, reused for the rest (skip layer 5).
    same: Vec<bool>,
}

/// The memoized outcome of the last evaluation on one window flank,
/// reusable while [`Cell::same`] chains hold.
#[derive(Clone, Copy)]
enum DupRun {
    /// Exact squared distance of the duplicate row (full accumulation).
    D2(f64),
    /// The evaluation early-exited: the run's d² provably exceeded a
    /// past threshold, and thresholds only shrink.
    Exited,
}

/// A partitioned snapshot of one weighted wild pool. Build once per
/// pool contents, query many times — the augmentation driver keeps an
/// index alive across rounds while the learned weights stay identical,
/// masking claimed rows instead of rebuilding.
pub struct WildIndex {
    n: usize,
    cells: Vec<Cell>,
    centroids: Vec<FeatureVector>,
    /// `‖c‖` per cell — the SoA table behind skip layers 1 and 2.
    cent_norms: Vec<f64>,
    /// `max d(c, ·)` per cell.
    radii: Vec<f64>,
    /// Cell ids sorted by `(cent_norm, id)` — locates the
    /// nearest-in-norm cells to probe first, before any bound can fire.
    norm_order: Vec<u32>,
    /// `member_prefix[i]` = total members in `norm_order[..i]` — turns a
    /// bulk side retirement into one counter add. Length `k + 1`.
    member_prefix: Vec<u64>,
    /// `rad_before[i]` = max radius over `norm_order[..i]`,
    /// `rad_after[i]` = max radius over `norm_order[i..]` — the worst
    /// case a whole side of the norm-ordered walk can still reach.
    /// Length `k + 1`; empty ranges hold `-inf`.
    rad_before: Vec<f64>,
    rad_after: Vec<f64>,
}

impl WildIndex {
    /// Partitions `wild` into `config.cells` k-means cells (0 = auto:
    /// `√N`, clamped to `[1, min(N, 4096)]`). Deterministic for any
    /// `config.threads`.
    ///
    /// # Panics
    ///
    /// Panics when `wild` is empty or `config.index` is not
    /// [`IndexMode::Partitioned`] (the linear scans need no index).
    pub fn build(wild: &[FeatureVector], config: &NlsConfig) -> WildIndex {
        assert!(!wild.is_empty(), "cannot index an empty pool");
        assert!(
            config.index == IndexMode::Partitioned,
            "IndexMode::{:?} takes no index",
            config.index
        );
        let threads = config.threads.max(1);
        let n = wild.len();
        let k = effective_cells(config.cells, n);

        // Distinct training rows via a partial Fisher–Yates shuffle on a
        // fixed RNG stream; the first k double as the initial centroids.
        let mut rng = Xoshiro256pp::seed_from_u64(KMEANS_SEED);
        let sample_len = n.min((k * 32).max(1024)).max(k);
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for i in 0..sample_len {
            let j = i + rng.gen_range(0..(n - i) as u64) as usize;
            idx.swap(i, j);
        }
        let sample: Vec<FeatureVector> = idx[..sample_len].iter().map(|&i| wild[i as usize]).collect();
        let mut centroids: Vec<FeatureVector> = sample[..k].to_vec();

        // Nearest-centroid assignment is exactly a k_best=1 pruned row
        // scan with the centroids as the "pool" — reuse it: parallel,
        // pruned, and already pinned bitwise thread-invariant.
        let assign_cfg = NlsConfig { threads, k_best: 1, index: IndexMode::Pruned, cells: 0 };
        for _ in 0..LLOYD_ITERS {
            let (_, assign) = row_minima(&sample, &centroids, &assign_cfg);
            // Serial mean update in sample order: deterministic f64 sums.
            let mut sums = vec![[0.0f64; FEATURE_DIM]; k];
            let mut counts = vec![0usize; k];
            for (row, &c) in sample.iter().zip(&assign) {
                counts[c] += 1;
                for (s, &x) in sums[c].iter_mut().zip(row.as_slice()) {
                    *s += x;
                }
            }
            for (c, count) in counts.iter().enumerate() {
                if *count > 0 {
                    let inv = 1.0 / *count as f64;
                    for (slot, s) in centroids[c].as_mut_slice().iter_mut().zip(&sums[c]) {
                        *slot = s * inv;
                    }
                }
                // Empty cell: keep the previous centroid (it may still
                // attract points next iteration; an empty final cell is
                // harmless — scanning it is a no-op).
            }
        }

        let (d2, assign) = row_minima(wild, &centroids, &assign_cfg);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut dists: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut radii = vec![0.0f64; k];
        for (i, (&c, &dd)) in assign.iter().zip(&d2).enumerate() {
            let r = dd.sqrt();
            members[c].push(i as u32);
            dists[c].push(r);
            // `f64::max` ignores a NaN distance (NaN members never beat
            // a finite threshold anyway — see the module docs).
            radii[c] = radii[c].max(r);
        }

        let cells: Vec<Cell> = members
            .into_iter()
            .zip(dists)
            .map(|(m, ds)| {
                // Window order: ascending (distance to centroid, index);
                // `total_cmp` parks NaN distances at the far end.
                let mut order: Vec<u32> = (0..m.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| {
                    ds[a as usize]
                        .total_cmp(&ds[b as usize])
                        .then(m[a as usize].cmp(&m[b as usize]))
                });
                let members: Vec<u32> = order.iter().map(|&p| m[p as usize]).collect();
                let dists: Vec<f64> = order.iter().map(|&p| ds[p as usize]).collect();
                let rows: Vec<FeatureVector> =
                    members.iter().map(|&i| wild[i as usize]).collect();
                let same: Vec<bool> = (0..rows.len())
                    .map(|p| {
                        p > 0
                            && rows[p]
                                .as_slice()
                                .iter()
                                .zip(rows[p - 1].as_slice())
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    })
                    .collect();
                Cell { members, dists, rows, same }
            })
            .collect();

        let cent_norms: Vec<f64> = centroids.iter().map(norm).collect();
        let mut norm_order: Vec<u32> = (0..k as u32).collect();
        norm_order.sort_unstable_by(|&a, &b| {
            cent_norms[a as usize].total_cmp(&cent_norms[b as usize]).then(a.cmp(&b))
        });
        let mut member_prefix = vec![0u64; k + 1];
        let mut rad_before = vec![f64::NEG_INFINITY; k + 1];
        let mut rad_after = vec![f64::NEG_INFINITY; k + 1];
        for i in 0..k {
            let c = norm_order[i] as usize;
            member_prefix[i + 1] = member_prefix[i] + cells[c].members.len() as u64;
            rad_before[i + 1] = rad_before[i].max(radii[c]);
        }
        for i in (0..k).rev() {
            rad_after[i] = rad_after[i + 1].max(radii[norm_order[i] as usize]);
        }
        WildIndex {
            n,
            cells,
            centroids,
            cent_norms,
            radii,
            norm_order,
            member_prefix,
            rad_before,
            rad_after,
        }
    }

    /// Rows in the indexed pool.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: an index exists only for a non-empty pool.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of partition cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The k-best `(d², index)` list of one query row — same contract as
    /// the plain/pruned scans in `search.rs`, byte-identical output.
    ///
    /// The [`PROBES`] cells nearest the query are scanned unconditionally
    /// first (no bound can fire while the k-best list is empty, so spend
    /// that forced work where the threshold tightens fastest); the
    /// remaining cells sweep outward in norm order through the skip
    /// chain described in the module docs.
    pub(crate) fn scan_row<P: Probe>(
        &self,
        sec: &FeatureVector,
        k_best: usize,
        used: Option<&[bool]>,
        probe: &mut P,
    ) -> Vec<(f64, usize)> {
        let sq = norm(sec);
        let k = self.cells.len();
        let p = PROBES.min(k);

        // Phase one — probing. Walk outward from the query's position
        // in the norm-sorted cell order and gather the 8p nearest-in-norm
        // non-empty cells, compute their *exact* centroid distances, and
        // scan them nearest-centroid-first: the first cell scanned is
        // then the best available guess at the query's true home cell,
        // so the k-best threshold starts as tight as one cell can make
        // it. The first p cells scan unconditionally (no bound can fire
        // while the k-best list is short); the rest of the batch reuses
        // its already-paid-for centroid distance as the cell-level bound
        // `d(q, x) ≥ d(q, c) − r`.
        let start = self.norm_order.partition_point(|&c| self.cent_norms[c as usize] < sq);
        let (mut lo, mut hi) = (start, start);
        let mut list: Vec<(f64, usize)> = Vec::with_capacity(k_best);
        let mut cached_tau = f64::NAN;
        let mut t = f64::INFINITY;

        let batch_target = (p * 8).min(k);
        let mut batch: Vec<(f64, u32)> = Vec::with_capacity(batch_target);
        while batch.len() < batch_target && (lo > 0 || hi < k) {
            let left = (lo > 0)
                .then(|| (sq - self.cent_norms[self.norm_order[lo - 1] as usize]).abs());
            let right = (hi < k)
                .then(|| (self.cent_norms[self.norm_order[hi] as usize] - sq).abs());
            let take_left = match (left, right) {
                (None, None) => unreachable!("loop guard"),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(r)) => l <= r,
            };
            let c = if take_left {
                lo -= 1;
                self.norm_order[lo] as usize
            } else {
                hi += 1;
                self.norm_order[hi - 1] as usize
            };
            if self.cells[c].members.is_empty() {
                continue;
            }
            let dd = early_exit_d2(sec, &self.centroids[c], f64::INFINITY)
                .expect("no early exit against an infinite bar");
            batch.push((dd.sqrt(), c as u32));
        }
        batch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (i, &(dq, c)) in batch.iter().enumerate() {
            let cell = &self.cells[c as usize];
            if i >= p {
                // d(q, c) is already exact — apply the cell-level bound
                // directly (tighter than layer 2's norm gap).
                let tau = threshold(&list, k_best);
                if tau.to_bits() != cached_tau.to_bits() {
                    cached_tau = tau;
                    t = if tau < f64::INFINITY {
                        (tau / PRUNE_SLACK).sqrt() * BOUND_CUSHION
                    } else {
                        f64::INFINITY
                    };
                }
                if dq - self.radii[c as usize] > t {
                    probe.cells_skipped(cell.members.len() as u64);
                    continue;
                }
            }
            cell.scan(sec, dq, k_best, used, &mut list, probe);
        }

        // Phase two — the remaining walk through the skip chain. `t` is
        // the distance-space threshold sqrt(tau / PRUNE_SLACK),
        // cushioned; recomputed only when tau moves (bitwise compare —
        // NaN-safe).
        while lo > 0 || hi < k {
            let tau = threshold(&list, k_best);
            if tau.to_bits() != cached_tau.to_bits() {
                cached_tau = tau;
                t = if tau < f64::INFINITY {
                    (tau / PRUNE_SLACK).sqrt() * BOUND_CUSHION
                } else {
                    f64::INFINITY
                };
            }
            // Layer 1, bulk retirement: walking outward, |‖q‖ − ‖c‖|
            // only grows, so once the closest remaining cell on a side
            // cannot reach the threshold even with that side's largest
            // radius, every cell left on the side fails layer 2 at once.
            // (False on a NaN gap or an infinite t, like the per-cell
            // test.)
            if lo > 0
                && (sq - self.cent_norms[self.norm_order[lo - 1] as usize]) - self.rad_before[lo]
                    > t
            {
                probe.cells_skipped(self.member_prefix[lo]);
                lo = 0;
                continue;
            }
            if hi < k
                && (self.cent_norms[self.norm_order[hi] as usize] - sq) - self.rad_after[hi] > t
            {
                probe.cells_skipped(self.member_prefix[k] - self.member_prefix[hi]);
                hi = k;
                continue;
            }
            let left = (lo > 0)
                .then(|| (sq - self.cent_norms[self.norm_order[lo - 1] as usize]).abs());
            let right = (hi < k)
                .then(|| (self.cent_norms[self.norm_order[hi] as usize] - sq).abs());
            let take_left = match (left, right) {
                (None, None) => unreachable!("loop guard"),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(r)) => l <= r,
            };
            let c = if take_left {
                lo -= 1;
                self.norm_order[lo] as usize
            } else {
                hi += 1;
                self.norm_order[hi - 1] as usize
            };
            let cell = &self.cells[c];
            if cell.members.is_empty() {
                continue;
            }
            // Layer 2: norm gap. |‖q‖ − ‖c‖| − r > t retires the cell
            // for one subtract (false on NaN or an infinite t).
            let gap = (sq - self.cent_norms[c]).abs() - self.radii[c];
            if gap > t {
                probe.cells_skipped(cell.members.len() as u64);
                continue;
            }
            // Layer 3: early-exiting centroid distance against the
            // d²-space bar (r + t)² — crossing it mid-sum already proves
            // every member out of reach.
            let bar = (self.radii[c] + t) * (self.radii[c] + t) * BOUND_CUSHION;
            match early_exit_d2(sec, &self.centroids[c], bar) {
                None => probe.cells_skipped(cell.members.len() as u64),
                Some(dd) => cell.scan(sec, dd.sqrt(), k_best, used, &mut list, probe),
            }
        }
        list
    }
}

impl Cell {
    /// Window scan of one cell (skip-chain layers 4–5). Starting from
    /// the query's position in the member ordering (ascending distance
    /// to centroid), expand outward taking the nearer side first; once a
    /// side's triangle gap `|d(q,c) − d(x,c)|` alone beats the
    /// threshold, every member further out on that side beats it too
    /// (the gap grows monotonically), so the whole side retires at once.
    /// Survivors are evaluated exactly, once per duplicate run.
    ///
    /// Retirement fires only on a strict finite comparison, so a NaN
    /// query (NaN gaps) degrades to evaluating everything, and NaN
    /// members are only ever retired when the threshold is finite — a
    /// regime where `push_candidate` rejects NaN distances anyway.
    fn scan<P: Probe>(
        &self,
        sec: &FeatureVector,
        dq: f64,
        k_best: usize,
        used: Option<&[bool]>,
        list: &mut Vec<(f64, usize)>,
        probe: &mut P,
    ) {
        let len = self.members.len();
        let start = self.dists.partition_point(|&r| r < dq);
        let (mut lo, mut hi) = (start, start);
        // Per-flank duplicate-run memo. Each flank visits consecutive
        // positions, so `same[pos]` (`same[pos + 1]` descending) says
        // whether the candidate is bitwise-identical to the flank's
        // previous row: if that row evaluated to `d2`, this one *is*
        // `d2`; if it early-exited, its d² beat a past threshold and
        // thresholds only shrink. Either way the kernel is paid once
        // per duplicate run.
        let (mut lo_run, mut hi_run): (Option<DupRun>, Option<DupRun>) = (None, None);
        loop {
            // The flank candidates for this iteration are known before
            // their bounds are checked — start pulling their rows in.
            prefetch_row(&self.rows, lo.wrapping_sub(1));
            prefetch_row(&self.rows, hi);
            let tau = threshold(list, k_best);
            let left = (lo > 0).then(|| dq - self.dists[lo - 1]);
            let right = (hi < len).then(|| self.dists[hi] - dq);
            let (pos, gap) = match (left, right) {
                (None, None) => break,
                (Some(lg), None) => (lo - 1, lg),
                (None, Some(rg)) => (hi, rg),
                (Some(lg), Some(rg)) if lg <= rg => (lo - 1, lg),
                (Some(_), Some(rg)) => (hi, rg),
            };
            // The chosen gap is the smaller of the two sides, so when it
            // beats the bar both remaining flanks retire together.
            if gap > 0.0 && gap * gap * PRUNE_SLACK > tau {
                probe.cells_skipped((lo + (len - hi)) as u64);
                break;
            }
            let descending = pos < lo;
            let run = if descending {
                lo -= 1;
                // Chain bit between `pos` and the flank's previous
                // position `pos + 1` (out of range on the first visit of
                // a full-left window: no previous visit, no reuse).
                if !self.same.get(pos + 1).copied().unwrap_or(false) {
                    lo_run = None;
                }
                &mut lo_run
            } else {
                hi += 1;
                if !self.same[pos] {
                    hi_run = None;
                }
                &mut hi_run
            };
            let idx = self.members[pos] as usize;
            if used.is_some_and(|u| u[idx]) {
                probe.masked(1);
                continue;
            }
            probe.evaluated();
            match *run {
                Some(DupRun::D2(d2)) => push_candidate(list, k_best, d2, idx),
                Some(DupRun::Exited) => probe.early_exited(),
                None => match early_exit_d2(sec, &self.rows[pos], tau) {
                    Some(d2) => {
                        push_candidate(list, k_best, d2, idx);
                        *run = Some(DupRun::D2(d2));
                    }
                    None => {
                        probe.early_exited();
                        *run = Some(DupRun::Exited);
                    }
                },
            }
        }
    }
}

/// Hints the first two cache lines of `rows[pos]` (the stretch an
/// early-exiting evaluation actually touches) into L1 ahead of use. The
/// window walk knows its next candidates on both flanks one iteration
/// early, which is enough lead time to hide part of the miss latency on
/// a pool too large for cache. Out-of-range `pos` is ignored; on
/// non-x86_64 targets this is a no-op. `_mm_prefetch` is a pure
/// performance hint with no memory-safety effect (the pointer is
/// derived from an in-bounds element).
#[inline(always)]
fn prefetch_row(rows: &[FeatureVector], pos: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = rows.get(pos) {
        let p = r.as_slice().as_ptr().cast::<i8>();
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(p, _MM_HINT_T0);
            _mm_prefetch(p.add(64), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (rows, pos);
    }
}

/// Resolves the `cells` knob: 0 = auto (`√N`), clamped to
/// `[1, min(N, 4096)]` so tiny pools degenerate gracefully and huge
/// pools keep the per-query cell sweep cheap.
fn effective_cells(cells: usize, n: usize) -> usize {
    let k = if cells == 0 { (n as f64).sqrt().round() as usize } else { cells };
    k.clamp(1, n.min(4096))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::NoProbe;
    use patchdb_features::squared_euclidean;
    use patchdb_rt::rng::Xoshiro256pp;

    fn rand_pool(seed: u64, count: usize) -> Vec<FeatureVector> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut v = FeatureVector::zero();
                for x in v.as_mut_slice().iter_mut().take(6) {
                    *x = rng.gen_range(-5.0..5.0);
                }
                v
            })
            .collect()
    }

    fn plain_k_best(q: &FeatureVector, pool: &[FeatureVector], k: usize) -> Vec<(f64, usize)> {
        let mut list = Vec::with_capacity(k);
        for (n, w) in pool.iter().enumerate() {
            push_candidate(&mut list, k, squared_euclidean(q, w), n);
        }
        list
    }

    #[test]
    fn every_row_lands_in_exactly_one_cell() {
        let pool = rand_pool(5, 233);
        let ix = WildIndex::build(&pool, &NlsConfig::serial().index(IndexMode::Partitioned));
        let mut seen: Vec<u32> = ix.cells.iter().flat_map(|c| c.members.iter().copied()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..pool.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_scan_matches_plain_k_best_bitwise() {
        let pool = rand_pool(6, 180);
        let queries = rand_pool(7, 12);
        for cells in [0usize, 1, 3, 64] {
            let cfg = NlsConfig { index: IndexMode::Partitioned, cells, ..NlsConfig::serial() };
            let ix = WildIndex::build(&pool, &cfg);
            for q in &queries {
                for k in [1usize, 4, 9] {
                    let want = plain_k_best(q, &pool, k);
                    let got = ix.scan_row(q, k, None, &mut NoProbe);
                    assert_eq!(got.len(), want.len());
                    for (a, b) in got.iter().zip(&want) {
                        assert_eq!(a.1, b.1, "cells {cells} k {k}");
                        assert_eq!(a.0.to_bits(), b.0.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn masked_rows_never_surface() {
        let pool = rand_pool(8, 96);
        let ix = WildIndex::build(&pool, &NlsConfig::serial().index(IndexMode::Partitioned));
        let used: Vec<bool> = (0..pool.len()).map(|i| i % 3 == 0).collect();
        let q = &rand_pool(9, 1)[0];
        let got = ix.scan_row(q, 5, Some(&used), &mut NoProbe);
        assert!(got.iter().all(|&(_, n)| !used[n]));
        // Equals the plain masked scan.
        let mut want = Vec::new();
        for (n, w) in pool.iter().enumerate() {
            if !used[n] {
                push_candidate(&mut want, 5, squared_euclidean(q, w), n);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn side_tables_are_consistent_with_the_pool() {
        let pool = rand_pool(12, 160);
        let cfg = NlsConfig { index: IndexMode::Partitioned, cells: 5, ..NlsConfig::serial() };
        let ix = WildIndex::build(&pool, &cfg);
        assert_eq!(ix.cells.len(), ix.centroids.len());
        assert_eq!(ix.cells.len(), ix.cent_norms.len());
        assert_eq!(ix.cells.len(), ix.radii.len());
        for (c, cell) in ix.cells.iter().enumerate() {
            assert_eq!(cell.members.len(), cell.dists.len());
            assert_eq!(cell.members.len(), cell.rows.len());
            // Window order: member distances ascend.
            for w in cell.dists.windows(2) {
                assert!(w[0] <= w[1], "dists not sorted: {} > {}", w[0], w[1]);
            }
            for (i, (&m, row)) in cell.members.iter().zip(&cell.rows).enumerate() {
                assert_eq!(row.as_slice(), pool[m as usize].as_slice());
                // The stored distance table holds the exact fl values the
                // window bound reasons about.
                let want_d = squared_euclidean(row, &ix.centroids[c]).sqrt();
                assert_eq!(cell.dists[i].to_bits(), want_d.to_bits());
                assert!(cell.dists[i] <= ix.radii[c], "member distance exceeds radius");
            }
            assert_eq!(ix.cent_norms[c].to_bits(), norm(&ix.centroids[c]).to_bits());
        }
        // The norm order is a permutation sorted by centroid norm.
        let mut ids: Vec<u32> = ix.norm_order.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..ix.cells.len() as u32).collect::<Vec<_>>());
        for w in ix.norm_order.windows(2) {
            assert!(ix.cent_norms[w[0] as usize] <= ix.cent_norms[w[1] as usize]);
        }
        // Bulk-retirement tables: member prefix sums and running max
        // radii over the norm order, in both directions.
        let k = ix.cells.len();
        assert_eq!(ix.member_prefix.len(), k + 1);
        assert_eq!(ix.rad_before.len(), k + 1);
        assert_eq!(ix.rad_after.len(), k + 1);
        assert_eq!(ix.member_prefix[k], pool.len() as u64);
        for i in 0..k {
            let c = ix.norm_order[i] as usize;
            assert_eq!(
                ix.member_prefix[i + 1] - ix.member_prefix[i],
                ix.cells[c].members.len() as u64
            );
            assert!(ix.rad_before[i + 1] >= ix.radii[c] && ix.rad_before[i + 1] >= ix.rad_before[i]);
            assert!(ix.rad_after[i] >= ix.radii[c] && ix.rad_after[i] >= ix.rad_after[i + 1]);
        }
    }

    #[test]
    fn effective_cells_clamps() {
        assert_eq!(effective_cells(0, 1), 1);
        assert_eq!(effective_cells(0, 10_000), 100);
        assert_eq!(effective_cells(64, 10), 10);
        assert_eq!(effective_cells(9_999_999, 1_000_000), 4096);
    }
}
