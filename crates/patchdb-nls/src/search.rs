//! Algorithm 1: the nearest link search.
//!
//! Given M verified security patches and N wild patches in the weighted
//! feature space, find for each security patch one *distinct* wild patch
//! ("link") such that the total link distance is (greedily) minimized.
//! Unlike k-NN, each wild patch may be claimed at most once — the paper is
//! explicit about this distinction (Section III-B-3).
//!
//! ## How the fast path stays byte-identical to Algorithm 1
//!
//! The production entry point ([`nearest_link_search`]) generates each
//! row's candidates through a [`WildIndex`] partition of the pool, fans
//! the `O(M·N)` init pass out across threads, and prunes distance work,
//! yet returns exactly what the faithful serial loop
//! ([`nearest_link_search_serial`]) returns:
//!
//! * **Squared distances.** All comparisons happen on squared Euclidean
//!   distances — the exact sum the hardware computes *before* the
//!   rounding `sqrt`. `sqrt` is monotone, so the argmin is unchanged and
//!   the comparison is strictly more precise.
//! * **Per-row minima are order-independent.** Each security row's
//!   k-best candidates are the k smallest `(d², wild index)` pairs under
//!   lexicographic order — a well-defined set regardless of scan order or
//!   thread count. Rows fan out across threads with
//!   `patchdb_rt::par::map_chunked`, which reassembles results in row
//!   order.
//! * **Pruning only skips provable losers.** The index's cell and window
//!   bounds and the early-exit partial sums only discard candidates whose
//!   squared distance provably exceeds the current k-th best, so the
//!   surviving k-best set is identical. Bounds derived from rounded
//!   norms and distances keep a tiny relative slack ([`PRUNE_SLACK`]);
//!   early-exit partial sums are exact prefixes of the final sum and
//!   need no slack.
//! * **Ties break on the smaller index, everywhere.** This reproduces
//!   the serial first-hit-wins scan and the `min_by` "first minimum"
//!   rule, and makes the result independent of candidate visit order.

use patchdb_features::{squared_euclidean, FeatureVector};
use patchdb_rt::{obs, par};

use crate::index::WildIndex;

/// Relative slack applied to the `(‖s‖−‖w‖)²` norm lower bound and the
/// `(d(q,centroid)−radius)²` cell lower bound before pruning on them:
/// candidates are skipped only when the bound *with slack* still
/// exceeds the current k-th best squared distance. The norms/centroid
/// distances are precomputed with a few ulps of rounding; the slack
/// (many orders of magnitude larger than that rounding, many orders
/// smaller than any real distance gap) guarantees pruning never drops a
/// candidate the exhaustive scan would have kept.
pub(crate) const PRUNE_SLACK: f64 = 1.0 - 1e-9;

/// Dimensions accumulated between early-exit threshold checks.
pub(crate) const EARLY_EXIT_STRIDE: usize = 15;

/// How the nearest link search runs; output is identical for every
/// configuration, only wall time changes.
#[derive(Debug, Clone)]
pub struct NlsConfig {
    /// Worker threads for the init pass (the greedy assignment loop is
    /// inherently sequential and always runs on the caller's thread);
    /// `0` runs on one thread.
    pub threads: usize,
    /// Per-row candidate list length: collisions are resolved from this
    /// list and fall back to a masked rescan only when all entries are
    /// claimed. Clamped to at least 1.
    pub k_best: usize,
    /// [`WildIndex`] cell count; `0` = auto (`√N`, clamped to
    /// `[1, min(N, 4096)]`).
    pub cells: usize,
}

impl NlsConfig {
    /// The production configuration: auto-sized cells, 8-entry candidate
    /// lists, and the worker count from `PATCHDB_THREADS` / available
    /// parallelism (capped at 16).
    pub fn auto() -> NlsConfig {
        NlsConfig { threads: par::configured_threads(16), k_best: 8, cells: 0 }
    }
}

impl Default for NlsConfig {
    fn default() -> NlsConfig {
        NlsConfig::auto()
    }
}

/// Runs nearest link search matrix-free with the production
/// configuration ([`NlsConfig::auto`]). See [`nearest_link_search_with`].
///
/// Returns `c`, where `c[m]` is the index of the wild patch linked to
/// security patch `m`. Every returned index is distinct.
///
/// # Panics
///
/// Panics when `wild.len() < security.len()` (the assignment needs at
/// least M distinct columns) or when `security` is empty.
pub fn nearest_link_search(security: &[FeatureVector], wild: &[FeatureVector]) -> Vec<usize> {
    nearest_link_search_with(security, wild, &NlsConfig::auto())
}

/// Runs nearest link search matrix-free under an explicit configuration.
///
/// Faithful to Algorithm 1: per-row minima `U`/`V` are initialized in one
/// (parallel, indexed) pass, then M iterations pick the global minimum
/// row, resolving column collisions from the row's k-best candidate list
/// with a masked rescan as the fallback (`l_{c_j} ← inf`). Worst-case
/// `O(M·N + M·C·N)` where `C` is the number of collisions that exhaust
/// their candidate list, matching the paper's `O(MN²)` bound without
/// materializing the `M×N` matrix. Output bytes are independent of
/// `config` — see the module docs for the equivalence argument.
///
/// # Panics
///
/// Panics when `wild.len() < security.len()` or `security` is empty.
pub fn nearest_link_search_with(
    security: &[FeatureVector],
    wild: &[FeatureVector],
    config: &NlsConfig,
) -> Vec<usize> {
    nearest_link_search_indexed(security, wild, config, None, None)
}

/// [`nearest_link_search_with`] against a prebuilt [`WildIndex`] and/or a
/// dead-row mask.
///
/// * `index` — a [`WildIndex`] built over this exact `wild` slice (the
///   augmentation driver builds one per pool and reuses it across rounds
///   while the learned weights stay identical). `None` builds one
///   internally from `config`.
/// * `dead` — rows excluded from the search entirely (`dead[n] == true`
///   never links). The returned indices still address the full `wild`
///   slice. Masking dead rows is byte-equivalent to physically
///   compacting the pool: distances are unchanged and the
///   `(d², index)` tie order is monotone under compaction.
///
/// # Panics
///
/// Panics when `security` is empty, when the non-dead row count is
/// smaller than `security.len()`, or when `index`/`dead` don't match
/// `wild` in length.
pub fn nearest_link_search_indexed(
    security: &[FeatureVector],
    wild: &[FeatureVector],
    config: &NlsConfig,
    index: Option<&WildIndex>,
    dead: Option<&[bool]>,
) -> Vec<usize> {
    assert!(!security.is_empty(), "no security patches to link from");
    let alive = match dead {
        Some(d) => {
            assert_eq!(d.len(), wild.len(), "dead mask length mismatch");
            d.iter().filter(|&&x| !x).count()
        }
        None => wild.len(),
    };
    assert!(
        alive >= security.len(),
        "wild pool ({} live rows) smaller than security set ({})",
        alive,
        security.len()
    );
    let built;
    let ws = {
        let _s = obs::span("nls.prep");
        let index = match index {
            Some(ix) => ix,
            None => {
                built = WildIndex::build(wild, config);
                &built
            }
        };
        assert_eq!(index.len(), wild.len(), "index was built over a different pool");
        Workspace::new(security, index, config, dead)
    };
    let lists = {
        let _s = obs::span("nls.init");
        init_pass(security, ws.threads, &ws)
    };
    let _s = obs::span("nls.assign");
    ws.assign(lists)
}

/// The init pass alone (lines 1–3 of Algorithm 1) against a prebuilt
/// [`WildIndex`]: per-row minimum squared distance `U` and argmin
/// column `V`, under `config`'s thread count and list length.
///
/// Exposed for the `perf_nls_scale` bench, which times the index build
/// and this query sweep separately (the augmentation driver amortizes
/// one build across all rounds of a pool); `U` holds squared distances.
///
/// # Panics
///
/// Panics when `security` is empty.
pub fn row_minima(
    security: &[FeatureVector],
    index: &WildIndex,
    config: &NlsConfig,
) -> (Vec<f64>, Vec<usize>) {
    assert!(!security.is_empty(), "empty NLS instance");
    let ws = Workspace::new(security, index, config, None);
    let lists = init_pass(security, ws.threads, &ws);
    lists.iter().map(|l| (l[0].0, l[0].1)).unzip()
}

/// The faithful serial Algorithm 1 loop: one full `O(M·N)` init scan, a
/// `min_by` global argmin per iteration, and full-row masked rescans on
/// collision — no threads, no pruning, no candidate lists. Comparisons
/// use squared distances (exact; see the module docs), so this is the
/// reference the parallel+pruned path is property-tested against.
///
/// # Panics
///
/// Panics when `wild.len() < security.len()` or `security` is empty.
pub fn nearest_link_search_serial(
    security: &[FeatureVector],
    wild: &[FeatureVector],
) -> Vec<usize> {
    assert!(!security.is_empty(), "no security patches to link from");
    assert!(
        wild.len() >= security.len(),
        "wild pool ({}) smaller than security set ({})",
        wild.len(),
        security.len()
    );
    let m_count = security.len();

    // Lines 1–3: per-row minimum and argmin.
    let mut u = vec![f64::INFINITY; m_count];
    let mut v = vec![0usize; m_count];
    for (m, sec) in security.iter().enumerate() {
        for (n, w) in wild.iter().enumerate() {
            let d = squared_euclidean(sec, w);
            if d < u[m] {
                u[m] = d;
                v[m] = n;
            }
        }
    }

    // Lines 5–17: greedy global assignment with lazy collision rescans.
    // Assigned rows are masked out of the argmin rather than reset to ∞:
    // identical for finite inputs (a live row always beats ∞), and it
    // keeps NaN rows assignable (∞ orders *before* NaN under total_cmp,
    // so an ∞ sentinel would win the argmin forever).
    let mut c = vec![usize::MAX; m_count];
    let mut used = vec![false; wild.len()];
    let mut assigned = vec![false; m_count];
    for _ in 0..m_count {
        // m0 ← argmin U over live rows (first minimum wins; total_cmp
        // keeps NaN inputs from panicking).
        let m0 = u
            .iter()
            .enumerate()
            .filter(|(i, _)| !assigned[*i])
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("a live row remains");
        let mut n0 = v[m0];
        if used[n0] {
            // Rescan row m0 with used columns masked (lines 10–15).
            let mut best = f64::INFINITY;
            let mut best_n = usize::MAX;
            for (n, w) in wild.iter().enumerate() {
                if used[n] {
                    continue;
                }
                let d = squared_euclidean(&security[m0], w);
                if d < best {
                    best = d;
                    best_n = n;
                }
            }
            n0 = best_n;
        }
        c[m0] = n0;
        used[n0] = true;
        assigned[m0] = true;
    }
    c
}

/// A monomorphized observation hook for the distance scans. The scans
/// are generic over this trait so the production path with tracing off
/// runs [`NoProbe`], whose methods compile to nothing — the disabled
/// machine code is the uninstrumented loop, which is what keeps the
/// obs-off overhead of the init pass near zero (tracked in
/// BENCH_nls.json).
/// Every candidate column of a scan is accounted to exactly one of
/// `evaluated` / `pruned` / `masked` / `cells_skipped` — the per-round
/// counter identity `Σ = scans × pool_rows` that `tests/trace.rs` pins
/// rests on this. (`early_exited` annotates `evaluated` candidates and
/// sits outside the partition.)
pub(crate) trait Probe {
    /// A distance computation was started for a candidate.
    fn evaluated(&mut self);
    /// A started distance computation was abandoned by the partial-sum
    /// early exit.
    fn early_exited(&mut self);
    /// `n` candidates were skipped wholesale by the norm lower bound (the
    /// k-means assignment kernel only).
    fn pruned(&mut self, n: u64);
    /// `n` candidates were skipped because their column is claimed (or
    /// dead in a masked search).
    fn masked(&mut self, n: u64);
    /// `rows` candidates were skipped wholesale by the cell
    /// centroid-distance bound.
    fn cells_skipped(&mut self, rows: u64);
}

/// The tracing-off probe: all no-ops.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn evaluated(&mut self) {}
    #[inline(always)]
    fn early_exited(&mut self) {}
    #[inline(always)]
    fn pruned(&mut self, _n: u64) {}
    #[inline(always)]
    fn masked(&mut self, _n: u64) {}
    #[inline(always)]
    fn cells_skipped(&mut self, _rows: u64) {}
}

/// The tracing-on probe: plain local tallies, merged row-by-row in input
/// order (mirroring `fold_chunked`'s spawn-order combine) and flushed to
/// the `obs` registry once per pass.
#[derive(Default, Clone, Copy)]
struct ScanStats {
    evaluated: u64,
    early_exited: u64,
    pruned_norm: u64,
    masked: u64,
    cells_skipped: u64,
}

impl Probe for ScanStats {
    #[inline]
    fn evaluated(&mut self) {
        self.evaluated += 1;
    }
    #[inline]
    fn early_exited(&mut self) {
        self.early_exited += 1;
    }
    #[inline]
    fn pruned(&mut self, n: u64) {
        self.pruned_norm += n;
    }
    #[inline]
    fn masked(&mut self, n: u64) {
        self.masked += n;
    }
    #[inline]
    fn cells_skipped(&mut self, rows: u64) {
        self.cells_skipped += rows;
    }
}

impl ScanStats {
    fn merge(&mut self, other: ScanStats) {
        self.evaluated += other.evaluated;
        self.early_exited += other.early_exited;
        self.pruned_norm += other.pruned_norm;
        self.masked += other.masked;
        self.cells_skipped += other.cells_skipped;
    }

    /// Adds the tallies to the global `nls.*` counters.
    fn flush(&self) {
        obs::counter_add("nls.dist_evaluated", self.evaluated);
        obs::counter_add("nls.dist_early_exit", self.early_exited);
        obs::counter_add("nls.pruned_norm", self.pruned_norm);
        obs::counter_add("nls.masked_skipped", self.masked);
        obs::counter_add("nls.cells_skipped", self.cells_skipped);
    }
}

/// One row scan of an init pass: the k-best `(d², index)` list of one
/// query row, with every candidate accounted to `probe`. Implemented by
/// the search's [`Workspace`] (through the [`WildIndex`]) and by the
/// k-means assignment kernel inside [`WildIndex::build`].
pub(crate) trait RowScan: Sync {
    /// The query's k-best list, ascending by `(d², index)`.
    fn scan_row<P: Probe>(&self, query: &FeatureVector, probe: &mut P) -> Vec<(f64, usize)>;
}

/// Per-row k-best candidate lists of `rows` under `scan`, rows fanned
/// across `threads`.
///
/// With tracing on, each row also returns its scan tallies; the rows
/// come back in input order (`map_chunked` reassembles them that way),
/// so the per-worker shards are merged in spawn order —
/// deterministically — before one flush into the registry.
pub(crate) fn init_pass<S: RowScan>(
    rows: &[FeatureVector],
    threads: usize,
    scan: &S,
) -> Vec<Vec<(f64, usize)>> {
    if !obs::enabled() {
        return par::map_chunked(rows, threads, |q| scan.scan_row(q, &mut NoProbe));
    }
    let scanned: Vec<(Vec<(f64, usize)>, ScanStats)> = par::map_chunked(rows, threads, |q| {
        let mut stats = ScanStats::default();
        let list = scan.scan_row(q, &mut stats);
        (list, stats)
    });
    let mut total = ScanStats::default();
    let mut per_row = obs::Hist::default();
    let mut lists = Vec::with_capacity(scanned.len());
    for (list, stats) in scanned {
        total.merge(stats);
        per_row.record(stats.evaluated);
        lists.push(list);
    }
    total.flush();
    obs::counter_add("nls.rows", lists.len() as u64);
    obs::hist_merge("nls.row_dist_evaluated", &per_row);
    lists
}

/// Shared state of one search invocation: the security rows, the pool
/// index, and the dead-row mask.
struct Workspace<'a> {
    security: &'a [FeatureVector],
    index: &'a WildIndex,
    k_best: usize,
    threads: usize,
    /// Rows excluded from the search entirely (masked searches).
    dead: Option<&'a [bool]>,
}

impl RowScan for Workspace<'_> {
    fn scan_row<P: Probe>(&self, query: &FeatureVector, probe: &mut P) -> Vec<(f64, usize)> {
        self.index.scan_row(query, self.k_best, self.dead, probe)
    }
}

impl<'a> Workspace<'a> {
    fn new(
        security: &'a [FeatureVector],
        index: &'a WildIndex,
        config: &NlsConfig,
        dead: Option<&'a [bool]>,
    ) -> Self {
        Workspace {
            security,
            index,
            k_best: config.k_best.max(1),
            threads: config.threads.max(1),
            dead,
        }
    }

    /// Masked full rescan of row `m` (Algorithm 1 lines 10–15): the
    /// minimum `(d², index)` over unclaimed columns.
    fn rescan<P: Probe>(&self, m: usize, used: &[bool], probe: &mut P) -> usize {
        let saved = self.index.scan_row(&self.security[m], self.k_best, Some(used), probe);
        saved.first().map(|&(_, n)| n).expect("rescan with no unclaimed columns")
    }

    /// Lines 5–17: the greedy global assignment, sequential by design.
    fn assign(&self, lists: Vec<Vec<(f64, usize)>>) -> Vec<usize> {
        let m_count = lists.len();
        // U keeps each row's *initial* minimum until the row is assigned
        // (lazy staleness, exactly as the serial loop behaves); assigned
        // rows leave the argmin via the mask, matching the serial loop.
        let u: Vec<f64> = lists.iter().map(|l| l[0].0).collect();
        let mut cursor = vec![0usize; m_count];
        let mut c = vec![usize::MAX; m_count];
        // Dead rows start out "claimed": the rescans skip them exactly
        // like columns claimed earlier in the loop.
        let mut used = match self.dead {
            Some(d) => d.to_vec(),
            None => vec![false; self.index.len()],
        };
        let mut assigned = vec![false; m_count];
        // Collision bookkeeping: local tallies (the adds are trivial next
        // to the rescans they count), flushed iff tracing is on. Rescans
        // are rare fallbacks, so counting inside them is equally cheap.
        let mut kbest_hits = 0u64;
        let mut rescans = 0u64;
        let mut rescan_stats = ScanStats::default();
        for _ in 0..m_count {
            // m0 ← argmin U over live rows, first minimum wins (NaN-safe
            // via total_cmp).
            let mut m0 = usize::MAX;
            for i in 0..m_count {
                if assigned[i] {
                    continue;
                }
                if m0 == usize::MAX || u[i].total_cmp(&u[m0]) == std::cmp::Ordering::Less {
                    m0 = i;
                }
            }
            // Claimed columns stay claimed, so the cursor only advances.
            let list = &lists[m0];
            let mut cur = cursor[m0];
            while cur < list.len() && used[list[cur].1] {
                cur += 1;
            }
            cursor[m0] = cur;
            let n0 = if cur < list.len() {
                kbest_hits += 1;
                list[cur].1
            } else {
                rescans += 1;
                self.rescan(m0, &used, &mut rescan_stats)
            };
            c[m0] = n0;
            used[n0] = true;
            assigned[m0] = true;
        }
        if obs::enabled() {
            obs::counter_add("nls.kbest_hits", kbest_hits);
            obs::counter_add("nls.rescans", rescans);
            obs::counter_add("nls.links", m_count as u64);
            rescan_stats.flush();
        }
        c
    }
}

/// `‖v‖` — used only for pruning bounds and the index's norm order,
/// never for output values.
pub(crate) fn norm(v: &FeatureVector) -> f64 {
    v.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The current pruning threshold: the k-th best squared distance once
/// the list is full, else ∞.
pub(crate) fn threshold(list: &[(f64, usize)], k: usize) -> f64 {
    if list.len() == k { list[k - 1].0 } else { f64::INFINITY }
}

/// Squared distance with early exit: accumulates in exactly the
/// [`squared_euclidean`] summation order, abandoning once the partial sum
/// strictly exceeds `tau` (squares are non-negative, so the final sum
/// could only be larger — and a candidate at exactly `tau` may still win
/// an index tie, hence the strict comparison).
pub(crate) fn early_exit_d2(a: &FeatureVector, b: &FeatureVector, tau: f64) -> Option<f64> {
    let mut acc = 0.0f64;
    let xs = a.as_slice();
    let ys = b.as_slice();
    let mut i = 0;
    while i < xs.len() {
        let end = (i + EARLY_EXIT_STRIDE).min(xs.len());
        while i < end {
            let d = xs[i] - ys[i];
            acc += d * d;
            i += 1;
        }
        if acc > tau {
            return None;
        }
    }
    Some(acc)
}

/// Inserts `(d2, idx)` into an ascending k-best list under lexicographic
/// `(d², index)` order, dropping the worst entry when over capacity.
///
/// Ordering uses `total_cmp`, which agrees with the operator comparisons
/// for every value a squared distance can take (sums of squares are
/// never `-0.0`) and additionally gives NaN a fixed place *after* every
/// finite value — so a NaN candidate sinks to the tail no matter in
/// which order the scan happened to visit it, instead of wedging at the
/// head and shadowing real neighbors.
pub(crate) fn push_candidate(list: &mut Vec<(f64, usize)>, k: usize, d2: f64, idx: usize) {
    let beats = |&(ld, li): &(f64, usize)| match d2.total_cmp(&ld) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => idx < li,
        std::cmp::Ordering::Greater => false,
    };
    if list.len() == k && !beats(&list[k - 1]) {
        return;
    }
    let pos = list.iter().position(beats).unwrap_or(list.len());
    list.insert(pos, (d2, idx));
    if list.len() > k {
        list.pop();
    }
}

/// Reference implementation over an explicit distance matrix
/// `d[m][n]` — used to cross-check the matrix-free version and by the
/// ablation benches. Feed it squared distances to compare against
/// [`nearest_link_search`] exactly (the comparison space must match).
///
/// # Panics
///
/// Panics on an empty or ragged matrix, or when there are fewer columns
/// than rows.
pub fn nearest_link_search_matrix(d: &[Vec<f64>]) -> Vec<usize> {
    let m_count = d.len();
    assert!(m_count > 0, "empty distance matrix");
    let n_count = d[0].len();
    assert!(d.iter().all(|row| row.len() == n_count), "ragged matrix");
    assert!(n_count >= m_count, "need at least M columns");

    let mut u: Vec<f64> = Vec::with_capacity(m_count);
    let mut v: Vec<usize> = Vec::with_capacity(m_count);
    for row in d {
        let (n, val) = row
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty row");
        u.push(*val);
        v.push(n);
    }

    let mut c = vec![usize::MAX; m_count];
    let mut used = vec![false; n_count];
    let mut assigned = vec![false; m_count];
    for _ in 0..m_count {
        let m0 = u
            .iter()
            .enumerate()
            .filter(|(i, _)| !assigned[*i])
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("a live row remains");
        let mut n0 = v[m0];
        if used[n0] {
            let mut best = f64::INFINITY;
            let mut best_n = usize::MAX;
            for (n, dv) in d[m0].iter().enumerate() {
                if !used[n] && *dv < best {
                    best = *dv;
                    best_n = n;
                }
            }
            n0 = best_n;
        }
        c[m0] = n0;
        used[n0] = true;
        assigned[m0] = true;
    }
    c
}

/// Total distance of a set of links — the objective Algorithm 1 greedily
/// minimizes (reported as a true Euclidean distance, not squared).
pub fn total_link_distance(
    security: &[FeatureVector],
    wild: &[FeatureVector],
    links: &[usize],
) -> f64 {
    security
        .iter()
        .zip(links)
        .map(|(s, &n)| patchdb_features::euclidean(s, &wild[n]))
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use patchdb_rt::rng::Xoshiro256pp;

    fn fv(vals: &[f64]) -> FeatureVector {
        let mut v = FeatureVector::zero();
        v.as_mut_slice()[..vals.len()].copy_from_slice(vals);
        v
    }

    #[test]
    fn simple_assignment() {
        let sec = vec![fv(&[0.0]), fv(&[10.0])];
        let wild = vec![fv(&[9.5]), fv(&[0.2]), fv(&[50.0])];
        let links = nearest_link_search(&sec, &wild);
        assert_eq!(links, vec![1, 0]);
    }

    #[test]
    fn collision_resolution_prefers_closer_link() {
        // Both security patches are nearest to wild 0; the closer one
        // (processed first, as the global minimum) claims it.
        let sec = vec![fv(&[0.0]), fv(&[0.3])];
        let wild = vec![fv(&[0.1]), fv(&[1.0])];
        let links = nearest_link_search(&sec, &wild);
        assert_eq!(links[0], 0); // distance 0.1 wins the global argmin
        assert_eq!(links[1], 1); // rescan lands on the remaining column
    }

    #[test]
    fn links_are_distinct() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let sec: Vec<FeatureVector> =
            (0..40).map(|_| fv(&[rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])).collect();
        let wild: Vec<FeatureVector> =
            (0..200).map(|_| fv(&[rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])).collect();
        let links = nearest_link_search(&sec, &wild);
        let mut sorted = links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), links.len(), "duplicate link");
    }

    #[test]
    fn matrix_free_matches_matrix_version() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let sec: Vec<FeatureVector> =
            (0..25).map(|_| fv(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen()])).collect();
        let wild: Vec<FeatureVector> =
            (0..120).map(|_| fv(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen()])).collect();
        let matrix: Vec<Vec<f64>> = sec
            .iter()
            .map(|s| wild.iter().map(|w| squared_euclidean(s, w)).collect())
            .collect();
        assert_eq!(nearest_link_search(&sec, &wild), nearest_link_search_matrix(&matrix));
    }

    #[test]
    fn all_configs_agree_with_the_serial_reference() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        // Duplicated points force exact distance ties and collisions.
        let palette: Vec<FeatureVector> =
            (0..12).map(|_| fv(&[rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)])).collect();
        let sec: Vec<FeatureVector> =
            (0..30).map(|_| palette[rng.gen_range(0..palette.len() as u64) as usize]).collect();
        let wild: Vec<FeatureVector> =
            (0..90).map(|_| palette[rng.gen_range(0..palette.len() as u64) as usize]).collect();
        let reference = nearest_link_search_serial(&sec, &wild);
        for cells in [0usize, 1, 4] {
            for threads in [1usize, 2, 8] {
                for k_best in [1usize, 2, 8] {
                    let cfg = NlsConfig { threads, k_best, cells };
                    assert_eq!(
                        nearest_link_search_with(&sec, &wild, &cfg),
                        reference,
                        "cells={cells} threads={threads} k_best={k_best}"
                    );
                }
            }
        }
    }

    /// The literal Algorithm 1 init pass (lines 1–3): first strict
    /// minimum wins.
    pub(crate) fn serial_init(
        sec: &[FeatureVector],
        wild: &[FeatureVector],
    ) -> (Vec<f64>, Vec<usize>) {
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

    #[test]
    fn row_minima_matches_serial_init() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let sec: Vec<FeatureVector> =
            (0..20).map(|_| fv(&[rng.gen_range(-3.0..3.0), rng.gen()])).collect();
        let wild: Vec<FeatureVector> =
            (0..150).map(|_| fv(&[rng.gen_range(-3.0..3.0), rng.gen()])).collect();
        let (serial_u, serial_v) = serial_init(&sec, &wild);
        for cfg in [
            NlsConfig { threads: 1, k_best: 1, cells: 0 },
            NlsConfig { threads: 4, k_best: 8, cells: 0 },
            NlsConfig { threads: 1, k_best: 2, cells: 1 },
            NlsConfig { threads: 4, k_best: 8, cells: 64 },
        ] {
            let ix = WildIndex::build(&wild, &cfg);
            let (u, v) = row_minima(&sec, &ix, &cfg);
            assert_eq!(serial_v, v, "argmin drift under {cfg:?}");
            for (a, b) in serial_u.iter().zip(&u) {
                assert_eq!(a.to_bits(), b.to_bits(), "distance drift under {cfg:?}");
            }
        }
    }

    #[test]
    fn nan_features_do_not_panic() {
        // A NaN feature must not crash the argmin (total_cmp orders NaN
        // after infinity); links stay valid and distinct.
        let mut bad = fv(&[1.0, 2.0]);
        bad.as_mut_slice()[2] = f64::NAN;
        let sec = vec![fv(&[0.0, 0.0]), bad];
        let wild = vec![fv(&[0.1, 0.0]), fv(&[5.0, 5.0]), bad];
        let links = nearest_link_search(&sec, &wild);
        assert_eq!(links.len(), 2);
        assert_ne!(links[0], links[1]);
        assert!(links.iter().all(|&n| n < wild.len()));
    }

    #[test]
    fn greedy_total_close_to_exhaustive_on_tiny_instances() {
        // For 3×5 instances, compare against the optimal assignment by
        // brute-force permutation enumeration.
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..20 {
            let sec: Vec<FeatureVector> = (0..3).map(|_| fv(&[rng.gen(), rng.gen()])).collect();
            let wild: Vec<FeatureVector> = (0..5).map(|_| fv(&[rng.gen(), rng.gen()])).collect();
            let links = nearest_link_search(&sec, &wild);
            let greedy = total_link_distance(&sec, &wild, &links);

            let mut best = f64::INFINITY;
            for a in 0..5 {
                for b in 0..5 {
                    for c in 0..5 {
                        if a != b && b != c && a != c {
                            best = best.min(total_link_distance(&sec, &wild, &[a, b, c]));
                        }
                    }
                }
            }
            // The paper uses an *approximately* optimal greedy; allow 50%
            // slack but require the same order of magnitude.
            assert!(greedy <= best * 1.5 + 1e-9, "greedy {greedy} vs optimal {best}");
        }
    }

    #[test]
    #[should_panic(expected = "wild pool")]
    fn rejects_small_pool() {
        nearest_link_search(&[fv(&[0.0]), fv(&[1.0])], &[fv(&[0.0])]);
    }

    #[test]
    fn exact_pool_size_assigns_everything() {
        let sec = vec![fv(&[0.0]), fv(&[5.0]), fv(&[9.0])];
        let wild = vec![fv(&[8.8]), fv(&[0.1]), fv(&[5.2])];
        let links = nearest_link_search(&sec, &wild);
        let mut all = links.clone();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn push_candidate_keeps_lexicographic_k_best() {
        let mut list = Vec::new();
        push_candidate(&mut list, 2, 4.0, 7);
        push_candidate(&mut list, 2, 1.0, 9);
        push_candidate(&mut list, 2, 4.0, 3); // ties on d², smaller index wins
        assert_eq!(list, vec![(1.0, 9), (4.0, 3)]);
        push_candidate(&mut list, 2, 4.0, 5); // worse than both — dropped
        assert_eq!(list, vec![(1.0, 9), (4.0, 3)]);
        push_candidate(&mut list, 2, 0.5, 1);
        assert_eq!(list, vec![(0.5, 1), (1.0, 9)]);
    }

    #[test]
    fn early_exit_matches_full_sum_when_completed() {
        let a = fv(&[1.0, -2.0, 3.5, 0.25]);
        let b = fv(&[-0.5, 2.0, 3.0, 4.0]);
        let full = squared_euclidean(&a, &b);
        let computed = early_exit_d2(&a, &b, f64::INFINITY).unwrap();
        assert_eq!(full.to_bits(), computed.to_bits());
        // A threshold below the final value abandons the candidate.
        assert_eq!(early_exit_d2(&a, &b, full * 0.5), None);
        // A threshold exactly at the final value must NOT abandon it (the
        // candidate may still win an index tie).
        assert_eq!(early_exit_d2(&a, &b, full), Some(full));
    }
}
