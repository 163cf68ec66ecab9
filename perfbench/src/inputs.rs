//! Workload inputs, all derived from the run's `--seed`.

use std::collections::{BTreeMap, HashSet};

use patchdb_corpus::{CorpusConfig, GitHubForge};
use patchdb_rt::par;
use patchdb_rt::rng::Xoshiro256pp;

/// Corpus seed of the default-scale dataset: the one every serve
/// workload queries, and the corpus the `build` workload rebuilds. Fixed,
/// so only the traffic (and the build's pipeline seed) varies with
/// `--seed`.
pub const DATASET_SEED: u64 = 42;

/// The forge the traffic is drawn from, with about `commits` commits:
/// seeded apart from the dataset's forge, so no request replays a
/// commit the index was trained on.
pub fn workload_forge(seed: u64, commits: usize) -> GitHubForge {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7e57_10ad_0b5e_55ed;
    if s == DATASET_SEED {
        s += 1;
    }
    GitHubForge::generate(&CorpusConfig::with_total_commits(commits, s))
}

/// Up to `limit` distinct unified-diff bodies, in forge order, rendered
/// on `threads` threads.
pub fn distinct_diffs(forge: &GitHubForge, limit: usize, threads: usize) -> Vec<String> {
    let commits: Vec<_> = forge.all_commits().map(|(_, c)| c).collect();
    let diffs = par::map_chunked(&commits, threads, |c| {
        forge.materialize(c).patch.to_unified_string()
    });
    let mut seen = HashSet::new();
    diffs
        .into_iter()
        .filter(|d| seen.insert(d.clone()))
        .take(limit)
        .collect()
}

/// C files in the pool a scan list is stratified from.
const SCAN_POOL: usize = 600;

/// `count` distinct C files to scan, drawn from a pool that takes a
/// third from each of three sources: the before and after versions of
/// fix commits, and files touched by unrelated (non-security) commits.
///
/// Scan cost follows a file's token count closely and varies about
/// sixfold across the pool, so a plain random draw of a dozen files
/// would make each seed's total work differ by more than the run-to-run
/// noise. The list is stratified instead: it takes the files at the
/// `(i + ½) / count` token-count quantiles of the seed's pool, so every
/// seed scans different files with the same length profile, in an
/// order shuffled by `seed`.
pub fn scan_files(forge: &GitHubForge, seed: u64, count: usize) -> Vec<String> {
    let c_files = |files: std::collections::HashMap<String, String>| -> Vec<String> {
        // Path order, so the pool does not depend on hash-map order.
        let sorted: BTreeMap<String, String> = files.into_iter().collect();
        sorted
            .into_iter()
            .filter(|(p, _)| p.ends_with(".c"))
            .map(|(_, t)| t)
            .collect()
    };
    let mut sources: [Vec<String>; 3] = Default::default();
    for (_, commit) in forge.all_commits() {
        let change = forge.materialize(commit);
        if commit.kind.is_security() {
            sources[0].extend(c_files(change.before_files));
            sources[1].extend(c_files(change.after_files));
        } else if sources[2].len() < SCAN_POOL / 3 {
            sources[2].extend(c_files(change.before_files));
        }
        if sources.iter().all(|s| s.len() >= SCAN_POOL / 3) {
            break;
        }
    }
    let mut seen = HashSet::new();
    let pool: Vec<String> = sources
        .into_iter()
        .flat_map(|s| s.into_iter().take(SCAN_POOL / 3))
        .filter(|f| seen.insert(f.clone()))
        .collect();
    let mut pool: Vec<(usize, String)> = pool
        .into_iter()
        .map(|f| (clang_lite::tokenize(&f).len(), f))
        .collect();
    pool.sort();
    let mut picks: Vec<usize> = if pool.len() <= count {
        (0..pool.len()).collect()
    } else {
        (0..count)
            .map(|i| (2 * i + 1) * pool.len() / (2 * count))
            .collect()
    };
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.gen_range(0..=i));
    }
    picks
        .into_iter()
        .map(|i| std::mem::take(&mut pool[i].1))
        .collect()
}
