//! Ablations of the nearest link search design choices DESIGN.md calls
//! out (not a paper table — supporting analysis for Sections III-B-2/3):
//!
//! 1. **feature weighting** — `w_j = 1/max|a_j|` vs raw (identity)
//!    distances: without normalization the character/line-count features
//!    dominate the metric;
//! 2. **link exclusivity** — nearest *link* (each wild patch claimed at
//!    most once) vs plain nearest *neighbor* (k-NN with k=1, duplicates
//!    allowed then deduplicated), the distinction Section III-B-3 draws;
//! 3. **greedy order** — Algorithm 1's global-minimum-first order vs a
//!    naive fixed row order.

use patchdb_corpus::{GitHubForge, VerificationOracle};
use patchdb_features::{
    apply_weights, euclidean, extract, learn_weights, FeatureVector, RepoContext, Weights,
};
use patchdb_mine::{collect_wild, mine_nvd, sample_wild};
use patchdb_nls::nearest_link_search;

use patchdb_bench::{bench_options, bench_scale, print_table, printed_pct, verdict};

fn main() {
    let t0 = std::time::Instant::now();
    let mut options = bench_options(808);
    options.corpus.mean_commits_per_repo =
        ((60.0 * bench_scale()).round() as usize).max(10);
    let forge = GitHubForge::generate(&options.corpus);
    let oracle = VerificationOracle::new(0.02, 13);

    let mined = mine_nvd(&forge);
    let contexts: std::collections::HashMap<&str, RepoContext> = forge
        .repos()
        .iter()
        .map(|r| {
            (r.name.as_str(), RepoContext {
                total_files: r.total_files,
                total_functions: r.total_functions,
            })
        })
        .collect();
    let sec: Vec<FeatureVector> = mined
        .patches
        .iter()
        .map(|m| extract(&m.patch, contexts.get(m.repo.as_str())))
        .collect();

    let wild = collect_wild(&forge, &mined.claimed_ids());
    let pool = sample_wild(&wild, (8_000.0 * bench_scale()).round() as usize, 4);
    let pool_f: Vec<FeatureVector> = pool
        .iter()
        .map(|w| {
            let change = forge.materialize(w.commit);
            let patch = change.patch.retain_c_files().unwrap_or(change.patch);
            extract(&patch, Some(&w.repo_context()))
        })
        .collect();

    let ratio = |candidates: &[usize]| -> (usize, f64) {
        let hits = candidates.iter().filter(|&&i| oracle.verify(pool[i].commit)).count();
        (candidates.len(), hits as f64 / candidates.len().max(1) as f64)
    };
    let project = |w: &Weights, xs: &[FeatureVector]| -> Vec<FeatureVector> {
        xs.iter().map(|v| apply_weights(v, w)).collect()
    };

    let learned = learn_weights(sec.iter().chain(pool_f.iter()));
    let sec_w = project(&learned, &sec);
    let pool_w = project(&learned, &pool_f);

    let mut rows = Vec::new();
    let mut push = |name: &str, cands: &[usize]| {
        let (n, r) = ratio(cands);
        rows.push(vec![name.to_owned(), n.to_string(), format!("{:.0}%", 100.0 * r)]);
    };

    // 1a. Full method: weighted nearest link.
    let weighted_links = nearest_link_search(&sec_w, &pool_w);
    push("weighted nearest link (full method)", &weighted_links);

    // 1b. Identity weights.
    let raw_links = nearest_link_search(&sec, &pool_f);
    push("unweighted distances", &raw_links);

    // 2. k-NN (k=1, duplicates collapsed): each security patch's nearest
    // neighbor regardless of prior claims.
    let mut knn: Vec<usize> = sec_w
        .iter()
        .map(|s| {
            pool_w
                .iter()
                .enumerate()
                .min_by(|a, b| euclidean(s, a.1).total_cmp(&euclidean(s, b.1)))
                .map(|(i, _)| i)
                .expect("non-empty pool")
        })
        .collect();
    knn.sort_unstable();
    knn.dedup();
    push("nearest neighbor (kNN k=1, deduped)", &knn);

    // 3. Naive row-order greedy: assign in index order, skipping claimed.
    let mut used = vec![false; pool_w.len()];
    let mut row_order = Vec::with_capacity(sec_w.len());
    for s in &sec_w {
        let best = pool_w
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .min_by(|a, b| euclidean(s, a.1).total_cmp(&euclidean(s, b.1)))
            .map(|(i, _)| i)
            .expect("pool larger than seed set");
        used[best] = true;
        row_order.push(best);
    }
    push("row-order greedy (no global argmin)", &row_order);

    print_table(
        "Ablation: nearest link search design choices",
        &["Variant", "Candidates", "Security Patches"],
        &rows,
    );
    println!("\nexpected: the full method leads; unweighted distances degrade;");
    println!("kNN yields fewer (deduplicated) candidates at similar precision —");
    println!("the paper's point is that links maximize *distinct* candidates.");
    print_claims(&rows);
    println!("\n[ablation completed in {:?}]", t0.elapsed());
}

/// "Similar precision" in the expectation above: within this many
/// percentage points.
const SIMILAR_PTS: f64 = 5.0;

/// Prints, from the printed rows, whether each expectation held in this
/// run. Rows are in push order: full method, unweighted, kNN, row-order.
fn print_claims(rows: &[Vec<String>]) {
    // (variant, candidates, security share in %) of one printed row.
    let parsed: Vec<(&str, usize, f64)> = rows
        .iter()
        .map(|r| (r[0].as_str(), r[1].parse().expect("printed count"), printed_pct(&r[2])))
        .collect();
    let [full, unweighted, knn, row_order] = parsed[..] else {
        panic!("four ablation rows");
    };
    println!("in this run (from the rows above):");
    println!(
        "  unweighted distances degrade: {:.0}% vs full {:.0}%: {}",
        unweighted.2,
        full.2,
        verdict(unweighted.2 < full.2)
    );
    for other in [knn, row_order] {
        println!(
            "  full method leads {}: {:.0}% vs {:.0}%: {}",
            other.0,
            full.2,
            other.2,
            verdict(full.2 >= other.2)
        );
    }
    println!(
        "  kNN yields fewer candidates: {} vs {}: {}",
        knn.1,
        full.1,
        verdict(knn.1 < full.1)
    );
    println!(
        "  kNN at similar precision (within {SIMILAR_PTS:.0} pts): {:.0}% vs {:.0}%: {}",
        knn.2,
        full.2,
        verdict((knn.2 - full.2).abs() <= SIMILAR_PTS)
    );
}
