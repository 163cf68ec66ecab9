//! Wild-dataset augmentation in detail: run the nearest link search loop
//! against a forge and compare its hit rate with brute-force screening —
//! the efficiency argument at the heart of the paper (Tables II & III).
//!
//! ```sh
//! cargo run --release --example augment_wild             # full comparison
//! cargo run --release --example augment_wild -- --quiet  # headline numbers only
//! cargo run --release --example augment_wild -- --trace  # + per-round pruning stats
//! ```

use std::collections::HashSet;

use patchdb::FeatureVector;
use patchdb_corpus::{CorpusConfig, GitHubForge, VerificationOracle};
use patchdb_features::extract;
use patchdb_mine::{collect_wild, mine_nvd, sample_wild};
use patchdb_nls::{augment_rounds, brute_force_candidates, PoolSpec};
use patchdb_rt::obs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let trace = args.iter().any(|a| a == "--trace");
    if trace {
        obs::set_enabled(true);
        // This example drives `augment_rounds` directly (no `PatchDb::build`
        // around it to reset the registry), so start from a clean slate.
        obs::reset();
    }

    let forge = GitHubForge::generate(&CorpusConfig::with_total_commits(6_000, 7));
    let mined = mine_nvd(&forge);
    if !quiet {
        println!(
            "mined {} NVD security patches from {} repositories",
            mined.patches.len(),
            forge.repos().len()
        );
    }

    let wild = collect_wild(&forge, &mined.claimed_ids());
    let pool = sample_wild(&wild, 3_000, 99);
    if !quiet {
        println!("wild pool: {} unlabeled commits", pool.len());
    }

    // Feature space over the pool.
    let features: Vec<FeatureVector> = pool
        .iter()
        .map(|w| {
            let change = forge.materialize(w.commit);
            let patch = change.patch.retain_c_files().unwrap_or(change.patch);
            extract(&patch, Some(&w.repo_context()))
        })
        .collect();
    let contexts: std::collections::HashMap<&str, patchdb_features::RepoContext> = forge
        .repos()
        .iter()
        .map(|r| (r.name.as_str(), patchdb_features::RepoContext {
            total_files: r.total_files, total_functions: r.total_functions }))
        .collect();
    let seed: Vec<FeatureVector> = mined
        .patches
        .iter()
        .map(|m| extract(&m.patch, contexts.get(m.repo.as_str())))
        .collect();

    // Three rounds of nearest-link augmentation with a 2%-error 3-expert
    // oracle.
    let oracle = VerificationOracle::new(0.02, 5);
    let pools = vec![PoolSpec {
        name: "Set I".into(),
        members: (0..pool.len()).collect(),
        rounds: 3,
    }];
    let (rounds, sec_idx, nonsec_idx) =
        augment_rounds(&seed, &features, &pools, |i| oracle.verify(pool[i].commit));

    println!("\nround  range  candidates  verified  ratio");
    for r in &rounds {
        println!(
            "{:>5}  {:>5}  {:>10}  {:>8}  {:>4.0}%",
            r.round, r.search_range, r.candidates, r.verified_security,
            100.0 * r.ratio
        );
    }
    println!(
        "\nnearest link search: {} security patches from {} verifications",
        sec_idx.len(),
        sec_idx.len() + nonsec_idx.len()
    );

    // With --trace, per-round counters show how much work the index
    // bounds (whole cells and cell flanks) and the norm-bound pruning
    // saved the distance kernel on each pass.
    if trace {
        let telemetry = obs::report();
        println!("\nNLS pruning efficiency:");
        for r in &rounds {
            let counter =
                |suffix: &str| telemetry.counter(&format!("nls.round{:02}.{suffix}", r.round));
            if let (Some(evaluated), Some(pruned)) =
                (counter("dist_evaluated"), counter("pruned_norm"))
            {
                let skipped = pruned + counter("cells_skipped").unwrap_or(0);
                let total = evaluated + skipped;
                let avoided =
                    if total == 0 { 0.0 } else { 100.0 * skipped as f64 / total as f64 };
                println!(
                    "  round {:02}: {evaluated} distances evaluated, {skipped} skipped \
                     by index/norm bounds ({avoided:.1}% of comparisons avoided)",
                    r.round
                );
            }
        }
    }

    // Brute force on the same budget.
    let budget = sec_idx.len() + nonsec_idx.len();
    let bf = brute_force_candidates(pool.len(), budget, 123);
    let bf_oracle = VerificationOracle::new(0.02, 5);
    let bf_hits = bf.iter().filter(|&&i| bf_oracle.verify(pool[i].commit)).count();
    println!(
        "brute force search:  {} security patches from {} verifications",
        bf_hits, budget
    );

    let nls_rate = sec_idx.len() as f64 / budget as f64;
    let bf_rate = bf_hits as f64 / budget as f64;
    println!(
        "\nefficiency: NLS {:.0}% vs brute force {:.0}% → {:.1}× less human effort per patch",
        100.0 * nls_rate,
        100.0 * bf_rate,
        nls_rate / bf_rate.max(1e-9)
    );

    // Double-check against sealed ground truth.
    if !quiet {
        let truly_sec: HashSet<usize> = (0..pool.len())
            .filter(|&i| pool[i].commit.truth.is_security)
            .collect();
        println!(
            "(ground truth: {} of {} pool commits are security patches — base rate {:.0}%)",
            truly_sec.len(),
            pool.len(),
            100.0 * truly_sec.len() as f64 / pool.len() as f64
        );
    }
}
