//! Quickstart: build a miniature PatchDB end to end and look around.
//!
//! ```sh
//! cargo run --release --example quickstart            # full tour
//! cargo run --release --example quickstart -- --quiet # headline numbers only
//! cargo run --release --example quickstart -- --trace # + NLS pruning telemetry
//! ```

use patchdb::{BuildOptions, PatchDb};
use patchdb_rt::obs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let trace = args.iter().any(|a| a == "--trace");
    if trace {
        obs::set_enabled(true);
    }

    // A small forge so the example finishes in seconds; use
    // `BuildOptions::default_scale` for the paper-shaped corpus.
    let options = BuildOptions::tiny(42);
    if !quiet {
        println!(
            "building PatchDB against a synthetic forge ({} repos, ~{} commits)...",
            options.corpus.n_repos,
            options.corpus.expected_commits()
        );
    }

    let report = PatchDb::build(&options);
    let db = &report.db;
    println!("\n== dataset ==\n{}", db.stats());

    println!("\n== augmentation rounds (Table II shape) ==");
    println!("{:<10} {:>6} {:>13} {:>11} {:>9} {:>7}", "pool", "round", "search range", "candidates", "verified", "ratio");
    for r in &report.rounds {
        println!(
            "{:<10} {:>6} {:>13} {:>11} {:>9} {:>6.0}%",
            r.pool, r.round, r.search_range, r.candidates, r.verified_security,
            100.0 * r.ratio
        );
    }
    println!(
        "(wild pool: {} commits; human verification effort: {} candidates)",
        report.wild_total, report.verification_effort
    );

    // With --trace, the build telemetry carries per-round NLS counters:
    // how many distance computations the index bounds (whole cells and
    // cell flanks) and the norm bound skipped outright.
    if let Some(telemetry) = &report.telemetry {
        println!("\n== NLS pruning efficiency (per round) ==");
        for r in &report.rounds {
            let counter = |suffix: &str| {
                telemetry.trace.counter(&format!("nls.round{:02}.{suffix}", r.round))
            };
            if let (Some(evaluated), Some(pruned)) =
                (counter("dist_evaluated"), counter("pruned_norm"))
            {
                let skipped = pruned + counter("cells_skipped").unwrap_or(0);
                let total = evaluated + skipped;
                let avoided =
                    if total == 0 { 0.0 } else { 100.0 * skipped as f64 / total as f64 };
                println!(
                    "round {:02} [{}]: {evaluated} distances evaluated, {skipped} skipped \
                     by index/norm bounds ({avoided:.1}% of comparisons avoided)",
                    r.round, r.pool
                );
            }
        }
    }

    if !quiet {
        // Every natural patch is a real unified diff; print one.
        if let Some(example) = db.wild.first() {
            println!("\n== a wild-based security patch ({}) ==", example.patch.commit.short());
            println!("{}", example.patch.to_unified_string());
        }

        // And the synthetic dataset derives from natural patches.
        if let Some(synth) = db.synthetic.iter().find(|s| s.is_security) {
            println!(
                "== a synthetic variant (derived from {}) ==",
                synth.derived_from.short()
            );
            for line in synth.patch.to_unified_string().lines().take(25) {
                println!("{line}");
            }
        }
    }

    // The whole dataset serializes to JSON like the real PatchDB release.
    let json = db.to_json().expect("serializable");
    println!("\nJSON export: {} bytes", json.len());
}
