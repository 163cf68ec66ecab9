//! Fix-pattern mining over PatchDB (Section V-A-2 / Table VII): build the
//! dataset, then summarize *how* its security patches fix vulnerabilities
//! — race-condition locking, data-leakage scrubbing, guard insertion, and
//! safer-call swaps.
//!
//! ```sh
//! cargo run --release --example mine_fix_patterns
//! ```

use patchdb::{mine_fix_patterns, pattern_frequencies, BuildOptions, FixPattern, PatchDb};

fn main() {
    let report = PatchDb::build(&BuildOptions::tiny(31));
    let db = &report.db;
    println!("dataset: {}\n", db.stats());

    let freqs = pattern_frequencies(db.security_patches().map(|r| &r.patch));
    println!("== fix patterns mined from {} security patches ==", db.security_patches().count());
    for (pattern, count) in &freqs {
        println!("{:>5}×  {}", count, pattern.label());
    }

    // Show one concrete instance of each Table VII pattern.
    for want in [FixPattern::RaceCondition, FixPattern::DataLeakage] {
        let hit = db
            .security_patches()
            .find(|r| mine_fix_patterns(&r.patch).contains(&want));
        match hit {
            Some(record) => {
                println!("\n== example: {} ({}) ==", want.label(), record.patch.commit.short());
                for line in record
                    .patch
                    .to_unified_string()
                    .lines()
                    .skip_while(|l| !l.starts_with("@@"))
                    .take(20)
                {
                    println!("{line}");
                }
            }
            None => println!("\n(no {} instance in this tiny build)", want.label()),
        }
    }

    println!(
        "\nnon-security patches rarely match: {} of {} do",
        db.non_security
            .iter()
            .filter(|r| !mine_fix_patterns(&r.patch).is_empty())
            .count(),
        db.non_security.len()
    );
}
