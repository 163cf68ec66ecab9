//! Golden-file tests: the Table II round composition, the Table V
//! pattern distribution and the JSON export's digest of fixed-seed
//! builds are rendered to text and compared byte-for-byte against files
//! under `tests/golden/`.
//!
//! On intentional pipeline changes, regenerate with:
//!
//! ```sh
//! PATCHDB_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use patchdb::{BuildOptions, PatchDb, ALL_CATEGORIES};

const GOLDEN_SEED: u64 = 1234;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `rendered` against the golden file, or rewrites the golden
/// file when `PATCHDB_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("PATCHDB_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with PATCHDB_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "{name} drifted from its golden file; if the change is intentional, \
         regenerate with PATCHDB_UPDATE_GOLDEN=1"
    );
}

/// Table II — round-by-round augmentation composition.
#[test]
fn table2_round_composition_matches_golden() {
    let report = PatchDb::build(&BuildOptions::tiny(GOLDEN_SEED));
    let mut out = String::new();
    writeln!(out, "# Table II round composition, BuildOptions::tiny({GOLDEN_SEED})").unwrap();
    writeln!(out, "# pool\tround\tsearch_range\tcandidates\tverified\tratio").unwrap();
    for r in &report.rounds {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{:.6}",
            r.pool, r.round, r.search_range, r.candidates, r.verified_security, r.ratio
        )
        .unwrap();
    }
    assert_golden("table2_rounds.txt", &out);
}

/// Table V — ground-truth pattern distribution of the natural security
/// patches, over the 12-category taxonomy.
#[test]
fn table5_pattern_distribution_matches_golden() {
    let report = PatchDb::build(&BuildOptions::tiny(GOLDEN_SEED));
    let security: Vec<_> = report.db.security_patches().collect();
    let total = security.len().max(1);

    let mut out = String::new();
    writeln!(out, "# Table V pattern distribution, BuildOptions::tiny({GOLDEN_SEED})").unwrap();
    writeln!(out, "# category\tcount\tshare").unwrap();
    for cat in ALL_CATEGORIES {
        let count = security.iter().filter(|r| r.truth_category == Some(cat)).count();
        writeln!(out, "{cat:?}\t{count}\t{:.6}", count as f64 / total as f64).unwrap();
    }
    writeln!(out, "total\t{}\t1.000000", security.len()).unwrap();
    assert_golden("table5_patterns.txt", &out);
}

/// 64-bit FNV-1a, the digest perfbench prints for the same export.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The exported dataset bytes, pinned across versions of the serializer
/// (the determinism tests only compare two builds of the same code).
#[test]
fn json_export_bytes_match_golden() {
    let mut out = String::new();
    writeln!(out, "# PatchDb::to_json of BuildOptions::tiny(seed)").unwrap();
    writeln!(out, "# seed\tbytes\tfnv64").unwrap();
    for seed in [GOLDEN_SEED, 7] {
        let json = PatchDb::build(&BuildOptions::tiny(seed)).db.to_json().unwrap();
        writeln!(out, "{seed}\t{}\t{:016x}", json.len(), fnv64(json.as_bytes())).unwrap();
    }
    assert_golden("json_export.txt", &out);
}
