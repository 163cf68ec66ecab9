//! Golden-file tests: the Table II round composition, the Table V
//! pattern distribution, the JSON export's digest of fixed-seed builds
//! and the predictions of an RNN trained on one are rendered to text and
//! compared byte-for-byte against files under `tests/golden/`.
//!
//! On intentional pipeline changes, regenerate with:
//!
//! ```sh
//! PATCHDB_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use patchdb::{BuildOptions, PatchDb, ALL_CATEGORIES};
use patchdb_nn::{encode_patch, patch_token_texts, RnnClassifier, RnnConfig, Vocabulary};

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

/// The Table IV/VI recurrent classifier, trained on a fixed-seed build:
/// every bit of every prediction is pinned, so a refactor of the trainer
/// must replay the same random-number stream (embedding, cell, head,
/// shuffle) and the same arithmetic.
#[test]
fn rnn_training_matches_golden() {
    let report = PatchDb::build(&BuildOptions::tiny(GOLDEN_SEED));
    let db = &report.db;
    let records: Vec<_> = db
        .security_patches()
        .map(|r| (r, true))
        .chain(db.non_security.iter().map(|r| (r, false)))
        .collect();
    let streams: Vec<Vec<String>> =
        records.iter().map(|(r, _)| patch_token_texts(&r.patch)).collect();
    let vocab = Vocabulary::build(streams.iter().map(Vec::as_slice), 512);
    let pairs: Vec<_> = records
        .iter()
        .map(|&(r, security)| (encode_patch(&r.patch, &vocab), security))
        .collect();

    let mut model = RnnClassifier::new(RnnConfig {
        vocab_size: vocab.size(),
        embed_dim: 8,
        hidden_dim: 8,
        epochs: 2,
        lr: 8e-3,
        max_len: 64,
        seed: 9,
    });
    model.train(&pairs);
    let bits: Vec<u8> = pairs
        .iter()
        .flat_map(|(seq, _)| model.predict_proba(seq).to_bits().to_le_bytes())
        .collect();

    let mut out = String::new();
    writeln!(out, "# RnnClassifier trained on BuildOptions::tiny({GOLDEN_SEED})").unwrap();
    writeln!(out, "# records\tfnv64 of predict_proba bits").unwrap();
    writeln!(out, "{}\t{:016x}", pairs.len(), fnv64(&bits)).unwrap();
    assert_golden("rnn_training.txt", &out);
}
