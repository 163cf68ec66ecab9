//! Property tests for the neural substrate: numerical stability of the
//! recurrent cell, encoding bounds, and training determinism. Runs on
//! `patchdb_rt::check`, the in-repo property harness.

use patchdb_rt::check::check;
use patchdb_rt::rng::Xoshiro256pp;

use patchdb_nn::{
    encode_patch, patch_token_texts, GruCell, RnnClassifier, RnnConfig, TokenSequence, Vocabulary,
};

const CASES: u32 = 64;

/// GRU states stay in [-1, 1] and finite for arbitrary bounded inputs.
#[test]
fn gru_state_bounded() {
    check("gru_state_bounded", CASES, |g| {
        let seed = g.u64();
        let xs = g.vec_with(1, 29, |g| {
            (0..4).map(|_| g.f64_in(-5.0, 5.0)).collect::<Vec<f64>>()
        });
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let cell = GruCell::new(4, 6, &mut rng);
        let mut h = vec![0.0; 6];
        for x in &xs {
            let (h2, _) = cell.forward(x, &h);
            h = h2;
            assert!(h.iter().all(|v| v.is_finite() && v.abs() <= 1.0 + 1e-9));
        }
    });
}

/// Classifier probabilities are valid for arbitrary token sequences,
/// including out-of-vocabulary and empty ones.
#[test]
fn classifier_probability_valid() {
    check("classifier_probability_valid", CASES, |g| {
        let ids = g.vec_with(0, 63, |g| g.u64_in(0, 9_999) as u32);
        let config = RnnConfig {
            vocab_size: 64,
            embed_dim: 8,
            hidden_dim: 8,
            epochs: 1,
            lr: 1e-2,
            max_len: 32,
            seed: 5,
        };
        let model = RnnClassifier::new(config);
        let p = model.predict_proba(&TokenSequence::new(ids));
        assert!(p.is_finite() && (0.0..=1.0).contains(&p));
    });
}

/// Training twice with the same seed is bit-deterministic.
#[test]
fn training_deterministic() {
    check("training_deterministic", CASES, |g| {
        let flip = g.bool();
        let data: Vec<(TokenSequence, bool)> = (0..30u32)
            .map(|i| (TokenSequence::new(vec![5 + i % 7, 9, 6]), i % 2 == 0))
            .collect();
        let config = RnnConfig {
            vocab_size: 32,
            embed_dim: 6,
            hidden_dim: 6,
            epochs: 2,
            lr: 1e-2,
            max_len: 16,
            seed: if flip { 3 } else { 4 },
        };
        let mut a = RnnClassifier::new(config);
        let mut b = RnnClassifier::new(config);
        let la = a.train(&data);
        let lb = b.train(&data);
        assert_eq!(la, lb);
        let probe = TokenSequence::new(vec![5, 9, 6]);
        assert_eq!(a.predict_proba(&probe), b.predict_proba(&probe));
    });
}

/// Patch encoding only emits ids inside the vocabulary's id space.
#[test]
fn encoding_ids_in_range() {
    check("encoding_ids_in_range", CASES, |g| {
        let edits = g.vec_with(1, 5, |g| g.usize_in(0, 4));
        // Build a couple of patches whose shapes vary with `edits`.
        let before = "int f(int a) {\n    use(a);\n    return a;\n}\n";
        let mut after_lines: Vec<String> = before.lines().map(str::to_owned).collect();
        for (i, e) in edits.iter().enumerate() {
            after_lines.insert(1 + (i % (after_lines.len() - 1)), format!("    guard_{e}(a);"));
        }
        let after = after_lines.join("\n") + "\n";
        let patch = patch_core::Patch::builder("c".repeat(40))
            .file(patch_core::diff_files("p.c", before, &after, 3))
            .build();

        let texts = vec![patch_token_texts(&patch)];
        let refs: Vec<&[String]> = texts.iter().map(Vec::as_slice).collect();
        let vocab = Vocabulary::build(refs.iter().copied(), 64);
        let seq = encode_patch(&patch, &vocab);
        assert!(!seq.is_empty());
        assert!(seq.ids().iter().all(|&id| (id as usize) < vocab.size()));
    });
}
