//! The full RNN classifier: embedding → GRU → logistic head.

use patchdb_rt::rng::SliceRandom;
use patchdb_rt::rng::Xoshiro256pp;

use crate::encode::TokenSequence;
use crate::gru::{GruCell, StepCache};
use crate::linalg::{sigmoid, Mat, Param};

/// Hyper-parameters of the RNN classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnConfig {
    /// Embedding-table rows; must exceed every token id.
    pub vocab_size: usize,
    /// Embedding width.
    pub embed_dim: usize,
    /// GRU hidden width.
    pub hidden_dim: usize,
    /// Training epochs over the full set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Sequences are truncated to this many tokens.
    pub max_len: usize,
    /// RNG seed (initialization and shuffling).
    pub seed: u64,
}

impl Default for RnnConfig {
    fn default() -> Self {
        RnnConfig {
            vocab_size: 4096,
            embed_dim: 24,
            hidden_dim: 32,
            epochs: 4,
            lr: 5e-3,
            max_len: 160,
            seed: 42,
        }
    }
}

/// Embedding + GRU + logistic binary classifier over token sequences.
///
/// Serializable: `patchdb_rt::json` writes every weight in
/// shortest-round-trip form, so a trained model reads back bit-exactly
/// and can be trained once and shipped with a dataset release.
#[derive(Debug, Clone)]
pub struct RnnClassifier {
    config: RnnConfig,
    embedding: Param,
    cell: GruCell,
    head_w: Param,
    head_b: Param,
    step: usize,
}

patchdb_rt::impl_to_from_json!(RnnConfig {
    vocab_size,
    embed_dim,
    hidden_dim,
    epochs,
    lr,
    max_len,
    seed,
});

patchdb_rt::impl_to_from_json!(RnnClassifier {
    config,
    embedding,
    cell,
    head_w,
    head_b,
    step,
});

impl RnnClassifier {
    /// Creates a freshly initialized (untrained) model.
    pub fn new(config: RnnConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
        let embedding =
            Param::new(Mat::xavier(config.vocab_size, config.embed_dim, &mut rng));
        let cell = GruCell::new(config.embed_dim, config.hidden_dim, &mut rng);
        RnnClassifier {
            embedding,
            cell,
            head_w: Param::new(Mat::xavier(1, config.hidden_dim, &mut rng)),
            head_b: Param::new(Mat::zeros(1, 1)),
            step: 0,
            config,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &RnnConfig {
        &self.config
    }

    /// Runs the network; returns P(positive) for one sequence.
    pub fn predict_proba(&self, seq: &TokenSequence) -> f64 {
        let (p, _, _) = self.forward(seq);
        p
    }

    /// Hard decision at 0.5.
    pub fn predict(&self, seq: &TokenSequence) -> bool {
        self.predict_proba(seq) >= 0.5
    }

    fn forward(&self, seq: &TokenSequence) -> (f64, Vec<f64>, Vec<(u32, StepCache)>) {
        let mut h = vec![0.0; self.config.hidden_dim];
        let mut caches = Vec::new();
        for &id in seq.ids().iter().take(self.config.max_len) {
            let idx = (id as usize).min(self.config.vocab_size - 1);
            let (h2, cache) = self.cell.forward(self.embedding.value.row(idx), &h);
            h = h2;
            caches.push((idx as u32, cache));
        }
        let logit = self
            .head_w
            .value
            .row(0)
            .iter()
            .zip(&h)
            .map(|(w, hv)| w * hv)
            .sum::<f64>()
            + self.head_b.value.as_slice()[0];
        (sigmoid(logit), h, caches)
    }

    /// Trains on `(sequence, label)` pairs with per-example Adam updates
    /// (matching the paper's small-dataset regime); returns the mean
    /// binary-cross-entropy of the final epoch over the non-empty
    /// sequences, the only ones trained on.
    pub fn train(&mut self, data: &[(TokenSequence, bool)]) -> f64 {
        let _span = patchdb_rt::obs::span("nn.train");
        patchdb_rt::obs::counter_add("nn.epochs", self.config.epochs as u64);
        let mut rng = Xoshiro256pp::seed_from_u64(self.config.seed ^ 0xABCD);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let trained = data.iter().filter(|(seq, _)| !seq.is_empty()).count();
        let mut last_loss = 0.0;
        for _ in 0..self.config.epochs {
            let _epoch = patchdb_rt::obs::span("nn.epoch");
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            for &i in &order {
                let (seq, label) = &data[i];
                if seq.is_empty() {
                    continue;
                }
                loss_sum += self.train_one(seq, *label);
            }
            last_loss = loss_sum / trained.max(1) as f64;
        }
        last_loss
    }

    fn train_one(&mut self, seq: &TokenSequence, label: bool) -> f64 {
        let (p, h, caches) = self.forward(seq);
        let y = f64::from(label);
        let loss = -(y * p.max(1e-12).ln() + (1.0 - y) * (1.0 - p).max(1e-12).ln());

        // Head gradients: dlogit = p − y.
        let dlogit = p - y;
        self.head_w.grad.add_outer(&[dlogit], &h);
        self.head_b.grad.as_mut_slice()[0] += dlogit;
        let mut dh: Vec<f64> =
            self.head_w.value.row(0).iter().map(|w| w * dlogit).collect();

        // BPTT through the GRU, scattering into the embedding.
        for (idx, cache) in caches.iter().rev() {
            let (dx, dh_prev) = self.cell.backward(&dh, cache);
            dh = dh_prev;
            let row = self.embedding.grad.row_mut(*idx as usize);
            for (g, d) in row.iter_mut().zip(&dx) {
                *g += d;
            }
        }

        self.step += 1;
        self.embedding.adam_step(self.config.lr, self.step);
        self.cell.adam_step(self.config.lr, self.step);
        self.head_w.adam_step(self.config.lr, self.step);
        self.head_b.adam_step(self.config.lr, self.step);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RnnConfig {
        RnnConfig {
            vocab_size: 32,
            embed_dim: 8,
            hidden_dim: 8,
            epochs: 25,
            lr: 0.02,
            max_len: 24,
            seed: 3,
        }
    }

    fn keyword_task(n: usize) -> Vec<(TokenSequence, bool)> {
        // Positive iff the "keyword" token 9 appears.
        (0..n)
            .map(|i| {
                let pos = i % 2 == 0;
                let filler = 5 + (i % 3) as u32;
                let mut ids = vec![filler, filler + 1, filler];
                if pos {
                    ids.insert(i % ids.len(), 9);
                }
                (TokenSequence::new(ids), pos)
            })
            .collect()
    }

    #[test]
    fn learns_keyword_detection() {
        let data = keyword_task(80);
        let mut m = RnnClassifier::new(cfg());
        let loss = m.train(&data);
        assert!(loss < 0.3, "final loss {loss}");
        let correct = data
            .iter()
            .filter(|(s, y)| m.predict(s) == *y)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95);
    }

    #[test]
    fn order_sensitivity_is_learnable() {
        // Positive iff token 9 appears BEFORE token 10 — requires state.
        let data: Vec<(TokenSequence, bool)> = (0..120)
            .map(|i| {
                let pos = i % 2 == 0;
                let ids = if pos { vec![6, 9, 7, 10, 6] } else { vec![6, 10, 7, 9, 6] };
                (TokenSequence::new(ids), pos)
            })
            .collect();
        let mut config = cfg();
        config.epochs = 60;
        let mut m = RnnClassifier::new(config);
        m.train(&data);
        assert!(m.predict(&TokenSequence::new(vec![6, 9, 7, 10, 6])));
        assert!(!m.predict(&TokenSequence::new(vec![6, 10, 7, 9, 6])));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = keyword_task(20);
        let mut a = RnnClassifier::new(cfg());
        let mut b = RnnClassifier::new(cfg());
        a.train(&data);
        b.train(&data);
        let probe = TokenSequence::new(vec![5, 9, 5]);
        assert_eq!(a.predict_proba(&probe), b.predict_proba(&probe));
    }

    #[test]
    fn loss_averages_over_trained_examples_only() {
        // One epoch over identical examples, so shuffle order cannot
        // change the weights; empty sequences are skipped and must not
        // dilute the mean.
        let config = RnnConfig { epochs: 1, ..cfg() };
        let example = (TokenSequence::new(vec![5, 9, 6]), true);
        let empty = (TokenSequence::new(vec![]), false);
        let plain = vec![example.clone(); 6];
        let mut padded = Vec::new();
        for _ in 0..6 {
            padded.push(example.clone());
            padded.push(empty.clone());
        }
        let a = RnnClassifier::new(config).train(&plain);
        let b = RnnClassifier::new(config).train(&padded);
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        use patchdb_rt::json::{to_compact_string, FromJson, Json};
        let data = keyword_task(40);
        let mut model = RnnClassifier::new(cfg());
        model.train(&data);
        let json = to_compact_string(&model);
        let parsed = Json::parse(&json).expect("parses");
        let back = RnnClassifier::from_json(&parsed).expect("deserializes");
        for (seq, _) in &data {
            let (a, b) = (model.predict_proba(seq), back.predict_proba(seq));
            // Floats are printed in shortest-round-trip form, so the
            // restored weights are bit-identical and predictions agree
            // exactly.
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn out_of_range_ids_clamp() {
        let m = RnnClassifier::new(cfg());
        let p = m.predict_proba(&TokenSequence::new(vec![9999]));
        assert!(p.is_finite());
    }

    #[test]
    fn empty_sequence_gets_prior() {
        let m = RnnClassifier::new(cfg());
        let p = m.predict_proba(&TokenSequence::new(vec![]));
        assert!((0.0..=1.0).contains(&p));
    }
}
