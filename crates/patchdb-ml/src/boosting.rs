//! AdaBoost over depth-limited decision stumps — an additional ensemble
//! family for ablations against the Random Forest (not part of the
//! paper's ten-classifier set, but a standard point of comparison for
//! feature-space patch classification).

use patchdb_rt::rng::Xoshiro256pp;

use crate::classifier::Classifier;
use crate::dataset::Dataset;
use crate::tree::{DecisionTree, SplitCriterion};

/// Discrete AdaBoost with shallow-tree weak learners.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    rounds: usize,
    stump_depth: usize,
    seed: u64,
    learners: Vec<(DecisionTree, f64)>, // (stump, alpha)
}

impl AdaBoost {
    /// Creates an untrained booster with `rounds` weak learners of depth
    /// `stump_depth` (1–2 are classic choices).
    pub fn new(rounds: usize, stump_depth: usize, seed: u64) -> Self {
        AdaBoost { rounds: rounds.max(1), stump_depth: stump_depth.max(1), seed, learners: Vec::new() }
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, data: &Dataset) {
        self.learners.clear();
        let n = data.len();
        if n == 0 {
            return;
        }
        let mut weights = vec![1.0 / n as f64; n];
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);

        for _ in 0..self.rounds {
            // Weak learners train on a weighted resample — the classic
            // resampling formulation, which reuses the unweighted trees.
            let resample = weighted_resample(data, &weights, &mut rng);
            let mut stump = DecisionTree::new(SplitCriterion::Gini, self.stump_depth);
            stump.fit(&resample);

            // Weighted training error of the stump on the original data.
            let mut err = 0.0;
            let preds: Vec<bool> =
                (0..n).map(|i| stump.predict(data.example(i).0)).collect();
            for i in 0..n {
                if preds[i] != data.labels()[i] {
                    err += weights[i];
                }
            }
            err = err.clamp(1e-10, 1.0 - 1e-10);
            if err >= 0.5 {
                // Weak learner no better than chance: stop boosting.
                if self.learners.is_empty() {
                    self.learners.push((stump, 1.0));
                }
                break;
            }
            let alpha = 0.5 * ((1.0 - err) / err).ln();

            // Re-weight examples and renormalize.
            for i in 0..n {
                let agree = if preds[i] == data.labels()[i] { 1.0 } else { -1.0 };
                weights[i] *= (-alpha * agree).exp();
            }
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            self.learners.push((stump, alpha));
            if err < 1e-9 {
                break; // perfect fit
            }
        }
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        if self.learners.is_empty() {
            return 0.5;
        }
        let mut score = 0.0;
        let mut total = 0.0;
        for (stump, alpha) in &self.learners {
            let vote = if stump.predict(x) { 1.0 } else { -1.0 };
            score += alpha * vote;
            total += alpha;
        }
        // Squash the margin into [0, 1].
        (score / total + 1.0) / 2.0
    }

    fn name(&self) -> &'static str {
        "adaboost"
    }
}

fn weighted_resample(data: &Dataset, weights: &[f64], rng: &mut Xoshiro256pp) -> Dataset {
    // Inverse-CDF sampling over the weight distribution.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w;
        cdf.push(acc);
    }
    let total = acc.max(1e-12);
    let mut rows = Vec::with_capacity(data.len());
    let mut labels = Vec::with_capacity(data.len());
    for _ in 0..data.len() {
        let t = rng.gen_range(0.0..total);
        let idx = cdf.partition_point(|c| *c < t).min(data.len() - 1);
        let (x, y) = data.example(idx);
        rows.push(x.to_vec());
        labels.push(y);
    }
    Dataset::new(rows, labels).expect("resample of a valid dataset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::evaluate;

    fn interval(n: usize) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64 * 7.3) % 10.0]).collect();
        let y: Vec<bool> = x.iter().map(|r| (2.0..6.0).contains(&r[0])).collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn boosting_beats_single_stump() {
        let d = interval(400);
        let mut stump = DecisionTree::new(SplitCriterion::Gini, 1);
        stump.fit(&d);
        let stump_acc = evaluate(&stump, &d).accuracy();

        let mut boost = AdaBoost::new(20, 1, 3);
        boost.fit(&d);
        let boost_acc = evaluate(&boost, &d).accuracy();
        assert!(
            boost_acc > stump_acc + 0.05,
            "boost {boost_acc} vs stump {stump_acc}"
        );
        assert!(boost_acc > 0.95, "boost accuracy {boost_acc}");
    }

    #[test]
    fn deterministic() {
        let d = interval(100);
        let mut a = AdaBoost::new(10, 1, 7);
        let mut b = AdaBoost::new(10, 1, 7);
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a.predict_proba(&[3.0]), b.predict_proba(&[3.0]));
    }

    #[test]
    fn perfect_separation_stops_early() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..50).map(|i| i >= 25).collect();
        let d = Dataset::new(x, y).unwrap();
        let mut boost = AdaBoost::new(50, 1, 1);
        boost.fit(&d);
        assert!(boost.learners.len() < 50);
        assert_eq!(evaluate(&boost, &d).accuracy(), 1.0);
    }

    #[test]
    fn untrained_predicts_half() {
        assert_eq!(AdaBoost::new(5, 1, 0).predict_proba(&[0.0]), 0.5);
    }
}
