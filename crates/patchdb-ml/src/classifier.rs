//! The object-safe classifier interface shared by all ten models.

use crate::dataset::Dataset;
use crate::metrics::{ConfusionMatrix, Metrics};

/// A trainable binary classifier producing positive-class probabilities.
///
/// All implementations are deterministic given their construction seed, so
/// every experiment in the benchmark harness is reproducible.
pub trait Classifier: Send {
    /// Fits the model to `data`, replacing any previous fit.
    fn fit(&mut self, data: &Dataset);

    /// Estimated probability that `x` belongs to the positive class.
    /// Implementations must return a value in `[0, 1]`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard decision at the 0.5 threshold.
    fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Short human-readable model name for reports.
    fn name(&self) -> &'static str;
}

/// Evaluates a fitted classifier on a dataset.
pub fn evaluate<C: Classifier + ?Sized>(model: &C, data: &Dataset) -> Metrics {
    let mut cm = ConfusionMatrix::default();
    for i in 0..data.len() {
        let (x, y) = data.example(i);
        cm.record(model.predict(x), y);
    }
    Metrics::new(cm)
}

/// Z-score standardizer fitted on training data, shared by the linear
/// models (whose gradients otherwise blow up on count-scaled features).
#[derive(Debug, Clone, Default)]
pub(crate) struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    pub(crate) fn fit(data: &Dataset) -> Self {
        let (n, w) = (data.len().max(1), data.width());
        let mut mean = vec![0.0; w];
        for row in data.rows() {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0; w];
        for row in data.rows() {
            for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .iter()
            .map(|s| {
                let sd = (s / n as f64).sqrt();
                if sd > 1e-12 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        Standardizer { mean, std }
    }

    pub(crate) fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always(bool);
    impl Classifier for Always {
        fn fit(&mut self, _d: &Dataset) {}
        fn predict_proba(&self, _x: &[f64]) -> f64 {
            if self.0 {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "always"
        }
    }

    #[test]
    fn evaluate_counts_correctly() {
        let d = Dataset::new(vec![vec![0.0], vec![1.0]], vec![true, false]).unwrap();
        let m = evaluate(&Always(true), &d);
        assert_eq!(m.confusion.tp, 1);
        assert_eq!(m.confusion.fp, 1);
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let d = Dataset::new(
            vec![vec![0.0, 10.0], vec![2.0, 10.0], vec![4.0, 10.0]],
            vec![true, false, true],
        )
        .unwrap();
        let s = Standardizer::fit(&d);
        let t = s.transform(&[2.0, 10.0]);
        assert!(t[0].abs() < 1e-12); // centered at the mean
        assert_eq!(t[1], 0.0); // constant column: std fallback 1, centered
        let hi = s.transform(&[4.0, 10.0]);
        assert!(hi[0] > 1.0); // ~1.22 sigma
    }
}
