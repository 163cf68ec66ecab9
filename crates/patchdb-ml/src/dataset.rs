//! Feature-matrix datasets with deterministic splits.

use std::fmt;

use patchdb_rt::rng::SliceRandom;
use patchdb_rt::rng::Xoshiro256pp;

/// Error constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatasetError {
    /// Rows and labels have different lengths.
    LengthMismatch {
        /// Number of feature rows supplied.
        rows: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// Rows have inconsistent widths.
    RaggedRows {
        /// Width of the first row.
        expected: usize,
        /// Index of the first offending row.
        row: usize,
        /// Its width.
        found: usize,
    },
    /// A feature value is NaN or infinite.
    NonFinite {
        /// Row index of the offending value.
        row: usize,
        /// Column index of the offending value.
        col: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(f, "{rows} rows but {labels} labels")
            }
            DatasetError::RaggedRows { expected, row, found } => {
                write!(f, "row {row} has {found} features, expected {expected}")
            }
            DatasetError::NonFinite { row, col } => {
                write!(f, "non-finite feature at row {row}, column {col}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A binary-labeled feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Vec<Vec<f64>>,
    y: Vec<bool>,
}

impl Dataset {
    /// Creates a dataset, validating shape and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] on ragged rows, length mismatch, or
    /// non-finite values.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<bool>) -> Result<Self, DatasetError> {
        if x.len() != y.len() {
            return Err(DatasetError::LengthMismatch { rows: x.len(), labels: y.len() });
        }
        let width = x.first().map_or(0, Vec::len);
        for (i, row) in x.iter().enumerate() {
            if row.len() != width {
                return Err(DatasetError::RaggedRows { expected: width, row: i, found: row.len() });
            }
            for (j, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DatasetError::NonFinite { row: i, col: j });
                }
            }
        }
        Ok(Dataset { x, y })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per row (0 for an empty dataset).
    pub fn width(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// The feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// The labels (true = positive class, i.e. *security patch*).
    pub fn labels(&self) -> &[bool] {
        &self.y
    }

    /// One example.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn example(&self, i: usize) -> (&[f64], bool) {
        (&self.x[i], self.y[i])
    }

    /// Number of positive examples.
    pub fn positives(&self) -> usize {
        self.y.iter().filter(|b| **b).count()
    }

    /// Deterministic stratified shuffle-split: `train_frac` of each class
    /// goes to the first dataset, the rest to the second. Matches the
    /// paper's "randomly select 80% as the training set" protocol while
    /// keeping class balance stable across the split.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut pos: Vec<usize> = (0..self.len()).filter(|&i| self.y[i]).collect();
        let mut neg: Vec<usize> = (0..self.len()).filter(|&i| !self.y[i]).collect();
        pos.shuffle(&mut rng);
        neg.shuffle(&mut rng);

        let take = |v: &[usize]| ((v.len() as f64) * train_frac).round() as usize;
        let (pt, nt) = (take(&pos), take(&neg));

        let gather = |idx: &[usize]| Dataset {
            x: idx.iter().map(|&i| self.x[i].clone()).collect(),
            y: idx.iter().map(|&i| self.y[i]).collect(),
        };
        let train_idx: Vec<usize> = pos[..pt].iter().chain(&neg[..nt]).copied().collect();
        let test_idx: Vec<usize> = pos[pt..].iter().chain(&neg[nt..]).copied().collect();
        (gather(&train_idx), gather(&test_idx))
    }

    /// Bootstrap sample of `n` examples with replacement (for bagging).
    pub fn bootstrap(&self, n: usize, rng: &mut Xoshiro256pp) -> Dataset {
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let i = rng.gen_range(0..self.len());
            x.push(self.x[i].clone());
            y.push(self.y[i]);
        }
        Dataset { x, y }
    }

    /// Splits off a validation fraction without stratification (for
    /// reduced-error pruning).
    pub fn holdout(&self, frac: f64, seed: u64) -> (Dataset, Dataset) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut rng);
        let cut = ((self.len() as f64) * (1.0 - frac)).round() as usize;
        let gather = |ix: &[usize]| Dataset {
            x: ix.iter().map(|&i| self.x[i].clone()).collect(),
            y: ix.iter().map(|&i| self.y[i]).collect(),
        };
        (gather(&idx[..cut]), gather(&idx[cut..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![true, false]),
            Err(DatasetError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![true, false]),
            Err(DatasetError::RaggedRows { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![f64::NAN]], vec![true]),
            Err(DatasetError::NonFinite { .. })
        ));
    }

    #[test]
    fn stratified_split_preserves_balance() {
        let d = toy(300);
        let (train, test) = d.split(0.8, 1);
        assert_eq!(train.len() + test.len(), 300);
        let frac = |ds: &Dataset| ds.positives() as f64 / ds.len() as f64;
        assert!((frac(&train) - frac(&d)).abs() < 0.02);
        assert!((frac(&test) - frac(&d)).abs() < 0.05);
    }

    #[test]
    fn split_is_deterministic() {
        let d = toy(100);
        let (a1, b1) = d.split(0.7, 9);
        let (a2, b2) = d.split(0.7, 9);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        let (a3, _) = d.split(0.7, 10);
        assert_ne!(a1, a3);
    }

    #[test]
    fn bootstrap_has_requested_size() {
        let d = toy(50);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let b = d.bootstrap(80, &mut rng);
        assert_eq!(b.len(), 80);
    }

    #[test]
    fn holdout_partitions() {
        let d = toy(100);
        let (grow, prune) = d.holdout(0.25, 4);
        assert_eq!(grow.len(), 75);
        assert_eq!(prune.len(), 25);
    }
}
