//! Random forest: bagged Gini trees with √d feature subsampling — the
//! model behind the pseudo-labeling baseline (Table III) and the
//! statistical-feature classifier of Table VI.

use patchdb_rt::rng::Xoshiro256pp;

use crate::classifier::Classifier;
use crate::dataset::Dataset;
use crate::tree::{DecisionTree, GrowParams, SplitCriterion, TreeState};

/// Serializable image of a fitted [`RandomForest`]: the training
/// hyper-parameters plus every fitted tree's [`TreeState`]. External
/// codecs (the serve snapshot format) persist this instead of the
/// private fields; `from_state(export_state())` reproduces identical
/// predictions on every input.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestState {
    /// Configured tree count (what a re-`fit` would grow).
    pub n_trees: usize,
    /// Per-tree depth bound.
    pub max_depth: usize,
    /// Forest seed (per-tree seeds derive from it).
    pub seed: u64,
    /// Every fitted tree, in training order.
    pub trees: Vec<TreeState>,
}

/// A random forest over binary-labeled feature rows.
///
/// Training parallelizes across trees with scoped threads when
/// the forest is large enough to pay for it.
#[derive(Debug, Clone)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Creates an untrained forest of `n_trees` depth-bounded trees.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForest { n_trees: n_trees.max(1), max_depth, seed, trees: Vec::new() }
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Exports the fitted forest as a [`ForestState`].
    pub fn export_state(&self) -> ForestState {
        ForestState {
            n_trees: self.n_trees,
            max_depth: self.max_depth,
            seed: self.seed,
            trees: self.trees.iter().map(DecisionTree::export_state).collect(),
        }
    }

    /// Reconstructs a forest from an exported state; every tree's arena
    /// is validated (see [`DecisionTree::from_state`]).
    pub fn from_state(state: ForestState) -> Result<Self, String> {
        let trees = state
            .trees
            .into_iter()
            .enumerate()
            .map(|(i, t)| DecisionTree::from_state(t).map_err(|e| format!("tree {i}: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RandomForest {
            n_trees: state.n_trees.max(1),
            max_depth: state.max_depth,
            seed: state.seed,
            trees,
        })
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        let _span = patchdb_rt::obs::span("ml.forest.fit");
        patchdb_rt::obs::counter_add("ml.forest.trees", self.n_trees as u64);
        let mtry = ((data.width() as f64).sqrt().ceil() as usize).max(1);
        let params = GrowParams {
            criterion: SplitCriterion::Gini,
            max_depth: self.max_depth,
            min_samples_split: 2,
            mtry: Some(mtry),
        };

        let seeds: Vec<u64> = {
            let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
            (0..self.n_trees).map(|_| rng.gen()).collect()
        };

        let fit_one = |tree_seed: u64| -> DecisionTree {
            let mut rng = Xoshiro256pp::seed_from_u64(tree_seed);
            let sample = data.bootstrap(data.len(), &mut rng);
            let mut tree = DecisionTree::new(SplitCriterion::Gini, self.max_depth);
            tree.fit_params(&sample, params, &mut rng);
            tree
        };

        let threads = patchdb_rt::par::configured_threads(8);
        if self.n_trees >= 8 && data.len() >= 512 && threads > 1 {
            // Worker-thread spans would land as disconnected roots, so the
            // parallel path reports at fit granularity only.
            self.trees = patchdb_rt::par::map_chunked(&seeds, threads, |&s| fit_one(s));
        } else {
            self.trees = seeds
                .into_iter()
                .map(|s| {
                    let _t = patchdb_rt::obs::span("ml.forest.tree");
                    fit_one(s)
                })
                .collect();
        }
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(x)).sum();
        sum / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::evaluate;

    fn two_moons(n: usize) -> Dataset {
        // Deterministic pseudo-random interleaved clusters.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t = (i as f64) / n as f64 * std::f64::consts::PI;
            let noise = ((i * 2654435761) % 97) as f64 / 970.0;
            if i % 2 == 0 {
                x.push(vec![t.cos() + noise, t.sin() + noise]);
                y.push(false);
            } else {
                x.push(vec![1.0 - t.cos() + noise, 0.5 - t.sin() + noise]);
                y.push(true);
            }
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn beats_90_percent_on_moons() {
        let d = two_moons(600);
        let (train, test) = d.split(0.8, 3);
        let mut rf = RandomForest::new(24, 8, 11);
        rf.fit(&train);
        let m = evaluate(&rf, &test);
        assert!(m.accuracy() > 0.9, "accuracy {}", m.accuracy());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = two_moons(200);
        let mut a = RandomForest::new(8, 6, 5);
        let mut b = RandomForest::new(8, 6, 5);
        a.fit(&d);
        b.fit(&d);
        for i in 0..d.len() {
            let (x, _) = d.example(i);
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // 600 rows × 16 trees triggers the threaded path; 4 trees the serial
        // one. Same per-tree seeds → same model regardless of path.
        let d = two_moons(600);
        let mut big = RandomForest::new(16, 6, 5);
        big.fit(&d);
        assert_eq!(big.tree_count(), 16);
        let (x, _) = d.example(0);
        let p = big.predict_proba(x);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn batch_predict_matches_per_row() {
        let d = two_moons(300);
        let mut rf = RandomForest::new(8, 6, 21);
        rf.fit(&d);
        let rows: Vec<Vec<f64>> = d.rows().to_vec();
        // The trait's default batch path: a prefix of the rows scores
        // exactly as that prefix of the full batch.
        let batched = rf.predict_proba_batch(&rows);
        assert_eq!(batched.len(), rows.len());
        for (row, &p) in rows.iter().zip(&batched) {
            assert_eq!(p, rf.predict_proba(row));
        }
        let small = rf.predict_proba_batch(&rows[..8]);
        assert_eq!(small, batched[..8]);
    }

    #[test]
    fn probabilities_average_trees() {
        let d = two_moons(100);
        let mut rf = RandomForest::new(4, 4, 9);
        rf.fit(&d);
        for i in 0..20 {
            let (x, _) = d.example(i);
            let p = rf.predict_proba(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
