//! # patchdb-ml
//!
//! From-scratch classical machine learning, standing in for the Weka and
//! scikit-learn models PatchDB's evaluation uses:
//!
//! * the Random Forest of Tables III & VI,
//! * the ten-classifier ensemble of the uncertainty-based-labeling
//!   baseline (Random Forest, SVM, Logistic Regression, SGD, SMO, Naive
//!   Bayes, Bayesian network, J48, REPTree, Voted Perceptron),
//! * the train/test split and precision/recall machinery behind every
//!   reported number.
//!
//! Everything operates on plain `&[f64]` feature rows so the crate is
//! independent of the 60-feature layout.
//!
//! ```rust
//! use patchdb_ml::{Dataset, RandomForest, Classifier, evaluate};
//!
//! // A linearly separable toy problem.
//! let rows: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![i as f64, (100 - i) as f64])
//!     .collect();
//! let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
//! let data = Dataset::new(rows, labels).unwrap();
//! let (train, test) = data.split(0.8, 7);
//!
//! let mut rf = RandomForest::new(16, 6, 42);
//! rf.fit(&train);
//! let m = evaluate(&rf, &test);
//! assert!(m.accuracy() > 0.9);
//! ```

#![warn(missing_docs)]

mod bayes;
mod classifier;
mod dataset;
mod forest;
mod linear;
mod metrics;
mod smo;
mod tree;
mod validation;

pub use bayes::{DiscretizedBayesNet, GaussianNaiveBayes};
pub use classifier::{evaluate, Classifier};
pub use dataset::{Dataset, DatasetError};
pub use forest::{ForestState, RandomForest};
pub use linear::{LinearSvm, LogisticRegression, SgdClassifier, VotedPerceptron};
pub use metrics::{ConfusionMatrix, Metrics};
pub use smo::SmoSvm;
pub use tree::{DecisionTree, NodeState, SplitCriterion, TreeState};
pub use validation::permutation_importance;

/// Builds the paper's ten-classifier ensemble for uncertainty-based
/// labeling (Table III), seeded deterministically.
pub fn uncertainty_ensemble(seed: u64) -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(RandomForest::new(24, 10, seed)),
        Box::new(LinearSvm::new(seed ^ 1)),
        Box::new(LogisticRegression::new(seed ^ 2)),
        Box::new(SgdClassifier::new(seed ^ 3)),
        Box::new(SmoSvm::new(seed ^ 4)),
        Box::new(GaussianNaiveBayes::new()),
        Box::new(DiscretizedBayesNet::new(8)),
        Box::new(DecisionTree::new(SplitCriterion::Entropy, 12)), // J48-style
        Box::new(tree::RepTree::new(12, seed ^ 5)),
        Box::new(VotedPerceptron::new(seed ^ 6)),
    ]
}

pub use tree::RepTree;
