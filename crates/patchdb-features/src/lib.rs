//! # patchdb-features
//!
//! The 60-dimensional syntactic feature space of PatchDB's Table I,
//! extracted directly from patches (which are not complete program units),
//! plus the weighting scheme of Section III-B-2:
//! `a'_ij = a_ij / max|a_j|`, mapping every dimension into `[-1, 1]` while
//! preserving the sign of net-value features.
//!
//! ```rust
//! use patch_core::{diff_files, Patch};
//! use patchdb_features::{extract, FeatureVector, FEATURE_DIM};
//!
//! let before = "int f(int a) {\n  return a;\n}\n";
//! let after  = "int f(int a) {\n  if (a < 0)\n    return 0;\n  return a;\n}\n";
//! let patch = Patch::builder("0".repeat(40))
//!     .file(diff_files("f.c", before, after, 3))
//!     .build();
//! let v: FeatureVector = extract(&patch, None);
//! assert_eq!(v.as_slice().len(), FEATURE_DIM);
//! assert!(v.get_named("added if statements") >= 1.0);
//! ```

#![warn(missing_docs)]

mod extract;
mod levenshtein;
mod summary;
mod vector;
mod weighting;

pub use extract::{extract, RepoContext};
pub use levenshtein::levenshtein;
pub use summary::{rank_discriminative, Discriminativeness, FeatureSummary};
pub use vector::{FeatureVector, FEATURE_DIM, FEATURE_NAMES};
pub use weighting::{
    apply_weights, euclidean, learn_weights, max_abs, merge_max_abs, squared_euclidean,
    weights_from_max_abs, Weights,
};
