//! # patchdb-nls
//!
//! The core algorithmic contribution of PatchDB: **nearest link search**
//! (Section III-B, Algorithm 1), which selects, for every verified
//! security patch, its closest unclaimed wild patch in the weighted
//! 60-dimensional feature space — plus the three baselines it is compared
//! against in Table III (brute force, pseudo labeling, uncertainty-based
//! labeling) and the multi-round human-in-the-loop augmentation driver
//! behind Table II.
//!
//! ```rust
//! use patchdb_features::FeatureVector;
//! use patchdb_nls::nearest_link_search;
//!
//! let mut sec = FeatureVector::zero();
//! sec.as_mut_slice()[0] = 1.0;
//! let mut near = FeatureVector::zero();
//! near.as_mut_slice()[0] = 1.1;
//! let mut far = FeatureVector::zero();
//! far.as_mut_slice()[0] = 9.0;
//!
//! let links = nearest_link_search(&[sec], &[far, near]);
//! assert_eq!(links, vec![1]); // the wild patch nearest to `sec`
//! ```

#![warn(missing_docs)]

mod augment;
mod baselines;
mod index;
mod search;

pub use augment::{augment_rounds, augment_rounds_with, AugmentationRound, PoolSpec};
pub use baselines::{
    brute_force_candidates, pseudo_label_candidates, uncertainty_candidates,
};
pub use index::WildIndex;
pub use search::{
    nearest_link_search, nearest_link_search_indexed, nearest_link_search_matrix,
    nearest_link_search_serial, nearest_link_search_with, row_minima, total_link_distance,
    NlsConfig,
};
