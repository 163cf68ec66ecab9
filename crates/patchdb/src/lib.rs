//! # patchdb
//!
//! The top of the reproduction: construct **PatchDB** — the NVD-based,
//! wild-based, and synthetic security-patch datasets of the DSN 2021
//! paper — end to end against the synthetic forge, and analyze it.
//!
//! The construction pipeline (Fig. 1):
//!
//! 1. mine the NVD for `Patch`-tagged GitHub commits (`patchdb-mine`);
//! 2. collect the wild commit pool and iteratively augment the security
//!    set with **nearest link search** plus simulated expert verification
//!    (`patchdb-nls`), growing the wild-based dataset;
//! 3. oversample natural patches at the source level into the synthetic
//!    dataset (`patchdb-synth`).
//!
//! ```rust,no_run
//! use patchdb::{BuildOptions, PatchDb};
//!
//! let options = BuildOptions::default_scale(42);
//! let report = PatchDb::build(&options);
//! let db = &report.db;
//! println!(
//!     "PatchDB: {} NVD + {} wild security patches, {} non-security, {} synthetic",
//!     db.nvd.len(), db.wild.len(), db.non_security.len(), db.synthetic.len()
//! );
//! # let _ = report;
//! ```

#![warn(missing_docs)]

mod dataset;
mod error;
mod patterns;
mod pipeline;
pub mod prelude;
mod signatures;
mod taxonomy;

pub use dataset::{DatasetStats, PatchDb, PatchRecord, Source, SyntheticRecord};
pub use error::Error;
pub use patterns::{mine_fix_patterns, pattern_frequencies, FixPattern};
pub use signatures::{
    signatures_of, test_presence, PatchSignature, PresenceVerdict, SetScan, SignatureSet,
    SignatureSetBuilder,
};
pub use pipeline::{BuildOptions, BuildReport, BuildTelemetry, PoolPlan};
pub use taxonomy::classify_patch;

// Re-exports so downstream users need only this crate.
pub use patchdb_corpus::{CategoryMix, PatchCategory, ALL_CATEGORIES};
pub use patchdb_features::{FeatureVector, FEATURE_DIM, FEATURE_NAMES};
pub use patchdb_nls::AugmentationRound;
pub use patchdb_rt::json::{Json, JsonError};
