//! One-line import of the cross-crate surface real consumers use.
//!
//! The CLI, the examples, and the integration tests all need the same
//! dozen names scattered across `patchdb` and its re-exports; `use
//! patchdb::prelude::*;` pulls in exactly that working set:
//!
//! ```rust
//! use patchdb::prelude::*;
//!
//! let report = PatchDb::build(&BuildOptions::tiny(42).synthesize(false));
//! for record in report.db.security_patches() {
//!     let _category = classify_patch(&record.patch);
//!     let _sigs = signatures_of(&record.patch);
//! }
//! ```

pub use crate::dataset::{DatasetStats, PatchDb, PatchRecord, Source, SyntheticRecord};
pub use crate::error::Error;
pub use crate::patterns::{mine_fix_patterns, pattern_frequencies, FixPattern};
pub use crate::pipeline::{BuildOptions, BuildReport, BuildTelemetry, PoolPlan};
pub use crate::signatures::{signatures_of, test_presence, PatchSignature, PresenceVerdict, ScanTarget};
pub use crate::taxonomy::classify_patch;

// The cross-crate types those APIs hand out or take in.
pub use patch_core::{CommitId, Patch};
pub use patchdb_corpus::{PatchCategory, ALL_CATEGORIES};
pub use patchdb_features::{extract, FeatureVector, FEATURE_DIM, FEATURE_NAMES};
pub use patchdb_nls::AugmentationRound;
