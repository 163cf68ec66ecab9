//! The 60-dimensional feature vector of Table I.

use std::fmt;
use std::ops::Index;


/// Dimensionality of the Table I feature space.
pub const FEATURE_DIM: usize = 60;

/// Human-readable names of all 60 features, index-aligned with
/// [`FeatureVector`]. The numbering follows Table I of the paper
/// (1-based there, 0-based here).
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    // 1-2: basic patch shape
    "changed lines",
    "hunks",
    // 3-6: lines
    "added lines",
    "removed lines",
    "total lines",
    "net lines",
    // 7-10: characters
    "added characters",
    "removed characters",
    "total characters",
    "net characters",
    // 11-14: if statements
    "added if statements",
    "removed if statements",
    "total if statements",
    "net if statements",
    // 15-18: loops
    "added loops",
    "removed loops",
    "total loops",
    "net loops",
    // 19-22: function calls
    "added function calls",
    "removed function calls",
    "total function calls",
    "net function calls",
    // 23-26: arithmetic operators
    "added arithmetic operators",
    "removed arithmetic operators",
    "total arithmetic operators",
    "net arithmetic operators",
    // 27-30: relation operators
    "added relation operators",
    "removed relation operators",
    "total relation operators",
    "net relation operators",
    // 31-34: logical operators
    "added logical operators",
    "removed logical operators",
    "total logical operators",
    "net logical operators",
    // 35-38: bitwise operators
    "added bitwise operators",
    "removed bitwise operators",
    "total bitwise operators",
    "net bitwise operators",
    // 39-42: memory operators
    "added memory operators",
    "removed memory operators",
    "total memory operators",
    "net memory operators",
    // 43-46: variables
    "added variables",
    "removed variables",
    "total variables",
    "net variables",
    // 47-48: modified functions
    "total modified functions",
    "net modified functions",
    // 49-51: Levenshtein before abstraction
    "mean hunk levenshtein",
    "min hunk levenshtein",
    "max hunk levenshtein",
    // 52-54: Levenshtein after abstraction
    "mean hunk levenshtein (abstracted)",
    "min hunk levenshtein (abstracted)",
    "max hunk levenshtein (abstracted)",
    // 55-56: identical hunks
    "same hunks",
    "same hunks (abstracted)",
    // 57-60: affected range
    "affected files",
    "affected files %",
    "affected functions",
    "affected functions %",
];

/// A point in the Table I feature space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector(pub [f64; FEATURE_DIM]);

impl patchdb_rt::json::ToJson for FeatureVector {
    fn write_json(&self, w: &mut patchdb_rt::json::Writer) {
        // A plain 60-element number array, as serde encoded it.
        patchdb_rt::json::ToJson::write_json(self.0.as_slice(), w);
    }
}

impl patchdb_rt::json::FromJson for FeatureVector {
    fn from_json(v: &patchdb_rt::json::Json) -> patchdb_rt::json::Result<Self> {
        let values: Vec<f64> = patchdb_rt::json::FromJson::from_json(v)?;
        values.try_into().map(FeatureVector).map_err(|v: Vec<f64>| {
            patchdb_rt::json::JsonError::new(format!(
                "expected {FEATURE_DIM} features, got {}",
                v.len()
            ))
        })
    }
}

impl FeatureVector {
    /// The all-zero vector.
    pub fn zero() -> Self {
        FeatureVector([0.0; FEATURE_DIM])
    }

    /// A view of the raw values.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutable view of the raw values.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Looks a feature up by its Table I name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`FEATURE_NAMES`]; this is a
    /// programmer-facing convenience for tests and reports.
    pub fn get_named(&self, name: &str) -> f64 {
        let idx = FEATURE_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown feature name: {name}"));
        self.0[idx]
    }

    /// True when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

impl Default for FeatureVector {
    fn default() -> Self {
        Self::zero()
    }
}

impl Index<usize> for FeatureVector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FeatureVector {{")?;
        for (name, v) in FEATURE_NAMES.iter().zip(self.0.iter()) {
            if *v != 0.0 {
                writeln!(f, "  {name}: {v}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_complete() {
        let mut sorted: Vec<&str> = FEATURE_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), FEATURE_DIM);
    }

    #[test]
    fn get_named_round_trips() {
        let mut v = FeatureVector::zero();
        v.0[1] = 7.0;
        assert_eq!(v.get_named("hunks"), 7.0);
        assert_eq!(v[1], 7.0);
    }

    #[test]
    #[should_panic(expected = "unknown feature name")]
    fn get_named_panics_on_typo() {
        FeatureVector::zero().get_named("bananas");
    }

    #[test]
    fn json_round_trip() {
        use patchdb_rt::json::{to_compact_string, FromJson, Json};
        let mut v = FeatureVector::zero();
        v.0[59] = -2.5;
        let json = to_compact_string(&v);
        let back = FeatureVector::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn display_skips_zeroes() {
        let mut v = FeatureVector::zero();
        v.0[0] = 3.0;
        let text = v.to_string();
        assert!(text.contains("changed lines: 3"));
        assert!(!text.contains("hunks"));
    }
}
