//! Population-level feature statistics: per-class means/deviations over
//! the 60 Table I dimensions and a discriminativeness ranking — the
//! analysis view used to ask *which* syntactic features separate security
//! patches from the rest (and to sanity-check corpus calibration).


use crate::vector::{FeatureVector, FEATURE_DIM, FEATURE_NAMES};

/// Mean and standard deviation of every feature over one population.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSummary {
    /// Number of vectors summarized.
    pub count: usize,
    /// Per-dimension means.
    pub mean: Vec<f64>,
    /// Per-dimension standard deviations (population form).
    pub std: Vec<f64>,
}

impl FeatureSummary {
    /// Summarizes a population. An empty population yields zeros.
    pub fn of<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a FeatureVector>,
    {
        let mut mean = vec![0.0; FEATURE_DIM];
        let mut m2 = vec![0.0; FEATURE_DIM];
        let mut count = 0usize;
        // Welford's online algorithm keeps this single-pass and stable.
        for row in rows {
            count += 1;
            for ((m, s), v) in mean.iter_mut().zip(m2.iter_mut()).zip(row.as_slice()) {
                let delta = v - *m;
                *m += delta / count as f64;
                *s += delta * (v - *m);
            }
        }
        let std = m2
            .iter()
            .map(|s| if count > 0 { (s / count as f64).sqrt() } else { 0.0 })
            .collect();
        FeatureSummary { count, mean, std }
    }
}

/// One feature's separation between two populations.
#[derive(Debug, Clone, PartialEq)]
pub struct Discriminativeness {
    /// Feature index into [`FEATURE_NAMES`].
    pub feature: usize,
    /// Table I name.
    pub name: &'static str,
    /// |mean_a − mean_b| / pooled std (Cohen's d, population form).
    pub effect_size: f64,
    /// Mean in population A.
    pub mean_a: f64,
    /// Mean in population B.
    pub mean_b: f64,
}

/// Ranks the 60 features by how strongly they separate two populations
/// (largest effect size first). Constant features rank last with effect 0.
pub fn rank_discriminative(
    a: &FeatureSummary,
    b: &FeatureSummary,
) -> Vec<Discriminativeness> {
    let mut out: Vec<Discriminativeness> = (0..FEATURE_DIM)
        .map(|i| {
            let pooled = ((a.std[i] * a.std[i] + b.std[i] * b.std[i]) / 2.0).sqrt();
            let effect = if pooled > 1e-12 {
                (a.mean[i] - b.mean[i]).abs() / pooled
            } else {
                0.0
            };
            Discriminativeness {
                feature: i,
                name: FEATURE_NAMES[i],
                effect_size: effect,
                mean_a: a.mean[i],
                mean_b: b.mean[i],
            }
        })
        .collect();
    out.sort_by(|x, y| y.effect_size.total_cmp(&x.effect_size));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(idx: usize, val: f64) -> FeatureVector {
        let mut v = FeatureVector::zero();
        v.as_mut_slice()[idx] = val;
        v
    }

    #[test]
    fn welford_matches_direct_formulas() {
        let rows = vec![fv(0, 1.0), fv(0, 2.0), fv(0, 3.0), fv(0, 4.0)];
        let s = FeatureSummary::of(&rows);
        assert_eq!(s.count, 4);
        assert!((s.mean[0] - 2.5).abs() < 1e-12);
        // Population std of {1,2,3,4} = sqrt(1.25).
        assert!((s.std[0] - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.mean[1], 0.0);
    }

    #[test]
    fn empty_population_is_zeros() {
        let s = FeatureSummary::of(std::iter::empty());
        assert_eq!(s.count, 0);
        assert!(s.mean.iter().all(|m| *m == 0.0));
        assert!(s.std.iter().all(|m| *m == 0.0));
    }

    #[test]
    fn ranking_surfaces_the_separating_feature() {
        // Population A differs from B only on feature 10 (added ifs).
        let a: Vec<FeatureVector> = (0..50).map(|i| fv(10, 3.0 + (i % 3) as f64 * 0.1)).collect();
        let b: Vec<FeatureVector> = (0..50).map(|i| fv(10, (i % 3) as f64 * 0.1)).collect();
        let ranked = rank_discriminative(&FeatureSummary::of(&a), &FeatureSummary::of(&b));
        assert_eq!(ranked[0].feature, 10);
        assert_eq!(ranked[0].name, "added if statements");
        assert!(ranked[0].effect_size > 5.0);
        assert_eq!(ranked.last().unwrap().effect_size, 0.0);
    }

    #[test]
    fn corpus_classes_are_separable_somewhere() {
        // Security patches vs doc/style churn must differ strongly on at
        // least one dimension (the whole premise of the feature space).
        use patch_core::diff_files;
        let sec = patch_core::Patch::builder("a".repeat(40))
            .file(diff_files(
                "a.c",
                "int f(int i, int n) {\n    buf[i] = 1;\n    return 0;\n}\n",
                "int f(int i, int n) {\n    if (i >= n)\n        return -1;\n    buf[i] = 1;\n    return 0;\n}\n",
                3,
            ))
            .build();
        let doc = patch_core::Patch::builder("b".repeat(40))
            .file(diff_files(
                "a.c",
                "/* old comment */\nint g;\n",
                "/* new comment */\nint g;\n",
                3,
            ))
            .build();
        let sa = FeatureSummary::of(&[crate::extract(&sec, None)]);
        let sb = FeatureSummary::of(&[crate::extract(&doc, None)]);
        let ifs = FEATURE_NAMES.iter().position(|n| *n == "added if statements").unwrap();
        assert!(sa.mean[ifs] > sb.mean[ifs]);
    }
}
