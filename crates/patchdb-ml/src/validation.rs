//! Model-validation utilities: permutation feature importance, the
//! analysis tooling that asks *which* Table I features carry the
//! security-patch signal (`examples/feature_analysis.rs`).

use patchdb_rt::rng::SliceRandom;
use patchdb_rt::rng::Xoshiro256pp;

use crate::classifier::{evaluate, Classifier};
use crate::dataset::Dataset;

/// Permutation importance: for each feature column, shuffle it within the
/// evaluation set and measure the accuracy drop. Returns one value per
/// column (larger = more important); near-zero/negative values mean the
/// model does not rely on the column.
pub fn permutation_importance<C: Classifier + ?Sized>(
    model: &C,
    data: &Dataset,
    seed: u64,
) -> Vec<f64> {
    let baseline = evaluate(model, data).accuracy();
    let width = data.width();
    let mut out = Vec::with_capacity(width);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);

    for col in 0..width {
        let mut shuffled: Vec<f64> = data.rows().iter().map(|r| r[col]).collect();
        shuffled.shuffle(&mut rng);
        let mut correct = 0usize;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            let mut z = x.to_vec();
            z[col] = shuffled[i];
            if model.predict(&z) == y {
                correct += 1;
            }
        }
        out.push(baseline - correct as f64 / data.len().max(1) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForest;

    fn separable(n: usize) -> Dataset {
        // Column 0 carries the label; column 1 is pure noise.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, ((i * 2654435761) % 100) as f64])
            .collect();
        let y: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn importance_finds_the_signal_column() {
        let d = separable(200);
        let mut rf = RandomForest::new(16, 8, 2);
        rf.fit(&d);
        let imp = permutation_importance(&rf, &d, 9);
        assert_eq!(imp.len(), 2);
        assert!(
            imp[0] > imp[1] + 0.1,
            "signal column {} vs noise column {}",
            imp[0],
            imp[1]
        );
        assert!(imp[1].abs() < 0.1, "noise column should not matter: {}", imp[1]);
    }
}
