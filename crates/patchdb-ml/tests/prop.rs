//! Property tests for the ML substrate: probability bounds, split
//! bookkeeping, metric identities, and determinism across the whole
//! classifier zoo. Runs on `patchdb_rt::check`, the in-repo harness.

use patchdb_rt::check::{check, Gen};

use patchdb_ml::{
    evaluate, Classifier, ConfusionMatrix, Dataset, DecisionTree, GaussianNaiveBayes,
    LogisticRegression, Metrics, RandomForest, SplitCriterion,
};

const CASES: u32 = 48;

fn dataset(g: &mut Gen) -> Dataset {
    let n = g.usize_in(4, 59);
    let width = g.usize_in(1, 3);
    let seed = g.u64();
    // Deterministic pseudo-random rows with a learnable-but-noisy rule.
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 100.0
    };
    for _ in 0..n {
        let row: Vec<f64> = (0..width).map(|_| next()).collect();
        labels.push(row[0] > 5.0);
        rows.push(row);
    }
    // Force both classes to exist.
    let half = labels.len() / 2;
    labels[0] = true;
    labels[half] = false;
    rows[0][0] = 9.0;
    rows[half][0] = 1.0;
    Dataset::new(rows, labels).unwrap()
}

fn all_models() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(RandomForest::new(6, 4, 1)),
        Box::new(DecisionTree::new(SplitCriterion::Gini, 4)),
        Box::new(DecisionTree::new(SplitCriterion::Entropy, 4)),
        Box::new(LogisticRegression::new(2)),
        Box::new(GaussianNaiveBayes::new()),
    ]
}

/// Every classifier's probabilities stay in [0, 1] on arbitrary data.
#[test]
fn probabilities_bounded() {
    check("probabilities_bounded", CASES, |g| {
        let data = dataset(g);
        for mut model in all_models() {
            model.fit(&data);
            for i in 0..data.len() {
                let p = model.predict_proba(data.example(i).0);
                assert!((0.0..=1.0).contains(&p), "{}: p = {p}", model.name());
                assert!(p.is_finite());
            }
        }
    });
}

/// Splits partition the data and preserve the class counts.
#[test]
fn split_partitions() {
    check("split_partitions", CASES, |g| {
        let data = dataset(g);
        let frac = g.f64_in(0.1, 0.9);
        let seed = g.u64();
        let (train, test) = data.split(frac, seed);
        assert_eq!(train.len() + test.len(), data.len());
        assert_eq!(train.positives() + test.positives(), data.positives());
    });
}

/// Evaluation totals equal the dataset size; metric identities hold.
#[test]
fn metric_identities() {
    check("metric_identities", CASES, |g| {
        let data = dataset(g);
        let mut model = DecisionTree::new(SplitCriterion::Gini, 3);
        model.fit(&data);
        let m = evaluate(&model, &data);
        assert_eq!(m.confusion.total(), data.len());
        let p = m.precision();
        let r = m.recall();
        let f1 = m.f1();
        if p + r > 0.0 {
            assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
        }
        assert!(m.accuracy() >= 0.0 && m.accuracy() <= 1.0);
    });
}

/// Confusion-matrix recording is order-insensitive in aggregate.
#[test]
fn confusion_accumulates() {
    check("confusion_accumulates", CASES, |g| {
        let preds = g.vec_with(0, 63, |g| (g.bool(), g.bool()));
        let mut cm = ConfusionMatrix::default();
        for (p, a) in &preds {
            cm.record(*p, *a);
        }
        assert_eq!(cm.total(), preds.len());
        let m = Metrics::new(cm);
        let tp = preds.iter().filter(|(p, a)| *p && *a).count();
        let fp = preds.iter().filter(|(p, a)| *p && !*a).count();
        if tp + fp > 0 {
            assert!((m.precision() - tp as f64 / (tp + fp) as f64).abs() < 1e-12);
        }
    });
}

/// Training twice from the same seeds yields identical predictions.
#[test]
fn determinism() {
    check("determinism", CASES, |g| {
        let data = dataset(g);
        let mut a = RandomForest::new(6, 4, 9);
        let mut b = RandomForest::new(6, 4, 9);
        a.fit(&data);
        b.fit(&data);
        for i in 0..data.len() {
            let x = data.example(i).0;
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    });
}
