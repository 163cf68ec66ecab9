//! Table VI — "Impacts of datasets over learning-based models":
//! Random Forest (statistical features) and RNN (token stream), trained on
//! the NVD-based dataset alone vs NVD+wild, tested on NVD and wild test
//! splits.
//!
//! Paper:
//!
//! | Train     | Model | Test | Precision | Recall |
//! |-----------|-------|------|-----------|--------|
//! | NVD       | RF    | NVD  | 58.4%     | 21.7%  |
//! | NVD       | RF    | Wild | 58.0%     | 19.5%  |
//! | NVD       | RNN   | NVD  | 82.8%     | 83.2%  |
//! | NVD       | RNN   | Wild | 88.3%     | 24.2%  |
//! | NVD+Wild  | RF    | NVD  | 90.1%     | 22.5%  |
//! | NVD+Wild  | RF    | Wild | 91.8%     | 44.6%  |
//! | NVD+Wild  | RNN   | NVD  | 92.8%     | 60.2%  |
//! | NVD+Wild  | RNN   | Wild | 92.3%     | 63.2%  |
//!
//! The paper's claim: (a) NVD-only models generalize poorly to the wild
//! test set (recall gap); (b) adding the wild training data stabilizes
//! performance across both test sets; (c) the RNN beats the RF. After
//! the table the bench prints, per comparable pair of its own rows,
//! whether each part held in this run.

use patchdb::PatchRecord;
use patchdb_bench::{
    build_experiment, build_vocab, features_dataset, print_table, printed_pct, rnn_pairs,
    split_records, verdict,
};
use patchdb_ml::{evaluate, Classifier, ConfusionMatrix, Metrics, RandomForest};
use patchdb_nn::{RnnClassifier, RnnConfig, TokenSequence};

fn main() {
    let t0 = std::time::Instant::now();
    let report = build_experiment(707, false);
    let db = &report.db;
    println!("dataset: {}", db.stats());

    // Positives per source; negatives from the cleaned non-security set,
    // partitioned between the two sources.
    let nvd_pos: Vec<&PatchRecord> = db.nvd.iter().collect();
    let wild_pos: Vec<&PatchRecord> = db.wild.iter().collect();
    let negs: Vec<&PatchRecord> = db.non_security.iter().collect();
    let cut = (negs.len() / 3).max(2 * nvd_pos.len()).min(negs.len());
    let nvd_neg: Vec<&PatchRecord> = negs[..cut].to_vec();
    let wild_neg: Vec<&PatchRecord> = negs[cut..].to_vec();

    // 80/20 splits per source (paper protocol).
    let (nvd_pos_tr, nvd_pos_te) = split_records(&nvd_pos, 0.8, 1);
    let (nvd_neg_tr, nvd_neg_te) = split_records(&nvd_neg, 0.8, 2);
    let (wild_pos_tr, wild_pos_te) = split_records(&wild_pos, 0.8, 3);
    let (wild_neg_tr, wild_neg_te) = split_records(&wild_neg, 0.8, 4);

    let vocab = build_vocab(
        db.security_patches().map(|r| &r.patch).chain(negs.iter().map(|r| &r.patch)),
        4096,
    );

    let rnn_cfg = RnnConfig {
        vocab_size: vocab.size().max(64),
        embed_dim: 24,
        hidden_dim: 32,
        epochs: 5,
        lr: 5e-3,
        max_len: 160,
        seed: 9,
    };

    let eval_rnn = |model: &RnnClassifier, test: &[(TokenSequence, bool)]| -> Metrics {
        let mut cm = ConfusionMatrix::default();
        for (seq, label) in test {
            cm.record(model.predict(seq), *label);
        }
        Metrics::new(cm)
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |train: &str, algo: &str, test: &str, m: Metrics| {
        rows.push(vec![
            train.into(),
            algo.into(),
            test.into(),
            format!("{:.1}%", 100.0 * m.precision()),
            format!("{:.1}%", 100.0 * m.recall()),
        ]);
    };

    for (train_name, pos_tr, neg_tr) in [
        ("NVD", nvd_pos_tr.clone(), nvd_neg_tr.clone()),
        (
            "NVD+Wild",
            [nvd_pos_tr.clone(), wild_pos_tr.clone()].concat(),
            [nvd_neg_tr.clone(), wild_neg_tr.clone()].concat(),
        ),
    ] {
        // Random Forest on the 60 statistical features.
        let train_ds = features_dataset(&pos_tr, &neg_tr);
        let mut rf = RandomForest::new(32, 12, 100);
        rf.fit(&train_ds);
        let nvd_test = features_dataset(&nvd_pos_te, &nvd_neg_te);
        let wild_test = features_dataset(&wild_pos_te, &wild_neg_te);
        push(train_name, "Random Forest", "NVD", evaluate(&rf, &nvd_test));
        push(train_name, "Random Forest", "Wild", evaluate(&rf, &wild_test));

        // RNN on the token stream.
        let train_pairs = rnn_pairs(&vocab, &pos_tr, &neg_tr);
        let mut rnn = RnnClassifier::new(rnn_cfg);
        rnn.train(&train_pairs);
        let nvd_pairs = rnn_pairs(&vocab, &nvd_pos_te, &nvd_neg_te);
        let wild_pairs = rnn_pairs(&vocab, &wild_pos_te, &wild_neg_te);
        push(train_name, "RNN", "NVD", eval_rnn(&rnn, &nvd_pairs));
        push(train_name, "RNN", "Wild", eval_rnn(&rnn, &wild_pairs));
    }

    print_table(
        "Table VI: impacts of datasets over learning-based models",
        &["Training Dataset", "Algorithm", "Test Dataset", "Precision", "Recall"],
        &rows,
    );
    println!("\npaper's claim: NVD-only models drop sharply on the wild test set;");
    println!("NVD+Wild training is stable across both; RNN ≥ Random Forest.");
    print_claims(&rows);
    println!("\n[table6 completed in {:?}]", t0.elapsed());
}

/// Prints, per comparable pair of the printed rows, whether each part of
/// the paper's claim held in this run.
fn print_claims(rows: &[Vec<String>]) {
    // (precision, recall) of one printed row.
    let row = |train: &str, algo: &str, test: &str| -> (f64, f64) {
        let r = rows
            .iter()
            .find(|r| r[0] == train && r[1] == algo && r[2] == test)
            .expect("every train × algorithm × test row is printed");
        (printed_pct(&r[3]), printed_pct(&r[4]))
    };
    println!("in this run (from the rows above):");
    for algo in ["Random Forest", "RNN"] {
        let (nvd, wild) = (row("NVD", algo, "NVD").1, row("NVD", algo, "Wild").1);
        println!(
            "  wild drop, NVD-trained {algo}: recall {nvd:.1}% on NVD -> {wild:.1}% on Wild: {}",
            verdict(wild < nvd)
        );
    }
    for algo in ["Random Forest", "RNN"] {
        let gap = |train: &str| (row(train, algo, "NVD").1 - row(train, algo, "Wild").1).abs();
        let (alone, joint) = (gap("NVD"), gap("NVD+Wild"));
        println!(
            "  stability, {algo}: NVD-vs-Wild recall gap {alone:.1} pts (NVD-trained) -> \
             {joint:.1} pts (NVD+Wild-trained): {}",
            verdict(joint < alone)
        );
    }
    for train in ["NVD", "NVD+Wild"] {
        for test in ["NVD", "Wild"] {
            let (rnn, rf) = (row(train, "RNN", test), row(train, "Random Forest", test));
            println!(
                "  RNN ≥ Random Forest, {train}-trained on {test}: precision {:.1}% vs {:.1}%: \
                 {}; recall {:.1}% vs {:.1}%: {}",
                rnn.0,
                rf.0,
                verdict(rnn.0 >= rf.0),
                rnn.1,
                rf.1,
                verdict(rnn.1 >= rf.1)
            );
        }
    }
}
