//! Shared experiment scaffolding for the table/figure benches.
//!
//! Every paper experiment runs at a configurable fraction of the paper's
//! scale (whose 6M-commit corpus does not fit a laptop benchmark budget).
//! `PATCHDB_BENCH_SCALE` scales the corpus and pool sizes: `1.0` is the
//! default ≈1/20-of-paper scale used in EXPERIMENTS.md; smaller values
//! give faster smoke runs.

use patchdb::{BuildOptions, BuildReport, PatchDb, PatchRecord, PoolPlan};
use patchdb_corpus::CorpusConfig;
use patchdb_ml::Dataset;
use patchdb_nn::{encode_patch, patch_token_texts, TokenSequence, Vocabulary};

/// Reads the bench scale factor from `PATCHDB_BENCH_SCALE` (default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("PATCHDB_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(1.0)
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64) * scale).round().max(1.0) as usize
}

/// The benchmark-default build: a ~62K-commit forge (paper: 6M), Set I of
/// 10K with three rounds and Sets II/III of 20K with one round each
/// (paper: 100K/200K/200K), three-expert verification at 2% per-expert
/// error.
pub fn bench_options(seed: u64) -> BuildOptions {
    let s = bench_scale();
    BuildOptions::default_scale(seed)
        .corpus(CorpusConfig {
            n_repos: 313,
            mean_commits_per_repo: scaled(200, s),
            security_rate: 0.08,
            nvd_report_rate: 0.08,
            reported_mention_rate: 0.7,
            silent_mention_rate: 0.12,
            twin_rate: 0.25,
            seed,
        })
        .pools(vec![
            PoolPlan { name: "Set I".into(), size: scaled(10_000, s), rounds: 3 },
            PoolPlan { name: "Set II".into(), size: scaled(20_000, s), rounds: 1 },
            PoolPlan { name: "Set III".into(), size: scaled(20_000, s), rounds: 1 },
        ])
        .expert_error(0.02)
        .synthesize(false) // benches that need synthesis enable it
        .synth_cap(4)
}

/// Builds the benchmark experiment (forge + PatchDB) once.
pub fn build_experiment(seed: u64, synthesize: bool) -> BuildReport {
    PatchDb::build(&bench_options(seed).synthesize(synthesize))
}

/// Assembles a feature-space [`Dataset`] from positive/negative records.
pub fn features_dataset(pos: &[&PatchRecord], neg: &[&PatchRecord]) -> Dataset {
    let rows: Vec<Vec<f64>> = pos
        .iter()
        .chain(neg.iter())
        .map(|r| r.features.as_slice().to_vec())
        .collect();
    let labels: Vec<bool> = std::iter::repeat(true)
        .take(pos.len())
        .chain(std::iter::repeat(false).take(neg.len()))
        .collect();
    Dataset::new(rows, labels).expect("records have rectangular finite features")
}

/// Builds a token vocabulary over a set of patches.
pub fn build_vocab<'a, I>(patches: I, cap: usize) -> Vocabulary
where
    I: IntoIterator<Item = &'a patch_core::Patch>,
{
    let streams: Vec<Vec<String>> = patches.into_iter().map(patch_token_texts).collect();
    let refs: Vec<&[String]> = streams.iter().map(Vec::as_slice).collect();
    Vocabulary::build(refs.iter().copied(), cap)
}

/// Encodes records into RNN training pairs.
pub fn rnn_pairs(
    vocab: &Vocabulary,
    pos: &[&PatchRecord],
    neg: &[&PatchRecord],
) -> Vec<(TokenSequence, bool)> {
    pos.iter()
        .map(|r| (encode_patch(&r.patch, vocab), true))
        .chain(neg.iter().map(|r| (encode_patch(&r.patch, vocab), false)))
        .collect()
}

/// Deterministic split of record references into (train, test).
pub fn split_records<'a>(
    records: &[&'a PatchRecord],
    train_frac: f64,
    seed: u64,
) -> (Vec<&'a PatchRecord>, Vec<&'a PatchRecord>) {
    use patchdb_rt::rng::SliceRandom;
    let mut rng = patchdb_rt::rng::Xoshiro256pp::seed_from_u64(seed);
    let mut shuffled: Vec<&PatchRecord> = records.to_vec();
    shuffled.shuffle(&mut rng);
    let cut = ((shuffled.len() as f64) * train_frac).round() as usize;
    let test = shuffled.split_off(cut.min(shuffled.len()));
    (shuffled, test)
}

/// The number behind a printed percentage cell (`"68.5%"` → `68.5`), so
/// a footer's verdicts are computed from exactly the rows a reader sees.
///
/// # Panics
///
/// Panics when `cell` is not a number followed by `%`.
pub fn printed_pct(cell: &str) -> f64 {
    cell.strip_suffix('%')
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("not a printed percentage: {cell:?}"))
}

/// `"held"` or `"NOT held"` — a footer's verdict on one paper claim.
pub fn verdict(held: bool) -> &'static str {
    if held { "held" } else { "NOT held" }
}

/// Prints a fixed-width table like the paper's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<&str>| {
        let mut out = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(headers.to_vec());
    line(widths.iter().map(|_| "-").collect());
    for r in rows {
        line(r.iter().map(String::as_str).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parses() {
        // Cannot mutate env safely in parallel tests; just check default.
        assert!(bench_scale() > 0.0);
    }

    #[test]
    fn options_scale_sanely() {
        let o = bench_options(1);
        assert_eq!(o.pools.len(), 3);
        assert!(o.corpus.expected_commits() > o.pools.iter().map(|p| p.size).sum::<usize>());
    }
}
