//! The end-to-end PatchDB construction pipeline (Fig. 1).

use std::collections::HashMap;

use patch_core::Patch;
use patchdb_corpus::{CorpusConfig, GitHubForge, VerificationOracle};
use patchdb_features::{extract, FeatureVector, RepoContext};
use patchdb_mine::{collect_wild, mine_nvd, sample_wild, WildCommit};
use patchdb_nls::{augment_rounds_with, AugmentationRound, NlsConfig, PoolSpec};
use patchdb_rt::json::Json;
use patchdb_rt::obs::{self, TraceReport};
use patchdb_rt::par;
use patchdb_synth::{synthesize, SynthOptions};

use crate::dataset::{PatchDb, PatchRecord, Source, SyntheticRecord};

/// One unlabeled wild pool in the augmentation plan (a Table II "Set").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPlan {
    /// Display name.
    pub name: String,
    /// Number of wild commits sampled into the pool.
    pub size: usize,
    /// Augmentation rounds to run over it.
    pub rounds: usize,
}

/// Options for [`PatchDb::build`].
///
/// Construct via [`BuildOptions::tiny`] or [`BuildOptions::default_scale`]
/// and refine with the fluent setters — the struct is `#[non_exhaustive]`
/// so new knobs can land without breaking downstream literals:
///
/// ```rust
/// use patchdb::BuildOptions;
///
/// let options = BuildOptions::tiny(42).synthesize(false).threads(2);
/// assert!(!options.synthesize);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BuildOptions {
    /// Synthetic-forge configuration.
    pub corpus: CorpusConfig,
    /// The augmentation plan (Sets I–III in the paper).
    pub pools: Vec<PoolPlan>,
    /// Per-expert verification error rate (0 = perfect experts).
    pub expert_error: f64,
    /// Whether to build the synthetic dataset too.
    pub synthesize: bool,
    /// Cap on synthetic patches per natural patch.
    pub synth_cap: usize,
    /// Pipeline seed (sampling, oracle).
    pub seed: u64,
    /// Worker-thread override for the parallel pipeline stages; `None`
    /// defers to `PATCHDB_THREADS` / available parallelism. Output bytes
    /// are identical at every thread count.
    pub threads: Option<usize>,
}

impl BuildOptions {
    /// The paper's protocol at ~1/20 scale: a ~20K-commit forge, Set I of
    /// 5K with three rounds, Sets II and III of 7K with one round each.
    pub fn default_scale(seed: u64) -> Self {
        BuildOptions {
            corpus: CorpusConfig::default_scale(seed),
            pools: vec![
                PoolPlan { name: "Set I".into(), size: 5_000, rounds: 3 },
                PoolPlan { name: "Set II".into(), size: 7_000, rounds: 1 },
                PoolPlan { name: "Set III".into(), size: 7_000, rounds: 1 },
            ],
            expert_error: 0.02,
            synthesize: true,
            synth_cap: 4,
            seed,
            threads: None,
        }
    }

    /// A fast configuration for tests and the quickstart example.
    pub fn tiny(seed: u64) -> Self {
        BuildOptions {
            corpus: CorpusConfig {
                n_repos: 30,
                mean_commits_per_repo: 80,
                ..CorpusConfig::default_scale(seed)
            },
            pools: vec![
                PoolPlan { name: "Set I".into(), size: 800, rounds: 2 },
                PoolPlan { name: "Set II".into(), size: 1_200, rounds: 1 },
            ],
            expert_error: 0.0,
            synthesize: true,
            synth_cap: 2,
            seed,
            threads: None,
        }
    }

    /// Replaces the synthetic-forge configuration.
    pub fn corpus(mut self, corpus: CorpusConfig) -> Self {
        self.corpus = corpus;
        self
    }

    /// Replaces the augmentation plan.
    pub fn pools(mut self, pools: Vec<PoolPlan>) -> Self {
        self.pools = pools;
        self
    }

    /// Sets the per-expert verification error rate.
    pub fn expert_error(mut self, rate: f64) -> Self {
        self.expert_error = rate;
        self
    }

    /// Enables or disables the synthetic dataset.
    pub fn synthesize(mut self, on: bool) -> Self {
        self.synthesize = on;
        self
    }

    /// Sets the cap on synthetic patches per natural patch.
    pub fn synth_cap(mut self, cap: usize) -> Self {
        self.synth_cap = cap;
        self
    }

    /// Sets the pipeline seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the worker-thread count for the parallel pipeline stages
    /// (overriding `PATCHDB_THREADS`); `0` clamps to `1`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// Everything the construction produced.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BuildReport {
    /// The assembled dataset.
    pub db: PatchDb,
    /// Per-round Table II rows.
    pub rounds: Vec<AugmentationRound>,
    /// Size of the wild pool the sets were sampled from.
    pub wild_total: usize,
    /// Commits the oracle was asked to verify (human effort).
    pub verification_effort: usize,
    /// Span tree + metrics of this build, present iff tracing was on
    /// (`PATCHDB_TRACE=1` or `obs::set_enabled(true)`) when the build
    /// started. Purely observational: the dataset bytes are identical
    /// with or without it.
    pub telemetry: Option<BuildTelemetry>,
}

/// The observability section of a [`BuildReport`]: a snapshot of the
/// `rt::obs` registry taken right after the build's root span closed.
#[derive(Debug, Clone)]
pub struct BuildTelemetry {
    /// Spans, counters and histograms recorded during the build.
    pub trace: TraceReport,
}

impl BuildTelemetry {
    /// Schema tag stamped into [`BuildTelemetry::to_json`], dispatched on
    /// by the `check-bench-json` validator.
    pub const SCHEMA: &'static str = "patchdb-trace/v1";

    /// Serializes as the `TRACE_build.json` document: stable key order,
    /// durations only (never timestamps-of-day).
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.trace.to_json() else {
            unreachable!("TraceReport::to_json returns an object");
        };
        let mut all = vec![("schema".to_owned(), Json::Str(Self::SCHEMA.to_owned()))];
        all.append(&mut fields);
        Json::Obj(all)
    }
}

impl PatchDb {
    /// Runs the full construction pipeline against a synthetic forge.
    pub fn build(options: &BuildOptions) -> BuildReport {
        let forge = GitHubForge::generate(&options.corpus);
        Self::build_on(&forge, options)
    }

    /// Runs the pipeline against an existing forge (lets callers reuse one
    /// forge across experiments).
    ///
    /// The per-commit materialize+extract pass and the synthesis pass fan
    /// out across `PATCHDB_THREADS` workers (order-preserving, so output
    /// is byte-identical at any thread count); the verification oracle is
    /// always consulted serially, in deterministic candidate order.
    pub fn build_on(forge: &GitHubForge, options: &BuildOptions) -> BuildReport {
        // One build owns the whole trace: start from an empty registry so
        // the report covers exactly this run. With tracing off this is
        // two relaxed loads and nothing else.
        let tracing = obs::enabled();
        if tracing {
            obs::reset();
        }
        let build_span = obs::span("build");

        let threads = options.threads.unwrap_or_else(|| par::configured_threads(16));
        let contexts: HashMap<&str, RepoContext> = forge
            .repos()
            .iter()
            .map(|r| {
                (
                    r.name.as_str(),
                    RepoContext { total_files: r.total_files, total_functions: r.total_functions },
                )
            })
            .collect();

        // ── Step 1: the NVD-based dataset.
        let stage = obs::span("mine_nvd");
        let mined = mine_nvd(forge);
        let mut nvd_records = Vec::with_capacity(mined.patches.len());
        for m in &mined.patches {
            let ctx = contexts.get(m.repo.as_str());
            let truth = forge
                .find_commit(&m.repo, &m.commit)
                .and_then(|(_, c)| c.kind.category());
            nvd_records.push(PatchRecord {
                commit: m.commit,
                repo: m.repo.clone(),
                cve_id: Some(m.cve_id.clone()),
                message: m.patch.message.clone(),
                features: extract(&m.patch, ctx),
                patch: m.patch.clone(),
                source: Source::Nvd,
                truth_category: truth,
            });
        }

        obs::counter_add("build.nvd_records", nvd_records.len() as u64);
        drop(stage);

        // ── Step 2: wild collection and pool sampling.
        let stage = obs::span("collect_wild");
        let wild = collect_wild(forge, &mined.claimed_ids());
        let total_pool: usize = options.pools.iter().map(|p| p.size).sum();
        let sampled = sample_wild(&wild, total_pool.min(wild.len()), options.seed ^ 0x9e37);

        // Features for every pooled wild commit (cleaned patches; commits
        // with no C/C++ content keep their raw patch features). Each
        // commit is materialized exactly once here and the cleaned patch
        // kept, so record assembly below never re-materializes.
        let universe: Vec<&WildCommit> = sampled.iter().collect();
        let prepared: Vec<(FeatureVector, Patch)> = par::map_chunked(&sampled, threads, |w| {
            let change = forge.materialize(w.commit);
            let patch = change.patch.retain_c_files().unwrap_or(change.patch);
            (extract(&patch, Some(&w.repo_context())), patch)
        });
        let (universe_features, universe_patches): (Vec<FeatureVector>, Vec<Patch>) =
            prepared.into_iter().unzip();

        // Carve the universe into the configured pools, in order.
        let mut pools = Vec::new();
        let mut cursor = 0usize;
        for plan in &options.pools {
            let end = (cursor + plan.size).min(universe.len());
            pools.push(PoolSpec {
                name: plan.name.clone(),
                members: (cursor..end).collect(),
                rounds: plan.rounds,
            });
            cursor = end;
        }
        obs::counter_add("build.wild_total", wild.len() as u64);
        obs::counter_add("build.sampled", sampled.len() as u64);
        drop(stage);

        // ── Step 3: nearest-link augmentation with expert verification.
        let stage = obs::span("augment");
        let oracle = VerificationOracle::new(options.expert_error, options.seed ^ 0x0c1e);
        let seed_features: Vec<FeatureVector> =
            nvd_records.iter().map(|r| r.features).collect();
        let nls_cfg = NlsConfig { threads, ..NlsConfig::auto() };
        let (rounds, sec_idx, nonsec_idx) =
            augment_rounds_with(&seed_features, &universe_features, &pools, &nls_cfg, |i| {
                oracle.verify(universe[i].commit)
            });
        drop(stage);

        // ── Record assembly for the augmented sets (synthesis below
        // consumes these records, so assembly runs first).
        let stage = obs::span("assemble");
        let to_record = |i: usize, source: Source| -> PatchRecord {
            let w = universe[i];
            let patch = universe_patches[i].clone();
            PatchRecord {
                commit: w.commit.id,
                repo: w.repo.name.clone(),
                cve_id: None,
                message: patch.message.clone(),
                features: universe_features[i],
                patch,
                source,
                truth_category: w.commit.kind.category(),
            }
        };
        let wild_records: Vec<PatchRecord> =
            sec_idx.iter().map(|&i| to_record(i, Source::Wild)).collect();
        let nonsec_records: Vec<PatchRecord> =
            nonsec_idx.iter().map(|&i| to_record(i, Source::NonSecurity)).collect();
        obs::counter_add("build.wild_records", wild_records.len() as u64);
        obs::counter_add("build.nonsecurity_records", nonsec_records.len() as u64);
        drop(stage);

        // ── Step 4: the synthetic dataset. Each source record is an
        // independent synthesis job; fan them out in input order (the
        // flattened result is then identical to the serial loop).
        let stage = obs::span("synthesize");
        let mut synthetic = Vec::new();
        if options.synthesize {
            let synth_opts = SynthOptions {
                max_per_patch: options.synth_cap,
                ..SynthOptions::default()
            };
            let jobs: Vec<(&PatchRecord, bool)> = nvd_records
                .iter()
                .chain(&wild_records)
                .map(|r| (r, true))
                .chain(nonsec_records.iter().map(|r| (r, false)))
                .collect();
            let batches: Vec<Vec<SyntheticRecord>> =
                par::map_chunked(&jobs, threads, |&(record, is_security)| {
                    let Some((_, commit)) = forge.find_commit(&record.repo, &record.commit)
                    else {
                        return Vec::new();
                    };
                    let change = forge.materialize(commit);
                    synthesize(
                        &record.patch,
                        &change.before_files,
                        &change.after_files,
                        &synth_opts,
                    )
                    .into_iter()
                    .map(|s| {
                        let features = extract(&s.patch, contexts.get(record.repo.as_str()));
                        SyntheticRecord {
                            patch: s.patch,
                            derived_from: record.commit,
                            is_security,
                            features,
                        }
                    })
                    .collect()
                });
            synthetic = batches.into_iter().flatten().collect();
        }
        obs::counter_add("build.synthetic_records", synthetic.len() as u64);
        drop(stage);

        let effort = oracle.effort();
        drop(build_span); // close the root before snapshotting its duration
        let telemetry = tracing.then(|| BuildTelemetry { trace: obs::report() });
        BuildReport {
            db: PatchDb {
                nvd: nvd_records,
                wild: wild_records,
                non_security: nonsec_records,
                synthetic,
            },
            rounds,
            wild_total: wild.len(),
            verification_effort: effort,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BuildReport {
        PatchDb::build(&BuildOptions::tiny(9))
    }

    #[test]
    fn pipeline_produces_all_components() {
        let r = report();
        let s = r.db.stats();
        assert!(s.nvd_security > 10, "nvd {}", s.nvd_security);
        assert!(s.wild_security > 10, "wild {}", s.wild_security);
        assert!(s.non_security > 20, "nonsec {}", s.non_security);
        assert!(s.synthetic_security > 0);
        assert!(s.synthetic_non_security > 0);
        assert_eq!(r.rounds.len(), 3);
    }

    #[test]
    fn nvd_records_carry_cves_wild_ones_do_not() {
        let r = report();
        assert!(r.db.nvd.iter().all(|p| p.cve_id.is_some()));
        assert!(r.db.wild.iter().all(|p| p.cve_id.is_none()));
    }

    #[test]
    fn augmentation_beats_base_rate() {
        let r = report();
        // Base security rate in the tiny corpus is 8%; the nearest link
        // rounds must do substantially better on average.
        let mean_ratio: f64 =
            r.rounds.iter().map(|x| x.ratio).sum::<f64>() / r.rounds.len() as f64;
        assert!(mean_ratio > 0.16, "mean NLS ratio {mean_ratio}");
    }

    #[test]
    fn wild_records_are_truly_security_with_perfect_oracle() {
        let r = report();
        // tiny options use a perfect oracle, so every wild record has a
        // ground-truth category.
        assert!(r.db.wild.iter().all(|p| p.truth_category.is_some()));
        assert!(r.db.non_security.iter().all(|p| p.truth_category.is_none()));
    }

    #[test]
    fn effort_equals_candidates() {
        let r = report();
        let candidates: usize = r.rounds.iter().map(|x| x.candidates).sum();
        assert_eq!(r.verification_effort, candidates);
    }

    #[test]
    fn build_is_deterministic() {
        let a = PatchDb::build(&BuildOptions::tiny(4));
        let b = PatchDb::build(&BuildOptions::tiny(4));
        assert_eq!(a.db.stats(), b.db.stats());
        assert_eq!(
            a.db.wild.iter().map(|p| p.commit).collect::<Vec<_>>(),
            b.db.wild.iter().map(|p| p.commit).collect::<Vec<_>>()
        );
    }

    #[test]
    fn builder_setters_compose_and_threads_pin_output() {
        let options = BuildOptions::tiny(4)
            .synthesize(false)
            .expert_error(0.5)
            .synth_cap(9)
            .seed(11)
            .threads(0); // clamps to 1
        assert!(!options.synthesize);
        assert_eq!(options.expert_error, 0.5);
        assert_eq!(options.synth_cap, 9);
        assert_eq!(options.seed, 11);
        assert_eq!(options.threads, Some(1));

        let one = PatchDb::build(&BuildOptions::tiny(4).synthesize(false).threads(1));
        let eight = PatchDb::build(&BuildOptions::tiny(4).synthesize(false).threads(8));
        assert_eq!(
            one.db.to_json().unwrap(),
            eight.db.to_json().unwrap(),
            "thread count leaked into output bytes"
        );
    }
}

