//! The in-memory query index: everything hot paths need, precomputed at
//! load time so no request ever re-parses or re-fits anything.

use std::path::Path;

use patch_core::{CommitId, Patch};
use patchdb::{
    classify_patch, signatures_of, DatasetStats, Error, PatchDb, PatchRecord, PresenceVerdict,
    SignatureSet, Source, ALL_CATEGORIES,
};
use patchdb_features::{apply_weights, extract, learn_weights, Weights};
use patchdb_ml::{Classifier, Dataset, RandomForest};
use patchdb_rt::json::Json;
use patchdb_rt::obs;

use crate::snapshot::Snapshot;

/// What a scan response names for one signature: the commit it was
/// compiled from and that patch's CVE id.
#[derive(Debug, Clone)]
pub(crate) struct SignatureEntry {
    pub(crate) commit: CommitId,
    pub(crate) cve_id: Option<String>,
}

/// The served signatures: one entry each, and every shape compiled into
/// one [`SignatureSet`] in the same order — the index's only copy of the
/// shapes.
#[derive(Debug, Clone)]
pub(crate) struct Signatures {
    pub(crate) entries: Vec<SignatureEntry>,
    pub(crate) set: SignatureSet,
}

/// One vulnerable-clone hit from [`ServeIndex::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanMatch {
    /// Commit of the security patch whose vulnerable shape matched.
    pub commit: CommitId,
    /// Its CVE id, when NVD-sourced (`None` for silent fixes).
    pub cve_id: Option<String>,
}

/// Everything [`ServeIndex::scan`] learned about one target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Vulnerable-clone hits (the interesting ones), in index order.
    pub matches: Vec<ScanMatch>,
    /// Signatures whose *fix* shape matched: the patch is present.
    pub patched: usize,
}

/// The part of a dataset a server answers from: its natural records
/// and the counts of its synthetic ones.
///
/// Synthetic records are Table IV training data that no endpoint
/// returns; `/v1/stats` reads only how many there are. So they are
/// counted and dropped, and [`ServedDb::stats`] still equals
/// [`PatchDb::stats`] of the dataset this view was made from.
#[derive(Debug, Clone)]
pub struct ServedDb {
    /// The natural records; its `synthetic` list is always empty.
    pub(crate) natural: PatchDb,
    pub(crate) synthetic_security: usize,
    pub(crate) synthetic_non_security: usize,
}

impl ServedDb {
    /// Counts `db`'s synthetic records, then frees them.
    pub(crate) fn new(mut db: PatchDb) -> ServedDb {
        let stats = db.stats();
        db.synthetic = Vec::new();
        ServedDb {
            natural: db,
            synthetic_security: stats.synthetic_security,
            synthetic_non_security: stats.synthetic_non_security,
        }
    }

    /// Headline counts of the source dataset, synthetic counts included.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            synthetic_security: self.synthetic_security,
            synthetic_non_security: self.synthetic_non_security,
            ..self.natural.stats()
        }
    }

    /// NVD-based security patches.
    pub fn nvd(&self) -> &[PatchRecord] {
        &self.natural.nvd
    }

    /// Wild-based security patches.
    pub fn wild(&self) -> &[PatchRecord] {
        &self.natural.wild
    }

    /// Cleaned non-security patches.
    pub fn non_security(&self) -> &[PatchRecord] {
        &self.natural.non_security
    }

    /// Every natural record, as [`PatchDb::records`].
    pub fn records(&self) -> impl Iterator<Item = &PatchRecord> {
        self.natural.records()
    }

    /// All natural security patches (NVD + wild).
    pub fn security_patches(&self) -> impl Iterator<Item = &PatchRecord> {
        self.natural.security_patches()
    }

    /// Looks up a natural record as [`PatchDb::find_patch`].
    pub(crate) fn find_patch(&self, id: &str) -> Option<&PatchRecord> {
        self.natural.find_patch(id)
    }
}

/// The server's read-only view of a built dataset: its natural records
/// and headline counts ([`ServedDb`]), a pre-fit random-forest security
/// identifier over weighted Table I features, and the precompiled
/// vulnerability-signature index.
///
/// Built once at load time; shared immutably by every worker thread.
pub struct ServeIndex {
    db: ServedDb,
    weights: Weights,
    forest: Option<RandomForest>,
    signatures: Signatures,
}

impl ServeIndex {
    /// Seed of the served identifier model. Fixed so that two servers
    /// over the same dataset answer identically (the determinism test
    /// relies on this), independent of any pipeline seed.
    pub const MODEL_SEED: u64 = 0x5e7e;

    /// Number of trees / depth bound of the served forest — the Table VI
    /// configuration.
    const FOREST_SHAPE: (usize, usize) = (24, 10);

    /// Precomputes the index from a built dataset: counts and frees the
    /// synthetic records, learns the Table I feature weights over the
    /// natural records, fits the random-forest identifier (security vs
    /// non-security), and compiles the vulnerability signatures of every
    /// security patch.
    pub fn build(db: PatchDb) -> ServeIndex {
        let _build = obs::span("serve.index.build");
        let db = ServedDb::new(db);
        let weights = {
            let _s = obs::span("serve.index.learn_weights");
            learn_weights(db.records().map(|r| &r.features))
        };
        let forest = {
            let _s = obs::span("serve.index.fit_forest");
            let rows: Vec<Vec<f64>> = db
                .records()
                .map(|r| apply_weights(&r.features, &weights).as_slice().to_vec())
                .collect();
            let labels: Vec<bool> =
                db.records().map(|r| r.source != Source::NonSecurity).collect();
            let n_pos = labels.iter().filter(|&&l| l).count();
            // A one-class dataset can't train a discriminator; the identify
            // endpoint then reports the uninformative 0.5 rather than lying.
            (n_pos > 0 && n_pos < labels.len())
                .then(|| {
                    Dataset::new(rows, labels).ok().map(|data| {
                        let (trees, depth) = Self::FOREST_SHAPE;
                        let mut rf = RandomForest::new(trees, depth, Self::MODEL_SEED);
                        rf.fit(&data);
                        rf
                    })
                })
                .flatten()
        };

        let signatures = {
            let _s = obs::span("serve.index.compile_signatures");
            let mut set = SignatureSet::builder();
            let mut entries = Vec::new();
            for r in db.security_patches() {
                for signature in signatures_of(&r.patch) {
                    set.push(&signature.vulnerable, &signature.fixed);
                    entries.push(SignatureEntry {
                        commit: signature.commit,
                        cve_id: r.cve_id.clone(),
                    });
                }
            }
            Signatures { entries, set: set.build() }
        };

        ServeIndex { db, weights, forest, signatures }
    }

    /// Reassembles an index from already-built parts — the snapshot
    /// loader, which must never re-run the learning pipeline.
    pub(crate) fn from_parts(
        db: ServedDb,
        weights: Weights,
        forest: Option<RandomForest>,
        signatures: Signatures,
    ) -> ServeIndex {
        ServeIndex { db, weights, forest, signatures }
    }

    /// Read access to every built part, for the snapshot encoder.
    pub(crate) fn parts(
        &self,
    ) -> (&ServedDb, &Weights, Option<&RandomForest>, &Signatures) {
        (&self.db, &self.weights, self.forest.as_ref(), &self.signatures)
    }

    /// Persists the built index as a binary snapshot
    /// ([`Snapshot::SCHEMA`]); a server booted from it answers
    /// byte-identically to this one.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        Snapshot::encode(self).write_to(path)
    }

    /// Loads an index from a binary snapshot ([`Snapshot::SCHEMA`])
    /// without running any of the learning pipeline.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read; [`Error::Schema`]
    /// when it is not a well-formed snapshot (wrong magic, an older or
    /// unknown schema, truncated, a count larger than the file, failing
    /// its checksum, or a record under another source's list).
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<ServeIndex, Error> {
        Snapshot::read_from(path)?.decode()
    }

    /// The indexed dataset: its natural records and headline counts.
    pub fn db(&self) -> &ServedDb {
        &self.db
    }

    /// Number of precompiled signatures.
    pub fn signature_count(&self) -> usize {
        self.signatures.entries.len()
    }

    /// The weighted feature row the identifier scores — the request-time
    /// half of the Section III-B-2 weighting scheme.
    pub fn weighted_features(&self, patch: &Patch) -> Vec<f64> {
        apply_weights(&extract(patch, None), &self.weights).as_slice().to_vec()
    }

    /// Scores weighted feature rows with the pre-fit forest, in row
    /// order. Each row is scored on its own, so a row's score never
    /// depends on which rows share the call.
    pub fn score_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        match &self.forest {
            Some(f) => rows.iter().map(|r| f.predict_proba(r)).collect(),
            None => vec![0.5; rows.len()],
        }
    }

    /// Tests a target source text against every precompiled vulnerability
    /// signature, in one walk of the compiled set per target token.
    pub fn scan(&self, target: &str) -> ScanOutcome {
        let Signatures { entries, set } = &self.signatures;
        let scan = set.scan(target);
        let mut outcome = ScanOutcome::default();
        for (entry, verdict) in entries.iter().zip(scan.verdicts) {
            match verdict {
                PresenceVerdict::Vulnerable => outcome
                    .matches
                    .push(ScanMatch { commit: entry.commit, cve_id: entry.cve_id.clone() }),
                PresenceVerdict::Patched => outcome.patched += 1,
                PresenceVerdict::NotApplicable => {}
            }
        }
        obs::counter_add("serve.scan.signatures_tested", entries.len() as u64);
        obs::counter_add("serve.scan.walk_steps", scan.walk_steps as u64);
        obs::counter_add("serve.scan.relexed_windows", scan.relexed_windows as u64);
        obs::counter_add("serve.scan.matches", outcome.matches.len() as u64);
        outcome
    }

    /// The `/v1/stats` document: headline counts, signature count, and
    /// the ground-truth category distribution in Table V order.
    pub fn stats_json(&self) -> Json {
        let s = self.db.stats();
        let (category_counts, labeled) =
            PatchDb::category_counts(self.db.security_patches());
        let total = labeled.max(1) as f64;
        let categories = ALL_CATEGORIES
            .into_iter()
            .map(|c| {
                let n = category_counts.get(&c).copied().unwrap_or(0);
                (c.label().to_owned(), Json::Num(n as f64 / total))
            })
            .collect();
        Json::Obj(vec![
            ("nvd_security".into(), Json::Num(s.nvd_security as f64)),
            ("wild_security".into(), Json::Num(s.wild_security as f64)),
            ("non_security".into(), Json::Num(s.non_security as f64)),
            ("synthetic_security".into(), Json::Num(s.synthetic_security as f64)),
            (
                "synthetic_non_security".into(),
                Json::Num(s.synthetic_non_security as f64),
            ),
            ("signatures".into(), Json::Num(self.signature_count() as f64)),
            ("categories".into(), Json::Obj(categories)),
        ])
    }

    /// The `/v1/patch/<id>` document, `None` when the id resolves to no
    /// unique record.
    pub fn patch_json(&self, id: &str) -> Option<Json> {
        self.db.find_patch(id).map(render_patch)
    }

    /// The `/v1/classify` document for one parsed patch.
    pub fn classify_json(&self, patch: &Patch) -> Json {
        let category = classify_patch(patch);
        Json::Obj(vec![
            ("type_id".into(), Json::Num(category.type_id() as f64)),
            ("label".into(), Json::Str(category.label().to_owned())),
        ])
    }
}

/// The `/v1/patch/<id>` record document.
fn render_patch(r: &PatchRecord) -> Json {
    let source = match r.source {
        Source::Nvd => "nvd",
        Source::Wild => "wild",
        Source::NonSecurity => "non-security",
    };
    Json::Obj(vec![
        ("commit".into(), Json::Str(r.patch.commit.to_string())),
        ("repo".into(), Json::Str(r.repo.clone())),
        (
            "cve_id".into(),
            r.cve_id.as_ref().map_or(Json::Null, |c| Json::Str(c.clone())),
        ),
        ("source".into(), Json::Str(source.into())),
        ("message".into(), Json::Str(r.patch.message.clone())),
        (
            "category".into(),
            r.truth_category
                .map_or(Json::Null, |c| Json::Str(c.label().to_owned())),
        ),
        ("patch".into(), Json::Str(r.patch.to_unified_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchdb::BuildOptions;
    use std::sync::OnceLock;

    /// The tiny seed-5 dataset's own counts and its index. Synthesis
    /// stays on, so the synthetic counts the index keeps are nonzero.
    fn fixture() -> &'static (DatasetStats, ServeIndex) {
        static FIXTURE: OnceLock<(DatasetStats, ServeIndex)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let db = PatchDb::build(&BuildOptions::tiny(5)).db;
            (db.stats(), ServeIndex::build(db))
        })
    }

    fn index() -> &'static ServeIndex {
        &fixture().1
    }

    #[test]
    fn scores_separate_the_training_classes_on_average() {
        let ix = index();
        let sec_rows: Vec<Vec<f64>> = ix
            .db()
            .security_patches()
            .map(|r| ix.weighted_features(&r.patch))
            .collect();
        let nonsec_rows: Vec<Vec<f64>> = ix
            .db()
            .non_security()
            .iter()
            .map(|r| ix.weighted_features(&r.patch))
            .collect();
        let mean = |rows: &[Vec<f64>]| {
            let s: f64 = ix.score_rows(rows).iter().sum();
            s / rows.len().max(1) as f64
        };
        let (sec, nonsec) = (mean(&sec_rows), mean(&nonsec_rows));
        assert!(
            sec > nonsec + 0.2,
            "identifier does not separate classes: sec {sec:.3} vs nonsec {nonsec:.3}"
        );
    }

    /// A record's pre-patch text: every line of its hunks but the added.
    fn before_text(r: &PatchRecord) -> String {
        r.patch
            .hunks()
            .flat_map(|h| h.lines.iter().filter(|l| l.kind != patch_core::LineKind::Added))
            .map(|l| l.content.clone() + "\n")
            .collect()
    }

    #[test]
    fn scan_flags_a_vulnerable_clone_of_an_indexed_patch() {
        let ix = index();
        // Reconstruct a pre-patch body from some indexed signature by
        // scanning each record's own BEFORE content: a record's own
        // vulnerable text must match its own signature.
        let mut hits = 0;
        for r in ix.db().security_patches().take(50) {
            hits += usize::from(!ix.scan(&before_text(r)).matches.is_empty());
        }
        assert!(hits > 0, "no record's own pre-patch body matched its signature");
    }

    #[test]
    fn scan_names_what_each_signature_tests_alone() {
        let ix = index();
        let sigs: Vec<(&PatchRecord, patchdb::PatchSignature)> = ix
            .db()
            .security_patches()
            .flat_map(|r| signatures_of(&r.patch).into_iter().map(move |s| (r, s)))
            .collect();
        let mut named = 0;
        for r in ix.db().security_patches().step_by(5).take(8) {
            let before = before_text(r);
            let mut want = ScanOutcome::default();
            for (r, s) in &sigs {
                match patchdb::test_presence(s, &before) {
                    PresenceVerdict::Vulnerable => want
                        .matches
                        .push(ScanMatch { commit: s.commit, cve_id: r.cve_id.clone() }),
                    PresenceVerdict::Patched => want.patched += 1,
                    PresenceVerdict::NotApplicable => {}
                }
            }
            named += want.matches.len();
            assert_eq!(ix.scan(&before), want);
        }
        assert!(named > 0, "no scan named a signature");
    }

    #[test]
    fn stats_json_counts_match_the_dataset() {
        let (input, ix) = fixture();
        assert!(input.synthetic_security > 0 && input.synthetic_non_security > 0, "{input}");
        assert_eq!(ix.db().stats(), *input);
        let json = ix.stats_json();
        let count = |key: &str| json.get(key).and_then(Json::as_f64);
        for (key, want) in [
            ("nvd_security", input.nvd_security),
            ("wild_security", input.wild_security),
            ("non_security", input.non_security),
            ("synthetic_security", input.synthetic_security),
            ("synthetic_non_security", input.synthetic_non_security),
            ("signatures", ix.signature_count()),
        ] {
            assert_eq!(count(key), Some(want as f64), "{key}");
        }
        assert!(ix.signature_count() > 0);
    }

    #[test]
    fn patch_lookup_round_trips_by_prefix() {
        let ix = index();
        let first = ix.db().nvd().first().expect("tiny build has NVD records");
        let hex = first.patch.commit.to_string();
        let json = ix.patch_json(&hex[..12]).expect("unique 12-char prefix resolves");
        assert_eq!(json.get("commit").and_then(Json::as_str), Some(hex.as_str()));
        assert!(ix.patch_json("zz").is_none());
    }

    #[test]
    fn one_class_dataset_scores_uninformative() {
        let db = PatchDb::default();
        let ix = ServeIndex::build(db);
        assert_eq!(ix.score_rows(&[vec![0.0; 60]]), vec![0.5]);
    }
}
