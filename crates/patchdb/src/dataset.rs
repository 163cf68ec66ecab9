//! The PatchDB container: records, statistics, and JSON export.

use std::collections::HashMap;
use std::fmt;

use patch_core::{CommitId, Patch};
use patchdb_corpus::PatchCategory;
use patchdb_features::FeatureVector;
use patchdb_rt::json::{self, FromJson, Json, JsonError, ToJson, Writer};

use crate::error::Error;

/// Which component of PatchDB a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Mined from NVD `Patch` hyperlinks.
    Nvd,
    /// Found in the wild via nearest link search + verification.
    Wild,
    /// Verified non-security (the cleaned negative set).
    NonSecurity,
}

/// One natural patch in the dataset. Its commit hash (every natural
/// patch is "accessible on GitHub") and commit message are those of
/// [`PatchRecord::patch`], stored there only.
#[derive(Debug, Clone)]
pub struct PatchRecord {
    /// Repository the commit lives in.
    pub repo: String,
    /// CVE id, for NVD-sourced records.
    pub cve_id: Option<String>,
    /// The cleaned (C/C++-only) patch, with its commit hash and message.
    pub patch: Patch,
    /// Table I features, unweighted.
    pub features: FeatureVector,
    /// Which component the record belongs to.
    pub source: Source,
    /// Ground-truth Table V category (available because the corpus is
    /// synthetic; the real PatchDB has this only for a hand-labeled 5K
    /// subset). `None` for non-security records.
    pub truth_category: Option<PatchCategory>,
}

/// One synthetic patch derived from a natural one.
#[derive(Debug, Clone)]
pub struct SyntheticRecord {
    /// The synthetic patch.
    pub patch: Patch,
    /// Commit id of the natural patch it was derived from.
    pub derived_from: CommitId,
    /// Whether the base patch was a security patch.
    pub is_security: bool,
    /// Table I features of the synthetic patch.
    pub features: FeatureVector,
}

/// The assembled PatchDB.
#[derive(Debug, Clone, Default)]
pub struct PatchDb {
    /// NVD-based security patches.
    pub nvd: Vec<PatchRecord>,
    /// Wild-based security patches (silent fixes found by augmentation).
    pub wild: Vec<PatchRecord>,
    /// Cleaned non-security patches.
    pub non_security: Vec<PatchRecord>,
    /// Synthetic patches (both classes).
    pub synthetic: Vec<SyntheticRecord>,
}

/// Headline counts, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    /// |NVD-based security patches|.
    pub nvd_security: usize,
    /// |wild-based security patches|.
    pub wild_security: usize,
    /// |cleaned non-security patches|.
    pub non_security: usize,
    /// |synthetic security patches|.
    pub synthetic_security: usize,
    /// |synthetic non-security patches|.
    pub synthetic_non_security: usize,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NVD + {} wild security ({} total), {} non-security, {}+{} synthetic",
            self.nvd_security,
            self.wild_security,
            self.nvd_security + self.wild_security,
            self.non_security,
            self.synthetic_security,
            self.synthetic_non_security
        )
    }
}

impl PatchDb {
    /// Headline counts.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            nvd_security: self.nvd.len(),
            wild_security: self.wild.len(),
            non_security: self.non_security.len(),
            synthetic_security: self.synthetic.iter().filter(|s| s.is_security).count(),
            synthetic_non_security: self.synthetic.iter().filter(|s| !s.is_security).count(),
        }
    }

    /// All natural security patches (NVD + wild).
    pub fn security_patches(&self) -> impl Iterator<Item = &PatchRecord> {
        self.nvd.iter().chain(self.wild.iter())
    }

    /// Raw ground-truth category counts over a set of records, plus the
    /// number of labeled records: the un-normalized statistic behind
    /// [`PatchDb::category_distribution`].
    pub fn category_counts<'a, I>(records: I) -> (HashMap<PatchCategory, usize>, usize)
    where
        I: IntoIterator<Item = &'a PatchRecord>,
    {
        let mut counts: HashMap<PatchCategory, usize> = HashMap::new();
        let mut total = 0usize;
        for r in records {
            if let Some(c) = r.truth_category {
                *counts.entry(c).or_insert(0) += 1;
                total += 1;
            }
        }
        (counts, total)
    }

    /// Ground-truth category histogram over a set of records, normalized.
    pub fn category_distribution<'a, I>(records: I) -> HashMap<PatchCategory, f64>
    where
        I: IntoIterator<Item = &'a PatchRecord>,
    {
        let (counts, total) = Self::category_counts(records);
        counts
            .into_iter()
            .map(|(c, n)| (c, n as f64 / total.max(1) as f64))
            .collect()
    }

    /// Serializes the dataset to pretty JSON (the shape the real PatchDB
    /// release ships in).
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` keeps the seed-era signature so
    /// callers' `?` plumbing still works.
    pub fn to_json(&self) -> Result<String, Error> {
        Ok(json::to_pretty_string(self))
    }

    /// Deserializes a dataset from JSON.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] when the text is not JSON at all;
    /// [`Error::Schema`] when it is JSON of the wrong shape.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let json = Json::parse(text).map_err(Error::Parse)?;
        let db: PatchDb = FromJson::from_json(&json).map_err(|e| Error::Schema(e.to_string()))?;
        db.check_sources()?;
        Ok(db)
    }

    /// Checks that every natural record sits in the list its `source`
    /// names: the one fact both a record and its list state. Every
    /// importer runs it, since a record filed under `nvd` but tagged
    /// `NonSecurity` would count as NVD in [`PatchDb::stats`] yet train
    /// the served identifier as a negative.
    ///
    /// # Errors
    ///
    /// [`Error::Schema`] naming the first record whose `source`
    /// disagrees with its list.
    pub fn check_sources(&self) -> Result<(), Error> {
        for (list, records, want) in [
            ("nvd", &self.nvd, Source::Nvd),
            ("wild", &self.wild, Source::Wild),
            ("non_security", &self.non_security, Source::NonSecurity),
        ] {
            if let Some(i) = records.iter().position(|r| r.source != want) {
                return Err(Error::Schema(format!(
                    "{list}[{i}]: field 'source' is {:?} in the {list} list",
                    records[i].source
                )));
            }
        }
        Ok(())
    }

    /// Every natural record — NVD, wild, and non-security — in stable
    /// component order. Synthetic records are excluded (they have no
    /// commit of their own; see [`SyntheticRecord::derived_from`]).
    pub fn records(&self) -> impl Iterator<Item = &PatchRecord> {
        self.nvd.iter().chain(self.wild.iter()).chain(self.non_security.iter())
    }

    /// Looks up a natural record by full or prefix commit hex (case
    /// sensitive, at least 4 characters). Returns `None` when nothing
    /// matches or the prefix is ambiguous — the query surface must never
    /// silently pick one of several commits.
    pub fn find_patch(&self, id: &str) -> Option<&PatchRecord> {
        if id.len() < 4 {
            return None;
        }
        let mut hits =
            self.records().filter(|r| hex_starts_with(&r.patch.commit, id.as_bytes()));
        let first = hits.next()?;
        hits.next().is_none().then_some(first)
    }
}

/// Whether the lowercase hex form of `commit` starts with `prefix`,
/// compared nibble by nibble without rendering the hex.
fn hex_starts_with(commit: &CommitId, prefix: &[u8]) -> bool {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = commit.as_bytes();
    prefix.len() <= 2 * bytes.len()
        && prefix.iter().enumerate().all(|(i, &c)| {
            let byte = bytes[i / 2];
            let nibble = if i % 2 == 0 { byte >> 4 } else { byte & 0xf };
            HEX[nibble as usize] == c
        })
}

patchdb_rt::impl_json_unit_enum!(Source { Nvd, Wild, NonSecurity });

/// The export keeps serde's record shape, `commit` and `message` keys
/// included; both are written from the patch.
impl ToJson for PatchRecord {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("commit", &self.patch.commit);
        w.field("repo", &self.repo);
        w.field("cve_id", &self.cve_id);
        w.field("message", &self.patch.message);
        w.field("patch", &self.patch);
        w.field("features", &self.features);
        w.field("source", &self.source);
        w.field("truth_category", &self.truth_category);
        w.end_object();
    }
}

/// Rejects a record whose `commit` or `message` key differs from its
/// patch's: one of the two copies would otherwise be silently dropped.
impl FromJson for PatchRecord {
    fn from_json(v: &Json) -> json::Result<Self> {
        let patch: Patch = json::field(v, "patch")?;
        let commit: CommitId = json::field(v, "commit")?;
        if commit != patch.commit {
            return Err(JsonError::new(format!(
                "field 'commit': {commit} differs from the patch's {}",
                patch.commit
            )));
        }
        if json::field::<String>(v, "message")? != patch.message {
            return Err(JsonError::new("field 'message' differs from the patch's message"));
        }
        Ok(PatchRecord {
            repo: json::field(v, "repo")?,
            cve_id: json::field(v, "cve_id")?,
            patch,
            features: json::field(v, "features")?,
            source: json::field(v, "source")?,
            truth_category: json::field(v, "truth_category")?,
        })
    }
}
patchdb_rt::impl_to_from_json!(SyntheticRecord { patch, derived_from, is_security, features });
patchdb_rt::impl_to_from_json!(PatchDb { nvd, wild, non_security, synthetic });

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use patch_core::diff_files;
    use patchdb_rt::check::check;

    fn tiny_db() -> &'static PatchDb {
        static DB: OnceLock<PatchDb> = OnceLock::new();
        DB.get_or_init(|| PatchDb::build(&crate::BuildOptions::tiny(5).synthesize(false)).db)
    }

    /// The member `key` of a JSON object.
    fn member<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        match obj {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("expected an object, got {}", other.kind()),
        }
    }

    fn list<'a>(doc: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
        match member(doc, key) {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {}", other.kind()),
        }
    }

    fn string<'a>(obj: &'a mut Json, key: &str) -> &'a mut String {
        match member(obj, key) {
            Json::Str(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    fn record(source: Source, cat: Option<PatchCategory>) -> PatchRecord {
        let patch = Patch::builder("a".repeat(40))
            .message("m")
            .file(diff_files("x.c", "a();\n", "b();\n", 3))
            .build();
        PatchRecord {
            repo: "r".into(),
            cve_id: None,
            features: patchdb_features::extract(&patch, None),
            patch,
            source,
            truth_category: cat,
        }
    }

    #[test]
    fn stats_count_by_component() {
        let db = PatchDb {
            nvd: vec![record(Source::Nvd, Some(PatchCategory::BoundCheck))],
            wild: vec![
                record(Source::Wild, Some(PatchCategory::FunctionCall)),
                record(Source::Wild, Some(PatchCategory::NullCheck)),
            ],
            non_security: vec![record(Source::NonSecurity, None)],
            synthetic: vec![],
        };
        let s = db.stats();
        assert_eq!(s.nvd_security, 1);
        assert_eq!(s.wild_security, 2);
        assert_eq!(s.non_security, 1);
        assert_eq!(db.security_patches().count(), 3);
    }

    #[test]
    fn distribution_normalizes() {
        let records = vec![
            record(Source::Nvd, Some(PatchCategory::BoundCheck)),
            record(Source::Nvd, Some(PatchCategory::BoundCheck)),
            record(Source::Nvd, Some(PatchCategory::NullCheck)),
        ];
        let d = PatchDb::category_distribution(&records);
        assert!((d[&PatchCategory::BoundCheck] - 2.0 / 3.0).abs() < 1e-12);
        assert!((d[&PatchCategory::NullCheck] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn find_patch_resolves_unique_prefixes_only() {
        let db = PatchDb {
            nvd: vec![record(Source::Nvd, Some(PatchCategory::BoundCheck))],
            non_security: vec![record(Source::NonSecurity, None)],
            ..PatchDb::default()
        };
        assert_eq!(db.records().count(), 2);
        let full = db.nvd[0].patch.commit.to_string();
        // Full id and an 8-char prefix resolve; both test records share
        // the same commit ("a"*40), so the shared prefix is ambiguous
        // across components and must return None.
        assert!(db.find_patch(&full).is_none(), "ambiguous across components");
        let only = PatchDb {
            nvd: vec![record(Source::Nvd, Some(PatchCategory::BoundCheck))],
            ..PatchDb::default()
        };
        assert!(only.find_patch(&full).is_some());
        assert!(only.find_patch(&full[..8]).is_some());
        assert!(only.find_patch(&full[..3]).is_none(), "prefix too short");
        assert!(only.find_patch("ffff").is_none(), "no match");
    }

    /// The nibble matcher against the rule it replaced — render the hex,
    /// then `starts_with` — over every record of a tiny build, with
    /// prefixes of every length from 3 to 40 in lowercase, uppercase,
    /// and with a non-hex last character.
    #[test]
    fn find_patch_matches_the_rendered_hex_rule() {
        let db = tiny_db();
        let rendered: Vec<String> = db.records().map(|r| r.patch.commit.to_string()).collect();
        let old_rule = |id: &str| {
            if id.len() < 4 {
                return None;
            }
            let mut hits = db.records().zip(&rendered).filter(|(_, hex)| hex.starts_with(id));
            let (first, _) = hits.next()?;
            hits.next().is_none().then_some(first.patch.commit)
        };
        let mut resolved = 0;
        for (i, hex) in rendered.iter().enumerate() {
            let prefix = &hex[..3 + i % 38];
            let mut non_hex = prefix[..prefix.len() - 1].to_owned();
            non_hex.push('g');
            for id in [prefix.to_owned(), prefix.to_uppercase(), non_hex, hex[..4].to_owned()] {
                let got = db.find_patch(&id).map(|r| r.patch.commit);
                assert_eq!(got, old_rule(&id), "prefix {id:?}");
                resolved += got.is_some() as usize;
            }
        }
        assert!(resolved > rendered.len() / 2, "{resolved} of {} resolved", rendered.len());
        assert!(db.find_patch(&format!("{}0", rendered[0])).is_none(), "41 chars");
    }

    #[test]
    fn from_json_distinguishes_parse_from_schema_errors() {
        assert!(matches!(PatchDb::from_json("{not json"), Err(Error::Parse(_))));
        assert!(matches!(PatchDb::from_json("{\"nvd\": 3}"), Err(Error::Schema(_))));
    }

    /// The copies a record's JSON still carries must agree: a tiny
    /// build's export with one record's `commit` or `message` key
    /// changed, or one record moved to another source's list, is a
    /// schema error naming that field; the export left as it is
    /// re-exports byte for byte.
    #[test]
    fn import_rejects_disagreeing_copies_and_round_trips_the_rest() {
        const LISTS: [&str; 3] = ["nvd", "wild", "non_security"];
        let text = tiny_db().to_json().unwrap();
        let parsed = Json::parse(&text).unwrap();
        check("import_copies", 48, |g| {
            let mut doc = parsed.clone();
            let from = g.index(LISTS.len());
            let records = list(&mut doc, LISTS[from]);
            let i = g.index(records.len());
            let field = match g.usize_in(0, 3) {
                0 => None,
                1 => {
                    let hex = string(&mut records[i], "commit");
                    let at = g.index(hex.len());
                    let flipped = if hex.as_bytes()[at] == b'0' { "1" } else { "0" };
                    hex.replace_range(at..=at, flipped);
                    Some("commit")
                }
                2 => {
                    string(&mut records[i], "message").push(*g.pick(&['x', '\n', ' ']));
                    Some("message")
                }
                _ => {
                    let moved = records.remove(i);
                    let to = (from + g.usize_in(1, 2)) % LISTS.len();
                    let target = list(&mut doc, LISTS[to]);
                    let at = g.usize_in(0, target.len());
                    target.insert(at, moved);
                    Some("source")
                }
            };
            let got = PatchDb::from_json(&doc.to_pretty_string());
            match (field, got) {
                (None, Ok(db)) => {
                    assert!(db.to_json().unwrap() == text, "round trip changed bytes")
                }
                (Some(f), Err(Error::Schema(msg))) => {
                    assert!(msg.contains(&format!("field '{f}'")), "{f}: {msg}")
                }
                (f, got) => panic!("mutation {f:?} gave {:?}", got.map(|_| "a dataset")),
            }
        });
    }

    /// A rejected import names the list and position of the record at
    /// fault, under one `json error:` prefix.
    #[test]
    fn import_error_names_the_record_position() {
        let text = tiny_db().to_json().unwrap();
        let mut doc = Json::parse(&text).unwrap();
        let records = list(&mut doc, "wild");
        let k = records.len() - 1;
        assert!(k > 0, "the tiny export has several wild records");
        let hex = string(&mut records[k], "commit");
        let flipped = if hex.starts_with('0') { "1" } else { "0" };
        hex.replace_range(0..1, flipped);
        match PatchDb::from_json(&doc.to_pretty_string()) {
            Err(Error::Schema(msg)) => {
                let want = format!("json error: field 'wild': [{k}]: field 'commit': ");
                assert!(msg.starts_with(&want), "{msg}");
                assert_eq!(msg.matches("json error:").count(), 1, "{msg}");
            }
            other => panic!("a flipped commit gave {:?}", other.map(|_| "a dataset")),
        }
    }

    /// A record filed under `nvd` but tagged non-security would count as
    /// NVD in the stats yet train the served identifier as a negative.
    #[test]
    fn from_json_rejects_a_record_under_another_source_list() {
        let db = PatchDb {
            nvd: vec![record(Source::NonSecurity, None)],
            ..PatchDb::default()
        };
        match PatchDb::from_json(&db.to_json().unwrap()) {
            Err(Error::Schema(msg)) => assert!(msg.contains("nvd[0]: field 'source'"), "{msg}"),
            other => panic!("a misfiled record must be Error::Schema, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn json_round_trip() {
        let db = PatchDb {
            nvd: vec![record(Source::Nvd, Some(PatchCategory::Redesign))],
            ..PatchDb::default()
        };
        let json = db.to_json().unwrap();
        let back = PatchDb::from_json(&json).unwrap();
        assert_eq!(back.nvd.len(), 1);
        assert_eq!(back.nvd[0].patch.commit, db.nvd[0].patch.commit);
        assert_eq!(back.nvd[0].patch, db.nvd[0].patch);
    }
}
