//! Fix-pattern mining (Section V-A-2 / Table VII): summarize how security
//! patches fix their vulnerabilities, beyond the coarse 12-type taxonomy.
//!
//! The paper gives two example patterns discovered by eyeballing PatchDB —
//! race-condition fixes (wrap a vulnerable op in `lock`/`unlock`) and
//! data-leakage fixes (scrub/release the critical value after its last
//! use) — and argues a large dataset enables mining such patterns
//! automatically. This module is that miner: rule-driven recognizers over
//! hunk bodies, extensible with new patterns.

use clang_lite::{tokenize, TokenKind};
use patch_core::{LineKind, Patch};

/// A recognized fix pattern (Table VII and close cousins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixPattern {
    /// `+lock(cv); … vulnerable_op(cv); … +unlock(cv);` — atomicity added
    /// around an existing operation.
    RaceCondition,
    /// `+memset(cv, …)` / `+free(cv)` after the last use — scrub or
    /// release a critical value to stop leakage.
    DataLeakage,
    /// A guard (`if … return/goto`) inserted before an existing operation.
    GuardedOperation,
    /// An unsafe library call replaced by its bounded counterpart on the
    /// same line shape (`strcpy`→`strlcpy`, `sprintf`→`snprintf`, …).
    SaferCallSwap,
}

impl FixPattern {
    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            FixPattern::RaceCondition => "race condition (lock/unlock added)",
            FixPattern::DataLeakage => "data leakage (scrub/release added)",
            FixPattern::GuardedOperation => "guarded operation (check inserted)",
            FixPattern::SaferCallSwap => "safer call swap",
        }
    }
}

const LOCK_CALLS: &[&str] =
    &["lock", "mutex_lock", "spin_lock", "spin_lock_bh", "read_lock", "write_lock"];
const UNLOCK_CALLS: &[&str] = &[
    "unlock", "mutex_unlock", "spin_unlock", "spin_unlock_bh", "read_unlock", "write_unlock",
];
const SCRUB_CALLS: &[&str] =
    &["memset", "memzero_explicit", "free", "kfree", "kzfree", "vfree", "put_ref"];
const UNSAFE_TO_SAFE: &[(&str, &[&str])] = &[
    ("strcpy", &["strlcpy", "strncpy", "strscpy"]),
    ("strcat", &["strlcat", "strncat"]),
    ("sprintf", &["snprintf", "scnprintf"]),
    ("gets", &["fgets"]),
];

/// Mines the fix patterns realized by one security patch. A patch can
/// realize several (e.g. a guard plus a release).
pub fn mine_fix_patterns(patch: &Patch) -> Vec<FixPattern> {
    let mut out = Vec::new();
    for hunk in patch.hunks() {
        let added: Vec<&str> = hunk.added().map(|l| l.content.as_str()).collect();
        let removed: Vec<&str> = hunk.removed().map(|l| l.content.as_str()).collect();
        let context_exists = hunk.lines.iter().any(|l| l.kind == LineKind::Context);

        if has_race_pattern(&added, context_exists) {
            push_unique(&mut out, FixPattern::RaceCondition);
        }
        if has_scrub_pattern(&added) {
            push_unique(&mut out, FixPattern::DataLeakage);
        }
        if has_guard_pattern(&added) {
            push_unique(&mut out, FixPattern::GuardedOperation);
        }
        if has_safer_swap(&added, &removed) {
            push_unique(&mut out, FixPattern::SaferCallSwap);
        }
    }
    out
}

fn push_unique(v: &mut Vec<FixPattern>, p: FixPattern) {
    if !v.contains(&p) {
        v.push(p);
    }
}

/// Calls whose callee name ends with any of the suffixes.
fn added_calls_with_suffix(lines: &[&str], suffixes: &[&str]) -> usize {
    lines
        .iter()
        .flat_map(|l| {
            let toks = tokenize(l);
            let mut hits = 0usize;
            for w in toks.windows(2) {
                if w[0].kind == TokenKind::Ident
                    && w[1].is_punct("(")
                    && suffixes.iter().any(|s| {
                        w[0].text == *s || w[0].text.ends_with(&format!("_{s}"))
                    })
                {
                    hits += 1;
                }
            }
            std::iter::once(hits)
        })
        .sum()
}

/// Race pattern: both a lock and an unlock acquired in the added lines,
/// around surviving (context) code.
fn has_race_pattern(added: &[&str], context_exists: bool) -> bool {
    context_exists
        && added_calls_with_suffix(added, LOCK_CALLS) > 0
        && added_calls_with_suffix(added, UNLOCK_CALLS) > 0
}

/// Leakage pattern: a scrub/release call added (and not part of a guard).
fn has_scrub_pattern(added: &[&str]) -> bool {
    added
        .iter()
        .any(|l| !l.trim_start().starts_with("if") && {
            let toks = tokenize(l);
            toks.windows(2).any(|w| {
                w[0].kind == TokenKind::Ident
                    && w[1].is_punct("(")
                    && SCRUB_CALLS.contains(&w[0].text.as_str())
            })
        })
}

/// Guard pattern: an added `if` whose branch bails (`return`/`goto`).
fn has_guard_pattern(added: &[&str]) -> bool {
    let mut saw_if = false;
    for l in added {
        let t = l.trim_start();
        if t.starts_with("if") && tokenize(t).first().is_some_and(|tok| {
            matches!(tok.kind, TokenKind::Keyword(clang_lite::Keyword::If))
        }) {
            saw_if = true;
            if t.contains("return") || t.contains("goto") {
                return true;
            }
            continue;
        }
        if saw_if && (t.starts_with("return") || t.starts_with("goto")) {
            return true;
        }
        saw_if = false;
    }
    false
}

/// Safer-swap pattern: a removed unsafe call and an added safe variant.
fn has_safer_swap(added: &[&str], removed: &[&str]) -> bool {
    for (unsafe_call, safe_calls) in UNSAFE_TO_SAFE {
        let removed_unsafe = removed.iter().any(|l| {
            tokenize(l)
                .windows(2)
                .any(|w| w[0].text == *unsafe_call && w[1].is_punct("("))
        });
        let added_safe = added.iter().any(|l| {
            tokenize(l).windows(2).any(|w| {
                safe_calls.contains(&w[0].text.as_str()) && w[1].is_punct("(")
            })
        });
        if removed_unsafe && added_safe {
            return true;
        }
    }
    false
}

/// Mines a whole collection and returns `(pattern, count)` sorted by
/// frequency — the summary Section V-A-2 envisions building from PatchDB.
pub fn pattern_frequencies<'a, I>(patches: I) -> Vec<(FixPattern, usize)>
where
    I: IntoIterator<Item = &'a Patch>,
{
    let mut counts: std::collections::HashMap<FixPattern, usize> = std::collections::HashMap::new();
    for p in patches {
        for pat in mine_fix_patterns(p) {
            *counts.entry(pat).or_insert(0) += 1;
        }
    }
    let mut out: Vec<_> = counts.into_iter().collect();
    out.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch_core::diff_files;

    fn patch(before: &str, after: &str) -> Patch {
        Patch::builder("d".repeat(40))
            .file(diff_files("x.c", before, after, 3))
            .build()
    }

    #[test]
    fn detects_race_condition_fix() {
        let p = patch(
            "void f(struct s *cv) {\n    update(cv);\n}\n",
            "void f(struct s *cv) {\n    mutex_lock(&cv->lock);\n    update(cv);\n    mutex_unlock(&cv->lock);\n}\n",
        );
        assert!(mine_fix_patterns(&p).contains(&FixPattern::RaceCondition));
    }

    #[test]
    fn detects_data_leakage_fix() {
        let p = patch(
            "void f(char *key, int n) {\n    use(key);\n    return;\n}\n",
            "void f(char *key, int n) {\n    use(key);\n    memset(key, 0, n);\n    return;\n}\n",
        );
        let pats = mine_fix_patterns(&p);
        assert!(pats.contains(&FixPattern::DataLeakage), "{pats:?}");
    }

    #[test]
    fn detects_guard_fix() {
        let p = patch(
            "int f(int i, int n) {\n    buf[i] = 1;\n    return 0;\n}\n",
            "int f(int i, int n) {\n    if (i >= n)\n        return -1;\n    buf[i] = 1;\n    return 0;\n}\n",
        );
        assert!(mine_fix_patterns(&p).contains(&FixPattern::GuardedOperation));
    }

    #[test]
    fn detects_safer_swap() {
        let p = patch(
            "void f(char *d, char *s) {\n    strcpy(d, s);\n}\n",
            "void f(char *d, char *s) {\n    strlcpy(d, s, sizeof(d));\n}\n",
        );
        assert!(mine_fix_patterns(&p).contains(&FixPattern::SaferCallSwap));
    }

    #[test]
    fn clean_patch_matches_nothing() {
        let p = patch(
            "void f(void) {\n    a();\n}\n",
            "void f(void) {\n    b();\n}\n",
        );
        assert!(mine_fix_patterns(&p).is_empty());
    }

    #[test]
    fn lock_without_unlock_is_not_a_race_fix() {
        let p = patch(
            "void f(struct s *cv) {\n    update(cv);\n}\n",
            "void f(struct s *cv) {\n    mutex_lock(&cv->lock);\n    update(cv);\n}\n",
        );
        assert!(!mine_fix_patterns(&p).contains(&FixPattern::RaceCondition));
    }

    #[test]
    fn frequencies_sort_descending() {
        let guard = patch(
            "int f(int i, int n) {\n    buf[i] = 1;\n    return 0;\n}\n",
            "int f(int i, int n) {\n    if (i >= n)\n        return -1;\n    buf[i] = 1;\n    return 0;\n}\n",
        );
        let swap = patch(
            "void g(char *d, char *s) {\n    strcpy(d, s);\n}\n",
            "void g(char *d, char *s) {\n    strlcpy(d, s, 16);\n}\n",
        );
        let freqs = pattern_frequencies([&guard, &guard.clone(), &swap]);
        assert_eq!(freqs[0].0, FixPattern::GuardedOperation);
        assert_eq!(freqs[0].1, 2);
    }

    #[test]
    fn corpus_race_and_leak_generators_are_recognized() {
        use patchdb_corpus::{CorpusConfig, GitHubForge, PatchCategory};
        let forge = GitHubForge::generate(&CorpusConfig::with_total_commits(2000, 9));
        let mut race = 0;
        let mut leak = 0;
        for (_, c) in forge.all_commits() {
            if c.kind.category() == Some(PatchCategory::FunctionCall) {
                let change = forge.materialize(c);
                let pats = mine_fix_patterns(&change.patch);
                race += usize::from(pats.contains(&FixPattern::RaceCondition));
                leak += usize::from(pats.contains(&FixPattern::DataLeakage));
            }
        }
        assert!(race > 0, "no race-condition fixes recognized");
        assert!(leak > 0, "no data-leakage fixes recognized");
    }
}
