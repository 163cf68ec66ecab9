//! The Table I feature extractor: patch in, 60-dimensional vector out.

use std::collections::HashSet;

use clang_lite::{count_stats, tokenize, Abstractor, Canon, FragmentStats, Token, TokenKind};
use patch_core::{LineKind, Patch};

use crate::levenshtein::levenshtein;
use crate::vector::{FeatureVector, FEATURE_DIM};

/// Repository-level denominators for the "% of affected files/functions"
/// features (57–60 in Table I). The paper's extractor knows the repository
/// each patch came from; when mining supplies this context the percentages
/// are true ratios, otherwise they degrade to 1.0 (patch-local view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepoContext {
    /// Total number of files in the repository at the patch's commit.
    pub total_files: usize,
    /// Total number of function definitions in the repository.
    pub total_functions: usize,
}

/// Extracts the 60 Table I features from one patch.
///
/// Works on the patch text alone (hunks and their lines); the patch need
/// not apply to any file snapshot. `ctx` feeds the percentage features.
///
/// Each line is lexed once. Its tokens feed the statement and operator
/// counts and the signature heuristic, and are interned to `u32` ids by
/// one [`Abstractor`]. The ids give the raw Levenshtein distance and,
/// abstracted as lexed, each line's part of the abstracted hunk key. The
/// after-abstraction distance is defined on each side of the hunk joined
/// with spaces and re-lexed, which is the abstractor's joined mode.
pub fn extract(patch: &Patch, ctx: Option<&RepoContext>) -> FeatureVector {
    let mut f = [0.0f64; FEATURE_DIM];

    let n_hunks = patch.hunk_count();

    let mut added_lines = 0usize;
    let mut removed_lines = 0usize;
    let mut added_chars = 0usize;
    let mut removed_chars = 0usize;
    let mut added = FragmentStats::default();
    let mut removed = FragmentStats::default();
    let mut signature_delta = 0i64;

    let mut lev_raw = Vec::with_capacity(n_hunks);
    let mut lev_abs = Vec::with_capacity(n_hunks);
    let mut hunk_keys_raw = Vec::with_capacity(n_hunks);
    let mut hunk_keys_abs = Vec::with_capacity(n_hunks);

    // A hunk key is only ever compared with other hunks' keys, so a patch
    // of one hunk leaves its two keys empty.
    let keyed = n_hunks > 1;
    let mut abstractor = Abstractor::new();
    // This line's ids, and each side of the hunk: context plus removed
    // lines, context plus added lines.
    let (mut line, mut old, mut new) = (Vec::new(), Vec::new(), Vec::new());
    for h in patch.hunks() {
        old.clear();
        new.clear();
        let mut key_raw = String::new();
        let mut key_abs = String::new();
        for l in &h.lines {
            let toks = tokenize(&l.content);
            let signature = || i64::from(looks_like_signature(&l.content, &toks));
            match l.kind {
                LineKind::Added => {
                    added_lines += 1;
                    added_chars += l.content.len();
                    added.add(&count_stats(&toks));
                    signature_delta += signature();
                }
                LineKind::Removed => {
                    removed_lines += 1;
                    removed_chars += l.content.len();
                    removed.add(&count_stats(&toks));
                    signature_delta -= signature();
                }
                LineKind::Context => {}
            }
            line.clear();
            line.extend(toks.iter().map(|t| abstractor.intern(t)));
            if l.kind != LineKind::Added {
                old.extend_from_slice(&line);
            }
            if l.kind != LineKind::Removed {
                new.extend_from_slice(&line);
            }
            if keyed {
                key_raw.push(l.kind.prefix());
                key_raw.push_str(l.content.trim());
                key_raw.push('\n');
                key_abs.push(l.kind.prefix());
                let mut canons = abstractor.as_lexed(&line);
                while let Some(canon) = canons.next() {
                    canons.abstractor().push_text(canon, &mut key_abs);
                    key_abs.push('\u{1}');
                }
                key_abs.push('\n');
            }
        }
        lev_raw.push(levenshtein(&old, &new) as f64);
        let old_abs: Vec<Canon> = abstractor.joined(&old).collect();
        let new_abs: Vec<Canon> = abstractor.joined(&new).collect();
        lev_abs.push(levenshtein(&old_abs, &new_abs) as f64);
        hunk_keys_raw.push(key_raw);
        hunk_keys_abs.push(key_abs);
    }

    let n = |x: usize| x as f64;

    // 1-2: basic shape.
    f[0] = n(added_lines + removed_lines);
    f[1] = n(n_hunks);
    // 3-6: lines.
    f[2] = n(added_lines);
    f[3] = n(removed_lines);
    f[4] = n(added_lines + removed_lines);
    f[5] = n(added_lines) - n(removed_lines);
    // 7-10: characters.
    f[6] = n(added_chars);
    f[7] = n(removed_chars);
    f[8] = n(added_chars + removed_chars);
    f[9] = n(added_chars) - n(removed_chars);

    // 11-46: the nine a/r/t/n statement & operator families.
    let fam = [
        (added.ifs, removed.ifs),
        (added.loops, removed.loops),
        (added.calls, removed.calls),
        (added.arithmetic_ops, removed.arithmetic_ops),
        (added.relation_ops, removed.relation_ops),
        (added.logical_ops, removed.logical_ops),
        (added.bitwise_ops, removed.bitwise_ops),
        (added.memory_ops, removed.memory_ops),
        (added.variables, removed.variables),
    ];
    for (k, (a, r)) in fam.iter().enumerate() {
        let base = 10 + 4 * k;
        f[base] = n(*a);
        f[base + 1] = n(*r);
        f[base + 2] = n(a + r);
        f[base + 3] = n(*a) - n(*r);
    }

    // 47-48: modified functions.
    let affected_functions = affected_function_count(patch);
    f[46] = n(affected_functions);
    f[47] = signature_delta as f64;

    // 49-54: intra-hunk Levenshtein, raw then abstracted.
    let (mean_r, min_r, max_r) = summarize(&lev_raw);
    f[48] = mean_r;
    f[49] = min_r;
    f[50] = max_r;
    let (mean_a, min_a, max_a) = summarize(&lev_abs);
    f[51] = mean_a;
    f[52] = min_a;
    f[53] = max_a;

    // 55-56: duplicate hunks (total minus distinct), raw and abstracted —
    // the "apply the same fix in N places" signal.
    f[54] = n(n_hunks - distinct(&hunk_keys_raw));
    f[55] = n(n_hunks - distinct(&hunk_keys_abs));

    // 57-60: affected range.
    let affected_files = patch.files.len();
    f[56] = n(affected_files);
    f[58] = n(affected_functions);
    match ctx {
        Some(c) => {
            f[57] = n(affected_files) / n(c.total_files.max(1));
            f[59] = n(affected_functions) / n(c.total_functions.max(1));
        }
        None => {
            f[57] = 1.0;
            f[59] = 1.0;
        }
    }

    let v = FeatureVector(f);
    // Every Table I feature is a count or a ratio with a guarded
    // denominator; a NaN/infinite dimension means an extractor bug and
    // would otherwise surface far away, as a silently wrong nearest link.
    debug_assert!(
        v.is_finite(),
        "extract produced a non-finite feature vector for commit {}",
        patch.commit
    );
    v
}

/// Extracts features for a batch of patches (convenience for pipelines).
pub fn extract_batch<'a, I>(patches: I, ctx: Option<&RepoContext>) -> Vec<FeatureVector>
where
    I: IntoIterator<Item = &'a Patch>,
{
    patches.into_iter().map(|p| extract(p, ctx)).collect()
}

/// Counts distinct functions a patch touches: distinct `@@ … @@ section`
/// texts where available, anonymous hunks counting individually.
fn affected_function_count(patch: &Patch) -> usize {
    let mut named: HashSet<&str> = HashSet::new();
    let mut anonymous = 0usize;
    for h in patch.hunks() {
        let sec = h.section.trim();
        if sec.is_empty() {
            anonymous += 1;
        } else {
            named.insert(sec);
        }
    }
    named.len() + anonymous
}

/// Heuristic for a function-definition opener: a type-ish prefix, a called
/// identifier, and the line ending in `{` or `)` at top-level indentation.
/// `toks` is `line` lexed as a fragment.
fn looks_like_signature(line: &str, toks: &[Token]) -> bool {
    if line.starts_with([' ', '\t']) || toks.len() < 4 {
        return false;
    }
    let first_typeish = match &toks[0].kind {
        TokenKind::Keyword(kw) => kw.is_type(),
        TokenKind::Ident => true,
        _ => false,
    };
    let has_call = toks
        .windows(2)
        .any(|w| w[0].kind == TokenKind::Ident && w[1].is_punct("("));
    let last = toks.last().expect("len checked");
    first_typeish && has_call && (last.is_punct("{") || last.is_punct(")"))
}

fn summarize(xs: &[f64]) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let sum: f64 = xs.iter().sum();
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (sum / xs.len() as f64, min, max)
}

fn distinct(keys: &[String]) -> usize {
    keys.iter().collect::<HashSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch_core::diff_files;

    fn patch_of(before: &str, after: &str) -> Patch {
        Patch::builder("0".repeat(40))
            .message("test")
            .file(diff_files("t.c", before, after, 3))
            .build()
    }

    #[test]
    fn sanity_check_features() {
        let p = patch_of(
            "int f(int a) {\n  return a;\n}\n",
            "int f(int a) {\n  if (a < 0)\n    return 0;\n  return a;\n}\n",
        );
        let v = extract(&p, None);
        assert_eq!(v.get_named("hunks"), 1.0);
        assert_eq!(v.get_named("added lines"), 2.0);
        assert_eq!(v.get_named("removed lines"), 0.0);
        assert_eq!(v.get_named("added if statements"), 1.0);
        assert_eq!(v.get_named("net if statements"), 1.0);
        assert_eq!(v.get_named("added relation operators"), 1.0);
        assert_eq!(v.get_named("affected files"), 1.0);
        assert!(v.is_finite());
    }

    #[test]
    fn net_features_signed() {
        let p = patch_of(
            "void g() {\n  if (a) b();\n  if (c) d();\n}\n",
            "void g() {\n  b();\n}\n",
        );
        let v = extract(&p, None);
        assert!(v.get_named("net if statements") <= -2.0 + 1e-9);
        assert!(v.get_named("net lines") < 0.0);
    }

    #[test]
    fn levenshtein_abstracted_leq_raw_for_rename() {
        // Pure rename: abstracted distance collapses to 0.
        let p = patch_of(
            "void g() {\n  total = total + item;\n}\n",
            "void g() {\n  sum = sum + node;\n}\n",
        );
        let v = extract(&p, None);
        assert!(v.get_named("mean hunk levenshtein") > 0.0);
        assert_eq!(v.get_named("mean hunk levenshtein (abstracted)"), 0.0);
    }

    #[test]
    fn duplicate_hunks_detected() {
        let before = (0..30).map(|i| format!("line{i};")).collect::<Vec<_>>();
        let mut after = before.clone();
        after[2] = "fixed();".to_owned();
        after[20] = "fixed();".to_owned();
        let p = patch_of(
            &patch_core::join_lines(&before),
            &patch_core::join_lines(&after),
        );
        let v = extract(&p, None);
        assert_eq!(v.get_named("hunks"), 2.0);
        // Bodies differ in context, so raw duplicates stay 0 here; the
        // abstracted key also includes context, hence also 0. Duplicate
        // detection needs identical bodies:
        assert_eq!(v.get_named("same hunks"), 0.0);
    }

    #[test]
    fn identical_hunk_bodies_count_as_same() {
        use patch_core::{FileDiff, Hunk, Line};
        let mk = |start: usize| Hunk {
            old_start: start,
            old_count: 1,
            new_start: start,
            new_count: 1,
            section: String::new(),
            lines: vec![Line::removed("old();"), Line::added("new();")],
        };
        let p = Patch::builder("0".repeat(40))
            .file(FileDiff::new("x.c", vec![mk(1), mk(10), mk(20)]))
            .build();
        let v = extract(&p, None);
        assert_eq!(v.get_named("same hunks"), 2.0); // 3 hunks, 1 distinct
    }

    #[test]
    fn repo_context_drives_percentages() {
        let p = patch_of("a();\n", "b();\n");
        let ctx = RepoContext { total_files: 50, total_functions: 200 };
        let v = extract(&p, Some(&ctx));
        assert!((v.get_named("affected files %") - 0.02).abs() < 1e-12);
        assert!(v.get_named("affected functions %") > 0.0);
        let v_no = extract(&p, None);
        assert_eq!(v_no.get_named("affected files %"), 1.0);
    }

    #[test]
    fn empty_patch_is_zeroish() {
        let p = Patch::builder("0".repeat(40))
            .file(patch_core::FileDiff::new("x.c", vec![]))
            .build();
        let v = extract(&p, None);
        assert_eq!(v.get_named("hunks"), 0.0);
        assert!(v.is_finite());
    }

    #[test]
    fn signature_detection() {
        let sig = |line: &str| looks_like_signature(line, &tokenize(line));
        assert!(sig("int foo(int a) {"));
        assert!(sig("static void bar(void)"));
        assert!(!sig("  foo(a);"));
        assert!(!sig("x = 1;"));
    }

    #[test]
    fn extract_output_is_finite_and_guard_detects_bad_vectors() {
        // Degenerate shapes that stress every ratio denominator: empty
        // patch, zero-context, and a context with zero totals.
        let shapes = [
            patch_of("", "x();\n"),
            patch_of("x();\n", ""),
            patch_of("a();\n", "a();\n"),
        ];
        let ctx = RepoContext { total_files: 0, total_functions: 0 };
        for p in &shapes {
            assert!(extract(p, None).is_finite());
            assert!(extract(p, Some(&ctx)).is_finite());
        }
        // And the guard itself distinguishes good from bad vectors.
        let mut bad = FeatureVector::zero();
        bad.as_mut_slice()[7] = f64::NAN;
        assert!(!bad.is_finite());
        bad.as_mut_slice()[7] = f64::INFINITY;
        assert!(!bad.is_finite());
    }

    #[test]
    fn batch_matches_single() {
        let p = patch_of("a();\n", "b();\n");
        let batch = extract_batch([&p.clone(), &p].map(|x| x.clone()).iter(), None);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], extract(&p, None));
    }
}
