//! Differential properties: `extract` must give bit-identical vectors to
//! the extractor it replaced, on untrusted diff shapes and on forge
//! patches, and must never panic.
//!
//! The reference below is that extractor, kept only here as the oracle.
//! It lexes every line for its counts, again for its abstracted hunk key
//! and again for the signature heuristic; abstracts each side of a hunk
//! by joining its token texts with spaces and re-lexing; and runs both
//! Levenshteins over `String` tokens on a full matrix.

use patchdb_rt::check::{check, Gen};

use patch_core::{FileDiff, Hunk, Line, LineKind, Patch};
use patchdb_features::{extract, levenshtein, FeatureVector, RepoContext};

mod reference {
    use std::collections::HashSet;

    use clang_lite::{abstract_tokens, count_stats, tokenize, FragmentStats, TokenKind};
    use patch_core::{Hunk, LineKind, Patch};
    use patchdb_features::{FeatureVector, RepoContext, FEATURE_DIM};

    pub fn extract(patch: &Patch, ctx: Option<&RepoContext>) -> FeatureVector {
        let mut f = [0.0f64; FEATURE_DIM];
        let hunks: Vec<&Hunk> = patch.hunks().collect();
        let n_hunks = hunks.len();
        let (mut added_lines, mut removed_lines) = (0usize, 0usize);
        let (mut added_chars, mut removed_chars) = (0usize, 0usize);
        let mut added = FragmentStats::default();
        let mut removed = FragmentStats::default();
        let mut lev_raw = Vec::new();
        let mut lev_abs = Vec::new();
        let mut hunk_keys_raw = Vec::new();
        let mut hunk_keys_abs = Vec::new();

        for h in &hunks {
            let mut old_tokens: Vec<String> = Vec::new();
            let mut new_tokens: Vec<String> = Vec::new();
            for l in &h.lines {
                let toks = tokenize(&l.content);
                let texts = toks.iter().map(|t| t.text.clone());
                match l.kind {
                    LineKind::Added => {
                        added_lines += 1;
                        added_chars += l.content.len();
                        added.add(&count_stats(&toks));
                        new_tokens.extend(texts);
                    }
                    LineKind::Removed => {
                        removed_lines += 1;
                        removed_chars += l.content.len();
                        removed.add(&count_stats(&toks));
                        old_tokens.extend(texts);
                    }
                    LineKind::Context => {
                        let texts: Vec<String> = texts.collect();
                        old_tokens.extend(texts.iter().cloned());
                        new_tokens.extend(texts);
                    }
                }
            }
            lev_raw.push(full_matrix_levenshtein(&old_tokens, &new_tokens) as f64);
            let abstracted = |texts: &[String]| -> Vec<String> {
                let joined = texts.join(" ");
                abstract_tokens(&tokenize(&joined))
            };
            let old_abs = abstracted(&old_tokens);
            let new_abs = abstracted(&new_tokens);
            lev_abs.push(full_matrix_levenshtein(&old_abs, &new_abs) as f64);
            hunk_keys_raw.push(hunk_body_key(h, false));
            hunk_keys_abs.push(hunk_body_key(h, true));
        }

        let n = |x: usize| x as f64;
        f[0] = n(added_lines + removed_lines);
        f[1] = n(n_hunks);
        f[2] = n(added_lines);
        f[3] = n(removed_lines);
        f[4] = n(added_lines + removed_lines);
        f[5] = n(added_lines) - n(removed_lines);
        f[6] = n(added_chars);
        f[7] = n(removed_chars);
        f[8] = n(added_chars + removed_chars);
        f[9] = n(added_chars) - n(removed_chars);
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
        let affected_functions = affected_function_count(patch);
        f[46] = n(affected_functions);
        f[47] = signature_delta(patch);
        let (mean_r, min_r, max_r) = summarize(&lev_raw);
        f[48] = mean_r;
        f[49] = min_r;
        f[50] = max_r;
        let (mean_a, min_a, max_a) = summarize(&lev_abs);
        f[51] = mean_a;
        f[52] = min_a;
        f[53] = max_a;
        f[54] = n(n_hunks - distinct(&hunk_keys_raw));
        f[55] = n(n_hunks - distinct(&hunk_keys_abs));
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
        FeatureVector(f)
    }

    /// Levenshtein on the full `(|a|+1)×(|b|+1)` matrix, no stripping.
    pub fn full_matrix_levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for (i, row) in d.iter_mut().enumerate() {
            row[0] = i;
        }
        d[0] = (0..=b.len()).collect();
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                d[i][j] = (d[i - 1][j - 1] + cost).min(d[i - 1][j] + 1).min(d[i][j - 1] + 1);
            }
        }
        d[a.len()][b.len()]
    }

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

    fn signature_delta(patch: &Patch) -> f64 {
        let mut delta = 0i64;
        for h in patch.hunks() {
            for l in &h.lines {
                if looks_like_signature(&l.content) {
                    match l.kind {
                        LineKind::Added => delta += 1,
                        LineKind::Removed => delta -= 1,
                        LineKind::Context => {}
                    }
                }
            }
        }
        delta as f64
    }

    fn looks_like_signature(line: &str) -> bool {
        if line.starts_with([' ', '\t']) {
            return false;
        }
        let toks = tokenize(line);
        if toks.len() < 4 {
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

    fn hunk_body_key(hunk: &Hunk, abs: bool) -> String {
        let mut key = String::new();
        for l in &hunk.lines {
            key.push(match l.kind {
                LineKind::Context => ' ',
                LineKind::Added => '+',
                LineKind::Removed => '-',
            });
            if abs {
                for t in abstract_tokens(&tokenize(&l.content)) {
                    key.push_str(&t);
                    key.push('\u{1}');
                }
            } else {
                key.push_str(l.content.trim());
            }
            key.push('\n');
        }
        key
    }
}

/// Asserts `extract` equals the reference bit for bit, with and without
/// a repository context.
fn assert_matches_reference(patch: &Patch) {
    let ctx = RepoContext { total_files: 7, total_functions: 31 };
    for ctx in [None, Some(&ctx)] {
        let fast = extract(patch, ctx);
        let want = reference::extract(patch, ctx);
        let bits = |v: &FeatureVector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&want), "{fast:?} != {want:?} on\n{patch:#?}");
    }
}

/// Line pieces that stress the stable-token rule and the join/re-lex
/// path: directives with `\` continuations, `#` mid-line and at line
/// start, unterminated, prefixed and raw string/char literals, comments
/// (one never closed), a non-ASCII letter, CR, and embedded newlines.
const PIECES: &[&str] = &[
    "a", "b", "buf", "len", "f", "g", "malloc", "if", "for", "return", "int", "void", "sizeof",
    "(", ")", "{", "}", "[", "]", ";", ",", "=", "==", "+", "->", "*", "&", "<", "!", ".", "0",
    "42", "0x1f", "1.5", "1e", "\"s\"", "'c'", "L\"w\"", "u8\"u\"", "R\"(r) \")\"",
    "R\"d(x)\" y)d\"", "\"open", "'o", "\"esc\\", "#", "##", "#define M(a) \\\n  (a + 1)",
    "#include <x.h>", "# if X", "// note", "/* c */", "/* never closed", "\\", "é", "\r", "\n",
    "VAR0", "LITERAL",
];
const SEPARATORS: &[&str] = &[" ", "", "\t", "  "];
const SECTIONS: &[&str] = &["", "int main(void)", "static int parse(char *p)", "  "];

fn line_content(g: &mut Gen) -> String {
    let mut content = String::new();
    for _ in 0..g.usize_in(0, 8) {
        content.push_str(g.pick::<&str>(SEPARATORS));
        content.push_str(g.pick::<&str>(PIECES));
    }
    content
}

/// A hunk body: mostly context around a change, sometimes any mix.
fn hunk_lines(g: &mut Gen) -> Vec<Line> {
    let kinds = [LineKind::Context, LineKind::Added, LineKind::Removed];
    g.vec_with(0, 10, |g| Line { kind: kinds[g.weighted(&[3, 2, 2])], content: line_content(g) })
}

/// A patch of one or two files whose hunks often repeat an earlier body:
/// verbatim, with identifiers renamed, or with line kinds rotated, so the
/// duplicate-hunk features fire and must tell these apart.
fn generated_patch(g: &mut Gen) -> Patch {
    let mut bodies: Vec<Vec<Line>> = Vec::new();
    let mut files = Vec::new();
    for path in ["a.c", "b.h"].iter().take(g.usize_in(1, 2)) {
        let mut hunks = Vec::new();
        for i in 0..g.usize_in(0, 4) {
            let mode = g.weighted(&[3, 2, 1, 1]);
            let lines = if mode == 0 || bodies.is_empty() {
                hunk_lines(g)
            } else {
                let mut lines = bodies[g.index(bodies.len())].clone();
                for l in &mut lines {
                    match mode {
                        2 => l.content = l.content.replace("buf", "len").replace('a', "b"),
                        3 => {
                            l.kind = match l.kind {
                                LineKind::Context => LineKind::Added,
                                LineKind::Added => LineKind::Removed,
                                LineKind::Removed => LineKind::Context,
                            }
                        }
                        _ => {}
                    }
                }
                lines
            };
            bodies.push(lines.clone());
            hunks.push(Hunk {
                old_start: 1 + 20 * i,
                old_count: lines.iter().filter(|l| l.kind != LineKind::Added).count(),
                new_start: 1 + 20 * i,
                new_count: lines.iter().filter(|l| l.kind != LineKind::Removed).count(),
                section: (*g.pick(SECTIONS)).to_owned(),
                lines,
            });
        }
        files.push(FileDiff::new(*path, hunks));
    }
    Patch::builder("cd".repeat(20)).message("generated").files(files).build()
}

#[test]
fn extract_matches_reference_on_generated_hunks() {
    check("extract_matches_reference_on_generated_hunks", 1024, |g| {
        assert_matches_reference(&generated_patch(g));
    });
}

#[test]
fn extract_matches_reference_on_tiny_forge_patches() {
    use patchdb_corpus::{CorpusConfig, GitHubForge};
    check("extract_matches_reference_on_tiny_forge_patches", 3, |g| {
        let forge = GitHubForge::generate(&CorpusConfig::tiny(g.u64_in(0, 1 << 20)));
        for (_, commit) in forge.all_commits() {
            let patch = forge.materialize(commit).patch;
            assert_matches_reference(&patch);
            if let Some(c_only) = patch.retain_c_files() {
                assert_matches_reference(&c_only);
            }
        }
    });
}

/// `levenshtein` strips the shared ends before its two-row DP; the
/// distance must equal the full matrix's on every shape of overlap.
#[test]
fn levenshtein_matches_full_matrix_reference() {
    check("levenshtein_matches_full_matrix_reference", 512, |g| {
        let seq = |g: &mut Gen| g.vec_with(0, 16, |g| g.u64_in(0, 4) as u32);
        let (head, tail, x, y) = (seq(g), seq(g), seq(g), seq(g));
        let cat = |parts: &[&Vec<u32>]| parts.iter().flat_map(|p| p.iter().copied()).collect();
        let (a, b): (Vec<u32>, Vec<u32>) = match g.weighted(&[1, 1, 1, 2, 2]) {
            0 => (cat(&[&head, &x, &tail]), cat(&[&head, &x, &tail])),
            1 => (cat(&[&head, &x]), head.clone()),
            2 => (cat(&[&x, &tail]), tail.clone()),
            3 => (cat(&[&head, &x, &tail]), cat(&[&head, &y, &tail])),
            _ => (x, y),
        };
        let want = reference::full_matrix_levenshtein(&a, &b);
        assert_eq!(levenshtein(&a, &b), want, "{a:?} vs {b:?}");
        assert_eq!(levenshtein(&b, &a), want, "{b:?} vs {a:?}");
    });
}
