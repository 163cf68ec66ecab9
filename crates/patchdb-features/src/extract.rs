//! The Table I feature extractor: patch in, 60-dimensional vector out.

use std::collections::{HashMap, HashSet};

use clang_lite::{
    abstract_tokens, count_stats, is_stable, tokenize_fragment, FragmentStats, Numbering, Token,
    TokenKind,
};
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
/// counts, the signature heuristic and the abstracted hunk key, and are
/// interned to `u32` ids for the two Levenshtein features. The
/// after-abstraction distance is defined on each side of the hunk joined
/// with spaces and re-lexed; a side whose tokens are all stable
/// ([`clang_lite::is_stable`]) re-lexes to the same tokens, so it is
/// abstracted straight from the ids, and any other side takes that
/// join/re-lex path.
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
    let mut symbols = Symbols::new();
    let mut hunk = CompiledHunk::new();
    for h in patch.hunks() {
        hunk.clear();
        let mut key_raw = String::new();
        let mut key_abs = String::new();
        for l in &h.lines {
            let toks = tokenize_fragment(&l.content, 1);
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
            hunk.push_line(&mut symbols, l.kind, toks);
            if keyed {
                key_raw.push(l.kind.prefix());
                key_raw.push_str(l.content.trim());
                key_raw.push('\n');
                hunk.push_line_key(&mut symbols, &mut key_abs);
            }
        }
        lev_raw.push(levenshtein(&hunk.old.ids, &hunk.new.ids) as f64);
        let old_abs = hunk.abstracted(&mut symbols, LineKind::Added);
        let new_abs = hunk.abstracted(&mut symbols, LineKind::Removed);
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

/// How a token abstracts when its side of a hunk is abstracted by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// An identifier: becomes `VARn` or `FUNCn`.
    Ident,
    /// Any literal: becomes `LITERAL`.
    Literal,
    /// A keyword or punctuator: stays its own text.
    Verbatim,
    /// Re-lexes differently once its side is joined.
    Unstable,
}

impl Shape {
    fn of(token: &Token) -> Shape {
        match token.kind {
            _ if !is_stable(token) => Shape::Unstable,
            TokenKind::Ident => Shape::Ident,
            _ if token.is_literal() => Shape::Literal,
            _ => Shape::Verbatim,
        }
    }
}

/// The token texts of one patch interned to dense `u32` ids.
///
/// The canonical placeholders (`LITERAL`, `VARn`, `FUNCn`) share the id
/// space, so two abstracted streams compare equal exactly when their
/// canonical texts do, whichever path produced them.
struct Symbols {
    ids: HashMap<String, u32>,
    /// The shape of the tokens with each id; `None` until one is seen.
    /// One shape per text is exact: a text always lexes as the same kind,
    /// except a `#`-initial one (a directive at the start of a line, a
    /// punctuator elsewhere), which is unstable either way.
    shapes: Vec<Option<Shape>>,
    /// Ids of one-byte ASCII texts by byte, `u32::MAX` until first seen:
    /// most C tokens are one byte, and this skips hashing them.
    one_byte: [u32; 128],
    /// `VARn` texts and ids, then `FUNCn` ones, by `n`.
    placeholders: [Vec<(String, u32)>; 2],
    literal: u32,
    lparen: u32,
}

impl Symbols {
    fn new() -> Symbols {
        let mut symbols = Symbols {
            ids: HashMap::with_capacity(128),
            shapes: Vec::new(),
            one_byte: [u32::MAX; 128],
            placeholders: [Vec::new(), Vec::new()],
            literal: 0,
            lparen: 0,
        };
        symbols.literal = symbols.intern("LITERAL");
        symbols.lparen = symbols.intern("(");
        symbols
    }

    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = u32::try_from(self.ids.len())
            .expect("a patch holds fewer than 2^32 distinct token texts");
        self.ids.insert(text.to_owned(), id);
        id
    }

    /// Interns `token` and returns its id and shape.
    fn token(&mut self, token: &Token) -> (u32, Shape) {
        let id = match *token.text.as_bytes() {
            [b] if b.is_ascii() => match self.one_byte[usize::from(b)] {
                u32::MAX => {
                    let id = self.intern(&token.text);
                    self.one_byte[usize::from(b)] = id;
                    id
                }
                id => id,
            },
            _ => self.intern(&token.text),
        };
        let slot = id as usize;
        if slot >= self.shapes.len() {
            self.shapes.resize(slot + 1, None);
        }
        (id, *self.shapes[slot].get_or_insert_with(|| Shape::of(token)))
    }

    /// The text and id of `VARn`, or of `FUNCn` when `called`.
    fn placeholder(&mut self, called: bool, n: usize) -> &(String, u32) {
        let which = usize::from(called);
        while self.placeholders[which].len() <= n {
            let text = format!("{}{}", ["VAR", "FUNC"][which], self.placeholders[which].len());
            let id = self.intern(&text);
            self.placeholders[which].push((text, id));
        }
        &self.placeholders[which][n]
    }
}

/// One side of a hunk (context plus removed, or context plus added
/// lines) as interned tokens.
#[derive(Default)]
struct Side {
    ids: Vec<u32>,
    shapes: Vec<Shape>,
}

impl Side {
    fn push(&mut self, (id, shape): (u32, Shape)) {
        self.ids.push(id);
        self.shapes.push(shape);
    }
}

/// The lexed lines of one hunk and its two sides, with buffers reused
/// from hunk to hunk.
struct CompiledHunk {
    /// Each line's kind and tokens, kept for the join/re-lex path.
    lines: Vec<(LineKind, Vec<Token>)>,
    old: Side,
    new: Side,
    vars: Numbering,
    funcs: Numbering,
}

impl CompiledHunk {
    fn new() -> CompiledHunk {
        CompiledHunk {
            lines: Vec::new(),
            old: Side::default(),
            new: Side::default(),
            vars: Numbering::new(0),
            funcs: Numbering::new(0),
        }
    }

    fn clear(&mut self) {
        self.lines.clear();
        for side in [&mut self.old, &mut self.new] {
            side.ids.clear();
            side.shapes.clear();
        }
    }

    /// Starts a new stream in both numberings, over every id so far.
    fn restart_numbering(&mut self, symbols: &Symbols) {
        for numbering in [&mut self.vars, &mut self.funcs] {
            numbering.reserve(symbols.ids.len());
            numbering.reset();
        }
    }

    /// Adds one lexed line to its sides.
    fn push_line(&mut self, symbols: &mut Symbols, kind: LineKind, toks: Vec<Token>) {
        for t in &toks {
            let tok = symbols.token(t);
            if kind != LineKind::Added {
                self.old.push(tok);
            }
            if kind != LineKind::Removed {
                self.new.push(tok);
            }
        }
        self.lines.push((kind, toks));
    }

    /// Appends the last pushed line's abstracted duplicate-detection key
    /// to `key`: the line's prefix, each token's canonical text followed
    /// by `\u{1}`, then `\n`. Numbering restarts on every line, as
    /// [`abstract_tokens`] on the line alone would.
    fn push_line_key(&mut self, symbols: &mut Symbols, key: &mut String) {
        self.restart_numbering(symbols);
        let (kind, toks) = self.lines.last().expect("a line was pushed");
        let side = if *kind == LineKind::Added { &self.new } else { &self.old };
        let ids = &side.ids[side.ids.len() - toks.len()..];
        key.push(kind.prefix());
        for (i, (t, &id)) in toks.iter().zip(ids).enumerate() {
            match t.kind {
                TokenKind::Ident => {
                    let called = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
                    let numbering = if called { &mut self.funcs } else { &mut self.vars };
                    key.push_str(&symbols.placeholder(called, numbering.number(id as usize)).0);
                }
                _ if t.is_literal() => key.push_str("LITERAL"),
                _ => key.push_str(&t.text),
            }
            key.push('\u{1}');
        }
        key.push('\n');
    }

    /// The side without `exclude` lines, abstracted as a whole so that
    /// numbering is consistent across its lines: by id when every token
    /// is stable, else by joining the texts with spaces and re-lexing.
    fn abstracted(&mut self, symbols: &mut Symbols, exclude: LineKind) -> Vec<u32> {
        self.restart_numbering(symbols);
        let side = if exclude == LineKind::Added { &self.old } else { &self.new };
        if side.shapes.contains(&Shape::Unstable) {
            let texts: Vec<&str> = self
                .lines
                .iter()
                .filter(|(kind, _)| *kind != exclude)
                .flat_map(|(_, toks)| toks.iter().map(|t| t.text.as_str()))
                .collect();
            return abstract_tokens(&tokenize_fragment(&texts.join(" "), 1))
                .iter()
                .map(|t| symbols.intern(&t.canon))
                .collect();
        }
        let mut out = Vec::with_capacity(side.ids.len());
        for (i, (&id, &shape)) in side.ids.iter().zip(&side.shapes).enumerate() {
            out.push(match shape {
                Shape::Literal => symbols.literal,
                Shape::Ident => {
                    let called = side.ids.get(i + 1) == Some(&symbols.lparen);
                    let numbering = if called { &mut self.funcs } else { &mut self.vars };
                    symbols.placeholder(called, numbering.number(id as usize)).1
                }
                Shape::Verbatim | Shape::Unstable => id,
            });
        }
        out
    }
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
        let sig = |line: &str| looks_like_signature(line, &tokenize_fragment(line, 1));
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
