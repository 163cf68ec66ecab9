//! Patch-enhanced vulnerability signatures and patch-presence testing —
//! the primary usage scenarios of Section V-A-1.
//!
//! A security patch embeds both the vulnerable code (its removed/context
//! lines against the BEFORE version) and the fix (its added lines). From
//! those we derive two signatures:
//!
//! * a **vulnerability signature** — the abstracted token sequence of the
//!   pre-patch hunk — which matches *vulnerable code clones* in unrelated
//!   code (the VUDDY/MVP-style application the paper cites);
//! * a **fix signature** — the abstracted added lines — whose presence in
//!   a target file indicates the patch has been applied (the PDiff/
//!   patch-presence-testing application).
//!
//! Abstraction (identifiers → `VARn`/`FUNCn`, literals → `LITERAL`) makes
//! both robust to renaming, exactly like the hunk-level Levenshtein
//! features of Table I.
//!
//! A target is tested against many signatures at once through a
//! [`SignatureSet`]: their shapes coded as `u32`s, sorted, and walked
//! together from every window start.

use std::borrow::Cow;
use std::collections::HashMap;

use clang_lite::{abstract_tokens, tokenize, Abstractor, Canon};
use patch_core::{LineKind, Patch};
use patchdb_rt::obs;

/// A signature derived from one hunk of a security patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSignature {
    /// Commit the signature came from.
    pub commit: patch_core::CommitId,
    /// Abstracted token sequence of the vulnerable (pre-patch) hunk body.
    pub vulnerable: Vec<String>,
    /// Abstracted token sequence of the fixed (post-patch) hunk body.
    pub fixed: Vec<String>,
}

/// Minimum abstracted-token length for a usable signature; shorter hunks
/// match everywhere and only produce noise.
const MIN_SIGNATURE_TOKENS: usize = 8;

/// Derives signatures from a security patch, one per hunk that carries
/// enough signal.
pub fn signatures_of(patch: &Patch) -> Vec<PatchSignature> {
    let mut out = Vec::new();
    for hunk in patch.hunks() {
        let old_text = text_of(hunk, LineKind::Added);
        let new_text = text_of(hunk, LineKind::Removed);
        let vulnerable = abstract_line(&old_text);
        let fixed = abstract_line(&new_text);
        if vulnerable.len() >= MIN_SIGNATURE_TOKENS && fixed.len() >= MIN_SIGNATURE_TOKENS {
            out.push(PatchSignature { commit: patch.commit, vulnerable, fixed });
        }
    }
    out
}

/// The hunk body with lines of `exclude` kind dropped, joined.
fn text_of(hunk: &patch_core::Hunk, exclude: LineKind) -> String {
    hunk.lines
        .iter()
        .filter(|l| l.kind != exclude)
        .map(|l| l.content.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

fn abstract_line(text: &str) -> Vec<String> {
    abstract_tokens(&tokenize(text))
}

/// Outcome of testing one target file against one signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresenceVerdict {
    /// The vulnerable shape matches and the fix shape does not: the code
    /// is an (unpatched) vulnerable clone.
    Vulnerable,
    /// The fix shape matches: the patch (or an equivalent) is present.
    Patched,
    /// Neither shape matches: the signature does not apply to this code.
    NotApplicable,
}

/// Tests a target file against a signature: vulnerable clone, patched, or
/// not applicable.
///
/// A window of the target starts at every token and is as long as the
/// signature shape; each window is abstracted with fresh `VARn`/`FUNCn`
/// numbering (so local renaming inside the target cannot defeat the
/// match) and compared with the vulnerable and fixed shapes. This scans
/// a one-signature [`SignatureSet`]; to test many signatures against one
/// target, compile them into one set.
pub fn test_presence(signature: &PatchSignature, target_source: &str) -> PresenceVerdict {
    let mut set = SignatureSet::builder();
    set.push(&signature.vulnerable, &signature.fixed);
    set.build().scan(target_source).verdicts[0]
}

/// A shape token is coded as one `u32`, its class in the top two bits.
/// Below `LITERAL` is a verbatim text, by its rank in the set's sorted
/// vocabulary, so the texts that share a first character code as one
/// range.
const LITERAL: u32 = 1 << 30;
/// `VARn` codes as `VAR | n`.
const VAR: u32 = 2 << 30;
/// `FUNCn` codes as `FUNC | n`.
const FUNC: u32 = 3 << 30;
/// Placeholder numbers below this have a code; a text `VARn` past it is
/// verbatim. A window numbers fewer identifiers than it has tokens, so
/// only a window of 2^30 tokens could reach it.
const NUMBERS: u32 = 1 << 30;
/// The code of a target text no shape spells: the top verbatim code,
/// which no vocabulary reaches.
const ABSENT: u32 = LITERAL - 1;

/// `n` when `text` is exactly `format!("{prefix}{n}")` and `n` has a code.
fn placeholder_number(text: &str, prefix: &str) -> Option<u32> {
    let digits = text.strip_prefix(prefix)?;
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    canonical.then(|| digits.parse().ok()).flatten().filter(|&n| n < NUMBERS)
}

/// Collects signatures for a [`SignatureSet`], coding every shape token
/// as it comes in, so no shape is ever held as strings.
#[derive(Debug)]
pub struct SignatureSetBuilder {
    /// Verbatim texts by provisional code, in first-seen order.
    vocabulary: HashMap<Box<str>, u32>,
    symbols: Vec<u32>,
    /// Pushed shape `i` is `symbols[bounds[i]..bounds[i + 1]]`; two per
    /// signature, vulnerable then fixed.
    bounds: Vec<usize>,
}

impl SignatureSetBuilder {
    /// Adds a signature by its vulnerable and fixed shapes, as
    /// [`signatures_of`] spells them.
    pub fn push<S: AsRef<str>>(&mut self, vulnerable: &[S], fixed: &[S]) {
        for shape in [vulnerable, fixed] {
            for text in shape {
                let code = self.code(text.as_ref());
                self.symbols.push(code);
            }
            self.bounds.push(self.symbols.len());
        }
    }

    fn code(&mut self, text: &str) -> u32 {
        if text == "LITERAL" {
            return LITERAL;
        }
        if let Some(n) = placeholder_number(text, "VAR") {
            return VAR | n;
        }
        if let Some(n) = placeholder_number(text, "FUNC") {
            return FUNC | n;
        }
        if let Some(&code) = self.vocabulary.get(text) {
            return code;
        }
        let code = self.vocabulary.len() as u32;
        assert!(code < ABSENT, "fewer than 2^30 - 1 distinct verbatim texts");
        self.vocabulary.insert(text.into(), code);
        code
    }

    /// Ranks the vocabulary, then sorts the distinct shapes.
    pub fn build(self) -> SignatureSet {
        let _span = obs::span("signatures.compile_set");
        let mut texts: Vec<(Box<str>, u32)> = self.vocabulary.into_iter().collect();
        texts.sort_unstable();
        let mut rank = vec![0; texts.len()];
        for (r, &(_, code)) in texts.iter().enumerate() {
            rank[code as usize] = r as u32;
        }
        let mut symbols = self.symbols;
        for code in symbols.iter_mut().filter(|c| **c < LITERAL) {
            *code = rank[*code as usize];
        }
        let bounds = self.bounds;
        let pushed = |i: usize| &symbols[bounds[i]..bounds[i + 1]];
        let mut order: Vec<usize> = (0..bounds.len() - 1).collect();
        order.sort_unstable_by(|&a, &b| pushed(a).cmp(pushed(b)));

        let mut set = SignatureSet {
            vocabulary: texts.into_iter().map(|(text, _)| text).collect(),
            symbols: Vec::new(),
            bounds: vec![0],
            signatures: Vec::new(),
        };
        let mut slot = vec![0; order.len()];
        for i in order {
            let shapes = set.bounds.len() - 1;
            if shapes == 0 || set.shape(shapes - 1) != pushed(i) {
                set.symbols.extend_from_slice(pushed(i));
                set.bounds.push(set.symbols.len());
            }
            slot[i] = set.bounds.len() - 2;
        }
        set.symbols.shrink_to_fit();
        set.signatures = slot.chunks_exact(2).map(|pair| [pair[0], pair[1]]).collect();
        set
    }
}

/// Signatures compiled once for scanning targets against all of them in
/// one walk per target token.
///
/// Every shape token is a `u32` code: `LITERAL`, `VARn`, `FUNCn`, or a
/// verbatim text by its rank in one shared, sorted vocabulary. The
/// distinct shapes are sorted lexicographically by code, so at depth `d`
/// the shapes a window start still matches form one contiguous range,
/// and two binary searches on code `d` narrow it to the next depth.
///
/// The walk is exact against the per-window reference meaning (join the
/// window's texts with spaces, re-lex, abstract, compare):
///
/// * a window's token `d` abstracts from tokens `..=d` and a lookahead
///   for `(`, so one walk per start serves every shape length;
/// * a window's *last* token has no lookahead, so a shape ending at `d`
///   is checked against the token's code as [`clang_lite::Run::as_last`]
///   gives it: a called identifier is a `VARn` there, and that number is
///   not committed to the walk;
/// * a walk that reaches an unstable token joins and re-lexes each window
///   that needs it, memoized per `(start, len)`. Only the live shapes
///   whose token `d` can spell what that token re-lexes to need one: the
///   re-lexed token starts at the same byte, after the same stable
///   tokens, whatever the window's length, so it is a literal when the
///   unstable token is one, and otherwise a verbatim text with the same
///   first character.
///
/// A signature's verdict is `Patched` if its fixed shape occurs anywhere
/// in the target, else `Vulnerable` if its vulnerable shape does.
#[derive(Debug, Clone)]
pub struct SignatureSet {
    /// Every verbatim text a shape spells, sorted; a verbatim code is a
    /// rank here.
    vocabulary: Vec<Box<str>>,
    /// The distinct shapes in sorted order, concatenated.
    symbols: Vec<u32>,
    /// Shape `i` is `symbols[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Per signature, its vulnerable and fixed shapes.
    signatures: Vec<[usize; 2]>,
}

/// What [`SignatureSet::scan`] found in one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetScan {
    /// One verdict per signature, in the order they were pushed.
    pub verdicts: Vec<PresenceVerdict>,
    /// Steps of the shape walk: target tokens abstracted, over every
    /// window start.
    pub walk_steps: usize,
    /// Windows joined and re-lexed because they reach an unstable token.
    pub relexed_windows: usize,
}

impl SignatureSet {
    /// An empty builder.
    pub fn builder() -> SignatureSetBuilder {
        SignatureSetBuilder { vocabulary: HashMap::new(), symbols: Vec::new(), bounds: vec![0] }
    }

    /// The vulnerable and fixed shapes of signature `index`, spelled as
    /// they were pushed.
    pub fn texts(&self, index: usize) -> [impl ExactSizeIterator<Item = Cow<'_, str>>; 2] {
        self.signatures[index].map(|shape| self.shape(shape).iter().map(|&code| self.spell(code)))
    }

    fn spell(&self, code: u32) -> Cow<'_, str> {
        match code & !(NUMBERS - 1) {
            LITERAL => Cow::Borrowed("LITERAL"),
            VAR => Cow::Owned(format!("VAR{}", code - VAR)),
            FUNC => Cow::Owned(format!("FUNC{}", code - FUNC)),
            _ => Cow::Borrowed(&self.vocabulary[code as usize]),
        }
    }

    #[inline]
    fn shape(&self, i: usize) -> &[u32] {
        &self.symbols[self.bounds[i]..self.bounds[i + 1]]
    }

    #[inline]
    fn shape_len(&self, i: usize) -> usize {
        self.bounds[i + 1] - self.bounds[i]
    }

    /// The verbatim code of `text`, [`ABSENT`] when no shape spells it.
    fn verbatim_code(&self, text: &str) -> u32 {
        self.vocabulary.binary_search_by(|t| (**t).cmp(text)).map_or(ABSENT, |rank| rank as u32)
    }

    /// The verbatim codes of the texts that begin with `text`'s first
    /// character, as an inclusive range; `None` when there are none.
    fn verbatim_codes_like(&self, text: &str) -> Option<(u32, u32)> {
        let first = text.chars().next().map_or("", |c| &text[..c.len_utf8()]);
        let from = self.vocabulary.partition_point(|t| **t < *first);
        let n = self.vocabulary[from..].partition_point(|t| t.starts_with(first));
        (n > 0).then(|| (from as u32, (from + n - 1) as u32))
    }

    /// The shapes in `lo..hi` (all longer than `depth`) whose code at
    /// `depth` lies in `first..=last`.
    #[inline]
    fn narrow(
        &self,
        (lo, hi): (usize, usize),
        depth: usize,
        first: u32,
        last: u32,
    ) -> (usize, usize) {
        let code = |&at: &usize| self.symbols[at + depth];
        let a = lo + self.bounds[lo..hi].partition_point(|at| code(at) < first);
        let b = a + self.bounds[a..hi].partition_point(|at| code(at) <= last);
        (a, b)
    }

    /// Tests `target` against every signature at once.
    pub fn scan(&self, target: &str) -> SetScan {
        self.scan_target(&mut Target::new(self, target))
    }

    fn scan_target(&self, target: &mut Target) -> SetScan {
        let shapes = self.bounds.len() - 1;
        let mut found = vec![false; shapes];
        let mut walk_steps = 0;
        // An empty shape sorts first and matches nowhere.
        let nonempty = usize::from(shapes > 0 && self.shape_len(0) == 0);
        for start in 0..target.ids.len() {
            let mut live = (nonempty, shapes);
            let mut depth = 0;
            let codes = &target.codes;
            let mut run = target.abstractor.joined(&target.ids[start..]);
            while live.0 < live.1 {
                let Some(canon) = run.next_by_id() else { break };
                walk_steps += 1;
                let (code, last) = (code_of(codes, canon), code_of(codes, run.as_last(canon)));
                // Shapes that end here; deduplicated, so at most one.
                let ending = self.narrow(live, depth, last, last);
                if ending.0 < ending.1 && self.shape_len(ending.0) == depth + 1 {
                    found[ending.0] = true;
                }
                let going =
                    if code == last { ending } else { self.narrow(live, depth, code, code) };
                let skip = going.0 < going.1 && self.shape_len(going.0) == depth + 1;
                live = (going.0 + usize::from(skip), going.1);
                depth += 1;
            }
            if live.0 < live.1 && start + depth < target.ids.len() {
                self.relex_unstable(target, start, depth, live, &mut found);
            }
        }
        let verdicts = self
            .signatures
            .iter()
            .map(|&[vulnerable, fixed]| {
                if found[fixed] {
                    PresenceVerdict::Patched
                } else if found[vulnerable] {
                    PresenceVerdict::Vulnerable
                } else {
                    PresenceVerdict::NotApplicable
                }
            })
            .collect();
        SetScan { verdicts, walk_steps, relexed_windows: target.relexed_windows }
    }

    /// The exact fallback for the `live` shapes of the walk from `start`,
    /// which reached an unstable token at `depth`.
    fn relex_unstable(
        &self,
        target: &mut Target,
        start: usize,
        depth: usize,
        live: (usize, usize),
        found: &mut [bool],
    ) {
        let id = target.ids[start + depth];
        let lexed = target.abstractor.as_lexed(std::slice::from_ref(&id)).next();
        let class = match lexed {
            Some(Canon::Literal) => Some((LITERAL, LITERAL)),
            Some(Canon::Verbatim(id)) => self.verbatim_codes_like(target.abstractor.text(id)),
            // Identifiers are stable; were one not, nothing is pruned.
            _ => Some((0, u32::MAX)),
        };
        let Some((first, last)) = class else { return };
        let (a, b) = self.narrow(live, depth, first, last);
        let room = target.ids.len() - start;
        for (shape, hit) in (a..b).zip(&mut found[a..b]) {
            if !*hit && self.shape_len(shape) <= room {
                *hit = target.relexed_matches(self, start, self.shape(shape));
            }
        }
    }
}

/// A target file compiled once for one scan: tokenized, interned, and
/// each interned text coded against the set's vocabulary.
#[derive(Debug)]
struct Target {
    abstractor: Abstractor,
    /// `abstractor` before any fallback interned the texts of a window;
    /// taken at the first fallback.
    compiled: Option<Abstractor>,
    ids: Vec<u32>,
    /// The verbatim code of each interned text, by id.
    codes: Vec<u32>,
    /// Codes of the target's own texts; the rest came from re-lexing.
    compiled_codes: usize,
    /// Re-lexed windows by `(start, len)`, coded.
    relexed: HashMap<(usize, usize), Vec<u32>>,
    /// Codes held in `relexed`, at most [`RELEXED_MEMO_TOKENS`].
    relexed_tokens: usize,
    relexed_windows: usize,
}

/// The code of `canon`, given the verbatim `codes` of its abstractor's
/// texts.
#[inline]
fn code_of(codes: &[u32], canon: Canon) -> u32 {
    let placeholder = |class: u32, n: u32| if n < NUMBERS { class | n } else { ABSENT };
    match canon {
        Canon::Verbatim(id) => codes[id as usize],
        Canon::Literal => LITERAL,
        Canon::Var(n) => placeholder(VAR, n),
        Canon::Func(n) => placeholder(FUNC, n),
    }
}

/// Bound on the fallback memo. A target that is mostly unstable tokens
/// (a body of non-ASCII bytes, say) would otherwise keep one abstracted
/// window per start and shape length, and the texts those windows
/// interned; past the bound both are flushed, which costs only
/// recomputation.
const RELEXED_MEMO_TOKENS: usize = 1 << 16;

impl Target {
    fn new(set: &SignatureSet, source: &str) -> Target {
        let mut abstractor = Abstractor::new();
        let ids: Vec<u32> = tokenize(source).iter().map(|t| abstractor.intern(t)).collect();
        let mut target = Target {
            abstractor,
            compiled: None,
            ids,
            codes: Vec::new(),
            compiled_codes: 0,
            relexed: HashMap::new(),
            relexed_tokens: 0,
            relexed_windows: 0,
        };
        if let Some(&top) = target.ids.iter().max() {
            target.code_texts(set, top);
        }
        target.compiled_codes = target.codes.len();
        target
    }

    /// Codes every interned text up to id `top`.
    fn code_texts(&mut self, set: &SignatureSet, top: u32) {
        while self.codes.len() <= top as usize {
            let text = self.abstractor.text(self.codes.len() as u32);
            self.codes.push(set.verbatim_code(text));
        }
    }

    /// Whether the window at `start` as long as `shape`, joined and
    /// re-lexed, abstracts to `shape`.
    fn relexed_matches(&mut self, set: &SignatureSet, start: usize, shape: &[u32]) -> bool {
        let key = (start, shape.len());
        if let Some(codes) = self.relexed.get(&key) {
            return codes == shape;
        }
        self.relexed_windows += 1;
        if self.compiled.is_none() {
            self.compiled = Some(self.abstractor.clone());
        }
        let canons: Vec<Canon> = self.abstractor.joined(&self.ids[key.0..key.0 + key.1]).collect();
        let interned = canons.iter().filter_map(|&c| match c {
            Canon::Verbatim(id) => Some(id),
            _ => None,
        });
        if let Some(top) = interned.max() {
            self.code_texts(set, top);
        }
        let codes: Vec<u32> = canons.into_iter().map(|c| code_of(&self.codes, c)).collect();
        let hit = codes == shape;
        if self.relexed_tokens + codes.len() > RELEXED_MEMO_TOKENS {
            self.relexed.clear();
            self.relexed_tokens = 0;
            self.abstractor.clone_from(self.compiled.as_ref().expect("taken above"));
            self.codes.truncate(self.compiled_codes);
        } else {
            self.relexed_tokens += codes.len();
            self.relexed.insert(key, codes);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch_core::diff_files;
    use patchdb_rt::check::{check, Gen};

    const BEFORE: &str = "int parse(struct ctx *c, size_t n) {\n    int i = c->pos;\n    char *buf = c->data;\n    buf[i] = read_byte(c, i);\n    c->pos = i + 1;\n    return 0;\n}\n";
    const AFTER: &str = "int parse(struct ctx *c, size_t n) {\n    int i = c->pos;\n    char *buf = c->data;\n    if (i >= (int)n)\n        return -1;\n    buf[i] = read_byte(c, i);\n    c->pos = i + 1;\n    return 0;\n}\n";

    fn patch() -> Patch {
        Patch::builder("e".repeat(40))
            .message("fix oob")
            .file(diff_files("p.c", BEFORE, AFTER, 3))
            .build()
    }

    #[test]
    fn signature_extraction() {
        let sigs = signatures_of(&patch());
        assert_eq!(sigs.len(), 1);
        assert!(sigs[0].vulnerable.len() >= MIN_SIGNATURE_TOKENS);
        // The fix shape contains the guard's `if`.
        assert!(sigs[0].fixed.contains(&"if".to_owned()));
    }

    #[test]
    fn unpatched_clone_is_flagged_vulnerable() {
        let sigs = signatures_of(&patch());
        // A renamed clone of the BEFORE code.
        let clone = BEFORE
            .replace("buf", "frame")
            .replace("read_byte", "next_octet")
            .replace("int i ", "int k ")
            .replace("[i]", "[k]")
            .replace("(c, i)", "(c, k)")
            .replace("i + 1", "k + 1");
        assert_eq!(test_presence(&sigs[0], &clone), PresenceVerdict::Vulnerable);
    }

    #[test]
    fn patched_clone_is_flagged_patched() {
        let sigs = signatures_of(&patch());
        let clone = AFTER.replace("buf", "frame").replace("read_byte", "next_octet");
        assert_eq!(test_presence(&sigs[0], &clone), PresenceVerdict::Patched);
    }

    #[test]
    fn unrelated_code_is_not_applicable() {
        let sigs = signatures_of(&patch());
        let other = "void blink(void) {\n    led_on();\n    sleep(1);\n    led_off();\n}\n";
        assert_eq!(test_presence(&sigs[0], other), PresenceVerdict::NotApplicable);
    }

    #[test]
    fn tiny_hunks_yield_no_signatures() {
        let p = Patch::builder("f".repeat(40))
            .file(diff_files("q.c", "int x;\n", "int y;\n", 0))
            .build();
        assert!(signatures_of(&p).is_empty());
    }

    /// The per-window matcher: every window joined, re-lexed and
    /// abstracted, per signature. Kept as the oracle for the set.
    fn reference_presence(signature: &PatchSignature, target_source: &str) -> PresenceVerdict {
        let texts: Vec<String> = tokenize(target_source).into_iter().map(|t| t.text).collect();
        if window_match(&texts, &signature.fixed) {
            PresenceVerdict::Patched
        } else if window_match(&texts, &signature.vulnerable) {
            PresenceVerdict::Vulnerable
        } else {
            PresenceVerdict::NotApplicable
        }
    }

    fn window_match(target_texts: &[String], needle: &[String]) -> bool {
        if needle.is_empty() || target_texts.len() < needle.len() {
            return false;
        }
        let n = needle.len();
        for start in 0..=(target_texts.len() - n) {
            let window = target_texts[start..start + n].join(" ");
            let abstracted = abstract_line(&window);
            if abstracted == needle {
                return true;
            }
        }
        false
    }

    fn set_of(sigs: &[PatchSignature]) -> SignatureSet {
        let mut set = SignatureSet::builder();
        for s in sigs {
            set.push(&s.vulnerable, &s.fixed);
        }
        set.build()
    }

    /// Scans `src` against `sigs` as one set and checks every verdict
    /// against the oracle; returns the verdicts.
    fn scan_agrees(sigs: &[PatchSignature], src: &str) -> Vec<PresenceVerdict> {
        let got = set_of(sigs).scan(src).verdicts;
        let want: Vec<PresenceVerdict> = sigs.iter().map(|s| reference_presence(s, src)).collect();
        assert_eq!(got, want, "{src:?} {sigs:?}");
        got
    }

    fn sig(vulnerable: &[&str], fixed: &[&str]) -> PatchSignature {
        let owned = |shape: &[&str]| shape.iter().map(|&t| t.to_owned()).collect();
        PatchSignature {
            commit: patch().commit,
            vulnerable: owned(vulnerable),
            fixed: owned(fixed),
        }
    }

    /// Source pieces that stress the stable-token rule: directives with
    /// `\` continuations, `#` mid-line and at line start, unterminated
    /// and prefixed string/char literals, comments, stray bytes.
    const PIECES: &[&str] = &[
        "a", "b", "buf", "len", "f", "g", "if", "return", "int", "sizeof", "(", ")", "{",
        "}", "[", "]", ";", ",", "=", "==", "+", "->", "*", "&", "<", "!", ".", "0", "42",
        "0x1f", "1.5", "1e", "\"s\"", "'c'", "L\"w\"", "u8\"u\"", "R\"(r) \")\"",
        "R\"d(x)\" y)d\"", "\"open", "'o", "\"esc\\", "#", "##", "#define M(a) \\\n  (a + 1)",
        "#include <x.h>", "# if X", "// note\n", "/* c */", "\\", "é", "\n",
    ];
    const SEPARATORS: &[&str] = &[" ", "", "\n", "\t"];
    const TAILS: &[&str] = &["", "/* never closed", "\"", "R\"(", "#", "R\"x"];
    const CANON: &[&str] = &["VAR0", "FUNC0", "LITERAL", "(", ")", ";", "VAR1", "VAR01", "if", "#"];

    fn generated_source(g: &mut Gen) -> String {
        let mut src = String::new();
        for _ in 0..g.usize_in(0, 40) {
            src.push_str(g.pick::<&str>(PIECES));
            src.push_str(g.pick::<&str>(SEPARATORS));
        }
        src.push_str(g.pick::<&str>(TAILS));
        src
    }

    /// Shapes for one set, most cut from `texts` (so the oracle says they
    /// match) and the rest derived from shapes already drawn: a prefix of
    /// one, a cut from the same start one token longer or shorter, one
    /// with a token changed, or arbitrary placeholders. So the set's
    /// shapes share prefixes and nest, and a shorter cut often ends on a
    /// token the longer one calls.
    fn shapes(g: &mut Gen, texts: &[String]) -> Vec<Vec<String>> {
        let cut = |start: usize, len: usize| abstract_line(&texts[start..start + len].join(" "));
        let mut cuts: Vec<(usize, usize)> = Vec::new();
        let mut out: Vec<Vec<String>> = Vec::new();
        for _ in 0..g.usize_in(2, 10) {
            let mode = if out.is_empty() { 0 } else { g.weighted(&[5, 2, 2, 2, 1]) };
            let shape = match mode {
                0 | 2 if !texts.is_empty() => {
                    let (start, len) = match (mode, cuts.is_empty()) {
                        (2, false) => {
                            let (start, len) = cuts[g.index(cuts.len())];
                            let len = if g.bool() { len + 1 } else { len.saturating_sub(1) };
                            (start, len.clamp(1, texts.len() - start))
                        }
                        _ => {
                            let start = g.index(texts.len());
                            (start, g.usize_in(1, (texts.len() - start).min(12)))
                        }
                    };
                    cuts.push((start, len));
                    cut(start, len)
                }
                1 => {
                    let mut shape = out[g.index(out.len())].clone();
                    shape.truncate(g.usize_in(0, shape.len()));
                    shape
                }
                3 => {
                    let mut shape = out[g.index(out.len())].clone();
                    if !shape.is_empty() {
                        let at = g.index(shape.len());
                        shape[at] = (*g.pick(CANON)).to_owned();
                    }
                    shape
                }
                _ => g.vec_with(0, 6, |g| (*g.pick(CANON)).to_owned()),
            };
            out.push(shape);
        }
        out
    }

    #[test]
    fn signature_set_agrees_with_reference_on_generated_sources() {
        let commit = patch().commit;
        let seen = std::cell::Cell::new([0usize; 3]);
        check("signature_set_agrees_with_reference", 2048, |g| {
            let src = generated_source(g);
            let texts: Vec<String> = tokenize(&src).into_iter().map(|t| t.text).collect();
            let pool = shapes(g, &texts);
            // Signatures may share a shape, or use one for both sides.
            let sigs: Vec<PatchSignature> = (0..g.usize_in(1, 6))
                .map(|_| PatchSignature {
                    commit,
                    vulnerable: g.pick(&pool).clone(),
                    fixed: g.pick(&pool).clone(),
                })
                .collect();
            let mut tally = seen.get();
            for verdict in scan_agrees(&sigs, &src) {
                tally[verdict as usize] += 1;
            }
            seen.set(tally);
        });
        let [vulnerable, patched, not_applicable] = seen.get();
        assert!(
            vulnerable > 100 && patched > 100 && not_applicable > 100,
            "verdicts not all exercised: {:?}",
            seen.get()
        );
    }

    #[test]
    fn a_called_identifier_ends_a_window_as_a_var() {
        // `g` and the second `y` are called in the target, but a window
        // that ends on one sees no `(`: `g` is VAR1 there, and `y` the
        // VAR0 it already has.
        let src = "f(x); g(y); y(1);";
        let verdicts = scan_agrees(
            &[
                sig(&["FUNC0", "(", "VAR0", ")", ";", "VAR1"], &["never"]),
                sig(&["FUNC0", "(", "VAR0", ")", ";", "FUNC1"], &["never"]),
                sig(&["FUNC0", "(", "VAR0", ")", ";", "FUNC1", "("], &["never"]),
                sig(&["FUNC0", "(", "VAR0", ")", ";", "VAR0"], &["never"]),
                sig(&["FUNC0", "(", "VAR0", ")", ";", "VAR0", "("], &["never"]),
                sig(&["VAR0", ")", ";", "VAR0"], &["never"]),
                sig(&["VAR0", ")", ";", "FUNC0", "(", "LITERAL"], &["never"]),
            ],
            src,
        );
        use PresenceVerdict::{NotApplicable, Vulnerable};
        assert_eq!(
            verdicts,
            [
                Vulnerable,
                NotApplicable,
                Vulnerable,
                Vulnerable,
                NotApplicable,
                Vulnerable,
                Vulnerable
            ]
        );
    }

    #[test]
    fn a_window_may_end_on_a_directive() {
        // A null directive lexes as `#` either way; a longer directive
        // is split apart once a window joins it mid-line.
        let src = "a = b;\n#\nc;\n#if X\nd;";
        let verdicts = scan_agrees(
            &[
                sig(&["VAR0", "=", "VAR1", ";", "#"], &["never"]),
                sig(&["VAR0", ";", "#"], &["never"]),
                sig(&["#if X"], &["never"]),
                sig(&["VAR0", ";", "#if X"], &["never"]),
                sig(&["VAR0", ";", "#", "if", "VAR1"], &["never"]),
                sig(&["#"], &["#if X VAR0"]),
            ],
            src,
        );
        use PresenceVerdict::{NotApplicable, Vulnerable};
        assert_eq!(
            verdicts,
            [Vulnerable, Vulnerable, Vulnerable, NotApplicable, NotApplicable, Vulnerable]
        );
    }

    #[test]
    fn a_window_may_end_on_an_open_literal() {
        // Joined, the open string swallows whatever the window holds
        // after it, so only a window that ends on it keeps its length.
        let src = "x = \"open\ny = 'c\nz;";
        let verdicts = scan_agrees(
            &[
                sig(&["VAR0", "=", "LITERAL"], &["never"]),
                sig(&["VAR0", "=", "LITERAL", "VAR1"], &["never"]),
                sig(&["LITERAL", "VAR0", "=", "LITERAL"], &["never"]),
                sig(&["LITERAL"], &["LITERAL", "VAR0"]),
            ],
            src,
        );
        use PresenceVerdict::{NotApplicable, Vulnerable};
        assert_eq!(verdicts, [Vulnerable, NotApplicable, NotApplicable, Vulnerable]);
    }

    #[test]
    fn texts_spell_back_every_pushed_shape() {
        let shapes: [&[&str]; 4] = [
            &["VAR0", "FUNC12", "LITERAL", "VAR01", "VAR", "FUNC", "VAR+1", "VAR00", "if"],
            &["#define X 1", "é", "", "VAR1073741823", "VAR1073741824", "LITERALS"],
            &[],
            &["VAR0", "FUNC12", "LITERAL"],
        ];
        let mut set = SignatureSet::builder();
        set.push(shapes[0], shapes[1]);
        set.push(shapes[2], shapes[3]);
        set.push(shapes[3], shapes[3]);
        let set = set.build();
        let spelled = |i: usize| set.texts(i).map(|shape| shape.collect::<Vec<_>>());
        assert_eq!(spelled(0), [shapes[0], shapes[1]]);
        assert_eq!(spelled(1), [shapes[2], shapes[3]]);
        assert_eq!(spelled(2), [shapes[3], shapes[3]]);
    }

    #[test]
    fn placeholders_code_exactly() {
        assert_eq!(placeholder_number("VAR0", "VAR"), Some(0));
        assert_eq!(placeholder_number("FUNC12", "FUNC"), Some(12));
        for text in ["VAR01", "VAR", "VAR+1", "VAR00", "VAR-0", "VAR1 "] {
            assert_eq!(placeholder_number(text, "VAR"), None, "{text}");
        }
        assert_eq!(placeholder_number("VAR1", "FUNC"), None);
        assert_eq!(placeholder_number("VAR1073741823", "VAR"), Some(NUMBERS - 1));
        assert_eq!(placeholder_number("VAR1073741824", "VAR"), None);
        assert_eq!(placeholder_number(&format!("VAR{}", u64::MAX), "VAR"), None);
    }

    #[test]
    fn fallback_memo_stays_bounded_on_an_unstable_target() {
        // Every `é` lexes as two bytes the lexer splits differently alone,
        // and a mid-line `#` opens a directive once a window starts with
        // it, so windows that start on them fall back for shapes that
        // begin with what they re-lex to; distinct lengths defeat the
        // memo, and each directive window interns a text of its own.
        let commit = patch().commit;
        for (src, unstable) in [("é ".repeat(400), "\u{fffd}"), ("x # ".repeat(200), "#")] {
            let sigs: Vec<PatchSignature> = (8..40)
                .map(|len| PatchSignature {
                    commit,
                    vulnerable: vec![unstable.to_owned(); len],
                    fixed: vec!["VAR0".to_owned(); len],
                })
                .collect();
            let set = set_of(&sigs);
            let mut target = Target::new(&set, &src);
            let scan = set.scan_target(&mut target);
            let want: Vec<PresenceVerdict> =
                sigs.iter().map(|s| reference_presence(s, &src)).collect();
            assert_eq!(scan.verdicts, want);
            assert!(target.relexed_tokens <= RELEXED_MEMO_TOKENS);
            assert!(!target.relexed.is_empty());
            assert!(scan.relexed_windows >= target.relexed.len());
        }
    }

    #[test]
    fn signature_set_agrees_with_reference_across_a_tiny_forge() {
        use patchdb_corpus::{CorpusConfig, GitHubForge};
        let forge = GitHubForge::generate(&CorpusConfig::tiny(45));
        let changes: Vec<_> = forge
            .all_commits()
            .filter(|(_, c)| c.kind.is_security())
            .map(|(_, c)| forge.materialize(c))
            .collect();
        let sigs: Vec<PatchSignature> =
            changes.iter().flat_map(|c| signatures_of(&c.patch)).collect();
        let mut hits = 0usize;
        let files =
            changes.iter().flat_map(|c| c.before_files.values().chain(c.after_files.values()));
        for text in files {
            let verdicts = scan_agrees(&sigs, text);
            hits += verdicts.iter().filter(|&&v| v != PresenceVerdict::NotApplicable).count();
        }
        assert!(sigs.len() > 5 && hits > 5, "{} signatures, {hits} hits", sigs.len());
    }

    #[test]
    fn corpus_generated_patches_yield_signatures() {
        use patchdb_corpus::{CorpusConfig, GitHubForge};
        let forge = GitHubForge::generate(&CorpusConfig::tiny(44));
        let mut total = 0;
        for (_, c) in forge.all_commits().filter(|(_, c)| c.kind.is_security()) {
            let change = forge.materialize(c);
            total += signatures_of(&change.patch).len();
        }
        assert!(total > 5, "only {total} signatures from a whole tiny forge");
    }
}
