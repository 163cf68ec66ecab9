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

use std::collections::HashMap;

use clang_lite::{abstract_tokens, tokenize, Abstractor, Canon};
use patch_core::{LineKind, Patch};

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
/// match) and compared with the vulnerable and fixed shapes. To test many
/// signatures against one target, compile it once with [`ScanTarget`].
pub fn test_presence(signature: &PatchSignature, target_source: &str) -> PresenceVerdict {
    ScanTarget::new(target_source).test_presence(signature)
}

/// A target file compiled once for testing against many signatures.
///
/// The reference meaning of a window match is: join the window's token
/// texts with spaces, re-lex the result as a fragment, abstract it, and
/// compare with the signature shape. Doing that per window and per
/// signature dominates a scan, so the target is tokenized and interned
/// once, and each window is abstracted lazily in the [`Abstractor`]'s
/// joined mode, stopping at the first mismatch. Most windows never leave
/// the id path; one that reaches an unstable token (a preprocessor line,
/// an unterminated literal, a `#` that would open a directive, a byte
/// sequence the lexer splits differently) is joined and re-lexed, and
/// as that abstraction does not depend on the signature, it is memoized
/// per `(start, len)`.
#[derive(Debug)]
pub struct ScanTarget {
    abstractor: Abstractor,
    /// `abstractor` before any fallback interned the texts of a window.
    compiled: Abstractor,
    ids: Vec<u32>,
    relexed: HashMap<(usize, usize), Vec<Canon>>,
    /// Abstracted tokens held in `relexed`, at most [`RELEXED_MEMO_TOKENS`].
    relexed_tokens: usize,
}

/// Bound on the fallback memo. A target that is mostly unstable tokens
/// (a body of non-ASCII bytes, say) would otherwise keep one abstracted
/// window per start and signature length, and the texts those windows
/// interned; past the bound both are flushed, which costs only
/// recomputation.
const RELEXED_MEMO_TOKENS: usize = 1 << 16;

impl ScanTarget {
    /// Tokenizes `source` and interns every token.
    pub fn new(source: &str) -> ScanTarget {
        let mut abstractor = Abstractor::new();
        let ids = tokenize(source).iter().map(|t| abstractor.intern(t)).collect();
        ScanTarget {
            compiled: abstractor.clone(),
            abstractor,
            ids,
            relexed: HashMap::new(),
            relexed_tokens: 0,
        }
    }

    /// Tests the target against one signature; same verdict as
    /// [`test_presence`] on the source text.
    pub fn test_presence(&mut self, signature: &PatchSignature) -> PresenceVerdict {
        if self.contains(&signature.fixed) {
            PresenceVerdict::Patched
        } else if self.contains(&signature.vulnerable) {
            PresenceVerdict::Vulnerable
        } else {
            PresenceVerdict::NotApplicable
        }
    }

    fn contains(&mut self, needle: &[String]) -> bool {
        if needle.is_empty() || self.ids.len() < needle.len() {
            return false;
        }
        (0..=self.ids.len() - needle.len()).any(|start| self.window_matches(start, needle))
    }

    fn window_matches(&mut self, start: usize, needle: &[String]) -> bool {
        let mut window = self.abstractor.joined(&self.ids[start..start + needle.len()]);
        for want in needle {
            // The window is as long as the needle, so it ends early only
            // at an unstable token.
            let Some(canon) = window.next_by_id() else {
                return self.relexed_matches(start, needle);
            };
            if !spells(window.abstractor(), canon, want) {
                return false;
            }
        }
        true
    }

    /// The reference path: the window joined, re-lexed and abstracted.
    fn relexed_matches(&mut self, start: usize, needle: &[String]) -> bool {
        let key = (start, needle.len());
        let matches = |abstractor: &Abstractor, canons: &[Canon]| {
            canons.len() == needle.len()
                && canons.iter().zip(needle).all(|(&c, want)| spells(abstractor, c, want))
        };
        if let Some(canons) = self.relexed.get(&key) {
            return matches(&self.abstractor, canons);
        }
        let canons: Vec<Canon> = self.abstractor.joined(&self.ids[key.0..key.0 + key.1]).collect();
        let hit = matches(&self.abstractor, &canons);
        if self.relexed_tokens + canons.len() > RELEXED_MEMO_TOKENS {
            self.relexed.clear();
            self.relexed_tokens = 0;
            self.abstractor.clone_from(&self.compiled);
        } else {
            self.relexed_tokens += canons.len();
            self.relexed.insert(key, canons);
        }
        hit
    }
}

/// True when `want` is the signature text of `canon`.
#[inline]
fn spells(abstractor: &Abstractor, canon: Canon, want: &str) -> bool {
    match canon {
        Canon::Verbatim(id) => abstractor.text(id) == want,
        Canon::Literal => want == "LITERAL",
        Canon::Var(n) => is_placeholder(want, "VAR", n as usize),
        Canon::Func(n) => is_placeholder(want, "FUNC", n as usize),
    }
}

/// True when `canon` is exactly `format!("{prefix}{id}")`.
#[inline]
fn is_placeholder(canon: &str, prefix: &str, id: usize) -> bool {
    canon.strip_prefix(prefix).is_some_and(|digits| {
        digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'))
            && digits.parse() == Ok(id)
    })
}

/// Scans a set of targets with a signature database; returns
/// `(target index, signature index, verdict)` for every non-NA hit.
pub fn scan_targets(
    signatures: &[PatchSignature],
    targets: &[&str],
) -> Vec<(usize, usize, PresenceVerdict)> {
    let mut out = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        let mut compiled = ScanTarget::new(target);
        for (si, sig) in signatures.iter().enumerate() {
            let v = compiled.test_presence(sig);
            if v != PresenceVerdict::NotApplicable {
                out.push((ti, si, v));
            }
        }
    }
    out
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

    #[test]
    fn scan_reports_hits_per_target() {
        let sigs = signatures_of(&patch());
        let vulnerable = BEFORE.replace("buf", "frame");
        let unrelated = "void noop(void) {}\n";
        let hits = scan_targets(&sigs, &[&vulnerable, unrelated]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], (0, 0, PresenceVerdict::Vulnerable));
    }

    /// The matcher [`ScanTarget`] replaced: every window joined,
    /// re-lexed and abstracted. Kept as the oracle for the fast path.
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
    const CANON: &[&str] = &["VAR0", "FUNC0", "LITERAL", "(", ")", ";", "VAR1", "VAR01", "if"];

    fn generated_source(g: &mut Gen) -> String {
        let mut src = String::new();
        for _ in 0..g.usize_in(0, 40) {
            src.push_str(g.pick::<&str>(PIECES));
            src.push_str(g.pick::<&str>(SEPARATORS));
        }
        src.push_str(g.pick::<&str>(TAILS));
        src
    }

    /// A signature shape: mostly an abstracted window of `texts` itself
    /// (so the reference says it matches), sometimes one with a single
    /// element changed, sometimes arbitrary placeholders.
    fn needle(g: &mut Gen, texts: &[String]) -> Vec<String> {
        let mode = g.weighted(&[6, 2, 1]);
        if mode == 2 || texts.is_empty() {
            return g.vec_with(0, 6, |g| (*g.pick(CANON)).to_owned());
        }
        let start = g.index(texts.len());
        let len = g.usize_in(1, (texts.len() - start).min(12));
        let mut shape = abstract_line(&texts[start..start + len].join(" "));
        if mode == 1 && !shape.is_empty() {
            let at = g.index(shape.len());
            shape[at] = (*g.pick(CANON)).to_owned();
        }
        shape
    }

    #[test]
    fn compiled_target_agrees_with_reference_on_generated_sources() {
        let commit = patch().commit;
        let seen = std::cell::Cell::new([0usize; 3]);
        check("scan_target_agrees_with_reference", 2048, |g| {
            let src = generated_source(g);
            let texts: Vec<String> = tokenize(&src).into_iter().map(|t| t.text).collect();
            // One compiled target serves every signature, as in a scan.
            let mut compiled = ScanTarget::new(&src);
            for _ in 0..4 {
                let sig = PatchSignature {
                    commit,
                    vulnerable: needle(g, &texts),
                    fixed: needle(g, &texts),
                };
                let fast = compiled.test_presence(&sig);
                assert_eq!(fast, reference_presence(&sig, &src), "{src:?} {sig:?}");
                let mut tally = seen.get();
                tally[fast as usize] += 1;
                seen.set(tally);
            }
        });
        let [vulnerable, patched, not_applicable] = seen.get();
        assert!(
            vulnerable > 100 && patched > 100 && not_applicable > 100,
            "verdicts not all exercised: {:?}",
            seen.get()
        );
    }

    #[test]
    fn placeholders_compare_exactly() {
        assert!(is_placeholder("VAR0", "VAR", 0));
        assert!(is_placeholder("FUNC12", "FUNC", 12));
        assert!(!is_placeholder("VAR01", "VAR", 1));
        assert!(!is_placeholder("VAR", "VAR", 0));
        assert!(!is_placeholder("VAR1", "FUNC", 1));
        assert!(!is_placeholder("VAR+1", "VAR", 1));
        assert!(!is_placeholder("VAR00", "VAR", 0));
        assert!(is_placeholder(&format!("VAR{}", usize::MAX), "VAR", usize::MAX));
    }

    #[test]
    fn fallback_memo_stays_bounded_on_an_unstable_target() {
        // Every `é` lexes as two bytes the lexer splits differently alone,
        // and a mid-line `#` opens a directive once a window starts with
        // it, so windows fall back; distinct lengths defeat the memo, and
        // each directive window interns a text of its own.
        let commit = patch().commit;
        for src in ["é ".repeat(400), "x # ".repeat(200)] {
            let mut compiled = ScanTarget::new(&src);
            for len in 8..40 {
                let sig = PatchSignature {
                    commit,
                    vulnerable: vec!["\u{fffd}".to_owned(); len],
                    fixed: vec!["VAR0".to_owned(); len],
                };
                assert_eq!(compiled.test_presence(&sig), reference_presence(&sig, &src));
                assert!(compiled.relexed_tokens <= RELEXED_MEMO_TOKENS);
            }
            assert!(!compiled.relexed.is_empty());
        }
    }

    #[test]
    fn compiled_target_agrees_with_reference_across_a_tiny_forge() {
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
            let mut compiled = ScanTarget::new(text);
            for sig in &sigs {
                let fast = compiled.test_presence(sig);
                assert_eq!(fast, reference_presence(sig, text), "{} on {text:?}", sig.commit);
                hits += usize::from(fast != PresenceVerdict::NotApplicable);
            }
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
