//! Property tests: the lexer must be total (never panic, always make
//! progress), abstraction must be a congruence under identifier
//! renaming, and the id-based `Abstractor` must spell what
//! `abstract_tokens` does in both of its modes. Runs on
//! `patchdb_rt::check`, the in-repo property harness.

use patchdb_rt::check::check;

use clang_lite::{
    abstract_tokens, count_stats, find_if_statements, tokenize, Abstractor, Canon, TokenKind,
};

/// Printable ASCII without newline, the analogue of proptest's `.`.
const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";
/// Printable ASCII plus newline, the analogue of `[ -~\n]`.
const PRINTABLE_NL: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\n";

const CASES: u32 = 512;

/// The lexer accepts arbitrary (even non-C) input without panicking and
/// its spans are weakly ordered.
#[test]
fn lexer_is_total() {
    check("lexer_is_total", CASES, |g| {
        let src = g.string_from(0, 200, PRINTABLE);
        let toks = tokenize(&src);
        for w in toks.windows(2) {
            let a = &w[0].span;
            let b = &w[1].span;
            assert!(
                (a.end_line, a.end_col) <= (b.line, b.col) || a.end_line < b.line,
                "overlapping spans: {a:?} then {b:?}"
            );
        }
    });
}

/// Lexing C-ish code reproduces every non-whitespace byte in order
/// (token texts concatenate to the source minus whitespace), for inputs
/// without comments/strings where the lexer may merge regions.
#[test]
fn token_texts_cover_source() {
    const WORDS: &[&str] = &[
        "if", "else", "x", "y1", "==", "&&", "(", ")", "{", "}", ";", "42", "0x1f", "+", "->",
    ];
    check("token_texts_cover_source", CASES, |g| {
        let ws = g.vec_with(0, 39, |g| *g.pick(WORDS));
        let src = ws.join(" ");
        let toks = tokenize(&src);
        let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
        let stripped: String = src.split_whitespace().collect();
        assert_eq!(rebuilt, stripped);
    });
}

/// Body of the rename-invariance property, shared between the random
/// checker and the pinned regression below.
fn assert_rename_invariant(raw: &[String]) {
    // Prefix to dodge keywords; collisions are fine (renaming keeps them).
    let names: Vec<String> = raw.iter().map(|n| format!("v_{n}")).collect();
    // Build a snippet from the names, then rename them all consistently.
    let src_a = format!("{} = {}({}, {} + 1);", names[0], names[1], names[2], names[0]);
    let renamed: Vec<String> = names.iter().map(|n| format!("zz_{n}")).collect();
    let src_b = format!("{} = {}({}, {} + 1);", renamed[0], renamed[1], renamed[2], renamed[0]);
    // Renaming must not accidentally collide two distinct names.
    assert_eq!(abstract_tokens(&tokenize(&src_a)), abstract_tokens(&tokenize(&src_b)));
}

/// Alpha-renaming identifiers leaves the abstracted stream unchanged.
#[test]
fn abstraction_rename_invariant() {
    check("abstraction_rename_invariant", CASES, |g| {
        // `[a-z][a-z0-9_]{0,6}`, 3..6 names.
        let raw = g.vec_with(3, 5, |g| {
            let head = g.string_from(1, 1, "abcdefghijklmnopqrstuvwxyz");
            let tail = g.string_from(0, 6, "abcdefghijklmnopqrstuvwxyz0123456789_");
            format!("{head}{tail}")
        });
        assert_rename_invariant(&raw);
    });
}

/// Pinned regression carried over from the proptest era
/// (`prop.proptest-regressions`): `names = ["do", "a", "a"]` — a raw
/// name that once collided with a keyword after prefixing.
#[test]
fn abstraction_rename_invariant_regression_keywordish_name() {
    let raw = vec!["do".to_owned(), "a".to_owned(), "a".to_owned()];
    assert_rename_invariant(&raw);
}

/// Stats counters never exceed the token count and are stable across
/// re-lexing.
#[test]
fn stats_bounded_and_deterministic() {
    check("stats_bounded_and_deterministic", CASES, |g| {
        let src = g.string_from(0, 200, PRINTABLE);
        let toks = tokenize(&src);
        let s1 = count_stats(&toks);
        let s2 = count_stats(&tokenize(&src));
        assert_eq!(s1, s2);
        assert!(s1.ifs + s1.loops + s1.jumps <= s1.tokens);
        assert!(s1.calls + s1.variables <= s1.tokens);
    });
}

/// The if-statement finder is total and reports extents within bounds.
#[test]
fn if_finder_is_total() {
    check("if_finder_is_total", CASES, |g| {
        let src = g.string_from(0, 300, PRINTABLE_NL);
        let line_count = src.split('\n').count();
        for stmt in find_if_statements(&src) {
            assert!(stmt.line() >= 1);
            assert!(stmt.end_line <= line_count + 1);
            assert!(stmt.end_line >= stmt.line());
        }
    });
}

/// On well-formed single-function bodies, the finder reports one `if`
/// per generated guard.
#[test]
fn if_finder_counts_every_guard() {
    const CONDS: &[&str] = &["a > b", "!p", "x == 0", "n % 2"];
    check("if_finder_counts_every_guard", CASES, |g| {
        let conds = g.vec_with(0, 3, |g| *g.pick(CONDS));
        let mut body = String::from("void f(int a, int b, int n, char *p, int x) {\n");
        for c in &conds {
            body.push_str(&format!("    if ({c})\n        work();\n"));
        }
        body.push_str("    done();\n}\n");
        let finder_ifs = find_if_statements(&body).len();
        assert_eq!(finder_ifs, conds.len());
    });
}

/// Preprocessor lines never leak keyword/ident tokens.
#[test]
fn preprocessor_is_opaque() {
    check("preprocessor_is_opaque", CASES, |g| {
        let body = g.string_from(0, 40, "abcdefghijklmnopqrstuvwxyz ()+");
        let src = format!("#define X {body}\n");
        let toks = tokenize(&src);
        assert!(toks.iter().all(|t| t.kind == TokenKind::Preprocessor));
    });
}

/// Source pieces that reach every path of the `Abstractor`: directives
/// with `\` continuations, `#` mid-line and at line start, unterminated,
/// prefixed and raw string/char literals, comments (one never closed),
/// U+FFFD and the bytes of a non-ASCII letter, and the placeholder texts
/// themselves as identifiers.
const PIECES: &[&str] = &[
    "a", "b", "buf", "f", "g", "if", "return", "int", "sizeof", "(", ")", "{", "}", ";", ",",
    "=", "==", "->", "*", "&", ".", "0", "42", "0x1f", "1.5", "1e", "\"s\"", "'c'", "L\"w\"",
    "u8\"u\"", "R\"(r) \")\"", "R\"d(x)\" y)d\"", "\"open", "'o", "\"esc\\", "R\"(", "#", "##",
    "#define M(a) \\\n  (a + 1)", "#include <x.h>", "# if X", "// note\n", "/* c */",
    "/* never closed", "\\", "é", "\u{fffd}", "\n", "VAR0", "FUNC1", "LITERAL",
];

/// Both modes of an `Abstractor` spell what `abstract_tokens` gives: as
/// lexed, of the tokens themselves; joined, of their texts joined with
/// spaces and re-lexed. Runs are any slice of a generated source, share
/// one table (as the lines and sides of a patch do), and are sometimes
/// left half read (as a scan window is at its first mismatch). Two
/// canonical tokens are equal exactly when their spellings are.
#[test]
fn abstractor_modes_match_abstract_tokens() {
    let spell = |a: &Abstractor, canons: &[Canon]| -> Vec<String> {
        canons
            .iter()
            .map(|&c| {
                let mut s = String::new();
                a.push_text(c, &mut s);
                s
            })
            .collect()
    };
    check("abstractor_modes_match_abstract_tokens", CASES, |g| {
        let mut a = Abstractor::new();
        for _ in 0..g.usize_in(1, 4) {
            let src: String = g
                .vec_with(0, 24, |g| format!("{}{}", g.pick(&[" ", "", "\t", "\n"]), g.pick(PIECES)))
                .concat();
            let toks = tokenize(&src);
            let ids: Vec<u32> = toks.iter().map(|t| a.intern(t)).collect();
            let start = g.usize_in(0, ids.len());
            let end = g.usize_in(start, ids.len());
            let (run, run_toks) = (&ids[start..end], &toks[start..end]);
            if g.bool() {
                let _ = a.joined(run).take(g.usize_in(0, run.len())).count();
            }

            let lexed: Vec<Canon> = a.as_lexed(run).collect();
            assert_eq!(spell(&a, &lexed), abstract_tokens(run_toks), "as lexed: {src:?}");
            let texts: Vec<&str> = run_toks.iter().map(|t| t.text.as_str()).collect();
            let want = abstract_tokens(&tokenize(&texts.join(" ")));
            let joined: Vec<Canon> = a.joined(run).collect();
            let spelled = spell(&a, &joined);
            assert_eq!(spelled, want, "joined: {src:?}");

            let both: Vec<(Canon, String)> =
                lexed.iter().copied().zip(spell(&a, &lexed)).chain(joined.into_iter().zip(spelled)).collect();
            for (x, sx) in &both {
                for (y, sy) in &both {
                    assert_eq!(x == y, sx == sy, "{x:?} {sx:?} vs {y:?} {sy:?} in {src:?}");
                }
            }
        }
    });
}
