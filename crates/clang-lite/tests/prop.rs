//! Property tests: the lexer must be total (never panic, always make
//! progress) and abstraction must be a congruence under identifier
//! renaming. Runs on `patchdb_rt::check`, the in-repo property harness.

use patchdb_rt::check::check;

use clang_lite::{
    abstract_tokens, count_stats, find_if_statements, is_stable, parse_bodies, tokenize,
    tokenize_fragment, StmtKind, Token, TokenKind,
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
    let a = abstract_tokens(&tokenize(&src_a));
    let b = abstract_tokens(&tokenize(&src_b));
    let ca: Vec<&str> = a.iter().map(|t| t.canon.as_str()).collect();
    let cb: Vec<&str> = b.iter().map(|t| t.canon.as_str()).collect();
    assert_eq!(ca, cb);
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

/// The statement parser is total: arbitrary input never panics or
/// hangs, and extents stay within the source.
#[test]
fn ast_parser_is_total() {
    check("ast_parser_is_total", CASES, |g| {
        let src = g.string_from(0, 400, PRINTABLE_NL);
        let line_count = src.split('\n').count();
        for body in parse_bodies(&src) {
            for stmt in body.walk() {
                assert!(stmt.start_line >= 1);
                assert!(stmt.end_line <= line_count + 1);
                assert!(stmt.end_line >= stmt.start_line);
            }
        }
    });
}

/// On well-formed single-function bodies, the AST's if count matches
/// the token-level finder.
#[test]
fn ast_if_count_matches_finder() {
    const CONDS: &[&str] = &["a > b", "!p", "x == 0", "n % 2"];
    check("ast_if_count_matches_finder", CASES, |g| {
        let conds = g.vec_with(0, 3, |g| *g.pick(CONDS));
        let mut body = String::from("void f(int a, int b, int n, char *p, int x) {\n");
        for c in &conds {
            body.push_str(&format!("    if ({c})\n        work();\n"));
        }
        body.push_str("    done();\n}\n");
        let bodies = parse_bodies(&body);
        assert_eq!(bodies.len(), 1);
        let ast_ifs = bodies[0].count_matching(&|s| matches!(s.kind, StmtKind::If { .. }));
        let finder_ifs = find_if_statements(&body).len();
        assert_eq!(ast_ifs, conds.len());
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

/// The lemma id-based abstraction rests on: a run of stable tokens,
/// joined with spaces and re-lexed, gives back exactly those tokens, so
/// abstracting the tokens equals abstracting the re-lexed text.
#[test]
fn stable_runs_survive_joining() {
    const PIECES: &[&str] = &[
        "a", "u8", "L", "R", "if", "0x1f", "1e", "1.5", "(", ")", ";", "->", "<<=", "/", "*",
        ".", "#", "##", "\"s\"", "\"open", "'c'", "L\"w\"", "R\"(r)\"", "R\"(", "\\", "é",
        "/* c */", "/*", "//", "\n", "\r",
    ];
    check("stable_runs_survive_joining", CASES, |g| {
        let src: String = g
            .vec_with(0, 30, |g| {
                let sep = *g.pick(&[" ", "", "\t"]);
                format!("{sep}{}", g.pick(PIECES))
            })
            .concat();
        let toks = tokenize(&src);
        for run in toks.split(|t| !is_stable(t)) {
            let joined: Vec<&str> = run.iter().map(|t| t.text.as_str()).collect();
            let relexed = tokenize_fragment(&joined.join(" "), 1);
            let shape = |ts: &[Token]| ts.iter().map(|t| (t.kind, t.text.clone())).collect::<Vec<_>>();
            assert_eq!(shape(&relexed), shape(run), "{src:?}");
        }
    });
}
