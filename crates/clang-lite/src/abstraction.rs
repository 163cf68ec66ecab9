//! Token abstraction: rewrites identifiers, literals, and call targets to
//! canonical placeholders so that two code fragments can be compared
//! modulo naming. Table I computes the hunk-level Levenshtein features
//! twice — before and after abstraction (features 49–56) — and the
//! Section V-A signatures are abstracted hunk sides.
//!
//! [`abstract_tokens`] is the definition, by text. [`Abstractor`] gives
//! the same output by interned id, which is what the feature extractor
//! and the signature scanner run.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// Abstracts a token stream:
///
/// * identifiers used as call targets become `FUNCn`;
/// * other identifiers become `VARn`;
/// * all literals become `LITERAL`;
/// * keywords, punctuators and directives pass through unchanged.
///
/// Numbering is first-appearance order and consistent within the stream,
/// so `a + a` abstracts to `VAR0 + VAR0` while `a + b` gives
/// `VAR0 + VAR1`.
///
/// ```rust
/// use clang_lite::{abstract_tokens, tokenize};
/// let canon = abstract_tokens(&tokenize("x = foo(x, 3);"));
/// assert_eq!(canon, ["VAR0", "=", "FUNC0", "(", "VAR0", ",", "LITERAL", ")", ";"]);
/// ```
pub fn abstract_tokens(tokens: &[Token]) -> Vec<String> {
    let mut vars: HashMap<&str, usize> = HashMap::new();
    let mut funcs: HashMap<&str, usize> = HashMap::new();
    let mut out = Vec::with_capacity(tokens.len());

    for (i, t) in tokens.iter().enumerate() {
        out.push(match &t.kind {
            TokenKind::Ident => {
                let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                if called {
                    let next = funcs.len();
                    let id = *funcs.entry(t.text.as_str()).or_insert(next);
                    format!("FUNC{id}")
                } else {
                    let next = vars.len();
                    let id = *vars.entry(t.text.as_str()).or_insert(next);
                    format!("VAR{id}")
                }
            }
            TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char => {
                "LITERAL".to_owned()
            }
            _ => t.text.clone(),
        });
    }
    out
}

/// One abstracted token. Within one [`Abstractor`], two canonical tokens
/// are equal exactly when their texts in [`abstract_tokens`] are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canon {
    /// A keyword, punctuator or directive, by interned id: its own text.
    Verbatim(u32),
    /// Any literal: `LITERAL`.
    Literal,
    /// An identifier not followed by `(`: `VARn`.
    Var(u32),
    /// An identifier followed by `(`: `FUNCn`.
    Func(u32),
}

/// How a token abstracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Becomes `VARn` or `FUNCn`.
    Ident,
    /// Becomes `LITERAL`.
    Literal,
    /// Stays its own text.
    Verbatim,
}

/// One interned text, with the shape and stability ([`is_stable`]) of
/// every token that has it.
#[derive(Debug, Clone)]
struct Entry {
    text: Arc<str>,
    shape: Shape,
    stable: bool,
}

/// Lexed tokens interned to dense `u32` ids, and abstracted by id.
///
/// A run of ids abstracts in one of two modes, both lazily:
///
/// * [`Abstractor::as_lexed`] gives [`abstract_tokens`] of the tokens
///   themselves (a patch line's duplicate-hunk key);
/// * [`Abstractor::joined`] gives [`abstract_tokens`] of the tokens'
///   texts joined with spaces and re-lexed (a hunk side, a scan window).
///
/// Joining changes nothing up to the first unstable token: a stable
/// token re-lexes as itself and ends at the space after it. So a joined
/// run abstracts by id until it reaches an unstable token; there it
/// joins and re-lexes the whole run, interns what that gives, and goes
/// on from the same position in the re-lexed tokens.
///
/// Every text lexes as one kind, except a `#`-initial one (a directive at
/// the start of a line, a punctuator elsewhere) that is verbatim and
/// unstable either way, so an id's shape and stability are fixed by the
/// first token interned with its text.
///
/// ```rust
/// use clang_lite::{tokenize, Abstractor, Canon};
/// let mut a = Abstractor::new();
/// let ids: Vec<u32> = tokenize("#if X\nf(y)").iter().map(|t| a.intern(t)).collect();
/// let spell = |a: &Abstractor, canons: Vec<Canon>| {
///     canons.into_iter().map(|c| { let mut s = String::new(); a.push_text(c, &mut s); s })
///         .collect::<Vec<_>>()
/// };
/// let lexed = a.as_lexed(&ids).collect();
/// assert_eq!(spell(&a, lexed), ["#if X", "FUNC0", "(", "VAR0", ")"]);
/// // Joined, the directive swallows the rest of the run.
/// let joined = a.joined(&ids).collect();
/// assert_eq!(spell(&a, joined), ["#if X f ( y )"]);
/// ```
#[derive(Debug, Clone)]
pub struct Abstractor {
    /// Keys shared with `entries`: one allocation per distinct text.
    ids: HashMap<Arc<str>, u32>,
    /// By id.
    entries: Vec<Entry>,
    /// Ids of one-byte ASCII texts by byte, `u32::MAX` until first seen:
    /// most C tokens are one byte, and this skips hashing them.
    one_byte: [u32; 128],
    lparen: u32,
    numbering: Numbering,
    /// The re-lexed ids of the joined run being abstracted, if any.
    relexed: Vec<u32>,
}

impl Default for Abstractor {
    fn default() -> Self {
        Self::new()
    }
}

impl Abstractor {
    /// An empty table.
    pub fn new() -> Abstractor {
        let mut abstractor = Abstractor {
            ids: HashMap::with_capacity(128),
            entries: Vec::new(),
            one_byte: [u32::MAX; 128],
            lparen: 0,
            numbering: Numbering { slots: Vec::new(), stamp: 1, next: [0, 0] },
            relexed: Vec::new(),
        };
        abstractor.lparen = abstractor.intern(&tokenize("(")[0]);
        abstractor
    }

    /// The id of `token`'s text, interning it on first sight.
    pub fn intern(&mut self, token: &Token) -> u32 {
        match *token.text.as_bytes() {
            [b] if b.is_ascii() => match self.one_byte[usize::from(b)] {
                u32::MAX => {
                    let id = self.insert(token);
                    self.one_byte[usize::from(b)] = id;
                    id
                }
                id => id,
            },
            _ => match self.ids.get(token.text.as_str()) {
                Some(&id) => id,
                None => self.insert(token),
            },
        }
    }

    fn insert(&mut self, token: &Token) -> u32 {
        let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 distinct token texts");
        let text: Arc<str> = Arc::from(token.text.as_str());
        self.ids.insert(Arc::clone(&text), id);
        let shape = match token.kind {
            TokenKind::Ident => Shape::Ident,
            _ if token.is_literal() => Shape::Literal,
            _ => Shape::Verbatim,
        };
        self.entries.push(Entry { text, shape, stable: is_stable(token) });
        self.numbering.slots.push([(0, 0); 2]);
        id
    }

    /// The text interned as `id`.
    #[inline]
    pub fn text(&self, id: u32) -> &str {
        &self.entries[id as usize].text
    }

    /// Appends the text [`abstract_tokens`] gives for `canon`.
    pub fn push_text(&self, canon: Canon, out: &mut String) {
        let (prefix, n) = match canon {
            Canon::Verbatim(id) => return out.push_str(self.text(id)),
            Canon::Literal => return out.push_str("LITERAL"),
            Canon::Var(n) => ("VAR", n),
            Canon::Func(n) => ("FUNC", n),
        };
        write!(out, "{prefix}{n}").expect("writing to a String cannot fail");
    }

    /// Abstracts the tokens `ids` as they were lexed.
    #[inline]
    pub fn as_lexed<'a>(&'a mut self, ids: &'a [u32]) -> Run<'a> {
        self.run(ids, false)
    }

    /// Abstracts the tokens `ids` as if their texts were joined with
    /// spaces and re-lexed.
    #[inline]
    pub fn joined<'a>(&'a mut self, ids: &'a [u32]) -> Run<'a> {
        self.run(ids, true)
    }

    #[inline]
    fn run<'a>(&'a mut self, ids: &'a [u32], joined: bool) -> Run<'a> {
        self.numbering.reset();
        Run { abstractor: self, ids, pos: 0, joined, relexed: false }
    }

    /// Joins the texts of `run` with spaces, re-lexes them and interns
    /// the result into `relexed`.
    fn relex(&mut self, run: &[u32]) {
        let mut joined = String::new();
        for (i, &id) in run.iter().enumerate() {
            if i > 0 {
                joined.push(' ');
            }
            joined.push_str(self.text(id));
        }
        let tokens = tokenize(&joined);
        let mut relexed = std::mem::take(&mut self.relexed);
        relexed.clear();
        relexed.extend(tokens.iter().map(|t| self.intern(t)));
        self.relexed = relexed;
    }
}

/// A run of interned tokens being abstracted, one [`Canon`] per call to
/// `next`, with `VARn`/`FUNCn` numbered from zero.
#[derive(Debug)]
pub struct Run<'a> {
    abstractor: &'a mut Abstractor,
    ids: &'a [u32],
    pos: usize,
    joined: bool,
    /// Whether the run now reads `abstractor.relexed` in place of `ids`.
    relexed: bool,
}

impl Run<'_> {
    /// The table the run reads, for the texts of its canonical tokens.
    #[inline]
    pub fn abstractor(&self) -> &Abstractor {
        self.abstractor
    }

    /// The next canonical token, abstracted from the ids alone: `None`
    /// at the end of the run and, in a joined run not yet re-lexed, at
    /// its first unstable token. Only `next` goes past that token, by
    /// joining and re-lexing the run; every token yielded before it is
    /// the same either way.
    #[inline]
    pub fn next_by_id(&mut self) -> Option<Canon> {
        let a = &mut *self.abstractor;
        let ids = if self.relexed { &a.relexed[..] } else { self.ids };
        let &id = ids.get(self.pos)?;
        let Entry { shape, stable, .. } = a.entries[id as usize];
        if !stable && self.joined && !self.relexed {
            return None;
        }
        self.pos += 1;
        Some(match shape {
            Shape::Literal => Canon::Literal,
            Shape::Verbatim => Canon::Verbatim(id),
            Shape::Ident if ids.get(self.pos) == Some(&a.lparen) => {
                Canon::Func(a.numbering.number(id, FUNC))
            }
            Shape::Ident => Canon::Var(a.numbering.number(id, VAR)),
        })
    }

    /// `canon`, the token this run just yielded, as it abstracts when it
    /// is the last token of a run: no `(` follows it there, so a `FUNCn`
    /// is the `VARn` its identifier has, or would take next. The number
    /// is looked up, not given, so the run goes on unchanged.
    #[inline]
    pub fn as_last(&self, canon: Canon) -> Canon {
        let Canon::Func(_) = canon else {
            return canon;
        };
        let ids = if self.relexed { &self.abstractor.relexed[..] } else { self.ids };
        Canon::Var(self.abstractor.numbering.peek(ids[self.pos - 1], VAR))
    }
}

impl Iterator for Run<'_> {
    type Item = Canon;

    #[inline]
    fn next(&mut self) -> Option<Canon> {
        self.next_by_id().or_else(|| {
            if self.relexed || self.pos == self.ids.len() {
                return None;
            }
            self.abstractor.relex(self.ids);
            self.relexed = true;
            debug_assert_eq!(
                self.abstractor.relexed.get(..self.pos),
                Some(&self.ids[..self.pos]),
                "a run of stable tokens re-lexes as itself"
            );
            self.next_by_id()
        })
    }
}

/// True when re-lexing `token` inside a space-joined fragment must give
/// back exactly `token`: `"{text} x"` lexes as the token itself and then
/// `x`.
///
/// A run of stable tokens abstracts the same joined and re-lexed as it
/// does as lexed. An unterminated literal or a directive swallows the
/// ` x`; a `#` opens a directive at the start of a fragment; bytes the
/// lexer split in the source split differently on their own. The lexer
/// treats the space exactly like the end of input, so this also covers a
/// token that ends its fragment.
fn is_stable(token: &Token) -> bool {
    match token.kind {
        // ASCII letters, digits and `_`: the space ends it, and with no
        // quote in it the lexer cannot read it as a string prefix.
        TokenKind::Ident | TokenKind::Keyword(_) => true,
        // Every lookahead the number scanner takes past a byte of the
        // token reads either another byte of it or, at its end, a byte
        // that stops the token just as the space does.
        TokenKind::Int | TokenKind::Float => true,
        // A longest match over ASCII punctuator bytes, which no pattern
        // extends across a space. A `#` opens a directive at the start of
        // a fragment, and a byte the lexer replaced with U+FFFD re-lexes
        // as three.
        TokenKind::Punct => token.text.is_ascii() && !token.text.starts_with('#'),
        // A directive runs to the end of its line, so it swallows the
        // ` x`.
        TokenKind::Preprocessor => false,
        TokenKind::Str | TokenKind::Char => relexes_as_itself(token),
    }
}

/// The definition [`is_stable`] shortcuts: `"{text} x"` lexes as the
/// token itself and then `x`.
fn relexes_as_itself(token: &Token) -> bool {
    let relexed = tokenize(&format!("{} x", token.text));
    matches!(
        relexed.as_slice(),
        [t, x] if t.kind == token.kind && t.text == token.text && x.text == "x"
    )
}

/// The two first-appearance numberings of identifier ids, `VARn` and
/// `FUNCn`: the id-based form of the numbering [`abstract_tokens`] gives
/// by text. [`Numbering::reset`] starts a new run in O(1) by moving to a
/// new stamp.
#[derive(Debug, Clone)]
struct Numbering {
    /// By id, then `VAR`/`FUNC`: the stamp of the run the id was last
    /// numbered in (`0` for never, so `stamp` is never `0`) and its
    /// number there.
    slots: Vec<[(u32, u32); 2]>,
    stamp: u32,
    next: [u32; 2],
}

const VAR: usize = 0;
const FUNC: usize = 1;

impl Numbering {
    /// Forgets every number given so far.
    #[inline]
    fn reset(&mut self) {
        self.next = [0, 0];
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill([(0, 0); 2]);
            self.stamp = 1;
        }
    }

    /// The number [`Numbering::number`] gives `id`, without giving it.
    #[inline]
    fn peek(&self, id: u32, which: usize) -> u32 {
        let slot = self.slots[id as usize][which];
        if slot.0 == self.stamp {
            slot.1
        } else {
            self.next[which]
        }
    }

    /// The number of `id` as a `VAR` or `FUNC` in the current run: the
    /// count of distinct ids numbered that way before its first appearance.
    #[inline]
    fn number(&mut self, id: u32, which: usize) -> u32 {
        let slot = &mut self.slots[id as usize][which];
        if slot.0 != self.stamp {
            *slot = (self.stamp, self.next[which]);
            self.next[which] += 1;
        }
        slot.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchdb_rt::check::check;

    fn canon(src: &str) -> Vec<String> {
        abstract_tokens(&tokenize(src))
    }

    #[test]
    fn consistent_numbering() {
        assert_eq!(canon("a = a + b;"), ["VAR0", "=", "VAR0", "+", "VAR1", ";"]);
    }

    #[test]
    fn functions_numbered_separately() {
        assert_eq!(
            canon("f(g(x))"),
            ["FUNC0", "(", "FUNC1", "(", "VAR0", ")", ")"]
        );
    }

    #[test]
    fn same_name_var_and_func_distinct() {
        // `x` used both as a variable and as a call target.
        assert_eq!(canon("x = x();"), ["VAR0", "=", "FUNC0", "(", ")", ";"]);
    }

    #[test]
    fn literals_collapse() {
        assert_eq!(canon("1 + 2.0 + \"s\""), ["LITERAL", "+", "LITERAL", "+", "LITERAL"]);
    }

    #[test]
    fn keywords_pass_through() {
        assert_eq!(canon("return x;"), ["return", "VAR0", ";"]);
    }

    /// Every string of up to `len` characters drawn from `alphabet`.
    fn runs(alphabet: &[char], len: usize) -> Vec<String> {
        let mut all = vec![String::new()];
        let mut last = vec![String::new()];
        for _ in 0..len {
            last = last.iter().flat_map(|r| alphabet.iter().map(move |c| format!("{r}{c}"))).collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    /// Checks the shortcut against the definition on every token of
    /// `kinds` lexed from `"v {run}"`; returns how many were checked.
    fn check_shortcut(runs: &[String], kinds: fn(TokenKind) -> bool) -> usize {
        let mut checked = 0;
        for run in runs {
            for t in tokenize(&format!("v {run}")).iter().filter(|t| kinds(t.kind)) {
                assert_eq!(is_stable(t), relexes_as_itself(t), "{:?} in {run:?}", t.text);
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn every_punctuator_follows_the_stable_rule() {
        // Every one- to three-byte run of ASCII punctuation, behind an
        // identifier so a leading `#` lexes mid-line, plus U+FFFD bytes.
        let bytes: Vec<char> = (0u8..0x80)
            .map(char::from)
            .filter(|c| !c.is_ascii_alphanumeric() && !" \t\r\n_\"'".contains(*c))
            .collect();
        let mut runs = runs(&bytes, 3);
        runs.extend(["é".into(), "\u{fffd}".into()]);
        let checked = check_shortcut(&runs, |k| k == TokenKind::Punct);
        assert!(checked > runs.len(), "only {checked} punctuators checked");
    }

    #[test]
    fn every_short_number_follows_the_stable_rule() {
        // Every run of up to five number bytes (digits, separators, radix
        // and exponent letters, signs, suffixes) after a digit or a `.`.
        let alphabet: Vec<char> = "09.'xXbBeE+-uUlLfFzZ".chars().collect();
        let tails = runs(&alphabet, 4);
        let runs: Vec<String> =
            ["0", "7", "."].iter().flat_map(|h| tails.iter().map(move |t| format!("{h}{t}"))).collect();
        let checked = check_shortcut(&runs, |k| matches!(k, TokenKind::Int | TokenKind::Float));
        assert!(checked > runs.len() / 2, "only {checked} numbers checked");
    }

    #[test]
    fn classes_follow_kind_and_stability() {
        let classes = |src: &str| {
            let mut a = Abstractor::new();
            tokenize(src)
                .iter()
                .map(|t| {
                    let id = a.intern(t);
                    (a.entries[id as usize].shape, a.entries[id as usize].stable)
                })
                .collect::<Vec<_>>()
        };
        use Shape::*;
        let [ident, literal, verbatim] = [(Ident, true), (Literal, true), (Verbatim, true)];
        assert_eq!(classes("f(x, 1.5);"), [ident, verbatim, ident, verbatim, literal, verbatim, verbatim]);
        assert_eq!(classes("return x;"), [verbatim, ident, verbatim]);
        // A directive, a mid-line `#`, an unterminated string, a raw string
        // left open at end of input.
        assert_eq!(classes("#define X 1\nx"), [(Verbatim, false), ident]);
        assert_eq!(classes("a # b"), [ident, (Verbatim, false), ident]);
        assert_eq!(classes("a = \"open\nb"), [ident, verbatim, (Literal, false), ident]);
        assert_eq!(classes("a R\"(open"), [ident, (Literal, false)]);
        // Prefixed and closed raw strings survive joining.
        assert_eq!(classes("L\"w\" R\"(r) \")\""), [literal, literal]);
    }

    /// The lemma the joined mode rests on: a run of stable tokens, joined
    /// with spaces and re-lexed, gives back exactly those tokens.
    #[test]
    fn stable_runs_survive_joining() {
        const PIECES: &[&str] = &[
            "a", "u8", "L", "R", "if", "0x1f", "1e", "1.5", "(", ")", ";", "->", "<<=", "/", "*",
            ".", "#", "##", "\"s\"", "\"open", "'c'", "L\"w\"", "R\"(r)\"", "R\"(", "\\", "é",
            "/* c */", "/*", "//", "\n", "\r",
        ];
        check("stable_runs_survive_joining", 512, |g| {
            let src: String = g
                .vec_with(0, 30, |g| {
                    let sep = *g.pick(&[" ", "", "\t"]);
                    format!("{sep}{}", g.pick(PIECES))
                })
                .concat();
            let toks = tokenize(&src);
            for run in toks.split(|t| !is_stable(t)) {
                let joined: Vec<&str> = run.iter().map(|t| t.text.as_str()).collect();
                let relexed = tokenize(&joined.join(" "));
                let shape = |ts: &[Token]| ts.iter().map(|t| (t.kind, t.text.clone())).collect::<Vec<_>>();
                assert_eq!(shape(&relexed), shape(run), "{src:?}");
            }
        });
    }

    #[test]
    fn numbering_restarts_and_survives_stamp_wraparound() {
        let mut n = Numbering { slots: vec![[(0, 0); 2]; 10], stamp: 1, next: [0, 0] };
        let vars = [n.number(5, VAR), n.number(0, VAR), n.number(5, VAR), n.number(9, VAR)];
        assert_eq!(vars, [0, 1, 0, 2]);
        assert_eq!([n.number(0, FUNC), n.number(5, FUNC)], [0, 1], "FUNCn counts apart");
        n.reset();
        assert_eq!(n.number(0, VAR), 0);
        n.stamp = u32::MAX;
        n.next = [0, 0];
        assert_eq!(n.number(0, VAR), 0);
        n.reset();
        assert_eq!(n.stamp, 1);
        assert_eq!([n.number(9, VAR), n.number(0, VAR)], [0, 1]);
    }

    #[test]
    fn as_last_is_how_each_token_ends_a_run() {
        let mut a = Abstractor::new();
        let ids: Vec<u32> = tokenize("x = f(x); x(g)").iter().map(|t| a.intern(t)).collect();
        let mut last = Vec::new();
        let mut run = a.joined(&ids);
        while let Some(canon) = run.next_by_id() {
            last.push(run.as_last(canon));
        }
        let spell = |a: &Abstractor, c: Canon| {
            let mut s = String::new();
            a.push_text(c, &mut s);
            s
        };
        // `f` would take VAR1, the called `x` is VAR0 already, and `g`
        // then takes VAR1, as `f` never did.
        let texts: Vec<String> = last.iter().map(|&c| spell(&a, c)).collect();
        assert_eq!(texts, ["VAR0", "=", "VAR1", "(", "VAR0", ")", ";", "VAR0", "(", "VAR1", ")"]);
        for end in 1..=ids.len() {
            let window: Vec<Canon> = a.joined(&ids[..end]).collect();
            assert_eq!(window.last(), Some(&last[end - 1]), "run of {end}");
        }
    }

    #[test]
    fn renaming_invariance() {
        // The whole point: renamed code abstracts identically.
        assert_eq!(canon("total += item->price;"), canon("sum += node->value;"));
        assert_ne!(canon("a + a"), canon("a + b"));
    }
}
