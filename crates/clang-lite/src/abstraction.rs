//! Token abstraction: rewrites identifiers, literals, and call targets to
//! canonical placeholders so that two code fragments can be compared
//! modulo naming. Table I computes the hunk-level Levenshtein features
//! twice — before and after abstraction (features 49–56).

use std::collections::HashMap;

use crate::lexer::tokenize_fragment;
use crate::token::{Token, TokenKind};

/// One abstracted token: the canonical text plus the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractedToken {
    /// The canonical placeholder (`VAR0`, `FUNC1`, `LITERAL`, or the
    /// original text for keywords/punctuators).
    pub canon: String,
    /// The original token text.
    pub original: String,
}

/// Abstracts a token stream:
///
/// * identifiers used as call targets become `FUNCn`;
/// * other identifiers become `VARn`;
/// * all literals become `LITERAL`;
/// * keywords and punctuators pass through unchanged.
///
/// Numbering is first-appearance order and consistent within the stream,
/// so `a + a` abstracts to `VAR0 + VAR0` while `a + b` gives
/// `VAR0 + VAR1`.
///
/// ```rust
/// use clang_lite::{abstract_tokens, tokenize};
/// let a = abstract_tokens(&tokenize("x = foo(x, 3);"));
/// let canon: Vec<&str> = a.iter().map(|t| t.canon.as_str()).collect();
/// assert_eq!(canon, ["VAR0", "=", "FUNC0", "(", "VAR0", ",", "LITERAL", ")", ";"]);
/// ```
pub fn abstract_tokens(tokens: &[Token]) -> Vec<AbstractedToken> {
    let mut vars: HashMap<&str, usize> = HashMap::new();
    let mut funcs: HashMap<&str, usize> = HashMap::new();
    let mut out = Vec::with_capacity(tokens.len());

    for (i, t) in tokens.iter().enumerate() {
        let canon = match &t.kind {
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
        };
        out.push(AbstractedToken { canon, original: t.text.clone() });
    }
    out
}

/// True when re-lexing `token` inside a space-joined fragment must give
/// back exactly `token`: `"{text} x"` lexes as the token itself and then
/// `x`.
///
/// Callers that abstract token by token instead of joining, re-lexing
/// and calling [`abstract_tokens`] get the same result exactly when every
/// token involved is stable. An unterminated literal or a directive
/// swallows the ` x`; a `#` opens a directive at the start of a fragment;
/// bytes the lexer split in the source split differently on their own.
/// The lexer treats the space exactly like the end of input, so this also
/// covers a token that ends its fragment.
///
/// ```rust
/// use clang_lite::{is_stable, tokenize};
/// let stable = |src: &str| tokenize(src).iter().map(is_stable).collect::<Vec<_>>();
/// assert_eq!(stable("f(x, 1.5);"), [true; 7]);
/// assert_eq!(stable("a # b"), [true, false, true]);
/// assert_eq!(stable("s = \"open"), [true, true, false]);
/// ```
pub fn is_stable(token: &Token) -> bool {
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
        _ => relexes_as_itself(token),
    }
}

/// The definition [`is_stable`] shortcuts: `"{text} x"` lexes as the
/// token itself and then `x`.
fn relexes_as_itself(token: &Token) -> bool {
    let relexed = tokenize_fragment(&format!("{} x", token.text), 1);
    matches!(
        relexed.as_slice(),
        [t, x] if t.kind == token.kind && t.text == token.text && x.text == "x"
    )
}

/// First-appearance numbering of interned identifiers, the id-based form
/// of the `VARn`/`FUNCn` numbering [`abstract_tokens`] gives by text.
///
/// Symbols are dense ids (`0..symbols`) from the caller's interner.
/// [`Numbering::reset`] starts a new stream in O(1) by moving to a new
/// stamp, so one numbering serves any number of windows or lines.
///
/// ```rust
/// use clang_lite::Numbering;
/// let mut n = Numbering::new(8);
/// assert_eq!([n.number(7), n.number(3), n.number(7)], [0, 1, 0]);
/// n.reset();
/// assert_eq!(n.number(3), 0);
/// ```
#[derive(Debug)]
pub struct Numbering {
    /// The stream a symbol was last numbered in; `0` means never, so
    /// `stamp` is never `0`.
    stamp_of: Vec<u32>,
    id_of: Vec<usize>,
    stamp: u32,
    next: usize,
}

impl Numbering {
    /// A numbering for symbols `0..symbols`, ready for its first stream.
    pub fn new(symbols: usize) -> Numbering {
        Numbering { stamp_of: vec![0; symbols], id_of: vec![0; symbols], stamp: 1, next: 0 }
    }

    /// Extends the numbering to symbols `0..symbols`, for an interner
    /// that is still growing.
    pub fn reserve(&mut self, symbols: usize) {
        if symbols > self.stamp_of.len() {
            self.stamp_of.resize(symbols, 0);
            self.id_of.resize(symbols, 0);
        }
    }

    /// Forgets every number given so far.
    #[inline]
    pub fn reset(&mut self) {
        self.next = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamp_of.fill(0);
            self.stamp = 1;
        }
    }

    /// The number of `sym` in the current stream: the count of distinct
    /// symbols numbered before its first appearance. `sym` must be below
    /// the symbol count given to [`Numbering::new`] or
    /// [`Numbering::reserve`].
    #[inline]
    pub fn number(&mut self, sym: usize) -> usize {
        if self.stamp_of[sym] != self.stamp {
            self.stamp_of[sym] = self.stamp;
            self.id_of[sym] = self.next;
            self.next += 1;
        }
        self.id_of[sym]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn canon(src: &str) -> Vec<String> {
        abstract_tokens(&tokenize(src)).into_iter().map(|t| t.canon).collect()
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
    fn numbering_restarts_and_survives_stamp_wraparound() {
        let mut n = Numbering::new(6);
        n.reserve(10);
        assert_eq!([n.number(5), n.number(0), n.number(5), n.number(9)], [0, 1, 0, 2]);
        n.stamp = u32::MAX;
        n.next = 0;
        assert_eq!(n.number(0), 0);
        n.reset();
        assert_eq!(n.stamp, 1);
        assert_eq!([n.number(9), n.number(0)], [0, 1]);
    }

    #[test]
    fn renaming_invariance() {
        // The whole point: renamed code abstracts identically.
        assert_eq!(canon("total += item->price;"), canon("sum += node->value;"));
        assert_ne!(canon("a + a"), canon("a + b"));
    }
}
