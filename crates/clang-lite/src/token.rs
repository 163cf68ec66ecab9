//! Token and span types produced by the lexer.


use crate::keywords::Keyword;

/// A half-open source region in (1-based) line / (0-based) column terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line the token starts on.
    pub line: usize,
    /// 0-based byte column the token starts at within its line.
    pub col: usize,
    /// 1-based line the token ends on (inclusive).
    pub end_line: usize,
    /// 0-based byte column one past the token's last byte.
    pub end_col: usize,
}

/// Lexical category of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Identifier that is not a reserved word.
    Ident,
    /// A C/C++ reserved word.
    Keyword(Keyword),
    /// Integer literal (decimal, hex, octal, binary; any suffix).
    Int,
    /// Floating-point literal.
    Float,
    /// String literal (including prefix and quotes in `text`).
    Str,
    /// Character literal.
    Char,
    /// Operator or punctuator, e.g. `+`, `->`, `<<=`.
    Punct,
    /// A whole preprocessor directive line (`#include <...>`, `#define …`).
    Preprocessor,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// The token's category.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// Where the token sits in the source.
    pub span: Span,
}

impl Token {
    /// True for identifier tokens.
    pub fn is_ident(&self) -> bool {
        self.kind == TokenKind::Ident
    }

    /// True when this token is the given punctuator.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }

    /// True when this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        self.kind == TokenKind::Keyword(kw)
    }

    /// True for any literal kind (int, float, string, char).
    pub fn is_literal(&self) -> bool {
        matches!(self.kind, TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_predicates() {
        let t = Token {
            kind: TokenKind::Punct,
            text: "->".into(),
            span: Span { line: 1, col: 0, end_line: 1, end_col: 2 },
        };
        assert!(t.is_punct("->"));
        assert!(!t.is_punct("-"));
        assert!(!t.is_ident());
        assert!(!t.is_literal());
    }
}
