//! The C/C++ lexer. Never fails: malformed input degrades to best-effort
//! tokens, because PatchDB lexes *patch fragments* that are rarely
//! complete translation units.

use crate::keywords::keyword_of;
use crate::token::{Span, Token, TokenKind};

/// Lexes `src`, skipping comments. An unterminated block comment or
/// string consumes the rest of its line or input without error.
///
/// Preprocessor directives are emitted as single [`TokenKind::Preprocessor`]
/// tokens covering the whole (possibly continued) line.
pub fn tokenize(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn text_since(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        let mut at_line_start = true;

        while let Some(b) = self.peek() {
            let (line, col, start) = (self.line, self.col, self.pos);
            match b {
                b' ' | b'\t' | b'\r' => {
                    self.bump();
                }
                b'\n' => {
                    self.bump();
                    at_line_start = true;
                }
                b'#' if at_line_start => {
                    self.consume_preprocessor();
                    out.push(Token {
                        kind: TokenKind::Preprocessor,
                        text: self.text_since(start),
                        span: self.span_from(line, col),
                    });
                    at_line_start = true;
                }
                b'/' if self.peek_at(1) == Some(b'/') => {
                    while self.peek().is_some_and(|c| c != b'\n') {
                        self.bump();
                    }
                }
                b'/' if self.peek_at(1) == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => break, // unterminated: tolerate
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                    at_line_start = false;
                }
                b'"' => {
                    self.consume_string(b'"');
                    out.push(Token {
                        kind: TokenKind::Str,
                        text: self.text_since(start),
                        span: self.span_from(line, col),
                    });
                    at_line_start = false;
                }
                b'\'' => {
                    self.consume_string(b'\'');
                    out.push(Token {
                        kind: TokenKind::Char,
                        text: self.text_since(start),
                        span: self.span_from(line, col),
                    });
                    at_line_start = false;
                }
                b'0'..=b'9' => {
                    let kind = self.consume_number();
                    out.push(Token {
                        kind,
                        text: self.text_since(start),
                        span: self.span_from(line, col),
                    });
                    at_line_start = false;
                }
                b'.' if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) => {
                    let kind = self.consume_number();
                    out.push(Token {
                        kind,
                        text: self.text_since(start),
                        span: self.span_from(line, col),
                    });
                    at_line_start = false;
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    // String prefixes: L"..", u8"..", R"(..)" etc.
                    if let Some(tok) = self.try_prefixed_string(line, col, start) {
                        out.push(tok);
                        at_line_start = false;
                        continue;
                    }
                    while self
                        .peek()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.bump();
                    }
                    let text = self.text_since(start);
                    let kind = match keyword_of(&text) {
                        Some(kw) => TokenKind::Keyword(kw),
                        None => TokenKind::Ident,
                    };
                    out.push(Token { kind, text, span: self.span_from(line, col) });
                    at_line_start = false;
                }
                _ => {
                    self.consume_punct();
                    out.push(Token {
                        kind: TokenKind::Punct,
                        text: self.text_since(start),
                        span: self.span_from(line, col),
                    });
                    at_line_start = false;
                }
            }
        }
        out
    }

    fn span_from(&self, line: usize, col: usize) -> Span {
        Span { line, col, end_line: self.line, end_col: self.col }
    }

    fn consume_preprocessor(&mut self) {
        loop {
            match self.peek() {
                None => break,
                Some(b'\n') => {
                    // Line continuation?
                    if self.src.get(self.pos.wrapping_sub(1)) == Some(&b'\\') {
                        self.bump();
                    } else {
                        break;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn consume_string(&mut self, quote: u8) {
        self.bump(); // opening quote
        loop {
            match self.peek() {
                None | Some(b'\n') => break, // unterminated: stop at EOL
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(c) if c == quote => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn try_prefixed_string(&mut self, line: usize, col: usize, start: usize) -> Option<Token> {
        let prefixes: [&[u8]; 6] = [b"u8", b"L", b"u", b"U", b"R", b"LR"];
        for p in prefixes {
            if self.src[self.pos..].starts_with(p)
                && self.src.get(self.pos + p.len()) == Some(&b'"')
            {
                for _ in 0..p.len() {
                    self.bump();
                }
                if p.ends_with(b"R") {
                    self.consume_raw_string();
                } else {
                    self.consume_string(b'"');
                }
                return Some(Token {
                    kind: TokenKind::Str,
                    text: self.text_since(start),
                    span: self.span_from(line, col),
                });
            }
        }
        None
    }

    fn consume_raw_string(&mut self) {
        // R"delim( ... )delim" — capture the delimiter then scan for it.
        self.bump(); // `"`
        let delim_start = self.pos;
        while self.peek().is_some_and(|c| c != b'(') {
            self.bump();
        }
        let delim = self.src[delim_start..self.pos].to_vec();
        self.bump(); // `(`
        let mut closer = Vec::with_capacity(delim.len() + 2);
        closer.push(b')');
        closer.extend_from_slice(&delim);
        closer.push(b'"');
        while self.pos < self.src.len() {
            if self.src[self.pos..].starts_with(&closer) {
                for _ in 0..closer.len() {
                    self.bump();
                }
                return;
            }
            self.bump();
        }
    }

    fn consume_number(&mut self) -> TokenKind {
        let mut is_float = false;
        if self.peek() == Some(b'0')
            && matches!(self.peek_at(1), Some(b'x') | Some(b'X') | Some(b'b') | Some(b'B'))
        {
            self.bump();
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit() || c == b'\'') {
                self.bump();
            }
        } else {
            while self.peek().is_some_and(|c| c.is_ascii_digit() || c == b'\'') {
                self.bump();
            }
            if self.peek() == Some(b'.') && self.peek_at(1).is_none_or(|c| c != b'.') {
                is_float = true;
                self.bump();
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E'))
                && self
                    .peek_at(1)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'+' || c == b'-')
            {
                is_float = true;
                self.bump();
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        // Suffixes: u, l, ll, f, z and case variants.
        while self
            .peek()
            .is_some_and(|c| matches!(c, b'u' | b'U' | b'l' | b'L' | b'f' | b'F' | b'z' | b'Z'))
        {
            if matches!(self.peek(), Some(b'f') | Some(b'F')) {
                is_float = true;
            }
            self.bump();
        }
        if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    fn consume_punct(&mut self) {
        // Longest-match against the C/C++ punctuator set.
        const THREE: &[&[u8]] = &[b"<<=", b">>=", b"...", b"->*"];
        const TWO: &[&[u8]] = &[
            b"::", b"->", b"++", b"--", b"<<", b">>", b"<=", b">=", b"==", b"!=", b"&&",
            b"||", b"+=", b"-=", b"*=", b"/=", b"%=", b"&=", b"|=", b"^=", b"##", b".*",
        ];
        for p in THREE {
            if self.src[self.pos..].starts_with(p) {
                for _ in 0..3 {
                    self.bump();
                }
                return;
            }
        }
        for p in TWO {
            if self.src[self.pos..].starts_with(p) {
                for _ in 0..2 {
                    self.bump();
                }
                return;
            }
        }
        self.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::Keyword;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn lexes_simple_statement() {
        assert_eq!(
            texts("x = a + b;"),
            vec!["x", "=", "a", "+", "b", ";"]
        );
    }

    #[test]
    fn keywords_vs_idents() {
        let toks = tokenize("if (ifdef) while_loop");
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::If));
        assert_eq!(toks[2].kind, TokenKind::Ident); // `ifdef` is not a keyword
        assert_eq!(toks[4].kind, TokenKind::Ident); // `while_loop` either
    }

    #[test]
    fn multichar_punctuators_longest_match() {
        assert_eq!(texts("a <<= b >> c != d->e"), vec![
            "a", "<<=", "b", ">>", "c", "!=", "d", "->", "e"
        ]);
    }

    #[test]
    fn numbers() {
        let toks = tokenize("0x1F 42u 3.14f 1e9 0b1010 1'000'000 .5");
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Int,
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Int,
                TokenKind::Float,
            ]
        );
    }

    #[test]
    fn strings_and_chars() {
        let toks = tokenize(r#"printf("hi \"there\"", 'x', L"wide")"#);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Char));
    }

    #[test]
    fn raw_string() {
        let toks = tokenize(r#"auto s = R"(no \ escapes ")here")" + 1;"#);
        // The raw string should be one token ending at `)"`; wait — delim is
        // empty so it ends at the first `)"`.
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn comments_skipped_by_default() {
        assert_eq!(kinds("a /* b */ c // d\n e").len(), 3);
    }

    #[test]
    fn unterminated_comment_tolerated() {
        let toks = tokenize("a /* never closed");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "a");
    }

    #[test]
    fn unterminated_string_stops_at_eol() {
        let toks = tokenize("x = \"oops\ny = 2;");
        assert!(toks.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn preprocessor_is_one_token() {
        let toks = tokenize("#include <stdio.h>\nint main");
        assert_eq!(toks[0].kind, TokenKind::Preprocessor);
        assert_eq!(toks[1].kind, TokenKind::Keyword(Keyword::Int));
    }

    #[test]
    fn preprocessor_continuation() {
        let toks = tokenize("#define M(a) \\\n  (a + 1)\nint x;");
        assert_eq!(toks[0].kind, TokenKind::Preprocessor);
        assert!(toks[0].text.contains("a + 1"));
        assert_eq!(toks[1].kind, TokenKind::Keyword(Keyword::Int));
    }

    #[test]
    fn line_and_column_tracking() {
        let toks = tokenize("ab\n  cd");
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 2);
    }

    #[test]
    fn hash_mid_line_is_punct() {
        // `a # b` — not at line start, so not a preprocessor directive.
        let toks = tokenize("a # b");
        assert_eq!(toks[1].kind, TokenKind::Punct);
    }

    #[test]
    fn never_panics_on_junk() {
        for junk in ["\\\\\\", "\"", "'", "/*", "R\"(", "0x", "#", "\u{fffd}"] {
            let _ = tokenize(junk);
        }
    }
}
