//! Structural parsing: function definitions and `if`-statement extents
//! with line spans, the information PatchDB reads from LLVM AST dumps
//! (`IfStmt <line:N, line:N>`, Section III-C-2).
//!
//! This is a tolerant token-level parser: it tracks delimiter balance
//! rather than building a full AST, recovers at every imbalance, and never
//! fails — patches routinely reference files we only partially understand.


use crate::keywords::Keyword;
use crate::lexer::tokenize;
use crate::token::{Span, Token, TokenKind};

/// A function definition's location within a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSpan {
    /// The function's name (identifier before the parameter list).
    pub name: String,
    /// 1-based line where the name token sits.
    pub start_line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// 1-based line of the body's opening brace.
    pub body_open_line: usize,
}

/// An `if` statement's location and shape within a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfStmt {
    /// Span of the `if` keyword itself.
    pub if_span: Span,
    /// Span of the opening `(` of the condition.
    pub cond_open: Span,
    /// Span of the closing `)` of the condition.
    pub cond_close: Span,
    /// The raw condition text between the parentheses.
    pub cond_text: String,
    /// 1-based last line of the whole statement, including any `else`.
    pub end_line: usize,
    /// Whether the then-branch is a braced block.
    pub then_braced: bool,
    /// Whether an `else` branch is present.
    pub has_else: bool,
}

impl IfStmt {
    /// 1-based line of the `if` keyword.
    pub fn line(&self) -> usize {
        self.if_span.line
    }

    /// True when any line of `lines` falls within the statement's extent.
    pub fn touches_lines(&self, lines: &[usize]) -> bool {
        lines.iter().any(|l| (self.line()..=self.end_line).contains(l))
    }
}

/// Finds top-level function definitions in C/C++ source.
///
/// Heuristic: an identifier followed by a balanced parameter list and an
/// opening brace, at file brace-depth zero, whose name is not a control
/// keyword. Declarations (ending in `;`) are skipped. Nested/anonymous
/// constructs are out of scope, matching the paper's per-function counters.
pub fn find_functions(src: &str) -> Vec<FunctionSpan> {
    let tokens = tokenize(src);
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth -= 1;
            i += 1;
            continue;
        }
        if depth == 0 && t.kind == TokenKind::Ident && tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if let Some(close) = match_delim(&tokens, i + 1, "(", ")") {
                // Allow a few qualifier tokens between `)` and `{`.
                let mut k = close + 1;
                let mut hops = 0;
                while hops < 4
                    && tokens.get(k).is_some_and(|tk| {
                        matches!(tk.kind, TokenKind::Keyword(_) | TokenKind::Ident)
                    })
                {
                    k += 1;
                    hops += 1;
                }
                if tokens.get(k).is_some_and(|tk| tk.is_punct("{")) {
                    if let Some(end) = match_delim(&tokens, k, "{", "}") {
                        out.push(FunctionSpan {
                            name: t.text.clone(),
                            start_line: t.span.line,
                            end_line: tokens[end].span.end_line,
                            body_open_line: tokens[k].span.line,
                        });
                        i = end + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Finds every `if` statement (including nested and `else if` forms) with
/// its full extent.
pub fn find_if_statements(src: &str) -> Vec<IfStmt> {
    let tokens = tokenize(src);
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_keyword(Keyword::If) {
            // Skip `else if`'s `if`? No: the paper counts each `if`, and the
            // oversampler may transform each condition independently.
            if let Some(stmt) = parse_if(src, &tokens, i) {
                out.push(stmt);
            }
        }
    }
    out
}

/// Parses the `if` starting at token index `i`, returning its shape.
fn parse_if(src: &str, tokens: &[Token], i: usize) -> Option<IfStmt> {
    let open = i + 1;
    if !tokens.get(open)?.is_punct("(") {
        return None; // `#if`-like or macro trickery; skip.
    }
    let close = match_delim(tokens, open, "(", ")")?;
    let (end_idx, then_braced, has_else) = if_extent(tokens, close)?;
    let cond_text = slice_between(src, tokens[open].span, tokens[close].span);
    Some(IfStmt {
        if_span: tokens[i].span,
        cond_open: tokens[open].span,
        cond_close: tokens[close].span,
        cond_text,
        end_line: tokens[end_idx].span.end_line,
        then_braced,
        has_else,
    })
}

/// Computes the last token index of the if-statement whose condition closes
/// at `close`, plus branch shape flags.
fn if_extent(tokens: &[Token], close: usize) -> Option<(usize, bool, bool)> {
    let body = close + 1;
    let (then_end, then_braced) = branch_extent(tokens, body)?;
    if tokens.get(then_end + 1).is_some_and(|t| t.is_keyword(Keyword::Else)) {
        let else_body = then_end + 2;
        let else_end = if tokens.get(else_body).is_some_and(|t| t.is_keyword(Keyword::If)) {
            // `else if`: recurse through the chained if.
            let open = else_body + 1;
            if tokens.get(open).is_some_and(|t| t.is_punct("(")) {
                let close2 = match_delim(tokens, open, "(", ")")?;
                if_extent(tokens, close2)?.0
            } else {
                branch_extent(tokens, else_body)?.0
            }
        } else {
            branch_extent(tokens, else_body)?.0
        };
        Some((else_end, then_braced, true))
    } else {
        Some((then_end, then_braced, false))
    }
}

/// Returns the last token index of the statement starting at `start`, and
/// whether it was a braced block.
fn branch_extent(tokens: &[Token], start: usize) -> Option<(usize, bool)> {
    let first = tokens.get(start)?;
    if first.is_punct("{") {
        return Some((match_delim(tokens, start, "{", "}")?, true));
    }
    // Single statement: scan to the `;` at zero relative depth; nested ifs
    // recurse implicitly through depth tracking (their `;` terminates us
    // only at depth zero).
    let mut depth = 0isize;
    let mut j = start;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "{" | "[" => depth += 1,
                ")" | "}" | "]" => {
                    if depth == 0 {
                        // Unbalanced close: statement ends before it.
                        return Some((j.saturating_sub(1), false));
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return Some((j, false)),
                _ => {}
            }
        }
        j += 1;
    }
    Some((tokens.len().saturating_sub(1), false))
}

/// Finds the index of the token closing the delimiter opened at `open_idx`.
fn match_delim(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    debug_assert!(tokens[open_idx].is_punct(open));
    let mut depth = 0isize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Extracts the raw source text strictly between two spans (exclusive of
/// both), used to recover condition text including original spacing.
fn slice_between(src: &str, a: Span, b: Span) -> String {
    let lines: Vec<&str> = src.split('\n').collect();
    if a.end_line == b.line {
        let line = lines.get(a.end_line - 1).copied().unwrap_or("");
        let from = a.end_col.min(line.len());
        let to = b.col.min(line.len());
        return line.get(from..to).unwrap_or("").trim().to_owned();
    }
    // Multi-line condition: stitch the pieces.
    let mut parts = Vec::new();
    for ln in a.end_line..=b.line {
        let line = lines.get(ln - 1).copied().unwrap_or("");
        let piece = if ln == a.end_line {
            line.get(a.end_col.min(line.len())..).unwrap_or("")
        } else if ln == b.line {
            line.get(..b.col.min(line.len())).unwrap_or("")
        } else {
            line
        };
        parts.push(piece.trim());
    }
    parts.join(" ").trim().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
#include <stdio.h>

static int helper(int a, char *b) {
    if (a > 0) {
        printf("%s", b);
        return a;
    }
    return 0;
}

int main(int argc, char **argv)
{
    int x = helper(argc, argv[0]);
    if (x)
        x--;
    else if (argc > 2) {
        x = 2;
    } else {
        x = 3;
    }
    while (x > 0) { x--; }
    return x;
}
"#;

    #[test]
    fn finds_both_functions() {
        let fns = find_functions(SRC);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["helper", "main"]);
        assert_eq!(fns[0].start_line, 4);
        assert_eq!(fns[0].end_line, 10);
        assert_eq!((fns[1].start_line, fns[1].end_line), (12, 24));
        assert_eq!(fns[1].body_open_line, 13);
    }

    #[test]
    fn finds_all_ifs_with_extents() {
        let ifs = find_if_statements(SRC);
        // `if (a > 0)`, `if (x)`, and the chained `if (argc > 2)`.
        assert_eq!(ifs.len(), 3);

        let first = &ifs[0];
        assert_eq!(first.line(), 5);
        assert_eq!(first.cond_text, "a > 0");
        assert!(first.then_braced);
        assert!(!first.has_else);
        assert_eq!(first.end_line, 8);

        let second = &ifs[1];
        assert_eq!(second.cond_text, "x");
        assert!(!second.then_braced);
        assert!(second.has_else);
        assert_eq!(second.end_line, 21); // through the final else block

        let third = &ifs[2];
        assert_eq!(third.cond_text, "argc > 2");
        assert!(third.has_else);
    }

    #[test]
    fn ifs_among_every_statement_kind_keep_their_extents() {
        // Loops, `do`/`while`, `switch` with case labels, a goto label and
        // jumps around two unbraced ifs, one nested in a `for` body.
        let src = r#"int f(struct s *p, int n)
{
    int i = 0;
    if (!p)
        return -1;
    for (i = 0; i < n; i++) {
        if (p->data[i] == 0)
            break;
        use(p, i);
    }
    while (n > 0)
        n--;
    do {
        step();
    } while (more());
    switch (n) {
    case 0:
        return 0;
    default:
        break;
    }
out:
    cleanup(p);
    goto out;
}
"#;
        let ifs: Vec<(usize, usize, String)> =
            find_if_statements(src).into_iter().map(|s| (s.line(), s.end_line, s.cond_text)).collect();
        assert_eq!(ifs, [(4, 5, "!p".to_owned()), (7, 8, "p->data[i] == 0".to_owned())]);
    }

    #[test]
    fn if_without_parens_is_skipped() {
        // Macro-style `if` without parens must not panic or match.
        let ifs = find_if_statements("#define IF if\nIF x then\n");
        assert!(ifs.is_empty());
    }

    #[test]
    fn declaration_is_not_a_definition() {
        let fns = find_functions("int foo(int a);\nint bar(void) { return 0; }\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "bar");
    }

    #[test]
    fn multiline_condition_text() {
        let src = "void f() {\n  if (a &&\n      b) {\n    c();\n  }\n}\n";
        let ifs = find_if_statements(src);
        assert_eq!(ifs.len(), 1);
        assert_eq!(ifs[0].cond_text, "a && b");
        assert_eq!(ifs[0].end_line, 5);
    }

    #[test]
    fn unbalanced_source_recovers() {
        let ifs = find_if_statements("if (a { b; ");
        // Paren never closes: skipped without panicking.
        assert!(ifs.is_empty());
        let fns = find_functions("int f(int a { }");
        assert!(fns.is_empty());
    }

    #[test]
    fn touches_lines() {
        let ifs = find_if_statements("void f() {\n  if (a) {\n    b();\n  }\n}\n");
        assert!(ifs[0].touches_lines(&[3]));
        assert!(!ifs[0].touches_lines(&[5]));
    }

    #[test]
    fn qualifier_between_params_and_body() {
        let fns = find_functions("int get(void) const { return 1; }\n");
        assert_eq!(fns.len(), 1);
    }
}
