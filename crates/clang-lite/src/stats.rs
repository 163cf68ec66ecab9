//! Syntactic statistics over token streams: the per-fragment counters that
//! feed the Table I feature extractor in `patchdb-features`.


use crate::keywords::Keyword;
use crate::token::{Token, TokenKind};

/// The operator families Table I counts (features 23–42).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorClass {
    /// `+ - * / % ++ --` (also compound-assign arithmetic like `+=`).
    Arithmetic,
    /// `< > <= >= == !=`.
    Relational,
    /// `&& || !`.
    Logical,
    /// `& | ^ ~ << >>` and their compound assignments.
    Bitwise,
    /// Pointer/memory access: unary `*`/`&` (approximated), `->`, `[`, `.`
    /// plus `sizeof`, `new`, `delete`.
    Memory,
    /// Anything else (`=`, `,`, `;`, parens, …).
    Other,
}

/// Classifies one punctuator (by text) into an [`OperatorClass`].
///
/// Stream context matters for `*` and `&`, which can be arithmetic/bitwise
/// or pointer operators; [`count_stats`] resolves them with lookahead, but
/// this standalone classifier labels them by their binary reading.
pub fn classify_operator(text: &str) -> OperatorClass {
    match text {
        "+" | "-" | "/" | "%" | "++" | "--" | "+=" | "-=" | "*=" | "/=" | "%=" | "*" => {
            OperatorClass::Arithmetic
        }
        "<" | ">" | "<=" | ">=" | "==" | "!=" => OperatorClass::Relational,
        "&&" | "||" | "!" => OperatorClass::Logical,
        "&" | "|" | "^" | "~" | "<<" | ">>" | "&=" | "|=" | "^=" | "<<=" | ">>=" => {
            OperatorClass::Bitwise
        }
        "->" | "[" | "." | "->*" | ".*" => OperatorClass::Memory,
        _ => OperatorClass::Other,
    }
}

/// Identifiers treated as memory-management calls for the memory-operator
/// counter, mirroring the paper's examples (`strcpy`→`strlcpy`, alloc/free
/// call changes are Type-8 evidence).
const MEMORY_FUNCTIONS: &[&str] = &[
    "malloc", "calloc", "realloc", "free", "memcpy", "memmove", "memset", "memcmp",
    "strcpy", "strncpy", "strlcpy", "strscpy", "strcat", "strncat", "strlcat", "strdup", "alloca",
    "kmalloc", "kzalloc", "kfree", "vmalloc", "vfree", "mmap", "munmap",
];

/// Syntactic counters for one code fragment (a patch line, hunk, or file).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentStats {
    /// Non-comment, non-preprocessor token count.
    pub tokens: usize,
    /// `if` keyword count (Table I features 11–14).
    pub ifs: usize,
    /// Loop keyword count: `for`, `while`, `do` (features 15–18).
    pub loops: usize,
    /// Function-call count: identifier directly followed by `(` (19–22).
    pub calls: usize,
    /// Arithmetic operator count (23–26).
    pub arithmetic_ops: usize,
    /// Relational operator count (27–30).
    pub relation_ops: usize,
    /// Logical operator count (31–34).
    pub logical_ops: usize,
    /// Bitwise operator count (35–38).
    pub bitwise_ops: usize,
    /// Memory operator count: pointer access + memory-management calls
    /// (39–42).
    pub memory_ops: usize,
    /// Variable-use count: identifiers that are not called (43–46).
    pub variables: usize,
    /// Jump keyword count (`break`/`continue`/`return`/`goto`).
    pub jumps: usize,
    /// String/char/int/float literal count.
    pub literals: usize,
}

impl FragmentStats {
    /// Component-wise sum, for accumulating per-line stats into hunks.
    pub fn add(&mut self, other: &FragmentStats) {
        self.tokens += other.tokens;
        self.ifs += other.ifs;
        self.loops += other.loops;
        self.calls += other.calls;
        self.arithmetic_ops += other.arithmetic_ops;
        self.relation_ops += other.relation_ops;
        self.logical_ops += other.logical_ops;
        self.bitwise_ops += other.bitwise_ops;
        self.memory_ops += other.memory_ops;
        self.variables += other.variables;
        self.jumps += other.jumps;
        self.literals += other.literals;
    }
}

/// Computes [`FragmentStats`] over a lexed token stream.
///
/// `*` and `&` are disambiguated with one token of left context: after an
/// identifier, literal, `)` or `]` they read as binary (arithmetic /
/// bitwise); otherwise as pointer (memory) operators.
pub fn count_stats(tokens: &[Token]) -> FragmentStats {
    let mut s = FragmentStats::default();
    for (i, t) in tokens.iter().enumerate() {
        match &t.kind {
            TokenKind::Preprocessor => continue,
            _ => s.tokens += 1,
        }
        match &t.kind {
            TokenKind::Keyword(kw) => {
                if *kw == Keyword::If {
                    s.ifs += 1;
                } else if kw.is_loop() {
                    s.loops += 1;
                } else if kw.is_jump() {
                    s.jumps += 1;
                } else if matches!(kw, Keyword::Sizeof | Keyword::New | Keyword::Delete) {
                    s.memory_ops += 1;
                }
            }
            TokenKind::Ident => {
                let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                if called {
                    s.calls += 1;
                    if MEMORY_FUNCTIONS.contains(&t.text.as_str()) {
                        s.memory_ops += 1;
                    }
                } else {
                    s.variables += 1;
                }
            }
            TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char => {
                s.literals += 1;
            }
            TokenKind::Punct => {
                let class = match t.text.as_str() {
                    "*" | "&" => {
                        let binary = i > 0
                            && matches!(
                                &tokens[i - 1].kind,
                                TokenKind::Ident
                                    | TokenKind::Int
                                    | TokenKind::Float
                                    | TokenKind::Str
                                    | TokenKind::Char
                            )
                            || (i > 0
                                && (tokens[i - 1].is_punct(")") || tokens[i - 1].is_punct("]")));
                        if binary {
                            if t.text == "*" {
                                OperatorClass::Arithmetic
                            } else {
                                OperatorClass::Bitwise
                            }
                        } else {
                            OperatorClass::Memory
                        }
                    }
                    other => classify_operator(other),
                };
                match class {
                    OperatorClass::Arithmetic => s.arithmetic_ops += 1,
                    OperatorClass::Relational => s.relation_ops += 1,
                    OperatorClass::Logical => s.logical_ops += 1,
                    OperatorClass::Bitwise => s.bitwise_ops += 1,
                    OperatorClass::Memory => s.memory_ops += 1,
                    OperatorClass::Other => {}
                }
            }
            TokenKind::Preprocessor => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn stats(src: &str) -> FragmentStats {
        count_stats(&tokenize(src))
    }

    #[test]
    fn counts_ifs_and_loops() {
        let s = stats("if (a) { for (;;) {} while (b) {} do {} while (c); }");
        assert_eq!(s.ifs, 1);
        // Lexical convention: `do … while` contributes two loop keywords,
        // matching a token-level Python extractor.
        assert_eq!(s.loops, 4);
    }

    #[test]
    fn calls_vs_variables() {
        let s = stats("foo(bar, baz(1));");
        assert_eq!(s.calls, 2); // foo, baz
        assert_eq!(s.variables, 1); // bar
    }

    #[test]
    fn operator_families() {
        let s = stats("a = b + c * d; e = f < g && h | i; j = !k;");
        assert_eq!(s.arithmetic_ops, 2); // + and binary *
        assert_eq!(s.relation_ops, 1);
        assert_eq!(s.logical_ops, 2); // && and !
        assert_eq!(s.bitwise_ops, 1);
    }

    #[test]
    fn pointer_star_is_memory() {
        let s = stats("int *p = &x; *p = 1;");
        // `*` after `int` (keyword) → memory; `&` after `=` → memory;
        // `*` after `;` → memory.
        assert_eq!(s.memory_ops, 3);
        assert_eq!(s.arithmetic_ops, 0);
    }

    #[test]
    fn binary_star_after_paren() {
        let s = stats("y = (a) * b;");
        assert_eq!(s.arithmetic_ops, 1);
        assert_eq!(s.memory_ops, 0);
    }

    #[test]
    fn memory_functions_count() {
        let s = stats("p = malloc(n); free(p); q->r[i] = 0;");
        // malloc + free + -> + [ = 4
        assert_eq!(s.memory_ops, 4);
        assert_eq!(s.calls, 2);
    }

    #[test]
    fn jumps_and_literals() {
        let s = stats("return 0; goto out; x = \"s\"; c = 'a';");
        assert_eq!(s.jumps, 2);
        assert_eq!(s.literals, 3);
    }

    #[test]
    fn accumulation() {
        let mut a = stats("if (x) y();");
        let b = stats("while (z) {}");
        a.add(&b);
        assert_eq!(a.ifs, 1);
        assert_eq!(a.loops, 1);
    }

    #[test]
    fn empty_fragment_is_zero() {
        assert_eq!(stats(""), FragmentStats::default());
    }
}
