//! # clang-lite
//!
//! A from-scratch, lightweight C/C++ front end: lexer, token
//! classification, token abstraction, and a structural parser that locates
//! function definitions and `if` statements with their line extents.
//!
//! PatchDB (DSN 2021) uses two external tools this crate replaces:
//!
//! * a Python syntactic parser that extracts the Table I features from
//!   patch fragments — served here by [`tokenize`]/[`tokenize_fragment`] and
//!   the [`OperatorClass`] / statement classification helpers;
//! * LLVM's AST dump, from which the oversampler reads
//!   `IfStmt <line:N, line:N>` extents (Section III-C-2) — served here by
//!   [`find_if_statements`] and [`find_functions`].
//!
//! Patches are not complete translation units, so everything here is
//! tolerant by construction: the lexer never fails, and the structural
//! parser recovers at every unbalanced delimiter.
//!
//! ```rust
//! use clang_lite::{tokenize, TokenKind};
//!
//! let toks = tokenize("if (x > 0) return malloc(n);");
//! assert!(matches!(toks[0].kind, TokenKind::Keyword(_)));
//! let idents: Vec<&str> = toks.iter()
//!     .filter(|t| t.kind == TokenKind::Ident)
//!     .map(|t| t.text.as_str())
//!     .collect();
//! assert_eq!(idents, ["x", "malloc", "n"]);
//! ```

#![warn(missing_docs)]

mod abstraction;
mod ast;
mod keywords;
mod lexer;
mod stats;
mod structure;
mod token;

pub use abstraction::{abstract_tokens, is_stable, AbstractedToken, Numbering};
pub use ast::{parse_bodies, Stmt, StmtKind};
pub use keywords::{is_keyword, Keyword};
pub use lexer::{tokenize, tokenize_fragment, tokenize_with_comments};
pub use stats::{classify_operator, count_stats, FragmentStats, OperatorClass};
pub use structure::{find_functions, find_if_statements, FunctionSpan, IfStmt};
pub use token::{Span, Token, TokenKind};
