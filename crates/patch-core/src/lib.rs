//! # patch-core
//!
//! The diff substrate underneath the PatchDB reproduction: a faithful model
//! of Git-style unified diffs ("patches" in PatchDB terminology), together
//! with a parser, a printer, a patch application engine, and a Myers diff
//! implementation for producing patches from file pairs.
//!
//! In PatchDB (DSN 2021) a *patch* is a commit: a set of file diffs, each a
//! set of *hunks*, each a run of context/removed/added lines. Everything the
//! paper's pipelines do — crawling the NVD, collecting wild commits, feature
//! extraction (Table I), oversampling (Fig. 4/5) — consumes or produces the
//! types in this crate.
//!
//! ## Quick example
//!
//! ```rust
//! use patch_core::{Patch, diff_files};
//!
//! # fn main() -> Result<(), patch_core::ParsePatchError> {
//! let before = "int f(int a) {\n  return a;\n}\n";
//! let after  = "int f(int a) {\n  if (a < 0)\n    return 0;\n  return a;\n}\n";
//! let file = diff_files("src/f.c", before, after, 3);
//! assert_eq!(file.added_lines().count(), 2);
//!
//! // Round-trip through the textual form.
//! let patch = Patch::builder("deadbeef".repeat(5))
//!     .message("fix: clamp negative input")
//!     .file(file)
//!     .build();
//! let text = patch.to_unified_string();
//! let reparsed = Patch::parse(&text)?;
//! assert_eq!(patch, reparsed);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod apply;
mod commit;
mod diff;
mod error;
mod hunk;
mod parser;
mod patch;
mod printer;

pub use apply::{apply_file_diff, revert_file_diff, ApplyError};
pub use commit::CommitId;
pub use diff::{diff_files, diff_lines, EditOp};
pub use error::ParsePatchError;
pub use hunk::{Hunk, Line, LineKind};
pub use patch::{FileDiff, Patch, PatchBuilder};

/// Splits text into logical lines, tolerating a missing trailing newline.
///
/// Unlike [`str::lines`], this is the exact inverse of joining with `\n` and
/// appending a final newline, which is the convention the diff engine and
/// the apply engine share.
pub fn split_lines(text: &str) -> Vec<&str> {
    if text.is_empty() {
        return Vec::new();
    }
    let mut lines: Vec<&str> = text.split('\n').collect();
    if let Some(last) = lines.last() {
        if last.is_empty() {
            lines.pop();
        }
    }
    lines
}

/// Joins logical lines back into text with a trailing newline.
///
/// Inverse of [`split_lines`] for all inputs that end in a newline.
pub fn join_lines<S: AsRef<str>>(lines: &[S]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(l.as_ref());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_round_trip() {
        let text = "a\nb\n\nc\n";
        assert_eq!(join_lines(&split_lines(text)), text);
    }

    #[test]
    fn split_lines_empty() {
        assert!(split_lines("").is_empty());
    }

    #[test]
    fn split_lines_no_trailing_newline() {
        assert_eq!(split_lines("a\nb"), vec!["a", "b"]);
    }
}
