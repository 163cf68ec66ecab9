//! Patch application: replay a [`FileDiff`] onto file content, forward or
//! in reverse. The diff tests use it as their oracle: a diff made by
//! [`diff_files`](crate::diff_files) must replay its old text to its new
//! one, and back.

use std::fmt;

use crate::hunk::LineKind;
use crate::patch::FileDiff;
use crate::{join_lines, split_lines};

/// Error produced when a diff does not apply to the given content.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApplyError {
    /// A hunk's context or removed lines did not match the file.
    ContextMismatch {
        /// Path of the file being patched.
        path: String,
        /// Index of the failing hunk within the file diff.
        hunk: usize,
        /// 1-based line in the file where matching failed.
        line: usize,
        /// What the hunk expected at that line.
        expected: String,
        /// What the file actually contained.
        found: String,
    },
    /// A hunk starts beyond the end of the file.
    OutOfBounds {
        /// Path of the file being patched.
        path: String,
        /// Index of the failing hunk within the file diff.
        hunk: usize,
        /// The hunk's (1-based) declared start line.
        start: usize,
        /// Number of lines actually in the file.
        file_lines: usize,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::ContextMismatch { path, hunk, line, expected, found } => write!(
                f,
                "{path}: hunk {hunk} mismatch at line {line}: expected {expected:?}, found {found:?}"
            ),
            ApplyError::OutOfBounds { path, hunk, start, file_lines } => write!(
                f,
                "{path}: hunk {hunk} starts at line {start} but file has {file_lines} lines"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Applies `diff` to `old_text`, producing the new file content.
///
/// # Errors
///
/// Fails with [`ApplyError`] if any hunk's context/removed lines disagree
/// with `old_text` — the diff must apply exactly (no fuzz).
pub fn apply_file_diff(diff: &FileDiff, old_text: &str) -> Result<String, ApplyError> {
    transform(diff, old_text, false)
}

/// Reverse-applies `diff` to `new_text`, recovering the old file content.
///
/// # Errors
///
/// Fails with [`ApplyError`] if the diff's context/added lines disagree
/// with `new_text`.
pub fn revert_file_diff(diff: &FileDiff, new_text: &str) -> Result<String, ApplyError> {
    transform(diff, new_text, true)
}

fn transform(diff: &FileDiff, text: &str, reverse: bool) -> Result<String, ApplyError> {
    let src = split_lines(text);
    let mut out: Vec<&str> = Vec::with_capacity(src.len() + 16);
    let mut cursor = 0usize; // 0-based index into src of the next unconsumed line.

    let path = if reverse { &diff.old_path } else { &diff.new_path };

    for (hi, hunk) in diff.hunks.iter().enumerate() {
        let start = if reverse { hunk.new_start } else { hunk.old_start };
        let span = if reverse { hunk.new_count } else { hunk.old_count };
        // A zero-count range's `start` names the line *after which* the hunk
        // applies, so the first affected 0-based index is `start` itself;
        // otherwise it is `start - 1`.
        let start0 = if span == 0 { start } else { start.saturating_sub(1) };

        if start0 + span > src.len() {
            return Err(ApplyError::OutOfBounds {
                path: path.clone(),
                hunk: hi,
                start,
                file_lines: src.len(),
            });
        }
        // Copy the untouched gap before the hunk.
        if start0 < cursor {
            return Err(ApplyError::OutOfBounds {
                path: path.clone(),
                hunk: hi,
                start,
                file_lines: src.len(),
            });
        }
        out.extend_from_slice(&src[cursor..start0]);
        cursor = start0;

        for line in &hunk.lines {
            // In reverse mode added/removed swap roles.
            let kind = match (line.kind, reverse) {
                (LineKind::Added, true) => LineKind::Removed,
                (LineKind::Removed, true) => LineKind::Added,
                (k, _) => k,
            };
            match kind {
                LineKind::Context | LineKind::Removed => {
                    let found = src.get(cursor).copied();
                    if found != Some(line.content.as_str()) {
                        return Err(ApplyError::ContextMismatch {
                            path: path.clone(),
                            hunk: hi,
                            line: cursor + 1,
                            expected: line.content.clone(),
                            found: found.unwrap_or("<eof>").to_owned(),
                        });
                    }
                    if kind == LineKind::Context {
                        out.push(src[cursor]);
                    }
                    cursor += 1;
                }
                LineKind::Added => out.push(line.content.as_str()),
            }
        }
    }
    out.extend_from_slice(&src[cursor..]);
    Ok(join_lines(&out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_files;
    use crate::hunk::{Hunk, Line};

    #[test]
    fn forward_and_reverse_are_inverse() {
        let old = "a\nb\nc\nd\ne\n";
        let new = "a\nB\nc\nd\nE\nF\n";
        let d = diff_files("f.c", old, new, 1);
        let forward = apply_file_diff(&d, old).unwrap();
        assert_eq!(forward, new);
        let back = revert_file_diff(&d, &forward).unwrap();
        assert_eq!(back, old);
    }

    #[test]
    fn mismatched_context_is_rejected() {
        let d = FileDiff::new(
            "f.c",
            vec![Hunk {
                old_start: 1,
                old_count: 1,
                new_start: 1,
                new_count: 1,
                section: String::new(),
                lines: vec![Line::context("expected")],
            }],
        );
        let err = apply_file_diff(&d, "actual\n").unwrap_err();
        assert!(matches!(err, ApplyError::ContextMismatch { line: 1, .. }));
    }

    #[test]
    fn hunk_past_eof_is_rejected() {
        let d = FileDiff::new(
            "f.c",
            vec![Hunk {
                old_start: 100,
                old_count: 1,
                new_start: 100,
                new_count: 1,
                section: String::new(),
                lines: vec![Line::context("x")],
            }],
        );
        assert!(matches!(
            apply_file_diff(&d, "a\n"),
            Err(ApplyError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn multi_hunk_application_keeps_gaps() {
        let old: Vec<String> = (0..30).map(|i| format!("l{i}")).collect();
        let mut newv = old.clone();
        newv[3] = "X".into();
        newv[25] = "Y".into();
        let old_text = crate::join_lines(&old);
        let new_text = crate::join_lines(&newv);
        let d = diff_files("f.c", &old_text, &new_text, 2);
        assert_eq!(d.hunks.len(), 2);
        assert_eq!(apply_file_diff(&d, &old_text).unwrap(), new_text);
        assert_eq!(revert_file_diff(&d, &new_text).unwrap(), old_text);
    }
}
