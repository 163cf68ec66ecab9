//! Hunks: the consecutive removed/added line groups of a unified diff,
//! surrounded by context lines (PatchDB Section II-A).


/// The role a line plays inside a hunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineKind {
    /// Unchanged context (` ` prefix in the textual form).
    Context,
    /// Line present only in the new version (`+` prefix).
    Added,
    /// Line present only in the old version (`-` prefix).
    Removed,
}

impl LineKind {
    /// The single-character prefix used in the unified-diff textual form.
    pub fn prefix(self) -> char {
        match self {
            LineKind::Context => ' ',
            LineKind::Added => '+',
            LineKind::Removed => '-',
        }
    }
}

/// One line of a hunk body, without its prefix character or newline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Line {
    /// Whether the line is context, added, or removed.
    pub kind: LineKind,
    /// The line's text (prefix and trailing newline stripped).
    pub content: String,
}

impl Line {
    /// Creates a context line.
    pub fn context(content: impl Into<String>) -> Self {
        Line { kind: LineKind::Context, content: content.into() }
    }

    /// Creates an added line.
    pub fn added(content: impl Into<String>) -> Self {
        Line { kind: LineKind::Added, content: content.into() }
    }

    /// Creates a removed line.
    pub fn removed(content: impl Into<String>) -> Self {
        Line { kind: LineKind::Removed, content: content.into() }
    }
}

/// One hunk of a file diff: `@@ -old_start,old_count +new_start,new_count @@`.
///
/// Line numbers are 1-based as in the textual format. `old_count` /
/// `new_count` count context+removed / context+added lines respectively.
///
/// ```rust
/// use patch_core::{Hunk, Line};
/// let hunk = Hunk {
///     old_start: 10, old_count: 3, new_start: 10, new_count: 4,
///     section: "bit_write_UMC".into(),
///     lines: vec![
///         Line::context("  if (byte[i] & 0x7f)"),
///         Line::removed("  if (byte[i] & 0x40)"),
///         Line::added("  if (byte[i] & 0x40 && i > 0)"),
///         Line::added("    i--;"),
///         Line::context("  byte[i] &= 0x7f;"),
///     ],
/// };
/// assert!(hunk.validate().is_ok());
/// assert_eq!(hunk.added_count(), 2);
/// assert_eq!(hunk.removed_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hunk {
    /// 1-based first line of the hunk in the old file.
    pub old_start: usize,
    /// Number of old-file lines the hunk spans (context + removed).
    pub old_count: usize,
    /// 1-based first line of the hunk in the new file.
    pub new_start: usize,
    /// Number of new-file lines the hunk spans (context + added).
    pub new_count: usize,
    /// The free text after the closing `@@` (usually the enclosing function).
    pub section: String,
    /// The hunk body in order.
    pub lines: Vec<Line>,
}

patchdb_rt::impl_json_unit_enum!(LineKind { Context, Added, Removed });
patchdb_rt::impl_to_from_json!(Line { kind, content });
patchdb_rt::impl_to_from_json!(Hunk { old_start, old_count, new_start, new_count, section, lines });

impl Hunk {
    /// Iterates over the added lines of the hunk.
    pub fn added(&self) -> impl Iterator<Item = &Line> {
        self.lines.iter().filter(|l| l.kind == LineKind::Added)
    }

    /// Iterates over the removed lines of the hunk.
    pub fn removed(&self) -> impl Iterator<Item = &Line> {
        self.lines.iter().filter(|l| l.kind == LineKind::Removed)
    }

    /// Iterates over the context lines of the hunk.
    pub fn context(&self) -> impl Iterator<Item = &Line> {
        self.lines.iter().filter(|l| l.kind == LineKind::Context)
    }

    /// Number of added lines.
    pub fn added_count(&self) -> usize {
        self.added().count()
    }

    /// Number of removed lines.
    pub fn removed_count(&self) -> usize {
        self.removed().count()
    }

    /// The old-file text of the hunk (context + removed lines, in order).
    pub fn old_lines(&self) -> Vec<&str> {
        self.lines
            .iter()
            .filter(|l| l.kind != LineKind::Added)
            .map(|l| l.content.as_str())
            .collect()
    }

    /// Checks that the declared counts match the body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch found.
    pub fn validate(&self) -> Result<(), String> {
        let old = self.lines.iter().filter(|l| l.kind != LineKind::Added).count();
        let new = self.lines.iter().filter(|l| l.kind != LineKind::Removed).count();
        if old != self.old_count {
            return Err(format!(
                "hunk declares {} old lines but body has {old}",
                self.old_count
            ));
        }
        if new != self.new_count {
            return Err(format!(
                "hunk declares {} new lines but body has {new}",
                self.new_count
            ));
        }
        Ok(())
    }

    /// True when the hunk changes nothing (all context).
    pub fn is_trivial(&self) -> bool {
        self.lines.iter().all(|l| l.kind == LineKind::Context)
    }

    /// Renders the `@@ -a,b +c,d @@ section` header line.
    pub fn header(&self) -> String {
        let mut h = format!(
            "@@ -{},{} +{},{} @@",
            self.old_start, self.old_count, self.new_start, self.new_count
        );
        if !self.section.is_empty() {
            h.push(' ');
            h.push_str(&self.section);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hunk {
        Hunk {
            old_start: 5,
            old_count: 3,
            new_start: 5,
            new_count: 3,
            section: "main".into(),
            lines: vec![
                Line::context("a"),
                Line::removed("b"),
                Line::added("B"),
                Line::context("c"),
            ],
        }
    }

    #[test]
    fn counts() {
        let h = sample();
        assert_eq!(h.added_count(), 1);
        assert_eq!(h.removed_count(), 1);
        assert_eq!(h.context().count(), 2);
    }

    #[test]
    fn old_projection() {
        let h = sample();
        assert_eq!(h.old_lines(), vec!["a", "b", "c"]);
    }

    #[test]
    fn validate_detects_bad_counts() {
        let mut h = sample();
        assert!(h.validate().is_ok());
        h.old_count = 99;
        assert!(h.validate().is_err());
    }

    #[test]
    fn header_rendering() {
        let h = sample();
        assert_eq!(h.header(), "@@ -5,3 +5,3 @@ main");
    }

    #[test]
    fn trivial_hunk() {
        let h = Hunk {
            old_start: 1,
            old_count: 1,
            new_start: 1,
            new_count: 1,
            section: String::new(),
            lines: vec![Line::context("x")],
        };
        assert!(h.is_trivial());
        assert!(!sample().is_trivial());
    }
}
