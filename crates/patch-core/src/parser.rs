//! Parser for the textual commit-patch form (`git show` / GitHub `.patch`).

use crate::error::ParsePatchError;
use crate::hunk::{Hunk, Line, LineKind};
use crate::patch::{FileDiff, Patch};

/// Parses one commit patch.
///
/// Accepted shape (the shape [`crate::printer::print_patch`] emits and a
/// superset of what GitHub's `.patch` endpoint returns for single commits):
///
/// ```text
/// commit <40-hex>
/// <message lines...>
///
/// diff --git a/<path> b/<path>
/// index <old>..<new> [mode]
/// --- a/<path>
/// +++ b/<path>
/// @@ -a,b +c,d @@ [section]
/// <body lines>
/// ```
///
/// Lines may end in LF or CRLF: one trailing `\r` per line is dropped
/// when splitting, so a CRLF body parses to the same [`Patch`].
pub(crate) fn parse_patch(text: &str) -> Result<Patch, ParsePatchError> {
    let lines: Vec<&str> = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l)).collect();
    let mut i = 0usize;

    // Commit header.
    let mut commit = None;
    if let Some(first) = lines.first() {
        if let Some(rest) = first.strip_prefix("commit ") {
            commit = Some(rest.trim().parse()?);
            i = 1;
        }
    }
    let commit = commit.unwrap_or_else(|| crate::CommitId::from_bytes([0; 20]));

    // Message: everything up to the first `diff --git`.
    let mut message_lines: Vec<&str> = Vec::new();
    while i < lines.len() && !lines[i].starts_with("diff --git ") {
        message_lines.push(lines[i]);
        i += 1;
    }
    while message_lines.last().is_some_and(|l| l.is_empty()) {
        message_lines.pop();
    }
    let message = message_lines.join("\n");

    let mut files = Vec::new();
    while i < lines.len() {
        if !lines[i].starts_with("diff --git ") {
            // Trailing junk after the last hunk (e.g. `-- \n2.17.1`).
            break;
        }
        let (file, next) = parse_file_diff(&lines, i)?;
        files.push(file);
        i = next;
    }

    if files.is_empty() {
        return Err(ParsePatchError::NoFileDiffs);
    }
    Ok(Patch { commit, message, files })
}

fn parse_file_diff(
    lines: &[&str],
    start: usize,
) -> Result<(FileDiff, usize), ParsePatchError> {
    let header = lines[start];
    let rest = header.strip_prefix("diff --git ").expect("caller checked prefix");
    let (old_raw, new_raw) =
        rest.split_once(' ').ok_or_else(|| ParsePatchError::InvalidDiffHeader {
            line: start + 1,
            text: header.to_owned(),
        })?;
    let strip = |p: &str| {
        p.strip_prefix("a/")
            .or_else(|| p.strip_prefix("b/"))
            .unwrap_or(p)
            .to_owned()
    };
    let mut file = FileDiff {
        old_path: strip(old_raw),
        new_path: strip(new_raw),
        index: None,
        hunks: Vec::new(),
    };

    let mut i = start + 1;
    // Optional metadata lines before the first hunk: index, ---, +++, mode.
    while i < lines.len() {
        let l = lines[i];
        if l.starts_with("@@ ") {
            break;
        }
        if l.starts_with("diff --git ") {
            return Ok((file, i));
        }
        if let Some(ix) = l.strip_prefix("index ") {
            file.index = Some(ix.to_owned());
        } else if let Some(p) = l.strip_prefix("--- ") {
            if p != "/dev/null" {
                file.old_path = strip(p);
            }
        } else if let Some(p) = l.strip_prefix("+++ ") {
            if p != "/dev/null" {
                file.new_path = strip(p);
            }
        }
        // old mode / new mode / similarity / rename lines are tolerated.
        i += 1;
    }

    while i < lines.len() && lines[i].starts_with("@@ ") {
        let (hunk, next) = parse_hunk(lines, i)?;
        file.hunks.push(hunk);
        i = next;
    }
    Ok((file, i))
}

fn parse_hunk(lines: &[&str], start: usize) -> Result<(Hunk, usize), ParsePatchError> {
    let header = lines[start];
    let bad = || ParsePatchError::InvalidHunkHeader { line: start + 1, text: header.to_owned() };

    let body_idx = header.find(" @@").ok_or_else(bad)?;
    // Between "@@ " and " @@"; `@@ @@` finds its closer inside the opener.
    let ranges = header.get(3..body_idx).ok_or_else(bad)?;
    let section = header[body_idx + 3..].trim_start().to_owned();

    let (old_part, new_part) = ranges.split_once(' ').ok_or_else(bad)?;
    let (old_start, old_count) = parse_range(old_part.strip_prefix('-').ok_or_else(bad)?)
        .ok_or_else(bad)?;
    let (new_start, new_count) = parse_range(new_part.strip_prefix('+').ok_or_else(bad)?)
        .ok_or_else(bad)?;

    let mut hunk = Hunk {
        old_start,
        old_count,
        new_start,
        new_count,
        section,
        lines: Vec::new(),
    };

    let mut remaining_old = old_count;
    let mut remaining_new = new_count;
    let mut i = start + 1;
    while remaining_old > 0 || remaining_new > 0 {
        let Some(raw) = lines.get(i) else {
            return Err(ParsePatchError::TruncatedHunk { line: start + 1 });
        };
        let (kind, content) = match raw.chars().next() {
            Some(' ') | None => (LineKind::Context, raw.get(1..).unwrap_or("")),
            Some('+') => (LineKind::Added, &raw[1..]),
            Some('-') => (LineKind::Removed, &raw[1..]),
            Some('\\') => {
                // "\ No newline at end of file" — metadata, not content.
                i += 1;
                continue;
            }
            _ => {
                return Err(ParsePatchError::InvalidBodyLine {
                    line: i + 1,
                    text: (*raw).to_owned(),
                })
            }
        };
        match kind {
            LineKind::Context => {
                if remaining_old == 0 || remaining_new == 0 {
                    return Err(ParsePatchError::TruncatedHunk { line: start + 1 });
                }
                remaining_old -= 1;
                remaining_new -= 1;
            }
            LineKind::Removed => {
                if remaining_old == 0 {
                    return Err(ParsePatchError::TruncatedHunk { line: start + 1 });
                }
                remaining_old -= 1;
            }
            LineKind::Added => {
                if remaining_new == 0 {
                    return Err(ParsePatchError::TruncatedHunk { line: start + 1 });
                }
                remaining_new -= 1;
            }
        }
        hunk.lines.push(Line { kind, content: content.to_owned() });
        i += 1;
    }
    Ok((hunk, i))
}

/// Parses `start[,count]`; a missing count means 1 per the unified format.
fn parse_range(s: &str) -> Option<(usize, usize)> {
    match s.split_once(',') {
        Some((a, b)) => Some((a.parse().ok()?, b.parse().ok()?)),
        None => Some((s.parse().ok()?, 1)),
    }
}

#[cfg(test)]
mod tests {
    use crate::{LineKind, ParsePatchError, Patch};

    const SAMPLE: &str = "\
commit b84c2cab55948a5ee70860779b2640913e3ee1ed
Fix stack underflow (CVE-2019-20912)

diff --git a/src/bits.c b/src/bits.c
index 014b04fe4..a3692bdc6 100644
--- a/src/bits.c
+++ b/src/bits.c
@@ -953,7 +953,7 @@ bit_write_UMC
     if (byte[i] & 0x7f)
       break;

-  if (byte[i] & 0x40)
+  if (byte[i] & 0x40 && i > 0)
     {
       byte[i] &= 0x7f;
       for (j = 4; j >= i; j--)
";

    #[test]
    fn parses_paper_listing_1() {
        let p = Patch::parse(SAMPLE).unwrap();
        assert_eq!(p.commit.to_string(), "b84c2cab55948a5ee70860779b2640913e3ee1ed");
        assert_eq!(p.message.lines().next().unwrap(), "Fix stack underflow (CVE-2019-20912)");
        assert_eq!(p.files.len(), 1);
        let f = &p.files[0];
        assert_eq!(f.old_path, "src/bits.c");
        assert_eq!(f.index.as_deref(), Some("014b04fe4..a3692bdc6 100644"));
        assert_eq!(f.hunks.len(), 1);
        let h = &f.hunks[0];
        assert_eq!((h.old_start, h.old_count, h.new_start, h.new_count), (953, 7, 953, 7));
        assert_eq!(h.section, "bit_write_UMC");
        assert_eq!(h.added_count(), 1);
        assert_eq!(h.removed_count(), 1);
        assert!(h.validate().is_ok());
    }

    #[test]
    fn parse_print_round_trip() {
        let p = Patch::parse(SAMPLE).unwrap();
        let printed = p.to_unified_string();
        let again = Patch::parse(&printed).unwrap();
        assert_eq!(p, again);
        assert_eq!(p, Patch::parse(&printed.replace('\n', "\r\n")).unwrap(), "CRLF");
    }

    #[test]
    fn multiple_files_and_hunks() {
        let text = "\
commit 0000000000000000000000000000000000000000
msg

diff --git a/a.c b/a.c
--- a/a.c
+++ b/a.c
@@ -1,2 +1,2 @@
-x
+y
 z
@@ -10,1 +10,2 @@ f
 k
+l
diff --git a/b.h b/b.h
--- a/b.h
+++ b/b.h
@@ -1 +1 @@
-p
+q
";
        let p = Patch::parse(text).unwrap();
        assert_eq!(p.files.len(), 2);
        assert_eq!(p.files[0].hunks.len(), 2);
        assert_eq!(p.files[1].hunks[0].old_count, 1);
        assert_eq!(p.hunk_count(), 3);
    }

    #[test]
    fn rejects_truncated_hunk() {
        let text = "\
diff --git a/a.c b/a.c
@@ -1,3 +1,3 @@
 only one line
";
        assert!(matches!(
            Patch::parse(text),
            Err(ParsePatchError::TruncatedHunk { .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(Patch::parse("hello world"), Err(ParsePatchError::NoFileDiffs)));
    }

    #[test]
    fn rejects_bad_hunk_header() {
        let text = "\
diff --git a/a.c b/a.c
@@ nonsense @@
";
        assert!(matches!(
            Patch::parse(text),
            Err(ParsePatchError::InvalidHunkHeader { .. })
        ));
    }

    #[test]
    fn range_without_count_defaults_to_one() {
        let text = "\
diff --git a/a.c b/a.c
@@ -5 +5 @@
-a
+b
";
        let p = Patch::parse(text).unwrap();
        let h = &p.files[0].hunks[0];
        assert_eq!((h.old_start, h.old_count), (5, 1));
    }

    #[test]
    fn tolerates_no_newline_marker() {
        let text = "\
diff --git a/a.c b/a.c
@@ -1 +1 @@
-a
\\ No newline at end of file
+b
";
        let p = Patch::parse(text).unwrap();
        assert_eq!(p.files[0].hunks[0].lines.len(), 2);
    }

    #[test]
    fn dev_null_paths_keep_git_names() {
        let text = "\
diff --git a/new.c b/new.c
--- /dev/null
+++ b/new.c
@@ -0,0 +1,1 @@
+int x;
";
        let p = Patch::parse(text).unwrap();
        assert_eq!(p.files[0].new_path, "new.c");
        assert_eq!(p.files[0].hunks[0].added_count(), 1);
    }

    #[test]
    fn empty_context_line_is_context() {
        let text = "\
diff --git a/a.c b/a.c
@@ -1,2 +1,2 @@

-a
+b
";
        let p = Patch::parse(text).unwrap();
        let h = &p.files[0].hunks[0];
        assert_eq!(h.lines[0].kind, LineKind::Context);
        assert_eq!(h.lines[0].content, "");
    }
}
