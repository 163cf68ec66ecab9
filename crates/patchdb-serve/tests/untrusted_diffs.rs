//! Generated untrusted request bodies: whatever a client POSTs to
//! `/v1/identify` or `/v1/classify` runs through `Patch::parse`, then
//! `ServeIndex::weighted_features` (which calls `extract`) and
//! `classify_json`. None of it may panic a worker: every body either
//! parses and yields a finite feature row and a category, or comes back
//! as an `Err` the endpoint turns into a `400`.
//!
//! The generator produces what real fix commits contain (Reis & Abreu,
//! CVEfixes): `\ No newline at end of file` markers, CRLF line endings,
//! rename/copy/binary/mode headers, empty hunks, hunk counts that lie in
//! both directions, truncated `@@` lines, and bodies cut off mid-line.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use patch_core::Patch;
use patchdb::{BuildOptions, PatchDb};
use patchdb_features::FEATURE_DIM;
use patchdb_rt::check::{check, Gen};
use patchdb_rt::json::Json;
use patchdb_serve::ServeIndex;

const CASES: u32 = 512;

fn index() -> &'static ServeIndex {
    static INDEX: OnceLock<ServeIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        ServeIndex::build(PatchDb::build(&BuildOptions::tiny(3).synthesize(false)).db)
    })
}

/// Line content: C-ish fragments plus the lexer's awkward cases
/// (unterminated comments and literals, stray backslashes, non-ASCII).
fn content(g: &mut Gen) -> String {
    const PIECES: &[&str] = &[
        "x = 0;",
        "if (len > sizeof(buf)) return -EINVAL;",
        "memcpy(dst, src, n);",
        "}",
        "{",
        "/* unterminated",
        "*/",
        "\"unterminated",
        "'c",
        "\\",
        "#define MAX(a, b) ((a) > (b) ? (a) : (b))",
        "free(p); p = NULL;",
        "é∂ü",
        "@@ -1 +1 @@",
        "",
    ];
    g.vec_with(0, 3, |g| *g.pick(PIECES)).join(" ")
}

/// One hunk header: honest, lying in either direction, count-less, or
/// truncated at some point before its closing `@@`.
fn hunk_header(g: &mut Gen, old: usize, new: usize) -> String {
    let lie = |g: &mut Gen, n: usize| match g.usize_in(0, 2) {
        0 => n,
        1 => n + g.usize_in(1, 3),
        _ => n.saturating_sub(g.usize_in(1, 3)),
    };
    match g.weighted(&[24, 6, 1, 1, 1, 1, 1, 1, 1, 1]) {
        0 => format!("@@ -1,{old} +1,{new} @@"),
        1 => format!("@@ -1,{} +1,{} @@ section", lie(g, old), lie(g, new)),
        2 => "@@ -1 +1 @@".to_owned(),
        3 => "@@".to_owned(),
        4 => "@@ ".to_owned(),
        5 => "@@ @@".to_owned(),
        6 => "@@ -1,2".to_owned(),
        7 => format!("@@ -1,{old} +1,{new}"),
        8 => "@@ -x,y +z @@".to_owned(),
        _ => format!("@@ -1,{old} +1,{new} @"),
    }
}

/// One file section: a `diff --git` line, optional git metadata, and
/// zero or more hunks whose bodies may disagree with their headers.
fn file_section(g: &mut Gen, lines: &mut Vec<String>) {
    const META: &[&str] = &[
        "index 014b04f..a3692bd 100644",
        "--- a/src/x.c",
        "+++ b/src/x.c",
        "--- /dev/null",
        "+++ /dev/null",
        "old mode 100644",
        "new mode 100755",
        "deleted file mode 100644",
        "new file mode 100644",
        "similarity index 90%",
        "rename from src/old.c",
        "rename to src/new.c",
        "copy from src/a.c",
        "copy to src/b.c",
        "Binary files a/logo.png and b/logo.png differ",
        "GIT binary patch",
    ];
    lines.push(match g.weighted(&[6, 6, 4, 1]) {
        0 => "diff --git a/src/x.c b/src/x.c".to_owned(),
        1 => "diff --git a/src/old.c b/src/new.c".to_owned(),
        2 => "diff --git a/logo.png b/logo.png".to_owned(),
        _ => "diff --git nospace".to_owned(),
    });
    for _ in 0..g.usize_in(0, 4) {
        lines.push((*g.pick(META)).to_owned());
    }
    for _ in 0..g.usize_in(0, 3) {
        let body: Vec<String> = g.vec_with(0, 6, |g| match g.weighted(&[8, 6, 6, 2, 2, 1]) {
            0 => format!(" {}", content(g)),
            1 => format!("+{}", content(g)),
            2 => format!("-{}", content(g)),
            3 => "\\ No newline at end of file".to_owned(),
            4 => String::new(),
            _ => format!("?{}", content(g)),
        });
        let count = |prefixes: &[char]| {
            body.iter()
                .filter(|l| l.is_empty() || l.starts_with(prefixes))
                .count()
        };
        let (old, new) = (count(&[' ', '-']), count(&[' ', '+']));
        lines.push(hunk_header(g, old, new));
        lines.extend(body);
    }
}

/// A whole request body: optional commit header and message, one to
/// three file sections, optional trailer, CRLF or LF endings, and an
/// optional cut at an arbitrary char boundary.
fn body(g: &mut Gen) -> String {
    let mut lines = Vec::new();
    match g.weighted(&[3, 3, 1, 2]) {
        0 => {}
        1 => lines.push("commit b84c2cab55948a5ee70860779b2640913e3ee1ed".to_owned()),
        2 => lines.push("commit not-hex".to_owned()),
        _ => lines.push("Fix overflow (CVE-2019-20912)".to_owned()),
    }
    if g.bool() {
        lines.push(String::new());
    }
    for _ in 0..g.usize_in(1, 3) {
        file_section(g, &mut lines);
    }
    if g.bool() {
        lines.push("-- ".to_owned());
        lines.push("2.17.1".to_owned());
    }
    let eol = if g.bool() { "\n" } else { "\r\n" };
    let mut text = lines.join(eol);
    if g.bool() {
        text.push_str(eol);
    }
    if g.usize_in(0, 5) == 0 {
        let cut = g.usize_in(0, text.chars().count());
        text = text.chars().take(cut).collect();
    }
    text
}

/// What the identify and classify endpoints do with a parsed body.
fn serve_patch(patch: &Patch) {
    let ix = index();
    let row = ix.weighted_features(patch);
    assert_eq!(row.len(), FEATURE_DIM);
    assert!(
        row.iter().all(|v| v.is_finite()),
        "non-finite feature row {row:?}"
    );
    let score = ix.score_rows(std::slice::from_ref(&row))[0];
    assert!((0.0..=1.0).contains(&score), "score {score} out of range");
    let category = ix.classify_json(patch);
    assert!(category.get("label").and_then(Json::as_str).is_some());
}

#[test]
fn untrusted_bodies_parse_or_err_and_never_panic() {
    let parsed = AtomicU32::new(0);
    check("untrusted_bodies_parse_or_err", CASES, |g| {
        let text = body(g);
        if let Ok(patch) = Patch::parse(&text) {
            parsed.fetch_add(1, Ordering::Relaxed);
            serve_patch(&patch);
        }
    });
    // Hostile shapes must not crowd out the bodies that reach `extract`.
    let parsed = parsed.into_inner();
    assert!(
        parsed >= CASES / 8,
        "only {parsed} of {CASES} generated bodies parsed"
    );
}

/// Shrunk counterexample: a hunk header whose closing ` @@` overlaps its
/// opening `@@ ` once sliced `header[3..2]` and panicked the worker.
#[test]
fn untrusted_bodies_regression_collapsed_hunk_header() {
    for eol in ["\n", "\r\n"] {
        let text = ["diff --git a/src/x.c b/src/x.c", "@@ @@", ""].join(eol);
        assert!(Patch::parse(&text).is_err(), "{text:?}");
    }
}

/// A CRLF body is the same patch as its LF twin: every NVD patch of a
/// tiny build, printed and re-parsed with either line ending, parses to
/// one `Patch` and scores one weighted feature row.
#[test]
fn crlf_bodies_parse_and_score_like_lf() {
    let ix = index();
    assert!(!ix.db().nvd().is_empty());
    for r in ix.db().nvd() {
        let text = r.patch.to_unified_string();
        let lf = Patch::parse(&text).expect("printed patch parses");
        let crlf = Patch::parse(&text.replace('\n', "\r\n")).expect("CRLF patch parses");
        assert_eq!(lf, crlf, "{}", r.patch.commit);
        assert_eq!(lf, r.patch, "{}: print/parse round trip", r.patch.commit);
        assert_eq!(ix.weighted_features(&lf), ix.weighted_features(&crlf), "{}", r.patch.commit);
    }
}
