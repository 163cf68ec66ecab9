//! End-to-end tests of the `patchdb` CLI binary: build → export → every
//! read-only subcommand over the exported JSON.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use patch_core::LineKind;
use patchdb::{BuildTelemetry, PatchDb};
use patchdb_rt::json::Json;
use patchdb_serve::ServeIndex;

fn bin() -> PathBuf {
    // target/debug/patchdb, next to the test executable's parent dir.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug/
    p.push("patchdb");
    p
}

fn run(args: &[&str]) -> (bool, String) {
    let (code, text) = run_coded(args);
    (code == 0, text)
}

/// Like [`run`], but exposing the exact exit code: `0` success, `2`
/// usage mistakes, `1` runtime failures.
fn run_coded(args: &[&str]) -> (i32, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("patchdb binary runs (build with `cargo build --bins` first)");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

fn build_db(path: &std::path::Path) {
    let (ok, text) = run(&[
        "build",
        "--tiny",
        "--seed",
        "77",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "build failed:\n{text}");
    assert!(text.contains("round"), "missing round table:\n{text}");
    assert!(path.exists());
}

#[test]
fn cli_full_workflow() {
    let dir = std::env::temp_dir().join("patchdb-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.json");
    build_db(&db);
    let db_str = db.to_str().unwrap();

    let (ok, text) = run(&["stats", db_str]);
    assert!(ok, "{text}");
    assert!(text.contains("category distribution"), "{text}");

    let (ok, text) = run(&["classify", db_str]);
    assert!(ok, "{text}");
    assert!(text.contains("agreement with ground truth"), "{text}");

    let (ok, text) = run(&["patterns", db_str]);
    assert!(ok, "{text}");
    assert!(text.contains("fix patterns across"), "{text}");

    let (ok, text) = run(&["analyze", db_str]);
    assert!(ok, "{text}");
    assert!(text.contains("top discriminative"), "{text}");

    // Scan a record's own BEFORE text: a clone of that record's
    // vulnerable shape. The CLI names it and counts exactly what the
    // server's index counts on the same dataset.
    let json = std::fs::read_to_string(&db).unwrap();
    let index = ServeIndex::build(PatchDb::from_json(&json).unwrap());
    let (record, before, outcome) = index
        .db()
        .security_patches()
        .find_map(|r| {
            let before: String = r
                .patch
                .hunks()
                .flat_map(|h| h.lines.iter().filter(|l| l.kind != LineKind::Added))
                .map(|l| l.content.clone() + "\n")
                .collect();
            let outcome = index.scan(&before);
            let own = outcome.matches.iter().any(|m| m.commit == r.patch.commit);
            own.then_some((r, before, outcome))
        })
        .expect("some record's own BEFORE text matches its signature");
    let target = dir.join("target.c");
    std::fs::write(&target, &before).unwrap();
    let target_str = target.to_str().unwrap();
    let (ok, text) = run(&["scan", db_str, target_str]);
    assert!(ok, "{text}");
    let own = format!(
        "VULNERABLE clone of {} ({})",
        record.patch.commit.short(),
        record.cve_id.as_deref().unwrap_or("silent fix")
    );
    assert!(text.lines().any(|l| l == own), "no {own:?} in:\n{text}");
    assert_eq!(
        text.lines().filter(|l| l.starts_with("VULNERABLE clone of ")).count(),
        outcome.matches.len(),
        "{text}"
    );
    let counts = format!(
        "{target_str}: {} vulnerable-signature hits, {} patched-signature hits",
        outcome.matches.len(),
        outcome.patched
    );
    assert!(text.lines().any(|l| l == counts), "no {counts:?} in:\n{text}");
}

#[test]
fn cli_rejects_bad_usage() {
    // Usage mistakes exit 2 and point at the usage text.
    let (code, text) = run_coded(&["frobnicate"]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("usage:"), "{text}");

    let (code, text) = run_coded(&["build", "--bogus-flag"]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("unknown flag"), "{text}");

    let (code, text) = run_coded(&["serve"]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("usage: patchdb serve"), "{text}");

    // Removed serve flags are rejected, not silently accepted.
    for (flag, value) in [
        ("--shards", "2"),
        ("--batch-window-ms", "2"),
        ("--flight", "on"),
        ("--sampler", "on"),
        ("--tracing", "on"),
        ("--keep-alive", "off"),
    ] {
        let (code, text) = run_coded(&["serve", "/no/such/db.json", flag, value]);
        assert_eq!(code, 2, "{flag}: {text}");
        assert!(text.contains(&format!("unknown flag {flag}")), "{text}");
    }

    // Values a serve knob cannot honor are refused before any boot: a
    // non-finite objective, and a retention past the one-hour cap.
    for (flag, value) in [("--slo-availability-pct", "nan"), ("--tsdb-retention-s", "3601")] {
        let (code, text) = run_coded(&["serve", "/no/such/db.json", flag, value]);
        assert_eq!(code, 2, "{flag} {value}: {text}");
        let error = text.lines().find(|l| l.starts_with("error:")).unwrap_or_default();
        assert!(error.contains(flag) && error.contains(value), "{text}");
    }

    // Runtime failures (the command was well-formed) exit 1.
    let (code, text) = run_coded(&["stats", "/no/such/file.json"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error:"), "{text}");
}

#[test]
fn cli_help_and_version() {
    let (code, text) = run_coded(&["--help"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("usage: patchdb <command>"), "{text}");
    assert!(text.contains("serve"), "{text}");

    let (code, text) = run_coded(&["help", "serve"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("--max-inflight"), "{text}");

    let (code, text) = run_coded(&["build", "--help"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("--no-synth"), "{text}");

    let (code, text) = run_coded(&["--version"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.starts_with("patchdb "), "{text}");
}

#[test]
fn cli_trace_out_implies_trace() {
    let dir = std::env::temp_dir().join(format!("patchdb-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let (ok, text) =
        run(&["build", "--tiny", "--no-synth", "--trace-out", trace.to_str().unwrap()]);
    assert!(ok, "{text}");
    let raw = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| panic!("--trace-out wrote no trace ({e}):\n{text}"));
    let json = Json::parse(&raw).expect("trace is JSON");
    assert_eq!(json.get("schema").and_then(Json::as_str), Some(BuildTelemetry::SCHEMA));

    fn check_span(s: &Json) -> &str {
        assert!(s.get("ns").and_then(Json::as_f64).is_some_and(|ns| ns >= 0.0), "{s:?}");
        for child in s.get("children").and_then(Json::as_arr).expect("span children") {
            check_span(child);
        }
        s.get("name").and_then(Json::as_str).expect("span name")
    }
    let spans = json.get("spans").and_then(Json::as_arr).expect("spans array");
    let build = spans.iter().find(|s| check_span(s) == "build").expect("root `build` span");
    let stages: Vec<&str> = build
        .get("children")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(check_span)
        .collect();
    for stage in ["mine_nvd", "collect_wild", "augment", "assemble"] {
        assert!(stages.contains(&stage), "stage {stage} missing from {stages:?}");
    }
    let Some(Json::Obj(counters)) = json.get("counters") else { panic!("no counters object") };
    assert!(!counters.is_empty());
    for (name, value) in counters {
        let v = value.as_f64().expect("numeric counter");
        assert!(v >= 0.0 && v.fract() == 0.0, "counter {name} = {v}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `--flag` spelled in `text`.
fn flags_in(text: &str) -> BTreeSet<String> {
    text.match_indices("--")
        .filter_map(|(at, _)| {
            let name: String = text[at + 2..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            name.starts_with(|c: char| c.is_ascii_lowercase()).then(|| format!("--{name}"))
        })
        .collect()
}

#[test]
fn readme_serve_table_lists_exactly_the_serve_flags() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let table: String = readme
        .lines()
        .skip_while(|l| !l.starts_with("| `--addr "))
        .take_while(|l| l.starts_with("| `--"))
        .map(|l| l.split('|').nth(1).unwrap_or_default())
        .collect();
    let (code, help) = run_coded(&["help", "serve"]);
    assert_eq!(code, 0, "{help}");
    assert_eq!(flags_in(&table), flags_in(&help), "README serve knob table vs `patchdb help serve`");
}
