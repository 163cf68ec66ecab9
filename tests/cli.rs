//! End-to-end tests of the `patchdb` CLI binary: build → export → every
//! read-only subcommand over the exported JSON.

use std::path::PathBuf;
use std::process::Command;

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

    // Scan a target file that is a clone of nothing.
    let target = dir.join("target.c");
    std::fs::write(&target, "void empty(void) { }\n").unwrap();
    let (ok, text) = run(&["scan", db_str, target.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("vulnerable-signature hits"), "{text}");
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
