//! Bit-determinism of the whole pipeline: the same `BuildOptions` must
//! produce byte-identical datasets, statistics, round tables, and JSON
//! exports on every run — the property the hermetic `patchdb-rt` runtime
//! exists to guarantee (no external RNG or serializer to drift).

use patchdb::{BuildOptions, PatchDb};

/// Two builds from the same seed agree on every headline statistic.
#[test]
fn repeated_builds_have_identical_stats() {
    let a = PatchDb::build(&BuildOptions::tiny(1234));
    let b = PatchDb::build(&BuildOptions::tiny(1234));
    assert_eq!(a.db.stats(), b.db.stats());
    assert_eq!(a.wild_total, b.wild_total);
    assert_eq!(a.verification_effort, b.verification_effort);
}

/// Two builds from the same seed produce the same Table II rounds,
/// including the floating-point ratios, bit for bit.
#[test]
fn repeated_builds_have_identical_rounds() {
    let a = PatchDb::build(&BuildOptions::tiny(1234));
    let b = PatchDb::build(&BuildOptions::tiny(1234));
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.pool, rb.pool);
        assert_eq!(ra.round, rb.round);
        assert_eq!(ra.search_range, rb.search_range);
        assert_eq!(ra.candidates, rb.candidates);
        assert_eq!(ra.verified_security, rb.verified_security);
        assert_eq!(ra.ratio.to_bits(), rb.ratio.to_bits());
    }
}

/// The JSON export is byte-identical across runs, and survives a
/// load → re-export round trip unchanged (canonical form).
#[test]
fn json_export_is_byte_identical_and_canonical() {
    let a = PatchDb::build(&BuildOptions::tiny(1234));
    let b = PatchDb::build(&BuildOptions::tiny(1234));
    let ja = a.db.to_json().expect("export a");
    let jb = b.db.to_json().expect("export b");
    assert_eq!(ja, jb, "two builds exported different JSON");

    let reloaded = PatchDb::from_json(&ja).expect("reload");
    let jc = reloaded.to_json().expect("re-export");
    assert_eq!(ja, jc, "load → export round trip changed bytes");
}

/// The thread count steers wall time only: builds under
/// `PATCHDB_THREADS=1` and `PATCHDB_THREADS=8` export byte-identical
/// JSON. (The env var is process-global, so this test serializes the two
/// builds itself rather than relying on test-runner ordering; the other
/// tests in this file are thread-count agnostic by the same property, so
/// a concurrently observed override is harmless.)
#[test]
fn thread_count_does_not_change_output() {
    let run_with = |threads: &str| {
        std::env::set_var("PATCHDB_THREADS", threads);
        let report = PatchDb::build(&BuildOptions::tiny(1234));
        std::env::remove_var("PATCHDB_THREADS");
        report
    };
    let single = run_with("1");
    let many = run_with("8");
    assert_eq!(
        single.db.to_json().expect("export single-threaded"),
        many.db.to_json().expect("export multi-threaded"),
        "thread count changed output bytes"
    );
    assert_eq!(single.verification_effort, many.verification_effort);
    assert_eq!(single.rounds.len(), many.rounds.len());
    for (ra, rb) in single.rounds.iter().zip(&many.rounds) {
        assert_eq!(ra.ratio.to_bits(), rb.ratio.to_bits());
    }
}

/// Tracing observes the build; it never steers it. A `PATCHDB_TRACE=1`
/// build (via the equivalent programmatic toggle — the env var is read
/// once per process, so flipping it here wouldn't take) and an untraced
/// build export byte-identical JSON, stats and rounds; only the
/// `telemetry` attachment differs. Tests in this binary run
/// concurrently, so a neighbor build may incidentally get traced while
/// the toggle is on — harmless by exactly the property this test pins.
#[test]
fn trace_toggle_does_not_change_output() {
    let off = PatchDb::build(&BuildOptions::tiny(1234));
    patchdb_rt::obs::set_enabled(true);
    let on = PatchDb::build(&BuildOptions::tiny(1234));
    patchdb_rt::obs::set_enabled(false);

    assert!(on.telemetry.is_some(), "traced build lost its telemetry");
    assert_eq!(
        off.db.to_json().expect("export untraced"),
        on.db.to_json().expect("export traced"),
        "tracing changed output bytes"
    );
    assert_eq!(off.db.stats(), on.db.stats());
    assert_eq!(off.wild_total, on.wild_total);
    assert_eq!(off.verification_effort, on.verification_effort);
    assert_eq!(off.rounds.len(), on.rounds.len());
    for (ra, rb) in off.rounds.iter().zip(&on.rounds) {
        assert_eq!(ra.pool, rb.pool);
        assert_eq!(ra.candidates, rb.candidates);
        assert_eq!(ra.verified_security, rb.verified_security);
        assert_eq!(ra.ratio.to_bits(), rb.ratio.to_bits());
    }
}

/// The unmodified production NLS configuration (`NlsConfig::auto`, the
/// partitioned index) at `PATCHDB_THREADS=1` vs `8` produces
/// byte-identical stats, rounds and JSON — the deterministic k-means
/// seeding and the order-preserving parallel scans compose into a
/// thread-invariant end-to-end build. The build reads the variable, so
/// it is set around each run.
#[test]
fn default_index_is_thread_invariant() {
    let run_with = |threads: &str| {
        std::env::set_var("PATCHDB_THREADS", threads);
        let report = PatchDb::build(&BuildOptions::tiny(1234));
        std::env::remove_var("PATCHDB_THREADS");
        report
    };
    let single = run_with("1");
    let many = run_with("8");
    assert_eq!(single.db.stats(), many.db.stats());
    assert_eq!(
        single.db.to_json().expect("export single-threaded"),
        many.db.to_json().expect("export multi-threaded"),
        "thread count changed default-index output bytes"
    );
    assert_eq!(single.verification_effort, many.verification_effort);
    assert_eq!(single.rounds.len(), many.rounds.len());
    for (ra, rb) in single.rounds.iter().zip(&many.rounds) {
        assert_eq!(ra.ratio.to_bits(), rb.ratio.to_bits());
    }
}

/// Different seeds must actually change the dataset (the determinism
/// above is not just a constant function).
#[test]
fn different_seeds_differ() {
    let a = PatchDb::build(&BuildOptions::tiny(1234));
    let b = PatchDb::build(&BuildOptions::tiny(4321));
    assert_ne!(
        a.db.to_json().unwrap(),
        b.db.to_json().unwrap(),
        "seed is ignored by the pipeline"
    );
}
