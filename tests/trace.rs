//! The observability contract of a traced build: `BuildTelemetry` covers
//! all five pipeline stages as a properly nested span tree, carries the
//! per-round NLS prune/k-best counters, and serializes to a
//! schema-valid `TRACE_build.json` document.
//!
//! These tests live in their own binary: they flip the process-global
//! trace toggle, and `cargo test` runs integration binaries in separate
//! processes, so the other suites never observe the flip. Within this
//! binary the tests share one traced build through a `OnceLock`.

use std::sync::OnceLock;

use patchdb::{BuildOptions, BuildReport, BuildTelemetry, Json, PatchDb};
use patchdb_rt::obs;

fn traced_report() -> &'static BuildReport {
    static REPORT: OnceLock<BuildReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        obs::set_enabled(true);
        let report = PatchDb::build(&BuildOptions::tiny(7));
        obs::set_enabled(false);
        assert!(report.telemetry.is_some(), "traced build lost its telemetry");
        report
    })
}

fn telemetry() -> &'static BuildTelemetry {
    traced_report().telemetry.as_ref().expect("telemetry present")
}

#[test]
fn span_tree_covers_all_five_stages() {
    let trace = &telemetry().trace;
    let build = trace.find_span("build").expect("root `build` span");
    let stages: Vec<&str> = build.children.iter().map(|s| s.name.as_str()).collect();
    for stage in ["mine_nvd", "collect_wild", "augment", "assemble", "synthesize"] {
        assert!(stages.contains(&stage), "stage {stage} missing from {stages:?}");
    }
    // The augment stage nests the per-round spans, which nest the NLS
    // phases — three levels below the root.
    let augment = build.children.iter().find(|s| s.name == "augment").expect("augment stage");
    assert!(!augment.children.is_empty(), "augment stage has no round spans");
    let round = &augment.children[0];
    assert!(round.name.starts_with("round "), "unexpected round span {:?}", round.name);
    let phases: Vec<&str> = round.children.iter().map(|s| s.name.as_str()).collect();
    assert!(phases.contains(&"nls.init"), "round span lacks nls.init: {phases:?}");
    assert!(phases.contains(&"nls.assign"), "round span lacks nls.assign: {phases:?}");
}

#[test]
fn per_round_and_kbest_counters_are_present() {
    let report = traced_report();
    let trace = &telemetry().trace;
    // One pair of round-scoped prune counters per Table II round.
    for r in &report.rounds {
        let evaluated = format!("nls.round{:02}.dist_evaluated", r.round);
        let pruned = format!("nls.round{:02}.pruned_norm", r.round);
        assert!(trace.counter(&evaluated).is_some(), "missing {evaluated}");
        assert!(trace.counter(&pruned).is_some(), "missing {pruned}");
    }
    // Collision resolution: every link was a k-best hit or a rescan.
    let links = trace.counter("nls.links").expect("nls.links");
    let hits = trace.counter("nls.kbest_hits").unwrap_or(0);
    let rescans = trace.counter("nls.rescans").unwrap_or(0);
    assert_eq!(hits + rescans, links, "kbest hits + rescans must equal links");
    let candidates: u64 = report.rounds.iter().map(|r| r.candidates as u64).sum();
    assert_eq!(links, candidates, "links must equal Table II candidates");
    // The init pass did real work and the norm bound pruned something.
    assert!(trace.counter("nls.dist_evaluated").unwrap_or(0) > 0);
    assert!(trace.counter("nls.pruned_norm").unwrap_or(0) > 0);
}

/// The scan accounting partition: every candidate column of every scan
/// lands in exactly one of `dist_evaluated` / `pruned_norm` /
/// `masked_skipped` / `cells_skipped`, so per round
///
/// ```text
/// evaluated + pruned + masked + cells_skipped
///     == (init rows + rescans) × pool_rows
/// ```
///
/// — each init row and each rescan is one full sweep of the pool, and
/// nothing is counted twice or dropped. (The early-exit tally annotates
/// `evaluated` candidates and sits outside the partition.)
#[test]
fn per_round_scan_accounting_is_exhaustive() {
    let report = traced_report();
    let trace = &telemetry().trace;
    assert!(!report.rounds.is_empty());
    for r in &report.rounds {
        let c = |suffix: &str| {
            let name = format!("nls.round{:02}.{suffix}", r.round);
            trace.counter(&name).unwrap_or_else(|| panic!("missing {name}"))
        };
        let scanned =
            c("dist_evaluated") + c("pruned_norm") + c("masked_skipped") + c("cells_skipped");
        let sweeps = c("rows") + c("rescans");
        let pool_rows = c("pool_rows");
        assert_eq!(
            scanned,
            sweeps * pool_rows,
            "round {:02}: accounting leak (sweeps={sweeps} pool_rows={pool_rows})",
            r.round
        );
        // Each init pass sweeps one row per security patch — that's the
        // round's candidate count.
        assert_eq!(c("rows"), r.candidates as u64, "round {:02}: init row count", r.round);
        // The default build runs the partitioned index: its cell and
        // flank bounds must actually fire.
        assert!(c("cells_skipped") > 0, "round {:02}: index bounds never fired", r.round);
    }
}

#[test]
fn stage_counters_match_the_dataset() {
    let report = traced_report();
    let trace = &telemetry().trace;
    let stats = report.db.stats();
    assert_eq!(trace.counter("build.nvd_records"), Some(stats.nvd_security as u64));
    assert_eq!(trace.counter("build.wild_records"), Some(stats.wild_security as u64));
    assert_eq!(trace.counter("build.nonsecurity_records"), Some(stats.non_security as u64));
    assert_eq!(
        trace.counter("build.synthetic_records"),
        Some((stats.synthetic_security + stats.synthetic_non_security) as u64),
    );
    assert_eq!(trace.counter("build.wild_total"), Some(report.wild_total as u64));
    assert_eq!(
        trace.counter("augment.candidates"),
        Some(report.verification_effort as u64),
    );
}

/// The serialized document is what the `check-bench-json` validator
/// accepts: schema tag, nesting spans with non-negative durations,
/// unique counter names, histograms whose buckets sum to their count.
#[test]
fn trace_json_is_schema_valid() {
    let json = telemetry().to_json();
    let text = json.to_pretty_string();
    let parsed = Json::parse(&text).expect("trace JSON re-parses");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(BuildTelemetry::SCHEMA),
        "missing/wrong schema tag"
    );

    fn check_span(s: &Json) -> usize {
        assert!(s.get("name").and_then(Json::as_str).is_some(), "span lacks name");
        let ns = s.get("ns").and_then(Json::as_f64).expect("span lacks ns");
        assert!(ns >= 0.0, "negative span duration");
        let children = s.get("children").and_then(|c| c.as_arr()).expect("span lacks children");
        1 + children.iter().map(check_span).sum::<usize>()
    }
    let spans = parsed.get("spans").and_then(|s| s.as_arr()).expect("spans array");
    let total: usize = spans.iter().map(check_span).sum();
    assert!(total >= 6, "expected root + 5 stages, got {total} spans");

    let Some(Json::Obj(counters)) = parsed.get("counters") else {
        panic!("counters object missing")
    };
    let mut names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate counter names");
    for (name, v) in counters {
        let v = v.as_f64().expect("counter value numeric");
        assert!(v >= 0.0 && v.fract() == 0.0, "counter {name} = {v} not a non-negative integer");
    }

    let Some(Json::Obj(hists)) = parsed.get("histograms") else {
        panic!("histograms object missing")
    };
    for (name, h) in hists {
        let count = h.get("count").and_then(Json::as_f64).expect("hist count");
        let buckets = h.get("buckets").and_then(|b| b.as_arr()).expect("hist buckets");
        let sum: f64 = buckets.iter().map(|b| b.as_f64().expect("numeric bucket")).sum();
        assert_eq!(sum, count, "histogram {name}: buckets don't sum to count");
    }
}
