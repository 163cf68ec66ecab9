//! Cross-crate integration tests: the full PatchDB construction pipeline
//! at test scale, exercising every subsystem together.

use patchdb::{BuildOptions, PatchDb};

fn build() -> patchdb::BuildReport {
    PatchDb::build(&BuildOptions::tiny(28))
}

#[test]
fn full_pipeline_produces_every_component() {
    let report = build();
    let s = report.db.stats();
    assert!(s.nvd_security > 0);
    assert!(s.wild_security > 0);
    assert!(s.non_security > 0);
    assert!(s.synthetic_security > 0);
    assert!(s.synthetic_non_security > 0);
}

#[test]
fn every_natural_patch_round_trips_through_text() {
    let report = build();
    for record in report.db.security_patches().take(100) {
        let text = record.patch.to_unified_string();
        let back = patch_core::Patch::parse(&text).expect("natural patch parses");
        assert_eq!(back, record.patch);
    }
}

#[test]
fn every_natural_patch_is_c_only_and_valid() {
    let report = build();
    for record in report.db.security_patches() {
        assert!(record.patch.files.iter().all(|f| f.is_c_family()));
        assert!(record.patch.validate().is_ok(), "{}", record.patch.commit);
    }
}

#[test]
fn nearest_link_beats_base_rate_end_to_end() {
    let report = build();
    let mean: f64 =
        report.rounds.iter().map(|r| r.ratio).sum::<f64>() / report.rounds.len().max(1) as f64;
    // tiny corpus has a 15% base security rate; NLS must beat it even at
    // this scale (pools are small enough that rounds partially exhaust
    // the clusters, so the margin is modest — the bench scale shows 3×).
    assert!(mean > 0.15, "mean NLS ratio {mean} not above the base rate");
}

#[test]
fn synthetic_patches_contain_variant_markers_and_parse() {
    let report = build();
    for s in report.db.synthetic.iter().take(50) {
        let text = s.patch.to_unified_string();
        assert!(text.contains("_SYS_"), "missing variant marker:\n{text}");
        assert!(patch_core::Patch::parse(&text).is_ok());
    }
}

#[test]
fn features_are_finite_everywhere() {
    let report = build();
    for r in report.db.security_patches().chain(report.db.non_security.iter()) {
        assert!(r.features.is_finite());
    }
    for s in &report.db.synthetic {
        assert!(s.features.is_finite());
    }
}

#[test]
fn dataset_json_round_trips() {
    let report = build();
    let json = report.db.to_json().expect("serializes");
    let back = PatchDb::from_json(&json).expect("deserializes");
    assert_eq!(back.stats(), report.db.stats());
    assert_eq!(back.nvd[0].patch.commit, report.db.nvd[0].patch.commit);
}

#[test]
fn taxonomy_agrees_with_ground_truth_majority() {
    let report = build();
    let mut hits = 0usize;
    let mut total = 0usize;
    for r in report.db.security_patches() {
        if let Some(t) = r.truth_category {
            total += 1;
            if patchdb::classify_patch(&r.patch) == t {
                hits += 1;
            }
        }
    }
    let acc = hits as f64 / total.max(1) as f64;
    assert!(acc > 0.7, "taxonomy accuracy {acc} over {total} patches");
}

#[test]
fn builds_are_deterministic_across_processes() {
    // Same options, fresh objects: byte-identical wild membership.
    let a = build();
    let b = build();
    assert_eq!(
        a.db.wild.iter().map(|r| r.patch.commit).collect::<Vec<_>>(),
        b.db.wild.iter().map(|r| r.patch.commit).collect::<Vec<_>>()
    );
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.verified_security, y.verified_security);
    }
}
