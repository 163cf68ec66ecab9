//! The `build` workload: repeated default-scale dataset builds, each
//! followed by what an operator runs to ship it — JSON export, serve
//! index build, and snapshot write.

use std::path::Path;
use std::time::Instant;

use patchdb::{BuildOptions, BuildTelemetry, PatchDb};
use patchdb_corpus::GitHubForge;
use patchdb_nls::AugmentationRound;
use patchdb_rt::obs;
use patchdb_serve::{ServeIndex, Snapshot};

use crate::inputs::DATASET_SEED;
use crate::report::Report;
use crate::{fnv64, pinned_threads, procfs, serve, stats, Args};

/// Set-up samples per run, after one untimed generation; `setup_s` is
/// their median.
const SETUPS: usize = 9;
/// Forge generations per set-up sample. One takes a few milliseconds,
/// too short to time alone: thread start-up and scheduler jitter would
/// set the figure. A batch runs for about a tenth of a second.
const GENERATIONS: usize = 24;
/// Set-up samples in a serve workload's build probe.
const PROBE_SETUPS: usize = 3;

/// The build pipeline stages `BuildTelemetry` records as spans.
const STAGES: [&str; 5] = [
    "mine_nvd",
    "collect_wild",
    "augment",
    "assemble",
    "synthesize",
];

/// One timed build-and-ship operation.
struct Op {
    wall_s: f64,
    cpu_s: f64,
    json_digest: u64,
    snapshot_digest: u64,
    signatures: usize,
    json_ms: f64,
    index_ms: f64,
    encode_ms: f64,
    rounds: Vec<AugmentationRound>,
    telemetry: Option<BuildTelemetry>,
}

/// The forge is the default-scale one every serve workload's dataset
/// comes from; `seed` drives the pipeline's own sampling and oracle, so
/// each seed builds a different dataset from a corpus of one size.
fn options(seed: u64) -> BuildOptions {
    BuildOptions::default_scale(DATASET_SEED)
        .seed(seed)
        .threads(pinned_threads())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let options = options(args.seed);
    obs::set_enabled(false);

    let forge = GitHubForge::generate(&options.corpus); // untimed warm-up, kept
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| generate_on_all_threads(&options, GENERATIONS))
        .collect();

    // Whole builds until the run's time is spent: at least two, so the
    // byte-identity check has a pair. A traced run traces every build.
    let json_path = args.work.join("build.json");
    let snapshot_path = args.work.join("build.snapshot");
    let started = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    obs::set_enabled(args.trace);
    while ops.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        ops.push(build_once(&forge, &options, &json_path, &snapshot_path)?);
    }
    obs::set_enabled(false);
    // The build's own peak, before the read-back checks below allocate.
    let peak_rss_mb = procfs::peak_rss_mb("self").map_err(|e| e.to_string())?;

    let mut report = Report {
        attempted: ops.len() as u64,
        ..Report::default()
    };
    let (json0, snap0) = (ops[0].json_digest, ops[0].snapshot_digest);
    eprintln!(
        "perfbench: build digests json={json0:016x} snapshot={snap0:016x} over {} builds",
        ops.len()
    );
    for (i, op) in ops.iter().enumerate() {
        report.check(op.json_digest == json0, || {
            format!(
                "build {i} JSON digest {:016x} != {json0:016x}",
                op.json_digest
            )
        });
        report.check(op.snapshot_digest == snap0, || {
            format!(
                "build {i} snapshot digest {:016x} != {snap0:016x}",
                op.snapshot_digest
            )
        });
    }
    let read_started = Instant::now();
    let encoded = Snapshot::read_from(&snapshot_path)
        .map_err(|e| format!("reading back the snapshot: {e}"))?;
    let decode_started = Instant::now();
    let index = encoded
        .decode()
        .map_err(|e| format!("decoding the snapshot read back: {e}"))?;
    let decode_ms = decode_started.elapsed().as_secs_f64() * 1e3;
    let read_ms = (decode_started - read_started).as_secs_f64() * 1e3;
    drop(encoded);
    let db = PatchDb::from_json(
        &std::fs::read_to_string(&json_path).map_err(|e| format!("reading back the JSON: {e}"))?,
    )
    .map_err(|e| format!("parsing back the JSON: {e}"))?;
    report.check(db.stats() == index.db().stats(), || {
        "exported JSON and snapshot hold different datasets".into()
    });
    report.check(
        index.signature_count() > 0 && db.stats().wild_security > 0,
        || "the build produced no signatures or no augmented records".into(),
    );
    drop(db);

    let wall_ms: Vec<f64> = ops.iter().map(|o| o.wall_s * 1e3).collect();
    let (tail_ms, tail_pct) = stats::tail(&wall_ms).expect("at least two builds");
    eprintln!(
        "perfbench: {} builds; p50 {:.1} ms, p{tail_pct} {tail_ms:.1} ms",
        ops.len(),
        stats::median(&wall_ms).unwrap()
    );
    if args.trace {
        report.metric("tail.latency_ms", tail_ms, "ms");
        report.metric("snapshot.read_ms", read_ms, "ms");
        report.metric("snapshot.decode_ms", decode_ms, "ms");
        build_layers(&mut report, &ops, &setup_s);
        serve::layer_probe(args, &snapshot_path, &index, &mut report)?;
    } else {
        let n = ops.len() as f64;
        report.metric("setup_s", stats::median(&setup_s).unwrap(), "s");
        report.metric("p50_ms", stats::median(&wall_ms).unwrap(), "ms");
        report.metric(
            "cpu_ms_per_op",
            ops.iter().map(|o| o.cpu_s).sum::<f64>() * 1e3 / n,
            "ms",
        );
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    }
    Ok(report)
}

/// Generates the forge `times` times over on each pinned thread at once
/// and returns the seconds per generation until the last thread
/// finishes. The builds run on all pinned threads, so their set-up is
/// timed the same way; timing it on one thread would depend on which
/// processor that thread landed on, and the two processors of this kind
/// of VM can differ by half.
fn generate_on_all_threads(options: &BuildOptions, times: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..pinned_threads() {
            s.spawn(|| {
                for _ in 0..times {
                    std::hint::black_box(GitHubForge::generate(&options.corpus));
                }
            });
        }
    });
    started.elapsed().as_secs_f64() / times as f64
}

/// One build → JSON export → serve index → snapshot write, timed from
/// outside. The outputs' digests are taken after the clock stops.
fn build_once(
    forge: &GitHubForge,
    options: &BuildOptions,
    json_path: &Path,
    snapshot_path: &Path,
) -> Result<Op, String> {
    let io = |e: &dyn std::fmt::Display| e.to_string();
    let cpu0 = procfs::cpu_seconds("self").map_err(|e| io(&e))?;
    let t0 = Instant::now();
    let built = PatchDb::build_on(forge, options);
    let t1 = Instant::now();
    let json = built.db.to_json().map_err(|e| io(&e))?;
    std::fs::write(json_path, &json).map_err(|e| io(&e))?;
    let t2 = Instant::now();
    let index = ServeIndex::build(built.db);
    let t3 = Instant::now();
    Snapshot::encode(&index)
        .write_to(snapshot_path)
        .map_err(|e| io(&e))?;
    let t4 = Instant::now();
    let cpu_s = procfs::cpu_seconds("self").map_err(|e| io(&e))? - cpu0;
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Op {
        wall_s: (t4 - t0).as_secs_f64(),
        cpu_s,
        json_digest: fnv64(json.as_bytes()),
        snapshot_digest: fnv64(&std::fs::read(snapshot_path).map_err(|e| io(&e))?),
        signatures: index.signature_count(),
        json_ms: ms(t1, t2),
        index_ms: ms(t2, t3),
        encode_ms: ms(t3, t4),
        rounds: built.rounds,
        telemetry: built.telemetry,
    })
}

/// The build-side per-layer metrics of a serve workload's traced run:
/// forge generation timed as `build` times its set-up, then one traced
/// build-and-ship operation with the run's seed as pipeline seed.
pub fn layer_probe(args: &Args, report: &mut Report) -> Result<(), String> {
    let options = options(args.seed);
    let forge = GitHubForge::generate(&options.corpus);
    let setup_s: Vec<f64> = (0..PROBE_SETUPS)
        .map(|_| generate_on_all_threads(&options, GENERATIONS))
        .collect();
    obs::set_enabled(true);
    let op = build_once(
        &forge,
        &options,
        &args.work.join("probe.json"),
        &args.work.join("probe.snapshot"),
    );
    obs::set_enabled(false);
    let op = op?;
    report.attempted += 1;
    report.check(op.signatures > 0, || {
        "the probe build produced no signatures".into()
    });
    build_layers(report, std::slice::from_ref(&op), &setup_s);
    Ok(())
}

/// Records the build-side per-layer metrics: medians over `traced`
/// builds, and the forge generation time of the `setup_s` samples.
fn build_layers(report: &mut Report, traced: &[Op], setup_s: &[f64]) {
    let med =
        |f: &dyn Fn(&Op) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>()).unwrap();
    let span_ms = |op: &Op, name: &str| {
        let trace = &op
            .telemetry
            .as_ref()
            .expect("traced build carries telemetry")
            .trace;
        trace.find_span(name).map_or(0.0, |s| s.ns as f64 / 1e6)
    };
    let counter = |op: &Op, name: &str| {
        let trace = &op
            .telemetry
            .as_ref()
            .expect("traced build carries telemetry")
            .trace;
        trace.counter(name).unwrap_or(0) as f64
    };

    report.metric(
        "corpus.generate_ms",
        stats::median(setup_s).unwrap() * 1e3,
        "ms",
    );
    for stage in STAGES {
        report.metric(
            &format!("pipeline.{stage}_ms"),
            med(&|op| span_ms(op, stage)),
            "ms",
        );
    }
    let skipped = |op: &Op| {
        [
            "nls.pruned_norm",
            "nls.masked_skipped",
            "nls.cells_skipped",
            "nls.quant_rejects",
        ]
        .iter()
        .map(|c| counter(op, c))
        .sum::<f64>()
    };
    report.metric(
        "nls.distances",
        med(&|op| counter(op, "nls.dist_evaluated")),
        "count",
    );
    report.metric(
        "nls.skip_share",
        med(&|op| skipped(op) / (skipped(op) + counter(op, "nls.dist_evaluated")).max(1.0)),
        "ratio",
    );
    let rounds = &traced[0].rounds;
    let candidates: usize = rounds.iter().map(|r| r.candidates).sum();
    let verified: usize = rounds.iter().map(|r| r.verified_security).sum();
    report.metric(
        "nls.verified_share",
        verified as f64 / candidates.max(1) as f64,
        "ratio",
    );
    report.metric("json.export_ms", med(&|op| op.json_ms), "ms");
    report.metric("index.build_ms", med(&|op| op.index_ms), "ms");
    report.metric("snapshot.encode_ms", med(&|op| op.encode_ms), "ms");
}
