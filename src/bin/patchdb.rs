//! `patchdb` — command-line front end for the PatchDB reproduction.
//!
//! Run `patchdb --help` (or `patchdb help <command>`) for usage. Exit
//! codes: `0` success, `2` usage mistake, `1` any runtime failure.

use std::process::ExitCode;

use patchdb::{
    classify_patch, mine_fix_patterns, pattern_frequencies, signatures_of, BuildOptions,
    BuildTelemetry, Error, PatchDb, PresenceVerdict, SignatureSet, ALL_CATEGORIES,
};
use patchdb_rt::obs;
use patchdb_serve::{ReloadSource, ServeConfig, ServeIndex, Server, Snapshot};

const USAGE: &str = "usage: patchdb <command> [...]

commands:
  build     construct the dataset against a synthetic forge; write JSON
  trace     `build --trace`: also emit TRACE_build.json + stage timings
  profile   build under the sampling profiler; write folded stacks
  stats     headline counts and category distribution of a dataset
  classify  rule-based 12-type classification vs ground truth
  patterns  Table VII-style fix-pattern mining
  analyze   most discriminative Table I features
  scan      vulnerability-signature scan of a C file
  serve     long-lived HTTP query server over a dataset or snapshot
  snapshot  compile a dataset into a binary snapshot file
  help      show usage for a command

`patchdb help <command>` prints per-command flags; `--version` prints
the crate version.";

/// Per-command usage text, `None` for unknown commands.
fn usage_for(command: &str) -> Option<&'static str> {
    Some(match command {
        "build" | "trace" => {
            "usage: patchdb build [--seed N] [--tiny] [--no-synth] [--out FILE]
                     [--trace] [--trace-out FILE]
                     [--perfetto] [--perfetto-out FILE]

  --seed N         pipeline seed (default 42)
  --tiny           small corpus for quick runs and tests
  --no-synth       skip the synthetic augmentation stage
  --out FILE       write the built dataset as JSON
  --trace          record spans/counters, write TRACE_build.json
  --trace-out FILE trace output path (default TRACE_build.json);
                   implies --trace
  --perfetto       also write the span tree as Chrome trace-event JSON
                   (open in Perfetto / chrome://tracing); implies --trace
  --perfetto-out FILE
                   perfetto output path (default TRACE_build.perfetto.json)

`patchdb trace` is shorthand for `patchdb build --trace`."
        }
        "profile" => {
            "usage: patchdb profile [--seed N] [--tiny] [--no-synth] [--hz N]
                       [--profile-out FILE] [--top N]

Runs a build with the span-path sampling profiler attached: worker
threads mirror their span paths into seqlock slots, a sampler thread
walks them at --hz, and the aggregate lands as folded stacks —
`flamegraph.pl PROFILE_build.folded > flame.svg` renders it directly.

  --seed N           pipeline seed (default 42)
  --tiny             small corpus for quick runs and tests
  --no-synth         skip the synthetic augmentation stage
  --hz N             sampling rate (default 97, clamped to 1..=1000;
                     prime, so periodic work is not aliased)
  --profile-out FILE folded-stacks output (default PROFILE_build.folded)
  --top N            rows in the printed self-time table (default 10)"
        }
        "stats" => "usage: patchdb stats <FILE>\n\n  <FILE>  dataset JSON from `patchdb build --out`",
        "classify" => "usage: patchdb classify <FILE>\n\n  <FILE>  dataset JSON from `patchdb build --out`",
        "patterns" => "usage: patchdb patterns <FILE>\n\n  <FILE>  dataset JSON from `patchdb build --out`",
        "analyze" => "usage: patchdb analyze <FILE>\n\n  <FILE>  dataset JSON from `patchdb build --out`",
        "scan" => {
            "usage: patchdb scan <FILE> <TARGET.c>\n\n  <FILE>      dataset JSON\n  <TARGET.c>  C source to test against every vulnerability signature"
        }
        "snapshot" => {
            "usage: patchdb snapshot <FILE> [--out PATH]

Builds the full serve index (weights, forest, signatures) once and
writes it as a binary snapshot file. `patchdb serve --snapshot PATH`
boots from it without re-running any of the pipeline, answering
byte-identically to a fresh build. A snapshot is a cache of the
dataset: rerun this command after an upgrade that changes the layout
(a file of an older layout is refused).

  <FILE>      dataset JSON from `patchdb build --out`
  --out PATH  snapshot output path (default patchdb.snapshot)"
        }
        "serve" => {
            "usage: patchdb serve [<FILE>] [--snapshot PATH]
                     [--addr HOST:PORT] [--threads N] [--max-inflight N]
                     [--access-log PATH|-] [--slow-ms N]
                     [--idle-timeout-ms N] [--max-requests-per-conn N]
                     [--max-conns N] [--tsdb-retention-s N]
                     [--slo-identify-p99-ms N] [--slo-availability-pct F]

  <FILE>              dataset JSON to index and serve (optional when
                      --snapshot is given)
  --snapshot PATH     boot from a binary snapshot written by
                      `patchdb snapshot` — skips the learning pipeline
                      entirely; responses are byte-identical to a fresh
                      build of the same dataset. A file of an older
                      layout is refused: rebuild it with `patchdb snapshot`
  --addr HOST:PORT    bind address (default 127.0.0.1:7979; port 0 = ephemeral)
  --threads N         worker pool size (default 0 = auto)
  --max-inflight N    admission bound; beyond it requests get 503 (default 128)
  --access-log PATH|- JSON-lines access log, one line per request with its
                      request id and stage breakdown (- = stdout; default off)
  --access-log-max-mb N
                      rotate the access log (PATH -> PATH.1) when the file
                      would cross N MiB; lines are never split (default 0 = off)
  --slow-ms N         keep requests at least this slow as /debug/slow
                      exemplars (default 100)
  --idle-timeout-ms N close idle keep-alive connections after N ms; also the
                      write-stall bound (default 5000)
  --max-requests-per-conn N
                      close a connection after N responses (default 0 = off)
  --max-conns N       concurrent-connection cap; over it new connections are
                      answered 503 and closed (default 10240)
  --tsdb-retention-s N
                      per-second metric samples kept per series by the
                      embedded time-series ring (default 600, at most 3600)
  --slo-identify-p99-ms N
                      identify latency SLO threshold: a request slower than
                      this burns error budget (default 250)
  --slo-availability-pct F
                      availability objective for the burn-rate engine,
                      e.g. 99.9 (default 99.9, clamped to 50..=99.999;
                      must be finite)

endpoints: POST /v1/identify /v1/classify /v1/scan /admin/reload,
           GET /v1/stats /v1/patch/<id> /healthz /metrics
           GET /debug/requests /debug/slow
           GET /debug/profile?seconds=N&hz=N
           GET /debug/trace/<id> /debug/timeseries?metric=M&secs=N
           GET /debug/slo
(every GET also answers HEAD with the same headers and no body)

Every response carries X-Patchdb-Request-Id and X-Patchdb-Trace-Id; a
client-sent X-Patchdb-Trace-Id is honored and echoed, and its trace is
queryable at GET /debug/trace/<id> while it stays in the debug ring.

POST /admin/reload (or SIGHUP) rebuilds the index from the boot source
and atomically swaps it in; in-flight requests finish on the old
generation. /healthz reports the served generation and uptime as
`ok gen=N up=S`."
        }
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is_usage() => {
            eprintln!("error: {e}");
            let command = args.first().map(String::as_str).unwrap_or("");
            eprintln!("{}", usage_for(command).unwrap_or(USAGE));
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Error>;

fn run(args: &[String]) -> CliResult {
    let command = args.first().map(String::as_str);
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let text = command.and_then(usage_for).unwrap_or(USAGE);
        println!("{text}");
        return Ok(());
    }
    match command {
        Some("--version" | "-V" | "version") => {
            println!("patchdb {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        Some("help") => {
            let text = args.get(1).and_then(|c| usage_for(c)).unwrap_or(USAGE);
            println!("{text}");
            Ok(())
        }
        Some("build") => cmd_build(&args[1..], false),
        Some("trace") => cmd_build(&args[1..], true),
        Some("profile") => cmd_profile(&args[1..]),
        Some("stats") => with_db(&args[1..], cmd_stats),
        Some("classify") => with_db(&args[1..], cmd_classify),
        Some("patterns") => with_db(&args[1..], cmd_patterns),
        Some("analyze") => with_db(&args[1..], cmd_analyze),
        Some("scan") => cmd_scan(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some(other) => Err(Error::usage(format!("unknown command `{other}`"))),
        None => Err(Error::usage("expected a command")),
    }
}

/// Parses the operand after a flag like `--seed`.
fn value_after<'a, I: Iterator<Item = &'a String>>(
    it: &mut I,
    flag: &str,
) -> Result<&'a String, Error> {
    it.next().ok_or_else(|| Error::usage(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, Error> {
    text.parse().map_err(|_| Error::usage(format!("{flag} needs a number, got `{text}`")))
}

fn cmd_build(args: &[String], force_trace: bool) -> CliResult {
    let mut seed = 42u64;
    let mut tiny = false;
    let mut synth = true;
    let mut trace = force_trace;
    let mut perfetto = false;
    let mut out: Option<String> = None;
    let mut trace_out = "TRACE_build.json".to_owned();
    let mut perfetto_out = "TRACE_build.perfetto.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_num(value_after(&mut it, "--seed")?, "--seed")?,
            "--tiny" => tiny = true,
            "--no-synth" => synth = false,
            "--trace" => trace = true,
            "--perfetto" => {
                perfetto = true;
                trace = true;
            }
            "--out" => out = Some(value_after(&mut it, "--out")?.clone()),
            "--trace-out" => {
                trace_out = value_after(&mut it, "--trace-out")?.clone();
                trace = true;
            }
            "--perfetto-out" => {
                perfetto_out = value_after(&mut it, "--perfetto-out")?.clone();
                perfetto = true;
                trace = true;
            }
            other => return Err(Error::usage(format!("unknown flag {other}"))),
        }
    }
    if trace {
        obs::set_enabled(true); // same effect as PATCHDB_TRACE=1
    }

    let options = if tiny {
        BuildOptions::tiny(seed)
    } else {
        BuildOptions::default_scale(seed)
    }
    .synthesize(synth);

    eprintln!(
        "building PatchDB (seed {seed}, ~{} commits)...",
        options.corpus.expected_commits()
    );
    let report = PatchDb::build(&options);
    println!("{}", report.db.stats());
    println!("\nround  pool      range  candidates  verified  ratio");
    for r in &report.rounds {
        println!(
            "{:>5}  {:<8} {:>6}  {:>10}  {:>8}  {:>4.0}%",
            r.round, r.pool, r.search_range, r.candidates, r.verified_security,
            100.0 * r.ratio
        );
    }
    if let Some(path) = out {
        let json = report.db.to_json()?;
        std::fs::write(&path, &json)?;
        eprintln!("\nwrote {} bytes to {path}", json.len());
    }
    // `PATCHDB_TRACE=1 patchdb build` (no flags) also lands here: the
    // pipeline saw tracing enabled and attached telemetry.
    if let Some(telemetry) = &report.telemetry {
        let json = telemetry.to_json().to_pretty_string() + "\n";
        std::fs::write(&trace_out, &json)?;
        eprintln!("\nwrote trace ({} bytes) to {trace_out}", json.len());
        if perfetto {
            let doc = obs::export::trace_report_to_chrome(&telemetry.trace);
            let json = doc.to_compact_string() + "\n";
            std::fs::write(&perfetto_out, &json)?;
            eprintln!("wrote perfetto trace ({} bytes) to {perfetto_out}", json.len());
        }
        print_stage_summary(telemetry);
    }
    Ok(())
}

/// `patchdb profile`: a build with the span-path sampling profiler
/// attached; writes flamegraph.pl-compatible folded stacks and prints a
/// top-N self-time table.
fn cmd_profile(args: &[String]) -> CliResult {
    let mut seed = 42u64;
    let mut tiny = false;
    let mut synth = true;
    let mut hz = 97u64;
    let mut top = 10usize;
    let mut profile_out = "PROFILE_build.folded".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_num(value_after(&mut it, "--seed")?, "--seed")?,
            "--tiny" => tiny = true,
            "--no-synth" => synth = false,
            "--hz" => hz = parse_num(value_after(&mut it, "--hz")?, "--hz")?,
            "--top" => top = parse_num(value_after(&mut it, "--top")?, "--top")?,
            "--profile-out" => profile_out = value_after(&mut it, "--profile-out")?.clone(),
            other => return Err(Error::usage(format!("unknown flag {other}"))),
        }
    }
    let options = if tiny {
        BuildOptions::tiny(seed)
    } else {
        BuildOptions::default_scale(seed)
    }
    .synthesize(synth);

    // Spans must exist for the mirror to have paths to publish.
    obs::set_enabled(true);
    let sampler = obs::sampler::BackgroundSampler::start(hz);
    eprintln!(
        "profiling build at {hz} Hz (seed {seed}, ~{} commits)...",
        options.corpus.expected_commits()
    );
    let report = PatchDb::build(&options);
    let profile = sampler.stop();
    eprintln!("{}", report.db.stats());

    std::fs::write(&profile_out, profile.folded())?;
    println!(
        "{} samples at {} Hz over {} distinct span paths -> {profile_out}",
        profile.samples,
        profile.hz,
        profile.stacks.len()
    );
    println!("\ntop self-time frames (samples):");
    for (name, n) in profile.self_time_top(top) {
        let share = 100.0 * n as f64 / profile.samples.max(1) as f64;
        println!("  {n:>8}  {share:>5.1}%  {name}");
    }
    println!("\nrender: flamegraph.pl {profile_out} > flame.svg");
    Ok(())
}

/// Prints the five top-level stage timings plus the NLS pruning
/// efficiency — the human-readable view of TRACE_build.json.
fn print_stage_summary(telemetry: &BuildTelemetry) {
    let trace = &telemetry.trace;
    if let Some(build) = trace.find_span("build") {
        println!("\nbuild stages ({:.2}s total):", build.ns as f64 / 1e9);
        for stage in &build.children {
            println!("  {:<14} {:>8.1} ms", stage.name, stage.ns as f64 / 1e6);
        }
    }
    let evaluated = trace.counter("nls.dist_evaluated").unwrap_or(0);
    let skipped = trace.counter("nls.pruned_norm").unwrap_or(0)
        + trace.counter("nls.cells_skipped").unwrap_or(0);
    if evaluated + skipped > 0 {
        println!(
            "nls: {evaluated} distances evaluated, {skipped} skipped by index/norm bounds \
             ({:.1}% of comparisons avoided)",
            100.0 * skipped as f64 / (evaluated + skipped) as f64
        );
    }
}

fn load_db(path: &str) -> Result<PatchDb, Error> {
    let text = std::fs::read_to_string(path)?;
    PatchDb::from_json(&text)
}

fn with_db(args: &[String], f: fn(&PatchDb) -> CliResult) -> CliResult {
    let path = args.first().ok_or_else(|| Error::usage("expected a dataset JSON path"))?;
    f(&load_db(path)?)
}

fn cmd_stats(db: &PatchDb) -> CliResult {
    println!("{}", db.stats());
    let dist = PatchDb::category_distribution(db.security_patches());
    println!("\nground-truth category distribution (security patches):");
    for c in ALL_CATEGORIES {
        if let Some(p) = dist.get(&c) {
            println!("  {:>2}  {:<40} {:>5.1}%", c.type_id(), c.label(), 100.0 * p);
        }
    }
    Ok(())
}

fn cmd_classify(db: &PatchDb) -> CliResult {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut counts = [0usize; 12];
    for r in db.security_patches() {
        let predicted = classify_patch(&r.patch);
        counts[predicted.type_id() - 1] += 1;
        if let Some(truth) = r.truth_category {
            total += 1;
            hits += usize::from(predicted == truth);
        }
    }
    println!("rule-based classification of {} security patches:", db.security_patches().count());
    for c in ALL_CATEGORIES {
        println!("  {:>2}  {:<40} {:>6}", c.type_id(), c.label(), counts[c.type_id() - 1]);
    }
    if total > 0 {
        println!(
            "\nagreement with ground truth: {hits}/{total} = {:.1}%",
            100.0 * hits as f64 / total as f64
        );
    }
    Ok(())
}

fn cmd_patterns(db: &PatchDb) -> CliResult {
    let freqs = pattern_frequencies(db.security_patches().map(|r| &r.patch));
    println!("fix patterns across {} security patches:", db.security_patches().count());
    for (p, n) in freqs {
        println!("  {:>6}×  {}", n, p.label());
    }
    let nonsec_hits = db
        .non_security
        .iter()
        .filter(|r| !mine_fix_patterns(&r.patch).is_empty())
        .count();
    println!(
        "(control: {nonsec_hits}/{} non-security patches match any pattern)",
        db.non_security.len()
    );
    Ok(())
}

fn cmd_analyze(db: &PatchDb) -> CliResult {
    use patchdb_features::{rank_discriminative, FeatureSummary};
    let sec: Vec<_> = db.security_patches().map(|r| r.features).collect();
    let nonsec: Vec<_> = db.non_security.iter().map(|r| r.features).collect();
    if sec.is_empty() || nonsec.is_empty() {
        return Err(Error::Schema("dataset needs both classes for analysis".into()));
    }
    let ranked = rank_discriminative(&FeatureSummary::of(&sec), &FeatureSummary::of(&nonsec));
    println!("top discriminative Table I features (security vs non-security):");
    println!("{:<40} {:>8} {:>10} {:>10}", "feature", "effect", "sec mean", "nonsec");
    for d in ranked.iter().take(15) {
        println!(
            "{:<40} {:>8.2} {:>10.2} {:>10.2}",
            d.name, d.effect_size, d.mean_a, d.mean_b
        );
    }
    Ok(())
}

fn cmd_scan(args: &[String]) -> CliResult {
    let db_path = args.first().ok_or_else(|| Error::usage("expected a dataset JSON path"))?;
    let target_path = args.get(1).ok_or_else(|| Error::usage("expected a target .c file"))?;
    let db = load_db(db_path)?;
    let target = std::fs::read_to_string(target_path)?;

    let mut set = SignatureSet::builder();
    let mut owners = Vec::new();
    for record in db.security_patches() {
        for sig in signatures_of(&record.patch) {
            set.push(&sig.vulnerable, &sig.fixed);
            owners.push(record);
        }
    }
    let mut vulnerable = 0usize;
    let mut patched = 0usize;
    for (record, verdict) in owners.iter().zip(set.build().scan(&target).verdicts) {
        match verdict {
            PresenceVerdict::Vulnerable => {
                vulnerable += 1;
                println!(
                    "VULNERABLE clone of {} ({})",
                    record.patch.commit.short(),
                    record.cve_id.as_deref().unwrap_or("silent fix")
                );
            }
            PresenceVerdict::Patched => patched += 1,
            PresenceVerdict::NotApplicable => {}
        }
    }
    println!("\n{target_path}: {vulnerable} vulnerable-signature hits, {patched} patched-signature hits");
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut path: Option<&String> = None;
    let mut snapshot: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config = config.addr(value_after(&mut it, "--addr")?),
            "--snapshot" => {
                snapshot = Some(value_after(&mut it, "--snapshot")?.clone());
            }
            "--threads" => {
                config =
                    config.threads(parse_num(value_after(&mut it, "--threads")?, "--threads")?);
            }
            "--max-inflight" => {
                config = config.max_inflight(parse_num(
                    value_after(&mut it, "--max-inflight")?,
                    "--max-inflight",
                )?);
            }
            "--access-log" => {
                config = config.access_log(value_after(&mut it, "--access-log")?);
            }
            "--access-log-max-mb" => {
                config = config.access_log_max_mb(parse_num(
                    value_after(&mut it, "--access-log-max-mb")?,
                    "--access-log-max-mb",
                )?);
            }
            "--slow-ms" => {
                config =
                    config.slow_ms(parse_num(value_after(&mut it, "--slow-ms")?, "--slow-ms")?);
            }
            "--idle-timeout-ms" => {
                config = config.idle_timeout_ms(parse_num(
                    value_after(&mut it, "--idle-timeout-ms")?,
                    "--idle-timeout-ms",
                )?);
            }
            "--max-requests-per-conn" => {
                config = config.max_requests_per_conn(parse_num(
                    value_after(&mut it, "--max-requests-per-conn")?,
                    "--max-requests-per-conn",
                )?);
            }
            "--max-conns" => {
                config = config.max_conns(parse_num(
                    value_after(&mut it, "--max-conns")?,
                    "--max-conns",
                )?);
            }
            "--tsdb-retention-s" => {
                let text = value_after(&mut it, "--tsdb-retention-s")?;
                let secs: usize = parse_num(text, "--tsdb-retention-s")?;
                if secs > obs::tsdb::MAX_RETENTION_S {
                    return Err(Error::usage(format!(
                        "--tsdb-retention-s is at most {}, got `{text}`",
                        obs::tsdb::MAX_RETENTION_S
                    )));
                }
                config = config.tsdb_retention_s(secs);
            }
            "--slo-identify-p99-ms" => {
                config = config.slo_identify_p99_ms(parse_num(
                    value_after(&mut it, "--slo-identify-p99-ms")?,
                    "--slo-identify-p99-ms",
                )?);
            }
            "--slo-availability-pct" => {
                let text = value_after(&mut it, "--slo-availability-pct")?;
                let pct: f64 = parse_num(text, "--slo-availability-pct")?;
                if !pct.is_finite() {
                    return Err(Error::usage(format!(
                        "--slo-availability-pct needs a finite number, got `{text}`"
                    )));
                }
                config = config.slo_availability_pct(pct);
            }
            other if other.starts_with('-') => {
                return Err(Error::usage(format!("unknown flag {other}")));
            }
            _ if path.is_none() => path = Some(a),
            other => return Err(Error::usage(format!("unexpected operand `{other}`"))),
        }
    }
    // Boot source: a snapshot skips the learning pipeline entirely; a
    // dataset path runs it. Either becomes the reload source for
    // `POST /admin/reload` and SIGHUP.
    let index = match (&snapshot, path) {
        (Some(snap), _) => {
            eprintln!("loading snapshot {snap}...");
            let index = ServeIndex::load_snapshot(snap)?;
            config = config.reload_from(ReloadSource::Snapshot(snap.clone()));
            index
        }
        (None, Some(path)) => {
            eprintln!("loading {path}...");
            let db = load_db(path)?;
            eprintln!("indexing (weights + forest + signatures)...");
            let index = ServeIndex::build(db);
            config = config.reload_from(ReloadSource::Dataset(path.clone()));
            index
        }
        (None, None) => {
            return Err(Error::usage("expected a dataset JSON path or --snapshot"));
        }
    };
    eprintln!("{} signatures compiled; starting server", index.signature_count());
    let server = Server::start(index, &config)?;
    println!("listening on http://{} ({} workers)", server.addr(), server.workers());
    server.wait();
    Ok(())
}

/// `patchdb snapshot`: build the serve index once and persist it as a
/// binary snapshot file for instant `serve --snapshot` boots.
fn cmd_snapshot(args: &[String]) -> CliResult {
    let mut path: Option<&String> = None;
    let mut out = "patchdb.snapshot".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = value_after(&mut it, "--out")?.clone(),
            other if other.starts_with('-') => {
                return Err(Error::usage(format!("unknown flag {other}")));
            }
            _ if path.is_none() => path = Some(a),
            other => return Err(Error::usage(format!("unexpected operand `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| Error::usage("expected a dataset JSON path"))?;
    eprintln!("loading {path}...");
    let db = load_db(path)?;
    eprintln!("indexing (weights + forest + signatures)...");
    let index = ServeIndex::build(db);
    let encoded = Snapshot::encode(&index);
    encoded.write_to(&out)?;
    println!(
        "wrote {} bytes ({} signatures) to {out}",
        encoded.len(),
        index.signature_count()
    );
    Ok(())
}
