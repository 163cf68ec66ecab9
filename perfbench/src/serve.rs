//! The serve workloads: a `patchdb serve --snapshot` child process
//! driven over keep-alive HTTP by a closed-loop load generator in this
//! process.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use patch_core::Patch;
use patchdb::{BuildOptions, PatchDb};
use patchdb_corpus::GitHubForge;
use patchdb_features::extract;
use patchdb_rt::json::Json;
use patchdb_rt::par;
use patchdb_serve::client;
use patchdb_serve::{ServeIndex, Snapshot};

use crate::inputs::{self, DATASET_SEED};
use crate::load::{self, Outcome};
use crate::report::Report;
use crate::{build, fnv64, pinned_threads, procfs, stats, Args};

/// Which traffic the server gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/identify` of never-repeated diffs: every request misses the
    /// identify cache.
    Fresh,
    /// `/v1/identify` over a warmed hot set: every request hits it.
    Hot,
    /// `/v1/scan` of C files.
    Scan,
}

/// How the load is applied: server worker threads, client connections,
/// and requests each connection keeps in flight. All pinned.
struct Shape {
    workers: usize,
    conns: usize,
    depth: usize,
}

impl Kind {
    fn shape(self) -> Shape {
        let nproc = pinned_threads();
        match self {
            // One worker measured steadier than two. Sixteen requests in
            // flight per connection keep the worker busy while the
            // batcher sleeps out its window, so latency and rate follow
            // the worker's compute, not how late the window's timer wakes.
            Kind::Fresh => Shape {
                workers: 1,
                conns: nproc,
                depth: 16,
            },
            // Unpipelined cache hits leave every thread idle between
            // requests, and wake-up latency on the VM then swings the
            // rate threefold from run to run; eight in flight per
            // connection keep the loop busy.
            Kind::Hot => Shape {
                workers: 1,
                conns: nproc,
                depth: 8,
            },
            // Scan is CPU-bound in the workers: one per processor.
            Kind::Scan => Shape {
                workers: nproc,
                conns: nproc,
                depth: 1,
            },
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Fresh | Kind::Hot => "/v1/identify",
            Kind::Scan => "/v1/scan",
        }
    }
}

/// Server boots per run; `setup_s` is their median.
const BOOTS: usize = 5;
/// Untimed warm-up before the identify workloads' measured phase, in
/// whole passes.
const WARMUP_S: f64 = 1.0;
/// Identify requests per pass over fresh diffs.
const FRESH_PASS: usize = 1_000;
/// Fresh diffs generated per second of run time: a third above the
/// fastest measured rate (about 6,000 req/s), so a faster server still
/// never repeats a diff. If one ever runs the pool dry, the phase ends
/// early rather than repeat.
const FRESH_PER_SECOND: usize = 8_000;
/// The hot set: well under the server's 4,096-entry identify cache.
const HOT_SET: usize = 256;
/// C files per scan pass (about ten seconds of scanning).
const SCAN_FILES: usize = 12;
/// Commits in the workload forge of the hot and scan workloads.
const WORKLOAD_COMMITS: usize = 6_000;
/// Diffs in a traced run's identify probe.
const PROBE_DIFFS: usize = 1_000;
/// C files in a traced run's scan probe: one takes a second or two.
const PROBE_FILES: usize = 1;
/// Commits in the workload forge of the `build` workload's probes.
const PROBE_COMMITS: usize = 2_000;
/// How long a single request may stall before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `patchdb serve` child, killed and reaped on drop.
struct ServerChild {
    child: Child,
    /// Held open so the server's stdout never sees a broken pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    addr: SocketAddr,
    pid: String,
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ServerChild {
    /// Boots a server from `snapshot` and waits for its first `200` on
    /// `/healthz`; returns it with the boot time in seconds.
    fn boot(patchdb: &Path, snapshot: &Path, workers: usize) -> Result<(ServerChild, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(patchdb)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0", "--threads", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", patchdb.display()))?;
        let pid = child.id().to_string();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Owned from here on, so every early return kills the child.
        let mut server = ServerChild {
            child,
            _stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        // "listening on http://127.0.0.1:PORT (N workers)"
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        server._stdout = Some(stdout);
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not report its address (got {line:?})"))?;
        let health = client::request_timeout(server.addr, "GET", "/healthz", b"", REQUEST_TIMEOUT)
            .map_err(|e| format!("/healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn cpu_seconds(&self) -> Result<f64, String> {
        procfs::cpu_seconds(&self.pid).map_err(|e| format!("server CPU: {e}"))
    }

    /// One `/metrics` scrape as `series → value`, keyed by the exposition
    /// line's series text, e.g. `patchdb_counter{name="serve.accepted"}`.
    fn scrape(&self) -> Result<Metrics, String> {
        let reply = client::request_timeout(self.addr, "GET", "/metrics", b"", REQUEST_TIMEOUT)
            .map_err(|e| format!("/metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(Metrics(
            reply
                .body_text()
                .lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_owned(), value.parse().ok()?))
                })
                .collect(),
        ))
    }
}

/// A parsed `/metrics` scrape.
struct Metrics(HashMap<String, f64>);

impl Metrics {
    fn get(&self, family: &str, name: &str) -> f64 {
        self.0
            .get(&format!("patchdb_{family}{{name=\"{name}\"}}"))
            .copied()
            .unwrap_or(0.0)
    }
}

/// What a measured phase produced.
struct Phase {
    outcomes: Vec<Outcome>,
    /// Requests sent, including any that errored at the transport.
    attempted: usize,
    transport_errors: usize,
    passes: usize,
    wall_s: f64,
    server_cpu_s: f64,
    before: Metrics,
    after: Metrics,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_s * 1e3).collect()
    }
    fn delta(&self, family: &str, name: &str) -> f64 {
        self.after.get(family, name) - self.before.get(family, name)
    }
    /// Mean of a histogram over the phase, from its sum and count.
    fn hist_mean(&self, name: &str) -> f64 {
        self.delta("hist_sum", name) / self.delta("hist_count", name).max(1.0)
    }
}

/// Runs whole passes until `seconds` are spent (at least one pass);
/// `next_pass` yields the next pass's items, or `None` when the input is
/// exhausted.
fn measure(
    server: &ServerChild,
    path: &str,
    bodies: &[Vec<u8>],
    shape: &Shape,
    seconds: f64,
    next_pass: &mut dyn FnMut() -> Option<Vec<usize>>,
) -> Result<Phase, String> {
    let before = server.scrape()?;
    let cpu0 = server.cpu_seconds()?;
    let started = Instant::now();
    let (mut outcomes, mut attempted, mut transport_errors) = (Vec::new(), 0, 0);
    let mut passes = 0;
    while let Some(items) = next_pass() {
        let (done, errors) = load::drive(
            server.addr,
            path,
            bodies,
            &items,
            shape.conns,
            shape.depth,
            REQUEST_TIMEOUT,
        );
        passes += 1;
        attempted += items.len();
        transport_errors += errors;
        outcomes.extend(done);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let server_cpu_s = server.cpu_seconds()? - cpu0;
    // Request records land in the server's histograms as the loop
    // finishes each write; give the last ones a moment.
    std::thread::sleep(Duration::from_millis(50));
    let after = server.scrape()?;
    if attempted == 0 {
        return Err("the workload produced no requests".into());
    }
    Ok(Phase {
        outcomes,
        attempted,
        transport_errors,
        passes,
        wall_s,
        server_cpu_s,
        before,
        after,
    })
}

/// The snapshot every serve run boots from: a default-scale dataset
/// built and indexed by the code under test. Cached in the work
/// directory under a digest of this binary, so it is rebuilt whenever
/// the code changes.
fn dataset_snapshot(work: &Path) -> Result<PathBuf, String> {
    let exe = std::fs::read("/proc/self/exe").map_err(|e| format!("reading own binary: {e}"))?;
    let path = work.join(format!("dataset-{:016x}.snapshot", fnv64(&exe)));
    if !path.exists() {
        eprintln!("perfbench: building the default-scale dataset snapshot (once per build)");
        let options = BuildOptions::default_scale(DATASET_SEED).threads(pinned_threads());
        let index = ServeIndex::build(PatchDb::build(&options).db);
        let tmp = path.with_extension("tmp");
        index
            .save_snapshot(&tmp)
            .map_err(|e| format!("writing snapshot: {e}"))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("placing snapshot: {e}"))?;
        // Snapshots of earlier builds of the code are never read again.
        for entry in
            std::fs::read_dir(work).map_err(|e| format!("listing {}: {e}", work.display()))?
        {
            let stale = entry.map_err(|e| e.to_string())?.path();
            let name = stale.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("dataset-") && name.ends_with(".snapshot") && stale != path {
                std::fs::remove_file(&stale).map_err(|e| format!("removing {name}: {e}"))?;
            }
        }
    }
    Ok(path)
}

/// The in-process answer for one input, with the direct-call time of
/// each layer it passes through.
enum Expected {
    Identify {
        score: f64,
        parse_s: f64,
        extract_s: f64,
        score_s: f64,
    },
    Scan {
        vulnerable: usize,
        patched: usize,
        scan_s: f64,
    },
}

/// Computes what the server must answer for `body`, by calling the
/// layers directly on the same index. `None` when an identify body is
/// not a parsable diff (no reply to it can be right).
fn expect(index: &ServeIndex, kind: Kind, body: &[u8]) -> Option<Expected> {
    let text = std::str::from_utf8(body).ok()?;
    if kind == Kind::Scan {
        let t = Instant::now();
        let outcome = index.scan(text);
        return Some(Expected::Scan {
            vulnerable: outcome.matches.len(),
            patched: outcome.patched,
            scan_s: t.elapsed().as_secs_f64(),
        });
    }
    let t0 = Instant::now();
    let patch = Patch::parse(text).ok()?;
    let t1 = Instant::now();
    std::hint::black_box(extract(&patch, None));
    let t2 = Instant::now();
    let row = index.weighted_features(&patch);
    let t3 = Instant::now();
    let score = index.score_rows(std::slice::from_ref(&row))[0];
    let t4 = Instant::now();
    Some(Expected::Identify {
        score,
        parse_s: (t1 - t0).as_secs_f64(),
        extract_s: (t2 - t1).as_secs_f64(),
        score_s: (t4 - t3).as_secs_f64(),
    })
}

impl Expected {
    /// Seconds the direct calls spent in each layer: parse, extract,
    /// score, scan (zero for the layers the input does not pass).
    fn layer_s(&self) -> [f64; 4] {
        match *self {
            Expected::Identify {
                parse_s,
                extract_s,
                score_s,
                ..
            } => [parse_s, extract_s, score_s, 0.0],
            Expected::Scan { scan_s, .. } => [0.0, 0.0, 0.0, scan_s],
        }
    }
}

/// Whether a reply body carries exactly the expected answer: the same
/// score (and verdict) for identify, the same vulnerable and patched
/// counts for scan.
fn reply_ok(reply: &[u8], expected: &Expected) -> bool {
    let Ok(json) = Json::parse(&String::from_utf8_lossy(reply)) else {
        return false;
    };
    let num = |key: &str| json.get(key).and_then(Json::as_f64);
    match *expected {
        Expected::Identify { score, .. } => {
            num("score") == Some(score)
                && json.get("security").and_then(Json::as_bool) == Some(score >= 0.5)
        }
        Expected::Scan {
            vulnerable,
            patched,
            ..
        } => num("vulnerable") == Some(vulnerable as f64) && num("patched") == Some(patched as f64),
    }
}

/// Counts failed requests: those lost to transport errors, non-200
/// replies, and replies `ok` rejects.
fn count_failed(outcomes: &[Outcome], lost: usize, ok: &dyn Fn(&Outcome) -> bool) -> usize {
    lost + outcomes
        .iter()
        .filter(|o| o.status != 200 || !ok(o))
        .count()
}

/// A stretch of one endpoint's traffic, with the in-process answer to
/// every input it sent.
struct Window {
    kind: Kind,
    phase: Phase,
    expected: HashMap<usize, Expected>,
}

impl Window {
    /// Computes, on the pinned threads, the in-process answer to every
    /// input `phase` sent.
    fn new(phase: Phase, index: &ServeIndex, kind: Kind, bodies: &[Vec<u8>]) -> Window {
        let mut used: Vec<usize> = phase.outcomes.iter().map(|o| o.item).collect();
        used.sort_unstable();
        used.dedup();
        let expected = par::map_chunked(&used, pinned_threads(), |&item| {
            expect(index, kind, &bodies[item]).map(|e| (item, e))
        })
        .into_iter()
        .flatten()
        .collect();
        Window {
            kind,
            phase,
            expected,
        }
    }

    /// One pass of `kind` traffic over every input in `bodies`. Traced
    /// runs send it after their measured phase, to reach the layers
    /// their own traffic leaves out.
    fn probe(
        server: &ServerChild,
        index: &ServeIndex,
        kind: Kind,
        bodies: &[Vec<u8>],
    ) -> Result<Window, String> {
        let mut pass = Some((0..bodies.len()).collect());
        let phase = measure(server, kind.path(), bodies, &kind.shape(), 0.0, &mut || {
            pass.take()
        })?;
        Ok(Window::new(phase, index, kind, bodies))
    }

    /// Adds the window's requests to the run's attempted and failed
    /// operations.
    fn tally(&self, report: &mut Report) {
        let ok = |o: &Outcome| {
            self.expected
                .get(&o.item)
                .is_some_and(|e| reply_ok(&o.body, e))
        };
        report.attempted += self.phase.attempted as u64;
        report.failed +=
            count_failed(&self.phase.outcomes, self.phase.transport_errors, &ok) as u64;
    }

    fn hit_share(&self) -> f64 {
        self.phase.delta("counter", "serve.identify.cache_hits")
            / self
                .phase
                .delta("counter", "serve.identify.requests")
                .max(1.0)
    }

    /// Mean over the window's distinct inputs of the direct-call seconds
    /// `layer` picks from [`Expected::layer_s`].
    fn direct_s(&self, layer: impl Fn([f64; 4]) -> f64) -> f64 {
        let total: f64 = self.expected.values().map(|e| layer(e.layer_s())).sum();
        total / self.expected.len().max(1) as f64
    }

    /// Server CPU per completed request, minus what the same work costs
    /// called directly (cache hits compute nothing): the serving
    /// overhead, in seconds.
    fn overhead_s(&self) -> f64 {
        let cpu = self.phase.server_cpu_s / self.phase.outcomes.len().max(1) as f64;
        cpu - (1.0 - self.hit_share()) * self.direct_s(|l| l.iter().sum())
    }
}

pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    let snapshot = dataset_snapshot(&args.work)?;
    let read_started = Instant::now();
    let encoded = Snapshot::read_from(&snapshot).map_err(|e| format!("reading snapshot: {e}"))?;
    let decode_started = Instant::now();
    let index = encoded
        .decode()
        .map_err(|e| format!("decoding snapshot: {e}"))?;
    let decode_ms = decode_started.elapsed().as_secs_f64() * 1e3;
    let read_ms = (decode_started - read_started).as_secs_f64() * 1e3;
    drop(encoded);

    // Inputs, all from --seed.
    let fresh_diffs = ((args.seconds + WARMUP_S) * FRESH_PER_SECOND as f64) as usize;
    let commits = if kind == Kind::Fresh {
        fresh_diffs + fresh_diffs / 10
    } else {
        WORKLOAD_COMMITS
    };
    let forge = inputs::workload_forge(args.seed, commits);
    let bodies: Vec<Vec<u8>> = match kind {
        Kind::Fresh => inputs::distinct_diffs(&forge, fresh_diffs, pinned_threads()),
        Kind::Hot => inputs::distinct_diffs(&forge, HOT_SET, pinned_threads()),
        Kind::Scan => inputs::scan_files(&forge, args.seed, SCAN_FILES),
    }
    .into_iter()
    .map(String::into_bytes)
    .collect();
    // A traced run probes what its own traffic leaves out: identify
    // requests that miss the cache (the batcher's path), and scans.
    let probe_diffs = if args.trace && kind != Kind::Fresh {
        // Past the hot set, so that every probe diff misses the cache.
        probe_diffs(&forge, if kind == Kind::Hot { HOT_SET } else { 0 })
    } else {
        Vec::new()
    };
    let probe_files = if args.trace && kind != Kind::Scan {
        probe_files(&forge, args.seed)
    } else {
        Vec::new()
    };
    drop(forge);
    if kind == Kind::Scan {
        let tokens: usize = bodies
            .iter()
            .map(|b| clang_lite::tokenize(&String::from_utf8_lossy(b)).len())
            .sum();
        eprintln!(
            "perfbench: scan list of {} files, {tokens} tokens",
            bodies.len()
        );
    }
    let (path, shape) = (kind.path(), kind.shape());

    // Set-up: BOOTS rounds, each booting one server per pinned thread at
    // once and timed until the last answers /healthz (a single boot's
    // time depends on which of the VM's processors it landed on). The
    // first server of the last round serves the run.
    let mut setup_s = Vec::with_capacity(BOOTS);
    let mut servers = Vec::new();
    for _ in 0..BOOTS {
        servers.clear(); // the previous round exits before the next boots
        let booted: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..pinned_threads())
                .map(|_| s.spawn(|| ServerChild::boot(&args.patchdb, &snapshot, shape.workers)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("boot thread"))
                .collect()
        });
        let mut slowest = 0.0f64;
        for boot in booted {
            let (server, secs) = boot?;
            slowest = slowest.max(secs);
            servers.push(server);
        }
        setup_s.push(slowest);
    }
    servers.truncate(1);
    let server = servers.pop().expect("BOOTS > 0");

    // Each pass is a fixed list consumed in full: fresh passes walk the
    // never-repeated pool; hot and scan passes send their whole set.
    let mut fresh_cursor = 0;
    let mut next_pass = || -> Option<Vec<usize>> {
        match kind {
            Kind::Fresh => {
                let end = fresh_cursor + FRESH_PASS;
                (end <= bodies.len()).then(|| {
                    let items = (fresh_cursor..end).collect();
                    fresh_cursor = end;
                    items
                })
            }
            Kind::Hot | Kind::Scan => Some((0..bodies.len()).collect()),
        }
    };
    // Untimed warm-up in whole passes; hot's first pass fills the cache.
    if kind != Kind::Scan {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < WARMUP_S {
            let Some(items) = next_pass() else { break };
            load::drive(
                server.addr,
                path,
                &bodies,
                &items,
                shape.conns,
                shape.depth,
                REQUEST_TIMEOUT,
            );
        }
    }
    let phase = measure(&server, path, &bodies, &shape, args.seconds, &mut next_pass)?;
    let peak_rss_mb = procfs::peak_rss_mb(&server.pid).map_err(|e| format!("server RSS: {e}"))?;
    let fresh_probe = if probe_diffs.is_empty() {
        None
    } else {
        Some(Window::probe(&server, &index, Kind::Fresh, &probe_diffs)?)
    };
    let scan_probe = if probe_files.is_empty() {
        None
    } else {
        Some(Window::probe(&server, &index, Kind::Scan, &probe_files)?)
    };
    drop(server);

    // Output checks, against the same index computed in-process.
    let mut report = Report::default();
    let main = Window::new(phase, &index, kind, &bodies);
    drop(index);
    for window in [Some(&main), fresh_probe.as_ref(), scan_probe.as_ref()]
        .into_iter()
        .flatten()
    {
        window.tally(&mut report);
    }
    let share = main.hit_share();
    match kind {
        Kind::Fresh => report.check(share == 0.0, || {
            format!("fresh cache.hit_share {share} != 0")
        }),
        Kind::Hot => report.check(share >= 0.99, || {
            format!("hot cache.hit_share {share} < 0.99")
        }),
        Kind::Scan => {}
    }

    let phase = &main.phase;
    let lat = phase.latencies_ms();
    let (tail_ms, tail_pct) = stats::tail(&lat).unwrap_or((0.0, 0));
    eprintln!(
        "perfbench: {} requests in {} passes over {:.1} s; p50 {:.4} ms, p{tail_pct} {tail_ms:.4} ms",
        lat.len(),
        phase.passes,
        phase.wall_s,
        stats::median(&lat).unwrap_or(0.0),
    );
    if !args.trace {
        report.metric("setup_s", stats::median(&setup_s).unwrap(), "s");
        report.metric("p50_ms", stats::median(&lat).unwrap_or(0.0), "ms");
        report.metric(
            "cpu_ms_per_op",
            phase.server_cpu_s * 1e3 / phase.outcomes.len().max(1) as f64,
            "ms",
        );
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        return Ok(report);
    }

    report.metric("tail.latency_ms", tail_ms, "ms");
    report.metric("snapshot.read_ms", read_ms, "ms");
    report.metric("snapshot.decode_ms", decode_ms, "ms");
    serve_layers(
        &mut report,
        &main,
        fresh_probe.as_ref().unwrap_or(&main),
        scan_probe.as_ref().unwrap_or(&main),
    );
    // The replies are no longer needed; free them before the build.
    drop((main, fresh_probe, scan_probe));
    build::layer_probe(args, &mut report)?;
    Ok(report)
}

/// Diffs in a traced run's identify probe: the run's workload forge's
/// distinct diffs after the first `skip`, each sent once.
fn probe_diffs(forge: &GitHubForge, skip: usize) -> Vec<Vec<u8>> {
    inputs::distinct_diffs(forge, skip + PROBE_DIFFS, pinned_threads())
        .into_iter()
        .skip(skip)
        .map(String::into_bytes)
        .collect()
}

/// C files in a traced run's scan probe, from the run's workload forge.
fn probe_files(forge: &GitHubForge, seed: u64) -> Vec<Vec<u8>> {
    inputs::scan_files(forge, seed, PROBE_FILES)
        .into_iter()
        .map(String::into_bytes)
        .collect()
}

/// The serve-side per-layer metrics of the `build` workload: boots a
/// server from the snapshot the run built, sends it an identify probe
/// and a scan probe drawn from a workload forge of the run's seed, and
/// checks the replies against `index`, the same snapshot decoded.
pub fn layer_probe(
    args: &Args,
    snapshot: &Path,
    index: &ServeIndex,
    report: &mut Report,
) -> Result<(), String> {
    let forge = inputs::workload_forge(args.seed, PROBE_COMMITS);
    let (diffs, files) = (probe_diffs(&forge, 0), probe_files(&forge, args.seed));
    drop(forge);
    let (server, _) = ServerChild::boot(&args.patchdb, snapshot, Kind::Fresh.shape().workers)?;
    let fresh = Window::probe(&server, index, Kind::Fresh, &diffs)?;
    let scan = Window::probe(&server, index, Kind::Scan, &files)?;
    drop(server);
    fresh.tally(report);
    scan.tally(report);
    serve_layers(report, &fresh, &fresh, &scan);
    Ok(())
}

/// Records the serve-side per-layer metrics. `main` is the run's own
/// traffic; `fresh` is identify traffic that misses the cache, and
/// `scan` is scan traffic (either may be `main` itself). Stage times,
/// the loop's work share and the cache hit share are read over `main`.
/// The batcher only runs on identify misses, so its stage and batch
/// length are read over `fresh`, as are the direct parse, extract and
/// score calls. The serving overhead is read over identify traffic:
/// `main`, unless that is scan traffic, whose second-long computation
/// would bury it. The scan metrics are read over `scan`.
fn serve_layers(report: &mut Report, main: &Window, fresh: &Window, scan: &Window) {
    for stage in ["queue", "parse", "batch", "compute", "write"] {
        let window = if stage == "batch" { fresh } else { main };
        report.metric(
            &format!("serve.stage.{stage}_us"),
            window.phase.hist_mean(&format!("serve.stage.{stage}_ns")) / 1e3,
            "us",
        );
    }
    let work = main.phase.delta("hist_sum", "serve.loop.work_ns");
    let wait = main.phase.delta("hist_sum", "serve.loop.poll_wait_ns");
    report.metric(
        "serve.loop.work_share",
        work / (work + wait).max(1.0),
        "ratio",
    );
    report.metric("cache.hit_share", main.hit_share(), "ratio");
    let identify = if main.kind == Kind::Scan { fresh } else { main };
    report.metric("serve.overhead_us", identify.overhead_s() * 1e6, "us");
    let share = fresh.hit_share();
    report.check(share == 0.0, || {
        format!("cache-missing identify traffic hit the cache: share {share}")
    });
    report.metric(
        "serve.identify.batch_len",
        fresh.phase.hist_mean("serve.identify.batch_len"),
        "count",
    );
    report.metric("patch.parse_us", fresh.direct_s(|l| l[0]) * 1e6, "us");
    report.metric("features.extract_us", fresh.direct_s(|l| l[1]) * 1e6, "us");
    report.metric("ml.score_us", fresh.direct_s(|l| l[2]) * 1e6, "us");
    report.metric("signatures.scan_ms", scan.direct_s(|l| l[3]) * 1e3, "ms");
    report.metric(
        "serve.scan.signatures_tested",
        scan.phase.delta("counter", "serve.scan.signatures_tested")
            / scan.phase.delta("counter", "serve.scan.requests").max(1.0),
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(item: usize, status: u16, body: &str) -> Outcome {
        Outcome {
            item,
            status,
            body: body.as_bytes().to_vec(),
            latency_s: 0.001,
        }
    }

    #[test]
    fn identify_replies_must_carry_the_exact_score() {
        let e = Expected::Identify {
            score: 0.625,
            parse_s: 0.0,
            extract_s: 0.0,
            score_s: 0.0,
        };
        assert!(reply_ok(b"{\"score\":0.625,\"security\":true}\n", &e));
        assert!(!reply_ok(b"{\"score\":0.62500001,\"security\":true}\n", &e));
        assert!(!reply_ok(b"{\"score\":0.625,\"security\":false}\n", &e));
        assert!(!reply_ok(b"{\"security\":true}", &e));
        assert!(!reply_ok(b"not json", &e));
    }

    #[test]
    fn scan_replies_must_carry_the_expected_counts() {
        let e = Expected::Scan {
            vulnerable: 2,
            patched: 1,
            scan_s: 0.0,
        };
        assert!(reply_ok(
            b"{\"vulnerable\":2,\"patched\":1,\"matches\":[]}",
            &e
        ));
        assert!(!reply_ok(
            b"{\"vulnerable\":1,\"patched\":1,\"matches\":[]}",
            &e
        ));
        assert!(!reply_ok(
            b"{\"vulnerable\":2,\"patched\":0,\"matches\":[]}",
            &e
        ));
    }

    #[test]
    fn wrong_non_200_and_lost_requests_all_count_as_failed() {
        let e = Expected::Identify {
            score: 0.5,
            parse_s: 0.0,
            extract_s: 0.0,
            score_s: 0.0,
        };
        let ok = |o: &Outcome| reply_ok(&o.body, &e);
        let good = "{\"score\":0.5,\"security\":true}";
        let outcomes = vec![
            outcome(0, 200, good),
            outcome(1, 200, "{\"score\":0.25,\"security\":false}"), // wrong answer
            outcome(2, 503, good),                                  // right body, bad status
            outcome(3, 400, "{\"error\":{}}"),
            outcome(4, 200, good),
        ];
        assert_eq!(count_failed(&outcomes, 0, &ok), 3);
        assert_eq!(count_failed(&outcomes, 7, &ok), 10, "lost requests add up");
        assert_eq!(count_failed(&outcomes[..1], 0, &ok), 0);
    }

    #[test]
    fn metrics_scrape_lookup_by_family_and_name() {
        let m = Metrics(
            [("patchdb_counter{name=\"serve.accepted\"}".to_owned(), 12.0)]
                .into_iter()
                .collect(),
        );
        assert_eq!(m.get("counter", "serve.accepted"), 12.0);
        assert_eq!(m.get("counter", "serve.absent"), 0.0);
        assert_eq!(m.get("hist_sum", "serve.accepted"), 0.0);
    }
}
