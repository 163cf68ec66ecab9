//! Loopback load generation against `patchdb-serve`: boots a server over
//! a tiny built dataset at several worker-pool sizes and hammers
//! `/v1/identify` from concurrent client threads in three transport
//! modes — one connection per request (`close`), a persistent connection
//! per client (`keepalive`), and deep request pipelining (`pipelined`) —
//! reporting throughput and client-side latency quantiles per
//! configuration, written to `BENCH_serve.json` (schema
//! `patchdb-serve/v2`) at the repo root.
//!
//! Every response body is checked against a reference reply computed
//! once from a single-worker server: neither transport mode nor worker
//! count may change bytes.
//!
//! For the non-pipelined modes each configuration also scrapes the
//! server's own `/metrics` windowed quantiles (`serve.identify.total_ns`,
//! 60 s window) and cross-checks them against the exact client-side
//! quantiles: the server buckets into log2 histograms, so the two must
//! land within one bucket edge of each other — a live end-to-end check
//! that the telemetry pipeline measures the same reality the client
//! observes. (Under pipelining the client can only time whole batches,
//! so the per-request comparison is skipped.)
//!
//! After the worker/mode matrix, an observability pricing row reruns
//! the 8-worker keep-alive point under a live 97 Hz profile session
//! (which turns span mirroring on for its lifetime; the matrix itself
//! runs with no session). The session is switched live on one server
//! across adjacent short off/on drive pairs, and the reported overhead
//! is the median of the per-pair throughput ratios — adjacent pairs
//! cancel machine drift, the median discards load bursts — with the
//! introspection runtime's acceptance bar at <= 5%.
//!
//! A final lifecycle section times booting from a binary snapshot
//! against rerunning the build pipeline, then drives live
//! `/admin/reload` copy-on-write swaps under keep-alive traffic —
//! reporting the reload round-trip quantiles and requiring zero failed
//! (and byte-identical) requests across every swap.
//!
//! * `PATCHDB_BENCH_FAST=1` shrinks the request count for the CI smoke
//!   run (the JSON is still produced and must still parse).
//! * `PATCHDB_BENCH_SERVE_JSON=<path>` overrides the output location.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use patchdb::{BuildOptions, PatchDb};
use patchdb_rt::json::Json;
use patchdb_rt::obs;
use patchdb_serve::client::{self, Client};
use patchdb_serve::{ReloadSource, ServeConfig, ServeIndex, Server};

const CLIENT_THREADS: usize = 8;
/// Requests written back-to-back per batch in pipelined mode (the
/// server's read backpressure engages at 128).
const PIPELINE_DEPTH: usize = 64;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn fast_mode() -> bool {
    std::env::var_os("PATCHDB_BENCH_FAST").is_some()
}

/// What one drive produced: wall-clock seconds, sorted per-request
/// latencies (per-batch in pipelined mode), error count, and how many
/// TCP connections the clients opened.
struct Outcome {
    elapsed: f64,
    latencies: Vec<u64>,
    ok: usize,
    errors: usize,
    connections: usize,
}

fn finish(
    started: Instant,
    outcomes: Vec<(Vec<u64>, usize, usize, usize)>,
) -> Outcome {
    let elapsed = started.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let (mut ok, mut errors, mut connections) = (0, 0, 0);
    for (l, o, e, c) in outcomes {
        latencies.extend(l);
        ok += o;
        errors += e;
        connections += c;
    }
    latencies.sort_unstable();
    Outcome { elapsed, latencies, ok, errors, connections }
}

/// `close` mode: every request opens its own connection — the v1
/// protocol and the baseline the keep-alive speedup is measured against.
fn drive_close(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[Vec<u8>],
    total: usize,
) -> Outcome {
    let started = Instant::now();
    let per_thread = total.div_ceil(CLIENT_THREADS);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(per_thread);
                    let mut errors = 0usize;
                    for i in 0..per_thread {
                        let which = (t * per_thread + i) % bodies.len();
                        // Connect outside the request timer: the server's
                        // request clock starts at accept, so client-side
                        // connection setup would skew the drift check.
                        let Ok(mut conn) = Client::connect(addr, CLIENT_TIMEOUT) else {
                            errors += 1;
                            continue;
                        };
                        let sent = Instant::now();
                        match conn.send_close(
                            "POST",
                            "/v1/identify",
                            bodies[which].as_bytes(),
                        ) {
                            Ok(reply) if reply.status == 200 => {
                                assert_eq!(
                                    reply.body, expected[which],
                                    "close-mode reply diverged from reference"
                                );
                                latencies.push(sent.elapsed().as_nanos() as u64);
                            }
                            _ => errors += 1,
                        }
                    }
                    let ok = latencies.len();
                    (latencies, ok, errors, per_thread)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    finish(started, outcomes)
}

/// `keepalive` mode: one persistent connection per client thread,
/// reconnecting only on error.
fn drive_keepalive(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[Vec<u8>],
    total: usize,
) -> Outcome {
    let started = Instant::now();
    let per_thread = total.div_ceil(CLIENT_THREADS);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(per_thread);
                    let mut errors = 0usize;
                    let mut connections = 0usize;
                    let mut conn: Option<Client> = None;
                    for i in 0..per_thread {
                        let which = (t * per_thread + i) % bodies.len();
                        let ka = match conn.as_mut() {
                            Some(ka) => ka,
                            None => match Client::connect(addr, CLIENT_TIMEOUT) {
                                Ok(ka) => {
                                    connections += 1;
                                    conn.insert(ka)
                                }
                                Err(_) => {
                                    errors += 1;
                                    continue;
                                }
                            },
                        };
                        let sent = Instant::now();
                        match ka.send("POST", "/v1/identify", bodies[which].as_bytes()) {
                            Ok(reply) if reply.status == 200 => {
                                assert_eq!(
                                    reply.body, expected[which],
                                    "keep-alive reply diverged from reference"
                                );
                                latencies.push(sent.elapsed().as_nanos() as u64);
                            }
                            _ => {
                                errors += 1;
                                conn = None; // reconnect next iteration
                            }
                        }
                    }
                    let ok = latencies.len();
                    (latencies, ok, errors, connections)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    finish(started, outcomes)
}

/// `pipelined` mode: one persistent connection per client thread,
/// [`PIPELINE_DEPTH`] requests written before any response is read.
/// Latencies are per *batch* (the client cannot time individual
/// responses it has not asked for yet).
fn drive_pipelined(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[Vec<u8>],
    total: usize,
) -> Outcome {
    let started = Instant::now();
    let per_thread = total.div_ceil(CLIENT_THREADS);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut ok = 0usize;
                    let mut errors = 0usize;
                    let mut connections = 0usize;
                    let mut conn: Option<Client> = None;
                    let mut sent_total = 0usize;
                    while sent_total < per_thread {
                        let depth = PIPELINE_DEPTH.min(per_thread - sent_total);
                        let mut batch: Vec<(&str, &str, &[u8])> =
                            Vec::with_capacity(depth);
                        let mut indices = Vec::with_capacity(depth);
                        for i in 0..depth {
                            let which = (t * per_thread + sent_total + i) % bodies.len();
                            indices.push(which);
                            batch.push((
                                "POST",
                                "/v1/identify",
                                bodies[which].as_bytes(),
                            ));
                        }
                        sent_total += depth;
                        let ka = match conn.as_mut() {
                            Some(ka) => ka,
                            None => match Client::connect(addr, CLIENT_TIMEOUT) {
                                Ok(ka) => {
                                    connections += 1;
                                    conn.insert(ka)
                                }
                                Err(_) => {
                                    errors += depth;
                                    continue;
                                }
                            },
                        };
                        let sent = Instant::now();
                        match ka.pipeline(&batch) {
                            Ok(replies) => {
                                latencies.push(sent.elapsed().as_nanos() as u64);
                                for (reply, &which) in replies.iter().zip(&indices) {
                                    if reply.status == 200 {
                                        assert_eq!(
                                            reply.body, expected[which],
                                            "pipelined reply diverged from reference"
                                        );
                                        ok += 1;
                                    } else {
                                        errors += 1;
                                    }
                                }
                            }
                            Err(_) => {
                                errors += depth;
                                conn = None;
                            }
                        }
                    }
                    (latencies, ok, errors, connections)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    finish(started, outcomes)
}

/// Exact quantile of a sorted latency vector (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The log2 bucket a value falls into, mirroring `rt::obs::Hist`: bucket
/// 0 holds exact zeros, bucket k holds `[2^(k-1), 2^k)`.
fn log2_bucket(value: u64) -> i64 {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as i64
    }
}

/// Reads one 60 s windowed quantile for `name` off a `/metrics` scrape.
fn window_quantile(metrics: &str, name: &str, stat: &str) -> u64 {
    let prefix = format!("patchdb_window_{stat}{{name=\"{name}\",window_s=\"60\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no `{prefix}` line in /metrics:\n{metrics}"))
}

fn main() {
    let fast = fast_mode();

    eprintln!("building tiny dataset + identify request corpus...");
    let db = PatchDb::build(&BuildOptions::tiny(11).synthesize(false)).db;
    let bodies: Vec<String> = db
        .records()
        .take(64)
        .map(|r| r.patch.to_unified_string())
        .collect();
    assert!(!bodies.is_empty(), "tiny build produced no records");

    // Reference replies from a single-worker server: every mode at every
    // worker count must reproduce these bytes exactly.
    let reference = Server::start(
        ServeIndex::build(db.clone()),
        &ServeConfig::default().addr("127.0.0.1:0").threads(1),
    )
    .expect("reference server binds");
    let expected: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            let reply = client::request(
                reference.addr(),
                "POST",
                "/v1/identify",
                body.as_bytes(),
            )
            .expect("reference identify");
            assert_eq!(reply.status, 200, "{}", reply.body_text());
            reply.body
        })
        .collect();
    reference.shutdown();

    let mut results = Vec::new();
    for workers in [1usize, 4, 8] {
        for mode in ["close", "keepalive", "pipelined"] {
            // Per-connection setup dominates `close`; give the faster
            // modes enough requests for a stable measurement.
            let total = match (fast, mode) {
                (true, _) => 200,
                (false, "close") => 2_000,
                (false, _) => 12_000,
            };
            let index = ServeIndex::build(db.clone());
            // The admission queue must hold a full pipelined burst:
            // 8 client threads x 64-deep pipelines = 512 concurrent
            // requests, plus headroom.
            let config = ServeConfig::default()
                .addr("127.0.0.1:0")
                .threads(workers)
                .max_inflight(1024);
            let server = Server::start(index, &config).expect("server binds on loopback");
            let addr = server.addr();
            // Warm the path (thread spawn, first forest walk) off the
            // clock.
            let _ = client::request(addr, "POST", "/v1/identify", bodies[0].as_bytes());
            // The registry is process-global: clear the previous
            // configuration's windows (and the warm-up) so this scrape
            // reflects only this run.
            obs::reset();

            let outcome = match mode {
                "close" => drive_close(addr, &bodies, &expected, total),
                "keepalive" => drive_keepalive(addr, &bodies, &expected, total),
                _ => drive_pipelined(addr, &bodies, &expected, total),
            };
            let throughput = outcome.ok as f64 / outcome.elapsed.max(1e-9);
            let (p50, p99) =
                (quantile(&outcome.latencies, 0.50), quantile(&outcome.latencies, 0.99));

            // The server's own windowed view of the same burst, scraped
            // before shutdown while the 60 s window still covers it.
            let metrics = client::request(addr, "GET", "/metrics", b"")
                .expect("scrape /metrics")
                .body_text();
            let server_p50 = window_quantile(&metrics, "serve.identify.total_ns", "p50");
            let server_p99 = window_quantile(&metrics, "serve.identify.total_ns", "p99");
            if mode != "pipelined" {
                for (stat, exact, served) in
                    [("p50", p50, server_p50), ("p99", p99, server_p99)]
                {
                    // Below ~1 ms the fixed client-side overhead the
                    // server cannot see (write/read syscalls, scheduler
                    // wakeups under core contention) is comparable to
                    // the service time itself, so allow one extra
                    // bucket of slack there.
                    let tolerance = if exact.min(served) >= 1_000_000 { 1 } else { 2 };
                    let drift = (log2_bucket(exact) - log2_bucket(served)).abs();
                    assert!(
                        drift <= tolerance,
                        "[{mode}] windowed {stat} drifted {drift} log2 buckets from \
                         the exact client-side value (client {exact} ns vs server \
                         {served} ns)"
                    );
                }
            }
            println!(
                "workers {workers} [{mode:9}]: {} ok / {} err over {} conns in \
                 {:.2}s = {throughput:.0} req/s, p50 {:.2} ms, p99 {:.2} ms \
                 (server windowed p50 {:.2} ms, p99 {:.2} ms)",
                outcome.ok,
                outcome.errors,
                outcome.connections,
                outcome.elapsed,
                p50 as f64 / 1e6,
                p99 as f64 / 1e6,
                server_p50 as f64 / 1e6,
                server_p99 as f64 / 1e6
            );
            server.shutdown();

            results.push(Json::Obj(vec![
                ("workers".into(), Json::Num(workers as f64)),
                ("mode".into(), Json::Str(mode.into())),
                ("connections".into(), Json::Num(outcome.connections as f64)),
                ("requests".into(), Json::Num(outcome.ok as f64)),
                ("errors".into(), Json::Num(outcome.errors as f64)),
                ("throughput_rps".into(), Json::Num(throughput)),
                ("p50_ns".into(), Json::Num(p50 as f64)),
                ("p99_ns".into(), Json::Num(p99 as f64)),
                ("server_p50_ns".into(), Json::Num(server_p50 as f64)),
                ("server_p99_ns".into(), Json::Num(server_p99 as f64)),
            ]));
        }
    }

    // Observability pricing: the 8-worker keep-alive point under a live
    // 97 Hz profile session. The introspection runtime must pay its own
    // way: the acceptance bar is <= 5% throughput overhead.
    //
    // Methodology. This machine's throughput swings by double-digit
    // percent between back-to-back runs, so comparing two separately
    // booted servers cannot resolve a 5% bar — best-of-N over separate
    // servers was tried and still read noise. The sampler is
    // process-global and starts and stops live, so instead ONE server is
    // driven in adjacent short off/on drive pairs: drift on the scale of
    // seconds cancels within each ~100 ms pair, and the median of the
    // per-pair throughput ratios discards the bursts that hit a single
    // drive.
    let total = if fast { 200 } else { 3_000 };
    let pairs = if fast { 1 } else { 24 };
    let index = ServeIndex::build(db.clone());
    let config = ServeConfig::default().addr("127.0.0.1:0").threads(8).max_inflight(1024);
    let server = Server::start(index, &config).expect("server binds on loopback");
    let addr = server.addr();
    let _ = client::request(addr, "POST", "/v1/identify", bodies[0].as_bytes());
    let _ = drive_keepalive(addr, &bodies, &expected, total); // warm the caches
    let mut ratios = Vec::new();
    let mut latencies = Vec::new();
    let mut on_rps = Vec::new();
    let mut off_rps = Vec::new();
    let (mut ok, mut errors, mut connections, mut samples) = (0usize, 0usize, 0usize, 0u64);
    for _ in 0..pairs {
        let off = drive_keepalive(addr, &bodies, &expected, total);
        // The bench drives the server in-process, so a background
        // sampler started here walks the live worker and loop threads
        // exactly as `/debug/profile` on `patchdb serve` would.
        let sampler = obs::sampler::BackgroundSampler::start(97);
        let on = drive_keepalive(addr, &bodies, &expected, total);
        samples += sampler.stop().samples;
        let off_tput = off.ok as f64 / off.elapsed.max(1e-9);
        let on_tput = on.ok as f64 / on.elapsed.max(1e-9);
        ratios.push(on_tput / off_tput.max(1e-9));
        on_rps.push(on_tput);
        off_rps.push(off_tput);
        latencies.extend_from_slice(&on.latencies);
        ok += on.ok;
        errors += on.errors + off.errors;
        connections += on.connections;
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let overhead_pct = (1.0 - median(&mut ratios)) * 100.0;
    let throughput = median(&mut on_rps);
    let baseline = median(&mut off_rps);
    // Each drive returns its latencies sorted; the concatenation across
    // drives is not.
    latencies.sort_unstable();
    let (p50, p99) = (quantile(&latencies, 0.50), quantile(&latencies, 0.99));
    println!(
        "workers 8 [keepalive, sampler97]: median of {pairs} toggle pairs: \
         {ok} ok / {errors} err = {throughput:.0} req/s on, {baseline:.0} req/s off \
         ({overhead_pct:+.1}% median paired overhead), p50 {:.2} ms, p99 {:.2} ms, \
         {samples} profile samples",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
    );
    results.push(Json::Obj(vec![
        ("workers".into(), Json::Num(8.0)),
        ("mode".into(), Json::Str("keepalive".into())),
        ("obs".into(), Json::Str("sampler97".into())),
        ("connections".into(), Json::Num(connections as f64)),
        ("requests".into(), Json::Num(ok as f64)),
        ("errors".into(), Json::Num(errors as f64)),
        ("throughput_rps".into(), Json::Num(throughput)),
        ("p50_ns".into(), Json::Num(p50 as f64)),
        ("p99_ns".into(), Json::Num(p99 as f64)),
        ("baseline_rps".into(), Json::Num(baseline)),
        ("overhead_pct".into(), Json::Num(overhead_pct)),
        ("profile_samples".into(), Json::Num(samples as f64)),
    ]));
    server.shutdown();

    // Index lifecycle: how much boot time a binary snapshot saves over
    // rerunning the learning pipeline, and what a live copy-on-write
    // swap costs a client — the `/admin/reload` round trip (rebuild
    // from the snapshot + atomic swap) timed while keep-alive traffic
    // keeps hammering `/v1/identify`. Rebuilds are deterministic, so
    // the traffic thread still byte-checks every reply against the
    // reference across generations.
    let snap_path = std::env::temp_dir()
        .join(format!("patchdb_bench_{}.snapshot", std::process::id()));
    // Boot-from-build mirrors `patchdb serve FILE`: parse the dataset
    // JSON, then run the full indexing pass (weights, forest,
    // signatures). Boot-from-snapshot replaces all of that with one
    // decode.
    let json_path = std::env::temp_dir()
        .join(format!("patchdb_bench_{}.json", std::process::id()));
    std::fs::write(&json_path, db.to_json().expect("dataset serializes"))
        .expect("dataset written");
    let build_started = Instant::now();
    let text = std::fs::read_to_string(&json_path).expect("dataset reads");
    let lifecycle_index =
        ServeIndex::build(PatchDb::from_json(&text).expect("dataset parses"));
    let boot_build_ns = build_started.elapsed().as_nanos() as u64;
    std::fs::remove_file(&json_path).ok();
    lifecycle_index.save_snapshot(&snap_path).expect("snapshot written");
    let snapshot_bytes = std::fs::metadata(&snap_path).expect("snapshot stat").len();
    let load_started = Instant::now();
    let booted = ServeIndex::load_snapshot(&snap_path).expect("snapshot loads");
    let boot_snapshot_ns = load_started.elapsed().as_nanos() as u64;
    drop(lifecycle_index);

    let swaps = if fast { 3 } else { 16 };
    let server = Server::start(
        booted,
        &ServeConfig::default()
            .addr("127.0.0.1:0")
            .threads(4)
            .reload_from(ReloadSource::Snapshot(snap_path.display().to_string())),
    )
    .expect("lifecycle server binds");
    let addr = server.addr();
    let _ = client::request(addr, "POST", "/v1/identify", bodies[0].as_bytes());

    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut swap_ns = Vec::with_capacity(swaps);
    let traffic_errors = std::thread::scope(|scope| {
        let traffic = scope.spawn(|| {
            let mut errors = 0usize;
            let mut served = 0usize;
            let mut conn: Option<Client> = None;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let which = served % bodies.len();
                let ka = match conn.as_mut() {
                    Some(ka) => ka,
                    None => match Client::connect(addr, CLIENT_TIMEOUT) {
                        Ok(ka) => conn.insert(ka),
                        Err(_) => {
                            errors += 1;
                            continue;
                        }
                    },
                };
                match ka.send("POST", "/v1/identify", bodies[which].as_bytes()) {
                    Ok(reply) if reply.status == 200 => {
                        assert_eq!(
                            reply.body, expected[which],
                            "identify reply diverged across a swap"
                        );
                    }
                    _ => {
                        errors += 1;
                        conn = None;
                    }
                }
                served += 1;
            }
            errors
        });
        for _ in 0..swaps {
            let sent = Instant::now();
            let reply =
                client::request(addr, "POST", "/admin/reload", b"").expect("reload");
            assert_eq!(reply.status, 200, "reload failed: {}", reply.body_text());
            swap_ns.push(sent.elapsed().as_nanos() as u64);
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        traffic.join().unwrap()
    });
    assert_eq!(traffic_errors, 0, "traffic failed during a copy-on-write swap");
    let health = client::request(addr, "GET", "/healthz", b"").expect("healthz");
    assert!(
        health.body_text().starts_with(&format!("ok gen={} up=", swaps + 1)),
        "every reload must bump the served generation: {}",
        health.body_text()
    );
    server.shutdown();
    std::fs::remove_file(&snap_path).ok();

    swap_ns.sort_unstable();
    let (swap_p50, swap_p99) = (quantile(&swap_ns, 0.50), quantile(&swap_ns, 0.99));
    println!(
        "lifecycle: boot from build {:.1} ms, boot from snapshot {:.1} ms \
         ({:.1}x faster, {snapshot_bytes} bytes on disk); {swaps} live swaps \
         under traffic, reload p50 {:.2} ms, p99 {:.2} ms, 0 failed requests",
        boot_build_ns as f64 / 1e6,
        boot_snapshot_ns as f64 / 1e6,
        boot_build_ns as f64 / boot_snapshot_ns.max(1) as f64,
        swap_p50 as f64 / 1e6,
        swap_p99 as f64 / 1e6,
    );
    let lifecycle = Json::Obj(vec![
        ("boot_build_ns".into(), Json::Num(boot_build_ns as f64)),
        ("boot_snapshot_ns".into(), Json::Num(boot_snapshot_ns as f64)),
        ("snapshot_bytes".into(), Json::Num(snapshot_bytes as f64)),
        ("swaps".into(), Json::Num(swaps as f64)),
        ("swap_p50_ns".into(), Json::Num(swap_p50 as f64)),
        ("swap_p99_ns".into(), Json::Num(swap_p99 as f64)),
        ("traffic_errors".into(), Json::Num(traffic_errors as f64)),
    ]);

    let json = Json::Obj(vec![
        ("schema".into(), Json::Str("patchdb-serve/v2".into())),
        ("fast_mode".into(), Json::Bool(fast)),
        ("client_threads".into(), Json::Num(CLIENT_THREADS as f64)),
        ("pipeline_depth".into(), Json::Num(PIPELINE_DEPTH as f64)),
        ("lifecycle".into(), lifecycle),
        ("results".into(), Json::Arr(results)),
    ]);
    let path = std::env::var("PATCHDB_BENCH_SERVE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_owned()
    });
    std::fs::write(&path, json.to_pretty_string() + "\n").expect("write BENCH_serve.json");
    println!("wrote {path}");
}
