//! Loopback integration tests of `patchdb-serve`: endpoint round-trips,
//! 503 backpressure at the connection cap, keep-alive reuse and its
//! caps (idle timeout, per-connection request limit), pipelined
//! ordering, adversarial wire framing (trickle, oversized headers,
//! half-close, mid-pipeline hangup), a 10k-idle-connection soak,
//! graceful-drain shutdown, metrics monotonicity, request-scoped
//! telemetry (stage clocks, debug rings, access log), failure-mode
//! classification, worker-count/transport-mode determinism, and the
//! tracing surface (X-Patchdb id headers, /debug/trace lookup, the
//! time-series store, and the SLO engine).
//!
//! The tiny dataset is built exactly once, before any server starts:
//! `PatchDb::build` resets the global `rt::obs` registry when tracing is
//! enabled, and `Server::start` enables tracing — a build racing a live
//! server would wipe its counters mid-test.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use patchdb::prelude::*;
use patchdb_rt::json::Json;
use patchdb_rt::obs::sampler;
use patchdb_serve::client::{self, Client};
use patchdb_serve::{ReloadSource, ServeConfig, ServeIndex, Server};

fn shared_db() -> &'static PatchDb {
    static DB: OnceLock<PatchDb> = OnceLock::new();
    DB.get_or_init(|| PatchDb::build(&BuildOptions::tiny(17).synthesize(false)).db)
}

fn start(config: ServeConfig) -> Server {
    Server::start(ServeIndex::build(shared_db().clone()), &config).expect("server binds")
}

fn ephemeral() -> ServeConfig {
    ServeConfig::default().addr("127.0.0.1:0")
}

/// The body of a real record as an identify/classify request.
fn diff_body(record: &PatchRecord) -> String {
    record.patch.to_unified_string()
}

#[test]
fn endpoints_round_trip_on_loopback() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    let db = shared_db();

    let health = client::request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.body_text().starts_with("ok gen=1 up="),
        "healthz body: {}",
        health.body_text()
    );

    let stats = client::request(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    let stats_json = Json::parse(&stats.body_text()).expect("stats is JSON");
    assert_eq!(
        stats_json.get("nvd_security").and_then(Json::as_f64),
        Some(db.stats().nvd_security as f64)
    );

    let record = db.nvd.first().expect("tiny build has NVD records");
    let body = diff_body(record);

    let identify = client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap();
    assert_eq!(identify.status, 200, "{}", identify.body_text());
    let identify_json = Json::parse(&identify.body_text()).unwrap();
    let score = identify_json.get("score").and_then(Json::as_f64).expect("score field");
    assert!((0.0..=1.0).contains(&score));
    assert_eq!(
        identify_json.get("security").and_then(Json::as_bool),
        Some(score >= 0.5)
    );

    let classify = client::request(addr, "POST", "/v1/classify", body.as_bytes()).unwrap();
    assert_eq!(classify.status, 200);
    let classify_json = Json::parse(&classify.body_text()).unwrap();
    assert!(classify_json.get("type_id").and_then(Json::as_f64).is_some());
    assert!(classify_json.get("label").and_then(Json::as_str).is_some());

    let scan =
        client::request(addr, "POST", "/v1/scan", b"void unrelated(void) { }\n").unwrap();
    assert_eq!(scan.status, 200);
    let scan_json = Json::parse(&scan.body_text()).unwrap();
    assert!(scan_json.get("matches").is_some());

    let hex = record.patch.commit.to_string();
    let patch = client::request(addr, "GET", &format!("/v1/patch/{}", &hex[..12]), b"").unwrap();
    assert_eq!(patch.status, 200);
    let patch_json = Json::parse(&patch.body_text()).unwrap();
    assert_eq!(patch_json.get("commit").and_then(Json::as_str), Some(hex.as_str()));

    // Error paths: unknown route, wrong method, unparseable body.
    assert_eq!(client::request(addr, "GET", "/v1/nope", b"").unwrap().status, 404);
    assert_eq!(client::request(addr, "GET", "/v1/identify", b"").unwrap().status, 405);
    assert_eq!(
        client::request(addr, "POST", "/v1/identify", b"not a diff").unwrap().status,
        400
    );

    server.shutdown();
}

/// A connection that has been accepted but sends no bytes. With the
/// event loop a silent connection costs no worker — it just occupies a
/// connection slot.
fn stall(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    stream
}

#[test]
fn connection_cap_sheds_with_503() {
    // Bumps `serve.rejected_503`, which the admission-shed test reads
    // exactly.
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(1).max_conns(2).deadline_ms(30_000));
    let addr = server.addr();

    // Two idle connections fill the cap; the third is answered 503 at
    // accept — without the server reading a single request byte.
    let hog_a = stall(addr);
    let hog_b = stall(addr);

    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = Vec::new();
    shed.read_to_end(&mut raw).expect("read the shed response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503"), "expected 503, got: {text}");
    assert!(text.contains("Retry-After:"), "503 lacks Retry-After: {text}");
    assert!(text.contains("Connection: close"), "shed must close: {text}");

    // Freeing a slot restores service on a fresh connection (give the
    // loop a beat to collect the EOF before reconnecting).
    drop(hog_a);
    std::thread::sleep(Duration::from_millis(200));
    let health = client::request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);

    drop(hog_b);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    let server = start(ephemeral().threads(1).max_inflight(4).deadline_ms(30_000));
    let addr = server.addr();

    // `held` is in the worker (reading, no bytes yet); `queued` has a
    // complete request already admitted behind it.
    let mut held = stall(addr);
    let mut queued = TcpStream::connect(addr).unwrap();
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // Complete the held request after shutdown began: it was admitted,
    // so it must still be answered, and so must the queued one.
    held.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    for (name, mut stream) in [("held", held), ("queued", queued)] {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap_or_else(|e| panic!("{name}: {e}"));
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 200") && text.contains("ok gen=1 up="),
            "{name} was not drained: {text}"
        );
    }
    shutdown.join().expect("shutdown thread");
}

#[test]
fn metrics_accumulate_monotonically() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();

    let accepted = |body: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix("patchdb_counter{name=\"serve.accepted\"} "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("serve.accepted counter in /metrics")
    };
    let before_body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    let before = accepted(&before_body);
    for _ in 0..5 {
        assert_eq!(client::request(addr, "GET", "/healthz", b"").unwrap().status, 200);
    }
    let after_body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    let after = accepted(&after_body);
    // The registry is process-global, so concurrent tests may add more —
    // but counters never go down, and our five requests are in there.
    assert!(after >= before + 5, "accepted went {before} -> {after}");
    assert!(
        after_body.contains("patchdb_hist_p99{name=\"serve.healthz.ns\"}"),
        "healthz latency histogram missing:\n{after_body}"
    );
    server.shutdown();
}

/// Reads one `patchdb_counter` value off a `/metrics` scrape; a counter
/// that has never been touched is 0.
fn counter_in(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("patchdb_counter{{name=\"{name}\"}} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Polls `/metrics` until `name` reaches at least `want` (the registry
/// is updated by worker threads we cannot join from here).
fn await_counter(addr: std::net::SocketAddr, name: &str, want: u64) -> u64 {
    let mut last = 0;
    for _ in 0..100 {
        let body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
        last = counter_in(&body, name);
        if last >= want {
            return last;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    last
}

#[test]
fn deadline_and_disconnect_classify_separately() {
    // Short deadline so a stalled reader trips it quickly; the registry
    // is process-global, so assert on deltas, not absolutes.
    let server = start(ephemeral().threads(2).deadline_ms(300));
    let addr = server.addr();
    let before_body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    let before_deadline = counter_in(&before_body, "serve.deadline_expired");
    let before_read = counter_in(&before_body, "serve.read_failed");

    // Slow loris: a partial request line, then silence. The read
    // deadline fires and the server hangs up without a response.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /heal").unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = Vec::new();
    loris.read_to_end(&mut raw).expect("server closes the lorised socket");
    assert!(raw.is_empty(), "a deadline-expired read got a response: {raw:?}");

    // Disconnector: a partial request, then a clean hangup mid-header.
    let mut gone = TcpStream::connect(addr).unwrap();
    gone.write_all(b"POST /v1/identify HTTP/1.1\r\nContent-Le").unwrap();
    drop(gone);

    let deadline = await_counter(addr, "serve.deadline_expired", before_deadline + 1);
    let read = await_counter(addr, "serve.read_failed", before_read + 1);
    assert!(
        deadline >= before_deadline + 1,
        "deadline_expired stuck at {deadline} (started {before_deadline})"
    );
    assert!(
        read >= before_read + 1,
        "read_failed stuck at {read} (started {before_read})"
    );
    server.shutdown();
}

#[test]
fn metrics_report_windows_and_gauges_under_load() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    for _ in 0..8 {
        assert_eq!(client::request(addr, "GET", "/healthz", b"").unwrap().status, 200);
    }
    let body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();

    // Windowed quantiles over the trailing 60 s cover the burst we just
    // sent (the registry is global, so counts only grow).
    let count_60 = body
        .lines()
        .find_map(|l| {
            l.strip_prefix(
                "patchdb_window_count{name=\"serve.request.total_ns\",window_s=\"60\"} ",
            )
        })
        .and_then(|v| v.parse::<u64>().ok())
        .expect("windowed request count in /metrics");
    assert!(count_60 >= 8, "60s window count {count_60} misses the burst");
    for line in [
        "patchdb_window_p50{name=\"serve.request.total_ns\",window_s=\"60\"}",
        "patchdb_window_p99{name=\"serve.request.total_ns\",window_s=\"60\"}",
        "patchdb_window_rate{name=\"serve.request.total_ns\",window_s=\"1\"}",
        "patchdb_window_p99{name=\"serve.healthz.total_ns\",window_s=\"10\"}",
    ] {
        assert!(body.lines().any(|l| l.starts_with(line)), "missing {line}:\n{body}");
    }

    // The scrape itself is in flight while the snapshot is taken, so the
    // live gauge must show at least this one request.
    let inflight = body
        .lines()
        .find_map(|l| l.strip_prefix("patchdb_gauge{name=\"serve.inflight\"} "))
        .and_then(|v| v.parse::<i64>().ok())
        .expect("serve.inflight gauge in /metrics");
    assert!(inflight >= 1, "scrape saw inflight {inflight}");
    assert!(
        body.lines().any(|l| l.starts_with("patchdb_gauge{name=\"serve.queue_depth\"} ")),
        "queue_depth gauge missing:\n{body}"
    );
    // The scrape's own connection is open while the snapshot is taken.
    let open_conns = body
        .lines()
        .find_map(|l| l.strip_prefix("patchdb_gauge{name=\"serve.open_conns\"} "))
        .and_then(|v| v.parse::<i64>().ok())
        .expect("serve.open_conns gauge in /metrics");
    assert!(open_conns >= 1, "scrape saw open_conns {open_conns}");
    server.shutdown();
}

#[test]
fn debug_requests_expose_ids_and_stages() {
    // slow_ms(0) makes every request a slow exemplar, so /debug/slow has
    // content without needing an artificially slow endpoint. One worker
    // keeps ring order identical to admission order.
    let server = start(ephemeral().threads(1).slow_ms(0));
    let addr = server.addr();
    let record = shared_db().nvd.first().expect("tiny build has NVD records");
    for _ in 0..3 {
        assert_eq!(client::request(addr, "GET", "/healthz", b"").unwrap().status, 200);
    }
    let body = diff_body(record);
    assert_eq!(
        client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap().status,
        200
    );

    let debug = client::request(addr, "GET", "/debug/requests", b"").unwrap();
    assert_eq!(debug.status, 200);
    let json = Json::parse(&debug.body_text()).expect("/debug/requests is JSON");
    let requests = json.get("requests").and_then(Json::as_arr).expect("requests array");
    assert_eq!(requests.len(), 4, "{}", debug.body_text());
    assert_eq!(json.get("dropped").and_then(Json::as_f64), Some(0.0));

    let mut last_id = 0.0;
    for request in requests {
        let id = request.get("id").and_then(Json::as_f64).expect("request id");
        assert!(id > last_id, "ids not strictly increasing: {id} after {last_id}");
        last_id = id;
        let total = request.get("total_ns").and_then(Json::as_f64).expect("total_ns");
        let mut stage_sum = 0.0;
        for stage in
            ["accept_ns", "queue_ns", "parse_ns", "batch_ns", "compute_ns", "write_ns"]
        {
            let v = request.get(stage).and_then(Json::as_f64);
            stage_sum += v.unwrap_or_else(|| panic!("missing stage {stage}"));
        }
        assert!(
            stage_sum <= total,
            "stages sum to {stage_sum} > total {total}"
        );
        assert_eq!(request.get("status").and_then(Json::as_f64), Some(200.0));
    }
    // The identify request banked its forest pass as the batch stage.
    let identify = requests.last().unwrap();
    assert_eq!(identify.get("endpoint").and_then(Json::as_str), Some("identify"));
    assert!(identify.get("batch_ns").and_then(Json::as_f64).unwrap() > 0.0);

    // `?n=` caps the returned tail; the ring itself is untouched.
    let tail = client::request(addr, "GET", "/debug/requests?n=2", b"").unwrap();
    let tail_json = Json::parse(&tail.body_text()).unwrap();
    assert_eq!(tail_json.get("requests").and_then(Json::as_arr).unwrap().len(), 2);

    // Every request beat the 0 ms threshold, so /debug/slow saw them too.
    let slow = client::request(addr, "GET", "/debug/slow", b"").unwrap();
    assert_eq!(slow.status, 200);
    let slow_json = Json::parse(&slow.body_text()).unwrap();
    assert!(!slow_json.get("requests").and_then(Json::as_arr).unwrap().is_empty());

    assert_eq!(client::request(addr, "POST", "/debug/requests", b"").unwrap().status, 405);
    assert_eq!(client::request(addr, "POST", "/debug/slow", b"").unwrap().status, 405);
    server.shutdown();
}

#[test]
fn responses_identical_at_1_and_8_workers() {
    let one = start(ephemeral().threads(1));
    let eight = start(ephemeral().threads(8));
    // A third server with the full telemetry surface switched on: the
    // access log and exemplar capture must never change response bytes.
    let log_path = std::env::temp_dir()
        .join(format!("patchdb_access_{}.jsonl", std::process::id()));
    let logged = start(
        ephemeral()
            .threads(8)
            .slow_ms(0)
            .access_log(log_path.display().to_string()),
    );
    let db = shared_db();

    let mut requests: Vec<(&str, String, Vec<u8>)> =
        vec![("GET", "/v1/stats".into(), Vec::new())];
    for record in db.records().take(12) {
        requests.push(("POST", "/v1/identify".into(), diff_body(record).into_bytes()));
        requests.push(("POST", "/v1/classify".into(), diff_body(record).into_bytes()));
        requests.push((
            "GET",
            format!("/v1/patch/{}", record.patch.commit),
            Vec::new(),
        ));
    }
    // Transport must not change bytes either: drive every server over
    // (1) one-shot `Connection: close` requests, (2) a persistent
    // keep-alive connection, then (3) one fully pipelined batch.
    let timeout = Duration::from_secs(30);
    let mut ka_one = Client::connect(one.addr(), timeout).unwrap();
    let mut ka_eight = Client::connect(eight.addr(), timeout).unwrap();
    let mut ka_logged = Client::connect(logged.addr(), timeout).unwrap();
    let mut close_replies = Vec::new();
    for (method, path, body) in &requests {
        let a = client::request(one.addr(), method, path, body).unwrap();
        let b = client::request(eight.addr(), method, path, body).unwrap();
        let c = client::request(logged.addr(), method, path, body).unwrap();
        assert_eq!(a.status, b.status, "{method} {path}");
        assert_eq!(
            a.body_text(),
            b.body_text(),
            "{method} {path} differs across worker counts"
        );
        assert_eq!((a.status, a.body_text()), (c.status, c.body_text()),
            "{method} {path} differs with the access log enabled");
        for (name, ka) in
            [("one", &mut ka_one), ("eight", &mut ka_eight), ("logged", &mut ka_logged)]
        {
            let k = ka.send(method, path, body).unwrap();
            assert_eq!(
                (k.status, &k.body),
                (a.status, &a.body),
                "{method} {path} differs on keep-alive ({name})"
            );
        }
        close_replies.push(a);
    }
    let batch: Vec<(&str, &str, &[u8])> =
        requests.iter().map(|(m, p, b)| (*m, p.as_str(), b.as_slice())).collect();
    for (name, server) in [("one", &one), ("eight", &eight), ("logged", &logged)] {
        let mut pipe = Client::connect(server.addr(), timeout).unwrap();
        let replies = pipe.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), close_replies.len(), "pipeline reply count ({name})");
        for ((reply, expect), (method, path, _)) in
            replies.iter().zip(&close_replies).zip(&requests)
        {
            assert_eq!(
                (reply.status, &reply.body),
                (expect.status, &expect.body),
                "{method} {path} differs when pipelined ({name})"
            );
        }
    }

    // The debug endpoints carry wall-clock timings, so bytes differ by
    // construction; what must be worker-count independent is what was
    // served: the multiset of (method, path, status) triples.
    let projection = |server: &Server| -> Vec<(String, String, f64)> {
        let reply =
            client::request(server.addr(), "GET", "/debug/requests?n=999", b"").unwrap();
        assert_eq!(reply.status, 200);
        let json = Json::parse(&reply.body_text()).unwrap();
        let mut triples: Vec<(String, String, f64)> = json
            .get("requests")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.get("method").and_then(Json::as_str).unwrap().to_owned(),
                    r.get("path").and_then(Json::as_str).unwrap().to_owned(),
                    r.get("status").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        triples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        triples
    };
    // One projection per server: a second scrape would see the first
    // debug request itself in the ring.
    let (p_one, p_eight, p_logged) =
        (projection(&one), projection(&eight), projection(&logged));
    assert_eq!(p_one, p_eight, "served work differs across workers");
    assert_eq!(p_one, p_logged, "served work differs when logged");
    for server in [&one, &eight, &logged] {
        assert_eq!(
            client::request(server.addr(), "GET", "/debug/slow", b"").unwrap().status,
            200
        );
    }

    one.shutdown();
    eight.shutdown();
    logged.shutdown(); // joins the workers: every access-log line is flushed

    // The log saw every request: the driven list once per transport
    // mode plus our two debug reads, each line JSON with the id and
    // stage fields, timestamps non-decreasing in file order.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3 * requests.len() + 2, "access log line count");
    let mut last_ts = 0.0;
    let mut ids = std::collections::BTreeSet::new();
    for line in &lines {
        let json = Json::parse(line).expect("access-log line is JSON");
        let ts = json.get("ts_ms").and_then(Json::as_f64).expect("ts_ms");
        assert!(ts >= last_ts, "timestamps regressed: {ts} after {last_ts}");
        last_ts = ts;
        assert!(
            ids.insert(json.get("id").and_then(Json::as_f64).unwrap() as u64),
            "duplicate request id in access log"
        );
        assert!(json.get("compute_ns").and_then(Json::as_f64).is_some());
    }
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn keep_alive_reuses_one_connection_and_honors_the_request_cap() {
    let server = start(ephemeral().threads(2).max_requests_per_conn(3));
    let addr = server.addr();

    let mut ka = Client::connect(addr, Duration::from_secs(10)).unwrap();
    for _ in 0..3 {
        let reply = ka.send("GET", "/healthz", b"").unwrap();
        assert_eq!(reply.status, 200);
        assert!(reply.body_text().starts_with("ok gen=1 up="), "{}", reply.body_text());
    }
    // The third response carried `Connection: close` and the server hung
    // up; a fourth exchange on the same socket must fail.
    let refused = ka.send("GET", "/healthz", b"");
    assert!(refused.is_err(), "request over the per-conn cap got: {refused:?}");

    // An uncapped server keeps answering on one socket indefinitely.
    let open = start(ephemeral().threads(2));
    let mut ka = Client::connect(open.addr(), Duration::from_secs(10)).unwrap();
    for i in 0..32 {
        let reply = ka.send("GET", "/healthz", b"").unwrap();
        assert_eq!(reply.status, 200, "keep-alive request #{i}");
    }
    drop(ka);
    open.shutdown();
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_time_out() {
    let server = start(ephemeral().threads(1).idle_timeout_ms(200));
    let addr = server.addr();
    let before_body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    let before = counter_in(&before_body, "serve.idle_closed");

    let mut ka = Client::connect(addr, Duration::from_secs(10)).unwrap();
    assert_eq!(ka.send("GET", "/healthz", b"").unwrap().status, 200);
    // Sit idle for several timeout periods (plus wheel-tick slack): the
    // server reaps the connection and the next exchange fails.
    std::thread::sleep(Duration::from_millis(800));
    let reaped = ka.send("GET", "/healthz", b"");
    assert!(reaped.is_err(), "idle-timed-out connection got: {reaped:?}");

    let after = await_counter(addr, "serve.idle_closed", before + 1);
    assert!(after >= before + 1, "idle_closed stuck at {after} (started {before})");
    server.shutdown();
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let server = start(ephemeral().threads(8));
    let addr = server.addr();
    let record = shared_db().nvd.first().expect("tiny build has NVD records");
    let body = diff_body(record).into_bytes();
    let hex = record.patch.commit.to_string();
    let patch_path = format!("/v1/patch/{}", &hex[..12]);
    let batch: Vec<(&str, &str, &[u8])> = vec![
        ("GET", "/healthz", b""),
        ("GET", "/v1/stats", b""),
        ("GET", "/v1/nope", b""),
        ("POST", "/v1/classify", &body),
        ("GET", patch_path.as_str(), b""),
        ("GET", "/healthz", b""),
    ];

    // Ground truth one request at a time, then the whole batch written
    // before any response is read: same bytes, same order.
    let expected: Vec<_> = batch
        .iter()
        .map(|(m, p, b)| client::request(addr, m, p, b).unwrap())
        .collect();
    assert_eq!(expected[2].status, 404, "probe batch lost its 404");
    let mut pipe = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let got = pipe.pipeline(&batch).unwrap();
    assert_eq!(got.len(), expected.len());
    for (i, (reply, expect)) in got.iter().zip(&expected).enumerate() {
        let (method, path, _) = batch[i];
        assert_eq!(
            (reply.status, &reply.body),
            (expect.status, &expect.body),
            "pipelined reply #{i} ({method} {path}) out of order or altered"
        );
    }
    drop(pipe);
    server.shutdown();
}

/// Reads one framed response: its status line, echoed trace id and
/// body.
fn read_traced_reply(reader: &mut impl BufRead) -> std::io::Result<(String, String, Vec<u8>)> {
    let mut status = String::new();
    reader.read_line(&mut status)?;
    let (mut length, mut trace) = (0usize, String::new());
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (key, value) = line.split_once(": ").expect("header line");
        match key.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse().unwrap(),
            "x-patchdb-trace-id" => trace = value.to_owned(),
            _ => {}
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status.trim_end().to_owned(), trace, body))
}

/// One request carrying `trace` as its client trace id, as wire bytes.
fn traced_request(method: &str, path: &str, trace: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: x\r\nX-Patchdb-Trace-Id: {trace}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Writes `n` copies of one request in a single write, each carrying
/// its index as the client trace id, and only then reads: every answer
/// must arrive, in order (the echoed ids pin it), with `expected` as
/// its body, within five seconds. A `lead` GET path goes first and must
/// answer `200`.
fn assert_burst_answered(
    addr: std::net::SocketAddr,
    lead: Option<&str>,
    (method, path, body): (&str, &str, &[u8]),
    n: usize,
    expected: &[u8],
) {
    let mut burst = Vec::new();
    if let Some(lead) = lead {
        burst.extend(traced_request("GET", lead, "burst-lead", b""));
    }
    for i in 0..n {
        burst.extend(traced_request(method, path, &format!("burst-{i}"), body));
    }
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(8))).unwrap();
    stream.write_all(&burst).unwrap();

    let mut reader = BufReader::new(stream);
    if let Some(lead) = lead {
        let (status, trace, _) = read_traced_reply(&mut reader).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "{lead}: {status:?}");
        assert_eq!(trace, "burst-lead");
    }
    for i in 0..n {
        let (status, trace, got) = read_traced_reply(&mut reader).unwrap_or_else(|e| {
            panic!("{path} response #{i}: {e} after {:?}", started.elapsed())
        });
        assert!(status.starts_with("HTTP/1.1 200"), "{path} response #{i}: {status:?}");
        assert_eq!(trace, format!("burst-{i}"), "{path} response #{i} out of order");
        assert_eq!(got, expected, "{path} response #{i} body");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{n} × {path} took {:?}",
        started.elapsed()
    );
}

#[test]
fn pipelined_burst_deeper_than_the_cap_is_answered_in_full() {
    // Runs a profile session.
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    let expected = client::request(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!(expected.status, 200);

    // 200 requests in one write, past the loop's 128-deep pipelining
    // cap: the ones framed after the cap lifts must not wait for a
    // readable event that never comes.
    assert_burst_answered(addr, None, ("GET", "/v1/stats", b""), 200, &expected.body);

    // 1,000 copies of one cached identify body behind a one-second
    // profile: the loop answers each hit at admission, but they park
    // behind the profile until the cap stops framing. Once the profile
    // answers, every hit framed as the cap lifts is staged behind the
    // write that lifted it, never written from inside it (`write_ready`
    // asserts it is not re-entered), so the burst costs no recursion.
    let body = shared_db()
        .records()
        .map(diff_body)
        .min_by_key(String::len)
        .expect("tiny build has records");
    let miss = client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap();
    assert_eq!(miss.status, 200);
    let lead = Some("/debug/profile?seconds=1&hz=97");
    let hits = ("POST", "/v1/identify", body.as_bytes());
    assert_burst_answered(addr, lead, hits, 1000, &miss.body);
    server.shutdown();
}

#[test]
fn pipelined_identify_misses_and_hits_answer_in_request_order() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    let bodies: Vec<String> = shared_db().nvd.iter().take(4).map(diff_body).collect();
    let (hot, cold) = bodies.split_at(2);
    let warmed: Vec<Vec<u8>> = hot
        .iter()
        .map(|b| client::request(addr, "POST", "/v1/identify", b.as_bytes()).unwrap().body)
        .collect();

    // A miss, hits, a miss, hits on one connection in one write: the
    // hits answer at admission while each miss is still at a worker,
    // yet every response must come back in request order.
    let order = [(&cold[0], false), (&hot[0], true), (&hot[1], true), (&cold[1], false)];
    let order = [&order[..], &[(&hot[1], true), (&hot[0], true)]].concat();
    let mut wire = Vec::new();
    for (i, (body, _)) in order.iter().enumerate() {
        wire.extend(traced_request("POST", "/v1/identify", &format!("mixed-{i}"), body.as_bytes()));
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&wire).unwrap();
    let mut reader = BufReader::new(stream);
    let replies: Vec<_> =
        (0..order.len()).map(|_| read_traced_reply(&mut reader).unwrap()).collect();

    for (i, ((body, hit), (status, trace, got))) in order.iter().zip(&replies).enumerate() {
        assert!(status.starts_with("HTTP/1.1 200"), "reply #{i}: {status}");
        assert_eq!(trace, &format!("mixed-{i}"), "reply #{i} out of order");
        let want = match hot.iter().position(|h| h == *body) {
            Some(k) => warmed[k].clone(),
            None => client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap().body,
        };
        assert_eq!(got, &want, "reply #{i} body");
        let record = client::request(addr, "GET", &format!("/debug/trace/mixed-{i}"), b"").unwrap();
        let json = Json::parse(&record.body_text()).expect("/debug/trace is JSON");
        let cache = json.get("request").and_then(|r| r.get("cache")).and_then(Json::as_str);
        assert_eq!(cache, Some(if *hit { "hit" } else { "miss" }), "reply #{i}");
    }
    server.shutdown();
}

#[test]
fn identify_cache_hits_never_wait_for_the_worker() {
    // Runs a profile session.
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(1));
    let addr = server.addr();
    let body = diff_body(shared_db().nvd.first().expect("tiny build has NVD records"));
    let miss = client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap();
    assert_eq!(miss.status, 200);

    // The profile holds the only worker for three seconds, yet the
    // cached body is answered at once, byte for byte.
    let profiler = profile_in_background(addr, 3, 97);
    assert!(await_mirroring(), "the profile never started");
    let asked = Instant::now();
    let (status, _, hit) = raw_exchange(
        addr,
        "POST",
        "/v1/identify",
        &[("X-Patchdb-Trace-Id", "it-hit-1")],
        body.as_bytes(),
    );
    let waited = asked.elapsed();
    assert!(waited < Duration::from_millis(1500), "the hit waited {waited:?} for the worker");
    assert!(status.contains("200"), "{status}");
    assert_eq!(hit, miss.body, "a hit answers the miss's bytes");
    assert_eq!(profiler.join().unwrap().expect("profile scrape").status, 200);

    let reply = client::request(addr, "GET", "/debug/trace/it-hit-1", b"").unwrap();
    let json = Json::parse(&reply.body_text()).expect("/debug/trace is JSON");
    let request = json.get("request").expect("embedded request record");
    assert_eq!(request.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(request.get("queue_ns").and_then(Json::as_f64), Some(0.0));
    assert_eq!(request.get("endpoint").and_then(Json::as_str), Some("identify"));
    server.shutdown();
}

#[test]
fn half_closed_pipeline_still_gets_all_responses() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();

    // Three pipelined requests, then FIN on the write side: the server
    // must answer all three before closing its end.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("responses after half-close");
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 200 OK").count(),
        3,
        "half-closed pipeline answered: {text}"
    );
    assert_eq!(text.matches("ok gen=1 up=").count(), 3, "{text}");
    server.shutdown();
}

/// A `patchdb serve` child process booted from a snapshot of the shared
/// tiny dataset. Its `/metrics` counters and gauges live in its own
/// process, so they count this test's traffic and nothing else. Killed
/// on drop.
struct ChildServer {
    child: std::process::Child,
    addr: std::net::SocketAddr,
    snapshot: std::path::PathBuf,
}

impl ChildServer {
    fn start(name: &str) -> ChildServer {
        let snapshot = std::env::temp_dir()
            .join(format!("patchdb_child_{name}_{}.snapshot", std::process::id()));
        ServeIndex::build(shared_db().clone()).save_snapshot(&snapshot).expect("snapshot written");
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_patchdb"))
            .args(["serve", "--snapshot", snapshot.to_str().unwrap()])
            .args(["--addr", "127.0.0.1:0", "--threads", "2"])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn patchdb serve");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
        let addr = line
            .strip_prefix("listening on http://")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("patchdb serve printed {line:?}"));
        ChildServer { child, addr, snapshot }
    }

    fn metrics(&self) -> String {
        client::request(self.addr, "GET", "/metrics", b"").unwrap().body_text()
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.snapshot);
    }
}

#[test]
fn nothing_is_framed_past_a_connection_close_request() {
    let server = ChildServer::start("close_after");
    let before = server.metrics();

    // Two requests buffered behind `Connection: close` in the same
    // write: the connection ends with the first answer, so the two must
    // never run (RFC 9112 §9.6).
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec();
    wire.extend(b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n".repeat(2));
    stream.write_all(&wire).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("one response, then EOF");
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
    assert!(text.starts_with("HTTP/1.1 200 OK") && text.contains("\r\n\r\nok gen=1"), "{text}");

    let after = server.metrics();
    assert_eq!(
        counter_in(&after, "serve.write_failed"),
        counter_in(&before, "serve.write_failed"),
        "responses were thrown away"
    );
    // The `/healthz` answer and the first scrape's own: the stats
    // requests never ran.
    let ok = counter_in(&after, "serve.status.200") - counter_in(&before, "serve.status.200");
    assert_eq!(ok, 2, "serve.status.200 counted requests past the close");
}

#[test]
fn bytes_trailing_a_close_request_never_start_a_deadline() {
    // Runs a profile session.
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(1).deadline_ms(200));

    // A one-second profile that closes the connection, trailed by half
    // a request in the same write. The trailing bytes are discarded,
    // not timed as a partial request: the profile is answered in full
    // although it outlives the 200 ms deadline.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(
            b"GET /debug/profile?seconds=1&hz=97 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n\
              GET /heal",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("the profile, then EOF");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
    server.shutdown();
}

/// Response bytes with every server-assigned request id masked: the one
/// header that differs between two sends of the same request.
fn mask_request_ids(raw: &[u8]) -> String {
    String::from_utf8_lossy(raw)
        .split("\r\n")
        .map(|line| match line.strip_prefix("X-Patchdb-Request-Id: ") {
            Some(_) => "X-Patchdb-Request-Id: _",
            None => line,
        })
        .collect::<Vec<_>>()
        .join("\r\n")
}

/// One gathered write carries responses of every kind, up to the
/// close-after one, byte for byte as they come one at a time. (Short
/// gathered writes are covered in `event_loop`'s unit tests: loopback
/// send buffers are sized to megabytes when a connection opens, so
/// 128 responses of a few kilobytes never come back short here.)
#[test]
fn mixed_pipeline_ending_in_close_matches_one_by_one_bytes() {
    let server = ChildServer::start("mixed_close");
    let addr = server.addr;
    let bodies: Vec<String> = shared_db().records().take(8).map(diff_body).collect();
    let (hot, cold) = bodies.split_at(4);
    for body in hot {
        client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap();
    }
    let hex = shared_db().nvd[0].patch.commit.to_string();
    let patch = format!("/v1/patch/{}", &hex[..12]);

    // 128 requests: identify hits answered on the loop, misses, stats
    // and patch lookups answered by workers; the last one closes the
    // connection.
    let mut wire = Vec::new();
    for i in 0..128 {
        let (method, path, body) = match i % 4 {
            0 => ("POST", "/v1/identify", hot[i / 4 % hot.len()].as_bytes()),
            1 => ("GET", "/v1/stats", &b""[..]),
            2 => ("POST", "/v1/identify", cold[i / 4 % cold.len()].as_bytes()),
            _ => ("GET", patch.as_str(), &b""[..]),
        };
        let close = if i == 127 { "Connection: close\r\n" } else { "" };
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nX-Patchdb-Trace-Id: mixed-{i}\r\n{close}\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        wire.push(request);
    }

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(&wire.concat()).unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("128 responses, then EOF");

    // The same requests one at a time on one connection.
    let mut one_by_one = TcpStream::connect(addr).unwrap();
    one_by_one.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(one_by_one.try_clone().unwrap());
    let mut expected = Vec::new();
    for request in &wire {
        one_by_one.write_all(request).unwrap();
        let mut length = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            expected.extend_from_slice(line.as_bytes());
            if let Some(value) = line.strip_prefix("Content-Length: ") {
                length = value.trim_end().parse().unwrap();
            }
            if line == "\r\n" {
                break;
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        expected.extend_from_slice(&body);
    }
    assert_eq!(mask_request_ids(&got), mask_request_ids(&expected), "pipelined bytes differ");

    // Every connection closed and every request finished: the scrape
    // itself is the one open connection and the one request in flight.
    let mut metrics = server.metrics();
    for _ in 0..100 {
        if gauge_in(&metrics, "serve.open_conns") == Some(1)
            && gauge_in(&metrics, "serve.inflight") == Some(1)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        metrics = server.metrics();
    }
    assert_eq!(gauge_in(&metrics, "serve.open_conns"), Some(1), "a connection leaked");
    assert_eq!(gauge_in(&metrics, "serve.inflight"), Some(1), "a request never finished");
    assert_eq!(counter_in(&metrics, "serve.write_failed"), 0);
}

#[test]
fn oversized_header_flood_answers_431() {
    let server = start(ephemeral().threads(1));
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Fill the header budget exactly (no terminator), let the server
    // drain it, then push it over the line. Two phases keep the server's
    // receive queue empty at close time, so the 431 is not lost to RST.
    let flood = vec![b'A'; 16 * 1024];
    stream.write_all(&flood).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(b"AAAA").unwrap();

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break, // RST after the response bytes is acceptable
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 431"), "expected 431, got: {text}");
    assert!(text.contains("Connection: close"), "431 must close: {text}");
    server.shutdown();
}

#[test]
fn trickled_request_bytes_still_complete() {
    let server = start(ephemeral().threads(1));
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();
    // One byte per segment: the incremental parser reassembles without
    // a worker ever seeing the partial request.
    for byte in b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("trickled request answered");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "trickle got: {text}");
    assert!(text.contains("ok gen=1 up="), "trickle body: {text}");
    server.shutdown();
}

#[test]
fn mid_pipeline_hangup_leaves_the_server_healthy() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();

    // Two pipelined requests, then an immediate hangup without reading a
    // byte. The server must absorb the dead connection without leaking
    // its in-flight work.
    let mut rude = TcpStream::connect(addr).unwrap();
    rude.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    .unwrap();
    drop(rude);
    std::thread::sleep(Duration::from_millis(200));

    let health = client::request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_text().starts_with("ok gen=1 up="), "{}", health.body_text());
    server.shutdown();
}

/// Resident-set size of this process in kilobytes.
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")
                    .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Polls `/metrics` until the `serve.open_conns` gauge drops to at most
/// `want`.
fn await_open_conns_at_most(addr: std::net::SocketAddr, want: i64) -> i64 {
    let mut last = i64::MAX;
    for _ in 0..200 {
        let body = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
        last = body
            .lines()
            .find_map(|l| l.strip_prefix("patchdb_gauge{name=\"serve.open_conns\"} "))
            .and_then(|v| v.parse().ok())
            .unwrap_or(i64::MAX);
        if last <= want {
            return last;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

#[test]
fn ten_thousand_idle_connections_stay_responsive() {
    let server = start(
        ephemeral().threads(1).max_conns(10_240).idle_timeout_ms(120_000),
    );
    let addr = server.addr();
    let rss_before = vm_rss_kb();

    // The held client-side sockets live in a child process so their file
    // descriptors count against the child's RLIMIT_NOFILE, not ours
    // (this process already holds the 10k server-side ends).
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_patchdb-idle-conns"))
        .arg(addr.to_string())
        .arg("10000")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn the connection holder");
    let mut holder_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    holder_out.read_line(&mut line).expect("holder reports");
    assert_eq!(line.trim(), "HELD 10000", "holder failed: {line}");

    // With 10k idle connections held open, the server must still answer
    // promptly and account for every one of them.
    let t0 = Instant::now();
    let health =
        client::request_timeout(addr, "GET", "/healthz", b"", Duration::from_secs(10))
            .expect("/healthz under 10k idle conns");
    assert_eq!(health.status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "/healthz took {:?} under idle load",
        t0.elapsed()
    );
    let metrics =
        client::request_timeout(addr, "GET", "/metrics", b"", Duration::from_secs(10))
            .expect("/metrics under 10k idle conns")
            .body_text();
    let open = metrics
        .lines()
        .find_map(|l| l.strip_prefix("patchdb_gauge{name=\"serve.open_conns\"} "))
        .and_then(|v| v.parse::<i64>().ok())
        .expect("open_conns gauge");
    assert!(open >= 10_000, "open_conns reported {open} with 10k held");

    // Per-connection state is a parser buffer and some bookkeeping —
    // 10k idle connections must not cost hundreds of megabytes.
    let rss_after = vm_rss_kb();
    let delta_kb = rss_after.saturating_sub(rss_before);
    assert!(
        delta_kb < 256 * 1024,
        "10k idle conns grew RSS by {delta_kb} kB ({rss_before} -> {rss_after})"
    );

    // Closing the child's stdin releases all 10k at once; the loop reaps
    // them before shutdown so the drain has nothing to wait for.
    drop(child.stdin.take());
    child.wait().expect("holder exits");
    let open = await_open_conns_at_most(addr, 8);
    assert!(open <= 8, "connections not reaped after holder exit: {open}");
    server.shutdown();
}

/// One raw `Connection: close` exchange split into status line, lowered
/// header pairs, and body bytes. The `client` helper frames responses by
/// `Content-Length`, which a HEAD reply (full `Content-Length`, empty
/// body) would desync — so HEAD tests read the raw close-mode stream.
fn raw_close(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
) -> (String, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read close-mode response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status = lines.next().expect("status line").to_string();
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(": ").unwrap_or_else(|| panic!("bad header {l:?}"));
            (k.to_ascii_lowercase(), v.to_string())
        })
        .collect();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], key: &str) -> &'a str {
    headers
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v.as_str()))
        .unwrap_or_else(|| panic!("no {key} header in {headers:?}"))
}

#[test]
fn head_mirrors_get_headers_with_an_empty_body() {
    let server = start(ephemeral().threads(2));
    let addr = server.addr();

    // Stable endpoints: HEAD must carry the GET entity's exact headers.
    for path in ["/healthz", "/v1/stats"] {
        let (g_status, g_headers, g_body) = raw_close(addr, "GET", path);
        let (h_status, h_headers, h_body) = raw_close(addr, "HEAD", path);
        assert_eq!(g_status, h_status, "{path}");
        assert!(h_body.is_empty(), "HEAD {path} carried a body");
        assert_eq!(
            header(&h_headers, "content-length"),
            g_body.len().to_string(),
            "HEAD {path} Content-Length must describe the GET entity"
        );
        assert_eq!(
            header(&g_headers, "content-type"),
            header(&h_headers, "content-type"),
            "{path}"
        );
    }

    // Live endpoints change length between exchanges; assert the shape.
    for path in ["/metrics", "/debug/requests"] {
        let (status, headers, body) = raw_close(addr, "HEAD", path);
        assert!(status.starts_with("HTTP/1.1 200"), "HEAD {path}: {status}");
        assert!(body.is_empty(), "HEAD {path} carried a body");
        let len: usize = header(&headers, "content-length").parse().unwrap();
        assert!(len > 0, "HEAD {path} advertised an empty entity");
    }

    // Content types: Prometheus exposition for /metrics, JSON for debug.
    let (_, metrics_headers, _) = raw_close(addr, "GET", "/metrics");
    assert_eq!(header(&metrics_headers, "content-type"), "text/plain; version=0.0.4");
    for path in ["/debug/requests", "/debug/slow"] {
        let (_, headers, _) = raw_close(addr, "GET", path);
        assert_eq!(header(&headers, "content-type"), "application/json", "{path}");
    }
    // `/debug/flight` is not served.
    let (status, _, _) = raw_close(addr, "GET", "/debug/flight");
    assert!(status.starts_with("HTTP/1.1 404"), "GET /debug/flight: {status}");

    // HEAD routes like GET, so a POST-only endpoint answers 405.
    let (status, _, _) = raw_close(addr, "HEAD", "/v1/identify");
    assert!(status.starts_with("HTTP/1.1 405"), "HEAD /v1/identify: {status}");
    server.shutdown();
}

/// Reads one `patchdb_gauge` value off a `/metrics` scrape.
fn gauge_in(body: &str, name: &str) -> Option<i64> {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("patchdb_gauge{{name=\"{name}\"}} ")))
        .and_then(|v| v.parse().ok())
}

#[test]
fn identify_cache_and_batch_gauges_are_exported() {
    // Index swaps (exercised by the reload test) zero the cache gauges;
    // serialize so a concurrent swap cannot race this test's scrape.
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    let record = shared_db().nvd.first().expect("tiny build has NVD records");
    let body = diff_body(record);
    assert_eq!(
        client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap().status,
        200
    );

    let metrics = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    let entries = gauge_in(&metrics, "serve.identify.cache_entries")
        .expect("cache_entries gauge after an identify");
    assert!(entries >= 1, "cache_entries = {entries} after a cached identify");
    let bytes = gauge_in(&metrics, "serve.identify.cache_bytes")
        .expect("cache_bytes gauge after an identify");
    assert!(bytes >= 1, "cache_bytes = {bytes} after a cached identify");
    server.shutdown();
}

/// Process-global observability state — profile sessions (which turn
/// span mirroring on for every server in the process), counters a test
/// reads exactly, and the index swaps that zero the cache gauges — is
/// serialized here, so a live profile or a swap starting mid-test
/// cannot skew another test.
fn obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Waits up to ten seconds for a profile session to open; returns
/// whether one did.
fn await_mirroring() -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sampler::mirroring() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Starts a `/debug/profile` scrape of `seconds` on its own thread.
fn profile_in_background(
    addr: std::net::SocketAddr,
    seconds: u64,
    hz: u64,
) -> std::thread::JoinHandle<std::io::Result<client::HttpReply>> {
    std::thread::spawn(move || {
        client::request_timeout(
            addr,
            "GET",
            &format!("/debug/profile?seconds={seconds}&hz={hz}"),
            b"",
            Duration::from_secs(15),
        )
    })
}

#[test]
fn debug_profile_round_trip() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    let body = diff_body(shared_db().nvd.first().expect("tiny build has NVD records"));

    // Mirroring belongs to a running profile, not to the server.
    assert_eq!(client::request(addr, "POST", "/v1/identify", body.as_bytes()).unwrap().status, 200);
    assert!(!sampler::mirroring(), "a server with no profile running mirrors span paths");

    // An on-demand profile blocks one worker for a second while a client
    // keeps the loop and the other worker busy with classify requests
    // (repeated identify bodies would answer from the cache on the loop
    // and leave the worker idle).
    let done = AtomicBool::new(false);
    let (mirrored, profile, served) = std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            let mut ka = Client::connect(addr, Duration::from_secs(10)).unwrap();
            let mut served = 0;
            while !done.load(Ordering::Relaxed) {
                assert_eq!(ka.send("POST", "/v1/classify", body.as_bytes()).unwrap().status, 200);
                served += 1;
            }
            served
        });
        let profiler = profile_in_background(addr, 1, 200);
        let mirrored = await_mirroring();
        let profile = profiler.join();
        done.store(true, Ordering::Relaxed);
        let served = load.join();
        (mirrored, profile.unwrap().unwrap(), served.unwrap())
    });
    assert!(mirrored, "a running /debug/profile never turned mirroring on");
    assert!(!sampler::mirroring(), "mirroring outlived the /debug/profile scrape");
    assert!(served > 0, "no classify request was answered during the profile");
    assert_eq!(profile.status, 200);
    let pjson = Json::parse(&profile.body_text()).expect("/debug/profile is JSON");
    assert_eq!(pjson.get("schema").and_then(Json::as_str), Some("patchdb-profile/v1"));
    assert_eq!(pjson.get("hz").and_then(Json::as_f64), Some(200.0));
    let samples = pjson.get("samples").and_then(Json::as_f64).expect("samples");
    assert!(samples >= 5.0, "a 1 s profile at 200 Hz took {samples} samples");
    let folded = pjson.get("folded").and_then(Json::as_str).expect("folded");
    let mut frames = std::collections::BTreeSet::new();
    for line in folded.lines() {
        let (path, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!path.is_empty());
        assert!(count.parse::<u64>().unwrap() > 0);
        frames.extend(path.split(';'));
    }
    // A session that never mirrored would read as all `(idle)`.
    for frame in ["loop.poll", "serve.worker"] {
        assert!(frames.contains(frame), "no {frame} in a profile under load:\n{folded}");
    }
    assert!(pjson.get("self_top").and_then(Json::as_arr).is_some());

    assert_eq!(client::request(addr, "POST", "/debug/profile", b"").unwrap().status, 405);
    server.shutdown();
}

#[test]
fn full_admission_queue_sheds_with_503_and_the_trace_id() {
    // Reads `serve.rejected_503` exactly (the connection-cap test bumps
    // it too) and runs a profile session.
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(1).max_inflight(1).deadline_ms(30_000));
    let addr = server.addr();
    let metrics = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    let rejected = counter_in(&metrics, "serve.rejected_503");

    // The profile holds the only worker (its session opens once the
    // worker has popped it, leaving the queue empty)...
    let profiler = profile_in_background(addr, 1, 97);
    assert!(await_mirroring(), "the profile never started");
    // ...one request fills the one-slot queue (the loop admits it as
    // soon as the bytes land; give it a moment)...
    let mut queued = TcpStream::connect(addr).unwrap();
    queued.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // ...and a keep-alive request behind it is refused at admission.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    shed.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Patchdb-Trace-Id: it-shed-1\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    shed.read_to_end(&mut raw).expect("the shed connection is closed after its answer");
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("a framed response");
    assert!(head.starts_with("HTTP/1.1 503"), "expected 503, got: {text}");
    for line in ["Retry-After: 1", "Connection: close", "X-Patchdb-Trace-Id: it-shed-1"] {
        assert!(head.lines().any(|l| l == line), "no `{line}` in: {head}");
    }
    let envelope = Json::parse(body).expect("error envelope");
    let error = envelope.get("error").expect("error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(error.get("trace_id").and_then(Json::as_str), Some("it-shed-1"));

    // The held and queued requests are still answered.
    assert_eq!(profiler.join().unwrap().expect("profile scrape").status, 200);
    queued.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = Vec::new();
    queued.read_to_end(&mut raw).expect("the queued request is answered");
    assert!(raw.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&raw));

    let metrics = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    assert_eq!(counter_in(&metrics, "serve.rejected_503"), rejected + 1);
    server.shutdown();
}

#[test]
fn observability_toggles_never_change_response_bytes() {
    let _guard = obs_lock().lock().unwrap();
    let db = shared_db();

    let mut requests: Vec<(&str, String, Vec<u8>)> =
        vec![("GET", "/v1/stats".into(), Vec::new())];
    for record in db.records().take(8) {
        requests.push(("POST", "/v1/identify".into(), diff_body(record).into_bytes()));
        requests.push(("POST", "/v1/classify".into(), diff_body(record).into_bytes()));
        requests.push(("GET", format!("/v1/patch/{}", record.patch.commit), Vec::new()));
    }
    // The dark server (no profile session) answers every request
    // before the lit server's profile turns span mirroring on.
    let off = start(ephemeral().threads(4));
    let expected: Vec<_> = requests
        .iter()
        .map(|(m, p, b)| client::request(off.addr(), m, p, b).unwrap())
        .collect();
    assert!(!sampler::mirroring(), "the dark server ran under a profile session");
    off.shutdown();

    // Drive the second server while a live profile scrape walks its
    // stacks: mirroring and sampling may observe, never steer.
    let on = start(ephemeral().threads(4));
    let on_addr = on.addr();
    let profiler = profile_in_background(on_addr, 1, 97);
    assert!(await_mirroring(), "the lit server's profile never started");
    for pass in 0..2 {
        for ((method, path, body), want) in requests.iter().zip(&expected) {
            let got = client::request(on_addr, method, path, body).unwrap();
            assert_eq!(
                (got.status, &got.body),
                (want.status, &want.body),
                "{method} {path} differs with a profile live (pass {pass})"
            );
        }
    }
    let profile = profiler.join().unwrap().expect("profile scrape");
    assert_eq!(profile.status, 200);
    on.shutdown();
}

/// Fires every public endpoint (success and error paths) at two servers
/// and requires byte-identical `(status, body)` pairs.
fn assert_servers_identical(
    a: std::net::SocketAddr,
    b: std::net::SocketAddr,
    label: &str,
) {
    let db = shared_db();
    let mut requests: Vec<(&str, String, Vec<u8>)> = vec![
        ("GET", "/healthz".into(), Vec::new()),
        ("GET", "/v1/stats".into(), Vec::new()),
        ("POST", "/v1/scan".into(), b"void unrelated(void) { }\n".to_vec()),
        ("GET", "/v1/nope".into(), Vec::new()),
        ("GET", "/v1/identify".into(), Vec::new()),
        ("POST", "/v1/identify".into(), b"not a diff".to_vec()),
        ("GET", "/v1/patch/ffffffffffff".into(), Vec::new()),
    ];
    for record in db.records().take(10) {
        requests.push(("POST", "/v1/identify".into(), diff_body(record).into_bytes()));
        requests.push(("POST", "/v1/classify".into(), diff_body(record).into_bytes()));
        requests.push(("GET", format!("/v1/patch/{}", record.patch.commit), Vec::new()));
    }
    // Scan with real pre-patch code so signatures actually match.
    for record in db.security_patches().take(5) {
        let before: String = record
            .patch
            .hunks()
            .flat_map(|h| h.old_lines().into_iter().map(|l| l.to_owned() + "\n"))
            .collect();
        requests.push(("POST", "/v1/scan".into(), before.into_bytes()));
    }
    for (method, path, body) in &requests {
        let ra = client::request(a, method, path, body).unwrap();
        let rb = client::request(b, method, path, body).unwrap();
        if path == "/healthz" {
            // The uptime stamp is wall-clock relative to each server's
            // own start; compare everything before ` up=`.
            let cut = |body: &[u8]| {
                let text = String::from_utf8_lossy(body).into_owned();
                text.split(" up=").next().unwrap_or_default().to_owned()
            };
            assert_eq!(
                (ra.status, cut(&ra.body)),
                (rb.status, cut(&rb.body)),
                "{label}: {method} {path} diverged"
            );
            continue;
        }
        assert_eq!(
            (ra.status, &ra.body),
            (rb.status, &rb.body),
            "{label}: {method} {path} diverged"
        );
    }
}

#[test]
fn snapshot_boot_answers_byte_identically_to_fresh_build() {
    let snap_path = std::env::temp_dir()
        .join(format!("patchdb_snap_{}.snapshot", std::process::id()));
    ServeIndex::build(shared_db().clone())
        .save_snapshot(&snap_path)
        .expect("snapshot written");
    let fresh = start(ephemeral().threads(2));
    let booted = Server::start(
        ServeIndex::load_snapshot(&snap_path).expect("snapshot loads"),
        &ephemeral().threads(2),
    )
    .expect("server binds");
    assert_servers_identical(fresh.addr(), booted.addr(), "snapshot boot");
    fresh.shutdown();
    booted.shutdown();
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn reload_swaps_generations_under_live_traffic() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    // Swaps zero the identify-cache gauges; serialize with the tests
    // that scrape them.
    let _guard = obs_lock().lock().unwrap();
    // Persist the dataset so /admin/reload has a source to rebuild from.
    let db_path = std::env::temp_dir()
        .join(format!("patchdb_reload_{}.json", std::process::id()));
    std::fs::write(&db_path, shared_db().to_json().expect("dataset serializes")).unwrap();
    let server = start(
        ephemeral()
            .threads(4)
            .reload_from(ReloadSource::Dataset(db_path.display().to_string())),
    );
    let addr = server.addr();
    let body = diff_body(shared_db().nvd.first().expect("tiny build has NVD records"));
    // Reloads rebuild from the same dataset, so identify answers must
    // stay byte-identical across every generation.
    let reference = client::request(addr, "POST", "/v1/identify", body.as_bytes())
        .expect("reference identify");
    assert_eq!(reference.status, 200, "{}", reference.body_text());

    // Continuous traffic across every swap — two keep-alive workers
    // with mixed GET/POST, one pipelining identify bursts. Each worker
    // panics on the first non-200 (or byte-diverged) reply, so a
    // dropped or failed request fails the test.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..3)
        .map(|worker| {
            let stop = Arc::clone(&stop);
            let body = body.clone();
            let reference = reference.body.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut conn: Option<Client> = None;
                while !stop.load(Ordering::SeqCst) {
                    let ka = match conn.as_mut() {
                        Some(ka) => ka,
                        None => conn.insert(
                            Client::connect(addr, Duration::from_secs(10))
                                .expect("connect mid-swap"),
                        ),
                    };
                    if worker == 2 {
                        let burst: Vec<(&str, &str, &[u8])> = (0..8)
                            .map(|_| ("POST", "/v1/identify", body.as_bytes()))
                            .collect();
                        let replies =
                            ka.pipeline(&burst).expect("pipelined burst failed mid-swap");
                        for reply in replies {
                            assert_eq!(reply.status, 200, "{}", reply.body_text());
                            assert_eq!(
                                reply.body, reference,
                                "pipelined identify diverged across a swap"
                            );
                            served += 1;
                        }
                    } else {
                        let (method, path, payload): (&str, &str, &[u8]) = match served % 3
                        {
                            0 => ("GET", "/v1/stats", b""),
                            1 => ("POST", "/v1/identify", body.as_bytes()),
                            _ => ("GET", "/healthz", b""),
                        };
                        let reply = ka
                            .send(method, path, payload)
                            .expect("keep-alive request failed mid-swap");
                        assert_eq!(
                            reply.status,
                            200,
                            "{method} {path} failed during a swap: {}",
                            reply.body_text()
                        );
                        if path == "/v1/identify" {
                            assert_eq!(
                                reply.body, reference,
                                "identify diverged across a swap"
                            );
                        }
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Three copy-on-write swaps while the traffic threads hammer away.
    for expected_gen in 2..=4u64 {
        let reply = client::request(addr, "POST", "/admin/reload", b"").expect("reload");
        assert_eq!(reply.status, 200, "{}", reply.body_text());
        let json = Json::parse(&reply.body_text()).expect("reload reply is JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            json.get("generation").and_then(Json::as_f64),
            Some(expected_gen as f64)
        );
    }
    stop.store(true, Ordering::SeqCst);
    let served: u64 = traffic
        .into_iter()
        .map(|t| t.join().expect("zero failed requests across swaps"))
        .sum();
    assert!(served > 0, "traffic threads never got a request through");

    // The new generation is visible everywhere it is surfaced.
    let health = client::request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_text().starts_with("ok gen=4 up="), "{}", health.body_text());
    let metrics = client::request(addr, "GET", "/metrics", b"").unwrap().body_text();
    assert_eq!(gauge_in(&metrics, "serve.index.generation"), Some(4));
    assert!(
        counter_in(&metrics, "serve.index.swaps") >= 3,
        "swap counter after three reloads: {metrics}"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&db_path);
}

/// Like [`raw_close`] but with a request body and caller-chosen extra
/// headers — the shape trace-propagation tests need.
fn raw_exchange(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> (String, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n");
    for (key, value) in extra {
        head.push_str(&format!("{key}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read close-mode response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status = lines.next().expect("status line").to_string();
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(": ").unwrap_or_else(|| panic!("bad header {l:?}"));
            (k.to_ascii_lowercase(), v.to_string())
        })
        .collect();
    (status, headers, body)
}

#[test]
fn every_response_carries_request_and_trace_ids() {
    let server = start(ephemeral().threads(1));
    let addr = server.addr();

    // Success, not-found, and method-error responses all carry both
    // headers, and the derived trace id is the request id in 16 hex
    // digits.
    for (path, want) in [("/healthz", "200"), ("/v1/nope", "404"), ("/v1/identify", "405")] {
        let (status, headers, _) = raw_close(addr, "GET", path);
        assert!(status.contains(want), "GET {path}: {status}");
        let id: u64 = header(&headers, "x-patchdb-request-id")
            .parse()
            .unwrap_or_else(|_| panic!("GET {path}: request id is not an integer"));
        assert!(id >= 1, "GET {path}: request id {id}");
        let trace = header(&headers, "x-patchdb-trace-id");
        assert_eq!(trace, format!("{id:016x}"), "GET {path}: derived trace shape");
    }

    // Ids are admission-ordered: a later request gets a larger id.
    let (_, first, _) = raw_close(addr, "GET", "/healthz");
    let (_, second, _) = raw_close(addr, "GET", "/healthz");
    let a: u64 = header(&first, "x-patchdb-request-id").parse().unwrap();
    let b: u64 = header(&second, "x-patchdb-request-id").parse().unwrap();
    assert!(b > a, "request ids not increasing: {a} then {b}");
    server.shutdown();
}

#[test]
fn client_trace_ids_round_trip_and_are_queryable() {
    let server = start(ephemeral().threads(1));
    let addr = server.addr();

    // A valid client trace id is echoed on the response...
    let (status, headers, _) =
        raw_exchange(addr, "GET", "/v1/stats", &[("X-Patchdb-Trace-Id", "it-trace-1")], b"");
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "x-patchdb-trace-id"), "it-trace-1");

    // ...and its record is queryable by that id.
    let reply = client::request(addr, "GET", "/debug/trace/it-trace-1", b"").unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    let json = Json::parse(&reply.body_text()).expect("/debug/trace is JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("patchdb-trace-request/v2")
    );
    assert_eq!(json.get("trace_id").and_then(Json::as_str), Some("it-trace-1"));
    assert_eq!(json.get("supplied").and_then(Json::as_bool), Some(true));
    let request = json.get("request").expect("embedded request record");
    assert_eq!(request.get("path").and_then(Json::as_str), Some("/v1/stats"));
    assert_eq!(request.get("generation").and_then(Json::as_f64), Some(1.0));
    let total = request.get("total_ns").and_then(Json::as_f64).expect("total_ns");
    let stages: f64 = ["accept_ns", "queue_ns", "parse_ns", "batch_ns", "compute_ns", "write_ns"]
        .iter()
        .map(|s| request.get(s).and_then(Json::as_f64).expect("stage"))
        .sum();
    assert!(stages <= total, "stages {stages} exceed total {total}");

    // A client trace id is also echoed into the error envelope body.
    let (status, _, body) = raw_exchange(
        addr,
        "POST",
        "/v1/identify",
        &[("X-Patchdb-Trace-Id", "it-trace-err")],
        b"not a diff",
    );
    assert!(status.contains("400"), "{status}");
    let envelope = Json::parse(&String::from_utf8_lossy(&body)).expect("error envelope");
    assert_eq!(
        envelope.get("error").and_then(|e| e.get("trace_id")).and_then(Json::as_str),
        Some("it-trace-err")
    );

    // An invalid header value (spaces) is ignored: the response falls
    // back to the derived id and never fails the request.
    let (status, headers, _) =
        raw_exchange(addr, "GET", "/healthz", &[("X-Patchdb-Trace-Id", "not valid!")], b"");
    assert!(status.contains("200"), "{status}");
    let id: u64 = header(&headers, "x-patchdb-request-id").parse().unwrap();
    assert_eq!(header(&headers, "x-patchdb-trace-id"), format!("{id:016x}"));

    // An unknown trace id is a 404 with the standard envelope.
    let miss = client::request(addr, "GET", "/debug/trace/никогда", b"").unwrap();
    assert_eq!(miss.status, 404);
    server.shutdown();
}

#[test]
fn debug_timeseries_and_slo_round_trip() {
    let _guard = obs_lock().lock().unwrap();
    let server = start(ephemeral().threads(2));
    let addr = server.addr();
    for _ in 0..4 {
        assert_eq!(client::request(addr, "GET", "/healthz", b"").unwrap().status, 200);
    }
    // The event loop samples the registry into the time-series store
    // once per second; wait out two ticks so the series has points.
    std::thread::sleep(Duration::from_millis(2500));

    let reply = client::request(
        addr,
        "GET",
        "/debug/timeseries?metric=serve.accepted&secs=60",
        b"",
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body_text());
    let json = Json::parse(&reply.body_text()).expect("/debug/timeseries is JSON");
    assert_eq!(json.get("schema").and_then(Json::as_str), Some("patchdb-timeseries/v1"));
    assert_eq!(json.get("metric").and_then(Json::as_str), Some("serve.accepted"));
    let points = json.get("points").and_then(Json::as_arr).expect("points array");
    assert!(!points.is_empty(), "no samples after two loop ticks");
    let mut last_s = f64::NEG_INFINITY;
    for p in points {
        let s = p.get("s").and_then(Json::as_f64).expect("second stamp");
        assert!(s > last_s, "seconds not strictly increasing");
        last_s = s;
        assert!(p.get("v").and_then(Json::as_f64).expect("value") >= 0.0);
    }

    // Parameter errors are envelope errors, not panics.
    assert_eq!(client::request(addr, "GET", "/debug/timeseries", b"").unwrap().status, 400);
    assert_eq!(
        client::request(addr, "GET", "/debug/timeseries?metric=no.such.series", b"")
            .unwrap()
            .status,
        404
    );

    let slo = client::request(addr, "GET", "/debug/slo", b"").unwrap();
    assert_eq!(slo.status, 200, "{}", slo.body_text());
    let slo_json = Json::parse(&slo.body_text()).expect("/debug/slo is JSON");
    assert_eq!(slo_json.get("schema").and_then(Json::as_str), Some("patchdb-slo/v1"));
    let rules = slo_json.get("rules").and_then(Json::as_arr).expect("rules array");
    let names: Vec<&str> =
        rules.iter().filter_map(|r| r.get("name").and_then(Json::as_str)).collect();
    assert!(names.contains(&"identify_latency_p99"), "{names:?}");
    assert!(names.contains(&"availability"), "{names:?}");
    for rule in rules {
        let budget =
            rule.get("budget_remaining_pct").and_then(Json::as_f64).expect("budget");
        assert!((0.0..=100.0).contains(&budget), "budget {budget} out of range");
        let windows = rule.get("windows").and_then(Json::as_arr).expect("windows");
        assert_eq!(windows.len(), 2, "5m and 1h burn windows");
        for w in windows {
            assert!(w.get("burn_rate").and_then(Json::as_f64).expect("burn") >= 0.0);
        }
    }
    // Only healthz traffic ran: nothing burned the availability budget.
    let availability = rules
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("availability"))
        .unwrap();
    assert_eq!(
        availability.get("budget_remaining_pct").and_then(Json::as_f64),
        Some(100.0),
        "healthz-only traffic must not burn availability budget"
    );

    for path in ["/debug/timeseries", "/debug/slo", "/debug/trace/x"] {
        assert_eq!(client::request(addr, "POST", path, b"").unwrap().status, 405, "{path}");
    }
    server.shutdown();
}

#[test]
fn latency_windows_survive_a_reload() {
    let _guard = obs_lock().lock().unwrap();
    let db_path = std::env::temp_dir()
        .join(format!("patchdb_window_reload_{}.json", std::process::id()));
    std::fs::write(&db_path, shared_db().to_json().expect("dataset serializes")).unwrap();
    let server = start(
        ephemeral()
            .threads(2)
            .reload_from(ReloadSource::Dataset(db_path.display().to_string())),
    );
    let addr = server.addr();
    for _ in 0..6 {
        assert_eq!(client::request(addr, "GET", "/healthz", b"").unwrap().status, 200);
    }
    let window_count = |body: &str| {
        body.lines()
            .find_map(|l| {
                l.strip_prefix(
                    "patchdb_window_count{name=\"serve.request.total_ns\",window_s=\"60\"} ",
                )
            })
            .and_then(|v| v.parse::<u64>().ok())
            .expect("windowed request count in /metrics")
    };
    let before =
        window_count(&client::request(addr, "GET", "/metrics", b"").unwrap().body_text());
    assert!(before >= 6, "window missed the warm-up burst: {before}");

    let reload = client::request(addr, "POST", "/admin/reload", b"").unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body_text());

    // An index swap replaces the generation, never the telemetry: the
    // 60 s latency window must still hold the pre-reload requests.
    let after =
        window_count(&client::request(addr, "GET", "/metrics", b"").unwrap().body_text());
    assert!(
        after >= before,
        "60s window lost samples across a reload: {before} -> {after}"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&db_path);
}

#[test]
fn snapshot_reload_swaps_in_the_next_generation() {
    // Swaps zero the identify-cache gauges; serialize with the tests
    // that scrape them.
    let _guard = obs_lock().lock().unwrap();
    let snap_path = std::env::temp_dir()
        .join(format!("patchdb_snap_reload_{}.snapshot", std::process::id()));
    ServeIndex::build(shared_db().clone())
        .save_snapshot(&snap_path)
        .expect("snapshot written");
    let server = Server::start(
        ServeIndex::load_snapshot(&snap_path).expect("snapshot loads"),
        &ephemeral()
            .threads(2)
            .reload_from(ReloadSource::Snapshot(snap_path.display().to_string())),
    )
    .expect("server binds");
    let addr = server.addr();
    let stats = client::request(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!(stats.status, 200);

    let reload = client::request(addr, "POST", "/admin/reload", b"").unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body_text());
    let health = client::request(addr, "GET", "/healthz", b"").unwrap().body_text();
    assert!(health.starts_with("ok gen=2 up="), "healthz after a snapshot reload: {health}");
    let again = client::request(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!((again.status, &again.body), (stats.status, &stats.body));
    server.shutdown();
    let _ = std::fs::remove_file(&snap_path);
}

/// The served index keeps only the counts of the synthetic records, so
/// a reload from the dataset file must count them again, and
/// `/v1/stats` keeps its bytes across the swap.
#[test]
fn dataset_reload_keeps_the_stats_bytes() {
    // Swaps zero the identify-cache gauges; serialize with the tests
    // that scrape them.
    let _guard = obs_lock().lock().unwrap();
    let db = PatchDb::build(&BuildOptions::tiny(17)).db;
    let counts = db.stats();
    assert!(counts.synthetic_security > 0 && counts.synthetic_non_security > 0, "{counts}");
    let db_path = std::env::temp_dir()
        .join(format!("patchdb_stats_reload_{}.json", std::process::id()));
    std::fs::write(&db_path, db.to_json().expect("dataset serializes")).unwrap();
    let server = Server::start(
        ServeIndex::build(db),
        &ephemeral()
            .threads(2)
            .reload_from(ReloadSource::Dataset(db_path.display().to_string())),
    )
    .expect("server binds");
    let addr = server.addr();
    let stats = client::request(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    let json = Json::parse(&stats.body_text()).expect("stats are JSON");
    for (key, want) in [
        ("synthetic_security", counts.synthetic_security),
        ("synthetic_non_security", counts.synthetic_non_security),
    ] {
        assert_eq!(json.get(key).and_then(Json::as_f64), Some(want as f64), "{key}");
    }

    let reload = client::request(addr, "POST", "/admin/reload", b"").unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body_text());
    let health = client::request(addr, "GET", "/healthz", b"").unwrap().body_text();
    assert!(health.starts_with("ok gen=2 up="), "healthz after a dataset reload: {health}");
    let again = client::request(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!((again.status, &again.body), (stats.status, &stats.body));
    server.shutdown();
    let _ = std::fs::remove_file(&db_path);
}

#[test]
fn error_responses_share_the_json_envelope() {
    let server = start(ephemeral().threads(1));
    let addr = server.addr();
    let cases: Vec<(&str, &str, Vec<u8>, u16, &str)> = vec![
        ("GET", "/v1/nope", Vec::new(), 404, "not_found"),
        ("GET", "/v1/identify", Vec::new(), 405, "method_not_allowed"),
        ("GET", "/admin/reload", Vec::new(), 405, "method_not_allowed"),
        ("POST", "/v1/identify", b"not a diff".to_vec(), 400, "bad_request"),
        ("POST", "/v1/classify", vec![0xff, 0xfe], 400, "bad_request"),
        ("GET", "/v1/patch/ffffffffffff", Vec::new(), 404, "not_found"),
        // No reload source configured on this server.
        ("POST", "/admin/reload", Vec::new(), 409, "usage"),
    ];
    for (method, path, body, status, code) in cases {
        let reply = client::request(addr, method, path, &body).unwrap();
        assert_eq!(reply.status, status, "{method} {path}: {}", reply.body_text());
        let json = Json::parse(&reply.body_text())
            .unwrap_or_else(|e| panic!("{method} {path} not JSON ({e}): {}", reply.body_text()));
        let error = json.get("error").expect("envelope has an error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some(code),
            "{method} {path}"
        );
        let message = error.get("message").and_then(Json::as_str).expect("message field");
        assert!(!message.is_empty(), "{method} {path} has an empty message");
    }
    server.shutdown();
}
