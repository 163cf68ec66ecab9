//! Request-scoped telemetry for the serve path: request IDs, the
//! six-stage clock, the debug ring, slow-request exemplars, and the
//! optional JSON-lines access log.
//!
//! Every request gets a monotonically increasing ID at admission and a
//! [`RequestRecord`] that accumulates where the request spent its life:
//! `accept` (accept to event-loop registration, charged to a
//! connection's first request), `queue` (admission queue wait), `parse`
//! (first byte to complete frame in the event loop), `batch` (the
//! identify forest pass, a batch of one), `compute` (the rest of the
//! endpoint work), and `write` (first write call that carried the
//! response's bytes to the return of the call that carried its last).
//! The six stages are disjoint sub-intervals of the request's lifetime,
//! so their sum never exceeds `total_ns` — the invariant the access-log
//! validator in `check_bench_json` enforces.
//!
//! Recording is strictly observational: response bytes are identical
//! with telemetry on or off (`tests/serve.rs` pins the access-log
//! on/off byte identity), and the access log is disabled unless
//! `--access-log` is given.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use patchdb::Error;
use patchdb_rt::json::Json;
use patchdb_rt::obs::{self, EventRing};

use crate::server::ServeConfig;
use crate::slo::SloEngine;

/// Nanoseconds elapsed since `t`, saturating into `u64`.
pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Nanoseconds from `from` to `to`, saturating at zero and into `u64`.
pub(crate) fn elapsed_since(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos().min(u64::MAX as u128) as u64
}

/// One request's structured record: identity, outcome, and the
/// six-stage duration breakdown.
#[derive(Debug, Clone)]
pub(crate) struct RequestRecord {
    /// Server-unique request ID, assigned at accept in admission order.
    pub id: u64,
    /// Upper-case method, `"-"` until a request line was parsed.
    pub method: String,
    /// Request path (query included), `"-"` until parsed.
    pub path: String,
    /// The endpoint label metrics use (`identify`, `healthz`, ...), or a
    /// terminal classification (`shed`, `deadline`, `disconnect`,
    /// `parse`) when no endpoint ran.
    pub endpoint: &'static str,
    /// Response status, `0` when the client vanished before one could be
    /// written.
    pub status: u16,
    /// Accept-to-written wall time.
    pub total_ns: u64,
    /// Accept thread: TCP accept to admission-queue push.
    pub accept_ns: u64,
    /// Admission-queue wait: push to worker dequeue (zero for an
    /// identify cache hit, which the event loop answers itself).
    pub queue_ns: u64,
    /// Socket read + HTTP parse.
    pub parse_ns: u64,
    /// The identify forest pass on a cache miss (zero otherwise).
    pub batch_ns: u64,
    /// Endpoint work, the forest pass excluded.
    pub compute_ns: u64,
    /// Response write: from the start of the first write call that
    /// carried any of the response's bytes to the return of the call
    /// that carried its last byte. One gathered call can finish several
    /// pipelined responses; its return is read once, before any of
    /// their records is observed, so they all end at that instant.
    pub write_ns: u64,
    /// The trace id: a client-supplied `X-Patchdb-Trace-Id`, else the
    /// admission id rendered as 16 hex digits.
    pub trace: String,
    /// Whether the client supplied the trace id. Only supplied ids are
    /// echoed into error-envelope *bodies* — derived ids stay in
    /// headers so bodies remain byte-deterministic for plain clients.
    pub trace_supplied: bool,
    /// The index generation pinned at admission (0 until pinned).
    pub generation: u64,
    /// Identify-cache outcome: `Some(true)` hit, `Some(false)` miss,
    /// `None` when the request never consulted the cache.
    pub cache: Option<bool>,
}

impl RequestRecord {
    /// A fresh record for an admitted connection; the remaining stages
    /// fill in as the request advances.
    pub fn admitted(id: u64, accept_ns: u64) -> RequestRecord {
        RequestRecord {
            id,
            method: "-".into(),
            path: "-".into(),
            endpoint: "other",
            status: 0,
            total_ns: 0,
            accept_ns,
            queue_ns: 0,
            parse_ns: 0,
            batch_ns: 0,
            compute_ns: 0,
            write_ns: 0,
            trace: derived_trace(id),
            trace_supplied: false,
            generation: 0,
            cache: None,
        }
    }

    /// Sum of the six stage durations (always `<= total_ns`).
    #[cfg(test)]
    pub fn stage_sum_ns(&self) -> u64 {
        self.accept_ns
            .saturating_add(self.queue_ns)
            .saturating_add(self.parse_ns)
            .saturating_add(self.batch_ns)
            .saturating_add(self.compute_ns)
            .saturating_add(self.write_ns)
    }

    fn fields(&self) -> Vec<(String, Json)> {
        let mut fields = vec![
            ("id".into(), Json::Num(self.id as f64)),
            ("trace".into(), Json::Str(self.trace.clone())),
            ("method".into(), Json::Str(self.method.clone())),
            ("path".into(), Json::Str(self.path.clone())),
            ("endpoint".into(), Json::Str(self.endpoint.into())),
            ("status".into(), Json::Num(self.status as f64)),
            ("generation".into(), Json::Num(self.generation as f64)),
            ("total_ns".into(), Json::Num(self.total_ns as f64)),
            ("accept_ns".into(), Json::Num(self.accept_ns as f64)),
            ("queue_ns".into(), Json::Num(self.queue_ns as f64)),
            ("parse_ns".into(), Json::Num(self.parse_ns as f64)),
            ("batch_ns".into(), Json::Num(self.batch_ns as f64)),
            ("compute_ns".into(), Json::Num(self.compute_ns as f64)),
            ("write_ns".into(), Json::Num(self.write_ns as f64)),
        ];
        if let Some(hit) = self.cache {
            let outcome = if hit { "hit" } else { "miss" };
            fields.push(("cache".into(), Json::Str(outcome.into())));
        }
        fields
    }

    /// The `/debug/requests` and `/debug/slow` document for one record.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields())
    }

    /// One access-log line: the record's fields behind a monotonic
    /// `ts_ms` (milliseconds since server start, captured at log time).
    fn to_log_json(&self, ts_ms: u64) -> Json {
        let mut fields = vec![("ts_ms".into(), Json::Num(ts_ms as f64))];
        fields.extend(self.fields());
        Json::Obj(fields)
    }
}

/// The server-derived trace id for an admission-ordered request id: 16
/// hex digits, so derived and client-supplied ids are visually
/// distinguishable and the mapping back to `/debug/requests` is
/// trivial.
pub(crate) fn derived_trace(id: u64) -> String {
    format!("{id:016x}")
}

/// How many finished requests `GET /debug/requests` and
/// `GET /debug/trace/<id>` retain (one overwrite-oldest ring).
const DEBUG_RING: usize = 256;

/// Capacity of the slow-request exemplar ring.
const SLOW_RING: usize = 32;

/// The access-log sink plus its size-based rotation state. Rotation
/// happens under the same lock that serializes writes, *before* the
/// line that would cross the cap goes out — so a log line is never
/// split across files and `PATH` always starts at a line boundary.
struct AccessSink {
    sink: Box<dyn Write + Send>,
    /// Rotation target; `None` for stdout, which never rotates.
    path: Option<String>,
    /// Bytes written to the current file.
    written: u64,
    /// Rotate when a write would push `written` past this; `0` disables.
    max_bytes: u64,
}

impl AccessSink {
    /// Writes one complete log line, rotating `PATH` → `PATH.1` first
    /// when the line would cross the size cap. Only ever called with a
    /// full line (trailing `\n` included).
    fn write_line(&mut self, line: &[u8]) {
        if let Some(path) = &self.path {
            if self.max_bytes > 0
                && self.written > 0
                && self.written.saturating_add(line.len() as u64) > self.max_bytes
            {
                let _ = self.sink.flush();
                let _ = std::fs::rename(path, format!("{path}.1"));
                match std::fs::File::create(path) {
                    Ok(file) => {
                        self.sink = Box::new(file);
                        self.written = 0;
                        obs::counter_add("serve.access_log.rotations", 1);
                    }
                    Err(_) => {
                        // Reopen failed: keep writing to the renamed
                        // file rather than losing lines.
                    }
                }
            }
        }
        let _ = self.sink.write_all(line);
        let _ = self.sink.flush();
        self.written = self.written.saturating_add(line.len() as u64);
    }
}

/// Per-server telemetry state, shared by the event loop and every
/// worker.
pub(crate) struct Telemetry {
    started: Instant,
    next_id: AtomicU64,
    ring: EventRing<RequestRecord>,
    slow: EventRing<RequestRecord>,
    slow_ns: u64,
    /// `ts_ms` is read under this lock so log lines are written with
    /// strictly non-decreasing timestamps even under worker contention.
    access: Option<Mutex<AccessSink>>,
    /// The SLO burn-rate engine; every finished request feeds it.
    slo: SloEngine,
}

impl Telemetry {
    /// Builds the telemetry state from the server config, opening (and
    /// truncating) the access-log sink when one is configured (`"-"`
    /// logs to stdout).
    pub fn new(config: &ServeConfig) -> Result<Telemetry, Error> {
        let access: Option<AccessSink> = match config.access_log.as_deref() {
            None => None,
            Some("-") => Some(AccessSink {
                sink: Box::new(std::io::stdout()),
                path: None,
                written: 0,
                max_bytes: 0,
            }),
            Some(path) => Some(AccessSink {
                sink: Box::new(std::fs::File::create(path)?),
                path: Some(path.to_owned()),
                written: 0,
                max_bytes: config.access_log_max_mb.saturating_mul(1024 * 1024),
            }),
        };
        Ok(Telemetry {
            started: Instant::now(),
            next_id: AtomicU64::new(1),
            ring: EventRing::new(DEBUG_RING),
            slow: EventRing::new(SLOW_RING),
            slow_ns: config.slow_ms.saturating_mul(1_000_000),
            access: access.map(Mutex::new),
            slo: SloEngine::new(config),
        })
    }

    /// The next request ID, in admission order.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Whole seconds since the server booted (for `/healthz` and the
    /// `patchdb_uptime_seconds` gauge line).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The SLO engine, for the event loop's per-second evaluation tick
    /// and the `/debug/slo` document.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Banks one finished request: global windowed histograms and stage
    /// histograms, the debug ring, the slow-exemplar ring, and the
    /// access log. Called exactly once per accepted connection, after
    /// the response (if any) was written.
    pub fn observe(&self, record: RequestRecord) {
        obs::window_record("serve.request.total_ns", record.total_ns);
        obs::window_record(
            &format!("serve.{}.total_ns", record.endpoint),
            record.total_ns,
        );
        let mut shard = obs::Shard::new();
        shard.record("serve.stage.accept_ns", record.accept_ns);
        shard.record("serve.stage.queue_ns", record.queue_ns);
        shard.record("serve.stage.parse_ns", record.parse_ns);
        shard.record("serve.stage.batch_ns", record.batch_ns);
        shard.record("serve.stage.compute_ns", record.compute_ns);
        shard.record("serve.stage.write_ns", record.write_ns);
        shard.flush();

        if let Some(log) = &self.access {
            let mut sink = log.lock().unwrap();
            let ts_ms = self.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
            let line = record.to_log_json(ts_ms).to_compact_string() + "\n";
            sink.write_line(line.as_bytes());
        }
        if record.total_ns >= self.slow_ns {
            obs::counter_add("serve.slow_requests", 1);
            self.slow.push(record.clone());
        }
        self.slo.observe(&record);
        self.ring.push(record);
    }

    /// The `GET /debug/trace/<id>` document for the most recent
    /// request carrying `trace` — stage clocks, cache outcome, and
    /// pinned generation — looked up in the debug ring.
    /// `None` when no retained record matches (never seen, or aged out
    /// of the ring).
    pub fn debug_trace_json(&self, trace: &str) -> Option<Json> {
        let record = self.ring.rfind(|r| r.trace == trace)?;
        Some(Json::Obj(vec![
            ("schema".into(), Json::Str("patchdb-trace-request/v2".into())),
            ("trace_id".into(), Json::Str(record.trace.clone())),
            ("supplied".into(), Json::Bool(record.trace_supplied)),
            ("request".into(), record.to_json()),
        ]))
    }

    /// The `GET /debug/requests` document: ring capacity/pressure plus
    /// the last `n` records, oldest first.
    pub fn debug_requests_json(&self, n: usize) -> Json {
        Json::Obj(vec![
            ("capacity".into(), Json::Num(self.ring.capacity() as f64)),
            ("total".into(), Json::Num(self.ring.total() as f64)),
            ("dropped".into(), Json::Num(self.ring.dropped() as f64)),
            (
                "requests".into(),
                Json::Arr(self.ring.recent(n).iter().map(RequestRecord::to_json).collect()),
            ),
        ])
    }

    /// The `GET /debug/slow` document: the threshold and the most recent
    /// slow-request exemplars with their full stage breakdowns.
    pub fn debug_slow_json(&self) -> Json {
        Json::Obj(vec![
            ("slow_ms".into(), Json::Num(self.slow_ns as f64 / 1e6)),
            ("total".into(), Json::Num(self.slow.total() as f64)),
            (
                "requests".into(),
                Json::Arr(self.slow.recent(SLOW_RING).iter().map(RequestRecord::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, total: u64) -> RequestRecord {
        let mut r = RequestRecord::admitted(id, 10);
        r.queue_ns = 20;
        r.parse_ns = 30;
        r.batch_ns = 0;
        r.compute_ns = 40;
        r.write_ns = 5;
        r.total_ns = total;
        r.status = 200;
        r
    }

    #[test]
    fn stage_sum_stays_below_total() {
        let r = record(1, 200);
        assert_eq!(r.stage_sum_ns(), 105);
        assert!(r.stage_sum_ns() <= r.total_ns);
    }

    #[test]
    fn record_json_carries_all_six_stages() {
        let json = record(7, 500).to_json();
        for field in
            ["accept_ns", "queue_ns", "parse_ns", "batch_ns", "compute_ns", "write_ns"]
        {
            assert!(json.get(field).and_then(Json::as_f64).is_some(), "missing {field}");
        }
        assert_eq!(json.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(json.get("status").and_then(Json::as_f64), Some(200.0));
    }

    #[test]
    fn slow_ring_captures_only_above_threshold() {
        let config = ServeConfig::default().slow_ms(1); // 1 ms
        let telemetry = Telemetry::new(&config).unwrap();
        telemetry.observe(record(1, 500)); // 500 ns: fast
        telemetry.observe(record(2, 2_000_000)); // 2 ms: slow
        let slow = telemetry.debug_slow_json();
        let requests = slow.get("requests").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].get("id").and_then(Json::as_f64), Some(2.0));
        let all = telemetry.debug_requests_json(16);
        assert_eq!(all.get("requests").and_then(|r| r.as_arr()).unwrap().len(), 2);
    }

    /// Size-based rotation is atomic at the line level: every line lands
    /// whole in exactly one of `PATH.1`/`PATH`, no line is split by the
    /// rename, and ids stay unique across the pair.
    #[test]
    fn rotation_never_splits_a_line() {
        let path = std::env::temp_dir()
            .join(format!("patchdb_access_rot_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_owned();
        let rotated = format!("{path}.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);

        let config = ServeConfig::default().access_log(&path).access_log_max_mb(1);
        let telemetry = Telemetry::new(&config).unwrap();
        // Shrink the cap so the 40 lines (~210 bytes each) rotate exactly
        // once — a second rotation would rename over `PATH.1` and the
        // oldest lines would legitimately be gone. The mb knob only
        // scales this same byte threshold.
        telemetry.access.as_ref().unwrap().lock().unwrap().max_bytes = 6_000;
        for id in 1..=40 {
            telemetry.observe(record(id, 1_000));
        }

        assert!(std::fs::metadata(&rotated).is_ok(), "no rotation happened");
        let mut ids = Vec::new();
        for file in [&rotated, &path] {
            let text = std::fs::read_to_string(file).unwrap();
            assert!(text.ends_with('\n'), "{file} does not end at a line boundary");
            for line in text.lines() {
                let json = Json::parse(line)
                    .unwrap_or_else(|e| panic!("split/corrupt line in {file}: {e:?}"));
                ids.push(json.get("id").and_then(Json::as_f64).unwrap() as u64);
            }
        }
        // PATH.1 holds the older lines, PATH the newer: reading the pair
        // in that order yields every id exactly once, in order.
        assert_eq!(ids, (1..=40).collect::<Vec<u64>>(), "lines lost or reordered");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }

    #[test]
    fn ids_are_unique_and_ascending() {
        let telemetry = Telemetry::new(&ServeConfig::default()).unwrap();
        let ids: Vec<u64> = (0..5).map(|_| telemetry.next_id()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    /// A second rotation *replaces* `PATH.1` — the rename overwrites the
    /// previous generation rather than appending to it, so `PATH.1`
    /// never mixes two generations of lines.
    #[test]
    fn second_rotation_replaces_dot_one() {
        let path = std::env::temp_dir()
            .join(format!("patchdb_access_rot2_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_owned();
        let rotated = format!("{path}.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);

        let config = ServeConfig::default().access_log(&path).access_log_max_mb(1);
        let telemetry = Telemetry::new(&config).unwrap();
        // Small cap → the 40 lines rotate at least twice.
        telemetry.access.as_ref().unwrap().lock().unwrap().max_bytes = 2_500;
        for id in 1..=40 {
            telemetry.observe(record(id, 1_000));
        }
        let written = telemetry.access.as_ref().unwrap().lock().unwrap().written;
        assert!(written > 0, "sanity: the current file has bytes");

        let text = std::fs::read_to_string(&rotated).unwrap();
        let first_id = Json::parse(text.lines().next().unwrap())
            .unwrap()
            .get("id")
            .and_then(Json::as_f64)
            .unwrap() as u64;
        assert!(first_id > 1, "PATH.1 still holds generation-one lines: replaced, not appended");
        // And the retained pair still parses line-by-line with ascending
        // contiguous ids — nothing was interleaved by the overwrite.
        let mut ids = Vec::new();
        for file in [&rotated, &path] {
            for line in std::fs::read_to_string(file).unwrap().lines() {
                ids.push(Json::parse(line).unwrap().get("id").and_then(Json::as_f64).unwrap()
                    as u64);
            }
        }
        let expect: Vec<u64> = (first_id..=40).collect();
        assert_eq!(ids, expect, "PATH.1 + PATH must be one contiguous suffix of the stream");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }

    #[test]
    fn derived_trace_is_sixteen_hex_digits() {
        assert_eq!(derived_trace(1), "0000000000000001");
        assert_eq!(derived_trace(0xdead_beef), "00000000deadbeef");
        let r = RequestRecord::admitted(7, 0);
        assert_eq!(r.trace, "0000000000000007");
        assert!(!r.trace_supplied);
    }

    #[test]
    fn debug_trace_lookup_finds_latest_match() {
        let telemetry = Telemetry::new(&ServeConfig::default()).unwrap();
        let mut a = record(1, 500);
        a.trace = "client-a".into();
        a.trace_supplied = true;
        a.generation = 3;
        a.cache = Some(true);
        telemetry.observe(a);
        telemetry.observe(record(2, 500));

        let doc = telemetry.debug_trace_json("client-a").expect("trace retained");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("patchdb-trace-request/v2"));
        assert_eq!(doc.get("trace_id").and_then(Json::as_str), Some("client-a"));
        let req = doc.get("request").unwrap();
        assert_eq!(req.get("generation").and_then(Json::as_f64), Some(3.0));
        assert_eq!(req.get("cache").and_then(Json::as_str), Some("hit"));

        // The derived trace of request 2 resolves too; a stranger 404s.
        assert!(telemetry.debug_trace_json(&derived_trace(2)).is_some());
        assert!(telemetry.debug_trace_json("no-such-trace").is_none());

        // A client may reuse a trace id: the newest record wins.
        let mut again = record(3, 500);
        again.trace = "client-a".into();
        again.generation = 4;
        telemetry.observe(again);
        let doc = telemetry.debug_trace_json("client-a").expect("reused trace found");
        assert_eq!(doc.get("request").unwrap().get("id").and_then(Json::as_f64), Some(3.0));
    }
}
