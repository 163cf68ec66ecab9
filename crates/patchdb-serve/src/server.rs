//! The server proper: event-loop front end → bounded admission queue →
//! fixed worker pool, with per-request deadlines and graceful drain.
//!
//! The event loop (see [`crate::event_loop`]) owns every socket and
//! frames complete requests. A `/v1/identify` whose body the pinned
//! generation has already scored is answered by the loop itself at
//! admission ([`identify_hit`]): a hit costs a hash and a lookup, so it
//! never waits in the queue or wakes a worker. Everything else reaches
//! a worker as a [`Work`] item that already carries a parsed request;
//! the worker runs the endpoint and completes back into the loop's
//! mailbox. An identify miss is parsed, extracted and scored through
//! the forest as a batch of one right here.

use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use patch_core::Patch;
use patchdb::Error;
use patchdb_rt::json::Json;
use patchdb_rt::net::Waker;
use patchdb_rt::obs;
use patchdb_rt::par;
use patchdb_rt::queue::BoundedQueue;

use crate::cache::cache_key;
use crate::event_loop::{Completion, EventLoop, LoopShared};
use crate::handle::{reload, Generation, IndexHandle, ReloadSource};
use crate::http::{render_head, Request, Response};
use crate::telemetry::{elapsed_ns, RequestRecord, Telemetry};

/// Server knobs. Construct with [`ServeConfig::default`] and refine with
/// the fluent setters (`#[non_exhaustive]`, like `BuildOptions`):
///
/// ```rust
/// use patchdb_serve::ServeConfig;
///
/// let config = ServeConfig::default()
///     .addr("127.0.0.1:0")
///     .threads(4)
///     .max_inflight(64)
///     .max_conns(4096);
/// assert_eq!(config.threads, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker-pool size; `0` defers to `PATCHDB_THREADS` / available
    /// parallelism via `par::configured_threads`.
    pub threads: usize,
    /// Bound on framed-but-unfinished requests in the admission queue.
    /// Admissions beyond it are answered `503` + `Retry-After`.
    pub max_inflight: usize,
    /// Per-request wall-clock budget from first byte to response; also
    /// bounds how long a partial request may trickle in and how long the
    /// drain phase waits at shutdown.
    pub deadline_ms: u64,
    /// JSON-lines access-log sink: a path, `"-"` for stdout, or `None`
    /// (the default) for no log. Purely additive — response bytes are
    /// identical either way.
    pub access_log: Option<String>,
    /// Requests at least this slow are kept as exemplars with their full
    /// stage breakdown, served by `GET /debug/slow`.
    pub slow_ms: u64,
    /// Idle keep-alive connections are closed after this long; also the
    /// write-stall bound for readers that stop consuming responses.
    pub idle_timeout_ms: u64,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the final response); `0` = unlimited.
    pub max_requests_per_conn: u64,
    /// Open-connection cap; arrivals beyond it are answered `503` and
    /// closed without reading a byte.
    pub max_conns: usize,
    /// Size-based access-log rotation: when the current file would cross
    /// this many MiB, it is renamed `PATH` → `PATH.1` and a fresh `PATH`
    /// is opened, under the log lock so no line is ever split. `0` (the
    /// default) disables rotation; stdout (`"-"`) never rotates.
    pub access_log_max_mb: u64,
    /// Where `POST /admin/reload` and SIGHUP rebuild the next index
    /// generation from. `None` disables live reload: `/admin/reload`
    /// answers `409` and SIGHUP is ignored.
    pub reload: Option<ReloadSource>,
    /// Per-series retention of the embedded metrics time-series store,
    /// in seconds of one-second samples (at most
    /// [`MAX_RETENTION_S`](patchdb_rt::obs::tsdb::MAX_RETENTION_S)).
    pub tsdb_retention_s: usize,
    /// The identify-latency SLO threshold: an identify request is
    /// "good" when its total latency is at most this many milliseconds.
    pub slo_identify_p99_ms: u64,
    /// The availability objective as a percentage of responses that
    /// must be non-5xx (e.g. `99.9`).
    pub slo_availability_pct: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7979".into(),
            threads: 0,
            max_inflight: 128,
            deadline_ms: 10_000,
            access_log: None,
            slow_ms: 100,
            idle_timeout_ms: 5_000,
            max_requests_per_conn: 0,
            max_conns: 10_240,
            access_log_max_mb: 0,
            reload: None,
            tsdb_retention_s: 600,
            slo_identify_p99_ms: 250,
            slo_availability_pct: 99.9,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-pool size (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the in-flight admission bound (clamped to at least 1).
    pub fn max_inflight(mut self, bound: usize) -> Self {
        self.max_inflight = bound.max(1);
        self
    }

    /// Sets the per-request deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Sets the access-log sink (`"-"` for stdout).
    pub fn access_log(mut self, sink: impl Into<String>) -> Self {
        self.access_log = Some(sink.into());
        self
    }

    /// Sets the slow-request exemplar threshold in milliseconds.
    pub fn slow_ms(mut self, ms: u64) -> Self {
        self.slow_ms = ms;
        self
    }

    /// Sets the idle-connection timeout in milliseconds.
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }

    /// Sets the per-connection request cap (`0` = unlimited).
    pub fn max_requests_per_conn(mut self, cap: u64) -> Self {
        self.max_requests_per_conn = cap;
        self
    }

    /// Sets the open-connection cap (clamped to at least 1).
    pub fn max_conns(mut self, cap: usize) -> Self {
        self.max_conns = cap.max(1);
        self
    }

    /// Sets the access-log rotation cap in MiB (`0` = no rotation).
    pub fn access_log_max_mb(mut self, mb: u64) -> Self {
        self.access_log_max_mb = mb;
        self
    }

    /// Sets where `/admin/reload` and SIGHUP rebuild the index from.
    pub fn reload_from(mut self, source: ReloadSource) -> Self {
        self.reload = Some(source);
        self
    }

    /// Sets the time-series store retention in seconds (clamped into
    /// `1..=MAX_RETENTION_S`, so the per-series rings stay bounded).
    pub fn tsdb_retention_s(mut self, secs: usize) -> Self {
        self.tsdb_retention_s = secs.clamp(1, obs::tsdb::MAX_RETENTION_S);
        self
    }

    /// Sets the identify-latency SLO threshold in milliseconds.
    pub fn slo_identify_p99_ms(mut self, ms: u64) -> Self {
        self.slo_identify_p99_ms = ms;
        self
    }

    /// Sets the availability objective percentage (clamped into
    /// `[50, 99.999]` so the error budget never degenerates; a
    /// non-finite value keeps the current objective).
    pub fn slo_availability_pct(mut self, pct: f64) -> Self {
        if pct.is_finite() {
            self.slo_availability_pct = pct.clamp(50.0, 99.999);
        }
        self
    }
}

/// One framed request traveling from the event loop to a worker.
pub(crate) struct Work {
    pub request: Request,
    /// Connection slot + generation guard for the completion route.
    pub slot: usize,
    pub generation: u64,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The request's clock origin (first byte / accept).
    pub started: Instant,
    /// Absolute deadline; work dequeued past it is answered `503`.
    pub deadline: Instant,
    /// Whether the response must carry `Connection: close`.
    pub close_after: bool,
    /// When the loop pushed the work; the worker reads the queue-wait
    /// stage off this at dequeue.
    pub enqueued: Instant,
    /// The body's cache key when this is a `POST /v1/identify` that
    /// missed at admission; `None` for every other request.
    pub identify_key: Option<u64>,
    pub rec: RequestRecord,
    /// The index generation pinned at admission: this request answers
    /// from this exact index and cache no matter how many swaps land
    /// while it is in flight.
    pub index_gen: Arc<Generation>,
}

/// Everything a worker needs, shared immutably.
struct Ctx {
    /// The live handle — used only by `/admin/reload`; request serving
    /// goes through the generation pinned on each [`Work`].
    handle: IndexHandle,
    shared: Arc<LoopShared>,
    telemetry: Arc<Telemetry>,
    /// Where `/admin/reload` rebuilds from (`None` = reload disabled).
    reload: Option<ReloadSource>,
}

/// A running query server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, drains admitted work, and
/// joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<LoopShared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
}

impl Server {
    /// Binds, spawns the event-loop thread and the worker pool, and
    /// starts answering. Also enables `rt::obs` so the
    /// `/metrics` endpoint has counters to export.
    ///
    /// Accepts anything that converts into an [`IndexHandle`]: a bare
    /// [`crate::ServeIndex`] (generation 1) or an existing handle — the
    /// latter lets the caller keep a clone and drive swaps externally.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the listener cannot bind or the waker pipe
    /// cannot be created.
    pub fn start(index: impl Into<IndexHandle>, config: &ServeConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // Best effort: a large connection cap needs file descriptors.
        let _ = patchdb_rt::net::raise_nofile_limit(config.max_conns as u64 + 64);
        obs::set_enabled(true);
        obs::tsdb::set_retention_s(config.tsdb_retention_s);
        let telemetry = Arc::new(Telemetry::new(config)?);

        let handle: IndexHandle = index.into();
        let worker_count = if config.threads == 0 {
            par::configured_threads(8)
        } else {
            config.threads
        };
        let queue: Arc<BoundedQueue<Work>> =
            Arc::new(BoundedQueue::new(config.max_inflight));
        let (waker, wake_rx) = Waker::new()?;
        // SIGHUP-driven reload: the handler only sets a flag and writes
        // one byte to the loop's self-pipe (both async-signal-safe); the
        // event loop notices the byte, sees the flag, and runs the
        // rebuild on a spawned thread. Without a reload source the
        // signal is left at its default disposition.
        if config.reload.is_some() {
            patchdb_rt::net::install_sighup_handler(waker.raw_write_fd());
        }
        let shared = Arc::new(LoopShared::new(waker));

        let ctx = Arc::new(Ctx {
            handle: handle.clone(),
            shared: Arc::clone(&shared),
            telemetry: Arc::clone(&telemetry),
            reload: config.reload.clone(),
        });
        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("patchdb-serve-worker-{i}"))
                    .spawn(move || loop {
                        // The wait/work split is the profiler's idle
                        // signal: `sampler::frame` grows no registry and
                        // costs one relaxed load unless a profile runs.
                        let popped = {
                            let _wait = obs::sampler::frame("serve.worker.wait");
                            queue.pop()
                        };
                        let Some(work) = popped else { break };
                        let _busy = obs::sampler::frame("serve.worker");
                        handle_work(work, &ctx);
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        let stop = Arc::new(AtomicBool::new(false));
        let event_loop = EventLoop::new(
            listener,
            Arc::clone(&queue),
            Arc::clone(&shared),
            wake_rx,
            Arc::clone(&stop),
            Arc::clone(&telemetry),
            config,
            handle,
        );
        let loop_thread = std::thread::Builder::new()
            .name("patchdb-serve-loop".into())
            .spawn(move || event_loop.run())
            .expect("spawn event-loop thread");

        Ok(Server {
            local_addr,
            stop,
            shared,
            event_loop: Some(loop_thread),
            workers,
            worker_count,
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The effective worker-pool size.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Graceful shutdown: stop accepting, answer everything already
    /// admitted (pipelined requests included), then join the event
    /// loop and the workers. Returns once every thread has exited.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Blocks the calling thread for the lifetime of the process — the
    /// CLI's foreground mode. The server keeps serving; only process
    /// death (signal) ends it.
    pub fn wait(mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn shutdown_impl(&mut self) {
        if self.event_loop.is_none() {
            return; // already shut down (or waited out)
        }
        self.stop.store(true, Ordering::SeqCst);
        // The self-pipe waker interrupts the poll; no throwaway
        // connection needed. The loop drains, then closes the queue.
        self.shared.wake();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Counter name for a response status. Every status the server actually
/// emits maps to a static name so the per-request counter bump never
/// allocates; an unexpected status still gets counted, just through a
/// one-off `format!`.
pub(crate) fn status_counter(status: u16) -> std::borrow::Cow<'static, str> {
    match status {
        200 => "serve.status.200".into(),
        400 => "serve.status.400".into(),
        404 => "serve.status.404".into(),
        405 => "serve.status.405".into(),
        409 => "serve.status.409".into(),
        413 => "serve.status.413".into(),
        429 => "serve.status.429".into(),
        500 => "serve.status.500".into(),
        503 => "serve.status.503".into(),
        other => format!("serve.status.{other}").into(),
    }
}

/// Builds and publishes the completion for one finished request: banks
/// the endpoint counters and status, renders the head, and wakes the
/// loop.
fn reply(work: Work, endpoint: &'static str, response: Response, ctx: &Ctx) {
    let mut rec = work.rec;
    rec.endpoint = endpoint;
    // A *client-supplied* trace id is echoed into error-envelope bodies
    // for correlation; derived ids stay header-only so bodies remain
    // byte-identical for clients that sent no trace header.
    let response = if response.status >= 400 && rec.trace_supplied {
        response.with_trace(&rec.trace)
    } else {
        response
    };
    rec.status = response.status;
    obs::counter_add(&status_counter(response.status), 1);
    // HEAD answers with the GET entity's headers (Content-Length
    // included, per RFC 9110) but no body — the head is rendered before
    // the body is dropped so the two stay consistent.
    let head = render_head(&response, !work.close_after, Some((rec.id, &rec.trace)));
    let body = if work.request.method == "HEAD" { Vec::new() } else { response.body };
    ctx.shared.complete(Completion {
        slot: work.slot,
        generation: work.generation,
        seq: work.seq,
        started: work.started,
        head,
        body,
        rec,
        close_after: work.close_after,
    });
}

/// Worker entry for one framed request: closes out the queue stage,
/// runs the endpoint, and completes back to the loop.
fn handle_work(work: Work, ctx: &Ctx) {
    run_contained(work, ctx, route);
}

/// Answers `work` through `handler` unless its deadline has passed. A
/// panicking handler is answered `500` and counted in
/// `serve.handler_panics`, and the worker lives on to pop the next
/// request.
fn run_contained(
    mut work: Work,
    ctx: &Ctx,
    handler: impl FnOnce(&mut Work, &Ctx) -> (&'static str, Response),
) {
    obs::gauge_add("serve.queue_depth", -1);
    work.rec.queue_ns = elapsed_ns(work.enqueued);
    if Instant::now() >= work.deadline {
        obs::counter_add("serve.deadline_expired", 1);
        reply(work, "deadline", Response::overloaded(1), ctx);
        return;
    }
    let (endpoint, response) =
        std::panic::catch_unwind(AssertUnwindSafe(|| handler(&mut work, ctx)))
            .unwrap_or_else(|_| {
                obs::counter_add("serve.handler_panics", 1);
                let endpoint = if work.identify_key.is_some() { "identify" } else { "other" };
                (endpoint, Response::error(500, "internal", "the request handler panicked"))
            });
    reply(work, endpoint, response, ctx);
}

/// Runs the endpoint `work` asked for.
fn route(work: &mut Work, ctx: &Ctx) -> (&'static str, Response) {
    if let Some(key) = work.identify_key {
        return ("identify", identify_miss(work, key));
    }
    let started = Instant::now();
    let (endpoint, response) = dispatch(&work.request, &work.index_gen, ctx);
    let dispatch_ns = elapsed_ns(started);
    work.rec.compute_ns = dispatch_ns;
    obs::counter_add(&format!("serve.{endpoint}.requests"), 1);
    obs::hist_record(&format!("serve.{endpoint}.ns"), dispatch_ns);
    (endpoint, response)
}

/// The identify response document for one score — the single rendering
/// point shared by the cache-hit and scoring paths, so the two cannot
/// drift byte-wise.
fn identify_response(score: f64) -> Response {
    Response::json(
        200,
        &Json::Obj(vec![
            ("score".into(), Json::Num(score)),
            ("security".into(), Json::Bool(score >= 0.5)),
        ]),
    )
}

/// The cache key of `request`'s body when it is a `POST /v1/identify`;
/// `None` routes the request like any other endpoint.
pub(crate) fn identify_key(request: &Request) -> Option<u64> {
    (request.method == "POST" && request.path == "/v1/identify")
        .then(|| cache_key(&request.body))
}

/// Answers a `POST /v1/identify` from the cache of the generation it
/// pinned at admission, or `None` on a miss. The event loop calls this
/// before queueing, so a hit never waits for a worker. Identify is pure
/// in the body bytes, so the cached score renders byte-identically to
/// the miss that scored it. `key` is [`identify_key`]'s; the record's
/// `compute` stage covers the lookup.
pub(crate) fn identify_hit(
    body: &[u8],
    key: u64,
    gen: &Generation,
    rec: &mut RequestRecord,
) -> Option<Response> {
    let started = Instant::now();
    let score = gen.cache.lookup(key, body)?;
    let lookup_ns = elapsed_ns(started);
    rec.endpoint = "identify";
    rec.compute_ns = lookup_ns;
    rec.cache = Some(true);
    obs::counter_add("serve.identify.requests", 1);
    obs::counter_add("serve.identify.cache_hits", 1);
    obs::hist_record("serve.identify.ns", lookup_ns);
    Some(identify_response(score))
}

/// `POST /v1/identify` for a body the pinned generation's cache missed
/// at admission: parsed, extracted, and scored through the forest as a
/// batch of one, and its score lands in the same generation's cache
/// under `key`. The record's `compute` stage covers parse and
/// extraction; its `batch` stage times the forest pass.
fn identify_miss(work: &mut Work, key: u64) -> Response {
    let started = Instant::now();
    let gen = &work.index_gen;
    work.rec.cache = Some(false);
    let patch = match parse_patch_body(&work.request) {
        Ok(patch) => patch,
        Err(response) => {
            work.rec.compute_ns = elapsed_ns(started);
            return response;
        }
    };
    let row = gen.index.weighted_features(&patch);
    work.rec.compute_ns = elapsed_ns(started);
    obs::counter_add("serve.identify.requests", 1);
    let scoring = Instant::now();
    let score = gen.index.score_rows(std::slice::from_ref(&row))[0];
    work.rec.batch_ns = elapsed_ns(scoring);
    gen.cache.insert(key, std::mem::take(&mut work.request.body), score);
    obs::hist_record("serve.identify.ns", elapsed_ns(started));
    identify_response(score)
}

/// Routes one (non-identify) request against the generation it pinned
/// at admission; returns the endpoint label the metrics use.
fn dispatch(request: &Request, gen: &Generation, ctx: &Ctx) -> (&'static str, Response) {
    let path = request.path.as_str();
    // HEAD routes exactly like GET; `reply` drops the body after the
    // head (Content-Length included) is rendered.
    let get = request.method == "GET" || request.method == "HEAD";
    let post = request.method == "POST";
    match path {
        "/healthz" if get => (
            "healthz",
            Response::text(
                200,
                format!("ok gen={} up={}\n", gen.number, ctx.telemetry.uptime_secs()),
            ),
        ),
        "/metrics" if get => {
            // Snapshot, not report(): counters/gauges/hists/windows only,
            // no span-tree clone under the registry mutex. Uptime and
            // build-info ride along as hand-rendered exposition lines —
            // neither belongs in the registry (one is a clock, the other
            // a constant).
            let mut text = obs::metrics_snapshot().to_metrics_text();
            text.push_str(&format!(
                "# build\npatchdb_uptime_seconds {}\n",
                ctx.telemetry.uptime_secs()
            ));
            text.push_str(&format!(
                "patchdb_build_info{{version=\"{}\",snapshot_schema=\"{}\",\
                 serve_bench_schema=\"patchdb-serve/v2\"}} 1\n",
                env!("CARGO_PKG_VERSION"),
                crate::Snapshot::SCHEMA
            ));
            ("metrics", Response::metrics(text))
        }
        "/v1/stats" if get => {
            ("stats", Response::json(200, &gen.index.stats_json()))
        }
        "/v1/classify" if post => ("classify", classify(request, gen)),
        "/v1/scan" if post => ("scan", scan(request, gen)),
        "/admin/reload" if post => ("admin_reload", admin_reload(ctx)),
        _ if path.starts_with("/v1/patch/") && get => {
            let id = &path["/v1/patch/".len()..];
            match gen.index.patch_json(id) {
                Some(json) => ("patch", Response::json(200, &json)),
                None => (
                    "patch",
                    Response::error(404, "not_found", "no unique record for that id"),
                ),
            }
        }
        _ if get && (path == "/debug/requests" || path.starts_with("/debug/requests?")) => {
            let n = query_param(path, "n").unwrap_or(64) as usize;
            ("debug_requests", Response::json(200, &ctx.telemetry.debug_requests_json(n)))
        }
        "/debug/slow" if get => {
            ("debug_slow", Response::json(200, &ctx.telemetry.debug_slow_json()))
        }
        _ if get && (path == "/debug/profile" || path.starts_with("/debug/profile?")) => {
            // Inline sampling profile: blocks this one worker for
            // `seconds` (clamped to 10) while the sampler thread walks
            // the seqlock slots at `hz`; the rest of the pool keeps
            // serving.
            let seconds = query_param(path, "seconds").unwrap_or(1).clamp(1, 10);
            let hz = query_param(path, "hz").unwrap_or(97);
            let profile = obs::sampler::profile_for(Duration::from_secs(seconds), hz);
            ("debug_profile", Response::json(200, &profile.to_json()))
        }
        _ if get && path.starts_with("/debug/trace/") => {
            let trace = &path["/debug/trace/".len()..];
            match ctx.telemetry.debug_trace_json(trace) {
                Some(doc) => ("debug_trace", Response::json(200, &doc)),
                None => (
                    "debug_trace",
                    Response::error(
                        404,
                        "not_found",
                        "no retained request for that trace id",
                    ),
                ),
            }
        }
        _ if get && (path == "/debug/timeseries" || path.starts_with("/debug/timeseries?")) => {
            ("debug_timeseries", debug_timeseries(path))
        }
        "/debug/slo" if get => (
            "debug_slo",
            Response::json(200, &ctx.telemetry.slo().debug_json(obs::process_second())),
        ),
        "/healthz" | "/metrics" | "/v1/stats" | "/v1/identify" | "/v1/classify"
        | "/v1/scan" | "/admin/reload" | "/debug/requests" | "/debug/slow"
        | "/debug/profile" | "/debug/timeseries" | "/debug/slo" => {
            ("other", Response::error(405, "method_not_allowed", "method not allowed"))
        }
        _ if path.starts_with("/debug/trace/") => {
            ("other", Response::error(405, "method_not_allowed", "method not allowed"))
        }
        _ => ("other", Response::error(404, "not_found", "unknown endpoint")),
    }
}

/// `GET /debug/timeseries?metric=NAME&secs=N`: the named series over
/// the trailing window as a `patchdb-timeseries/v1` document. `400`
/// without a metric, `404` for a series the store never sampled.
fn debug_timeseries(path: &str) -> Response {
    let Some(metric) = query_param_str(path, "metric").filter(|m| !m.is_empty()) else {
        return Response::error(400, "usage", "metric query parameter is required");
    };
    let secs = query_param(path, "secs").unwrap_or(60).max(1);
    let now_s = obs::process_second();
    match obs::tsdb::query(&metric, now_s, secs) {
        None => Response::error(404, "not_found", format!("no such metric series: {metric}")),
        Some(points) => Response::json(
            200,
            &Json::Obj(vec![
                ("schema".into(), Json::Str("patchdb-timeseries/v1".into())),
                ("metric".into(), Json::Str(metric)),
                ("retention_s".into(), Json::Num(obs::tsdb::retention_s() as f64)),
                ("now_s".into(), Json::Num(now_s as f64)),
                (
                    "points".into(),
                    Json::Arr(
                        points
                            .into_iter()
                            .map(|(s, v)| {
                                Json::Obj(vec![
                                    ("s".into(), Json::Num(s as f64)),
                                    ("v".into(), Json::Num(v)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    }
}

/// `POST /admin/reload`: rebuild the index from the configured source
/// and atomically swap it in. The rebuild runs right here on the
/// worker — traffic keeps answering from the old generation on the
/// other workers until the swap lands.
fn admin_reload(ctx: &Ctx) -> Response {
    let Some(source) = &ctx.reload else {
        return Response::error(
            409,
            "usage",
            "no reload source configured; start the server with a dataset or snapshot path",
        );
    };
    match reload(&ctx.handle, source) {
        Ok(generation) => Response::json(
            200,
            &Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("generation".into(), Json::Num(generation as f64)),
            ]),
        ),
        Err(e) => {
            let status = if matches!(e, Error::Usage(_)) { 400 } else { 500 };
            Response::error(status, e.code(), e.to_string())
        }
    }
}

/// The integer value of `key=N` in the path's query string, if present.
fn query_param(path: &str, key: &str) -> Option<u64> {
    query_param_str(path, key).and_then(|v| v.parse().ok())
}

/// The raw string value of `key=...` in the path's query string.
fn query_param_str(path: &str, key: &str) -> Option<String> {
    let (_, query) = path.split_once('?')?;
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .map(str::to_owned)
}

/// Parses the request body as a unified diff, or explains why not.
fn parse_patch_body(request: &Request) -> Result<Patch, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "bad_request", "body is not UTF-8"))?;
    Patch::parse(text)
        .map_err(|e| Response::error(400, "bad_request", format!("not a unified diff: {e}")))
}

fn classify(request: &Request, gen: &Generation) -> Response {
    match parse_patch_body(request) {
        Ok(patch) => Response::json(200, &gen.index.classify_json(&patch)),
        Err(r) => r,
    }
}

fn scan(request: &Request, gen: &Generation) -> Response {
    let Ok(target) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "bad_request", "body is not UTF-8");
    };
    let outcome = gen.index.scan(target);
    let matches = outcome
        .matches
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("commit".into(), Json::Str(m.commit.to_string())),
                (
                    "cve_id".into(),
                    m.cve_id.as_ref().map_or(Json::Null, |c| Json::Str(c.clone())),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::Obj(vec![
            ("vulnerable".into(), Json::Num(outcome.matches.len() as f64)),
            ("patched".into(), Json::Num(outcome.patched as f64)),
            ("matches".into(), Json::Arr(matches)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ServeIndex;
    use patchdb::{BuildOptions, PatchDb};

    fn tiny_db(seed: u64) -> PatchDb {
        PatchDb::build(&BuildOptions::tiny(seed).synthesize(false)).db
    }

    /// A worker context over `handle` whose completions land in a
    /// mailbox no event loop drains, so tests read them back directly.
    fn ctx(handle: &IndexHandle) -> Ctx {
        let (waker, _rx) = Waker::new().unwrap();
        Ctx {
            handle: handle.clone(),
            shared: Arc::new(LoopShared::new(waker)),
            telemetry: Arc::new(Telemetry::new(&ServeConfig::default()).unwrap()),
            reload: None,
        }
    }

    /// An admitted `POST /v1/identify` of `body` on loop slot `slot`,
    /// pinned to `index_gen`.
    fn identify_work(slot: usize, body: &str, index_gen: &Arc<Generation>) -> Work {
        let now = Instant::now();
        Work {
            request: Request {
                method: "POST".into(),
                path: "/v1/identify".into(),
                body: body.as_bytes().to_vec(),
            },
            slot,
            generation: 1,
            seq: 0,
            started: now,
            deadline: now + Duration::from_secs(60),
            close_after: false,
            enqueued: now,
            identify_key: Some(cache_key(body.as_bytes())),
            rec: RequestRecord::admitted(slot as u64, 0),
            index_gen: Arc::clone(index_gen),
        }
    }

    /// Runs one request through the worker path and returns its
    /// completion.
    fn serve_one(work: Work, ctx: &Ctx) -> Completion {
        handle_work(work, ctx);
        let mut completions = ctx.shared.take_for_test();
        assert_eq!(completions.len(), 1, "one request, one completion");
        completions.pop().unwrap()
    }

    /// Diff bodies of the first `n` security patches of `db`.
    fn diff_bodies(db: &PatchDb, n: usize) -> Vec<String> {
        db.security_patches()
            .take(n)
            .map(|r| r.patch.to_unified_string())
            .collect()
    }

    /// The score the pinned index gives `body` when called directly.
    fn direct_score(index_gen: &Generation, body: &str) -> f64 {
        let patch = Patch::parse(body).unwrap();
        let row = index_gen.index.weighted_features(&patch);
        index_gen.index.score_rows(std::slice::from_ref(&row))[0]
    }

    #[test]
    fn tsdb_retention_setter_is_bounded() {
        let cap = obs::tsdb::MAX_RETENTION_S;
        assert_eq!(ServeConfig::default().tsdb_retention_s(usize::MAX).tsdb_retention_s, cap);
        assert_eq!(ServeConfig::default().tsdb_retention_s(cap + 1).tsdb_retention_s, cap);
        assert_eq!(ServeConfig::default().tsdb_retention_s(0).tsdb_retention_s, 1);
        assert_eq!(ServeConfig::default().tsdb_retention_s(60).tsdb_retention_s, 60);
    }

    #[test]
    fn identify_scores_equal_direct_score_rows() {
        let db = tiny_db(3);
        let handle = IndexHandle::from(ServeIndex::build(db.clone()));
        let pinned = handle.load();
        let ctx = ctx(&handle);
        let bodies = diff_bodies(&db, 8);
        let rows: Vec<Vec<f64>> = bodies
            .iter()
            .map(|b| pinned.index.weighted_features(&Patch::parse(b).unwrap()))
            .collect();
        let direct = pinned.index.score_rows(&rows);
        for (slot, (body, score)) in bodies.iter().zip(&direct).enumerate() {
            let completion = serve_one(identify_work(slot, body, &pinned), &ctx);
            assert_eq!(completion.slot, slot);
            assert_eq!(completion.body, identify_response(*score).body, "slot {slot}");
            assert_eq!(completion.rec.cache, Some(false));
            assert!(completion.rec.batch_ns > 0, "the forest pass is the batch stage");
            let head = String::from_utf8(completion.head).unwrap();
            assert!(head.contains("Connection: keep-alive"), "{head}");
        }
    }

    #[test]
    fn identify_miss_fills_the_pinned_cache() {
        obs::set_enabled(true);
        let db = tiny_db(3);
        let handle = IndexHandle::from(ServeIndex::build(db.clone()));
        let pinned = handle.load();
        let ctx = ctx(&handle);
        let body = diff_bodies(&db, 1).pop().unwrap();
        let want = direct_score(&pinned, &body);

        let miss = serve_one(identify_work(0, &body, &pinned), &ctx);
        assert_eq!(miss.rec.cache, Some(false));
        let key = cache_key(body.as_bytes());
        assert_eq!(pinned.cache.lookup(key, body.as_bytes()), Some(want));

        let hits_before = obs::counter_value("serve.identify.cache_hits");
        let mut rec = RequestRecord::admitted(1, 0);
        let hit = identify_hit(body.as_bytes(), key, &pinned, &mut rec).expect("a hit");
        assert_eq!(rec.cache, Some(true));
        assert_eq!(rec.endpoint, "identify");
        assert_eq!(rec.batch_ns, 0, "a cache hit never reaches the forest");
        assert_eq!(hit.body, miss.body, "a hit answers the miss's bytes");
        assert!(obs::counter_value("serve.identify.cache_hits") > hits_before);
        let other = b"not a cached body";
        let mut rec = RequestRecord::admitted(2, 0);
        assert!(identify_hit(other, cache_key(other), &pinned, &mut rec).is_none());
        assert_eq!(rec.cache, None, "a miss leaves the record to its worker");
    }

    #[test]
    fn a_panicking_handler_is_answered_500_and_the_worker_serves_on() {
        obs::set_enabled(true);
        let db = tiny_db(3);
        let handle = IndexHandle::from(ServeIndex::build(db.clone()));
        let pinned = handle.load();
        let ctx = ctx(&handle);
        let body = diff_bodies(&db, 1).pop().unwrap();
        let panics_before = obs::counter_value("serve.handler_panics");

        run_contained(identify_work(0, &body, &pinned), &ctx, |_, _| panic!("handler bug"));
        let failed = ctx.shared.take_for_test().pop().expect("the panic is answered");
        let head = String::from_utf8(failed.head).unwrap();
        assert!(head.starts_with("HTTP/1.1 500 "), "{head}");
        let envelope = Json::parse(std::str::from_utf8(&failed.body).unwrap()).unwrap();
        let code = envelope.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("internal"));
        assert_eq!(obs::counter_value("serve.handler_panics"), panics_before + 1);

        // The same thread, still alive, answers the next request.
        let next = serve_one(identify_work(1, &body, &pinned), &ctx);
        assert_eq!(next.body, identify_response(direct_score(&pinned, &body)).body);
    }

    #[test]
    fn identify_scores_through_the_pinned_generation() {
        let db = tiny_db(3);
        let handle = IndexHandle::from(ServeIndex::build(db.clone()));
        let pinned = handle.load();
        let ctx = ctx(&handle);
        // Swap in a different index (different dataset → different model)
        // after the request was admitted against generation 1, and probe
        // with a body the two models score differently.
        handle.swap(ServeIndex::build(tiny_db(7)));
        let current = handle.load();
        let body = diff_bodies(&db, 32)
            .into_iter()
            .find(|b| direct_score(&pinned, b) != direct_score(&current, b))
            .expect("the swapped-in model scores some body differently");
        let want = direct_score(&pinned, &body);

        let completion = serve_one(identify_work(0, &body, &pinned), &ctx);
        assert_eq!(completion.body, identify_response(want).body);
        let key = cache_key(body.as_bytes());
        assert_eq!(pinned.cache.lookup(key, body.as_bytes()), Some(want));
        assert_eq!(current.cache.lookup(key, body.as_bytes()), None);
    }
}
