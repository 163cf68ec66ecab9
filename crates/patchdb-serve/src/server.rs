//! The server proper: event-loop front end → bounded admission queue →
//! fixed worker pool, with per-request deadlines and graceful drain.
//!
//! The event loop (see [`crate::event_loop`]) owns every socket and
//! frames complete requests; workers only ever see [`Work`] items that
//! already carry a parsed request, run the endpoint, and complete back
//! into the loop's mailbox. `/v1/identify` completes asynchronously
//! through the micro-batcher, so a worker is never parked on the batch
//! window — on a small core count that detachment is what lets the
//! keep-alive path saturate the scorer instead of the worker pool.

use std::net::{SocketAddr, TcpListener};
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

use crate::batch::{identify_response, Batcher, IdentifyTicket};
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
///     .batch_window_ms(2)
///     .max_inflight(64)
///     .keep_alive(true)
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
    /// How long `/v1/identify` waits for a batch to fill before scoring.
    pub batch_window_ms: u64,
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
    /// How many finished requests `GET /debug/requests` and
    /// `GET /debug/trace/<id>` retain (one overwrite-oldest ring;
    /// clamped to at least 1).
    pub debug_ring: usize,
    /// Whether HTTP/1.1 keep-alive is honored; `false` forces
    /// `Connection: close` on every response (the v1 protocol).
    pub keep_alive: bool,
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
    /// Whether the always-on flight recorder journals structured events
    /// (span enter/exit, loop ticks, queue transitions) into per-thread
    /// rings for `GET /debug/flight` and the panic-hook dump. Purely
    /// observational — response bytes are identical either way.
    pub flight: bool,
    /// Whether threads mirror their span path into the sampler's seqlock
    /// slots, enabling `GET /debug/profile`. Purely observational.
    pub sampler: bool,
    /// How many ways `/admin/reload` and SIGHUP rebuilds shard the next
    /// generation (clamped to at least 1). The *initial* index is
    /// sharded by the caller (pass a `ShardedIndex` to
    /// [`Server::start`]); this knob only governs swapped-in rebuilds.
    pub shards: usize,
    /// The snapshot file this server booted from, if any. Doubles as
    /// the default reload source when `reload` is unset.
    pub snapshot: Option<String>,
    /// Where `POST /admin/reload` and SIGHUP rebuild the next index
    /// generation from. `None` (and no `snapshot`) disables live
    /// reload: `/admin/reload` answers `409` and SIGHUP is ignored.
    pub reload: Option<ReloadSource>,
    /// Whether the tracing/tsdb/SLO layer observes: trace-ring pushes,
    /// per-shard attribution, per-second registry sampling, and SLO
    /// accounting. Purely observational — response bytes are identical
    /// either way, and the `X-Patchdb-*` headers are always emitted.
    pub tracing: bool,
    /// Per-series retention of the embedded metrics time-series store,
    /// in seconds of one-second samples.
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
            batch_window_ms: 2,
            max_inflight: 128,
            deadline_ms: 10_000,
            access_log: None,
            slow_ms: 100,
            debug_ring: 256,
            keep_alive: true,
            idle_timeout_ms: 5_000,
            max_requests_per_conn: 0,
            max_conns: 10_240,
            access_log_max_mb: 0,
            flight: true,
            sampler: true,
            shards: 1,
            snapshot: None,
            reload: None,
            tracing: true,
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

    /// Sets the identify batch window in milliseconds.
    pub fn batch_window_ms(mut self, ms: u64) -> Self {
        self.batch_window_ms = ms;
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

    /// Sets the `/debug/requests` ring capacity (clamped to at least 1).
    pub fn debug_ring(mut self, capacity: usize) -> Self {
        self.debug_ring = capacity.max(1);
        self
    }

    /// Enables or disables HTTP/1.1 keep-alive.
    pub fn keep_alive(mut self, enabled: bool) -> Self {
        self.keep_alive = enabled;
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

    /// Enables or disables the flight recorder.
    pub fn flight(mut self, enabled: bool) -> Self {
        self.flight = enabled;
        self
    }

    /// Enables or disables span-path mirroring for the sampler.
    pub fn sampler(mut self, enabled: bool) -> Self {
        self.sampler = enabled;
        self
    }

    /// Sets the reload shard count (clamped to at least 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Records the snapshot file this server boots from (also the
    /// default reload source).
    pub fn snapshot(mut self, path: impl Into<String>) -> Self {
        self.snapshot = Some(path.into());
        self
    }

    /// Sets where `/admin/reload` and SIGHUP rebuild the index from.
    pub fn reload_from(mut self, source: ReloadSource) -> Self {
        self.reload = Some(source);
        self
    }

    /// Enables or disables the tracing/tsdb/SLO observation layer.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Sets the time-series store retention in seconds (clamped to at
    /// least 1).
    pub fn tsdb_retention_s(mut self, secs: usize) -> Self {
        self.tsdb_retention_s = secs.max(1);
        self
    }

    /// Sets the identify-latency SLO threshold in milliseconds.
    pub fn slo_identify_p99_ms(mut self, ms: u64) -> Self {
        self.slo_identify_p99_ms = ms;
        self
    }

    /// Sets the availability objective percentage (clamped into
    /// `[50, 99.999]` so the error budget never degenerates).
    pub fn slo_availability_pct(mut self, pct: f64) -> Self {
        self.slo_availability_pct = pct.clamp(50.0, 99.999);
        self
    }

    /// The effective reload source: the explicit `reload` policy, else
    /// the boot snapshot.
    pub(crate) fn reload_source(&self) -> Option<ReloadSource> {
        self.reload
            .clone()
            .or_else(|| self.snapshot.clone().map(ReloadSource::Snapshot))
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
    batcher: Batcher,
    shared: Arc<LoopShared>,
    telemetry: Arc<Telemetry>,
    /// Where `/admin/reload` rebuilds from (`None` = reload disabled).
    reload: Option<ReloadSource>,
    /// Shard count for swapped-in rebuilds.
    shards: usize,
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
    batcher: Batcher,
    batcher_thread: Option<JoinHandle<()>>,
    worker_count: usize,
}

impl Server {
    /// Binds, spawns the event-loop thread, the worker pool, and the
    /// batcher, and starts answering. Also enables `rt::obs` so the
    /// `/metrics` endpoint has counters to export.
    ///
    /// Accepts anything that converts into an [`IndexHandle`]: a bare
    /// [`crate::ServeIndex`] (one shard, generation 1), a
    /// [`crate::ShardedIndex`], or an existing handle — the latter lets
    /// the caller keep a clone and drive swaps externally.
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
        // The introspection runtime: the flight recorder journals the
        // event loop and workers (and dumps a black box on panic), the
        // sampler mirrors span paths for `/debug/profile`. Both are
        // observational only — toggling them never changes response
        // bytes (pinned by `tests/serve.rs`).
        obs::flight::set_enabled(config.flight);
        if config.flight {
            obs::flight::install_panic_hook();
        }
        obs::sampler::set_mirroring(config.sampler);
        // The correlation-and-objectives layer (PR 10): same contract as
        // the recorder and sampler — flipping it never changes response
        // bytes, only what gets observed.
        crate::set_tracing(config.tracing);
        obs::tsdb::set_retention_s(config.tsdb_retention_s);
        let telemetry = Arc::new(Telemetry::new(config)?);

        let handle: IndexHandle = index.into();
        let reload_source = config.reload_source();
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
        if reload_source.is_some() {
            patchdb_rt::net::install_sighup_handler(waker.raw_write_fd());
        }
        let shared = Arc::new(LoopShared::new(waker));
        let (batcher, batcher_thread) = Batcher::start(
            handle.clone(),
            Duration::from_millis(config.batch_window_ms),
            Arc::clone(&shared),
        );

        let ctx = Arc::new(Ctx {
            handle: handle.clone(),
            batcher: batcher.clone(),
            shared: Arc::clone(&shared),
            telemetry: Arc::clone(&telemetry),
            reload: reload_source,
            shards: config.shards.max(1),
        });
        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("patchdb-serve-worker-{i}"))
                    .spawn(move || loop {
                        // The wait/work split is the profiler's idle
                        // signal: `sampler::frame` costs one interned-id
                        // push per call (no registry growth), cheap
                        // enough for the hot path.
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
            batcher,
            batcher_thread: Some(batcher_thread),
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
    /// loop, the workers, and the batcher. Returns once every thread
    /// has exited.
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
        self.batcher.shutdown();
        if let Some(b) = self.batcher_thread.take() {
            let _ = b.join();
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
/// runs the endpoint, and completes back to the loop. `/v1/identify`
/// detaches into the batcher instead of blocking here.
fn handle_work(mut work: Work, ctx: &Ctx) {
    obs::gauge_add("serve.queue_depth", -1);
    obs::flight::record(obs::flight::FlightKind::Queue, "serve.queue.pop", work.rec.id);
    work.rec.queue_ns = elapsed_ns(work.enqueued);
    if Instant::now() >= work.deadline {
        obs::counter_add("serve.deadline_expired", 1);
        reply(work, "deadline", Response::overloaded(1), ctx);
        return;
    }

    // `/v1/identify` (POST) is the asynchronous path: feature
    // extraction happens here, scoring and completion happen on the
    // batcher thread so this worker is free immediately.
    if work.request.path == "/v1/identify" && work.request.method == "POST" {
        let started = Instant::now();
        // Content-addressed fast path: a previously scored body answers
        // from the cache without parsing, feature extraction, or a trip
        // through the batcher — identify is pure in the body bytes, so
        // the response is byte-identical to the full pipeline's.
        let key = cache_key(&work.request.body);
        if let Some(score) = work.index_gen.cache.lookup(key, &work.request.body) {
            work.rec.compute_ns = elapsed_ns(started);
            work.rec.cache = Some(true);
            obs::counter_add("serve.identify.requests", 1);
            obs::counter_add("serve.identify.cache_hits", 1);
            obs::hist_record("serve.identify.ns", elapsed_ns(started));
            reply(work, "identify", identify_response(score), ctx);
            return;
        }
        work.rec.cache = Some(false);
        match parse_patch_body(&work.request) {
            Err(response) => {
                work.rec.compute_ns = elapsed_ns(started);
                reply(work, "identify", response, ctx);
            }
            Ok(patch) => {
                let row = work.index_gen.index.weighted_features(&patch);
                let body = std::mem::take(&mut work.request.body);
                work.rec.compute_ns = elapsed_ns(started);
                obs::counter_add("serve.identify.requests", 1);
                let index_gen = Arc::clone(&work.index_gen);
                ctx.batcher.submit_detached(
                    row,
                    IdentifyTicket {
                        slot: work.slot,
                        generation: work.generation,
                        seq: work.seq,
                        started: work.started,
                        dispatch_started: started,
                        submitted: Instant::now(),
                        close_after: work.close_after,
                        rec: work.rec,
                        cache_key: key,
                        body,
                        index_gen,
                    },
                );
            }
        }
        return;
    }

    let started = Instant::now();
    let (endpoint, response) = dispatch(&work.request, &work.index_gen, ctx, &mut work.rec);
    let dispatch_ns = elapsed_ns(started);
    work.rec.compute_ns = dispatch_ns;
    obs::counter_add(&format!("serve.{endpoint}.requests"), 1);
    obs::hist_record(&format!("serve.{endpoint}.ns"), dispatch_ns);
    reply(work, endpoint, response, ctx);
}

/// Routes one (non-identify) request against the generation it pinned
/// at admission; returns the endpoint label the metrics use. `rec` is
/// the request's telemetry record — endpoints with per-shard fan-outs
/// attach their shard timings to it.
fn dispatch(
    request: &Request,
    gen: &Generation,
    ctx: &Ctx,
    rec: &mut RequestRecord,
) -> (&'static str, Response) {
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
                "patchdb_build_info{{version=\"{}\",snapshot_schema=\"patchdb-snapshot/v1\",\
                 serve_bench_schema=\"patchdb-serve/v2\"}} 1\n",
                env!("CARGO_PKG_VERSION")
            ));
            ("metrics", Response::metrics(text))
        }
        "/v1/stats" if get => {
            ("stats", Response::json(200, &gen.index.stats_json()))
        }
        "/v1/classify" if post => ("classify", classify(request, gen)),
        "/v1/scan" if post => ("scan", scan(request, gen, rec)),
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
            let n = debug_request_limit(path);
            ("debug_requests", Response::json(200, &ctx.telemetry.debug_requests_json(n)))
        }
        "/debug/slow" if get => {
            ("debug_slow", Response::json(200, &ctx.telemetry.debug_slow_json()))
        }
        _ if get && (path == "/debug/flight" || path.starts_with("/debug/flight?")) => {
            // The recent flight journal as Chrome trace-event JSON —
            // `?ms=N` restricts to the trailing N milliseconds.
            let window_us = query_param(path, "ms").map(|ms| ms.saturating_mul(1_000));
            let snap = obs::flight::snapshot(window_us);
            ("debug_flight", Response::json(200, &obs::export::flight_to_chrome(&snap)))
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
        | "/debug/flight" | "/debug/profile" | "/debug/timeseries" | "/debug/slo" => {
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
    match reload(&ctx.handle, source, ctx.shards) {
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

/// How many records `/debug/requests` should return: the `n` query
/// parameter, else 64.
fn debug_request_limit(path: &str) -> usize {
    const DEFAULT: usize = 64;
    let Some((_, query)) = path.split_once('?') else {
        return DEFAULT;
    };
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT)
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

fn scan(request: &Request, gen: &Generation, rec: &mut RequestRecord) -> Response {
    let Ok(target) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "bad_request", "body is not UTF-8");
    };
    let (outcome, shard_ns) = gen.index.scan_traced(target);
    if crate::tracing_enabled() {
        rec.shards = shard_ns;
    }
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
