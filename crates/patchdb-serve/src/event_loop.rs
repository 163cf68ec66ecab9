//! The non-blocking front end: one event-loop thread owns the listener
//! and every connection, all in non-blocking mode, multiplexed over
//! `rt::net::poll`.
//!
//! Division of labor:
//!
//! * **This loop** accepts, reads, frames (via the incremental parser in
//!   [`crate::http`]), answers `/v1/identify` cache hits itself
//!   ([`crate::server::identify_hit`]), admits every other *complete*
//!   request to the bounded worker queue, and writes responses — so a
//!   worker never blocks on a slow or stalled client, in either
//!   direction, and a hit costs a lookup, not a queue hop.
//! * **Workers** pop framed requests, run the endpoint, and hand the
//!   rendered response back through [`LoopShared::complete`], which
//!   wakes the loop via the self-pipe [`net::Waker`].
//!
//! Pipelining: requests on one connection are assigned ascending
//! sequence numbers at admission; completions may arrive out of order
//! (workers race, hits answer at once) and park in a per-connection
//! `BTreeMap` until their turn, so response *bytes* are always written
//! in request order. Answers made while framing (hits, sheds, framing
//! errors) are only staged; the read handler flushes them once framing
//! is done, so `write_ready` never re-enters itself however deep the
//! pipeline. Completions a wake drains are staged first too, so each
//! connection is flushed once per wake. A flush gathers the whole
//! outbox, up to and including a close-after response, into one
//! `write_vectored` of every unwritten head and body: eight pipelined
//! hits cost one syscall, not eight. The returned byte count is spread
//! over the front responses; a partly written one stays at the front
//! for `POLLOUT`.
//!
//! Lifecycle per connection:
//!
//! ```text
//!            ┌────────────────────────────────────┐
//!            ▼                                    │ keep-alive
//! accept → IDLE → READING → ADMITTED → WRITING ───┤
//!            │        │         │          │      │ close / cap /
//!            │        │         │          ▼      ▼ drain
//!            └────────┴─────────┴───────→ CLOSED
//!           idle timeout   partial-request deadline   EOF / error
//! ```
//!
//! Shutdown is cooperative: the server flips a stop flag and wakes the
//! loop; the loop stops accepting, marks every connection
//! close-after-response, grants in-flight (and still-arriving) requests
//! until the drain deadline, and exits once the last connection closes
//! — no throwaway wake-up connection.

use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use patchdb_rt::net::{self, PollFd, POLLIN, POLLOUT};
use patchdb_rt::obs;
use patchdb_rt::queue::BoundedQueue;

use crate::handle::{reload, IndexHandle, ReloadSource};
use crate::http::{render_head, RequestParser, Response};
use crate::server::{identify_hit, identify_key, ServeConfig, Work};
use crate::telemetry::{elapsed_ns, elapsed_since, RequestRecord, Telemetry};

/// Upper bound on admitted-but-unanswered requests per connection; a
/// client pipelining deeper than this stops being read until responses
/// drain (read-side backpressure, not an error).
const MAX_PIPELINED: usize = 128;

/// Upper bound on the slices one gathered write carries: a head and a
/// body for each of a connection's at most `MAX_PIPELINED` responses.
/// `writev` rejects more than `IOV_MAX` (1024 on Linux and the BSDs).
const GATHER_SLICES: usize = 2 * MAX_PIPELINED;
const _: () = assert!(GATHER_SLICES <= 1024);

/// Timer-wheel granularity. Deadlines fire at most one tick late.
const TICK_MS: u64 = 50;
/// Wheel horizon = `TICK_MS * WHEEL_SLOTS`; later deadlines clamp to the
/// last slot and reschedule when popped (lazy re-check makes this safe).
const WHEEL_SLOTS: usize = 1024;

/// A finished response traveling back to the event loop.
pub(crate) struct Completion {
    /// Connection slot the response belongs to.
    pub slot: usize,
    /// Generation guard: stale completions for a recycled slot are
    /// dropped instead of corrupting an unrelated connection.
    pub generation: u64,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The request's clock origin (for `total_ns` at write completion).
    pub started: Instant,
    /// Rendered response head (status line through blank line).
    pub head: Vec<u8>,
    /// Response body, byte-identical across worker counts and modes.
    pub body: Vec<u8>,
    /// The request's telemetry record, observed once the bytes are out.
    pub rec: RequestRecord,
    /// Close the connection after this response is written.
    pub close_after: bool,
}

/// The mailbox + waker pair workers complete through.
pub(crate) struct LoopShared {
    mailbox: Mutex<Vec<Completion>>,
    waker: net::Waker,
}

impl LoopShared {
    pub fn new(waker: net::Waker) -> LoopShared {
        LoopShared { mailbox: Mutex::new(Vec::new()), waker }
    }

    /// Publishes a completion and wakes the loop. The push happens
    /// before the wake, so the loop always finds the completion once
    /// woken.
    pub fn complete(&self, completion: Completion) {
        self.mailbox.lock().unwrap().push(completion);
        self.waker.wake();
    }

    /// Wakes the loop without a completion (shutdown nudge).
    pub fn wake(&self) {
        self.waker.wake();
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.mailbox.lock().unwrap())
    }

    /// Drains the mailbox outside a running loop (unit tests only).
    #[cfg(test)]
    pub fn take_for_test(&self) -> Vec<Completion> {
        self.take()
    }
}

/// One response staged for (or mid-) write.
struct Outgoing {
    head: Vec<u8>,
    body: Vec<u8>,
    /// Bytes of `head` then `body` already on the wire.
    written: usize,
    started: Instant,
    /// When the first write call that carried this response's bytes
    /// started (`None` until one did).
    write_started: Option<Instant>,
    rec: RequestRecord,
    close_after: bool,
}

impl Outgoing {
    fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// The unwritten rest of the head and of the body.
    fn unwritten(&self) -> (&[u8], &[u8]) {
        let head = &self.head[self.written.min(self.head.len())..];
        let body = &self.body[self.written.saturating_sub(self.head.len())..];
        (head, body)
    }

    /// The record of a response whose last byte went out with the write
    /// call that returned at `returned`: its write stage runs from the
    /// first call that carried its bytes to that return.
    fn finish(self, returned: Instant) -> RequestRecord {
        let mut rec = self.rec;
        let write_started = self.write_started.expect("spread marks every response it advances");
        rec.write_ns = elapsed_since(write_started, returned);
        rec.total_ns = elapsed_since(self.started, returned);
        rec
    }
}

/// Spreads `n` bytes, which one write call started at `call_started`
/// just sent from the front of `outbox`, over its responses in order.
/// Returns how many front responses are now fully written; a partly
/// written one stays at the front with its offset advanced.
fn spread(outbox: &mut VecDeque<Outgoing>, mut n: usize, call_started: Instant) -> usize {
    let mut done = 0;
    for out in outbox.iter_mut() {
        if n == 0 {
            break;
        }
        out.write_started.get_or_insert(call_started);
        let step = n.min(out.len() - out.written);
        out.written += step;
        n -= step;
        if out.written < out.len() {
            break;
        }
        done += 1;
    }
    debug_assert_eq!(n, 0, "a write returned more bytes than it was given");
    done
}

/// Why a connection is being torn down; selects the terminal counter
/// and record classification.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Protocol-clean: close-after-response written, or EOF between
    /// requests.
    Clean,
    /// EOF or read error mid-request: the client hung up.
    Disconnect,
    /// Partial request (or stalled reader) outlived its deadline.
    Deadline,
    /// The socket refused our response bytes.
    WriteFailed,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    generation: u64,
    /// Clock origin for the request currently being framed: the accept
    /// instant for the first request, the first byte's arrival after.
    req_started: Option<Instant>,
    /// Accept-to-registration duration, charged to the first request.
    accept_ns: u64,
    first_request: bool,
    /// Next sequence number to assign at admission.
    next_seq: u64,
    /// Next sequence number eligible to enter the outbox.
    next_out: u64,
    /// Admitted-but-not-fully-written responses (inflight + parked +
    /// outbox) — the pipelining depth.
    pending: usize,
    parked: BTreeMap<u64, Outgoing>,
    outbox: VecDeque<Outgoing>,
    served: u64,
    /// Stop reading; close once this sequence number has been written.
    close_after: Option<u64>,
    read_closed: bool,
    idle_since: Instant,
    /// Last time response bytes left the socket (write-stall guard).
    last_progress: Instant,
    deadline_at: Option<Instant>,
    /// The earliest instant this connection has a wheel entry for
    /// (`None` once it popped): a later deadline needs no entry of its
    /// own, the lazy re-check moves it when this one pops.
    wheel_at: Option<Instant>,
}

impl Conn {
    /// Whether the loop should ask for read readiness.
    fn wants_read(&self) -> bool {
        !self.read_closed && self.close_after.is_none() && self.pending < MAX_PIPELINED
    }
}

/// A low-resolution hashed timer wheel with lazy re-validation: entries
/// are (slot, generation) hints; popping one re-checks the connection's
/// authoritative `deadline_at` and reschedules if it moved. Stale
/// entries (connection closed, deadline pushed back) cost one pop each.
struct TimerWheel {
    epoch: Instant,
    cursor: u64,
    slots: Vec<Vec<(usize, u64)>>,
}

impl TimerWheel {
    fn new(epoch: Instant) -> TimerWheel {
        TimerWheel { epoch, cursor: 0, slots: vec![Vec::new(); WHEEL_SLOTS] }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.epoch).as_millis() as u64) / TICK_MS
    }

    fn schedule(&mut self, at: Instant, slot: usize, generation: u64) {
        let tick = self.tick_of(at).max(self.cursor);
        let tick = tick.min(self.cursor + WHEEL_SLOTS as u64 - 1);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push((slot, generation));
    }

    /// Pops every entry whose tick has passed.
    fn take_due(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let now_tick = self.tick_of(now);
        let mut due = Vec::new();
        while self.cursor <= now_tick {
            let idx = (self.cursor % WHEEL_SLOTS as u64) as usize;
            due.append(&mut self.slots[idx]);
            self.cursor += 1;
        }
        due
    }

    /// Milliseconds until the next scheduled entry, `-1` when empty.
    fn next_timeout_ms(&self, now: Instant) -> i32 {
        for offset in 0..WHEEL_SLOTS as u64 {
            let tick = self.cursor + offset;
            if !self.slots[(tick % WHEEL_SLOTS as u64) as usize].is_empty() {
                let fires_at_ms = (tick + 1) * TICK_MS;
                let now_ms = now.saturating_duration_since(self.epoch).as_millis() as u64;
                return fires_at_ms.saturating_sub(now_ms).min(i32::MAX as u64) as i32;
            }
        }
        -1
    }
}

/// Closes the worker queue when dropped.
struct CloseOnDrop(Arc<BoundedQueue<Work>>);

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        self.0.close();
    }
}

pub(crate) struct EventLoop {
    listener: TcpListener,
    queue: Arc<BoundedQueue<Work>>,
    shared: Arc<LoopShared>,
    wake_rx: net::WakeReader,
    stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
    idle_timeout: Duration,
    /// `u64::MAX` when unlimited.
    max_requests: u64,
    max_conns: usize,
    deadline: Duration,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    open: usize,
    wheel: TimerWheel,
    draining: Option<Instant>,
    /// The live index handle; every admitted request pins the current
    /// generation here.
    handle: IndexHandle,
    /// SIGHUP rebuild source (`None` = the signal is ignored).
    reload: Option<ReloadSource>,
    /// Last process second the tsdb sampler and SLO evaluation ran for;
    /// the loop drives both once per second from its own thread.
    last_sampled_s: u64,
    /// Set while `write_ready` runs: it must never re-enter itself.
    flushing: bool,
    /// Responses finished per write call since the last merge into
    /// `serve.write.responses` (once per loop iteration).
    write_responses: obs::Hist,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        listener: TcpListener,
        queue: Arc<BoundedQueue<Work>>,
        shared: Arc<LoopShared>,
        wake_rx: net::WakeReader,
        stop: Arc<AtomicBool>,
        telemetry: Arc<Telemetry>,
        config: &ServeConfig,
        handle: IndexHandle,
    ) -> EventLoop {
        EventLoop {
            listener,
            queue,
            shared,
            wake_rx,
            stop,
            telemetry,
            idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
            max_requests: if config.max_requests_per_conn == 0 {
                u64::MAX
            } else {
                config.max_requests_per_conn
            },
            max_conns: config.max_conns.max(1),
            deadline: Duration::from_millis(config.deadline_ms.max(1)),
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            open: 0,
            wheel: TimerWheel::new(Instant::now()),
            draining: None,
            handle,
            reload: config.reload.clone(),
            last_sampled_s: u64::MAX,
            flushing: false,
            write_responses: obs::Hist::default(),
        }
    }

    /// Runs until shutdown completes; closes the worker queue on exit,
    /// normal or by panic, so the pool drains and joins.
    ///
    /// Each iteration is instrumented for the loop-health report:
    /// `serve.loop.poll_wait_ns` vs `serve.loop.work_ns` split the
    /// loop's life into "asleep in poll" and "dispatching", wakeup-cause
    /// counters (`serve.loop.wake.{waker,listener,readable,writable,
    /// timer}`) say *why* it woke, `serve.loop.dispatched_fds` sizes
    /// each tick, and `serve.loop.lag_ns` measures how long a ready fd
    /// waited behind its siblings before its handler ran.
    pub fn run(mut self) {
        // Closes the queue on every exit, a panic included: a worker
        // blocked in `pop` on a queue nobody closes hangs shutdown.
        let _close_queue = CloseOnDrop(Arc::clone(&self.queue));
        let mut read_buf = vec![0u8; 64 * 1024];
        let mut pollfds: Vec<PollFd> = Vec::new();
        // (slot, generation) for each conn entry in `pollfds`, in order.
        let mut index: Vec<(usize, u64)> = Vec::new();
        // Start of the current work phase (the last poll return).
        let mut work_started: Option<Instant> = None;
        loop {
            if self.draining.is_none() && self.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining.is_some() && self.open == 0 {
                break;
            }

            pollfds.clear();
            index.clear();
            pollfds.push(PollFd::new(&self.wake_rx, POLLIN));
            // The listener stays armed even at the connection cap:
            // over-cap arrivals are answered 503 and closed rather than
            // left to rot in the backlog.
            let accepting = self.draining.is_none();
            if accepting {
                pollfds.push(PollFd::new(&self.listener, POLLIN));
            }
            let base = pollfds.len();
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0i16;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if !conn.outbox.is_empty() {
                    events |= POLLOUT;
                }
                // Zero-interest conns are still registered: POLLERR and
                // POLLHUP are always reported, so dead peers are noticed
                // even while pipeline-capped.
                pollfds.push(PollFd::new(&conn.stream, events));
                index.push((slot, conn.generation));
            }

            // The loop wakes at least once per second so the tsdb
            // sampler and SLO evaluation tick even on an idle server —
            // history with holes reads as an outage. One spurious wake
            // per idle second is noise next to the timer wheel's 50 ms
            // granularity under any load.
            let timeout = match self.wheel.next_timeout_ms(Instant::now()) {
                t if t < 0 => 1000,
                t => t.min(1000),
            };
            if let Some(t) = work_started.take() {
                obs::hist_record("serve.loop.work_ns", elapsed_ns(t));
            }
            let poll_started = Instant::now();
            let polled = {
                let _poll = obs::sampler::frame("loop.poll");
                net::poll(&mut pollfds, timeout)
            };
            let woke = Instant::now();
            work_started = Some(woke);
            obs::hist_record("serve.loop.poll_wait_ns", elapsed_since(poll_started, woke));
            if polled.is_err() {
                continue;
            }
            if pollfds[0].readable() {
                obs::counter_add("serve.loop.wake.waker", 1);
                self.wake_rx.drain();
            }
            // Completions are drained unconditionally — a waker byte can
            // coalesce behind socket traffic.
            self.drain_completions();
            // Once per process second: sample every registry metric into
            // the tsdb and re-evaluate the SLO burn rates. Runs on the
            // loop thread so no extra thread exists just to observe.
            let now_s = obs::process_second();
            if now_s != self.last_sampled_s {
                self.last_sampled_s = now_s;
                obs::tsdb::sample_registry(now_s);
                self.telemetry.slo().publish_gauges(now_s);
            }
            // SIGHUP lands here: the handler wrote a byte to the same
            // self-pipe, so the poll woke up and the flag is fresh. The
            // rebuild runs on its own thread — the loop (and every
            // in-flight request) keeps serving the old generation until
            // the atomic swap lands.
            if net::take_sighup() {
                self.sighup_reload();
            }
            if accepting && pollfds[base - 1].readable() {
                obs::counter_add("serve.loop.wake.listener", 1);
                self.accept_ready();
            }
            let mut dispatched: u64 = 0;
            let mut readable: u64 = 0;
            let mut writable: u64 = 0;
            let mut lag = obs::Hist::default();
            for (i, &(slot, generation)) in index.iter().enumerate() {
                let revents = pollfds[base + i].revents();
                if revents == 0 {
                    continue;
                }
                dispatched += 1;
                lag.record(elapsed_since(woke, Instant::now()));
                if self.generation_of(slot) != Some(generation) {
                    continue; // closed (and maybe recycled) this iteration
                }
                if pollfds[base + i].readable() {
                    readable += 1;
                    self.read_ready(slot, &mut read_buf);
                }
                if self.generation_of(slot) == Some(generation)
                    && pollfds[base + i].writable()
                {
                    writable += 1;
                    self.write_ready(slot);
                }
                // A zero-interest conn (pipeline-capped or close-after
                // with its response still at a worker) gets POLLERR/
                // POLLHUP reported unconditionally, and the handlers
                // above made no progress — without this, poll returns
                // ready immediately forever and the loop spins at 100%
                // CPU until (unless) the worker completes. The socket
                // is dead either way: tear it down now; the in-flight
                // completion lands on a stale generation and is banked
                // by drain_completions.
                if self.generation_of(slot) == Some(generation)
                    && pollfds[base + i].hangup()
                {
                    let conn = self.conns[slot].as_ref().expect("live slot");
                    if !conn.wants_read() && conn.outbox.is_empty() {
                        let reason = if conn.pending > 0 || conn.parser.has_partial() {
                            CloseReason::Disconnect
                        } else {
                            CloseReason::Clean
                        };
                        self.close_conn(slot, reason);
                    }
                }
            }
            if readable > 0 {
                obs::counter_add("serve.loop.wake.readable", readable);
            }
            if writable > 0 {
                obs::counter_add("serve.loop.wake.writable", writable);
            }
            if lag.count() > 0 {
                obs::hist_merge("serve.loop.lag_ns", &lag);
            }
            obs::hist_record("serve.loop.dispatched_fds", dispatched);
            obs::hist_merge("serve.write.responses", &std::mem::take(&mut self.write_responses));
            let now = Instant::now();
            let due = self.wheel.take_due(now);
            if !due.is_empty() {
                obs::counter_add("serve.loop.wake.timer", due.len() as u64);
            }
            for (slot, generation) in due {
                if self.generation_of(slot) == Some(generation) {
                    self.timer_due(slot, now);
                }
            }
        }
        // Dropping `_close_queue` lets the workers drain the remaining
        // queue (requests from connections that died waiting) and exit.
    }

    fn generation_of(&self, slot: usize) -> Option<u64> {
        self.conns.get(slot).and_then(|c| c.as_ref()).map(|c| c.generation)
    }

    /// Kicks off a SIGHUP-driven reload on a spawned thread. Failures
    /// are counted and logged, never fatal — the old generation keeps
    /// serving.
    fn sighup_reload(&self) {
        let Some(source) = self.reload.clone() else { return };
        obs::counter_add("serve.index.sighup", 1);
        let handle = self.handle.clone();
        let spawned = std::thread::Builder::new()
            .name("patchdb-serve-reload".into())
            .spawn(move || {
                if let Err(e) = reload(&handle, &source) {
                    obs::counter_add("serve.index.reload_failed", 1);
                    eprintln!("patchdb-serve: SIGHUP reload failed: {e}");
                }
            });
        if spawned.is_err() {
            obs::counter_add("serve.index.reload_failed", 1);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        let slots: Vec<usize> =
            (0..self.conns.len()).filter(|&s| self.conns[s].is_some()).collect();
        for slot in slots {
            let conn = self.conns[slot].as_mut().expect("live slot");
            // Idle keep-alive connections that already got an answer had
            // their turn: close them now. Connections that never served
            // a request (accepted just before shutdown) keep their grace
            // until the drain deadline, and anything with buffered or
            // in-flight work drains normally.
            if conn.served > 0 && conn.pending == 0 && !conn.parser.has_partial() {
                self.close_conn(slot, CloseReason::Clean);
                continue;
            }
            self.refresh_deadline(slot);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.draining.is_some() {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let accepted = Instant::now();
                    obs::counter_add("serve.accepted", 1);
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let over_capacity = self.open >= self.max_conns;
                    let slot = self.register(stream, accepted);
                    if over_capacity {
                        // Connection-level shed: answer 503 and close
                        // without reading a byte.
                        obs::counter_add("serve.rejected_503", 1);
                        self.shed(slot, accepted);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (ECONNABORTED, EMFILE): retry next wake
            }
        }
    }

    fn register(&mut self, stream: TcpStream, accepted: Instant) -> usize {
        self.next_generation += 1;
        let conn = Conn {
            stream,
            parser: RequestParser::default(),
            generation: self.next_generation,
            req_started: Some(accepted),
            accept_ns: elapsed_ns(accepted),
            first_request: true,
            next_seq: 0,
            next_out: 0,
            pending: 0,
            parked: BTreeMap::new(),
            outbox: VecDeque::new(),
            served: 0,
            close_after: None,
            read_closed: false,
            idle_since: accepted,
            last_progress: accepted,
            deadline_at: None,
            wheel_at: None,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.open += 1;
        obs::gauge_add("serve.open_conns", 1);
        self.refresh_deadline(slot);
        slot
    }

    /// Answers a connection over the cap `503` without reading a byte.
    fn shed(&mut self, slot: usize, started: Instant) {
        let conn = self.conns[slot].as_mut().expect("live slot");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending += 1;
        obs::gauge_add("serve.inflight", 1);
        let mut rec = RequestRecord::admitted(self.telemetry.next_id(), 0);
        rec.endpoint = "shed";
        self.answer_local(slot, seq, started, rec, Response::overloaded(1), true);
        self.write_ready(slot);
    }

    /// Answers request `seq` on `slot` from the loop itself, exactly as
    /// if a worker had sent the completion: status counter, client trace
    /// echo, head. The answer is only staged; the caller flushes.
    fn answer_local(
        &mut self,
        slot: usize,
        seq: u64,
        started: Instant,
        mut rec: RequestRecord,
        mut response: Response,
        close_after: bool,
    ) {
        let conn = self.conns[slot].as_mut().expect("live slot");
        if close_after {
            conn.close_after = Some(seq);
        }
        let generation = conn.generation;
        rec.status = response.status;
        if rec.trace_supplied {
            response = response.with_trace(&rec.trace);
        }
        let head = render_head(&response, !close_after, Some((rec.id, &rec.trace)));
        obs::counter_add(&crate::server::status_counter(rec.status), 1);
        self.stage(Completion {
            slot,
            generation,
            seq,
            started,
            head,
            body: response.body,
            rec,
            close_after,
        });
    }

    /// Stages every completion workers published, then flushes each
    /// connection they touched once: one write per connection per wake,
    /// however many of its responses came back.
    fn drain_completions(&mut self) {
        let mut touched: Vec<(usize, u64)> = Vec::new();
        for completion in self.shared.take() {
            if self.generation_of(completion.slot) != Some(completion.generation) {
                // The connection died while its request was in flight.
                // The work still happened; bank the record.
                obs::counter_add("serve.write_failed", 1);
                obs::gauge_add("serve.inflight", -1);
                let mut rec = completion.rec;
                rec.total_ns = elapsed_ns(completion.started);
                self.telemetry.observe(rec);
                continue;
            }
            touched.push((completion.slot, completion.generation));
            self.stage(completion);
        }
        touched.sort_unstable();
        touched.dedup();
        for (slot, generation) in touched {
            if self.generation_of(slot) == Some(generation) {
                self.write_ready(slot);
            }
        }
    }

    /// Parks a completion until its turn in the response order and
    /// promotes every in-order response to the outbox. Writes nothing.
    fn stage(&mut self, completion: Completion) {
        let conn = self.conns[completion.slot].as_mut().expect("generation checked");
        conn.parked.insert(
            completion.seq,
            Outgoing {
                head: completion.head,
                body: completion.body,
                written: 0,
                started: completion.started,
                write_started: None,
                rec: completion.rec,
                close_after: completion.close_after,
            },
        );
        while let Some(next) = conn.parked.remove(&conn.next_out) {
            conn.outbox.push_back(next);
            conn.next_out += 1;
        }
    }

    fn read_ready(&mut self, slot: usize, buf: &mut [u8]) {
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            if !conn.wants_read() {
                break;
            }
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    if conn.parser.has_partial() {
                        // Mid-request hangup: nobody is left to answer.
                        self.close_conn(slot, CloseReason::Disconnect);
                        return;
                    }
                    // Clean half-close between requests: serve whatever
                    // is still pending, then close.
                    if conn.pending == 0 {
                        self.close_conn(slot, CloseReason::Clean);
                        return;
                    }
                    break;
                }
                Ok(n) => {
                    let now = Instant::now();
                    let conn = self.conns[slot].as_mut().expect("live slot");
                    if conn.req_started.is_none() {
                        conn.req_started = Some(now);
                    }
                    conn.parser.feed(&buf[..n]);
                    self.pump_parser(slot);
                    if n < buf.len() {
                        break; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let partial = self.conns[slot]
                        .as_ref()
                        .is_some_and(|c| c.parser.has_partial() || c.pending > 0);
                    let reason = if partial {
                        CloseReason::Disconnect
                    } else {
                        CloseReason::Clean
                    };
                    self.close_conn(slot, reason);
                    return;
                }
            }
        }
        // One flush for everything framing answered on the loop.
        self.write_ready(slot);
    }

    /// Frames and admits every complete request buffered on `slot`,
    /// answering identify cache hits in place. Every answer made here is
    /// staged, never written: the caller flushes.
    fn pump_parser(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            // Nothing is framed past a request that closes the
            // connection (RFC 9112 §9.6): its response is the last one,
            // so work behind it would run only to be thrown away. The
            // bytes are dropped too: they are no request in progress, so
            // no partial-request deadline may close the connection
            // before that last response is out.
            if conn.close_after.is_some() {
                conn.parser = RequestParser::default();
                return;
            }
            if conn.pending >= MAX_PIPELINED {
                return; // backpressure: stop framing until writes drain
            }
            match conn.parser.next_request() {
                Ok(None) => return,
                Ok(Some(parsed)) => {
                    #[cfg(test)]
                    if parsed.request.path == tests::PANIC_PATH {
                        panic!("event-loop panic requested by a test");
                    }
                    let now = Instant::now();
                    let started = conn.req_started.take().unwrap_or(now);
                    let accept_ns = if conn.first_request { conn.accept_ns } else { 0 };
                    conn.first_request = false;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending += 1;
                    conn.served += 1;
                    let close_after = self.draining.is_some()
                        || !parsed.keep_alive
                        || conn.served >= self.max_requests;
                    if close_after {
                        conn.close_after = Some(seq);
                    }
                    // The next request's clock starts when its first
                    // byte arrived; pipelined leftovers are "arriving"
                    // right now.
                    if conn.parser.has_partial() {
                        conn.req_started = Some(now);
                    }
                    let generation = conn.generation;
                    let mut rec = RequestRecord::admitted(self.telemetry.next_id(), accept_ns);
                    rec.method = parsed.request.method.clone();
                    rec.path = parsed.request.path.clone();
                    rec.parse_ns = elapsed_ns(started).saturating_sub(accept_ns);
                    if let Some(trace) = parsed.trace {
                        rec.trace = trace;
                        rec.trace_supplied = true;
                    }
                    obs::gauge_add("serve.inflight", 1);
                    // Pin the index generation at admission: this
                    // request answers from this exact index/cache no
                    // matter when a swap lands.
                    let index_gen = self.handle.load();
                    rec.generation = index_gen.number;
                    let deadline = started + self.deadline;
                    // The body is hashed once: a hit answers here, a miss
                    // carries the key to its worker.
                    let identify_key = identify_key(&parsed.request);
                    if let Some(key) = identify_key.filter(|_| now < deadline) {
                        let body = &parsed.request.body;
                        if let Some(response) = identify_hit(body, key, &index_gen, &mut rec) {
                            self.answer_local(slot, seq, started, rec, response, close_after);
                            continue;
                        }
                    }
                    obs::gauge_add("serve.queue_depth", 1);
                    let work = Work {
                        request: parsed.request,
                        slot,
                        generation,
                        seq,
                        started,
                        deadline,
                        close_after,
                        enqueued: Instant::now(),
                        identify_key,
                        rec,
                        index_gen,
                    };
                    if let Err(refused) = self.queue.try_push(work) {
                        // Admission backpressure: shed this request with
                        // the retry hint and close the connection (its
                        // response order would otherwise gap).
                        obs::gauge_add("serve.queue_depth", -1);
                        obs::counter_add("serve.rejected_503", 1);
                        let mut work = refused.into_inner();
                        work.rec.endpoint = "shed";
                        let response = Response::overloaded(1);
                        self.answer_local(slot, seq, work.started, work.rec, response, true);
                        return;
                    }
                }
                Err(frame_error) => {
                    // Malformed/oversized framing: answer and close. The
                    // parser is poisoned, so no further requests follow.
                    let now = Instant::now();
                    let started = conn.req_started.take().unwrap_or(now);
                    let accept_ns = if conn.first_request { conn.accept_ns } else { 0 };
                    conn.first_request = false;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending += 1;
                    let mut rec = RequestRecord::admitted(self.telemetry.next_id(), accept_ns);
                    rec.endpoint = "parse";
                    rec.parse_ns = elapsed_ns(started).saturating_sub(accept_ns);
                    obs::gauge_add("serve.inflight", 1);
                    self.answer_local(slot, seq, started, rec, frame_error.response(), true);
                    return;
                }
            }
        }
    }

    /// Writes the connection's outbox until it empties or the socket
    /// would block, then re-arms its deadline. May close the connection.
    fn write_ready(&mut self, slot: usize) {
        debug_assert!(!self.flushing, "write_ready re-entered");
        self.flushing = true;
        self.flush(slot);
        self.flushing = false;
    }

    fn flush(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            if conn.outbox.is_empty() {
                break;
            }
            // Gather every staged response's unwritten bytes, in order,
            // up to and including the one that closes the connection.
            let mut slices = Vec::with_capacity((2 * conn.outbox.len()).min(GATHER_SLICES));
            for out in &conn.outbox {
                if slices.len() + 2 > GATHER_SLICES {
                    break;
                }
                let (head, body) = out.unwritten();
                if !head.is_empty() {
                    slices.push(IoSlice::new(head));
                }
                slices.push(IoSlice::new(body));
                if out.close_after {
                    break;
                }
            }
            let call_started = Instant::now();
            let result = conn.stream.write_vectored(&slices);
            // Read once per call, before any record is observed: every
            // response this call finishes ends at this instant.
            let returned = Instant::now();
            match result {
                Ok(0) => {
                    self.close_conn(slot, CloseReason::WriteFailed);
                    return;
                }
                Ok(n) => {
                    conn.last_progress = returned;
                    let was_capped = conn.pending >= MAX_PIPELINED;
                    let done = spread(&mut conn.outbox, n, call_started);
                    self.write_responses.record(done as u64);
                    if done == 0 {
                        continue; // partial write: try once more, then POLLOUT
                    }
                    conn.pending -= done;
                    if conn.pending == 0 {
                        conn.idle_since = returned;
                    }
                    obs::gauge_add("serve.inflight", -(done as i64));
                    let mut closing = false;
                    for out in conn.outbox.drain(..done) {
                        closing |= out.close_after;
                        self.telemetry.observe(out.finish(returned));
                    }
                    if closing {
                        self.close_conn(slot, CloseReason::Clean);
                        return;
                    }
                    // Leaving backpressure: requests already buffered
                    // past the cap get no readable event of their own.
                    // What the pump answers lands in the outbox this
                    // loop is draining.
                    if was_capped && conn.pending < MAX_PIPELINED {
                        self.pump_parser(slot);
                    }
                    let conn = self.conns[slot].as_mut().expect("live slot");
                    if conn.pending == 0
                        && (conn.read_closed
                            || (self.draining.is_some() && !conn.parser.has_partial()))
                    {
                        // Half-closed peers and drained-out keep-alive
                        // conns are done once the last response is out.
                        self.close_conn(slot, CloseReason::Clean);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, CloseReason::WriteFailed);
                    return;
                }
            }
        }
        self.refresh_deadline(slot);
    }

    /// Recomputes the connection's earliest deadline and schedules it on
    /// the wheel when it is earlier than the connection's live entry.
    /// Cheap enough to call after every state change: a connection holds
    /// one live entry, however many requests it serves, and stale
    /// entries re-validate lazily.
    fn refresh_deadline(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        let mut deadline: Option<Instant> = None;
        let mut consider = |at: Instant| {
            deadline = Some(deadline.map_or(at, |d: Instant| d.min(at)));
        };
        if conn.parser.has_partial() {
            if let Some(started) = conn.req_started {
                consider(started + self.deadline);
            }
        }
        if conn.pending == 0 && !conn.parser.has_partial() {
            consider(conn.idle_since + self.idle_timeout);
        }
        if !conn.outbox.is_empty() {
            consider(conn.last_progress + self.idle_timeout);
        }
        if let Some(drain_started) = self.draining {
            consider(drain_started + self.deadline);
        }
        conn.deadline_at = deadline;
        if let Some(at) = deadline {
            if conn.wheel_at.is_none_or(|scheduled| at < scheduled) {
                conn.wheel_at = Some(at);
                self.wheel.schedule(at, slot, conn.generation);
            }
        }
    }

    fn timer_due(&mut self, slot: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        conn.wheel_at = None;
        match conn.deadline_at {
            None => {}
            Some(at) if at > now => {
                // The deadline moved since this entry was scheduled.
                conn.wheel_at = Some(at);
                self.wheel.schedule(at, slot, conn.generation);
            }
            Some(_) => {
                let reason = if conn.parser.has_partial() || !conn.outbox.is_empty() {
                    CloseReason::Deadline
                } else {
                    // Idle (or drained-idle) connection: close silently.
                    CloseReason::Clean
                };
                if reason == CloseReason::Clean {
                    obs::counter_add("serve.idle_closed", 1);
                }
                self.close_conn(slot, reason);
            }
        }
    }

    fn close_conn(&mut self, slot: usize, reason: CloseReason) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        self.free.push(slot);
        self.open -= 1;
        obs::gauge_add("serve.open_conns", -1);

        // A partial request that will never complete gets a terminal
        // record so hangups and deadline expiries stay observable.
        match reason {
            CloseReason::Disconnect if conn.parser.has_partial() => {
                obs::counter_add("serve.read_failed", 1);
                let mut rec =
                    RequestRecord::admitted(self.telemetry.next_id(), conn.accept_ns);
                rec.endpoint = "disconnect";
                if let Some(started) = conn.req_started {
                    rec.total_ns = elapsed_ns(started);
                }
                self.telemetry.observe(rec);
            }
            CloseReason::Deadline => {
                obs::counter_add("serve.deadline_expired", 1);
                if conn.parser.has_partial() {
                    let mut rec =
                        RequestRecord::admitted(self.telemetry.next_id(), conn.accept_ns);
                    rec.endpoint = "deadline";
                    if let Some(started) = conn.req_started {
                        rec.total_ns = elapsed_ns(started);
                    }
                    self.telemetry.observe(rec);
                }
            }
            _ => {}
        }

        // Unwritten responses died with the socket: bank their records.
        let unwritten =
            conn.outbox.drain(..).chain(std::mem::take(&mut conn.parked).into_values());
        for out in unwritten {
            obs::counter_add("serve.write_failed", 1);
            obs::gauge_add("serve.inflight", -1);
            let mut rec = out.rec;
            rec.total_ns = elapsed_ns(out.started);
            self.telemetry.observe(rec);
        }
        // In-flight requests still at the workers complete into a stale
        // generation and are banked by drain_completions.
        drop(conn);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::ServeIndex;
    use patchdb::PatchDb;

    /// A request for this path panics the loop thread (test builds only).
    pub(crate) const PANIC_PATH: &str = "/test/panic-loop";

    const HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";

    /// A loop over an empty index with one accepted client connection
    /// and an admission queue of `capacity`; the test plays both the
    /// poll loop and the worker.
    fn loop_with_client(
        capacity: usize,
    ) -> (EventLoop, TcpStream, Arc<BoundedQueue<Work>>, Arc<LoopShared>, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let queue = Arc::new(BoundedQueue::new(capacity));
        let (waker, wake_rx) = net::Waker::new().unwrap();
        let shared = Arc::new(LoopShared::new(waker));
        let config = ServeConfig::default();
        let mut event_loop = EventLoop::new(
            listener,
            Arc::clone(&queue),
            Arc::clone(&shared),
            wake_rx,
            Arc::new(AtomicBool::new(false)),
            Arc::new(Telemetry::new(&config).unwrap()),
            &config,
            IndexHandle::from(ServeIndex::build(PatchDb::default())),
        );
        let client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        while event_loop.open == 0 {
            event_loop.accept_ready();
        }
        let slot = event_loop.conns.iter().position(Option::is_some).unwrap();
        (event_loop, client, queue, shared, slot)
    }

    /// Reads and frames until `n` requests wait in the queue.
    fn admit(event_loop: &mut EventLoop, slot: usize, queue: &BoundedQueue<Work>, n: usize) {
        let mut buf = vec![0u8; 4096];
        while queue.len() < n {
            let stream = &event_loop.conns[slot].as_ref().unwrap().stream;
            net::poll(&mut [PollFd::new(stream, POLLIN)], 10_000).unwrap();
            event_loop.read_ready(slot, &mut buf);
        }
    }

    /// The fixed answer the tests' worker sends for `work`.
    fn answer(work: Work) -> Completion {
        Completion {
            slot: work.slot,
            generation: work.generation,
            seq: work.seq,
            started: work.started,
            head: HEAD.to_vec(),
            body: Vec::new(),
            rec: work.rec,
            close_after: false,
        }
    }

    #[test]
    fn keep_alive_cycles_hold_one_wheel_entry() {
        let (mut event_loop, mut client, queue, shared, slot) = loop_with_client(8);
        let mut answered = vec![0u8; HEAD.len()];
        for _ in 0..1000 {
            client.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            admit(&mut event_loop, slot, &queue, 1);
            shared.complete(answer(queue.pop().unwrap()));
            event_loop.drain_completions();
            client.read_exact(&mut answered).unwrap();
            assert_eq!(answered, HEAD);
        }
        let entries: usize = event_loop.wheel.slots.iter().map(Vec::len).sum();
        assert_eq!(entries, 1, "1000 keep-alive cycles left {entries} wheel entries");
    }

    #[test]
    fn completions_drained_in_one_wake_go_out_in_one_write() {
        let (mut event_loop, mut client, queue, shared, slot) = loop_with_client(8);
        client.write_all(&b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(3)).unwrap();
        admit(&mut event_loop, slot, &queue, 3);
        let mut works: Vec<Option<Work>> = (0..3).map(|_| queue.pop()).collect();
        // Completed out of order, as racing workers would: a flush per
        // completion would write twice, once 0 lets 1 through, then 2.
        for seq in [1, 0, 2] {
            shared.complete(answer(works[seq].take().unwrap()));
        }
        event_loop.drain_completions();
        let calls = &event_loop.write_responses;
        assert_eq!((calls.count(), calls.sum()), (1, 3), "three responses, one write call");
        let mut answered = vec![0u8; 3 * HEAD.len()];
        client.read_exact(&mut answered).unwrap();
        assert_eq!(answered, HEAD.repeat(3));
        let conn = event_loop.conns[slot].as_ref().unwrap();
        assert_eq!((conn.pending, conn.outbox.len()), (0, 0));
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SOL_SOCKET: i32 = 1;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SO_SNDBUF: i32 = 7;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SO_RCVBUF: i32 = 8;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SO_SNDBUF: i32 = 0x1001;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SO_RCVBUF: i32 = 0x1002;

    /// Sets a socket's `SO_SNDBUF` or `SO_RCVBUF` (`name`) to `bytes`.
    fn set_buffer(stream: &TcpStream, name: i32, bytes: i32) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        // SAFETY: the descriptor stays open for the borrow of `stream`,
        // and `value` points at a live `i32` whose size is `len`.
        let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, name, &bytes, 4) };
        assert_eq!(rc, 0, "setsockopt: {}", std::io::Error::last_os_error());
    }

    /// Short gathered writes on a real socket: with an 8 KiB send
    /// buffer, a 64 KiB receive buffer and a slow reader, writes stop
    /// inside heads and inside bodies, and the bytes still arrive whole
    /// and in order. (A receive buffer below the loopback MSS would stall
    /// on zero-window probes instead.)
    #[test]
    fn short_gathered_writes_resume_where_they_stopped() {
        const N: usize = 128;
        let (mut event_loop, mut client, queue, shared, slot) = loop_with_client(N);
        set_buffer(&event_loop.conns[slot].as_ref().unwrap().stream, SO_SNDBUF, 4096);
        client.write_all(&b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(N)).unwrap();
        set_buffer(&client, SO_RCVBUF, 32768);
        admit(&mut event_loop, slot, &queue, N);

        // Heads and bodies of about three kilobytes each, no two alike.
        let mut expected = Vec::new();
        for i in 0..N {
            let mut completion = answer(queue.pop().unwrap());
            completion.body = format!("body {i};").repeat(400 + i).into_bytes();
            completion.head = format!(
                "HTTP/1.1 200 OK\r\nX-Pad: {}\r\nContent-Length: {}\r\n\r\n",
                "h".repeat(3000 + 7 * i),
                completion.body.len()
            )
            .into_bytes();
            expected.extend_from_slice(&completion.head);
            expected.extend_from_slice(&completion.body);
            shared.complete(completion);
        }

        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut got = Vec::new();
                let mut chunk = [0u8; 700];
                while got.len() < expected.len() {
                    let n = client.read(&mut chunk).unwrap();
                    assert!(n > 0, "EOF after {} bytes", got.len());
                    got.extend_from_slice(&chunk[..n]);
                    std::thread::sleep(Duration::from_micros(200));
                }
                got
            });
            let (mut in_head, mut in_body) = (0, 0);
            event_loop.drain_completions();
            loop {
                let conn = event_loop.conns[slot].as_ref().unwrap();
                let Some(front) = conn.outbox.front() else {
                    break;
                };
                match front.written {
                    0 => {}
                    w if w < front.head.len() => in_head += 1,
                    _ => in_body += 1,
                }
                net::poll(&mut [PollFd::new(&conn.stream, POLLOUT)], 10_000).unwrap();
                event_loop.write_ready(slot);
            }
            assert!(
                in_head > 0 && in_body > 0,
                "short writes: {in_head} in heads, {in_body} in bodies"
            );
            assert_eq!(reader.join().unwrap(), expected);
        });
        let conn = event_loop.conns[slot].as_ref().unwrap();
        assert_eq!(conn.pending, 0);
        assert_eq!(event_loop.write_responses.sum(), N as u64);
    }

    fn outgoing(id: u64, started: Instant) -> Outgoing {
        let mut rec = RequestRecord::admitted(id, 0);
        rec.parse_ns = 100;
        rec.compute_ns = 200;
        Outgoing {
            head: vec![b'h'; 10],
            body: vec![b'b'; 20],
            written: 0,
            started,
            write_started: None,
            rec,
            close_after: false,
        }
    }

    #[test]
    fn spread_finishes_whole_responses_and_keeps_a_partial_one_at_the_front() {
        let t0 = Instant::now();
        let mut outbox: VecDeque<Outgoing> = (0..3).map(|id| outgoing(id, t0)).collect();
        let calls: Vec<Instant> = (1..=3).map(|ms| t0 + Duration::from_millis(ms)).collect();

        // A short write inside the first head.
        assert_eq!(spread(&mut outbox, 5, calls[0]), 0);
        assert_eq!(outbox[0].unwritten(), (&[b'h'; 5][..], &[b'b'; 20][..]));
        assert_eq!(outbox[0].write_started, Some(calls[0]));
        assert_eq!(outbox[1].write_started, None, "no byte of the second went out");

        // Then one inside its body: the write clock keeps its first call.
        assert_eq!(spread(&mut outbox, 15, calls[1]), 0);
        assert_eq!(outbox[0].unwritten(), (&[][..], &[b'b'; 10][..]));
        assert_eq!(outbox[0].write_started, Some(calls[0]));

        // Then one that ends exactly on the second response's last byte.
        assert_eq!(spread(&mut outbox, 10 + 30, calls[2]), 2);
        assert_eq!(outbox[1].write_started, Some(calls[2]));
        assert_eq!((outbox[2].written, outbox[2].write_started), (0, None));

        let returned = calls[2] + Duration::from_micros(7);
        let first = outbox.pop_front().unwrap().finish(returned);
        let second = outbox.pop_front().unwrap().finish(returned);
        assert_eq!(first.write_ns, elapsed_since(calls[0], returned));
        assert_eq!(second.write_ns, elapsed_since(calls[2], returned));
    }

    #[test]
    fn responses_finished_by_one_call_share_its_end_instant() {
        let t0 = Instant::now();
        let started: Vec<Instant> = (0..3).map(|i| t0 + Duration::from_micros(i)).collect();
        let mut outbox: VecDeque<Outgoing> =
            started.iter().enumerate().map(|(i, &s)| outgoing(i as u64, s)).collect();
        let call_started = t0 + Duration::from_millis(1);
        assert_eq!(spread(&mut outbox, 3 * 30, call_started), 3);
        let returned = call_started + Duration::from_micros(9);
        for (out, started) in outbox.drain(..).zip(started) {
            let rec = out.finish(returned);
            assert_eq!(started + Duration::from_nanos(rec.total_ns), returned);
            assert_eq!(rec.write_ns, 9_000, "the write stage is the shared call");
            assert!(rec.stage_sum_ns() <= rec.total_ns, "stages overrun the request");
        }
    }

    #[test]
    fn a_panicking_loop_thread_does_not_hang_shutdown() {
        let config = ServeConfig::default().addr("127.0.0.1:0").threads(2);
        let server =
            crate::server::Server::start(ServeIndex::build(PatchDb::default()), &config).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        client
            .write_all(format!("GET {PANIC_PATH} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        // The panic unwinds through the loop, which drops every socket.
        let _ = client.read(&mut [0u8; 64]);

        let (done, finished) = std::sync::mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        let returned = finished.recv_timeout(Duration::from_secs(10));
        assert!(returned.is_ok(), "shutdown still blocked 10 s after the loop thread panicked");
        shutdown.join().unwrap();
    }
}
