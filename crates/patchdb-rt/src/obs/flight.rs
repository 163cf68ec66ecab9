//! The flight recorder: an always-available, fixed-memory, per-thread
//! structured event journal — the "black box" an operator opens after a
//! p99 spike or a panic to see what the process was doing in the moments
//! before.
//!
//! Each thread owns a bounded, overwrite-oldest [`EventRing`] of
//! [`FlightEvent`]s (span enter/exit, counter deltas, event-loop ticks,
//! queue transitions). Recording is one monotonic clock read and one
//! push into the thread's own ring, stamped from a per-thread sequence
//! counter — no allocation for the `'static` names the hot paths use,
//! and no cross-thread contention beyond the ring's uncontended mutex
//! (a shared sequence counter's cacheline ping-pong was measured at
//! double-digit percent serve throughput). Memory is fixed: at most
//! [`FLIGHT_CAPACITY`] events per thread, oldest overwritten first, with
//! the drop count retained so a reader knows how much history was lost.
//!
//! Thread journals are registered in a process-global list and *outlive
//! their threads*: a postmortem wants the last events of a thread that
//! already exited. [`snapshot`] merges every journal into one
//! chronological stream (ordered by `(ts_us, tid, seq)`, which also
//! preserves per-thread program order).
//!
//! [`install_panic_hook`] chains onto the existing panic hook and dumps
//! the merged journal as Chrome trace-event JSON to `FLIGHT_<pid>.json`
//! (in `PATCHDB_FLIGHT_DIR`, or the working directory), so the file a
//! crash leaves behind opens directly in `chrome://tracing` / Perfetto.
//!
//! Recording is gated on its own toggle ([`set_enabled`] /
//! `PATCHDB_FLIGHT`), independent of the span registry: the serve path
//! turns it on by default and prices it in `BENCH_serve.json`. Like
//! every `rt::obs` family, the recorder observes and never steers —
//! nothing here feeds back into output bytes.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

use super::ring::EventRing;
use super::Switch;
use crate::json::Json;

/// Events each thread's journal retains before overwriting the oldest.
pub const FLIGHT_CAPACITY: usize = 2048;

/// What a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened (`value` unused).
    SpanEnter,
    /// A span closed (`value` = elapsed nanoseconds).
    SpanExit,
    /// A counter was bumped (`value` = the delta).
    Counter,
    /// One event-loop iteration completed (`value` = fds dispatched).
    Tick,
    /// A queue transition — admission, dequeue (`value` = request id or
    /// depth, per the recording site).
    Queue,
    /// A freeform marker.
    Mark,
}

impl FlightKind {
    /// Stable lowercase tag used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanEnter => "span_enter",
            FlightKind::SpanExit => "span_exit",
            FlightKind::Counter => "counter",
            FlightKind::Tick => "tick",
            FlightKind::Queue => "queue",
            FlightKind::Mark => "mark",
        }
    }
}

/// One journal entry: sequence-stamped within its thread, timestamped
/// in microseconds since the process metrics epoch, tagged with the
/// small integer id of the recording thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Per-thread sequence stamp — program order within `tid`. The
    /// merge key `(ts_us, tid, seq)` gives a deterministic total order
    /// without a shared counter on the record path.
    pub seq: u64,
    /// Microseconds since [`super::process_micros`]'s epoch.
    pub ts_us: u64,
    /// Small integer id of the recording thread (assigned at first
    /// record, stable for the thread's lifetime).
    pub tid: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The span/counter/queue name. Borrowed for the `'static` literals
    /// the hot paths record; owned only for dynamic names.
    pub name: Cow<'static, str>,
    /// Kind-specific payload (see [`FlightKind`]).
    pub value: u64,
}

static SWITCH: Switch = Switch::new("PATCHDB_FLIGHT");
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Whether flight recording is on (the `PATCHDB_FLIGHT` [`Switch`]).
#[inline]
pub fn enabled() -> bool {
    SWITCH.on()
}

/// Programmatic override of the `PATCHDB_FLIGHT` toggle.
pub fn set_enabled(on: bool) {
    SWITCH.set(on);
}

struct ThreadJournal {
    tid: u64,
    /// Per-thread sequence stamp. A single global counter here would put
    /// one cacheline under fetch_add ping-pong from every recording
    /// thread — measured at double-digit percent throughput loss on the
    /// serve path — so each thread numbers its own events and the merge
    /// key `(ts_us, tid, seq)` restores a deterministic total order.
    seq: AtomicU64,
    ring: EventRing<FlightEvent>,
}

/// Every journal ever created, including those of exited threads — a
/// postmortem wants the final events of a thread that died.
fn journals() -> &'static Mutex<Vec<Arc<ThreadJournal>>> {
    static JOURNALS: OnceLock<Mutex<Vec<Arc<ThreadJournal>>>> = OnceLock::new();
    JOURNALS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static JOURNAL: Arc<ThreadJournal> = {
        let journal = Arc::new(ThreadJournal {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
            ring: EventRing::new(FLIGHT_CAPACITY),
        });
        journals().lock().unwrap().push(Arc::clone(&journal));
        journal
    };
}

/// The small integer id the flight recorder assigned to this thread
/// (allocating one on first use). Exporters share this id so span and
/// loop events from one thread land on one timeline track.
pub fn thread_id() -> u64 {
    JOURNAL.with(|j| j.tid)
}

/// Records one event into this thread's journal. A no-op when the
/// recorder is off. Never blocks beyond the thread-own ring mutex, and
/// never allocates: the hot call sites all have `'static` names, so the
/// event borrows the name instead of copying it. Dynamic names (counter
/// echoes, span exits) go through [`record_dyn`].
pub fn record(kind: FlightKind, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    push_event(kind, Cow::Borrowed(name), value);
}

/// [`record`] for a name that only lives as long as the caller's borrow
/// — the one code path that pays a per-event allocation.
pub fn record_dyn(kind: FlightKind, name: &str, value: u64) {
    if !enabled() {
        return;
    }
    push_event(kind, Cow::Owned(name.to_owned()), value);
}

fn push_event(kind: FlightKind, name: Cow<'static, str>, value: u64) {
    let ts_us = super::process_micros();
    JOURNAL.with(|j| {
        let seq = j.seq.fetch_add(1, Ordering::Relaxed);
        j.ring.push(FlightEvent { seq, ts_us, tid: j.tid, kind, name, value });
    });
}

/// The calling thread's sequence watermark: every event this thread
/// records after this call carries `seq >=` the returned value. Lets a
/// reader scope a snapshot to "what this thread did since I last
/// looked"; stamps are per-thread, so the watermark says nothing about
/// other threads' journals.
pub fn seq_watermark() -> u64 {
    JOURNAL.with(|j| j.seq.load(Ordering::Relaxed))
}

/// The merged journal: every thread's retained events in one
/// chronological stream, plus how many events were overwritten.
#[derive(Debug, Clone, Default)]
pub struct FlightSnapshot {
    /// Events ordered by `(ts_us, tid, seq)` — chronological, with the
    /// thread id and its sequence stamp breaking microsecond ties
    /// (which also preserves each thread's program order).
    pub events: Vec<FlightEvent>,
    /// Events lost to overwrite across all journals.
    pub dropped: u64,
    /// Events ever recorded across all journals.
    pub total: u64,
}

/// Drains a merged chronological snapshot of every thread journal.
/// `window_us` limits the view to events at most that many microseconds
/// old; `None` returns everything retained.
pub fn snapshot(window_us: Option<u64>) -> FlightSnapshot {
    let cutoff = window_us.map(|w| super::process_micros().saturating_sub(w));
    let mut out = FlightSnapshot::default();
    let journals = journals().lock().unwrap();
    for journal in journals.iter() {
        out.dropped += journal.ring.dropped();
        out.total += journal.ring.total();
        for event in journal.ring.recent(FLIGHT_CAPACITY) {
            if cutoff.map_or(true, |c| event.ts_us >= c) {
                out.events.push(event);
            }
        }
    }
    out.events.sort_by_key(|e| (e.ts_us, e.tid, e.seq));
    out
}

/// Chains a panic hook that dumps the merged journal as Chrome
/// trace-event JSON to `FLIGHT_<pid>.json` before the previous hook
/// runs. The directory is `PATCHDB_FLIGHT_DIR` when set, else the
/// working directory. Installing twice is a no-op; the dump itself is
/// best-effort (a failed write never masks the panic).
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_to_default_path();
            previous(info);
        }));
    });
}

fn dump_to_default_path() {
    let dir = std::env::var("PATCHDB_FLIGHT_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = format!("{dir}/FLIGHT_{}.json", std::process::id());
    let _ = dump_to(&path);
}

/// Writes the merged journal as Chrome trace-event JSON to `path`.
///
/// # Errors
///
/// Propagates the filesystem error when the write fails.
pub fn dump_to(path: &str) -> std::io::Result<()> {
    let snap = snapshot(None);
    let json = super::export::flight_to_chrome(&snap);
    std::fs::write(path, json.to_compact_string() + "\n")
}

/// Serializes a snapshot as the raw journal (`schema patchdb-flight/v1`)
/// — the unrendered form, one object per event.
pub fn snapshot_to_json(snap: &FlightSnapshot) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("patchdb-flight/v1".into())),
        ("dropped".into(), Json::Num(snap.dropped as f64)),
        ("total".into(), Json::Num(snap.total as f64)),
        (
            "events".into(),
            Json::Arr(
                snap.events
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("seq".into(), Json::Num(e.seq as f64)),
                            ("ts_us".into(), Json::Num(e.ts_us as f64)),
                            ("tid".into(), Json::Num(e.tid as f64)),
                            ("kind".into(), Json::Str(e.kind.as_str().into())),
                            ("name".into(), Json::Str(e.name.to_string())),
                            ("value".into(), Json::Num(e.value as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flight tests share the process-global journal list with every
    /// other test in the binary, so they assert on events above a seq
    /// watermark rather than absolute contents.
    #[test]
    fn records_merge_chronologically_across_threads() {
        set_enabled(true);
        let mark = seq_watermark();
        record(FlightKind::Mark, "main.before", 1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                record(FlightKind::Mark, "worker.a", 2);
                record(FlightKind::Mark, "worker.b", 3);
            });
        });
        record(FlightKind::Mark, "main.after", 4);
        set_enabled(false);

        let snap = snapshot(None);
        let mine: Vec<&FlightEvent> =
            snap.events.iter().filter(|e| e.seq >= mark).collect();
        assert_eq!(mine.len(), 4, "{mine:?}");
        // Chronological order, and the worker's own order preserved.
        for pair in mine.windows(2) {
            assert!((pair[0].ts_us, pair[0].seq) <= (pair[1].ts_us, pair[1].seq));
        }
        let a = mine.iter().position(|e| e.name == "worker.a").unwrap();
        let b = mine.iter().position(|e| e.name == "worker.b").unwrap();
        assert!(a < b, "per-thread program order lost");
        // The worker got its own tid.
        let main_tid = mine.iter().find(|e| e.name == "main.before").unwrap().tid;
        let worker_tid = mine.iter().find(|e| e.name == "worker.a").unwrap().tid;
        assert_ne!(main_tid, worker_tid);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        set_enabled(false);
        let mark = seq_watermark();
        record(FlightKind::Mark, "ghost", 1);
        assert_eq!(seq_watermark(), mark, "disabled record consumed a seq stamp");
    }

    #[test]
    fn window_filter_drops_old_events() {
        set_enabled(true);
        let mark = seq_watermark();
        record(FlightKind::Mark, "windowed", 1);
        set_enabled(false);
        // A zero-width window can only hold events recorded in the same
        // microsecond as the snapshot; everything has *some* age, so the
        // generous window must see the event and the snapshot must order
        // it after the watermark.
        let wide = snapshot(Some(60_000_000));
        assert!(
            wide.events.iter().any(|e| e.seq >= mark && e.name == "windowed"),
            "a 60s window missed a just-recorded event"
        );
    }

    #[test]
    fn snapshot_json_carries_schema_and_events() {
        set_enabled(true);
        record(FlightKind::Counter, "json.check", 7);
        set_enabled(false);
        let json = snapshot_to_json(&snapshot(None));
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("patchdb-flight/v1")
        );
        assert!(!json.get("events").and_then(Json::as_arr).unwrap().is_empty());
    }
}
