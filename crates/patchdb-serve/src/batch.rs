//! Micro-batching for `/v1/identify`: concurrent requests inside one
//! batch window are scored through the forest as a single
//! `predict_proba_batch` call instead of one tree-walk pass each.
//!
//! Submission is detached ([`Batcher::submit_detached`]): the caller
//! hands over an [`IdentifyTicket`] and returns immediately; the batcher
//! thread builds the response and completes it straight into the event
//! loop's mailbox. Workers are never parked on the batch window, so
//! batch pressure cannot starve the worker pool.
//!
//! Because per-row scoring is a pure function of the fitted forest, a
//! row's score is independent of which rows happened to share its batch
//! — batching changes throughput, never bytes.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use patchdb_rt::json::Json;
use patchdb_rt::obs;

use crate::event_loop::{Completion, LoopShared};
use crate::handle::Generation;
use crate::http::{render_head, Response};
use crate::telemetry::{elapsed_ns, RequestRecord};

/// The identify response document for one score — the single rendering
/// point shared by the batcher and the cache-hit fast path, so the two
/// paths cannot drift byte-wise.
pub(crate) fn identify_response(score: f64) -> Response {
    Response::json(
        200,
        &Json::Obj(vec![
            ("score".into(), Json::Num(score)),
            ("security".into(), Json::Bool(score >= 0.5)),
        ]),
    )
}

/// Everything needed to finish an identify request away from the
/// submitting worker: the completion route plus the telemetry record.
pub(crate) struct IdentifyTicket {
    pub slot: usize,
    pub generation: u64,
    pub seq: u64,
    /// Request clock origin (for `total_ns` at write completion).
    pub started: Instant,
    /// When endpoint work began (for the `serve.identify.ns` histogram).
    pub dispatch_started: Instant,
    /// When the row entered the batcher (the `batch` stage's origin).
    pub submitted: Instant,
    pub close_after: bool,
    pub rec: RequestRecord,
    /// `cache::cache_key` of the raw request body, computed by the
    /// worker on its (missed) lookup.
    pub cache_key: u64,
    /// The raw request body, carried here so the batcher can populate
    /// the identify cache once the score exists.
    pub body: Vec<u8>,
    /// The index generation pinned at admission. The row is scored
    /// through *this* generation's model and its score lands in *this*
    /// generation's cache, even if a swap happens mid-batch.
    pub index_gen: Arc<Generation>,
}

/// One queued identify: its weighted feature row and completion route.
struct Job {
    row: Vec<f64>,
    ticket: IdentifyTicket,
}

#[derive(Default)]
struct State {
    pending: Vec<Job>,
    shutdown: bool,
}

struct Shared {
    window: Duration,
    state: Mutex<State>,
    arrived: Condvar,
    serve: Arc<LoopShared>,
}

/// Cloneable handle workers submit through; the owning [`crate::Server`]
/// keeps the thread's join handle.
#[derive(Clone)]
pub(crate) struct Batcher {
    shared: Arc<Shared>,
}

impl Batcher {
    /// Starts the batcher thread; returns the submit handle and the
    /// join handle for shutdown. Detached completions are published to
    /// `serve`.
    pub(crate) fn start(window: Duration, serve: Arc<LoopShared>) -> (Batcher, JoinHandle<()>) {
        let shared = Arc::new(Shared {
            window,
            state: Mutex::new(State::default()),
            arrived: Condvar::new(),
            serve,
        });
        let run_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("patchdb-serve-batcher".into())
            .spawn(move || run(&run_shared))
            .expect("spawn batcher thread");
        (Batcher { shared }, handle)
    }

    /// Queues one row for batch scoring and returns immediately; the
    /// batcher thread completes the response into the event loop. After
    /// shutdown the row is scored and completed inline.
    pub(crate) fn submit_detached(&self, row: Vec<f64>, ticket: IdentifyTicket) {
        {
            let mut state = self.shared.state.lock().unwrap();
            if state.shutdown {
                drop(state);
                let score = ticket.index_gen.index.score_rows(std::slice::from_ref(&row))[0];
                fulfill(&self.shared.serve, score, ticket);
                return;
            }
            state.pending.push(Job { row, ticket });
            obs::gauge_set("serve.batch.queue_depth", state.pending.len() as i64);
        }
        self.shared.arrived.notify_all();
    }

    /// Tells the batcher thread to drain what is pending and exit.
    pub(crate) fn shutdown(&self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.arrived.notify_all();
    }
}

/// Finishes one detached identify: populates the pinned generation's
/// cache, banks stage accounting, renders the response JSON, and
/// publishes the loop completion.
fn fulfill(serve: &LoopShared, score: f64, mut ticket: IdentifyTicket) {
    let body = std::mem::take(&mut ticket.body);
    ticket.index_gen.cache.insert(ticket.cache_key, body, score);
    ticket.rec.batch_ns = elapsed_ns(ticket.submitted);
    obs::hist_record("serve.identify.ns", elapsed_ns(ticket.dispatch_started));
    obs::counter_add("serve.status.200", 1);
    let response = identify_response(score);
    ticket.rec.endpoint = "identify";
    ticket.rec.status = response.status;
    let head = render_head(
        &response,
        !ticket.close_after,
        Some((ticket.rec.id, &ticket.rec.trace)),
    );
    serve.complete(Completion {
        slot: ticket.slot,
        generation: ticket.generation,
        seq: ticket.seq,
        started: ticket.started,
        head,
        body: response.body,
        rec: ticket.rec,
        close_after: ticket.close_after,
    });
}

fn run(shared: &Shared) {
    loop {
        let batch = {
            let mut state = shared.state.lock().unwrap();
            while state.pending.is_empty() && !state.shutdown {
                state = shared.arrived.wait(state).unwrap();
            }
            if state.pending.is_empty() {
                return; // shutdown with nothing left to drain
            }
            if !shared.window.is_zero() && !state.shutdown {
                // Let the batch fill: release the lock for one window, then
                // take whatever accumulated.
                drop(state);
                std::thread::sleep(shared.window);
                state = shared.state.lock().unwrap();
            }
            let batch = std::mem::take(&mut state.pending);
            obs::gauge_set("serve.batch.queue_depth", 0);
            batch
        };

        obs::counter_add("serve.identify.batches", 1);
        obs::hist_record("serve.identify.batch_len", batch.len() as u64);
        // Every job pinned a generation at admission; a batch that
        // straddles an index swap is scored per generation group, so each
        // row always goes through the exact model it pinned.
        let mut groups: Vec<(Arc<Generation>, Vec<Job>)> = Vec::new();
        for job in batch {
            match groups.iter_mut().find(|(g, _)| g.number == job.ticket.index_gen.number) {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((Arc::clone(&job.ticket.index_gen), vec![job])),
            }
        }
        for (generation, jobs) in groups {
            let (rows, tickets): (Vec<Vec<f64>>, Vec<IdentifyTicket>) =
                jobs.into_iter().map(|j| (j.row, j.ticket)).unzip();
            let scores = generation.index.score_rows(&rows);
            for (ticket, score) in tickets.into_iter().zip(scores) {
                fulfill(&shared.serve, score, ticket);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::IndexHandle;
    use crate::index::ServeIndex;
    use patchdb::{BuildOptions, PatchDb};
    use patchdb_features::FEATURE_DIM;
    use patchdb_rt::net::Waker;

    fn tiny_handle() -> IndexHandle {
        IndexHandle::from(ServeIndex::build(
            PatchDb::build(&BuildOptions::tiny(3).synthesize(false)).db,
        ))
    }

    fn loop_shared() -> Arc<LoopShared> {
        let (waker, _rx) = Waker::new().unwrap();
        Arc::new(LoopShared::new(waker))
    }

    /// A fresh ticket for a request on loop slot `slot` carrying `body`,
    /// pinned to `index_gen`.
    fn ticket(slot: usize, body: &[u8], index_gen: &Arc<Generation>) -> IdentifyTicket {
        let now = Instant::now();
        IdentifyTicket {
            slot,
            generation: 1,
            seq: 0,
            started: now,
            dispatch_started: now,
            submitted: now,
            close_after: false,
            rec: RequestRecord::admitted(1, 0),
            cache_key: crate::cache::cache_key(body),
            body: body.to_vec(),
            index_gen: Arc::clone(index_gen),
        }
    }

    /// Waits until `n` completions have landed in the mailbox.
    fn wait_for(shared: &LoopShared, n: usize) -> Vec<Completion> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < n {
            got.extend(shared.take_for_test());
            assert!(Instant::now() < deadline, "batcher completed {} of {n} jobs", got.len());
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn batched_scores_equal_direct_scores() {
        let generation = tiny_handle().load();
        let shared = loop_shared();
        let (batcher, handle) = Batcher::start(Duration::from_millis(5), Arc::clone(&shared));
        let db = PatchDb::build(&BuildOptions::tiny(3).synthesize(false)).db;
        let rows: Vec<Vec<f64>> = db
            .security_patches()
            .take(8)
            .map(|r| generation.index.weighted_features(&r.patch))
            .collect();
        let direct = generation.index.score_rows(&rows);
        for (slot, row) in rows.into_iter().enumerate() {
            let body = format!("body {slot}");
            batcher.submit_detached(row, ticket(slot, body.as_bytes(), &generation));
        }
        let mut completions = wait_for(&shared, direct.len());
        completions.sort_by_key(|c| c.slot);
        for (c, score) in completions.iter().zip(&direct) {
            let want = identify_response(*score).body;
            assert_eq!(c.body, want, "batch composition leaked into slot {}", c.slot);
        }
        batcher.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn detached_jobs_report_the_batch_window_as_their_batch_stage() {
        let generation = tiny_handle().load();
        let shared = loop_shared();
        let window = Duration::from_millis(2);
        let (batcher, handle) = Batcher::start(window, Arc::clone(&shared));
        batcher.submit_detached(vec![0.0; FEATURE_DIM], ticket(0, b"x", &generation));
        let completion = wait_for(&shared, 1).pop().unwrap();
        assert!(
            completion.rec.batch_ns >= window.as_nanos() as u64,
            "the batch stage ({} ns) must cover the {window:?} window",
            completion.rec.batch_ns
        );
        batcher.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn submit_after_shutdown_scores_inline() {
        let generation = tiny_handle().load();
        let shared = loop_shared();
        let (batcher, handle) = Batcher::start(Duration::from_millis(1), Arc::clone(&shared));
        batcher.shutdown();
        handle.join().unwrap();
        let row = vec![0.0; FEATURE_DIM];
        let direct = generation.index.score_rows(std::slice::from_ref(&row))[0];
        batcher.submit_detached(row, ticket(5, b"late", &generation));
        // No batcher thread is left, so the completion must already be
        // in the mailbox when `submit_detached` returns.
        let completions = shared.take_for_test();
        assert_eq!(completions.len(), 1, "a stopped batcher must complete inline");
        assert_eq!(completions[0].slot, 5);
        assert_eq!(completions[0].body, identify_response(direct).body);
        let key = crate::cache::cache_key(b"late");
        assert_eq!(generation.cache.lookup(key, b"late"), Some(direct));
    }

    #[test]
    fn detached_jobs_complete_into_the_mailbox() {
        let generation = tiny_handle().load();
        let shared = loop_shared();
        let (batcher, handle) = Batcher::start(Duration::from_millis(1), Arc::clone(&shared));
        let row = vec![0.0; FEATURE_DIM];
        let direct = generation.index.score_rows(std::slice::from_ref(&row))[0];
        let body_bytes = b"diff --git a/x b/x";
        let mut sent = ticket(3, body_bytes, &generation);
        sent.generation = 9;
        batcher.submit_detached(row, sent);
        let completion = wait_for(&shared, 1).pop().unwrap();
        assert_eq!(completion.slot, 3);
        assert_eq!(completion.generation, 9);
        assert!(completion.rec.batch_ns > 0);
        let body = String::from_utf8(completion.body.clone()).unwrap();
        assert!(body.contains(&format!("\"score\":{direct}")), "{body}");
        let head = String::from_utf8(completion.head.clone()).unwrap();
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(
            generation.cache.lookup(crate::cache::cache_key(body_bytes), body_bytes),
            Some(direct),
            "fulfill must populate the pinned generation's identify cache"
        );
        batcher.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn detached_jobs_score_through_their_pinned_generation() {
        let index_handle = tiny_handle();
        let pinned = index_handle.load();
        let shared = loop_shared();
        let (batcher, handle) = Batcher::start(Duration::from_millis(1), Arc::clone(&shared));
        let row = vec![0.25; FEATURE_DIM];
        let direct = pinned.index.score_rows(std::slice::from_ref(&row))[0];
        // Swap in a different index (different dataset size → different
        // model) before the pinned job is submitted.
        index_handle.swap(ServeIndex::build(
            PatchDb::build(&BuildOptions::tiny(7).synthesize(false)).db,
        ));
        batcher.submit_detached(row, ticket(0, b"diff --git a/y b/y", &pinned));
        let completion = wait_for(&shared, 1).pop().unwrap();
        let body = String::from_utf8(completion.body).unwrap();
        assert!(
            body.contains(&format!("\"score\":{direct}")),
            "pinned job must score through generation 1's model: {body}"
        );
        batcher.shutdown();
        handle.join().unwrap();
    }
}
