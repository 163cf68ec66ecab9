//! `patchdb-rt`: the in-repo runtime that keeps the workspace hermetic.
//!
//! The reproduction must build and test with `--offline` on a machine with
//! an empty cargo registry cache, so nothing in this tree may depend on
//! external crates. This crate supplies small, well-tested stand-ins for
//! the handful of third-party APIs the workspace used to pull in:
//!
//! * [`rng`] — a seedable, cross-platform-deterministic xoshiro256++ PRNG
//!   with the subset of the `rand` API the workspace uses (`gen_range`,
//!   `gen_bool`, `shuffle`, …).
//! * [`json`] — a JSON value type, parser, and printers, plus derive-free
//!   [`json::ToJson`]/[`json::FromJson`] traits and impl macros, replacing
//!   `serde`/`serde_json`.
//! * [`check`] — a property-testing harness (generators over a recorded
//!   choice tape, shrinking, persisted regression tapes), replacing
//!   `proptest`.
//! * [`bench`](mod@bench) — a criterion-style timing harness (warmup, samples,
//!   median/p95, optional JSON report), replacing `criterion`.
//! * [`par`] — scoped-thread fan-out over `std::thread::scope`, replacing
//!   `crossbeam::scope`.
//! * [`obs`] — spans, counters, gauges, histograms (cumulative and
//!   rolling-window), one per-second slot ring ([`obs::SecondRing`])
//!   and an event ring buffer behind one env switch (`PATCHDB_TRACE`;
//!   near-zero cost when off), replacing `tracing`/`metrics` — plus the
//!   introspection runtime on top: a seqlock span-path sampling profiler
//!   emitting folded stacks, whose mirror runs only while a sampler does
//!   ([`obs::sampler`]), and a Chrome/Perfetto trace-event exporter
//!   ([`obs::export`]), replacing `pprof`/`tracing-chrome`.
//! * [`queue`] — a bounded MPMC hand-off with non-blocking producers
//!   (explicit backpressure) and gracefully draining consumers, the
//!   admission-control primitive under `patchdb-serve`.
//! * [`net`] — non-blocking readiness primitives: a zero-dep `poll(2)`
//!   wrapper, a self-pipe [`net::Waker`], and an fd-limit helper, the
//!   substrate of the event-driven serve front end (replacing `mio`).

pub mod bench;
pub mod check;
pub mod json;
#[cfg(unix)]
pub mod net;
pub mod obs;
pub mod par;
pub mod queue;
pub mod rng;
