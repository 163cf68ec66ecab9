//! # patchdb-serve
//!
//! A long-lived query/inference server over a built PatchDB dataset —
//! the workload the paper's applications imply (SPI-style commit
//! classification as commits arrive, PatchFinder-style on-demand CVE
//! tracing) but which the one-shot CLI subcommands cannot serve: they
//! re-parse the whole JSON dataset per invocation.
//!
//! The server loads the dataset **once** into a [`ServeIndex`] — a
//! pre-fit random-forest identifier, the Table I feature weights, and
//! the precompiled vulnerability-signature index — and answers queries
//! over a zero-external-dependency HTTP/1.1 subset on
//! `std::net::TcpListener`:
//!
//! | endpoint             | method | answer                                          |
//! |----------------------|--------|-------------------------------------------------|
//! | `/v1/identify`       | POST   | diff text → security/non-security score         |
//! | `/v1/classify`       | POST   | diff text → 12-type rule-based category         |
//! | `/v1/scan`           | POST   | C source → vulnerability-signature hits         |
//! | `/v1/stats`          | GET    | dataset headline counts + category distribution |
//! | `/v1/patch/<id>`     | GET    | one record by (prefix) commit hex               |
//! | `/admin/reload`      | POST   | rebuild the index from its source, atomic swap  |
//! | `/healthz`           | GET    | liveness + served index generation              |
//! | `/metrics`           | GET    | counters, gauges, cumulative + windowed latency |
//! | `/debug/requests`    | GET    | last N requests, each with its stage breakdown  |
//! | `/debug/slow`        | GET    | slow-request exemplars above `--slow-ms`        |
//! | `/debug/profile`     | GET    | sampling profile (`?seconds=&hz=`), folded stacks|
//! | `/debug/trace/<id>`  | GET    | one request by trace id: stages, cache          |
//! | `/debug/timeseries`  | GET    | per-second metric history (`?metric=&secs=`)    |
//! | `/debug/slo`         | GET    | objectives, multi-window burn rates, budgets    |
//!
//! Every GET endpoint also answers HEAD with the same headers
//! (`Content-Length` included) and an empty body; `/metrics` is served
//! as `text/plain; version=0.0.4`, the `/debug/*` documents as
//! `application/json`.
//!
//! Architecture (DESIGN.md §9): a single event-loop thread owns the
//! listener and every connection in non-blocking mode, multiplexed over
//! `poll(2)` (`rt::net`). The loop frames requests incrementally —
//! partial reads never occupy a worker — answers an identify whose body
//! the identify cache already holds on the spot, and admits every
//! other *complete* request to a **bounded** queue
//! (`rt::queue::BoundedQueue`); when the queue (or the `--max-conns`
//! cap) is full the request is answered `503` + `Retry-After`
//! immediately instead of queueing unboundedly.
//! A fixed worker pool drains the queue under per-request deadlines;
//! each worker runs its request's endpoint to the end — an identify
//! miss is scored through the forest on that worker as a batch of one —
//! and completes straight back to the loop. Connections stay open
//! until the client asks to close (`Connection: close`, or HTTP/1.0
//! without keep-alive), with an idle-timeout wheel and an optional
//! per-connection request cap, and may pipeline: responses park
//! per-connection until their turn, so bytes always leave in request
//! order. Shutdown is graceful: accepted work drains, then every
//! thread joins.
//!
//! Every connection carries a request ID and a six-stage clock
//! (accept → queue → parse → batch → compute → write); finished records
//! feed rolling-window latency histograms, the `serve.inflight` /
//! `serve.queue_depth` gauges, the `/debug/requests` ring, slow-request
//! exemplars, and an optional JSON-lines access log (`--access-log`,
//! off by default).
//!
//! Responses are deterministic: the same request against the same
//! dataset yields byte-identical bodies at any worker count
//! (`tests/serve.rs` pins threads 1 vs 8), whether the index was
//! pipeline-built or booted from a binary snapshot.
//!
//! ## Index lifecycle
//!
//! The served index lives behind an [`IndexHandle`] — an atomically
//! swappable, generation-counted pointer. A built [`ServeIndex`] can be
//! persisted as a binary snapshot ([`Snapshot`], schema
//! [`Snapshot::SCHEMA`], `ServeIndex::save_snapshot` /
//! `ServeIndex::load_snapshot`) and a server boots from it without
//! running any of the learning pipeline, decoding its binary records
//! straight from the file bytes. Snapshots
//! are caches: a file of an older layout is refused with the command
//! that rebuilds it.
//! `POST /admin/reload` (or SIGHUP) rebuilds the next generation from
//! the configured [`ReloadSource`] entirely off the handle, then swaps
//! it in: in-flight requests keep the generation they pinned at
//! admission, new requests see the new one, and readers never block.
//! Non-2xx responses share one JSON error envelope:
//! `{"error": {"code": ..., "message": ...}}`.
//!
//! Every non-2xx response body is that envelope; `code` is an HTTP
//! reason slug (`not_found`, `method_not_allowed`, `overloaded`, ...)
//! or, where a `patchdb::Error` caused the failure, its
//! [`Error::code`](patchdb::Error::code) tag.
//!
//! ```rust,no_run
//! use patchdb::prelude::*;
//! use patchdb_serve::{Server, ServeConfig, ServeIndex};
//!
//! let db = PatchDb::build(&BuildOptions::tiny(42)).db;
//! let index = ServeIndex::build(db);
//! let server = Server::start(index, &ServeConfig::default().addr("127.0.0.1:0"))?;
//! println!("listening on {}", server.addr());
//! server.wait(); // block until the process is killed
//! # Ok::<(), patchdb::Error>(())
//! ```

#![warn(missing_docs)]

mod cache;
pub mod client;
mod event_loop;
mod handle;
mod http;
mod index;
mod server;
mod slo;
mod snapshot;
mod telemetry;

pub use handle::{IndexHandle, ReloadSource};
pub use http::{Request, Response};
pub use index::{ScanMatch, ScanOutcome, ServeIndex, ServedDb};
pub use server::{ServeConfig, Server};
pub use snapshot::Snapshot;
