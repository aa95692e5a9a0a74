//! `dynamips-serve`: the HTTP serving layer over the DynamIPs analysis
//! engine.
//!
//! The crate is std-only by policy (the build is offline, and ci rejects
//! any registry or git dependency), so the whole stack — HTTP framing,
//! event loop, worker pool, metrics, LRU, client, load generator — is
//! built on `std::net` + `std::thread` + four `epoll` FFI calls:
//!
//! - [`http`]: bounded request-head parsing (incremental, pipelining-
//!   aware via [`scan_head`]) and response serialization with an
//!   explicit connection [`Disposition`] (keep-alive vs close).
//! - [`poll`]: the thin epoll wrapper — the one module allowed to use
//!   `unsafe`, confined to four FFI calls.
//! - [`server`] / `reactor`: a single reactor thread drives every
//!   connection through a reading → dispatched → writing → keep-alive
//!   state machine with timer-wheel deadlines (read/write/idle, plus a
//!   short reject window); parsed requests feed a supervised fixed
//!   worker pool through a bounded queue. Admission control answers
//!   503 + `Retry-After` when full; built-in routes (`/healthz`,
//!   `/metrics`, `/shutdown`, `/`) are served inline on the reactor so
//!   probes survive a crash-looping pool; drain is cooperative via
//!   `GET /shutdown` or a [`ShutdownHandle`].
//! - [`metrics`]: atomic counters/gauges/histogram with a Prometheus
//!   text rendering at `GET /metrics`.
//! - [`lru`]: the bounded LRU the artifact handler uses to keep warm
//!   simulation sessions and rendered artifacts.
//! - [`client`] / [`loadtest`]: an HTTP client whose one exchange core
//!   (a [`Connection`] plus one strict response framer) serves one-shot
//!   and keep-alive requests alike, and the load generator behind
//!   `dynamips loadtest` — closed-loop or open-loop with a
//!   seed-deterministic Poisson arrival schedule that measures
//!   scheduled-start-to-response latency (no coordinated omission),
//!   reported as `dynamips-bench-v1`.
//!
//! Failure model (PR 6): the worker pool is supervised — worker panics
//! are caught, counted, and the slot respawned with exponential
//! backoff and a crash-loop cap. The client side layers a
//! [`RetryPolicy`] (bounded attempts, seeded-jitter backoff,
//! `Retry-After` honored — including present-but-unparseable HTTP-date
//! hints, capped — for the idempotent `GET`/`PUT`/`DELETE` only) and a
//! per-endpoint [`CircuitBreaker`] over the strict transport, with
//! every transition counted in [`ClientMetrics`]; `chaos::net`'s fault-injecting proxy drives the
//! whole stack in the `dynamips chaos-serve` sweep.
//!
//! The application side (artifact rendering) is deliberately not here:
//! this crate only knows the [`Handler`] trait. `dynamips-experiments`
//! implements it on top of the engine and the `dynamips serve`
//! subcommand wires the two together, which keeps the dependency
//! direction `experiments -> serve` and the server reusable in tests
//! with trivial handlers.
//!
//! This crate is the one place outside the engine's timing layer where
//! wall-clock reads and thread spawns are permitted (each one a reasoned
//! `#[allow(clippy::disallowed_methods)]`); nothing here feeds artifact
//! bytes, which stay deterministic.

// Panic-freedom: shipping code degrades instead of panicking (tests are
// exempt via clippy.toml), and library code renders to strings instead
// of printing. The shared levels come from the workspace `[lints]` table.
// Every `unsafe` block carries a `// SAFETY:` comment.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::undocumented_unsafe_blocks
)]

pub mod client;
pub mod http;
pub mod loadtest;
pub mod lru;
pub mod metrics;
pub mod poll;
mod reactor;
pub mod server;

pub use client::{
    http_get, http_send, BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker,
    ClientMetrics, Connection, FetchResult, JitterSource, ResilientClient, RetryAfter, RetryPolicy,
};
pub use http::{scan_head, scan_request, Disposition, Request, Response};
pub use loadtest::{arrival_offsets_ms, run_loadtest, LoadtestConfig, LoadtestReport};
pub use lru::{CacheLookup, LruCache};
pub use metrics::Metrics;
pub use server::{Handler, ServeConfig, ServeSummary, Server, ShutdownHandle};
