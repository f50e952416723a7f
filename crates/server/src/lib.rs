//! # obda-server
//!
//! The serving layer of the OBDA stack: a std-only threaded TCP server
//! exposing [`mastro`]'s query API (`ObdaSystem` / `AboxSystem`) over a
//! newline-delimited JSON protocol, with the operational machinery a
//! query service actually needs:
//!
//! * **shared-state concurrency** — endpoints are `Arc`-shared across N
//!   worker threads; one loaded ontology serves every client (the
//!   `&self` answer-path refactor in `mastro::system` makes the engines
//!   `Sync`, with rewrite caches behind locks and the materialized ABox
//!   behind an `Arc`);
//! * **admission control** — a bounded request queue; a full queue
//!   answers `overloaded` immediately (backpressure, not collapse);
//! * **deadlines** — per-request timeouts that abandon slow work and
//!   answer `timeout`;
//! * **robustness** — malformed frames, invalid UTF-8, nesting bombs,
//!   and panicking queries cost one error response, never a worker;
//! * **observability** — atomic counters, a log₂ latency histogram
//!   (p50/p95/p99), per-endpoint rewrite-cache hit rates, a `STATS`
//!   protocol verb (including the process-wide metrics registry), a
//!   `TRACE` verb serving per-query phase traces from the in-process
//!   ring, structured `kind`s on error responses, structured
//!   access-log lines, and a periodic summary;
//! * **graceful shutdown** — SIGINT/SIGTERM stop admissions, drain
//!   in-flight requests, then exit.
//!
//! Run it: `cargo run --release -p obda-server --bin quonto-server`,
//! drive it with `obda-bench`'s `loadgen`, or talk to it by hand:
//!
//! ```text
//! $ printf '{"endpoint":"uni","query":"q(x) :- Student(x)"}\nSTATS\n' | nc 127.0.0.1 7077
//! ```
//!
//! See DESIGN.md ("Serving layer") for the protocol and threading model.

pub mod config;
pub mod endpoint;
pub mod json;
pub mod metrics;
mod poll;
pub mod proto;
pub mod server;
pub mod signal;

pub use config::{EndpointConfig, EndpointKind, ServerConfig};
pub use endpoint::Endpoint;
pub use json::Json;
pub use metrics::{Histogram, ServerMetrics};
pub use proto::{parse_request, Lang, QueryRequest, Request, WriteRequest};
pub use server::Server;
