//! rtpf-serve: the analysis-as-a-service tier.
//!
//! The `rtpfd` daemon mounts the engine's [`ServiceCore`] — one shared,
//! sharded, single-flight [`ArtifactStore`] plus per-configuration
//! engines — behind a hand-rolled std-only HTTP/1.1+JSON server (the
//! build is offline: no tokio, no serde; every string goes through
//! `rtpf_engine::json_escape`). Endpoints:
//!
//! | endpoint    | method | body                                  |
//! |-------------|--------|---------------------------------------|
//! | `/analyze`  | POST   | program + config → WCET analysis      |
//! | `/optimize` | POST   | program + config → verified insertion |
//! | `/audit`    | POST   | program + config → lints + soundness  |
//! | `/simulate` | POST   | program + config → seeded ACET        |
//! | `/metrics`  | GET    | store/engine/queue counters           |
//! | `/healthz`  | GET    | liveness                              |
//! | `/shutdown` | POST   | graceful drain                        |
//!
//! Responses are byte-identical to the library path (see
//! `ServiceResponse::to_json`); the golden tests in `tests/` pin that,
//! and the crate's `loadgen` binary proves exactly-once compute under
//! concurrent mixed load via the `/metrics` counters. The daemon's
//! benchmark is `perfbench`'s `serve` workload (`BENCHMARK.json`).
//!
//! DESIGN.md §15 documents the architecture: store shards, single-flight
//! protocol, LRU byte bounds, and the drain sequence.
//!
//! [`ServiceCore`]: rtpf_engine::ServiceCore
//! [`ArtifactStore`]: rtpf_engine::ArtifactStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod http;
pub mod json;
pub mod request;
mod server;

pub use boot::{parse_serve_args, serve_main, SERVE_USAGE};
pub use request::{decode_request, encode_request};
pub use server::{Daemon, DaemonConfig, IDLE_TIMEOUT};
