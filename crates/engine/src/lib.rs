//! rtpf-engine: the unified analysis pipeline.
//!
//! Every front end (CLI, experiments, daemon, audits) drives the same
//! staged pipeline — `Parse → Analyze (CFG/loops/layout, VIVU, classify,
//! IPET) → Optimize → Verify → Simulate → Energy` — through one
//! [`Engine`] built from one [`EngineConfig`]. Stages are pure functions
//! over artifact values; the [`ArtifactStore`] memoizes them by content
//! address (program fingerprint + configuration fingerprint + stage
//! version), in memory and on disk. See `DESIGN.md` §9 for the stage
//! graph and the cache-bypass rule the audits rely on.

mod config;
mod error;
mod fingerprint;
mod grid;
mod pipeline;
mod service;
mod store;
mod unit;

pub use config::{ConfigError, EngineConfig, OptimizePolicy};
pub use error::EngineError;
pub use fingerprint::{program_fingerprint, Fingerprint, FpHasher};
pub use grid::Grid;
pub use pipeline::{load_program, sweep_key, Engine, Gated};
pub use rtpf_audit::json_escape;
pub use service::{
    AuditResponse, ConfigSpec, ProgramSource, ResponseBody, ServiceCore, ServiceError, ServiceOp,
    ServiceProfile, ServiceRequest, ServiceResponse,
};
pub use store::{ArtifactKey, ArtifactStore, Stage, StoreConfig, StoreMetrics, Weigh};
pub use unit::{parse_csv, to_csv, UnitResult, COLUMNS};
