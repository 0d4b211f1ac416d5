//! rtpf-perfbench: one seeded benchmark for the rtpf workspace.
//!
//! Four workloads — `sweep-lru`, `sweep-fifo`, `verdict` and `serve` —
//! each run in its own process, check their outputs against a reference,
//! and report the end-to-end metrics of [`spec::END_TO_END`] (untraced)
//! or the per-layer metrics of [`spec::PER_LAYER`] (traced). The
//! benchmark calls only the public APIs of `rtpf-experiments`,
//! `rtpf-engine` and `rtpf-serve`; see `README.md` for the workloads, the
//! metrics and their bounds.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use rtpf_cache::ReplacementPolicy;

pub mod gen;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod verdict;
pub mod workload;

use workload::{Outcome, RunConfig};

/// The repository root (this package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where reports and traces are written.
pub fn report_dir() -> PathBuf {
    repo_root().join("target").join("rtpf-bench")
}

/// Runs one workload by name in this process.
///
/// # Errors
///
/// An unknown workload or a set-up failure.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = spec::workload(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    match workload {
        "sweep-lru" => sweep::run(spec, ReplacementPolicy::Lru, cfg),
        "sweep-fifo" => sweep::run(spec, ReplacementPolicy::Fifo, cfg),
        "verdict" => verdict::run(spec, cfg),
        "serve" => serve::run(spec, cfg),
        _ => unreachable!("every workload of the table is dispatched"),
    }
}
