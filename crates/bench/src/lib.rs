//! Criterion benchmark host crate; see the `benches/` directory.
//!
//! Run with `cargo bench -p rtpf-bench`. Each bench file covers one
//! artefact group: cache-model throughput, IPET solver comparison,
//! analysis/optimizer scalability, per-figure paths, and ablations.
//!
//! The crate also hosts `loadgen`, the concurrent load generator for the
//! `rtpfd` daemon (`cargo run --release -p rtpf-bench --bin loadgen`).
//! The repository's one end-to-end benchmark is the separate `perfbench`
//! package, declared by `BENCHMARK.json`.
#![forbid(unsafe_code)]
