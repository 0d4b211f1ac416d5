//! Static-analysis audit for the prefetch toolchain.
//!
//! Three layers, all reporting structured [`Diagnostic`]s with stable
//! `RTPF0xx` codes through a shared [`DiagnosticSink`] (catalog in
//! DESIGN.md §8):
//!
//! 1. [`ir`] — lints over a [`Program`](rtpf_isa::Program): unreachable
//!    and empty blocks, loop-bound defects, irreducible cycles,
//!    entry/exit invariants, layout contiguity, prefetch-target sanity;
//! 2. [`soundness`] — the abstract must/may classification cross-checked
//!    against the concrete LRU cache on the same VIVU graph (an
//!    always-hit that concretely misses is a soundness bug; an
//!    unclassified that always hits is a precision gap);
//! 3. [`transform`] — the optimizer's output re-verified against the
//!    paper's joint criterion (Definition 10, Lemma 1, Lemma 2) and
//!    Theorem 1.
//!
//! The `rtpf audit` CLI subcommand drives all three; CI runs it over the
//! whole benchmark suite at `--deny warnings`.
//!
//! # Example
//!
//! ```
//! use rtpf_audit::{audit_ir, DiagnosticSink, SeverityConfig};
//! use rtpf_isa::shape::Shape;
//!
//! let p = Shape::loop_(10, Shape::code(8)).compile("demo");
//! let mut sink = DiagnosticSink::new(SeverityConfig::new());
//! audit_ir(&p, &mut sink);
//! assert!(!sink.has_denials());
//! ```

#![forbid(unsafe_code)]

pub mod diag;
pub mod ir;
pub mod soundness;
pub mod transform;

pub use diag::{
    json_escape, Code, Diagnostic, DiagnosticSink, Level, Severity, SeverityConfig, Span,
};
pub use ir::{audit_ir, audit_layout};
pub use soundness::{
    audit_hierarchy_soundness, audit_hierarchy_soundness_forced, audit_soundness,
    audit_soundness_artifact, audit_soundness_forced, audit_soundness_with, SoundnessOptions,
    SoundnessSummary,
};
pub use transform::{audit_transform, TransformSummary};
