//! Cache-aware WCET analysis: VIVU, ACFG, and IPET.
//!
//! This crate substitutes for the WCET analyzer the paper's authors built
//! on references \[8\] (Ferdinand-style abstract cache semantics + VIVU) and
//! \[21\] / \[11\] (IPET). The pipeline is:
//!
//! 1. [`vivu`] — *Virtual Inlining, Virtual Unrolling*: peel every natural
//!    loop once, distinguishing the **first** iteration from the **rest**,
//!    producing an acyclic context graph (plus the real back edges, kept
//!    for sound fixpoint iteration);
//! 2. [`classify`] — must/may abstract interpretation at reference
//!    granularity over the context graph, yielding a
//!    [`Classification`](rtpf_cache::Classification) and a worst-case
//!    access time `t_w(r)` for every reference (the may half runs only
//!    where its answer is read: `t_w` needs the must half alone);
//! 3. [`ipet`] — the implicit path enumeration: maximize `Σ t_w(bb)·n_bb`.
//!    On the acyclic VIVU graph this equals a node-weighted longest path
//!    (solved exactly by `rtpf-ilp::dag`); the general ILP encoding is
//!    provided for cross-validation;
//! 4. [`acfg`] — the reference-level DAG (the paper's ACFG, Definition 6)
//!    consumed by the prefetch optimizer in `rtpf-core`.
//!
//! The entry point is [`analysis::WcetAnalysis::analyze`].
//!
//! # Example
//!
//! ```
//! use rtpf_cache::{CacheConfig, MemTiming};
//! use rtpf_isa::shape::Shape;
//! use rtpf_wcet::WcetAnalysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Shape::loop_(10, Shape::code(24)).compile("loop");
//! let config = CacheConfig::new(2, 16, 256)?;
//! let a = WcetAnalysis::analyze(&p, &config, &MemTiming::default())?;
//! assert!(a.tau_w() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod acfg;
pub mod analysis;
pub mod classify;
pub mod context;
#[cfg(test)]
mod equivalence;
pub mod error;
pub mod ipet;
mod l2;
pub mod memo;
pub mod profile;
pub mod refine;
pub mod vivu;

pub use acfg::{Acfg, RefId, Reference};
pub use analysis::WcetAnalysis;
pub use context::{Context, Iter};
pub use error::AnalysisError;
pub use memo::AnalysisCache;
pub use profile::AnalysisProfile;
pub use refine::RefineStats;
pub use vivu::{NodeId, VivuGraph, VivuNode};
