//! Linear and integer programming for IPET.
//!
//! The Implicit Path Enumeration Technique (IPET, reference \[11\] of the
//! paper) bounds the WCET by maximizing `Σ t_bb · n_bb` subject to
//! flow-conservation and loop-bound constraints. The original toolchain
//! called an external ILP solver; this crate provides the substrate from
//! scratch:
//!
//! * [`LinearProgram`] + [`simplex::solve`] — a two-phase dense-tableau
//!   simplex solver with Bland's anti-cycling rule;
//! * [`ilp::solve`] — branch & bound on top of the LP relaxation;
//! * [`dag`] — an exact longest-path solver for the acyclic VIVU-expanded
//!   IPET instances, where the LP is equivalent to a weighted longest path
//!   (the optimizer's hot path).
//!
//! # Example
//!
//! ```
//! use rtpf_ilp::{LinearProgram, Cmp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[3.0, 2.0]);
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 4.0);
//! lp.add_constraint(&[(0, 1.0)], Cmp::Le, 2.0);
//! let sol = rtpf_ilp::simplex::solve(&lp).optimal().expect("feasible");
//! assert!((sol.value - 10.0).abs() < 1e-6); // x=2, y=2
//! ```

#![forbid(unsafe_code)]

pub mod dag;
pub mod ilp;
pub mod problem;
pub mod simplex;

pub use problem::{Cmp, LinearProgram, LpOutcome, Solution};
