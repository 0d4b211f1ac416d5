//! Comparator baselines from the paper's related work (§2).
//!
//! * [`hw`] — hardware prefetching: sequential **next-line** prefetch in
//!   its three classic flavours (*always*, *on-miss*, *tagged*, ref \[18\]),
//!   the **next-N-line** generalization, **target prefetching** with a
//!   reference prediction table (ref \[19\]), and **wrong-path** prefetching
//!   (both branch directions, ref \[13\]);
//! * [`locking`] — **static cache locking** (refs [4, 14]): select the
//!   most WCET-valuable blocks, lock them in, and let everything else
//!   bypass the cache. Fully predictable, but it trades performance (and,
//!   as the paper argues in §2.3, energy at small technology nodes) for
//!   that predictability.
//!
//! # Example
//!
//! ```
//! use rtpf_baselines::hw::{HwScheme, simulate_hw};
//! use rtpf_cache::{CacheConfig, MemTiming};
//! use rtpf_isa::shape::Shape;
//! use rtpf_sim::SimConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Shape::loop_(50, Shape::code(60)).compile("loop");
//! let config = CacheConfig::new(2, 16, 256)?;
//! let r = simulate_hw(&p, config, MemTiming::default(), SimConfig::default(),
//!                     HwScheme::NextLine { n: 1 })?;
//! assert!(r.prefetches_issued > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod hw;
pub mod locking;

pub use hw::{simulate_hw, HwScheme};
pub use locking::{locked_tau_w, select_locked_greedy, select_locked_ilp};
