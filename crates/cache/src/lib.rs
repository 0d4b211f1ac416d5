//! Concrete and abstract set-associative instruction-cache models, generic
//! over the replacement policy (LRU, FIFO, tree-PLRU).
//!
//! This crate substitutes for the cache semantics of Ferdinand & Wilhelm
//! (reference \[8\] of the paper) that the authors' WCET analyzer builds on,
//! extended with a [`ReplacementPolicy`] axis:
//!
//! * [`CacheConfig`] — geometry `(associativity, block bytes, capacity)`
//!   plus the replacement policy (LRU by default; select another with
//!   [`CacheConfig::with_policy`]), including
//!   [`CacheConfig::paper_configs`], the paper's Table 2 set k1..k36;
//! * [`ConcreteState`] — an exact cache state (`c : L → S`) under the
//!   configured policy, used by the trace simulator, the optimizer's
//!   reverse analysis, and the soundness audit's reference walks;
//! * [`MustState`] / [`MayState`] — abstract cache states used to
//!   classify references as always-hit / always-miss during WCET
//!   analysis. For LRU they run at the real associativity; for FIFO and
//!   tree-PLRU they run at a policy-reduced *effective* associativity
//!   (sound via relative competitiveness, less precise — see the
//!   [`policy`] module docs), and the exact per-set refinement
//!   ([`refine`]) upgrades what they leave unclassified. The refinement is
//!   not applied under LRU, whose must/may classification is sound but
//!   not exact either.
//!
//! # Example
//!
//! ```
//! use rtpf_cache::{CacheConfig, ConcreteState, AccessOutcome, ReplacementPolicy};
//! use rtpf_isa::MemBlockId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // LRU is the default policy...
//! let config = CacheConfig::new(2, 16, 64)?; // 2-way, 16 B blocks, 64 B
//! let mut cache = ConcreteState::new(&config);
//! assert!(matches!(cache.access(MemBlockId(7)), AccessOutcome::Miss { .. }));
//! assert!(matches!(cache.access(MemBlockId(7)), AccessOutcome::Hit));
//!
//! // ...and the same geometry can run FIFO or tree-PLRU instead.
//! let fifo = config.with_policy(ReplacementPolicy::Fifo)?;
//! let mut cache = ConcreteState::new(&fifo);
//! cache.access(MemBlockId(0));
//! cache.access(MemBlockId(2)); // same set; insertion order [2, 0]
//! cache.access(MemBlockId(0)); // hit — FIFO does not reorder
//! // 0 is still the oldest insertion, so it is evicted first.
//! assert_eq!(cache.access(MemBlockId(4)).evicted(), Some(MemBlockId(0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod classify;
pub mod concrete;
pub mod config;
pub mod hierarchy;
pub mod intern;
pub mod join;
#[cfg(any(test, feature = "legacy-oracle"))]
pub mod legacy;
pub mod may;
pub mod must;
mod packed;
pub mod policy;
pub mod refine;
pub mod timing;

pub use classify::Classification;
pub use concrete::{AccessOutcome, ConcreteState};
pub use config::{CacheConfig, ConfigError, HierarchyViolation, SpecError};
pub use hierarchy::{
    classify_update_l2, CacheAccessClassification, ConcreteHierarchy, HierarchyConfig,
    HierarchyOutcome,
};
pub use intern::{StateInterner, StatePair};
pub use join::join_pairs_into;
pub use may::MayState;
pub use must::MustState;
pub use policy::ReplacementPolicy;
pub use refine::{RefineConfig, RefineMark, SetState};
pub use timing::MemTiming;

/// The shared no-information sentinel pair for `config`: an empty must
/// state (nothing definitely cached) joined with an empty may state
/// (nothing possibly cached) — the correct entry state for analysis from
/// a cold cache, and the identity the fixpoint seeds predecessor-less
/// nodes with.
///
/// The sentinel path is allocation-free end to end: both constructors are
/// `const fn`, the backing packed-word vectors are empty, and cloning an
/// empty `Vec` performs no heap allocation. For FIFO and tree-PLRU the
/// may side carries [`ReplacementPolicy::UNBOUNDED`] effective
/// associativity, but the sentinel value itself is the same empty-word
/// encoding — one shared `static` (or one per-run binding cloned per
/// node) serves all three policies of a geometry without ever touching
/// the allocator.
pub const fn no_info(config: &CacheConfig) -> StatePair {
    (MustState::new(config), MayState::new(config))
}

#[cfg(test)]
mod sentinel_tests {
    use super::*;
    use rtpf_isa::MemBlockId;

    #[test]
    fn no_info_sentinel_lives_in_a_static() {
        // The whole chain — geometry validation, policy selection, state
        // construction — is const-evaluable, so the sentinel for a known
        // configuration is built at compile time and shared process-wide.
        const CFG: CacheConfig = match CacheConfig::new(2, 16, 256) {
            Ok(c) => c,
            Err(_) => panic!("valid Table 2 geometry"),
        };
        const FIFO: CacheConfig = match CFG.with_policy(ReplacementPolicy::Fifo) {
            Ok(c) => c,
            Err(_) => panic!("FIFO drives any geometry"),
        };
        static COLD_LRU: StatePair = no_info(&CFG);
        static COLD_FIFO: StatePair = no_info(&FIFO);

        // No information: nothing definitely cached, nothing possibly
        // cached, under either policy.
        for pair in [&COLD_LRU, &COLD_FIFO] {
            assert_eq!(pair.0.age(MemBlockId(3)), None);
            assert!(!pair.1.contains(MemBlockId(3)));
        }
        // Cloning the sentinel yields exactly `MustState::new` /
        // `MayState::new` for the same configuration.
        assert_eq!(
            COLD_LRU.clone(),
            (MustState::new(&CFG), MayState::new(&CFG))
        );
        assert_eq!(
            COLD_FIFO.clone(),
            (MustState::new(&FIFO), MayState::new(&FIFO))
        );
    }
}
