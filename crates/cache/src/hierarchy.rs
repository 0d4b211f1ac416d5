//! Two-level (L1 + L2) instruction-cache hierarchy.
//!
//! The model follows Hardy & Puaut's multi-level WCET analysis: each
//! level runs the classic must/may analysis independently, but the
//! stream of references an L2 analysis sees is *filtered* by the L1
//! outcomes. A reference the L1 analysis proves always-hit never reaches
//! L2 (its [`CacheAccessClassification`] is `Never`); an L1 always-miss
//! reaches L2 on every execution (`Always`); an unclassified L1 outcome
//! may or may not reach L2 (`Uncertain`), and the sound L2 update is the
//! join of the state with and without the access applied.
//!
//! Concretely the hierarchy is *fill-inclusive without back-invalidation*:
//! an L1 miss looks the block up in L2, filling L1 from L2 on an L2 hit
//! and filling **both** levels from DRAM on an L2 miss; an L2 eviction
//! does not invalidate the L1 copy. This non-exclusive setting is the one
//! Hardy & Puaut's soundness argument assumes — enforced inclusion with
//! back-invalidation would let an L2 eviction remove a block the
//! independent L1 must-analysis guarantees, breaking L1 always-hit.

use std::fmt;

use rtpf_isa::MemBlockId;

use crate::classify::Classification;
use crate::concrete::ConcreteState;
use crate::config::{CacheConfig, ConfigError, HierarchyViolation};
use crate::intern::StatePair;

/// An ordered cache hierarchy: a mandatory L1 plus an optional L2.
///
/// The single-level hierarchy is the degenerate case and behaves exactly
/// like the bare [`CacheConfig`] did before the hierarchy existed — every
/// L2 code path in the stack is gated on [`l2`](HierarchyConfig::l2)
/// being present.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HierarchyConfig {
    l1: CacheConfig,
    l2: Option<CacheConfig>,
}

impl HierarchyConfig {
    /// The degenerate single-level hierarchy.
    pub const fn l1_only(l1: CacheConfig) -> Self {
        HierarchyConfig { l1, l2: None }
    }

    /// A two-level hierarchy, validated for monotonicity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::HierarchyInvalid`] when the L2 capacity is
    /// not strictly larger than the L1 capacity, or the block sizes
    /// differ (the per-level filter assumes one address-to-block map).
    pub const fn two_level(l1: CacheConfig, l2: CacheConfig) -> Result<Self, ConfigError> {
        if l2.capacity_bytes() <= l1.capacity_bytes() {
            return Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::CapacityNotLarger,
            ));
        }
        if l2.block_bytes() != l1.block_bytes() {
            return Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::BlockMismatch,
            ));
        }
        Ok(HierarchyConfig { l1, l2: Some(l2) })
    }

    /// Builds a hierarchy from an ordered list of per-level geometries
    /// (innermost first). One level is the degenerate case; two levels
    /// are validated as in [`two_level`](HierarchyConfig::two_level).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::HierarchyInvalid`] for an empty list, more
    /// than two levels, or a non-monotone two-level pair.
    pub fn from_levels(levels: &[CacheConfig]) -> Result<Self, ConfigError> {
        match levels {
            [] => Err(ConfigError::HierarchyInvalid(HierarchyViolation::Empty)),
            [l1] => Ok(Self::l1_only(*l1)),
            [l1, l2] => Self::two_level(*l1, *l2),
            _ => Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::TooManyLevels,
            )),
        }
    }

    /// The innermost level.
    #[inline]
    pub const fn l1(&self) -> &CacheConfig {
        &self.l1
    }

    /// The second level, when the hierarchy has one.
    #[inline]
    pub const fn l2(&self) -> Option<&CacheConfig> {
        self.l2.as_ref()
    }

    /// The levels in order, innermost first.
    pub fn levels(&self) -> impl Iterator<Item = &CacheConfig> {
        std::iter::once(&self.l1).chain(self.l2.as_ref())
    }

    /// Number of levels (1 or 2).
    #[inline]
    pub const fn n_levels(&self) -> usize {
        if self.l2.is_some() {
            2
        } else {
            1
        }
    }

    /// Whether a second level is present.
    #[inline]
    pub const fn is_multi_level(&self) -> bool {
        self.l2.is_some()
    }
}

impl fmt::Display for HierarchyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.l1)?;
        if let Some(l2) = &self.l2 {
            write!(f, " / L2 {l2}")?;
        }
        Ok(())
    }
}

/// Whether a reference's L1 outcome admits an access to the next level
/// (Hardy & Puaut's *cache access classification*).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CacheAccessClassification {
    /// The access reaches the next level on every execution (L1
    /// always-miss).
    Always,
    /// The access never reaches the next level (L1 always-hit).
    Never,
    /// The access may or may not reach the next level (L1 unclassified).
    Uncertain,
}

impl CacheAccessClassification {
    /// The next-level access classification induced by an L1 outcome.
    pub fn from_l1(class: Classification) -> Self {
        match class {
            Classification::AlwaysHit => CacheAccessClassification::Never,
            Classification::AlwaysMiss => CacheAccessClassification::Always,
            Classification::Unclassified => CacheAccessClassification::Uncertain,
        }
    }

    /// Whether the next level can see this access at all.
    #[inline]
    pub fn may_access(&self) -> bool {
        !matches!(self, CacheAccessClassification::Never)
    }
}

impl fmt::Display for CacheAccessClassification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheAccessClassification::Always => "always",
            CacheAccessClassification::Never => "never",
            CacheAccessClassification::Uncertain => "uncertain",
        };
        f.write_str(s)
    }
}

/// The filtered L2 must/may update for one reference: classifies the
/// reference against the *incoming* L2 state, then applies the update the
/// access classification calls for.
///
/// * `Always` — the access definitely occurs: plain update on both sides.
/// * `Never` — the access never occurs: no update, and no L2 claim is
///   made ([`Classification::Unclassified`] is returned as the "no
///   claim" value; it is never consulted, since the L1 always-hit already
///   fixes the cost).
/// * `Uncertain` — the access may occur: the sound post-state is the
///   *join* of the untouched state with the updated one. The returned
///   classification is still meaningful — it holds conditionally,
///   whenever the access does reach L2, which is exactly when its cost
///   is charged.
pub fn classify_update_l2(
    state: &mut StatePair,
    block: MemBlockId,
    cac: CacheAccessClassification,
) -> Classification {
    match cac {
        CacheAccessClassification::Never => Classification::Unclassified,
        CacheAccessClassification::Always => {
            let guaranteed = state.0.update_classify(block);
            let possible = state.1.update_classify(block);
            classification_of(guaranteed, possible)
        }
        CacheAccessClassification::Uncertain => {
            let guaranteed = state.0.contains(block);
            let possible = state.1.contains(block);
            let mut touched = state.clone();
            touched.0.update(block);
            touched.1.update(block);
            state.0 = state.0.join(&touched.0);
            state.1 = state.1.join(&touched.1);
            classification_of(guaranteed, possible)
        }
    }
}

#[inline]
fn classification_of(guaranteed: bool, possible: bool) -> Classification {
    if guaranteed {
        Classification::AlwaysHit
    } else if !possible {
        Classification::AlwaysMiss
    } else {
        Classification::Unclassified
    }
}

/// Outcome of one access against a [`ConcreteHierarchy`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HierarchyOutcome {
    /// Served by L1; no other level sees the access.
    L1Hit,
    /// L1 miss served by L2; L1 fills from L2.
    L2Hit,
    /// Miss in every level; the line fills from DRAM into both levels
    /// (into L1 alone when the hierarchy has no L2).
    Miss,
}

impl HierarchyOutcome {
    /// Whether L1 served the access.
    #[inline]
    pub fn is_l1_hit(&self) -> bool {
        matches!(self, HierarchyOutcome::L1Hit)
    }
}

/// Exact two-level cache state: the fill-inclusive, no-back-invalidation
/// composition of two [`ConcreteState`]s (or one, for the degenerate
/// hierarchy). Shared by the trace simulator and the soundness audit so
/// both replay identical semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConcreteHierarchy {
    l1: ConcreteState,
    l2: Option<ConcreteState>,
}

impl ConcreteHierarchy {
    /// An all-invalid hierarchy for the given configuration.
    pub fn new(config: &HierarchyConfig) -> Self {
        ConcreteHierarchy {
            l1: ConcreteState::new(config.l1()),
            l2: config.l2().map(ConcreteState::new),
        }
    }

    /// One reference: look up L1; on an L1 miss consult L2 (when
    /// present), filling L1 from L2 on an L2 hit and both levels from
    /// DRAM on an L2 miss. L2 evictions never invalidate L1 lines.
    pub fn access(&mut self, block: MemBlockId) -> HierarchyOutcome {
        if self.l1.access(block).is_hit() {
            return HierarchyOutcome::L1Hit;
        }
        match &mut self.l2 {
            None => HierarchyOutcome::Miss,
            Some(l2) => {
                if l2.access(block).is_hit() {
                    HierarchyOutcome::L2Hit
                } else {
                    HierarchyOutcome::Miss
                }
            }
        }
    }

    /// The L1 state.
    #[inline]
    pub fn l1(&self) -> &ConcreteState {
        &self.l1
    }

    /// The L2 state, when the hierarchy has one.
    #[inline]
    pub fn l2(&self) -> Option<&ConcreteState> {
        self.l2.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use crate::{no_info, MayState, MustState};

    fn l1() -> CacheConfig {
        CacheConfig::new(2, 16, 256).unwrap()
    }

    fn l2() -> CacheConfig {
        CacheConfig::new(4, 16, 1024).unwrap()
    }

    #[test]
    fn degenerate_hierarchy_wraps_l1() {
        let h = HierarchyConfig::l1_only(l1());
        assert_eq!(h.l1(), &l1());
        assert_eq!(h.l2(), None);
        assert_eq!(h.n_levels(), 1);
        assert!(!h.is_multi_level());
        assert_eq!(h.levels().count(), 1);
        assert_eq!(h.to_string(), "(2, 16, 256)");
        assert_eq!(HierarchyConfig::from_levels(&[l1()]), Ok(h));
    }

    #[test]
    fn two_level_hierarchy_orders_levels() {
        let h = HierarchyConfig::two_level(l1(), l2()).unwrap();
        assert_eq!(h.l2(), Some(&l2()));
        assert_eq!(h.n_levels(), 2);
        assert!(h.is_multi_level());
        let levels: Vec<_> = h.levels().copied().collect();
        assert_eq!(levels, vec![l1(), l2()]);
        assert_eq!(h.to_string(), "(2, 16, 256) / L2 (4, 16, 1024)");
        assert_eq!(HierarchyConfig::from_levels(&[l1(), l2()]), Ok(h));
    }

    #[test]
    fn rejects_l2_capacity_not_larger_than_l1() {
        // Equal capacities.
        let same = CacheConfig::new(4, 16, 256).unwrap();
        assert_eq!(
            HierarchyConfig::two_level(l1(), same),
            Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::CapacityNotLarger
            ))
        );
        // Strictly smaller.
        let small = CacheConfig::new(2, 16, 128).unwrap();
        assert_eq!(
            HierarchyConfig::two_level(l1(), small),
            Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::CapacityNotLarger
            ))
        );
    }

    #[test]
    fn rejects_mismatched_block_sizes() {
        let wide = CacheConfig::new(4, 32, 1024).unwrap();
        assert_eq!(
            HierarchyConfig::two_level(l1(), wide),
            Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::BlockMismatch
            ))
        );
    }

    #[test]
    fn rejects_empty_and_too_deep_level_lists() {
        assert_eq!(
            HierarchyConfig::from_levels(&[]),
            Err(ConfigError::HierarchyInvalid(HierarchyViolation::Empty))
        );
        let l3 = CacheConfig::new(8, 16, 8192).unwrap();
        assert_eq!(
            HierarchyConfig::from_levels(&[l1(), l2(), l3]),
            Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::TooManyLevels
            ))
        );
    }

    #[test]
    fn cac_mirrors_l1_classification() {
        use CacheAccessClassification as Cac;
        assert_eq!(Cac::from_l1(Classification::AlwaysHit), Cac::Never);
        assert_eq!(Cac::from_l1(Classification::AlwaysMiss), Cac::Always);
        assert_eq!(Cac::from_l1(Classification::Unclassified), Cac::Uncertain);
        assert!(!Cac::Never.may_access());
        assert!(Cac::Always.may_access());
        assert!(Cac::Uncertain.may_access());
        assert_eq!(Cac::Uncertain.to_string(), "uncertain");
    }

    #[test]
    fn never_access_leaves_state_untouched_and_claims_nothing() {
        let cfg = l2();
        let mut state = no_info(&cfg);
        state.0.update(MemBlockId(1));
        state.1.update(MemBlockId(1));
        let before = state.clone();
        let class = classify_update_l2(&mut state, MemBlockId(2), CacheAccessClassification::Never);
        assert_eq!(class, Classification::Unclassified);
        assert_eq!(state, before);
    }

    #[test]
    fn always_access_updates_like_single_level() {
        let cfg = l2();
        let mut filtered = no_info(&cfg);
        let mut plain = no_info(&cfg);
        for b in [3u64, 7, 3, 11] {
            let class = classify_update_l2(
                &mut filtered,
                MemBlockId(b),
                CacheAccessClassification::Always,
            );
            let guaranteed = plain.0.update_classify(MemBlockId(b));
            let possible = plain.1.update_classify(MemBlockId(b));
            assert_eq!(class, classification_of(guaranteed, possible));
            assert_eq!(filtered, plain);
        }
    }

    #[test]
    fn uncertain_access_joins_with_and_without() {
        let cfg = l2();
        let b = MemBlockId(5);
        // Cold state: after an uncertain access the block must NOT enter
        // the must state (the no-access branch does not hold it) but must
        // enter the may state (the access branch might cache it).
        let mut state = no_info(&cfg);
        let class = classify_update_l2(&mut state, b, CacheAccessClassification::Uncertain);
        assert_eq!(class, Classification::AlwaysMiss); // judged on incoming state
        assert!(!state.0.contains(b));
        assert!(state.1.contains(b));
        // Warm state: a block already guaranteed stays guaranteed, and the
        // conditional classification is always-hit.
        let mut warm = no_info(&cfg);
        warm.0.update(b);
        warm.1.update(b);
        let class = classify_update_l2(&mut warm, b, CacheAccessClassification::Uncertain);
        assert_eq!(class, Classification::AlwaysHit);
        assert!(warm.0.contains(b));
    }

    #[test]
    fn uncertain_join_equals_manual_join() {
        let cfg = l2();
        let mut seed = no_info(&cfg);
        for b in [1u64, 9, 17] {
            seed.0.update(MemBlockId(b));
            seed.1.update(MemBlockId(b));
        }
        let mut filtered = seed.clone();
        classify_update_l2(
            &mut filtered,
            MemBlockId(33),
            CacheAccessClassification::Uncertain,
        );
        let mut touched = seed.clone();
        touched.0.update(MemBlockId(33));
        touched.1.update(MemBlockId(33));
        let expect = (seed.0.join(&touched.0), seed.1.join(&touched.1));
        assert_eq!(filtered, expect);
    }

    #[test]
    fn concrete_hierarchy_l1_hit_never_touches_l2() {
        let h = HierarchyConfig::two_level(l1(), l2()).unwrap();
        let mut c = ConcreteHierarchy::new(&h);
        let b = MemBlockId(4);
        assert_eq!(c.access(b), HierarchyOutcome::Miss);
        let l2_after_fill = c.l2().unwrap().clone();
        // Repeat hit: L1 serves it, the L2 state must be untouched.
        assert_eq!(c.access(b), HierarchyOutcome::L1Hit);
        assert_eq!(c.l2().unwrap(), &l2_after_fill);
    }

    #[test]
    fn dram_fill_enters_both_levels_and_l2_serves_l1_evictions() {
        let h = HierarchyConfig::two_level(l1(), l2()).unwrap();
        let mut c = ConcreteHierarchy::new(&h);
        // L1 is 2-way with 8 sets; blocks 0, 8, 16 all map to L1 set 0,
        // so block 0 is evicted from L1 by the third fill. L2 is 4-way
        // with 16 sets, so 0 and 16 share an L2 set without conflict.
        for b in [0u64, 8, 16] {
            assert_eq!(c.access(MemBlockId(b)), HierarchyOutcome::Miss);
            assert!(c.l1().contains(MemBlockId(b)));
            assert!(c.l2().unwrap().contains(MemBlockId(b)));
        }
        assert!(!c.l1().contains(MemBlockId(0)));
        // The re-reference misses L1 but hits L2 and re-fills L1.
        assert_eq!(c.access(MemBlockId(0)), HierarchyOutcome::L2Hit);
        assert!(c.l1().contains(MemBlockId(0)));
    }

    #[test]
    fn degenerate_concrete_hierarchy_matches_single_level() {
        let h = HierarchyConfig::l1_only(l1());
        let mut c = ConcreteHierarchy::new(&h);
        let mut plain = ConcreteState::new(&l1());
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(48271) % 0x7fffffff;
            let b = MemBlockId(x % 64);
            let out = c.access(b);
            let hit = plain.access(b).is_hit();
            assert_eq!(out.is_l1_hit(), hit);
            assert_ne!(out, HierarchyOutcome::L2Hit);
        }
        assert_eq!(c.l1(), &plain);
    }

    #[test]
    fn no_back_invalidation_preserves_l1_residency() {
        // Force repeated L2 evictions of a hot block and check its L1
        // copy survives them all.
        let tiny_l1 = CacheConfig::new(2, 16, 32).unwrap(); // one 2-way set
        let tiny_l2 = CacheConfig::new(1, 16, 64).unwrap(); // 4 direct-mapped sets
        let h = HierarchyConfig::two_level(tiny_l1, tiny_l2).unwrap();
        let mut c = ConcreteHierarchy::new(&h);
        let hot = MemBlockId(0);
        c.access(hot);
        // Blocks 4, 8, 12 map to L2 set 0 like `hot`, each evicting it
        // from L2. Re-accessing `hot` in between keeps it one of the two
        // LRU ways of the single L1 set, so every re-access is an L1 hit
        // despite the block being long gone from L2.
        for b in [4u64, 8, 12] {
            c.access(MemBlockId(b));
            assert!(!c.l2().unwrap().contains(hot));
            assert_eq!(c.access(hot), HierarchyOutcome::L1Hit);
        }
    }

    #[test]
    fn works_for_all_l2_policies() {
        for policy in ReplacementPolicy::ALL {
            let l2p = l2().with_policy(policy).unwrap();
            let h = HierarchyConfig::two_level(l1(), l2p).unwrap();
            let mut c = ConcreteHierarchy::new(&h);
            assert_eq!(c.access(MemBlockId(3)), HierarchyOutcome::Miss);
            assert_eq!(c.access(MemBlockId(3)), HierarchyOutcome::L1Hit);
            // And the abstract side accepts the same geometry.
            let must = MustState::new(&l2p);
            let may = MayState::new(&l2p);
            assert!(must.is_empty());
            let _ = may.is_unbounded();
        }
    }
}
