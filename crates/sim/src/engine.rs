//! Cycle-accounting cache engine with non-blocking prefetch.

use std::collections::BTreeSet;

use rtpf_cache::{CacheConfig, ConcreteState, HierarchyConfig, MemTiming};
use rtpf_energy::MemStats;
use rtpf_isa::MemBlockId;

/// Hook for hardware prefetching baselines.
///
/// The simulator reports fetches and resolved control transfers; every
/// suggested block is issued as a non-blocking fill (if not already cached
/// or in flight). Implementations live in `rtpf-baselines`.
pub trait HwPrefetcher {
    /// Called after a demand fetch at `addr` of `block`; returns blocks to
    /// prefetch (e.g. the next line).
    fn on_fetch(&mut self, addr: u64, block: MemBlockId, was_miss: bool) -> Vec<MemBlockId>;

    /// Called after a control transfer from the branch at `branch_addr` to
    /// a target in `target_block`; `taken` distinguishes taken branches
    /// from fall-through. Returns blocks to prefetch (e.g. the predicted
    /// target from an RPT).
    fn on_branch(
        &mut self,
        branch_addr: u64,
        target_block: MemBlockId,
        taken: bool,
    ) -> Vec<MemBlockId>;
}

/// Statically locked cache contents: a set of blocks that always hit and
/// are never evicted; everything else bypasses the cache straight to the
/// level-two memory (the classic full-lock model of [4, 14]).
#[derive(Clone, Debug, Default)]
pub struct LockedContents {
    blocks: BTreeSet<MemBlockId>,
}

impl LockedContents {
    /// Locks exactly the given blocks.
    pub fn new(blocks: impl IntoIterator<Item = MemBlockId>) -> Self {
        LockedContents {
            blocks: blocks.into_iter().collect(),
        }
    }

    /// Whether `block` is locked in.
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.blocks.contains(&block)
    }

    /// Number of locked blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether nothing is locked.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The simulation cache: the exact policy state (LRU/FIFO/tree-PLRU, per
/// the configuration), prefetch port, counters, and clock.
#[derive(Debug)]
pub struct CacheEngine {
    cache: ConcreteState,
    /// Unified second level, filled from DRAM on its own misses
    /// (fill-inclusive, no back-invalidation — mirrors
    /// [`rtpf_cache::ConcreteHierarchy`]).
    l2: Option<ConcreteState>,
    /// Cost of an L1-miss-L2-hit (`miss_cycles` when no L2 latency given).
    l2_hit_cycles: u64,
    timing: MemTiming,
    locked: Option<LockedContents>,
    /// Prefetches in flight: `(block, ready_cycle)`.
    inflight: Vec<(MemBlockId, u64)>,
    /// Current cycle.
    pub cycle: u64,
    /// Activity counters.
    pub stats: MemStats,
    /// Prefetch operations issued (software + hardware).
    pub prefetches_issued: u64,
    /// Demand fetches that hit only thanks to a completed/in-flight prefetch.
    pub prefetch_useful: u64,
    /// Cycles spent stalling on in-flight prefetches.
    pub stall_cycles: u64,
    /// Cached blocks installed by a completed prefetch and not yet hit
    /// (for usefulness stats); every eviction removes its block.
    prefetched: BTreeSet<MemBlockId>,
}

impl CacheEngine {
    /// A cold engine for the given configuration (geometry *and*
    /// replacement policy) and timing.
    pub fn new(config: &CacheConfig, timing: MemTiming) -> Self {
        Self::new_hierarchy(&HierarchyConfig::l1_only(*config), timing)
    }

    /// A cold engine for a full hierarchy: with an L2 present, L1 misses
    /// look it up before going to DRAM, and an L2 hit costs
    /// [`MemTiming::l2_hit_cycles`] instead of the full miss penalty.
    pub fn new_hierarchy(hierarchy: &HierarchyConfig, timing: MemTiming) -> Self {
        CacheEngine {
            cache: ConcreteState::new(hierarchy.l1()),
            l2: hierarchy.l2().map(ConcreteState::new),
            l2_hit_cycles: timing.l2_hit_cycles.unwrap_or(timing.miss_cycles),
            timing,
            locked: None,
            inflight: Vec::new(),
            cycle: 0,
            stats: MemStats::default(),
            prefetches_issued: 0,
            prefetch_useful: 0,
            stall_cycles: 0,
            prefetched: BTreeSet::new(),
        }
    }

    /// Serves an L1 miss from the levels below: looks up the L2 when
    /// present (filling it from DRAM on an L2 miss) and returns the cycle
    /// cost of the whole round trip.
    fn memory_latency(&mut self, block: MemBlockId) -> u64 {
        match &mut self.l2 {
            Some(l2) => {
                self.stats.l2_accesses += 1;
                if l2.access(block).is_hit() {
                    self.stats.l2_hits += 1;
                    self.l2_hit_cycles
                } else {
                    self.stats.l2_misses += 1;
                    self.stats.l2_fills += 1;
                    self.timing.miss_cycles
                }
            }
            None => self.timing.miss_cycles,
        }
    }

    /// Replaces normal operation with statically locked contents.
    pub fn lock(&mut self, contents: LockedContents) {
        self.locked = Some(contents);
    }

    /// Installs a prefetched block as a fill (not a demand access). A
    /// block the fill evicts stops counting as prefetched.
    fn install(&mut self, block: MemBlockId) {
        if let Some(ev) = self.cache.access(block).evicted() {
            self.prefetched.remove(&ev);
        }
        self.stats.fills += 1;
    }

    /// Completes every prefetch whose latency has elapsed, installing the
    /// block and marking it prefetched until its first demand hit.
    fn drain_inflight(&mut self) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].1 <= now {
                let (block, _) = self.inflight.swap_remove(i);
                self.install(block);
                self.prefetched.insert(block);
            } else {
                i += 1;
            }
        }
    }

    /// A demand instruction fetch of `block`. Advances the clock and
    /// returns whether it hit.
    ///
    /// With no prefetch in flight and nothing locked (the common case)
    /// the fetch is one cache access plus counter updates.
    pub fn fetch(&mut self, block: MemBlockId) -> bool {
        self.stats.accesses += 1;
        if !self.inflight.is_empty() || self.locked.is_some() {
            if let Some(hit) = self.fetch_pending(block) {
                self.stats.cycles = self.cycle;
                return hit;
            }
        }

        let outcome = self.cache.access(block);
        if outcome.is_hit() {
            self.stats.hits += 1;
            if !self.prefetched.is_empty() && self.prefetched.remove(&block) {
                self.prefetch_useful += 1;
            }
            self.cycle += self.timing.hit_cycles;
        } else {
            self.stats.misses += 1;
            self.stats.fills += 1;
            self.cycle += self.memory_latency(block);
            if let Some(ev) = outcome.evicted().filter(|_| !self.prefetched.is_empty()) {
                self.prefetched.remove(&ev);
            }
        }
        self.stats.cycles = self.cycle;
        outcome.is_hit()
    }

    /// The part of a fetch only prefetches and locking need: completes the
    /// elapsed prefetches, then serves the fetch outright if the cache is
    /// locked or `block` is still in flight. `None` leaves the fetch to
    /// the plain cache access.
    fn fetch_pending(&mut self, block: MemBlockId) -> Option<bool> {
        self.drain_inflight();
        if let Some(locked) = &self.locked {
            // Locked cache: locked blocks hit, everything else goes to DRAM
            // every time (no fill, no pollution).
            let hit = locked.contains(block);
            if hit {
                self.stats.hits += 1;
                self.cycle += self.timing.hit_cycles;
            } else {
                self.stats.misses += 1;
                // Only the L1 is locked; the bypassing access is still
                // served by (and allocates in) the L2 when one exists.
                self.cycle += self.memory_latency(block);
                self.stats.fills += 1; // the block transfer still happens
            }
            return Some(hit);
        }

        // An in-flight prefetch of this block: stall for the remaining
        // latency, then count as a (prefetch-assisted) hit. The prefetch is
        // used up here, so the block is not marked prefetched.
        let pos = self.inflight.iter().position(|&(b, _)| b == block)?;
        let (b, ready) = self.inflight.swap_remove(pos);
        let wait = ready.saturating_sub(self.cycle);
        self.stall_cycles += wait;
        self.cycle += wait;
        self.install(b);
        self.stats.hits += 1;
        self.prefetch_useful += 1;
        self.cycle += self.timing.hit_cycles;
        Some(true)
    }

    /// A demand fetch of `block` immediately followed by `n - 1` repeat
    /// fetches of the same block (consecutive instructions sharing one
    /// memory block). Exactly equivalent to calling [`CacheEngine::fetch`]
    /// `n` times: after the first access the block is resident, and a
    /// repeat access to the resident block cannot change the replacement
    /// state under any supported policy (LRU re-promotes the front, FIFO
    /// never reorders, tree-PLRU's touch is idempotent), so with no
    /// prefetch in flight the repeats collapse to counter arithmetic.
    /// Returns whether the *first* access hit.
    pub fn fetch_run(&mut self, block: MemBlockId, n: u32) -> bool {
        let hit = self.fetch(block);
        let rest = u64::from(n.saturating_sub(1));
        if rest == 0 {
            return hit;
        }
        if !self.inflight.is_empty() || self.locked.is_some() {
            // An in-flight prefetch could complete mid-run (its install
            // order interleaves with the repeat hits), and a locked cache
            // re-misses unlocked blocks on every repeat; take the exact
            // path.
            for _ in 0..rest {
                self.fetch(block);
            }
            return hit;
        }
        // The first fetch already consumed any `prefetched` entry, so the
        // repeat hits are pure counter arithmetic.
        self.stats.accesses += rest;
        self.stats.hits += rest;
        self.cycle += rest * self.timing.hit_cycles;
        self.stats.cycles = self.cycle;
        hit
    }

    /// Issues a non-blocking prefetch of `block` (no clock cost beyond the
    /// instruction fetch, which the caller accounts separately). With an
    /// L2, a prefetch whose target is L2-resident completes after the L2
    /// round trip instead of the full DRAM latency.
    pub fn prefetch(&mut self, block: MemBlockId) {
        self.drain_inflight();
        if self.cache.contains(block) {
            return;
        }
        if self.inflight.iter().any(|&(b, _)| b == block) {
            return;
        }
        self.prefetches_issued += 1;
        let latency = match &mut self.l2 {
            Some(l2) => {
                self.stats.l2_accesses += 1;
                if l2.access(block).is_hit() {
                    self.stats.l2_hits += 1;
                    self.l2_hit_cycles.saturating_sub(self.timing.hit_cycles)
                } else {
                    self.stats.l2_misses += 1;
                    self.stats.l2_fills += 1;
                    self.timing.prefetch_latency
                }
            }
            None => self.timing.prefetch_latency,
        };
        self.inflight.push((block, self.cycle + latency));
    }

    /// Whether `block` is currently cached in L1 (completed fills only).
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.cache.contains(block)
    }

    /// The L2 contents, when the engine simulates a two-level hierarchy.
    pub fn l2(&self) -> Option<&ConcreteState> {
        self.l2.as_ref()
    }

    /// The timing model in use.
    pub fn timing(&self) -> &MemTiming {
        &self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CacheEngine {
        let cfg = CacheConfig::new(2, 16, 64).unwrap();
        CacheEngine::new(&cfg, MemTiming::with_miss_penalty(20))
    }

    #[test]
    fn demand_miss_then_hit() {
        let mut e = engine();
        assert!(!e.fetch(MemBlockId(1)));
        assert!(e.fetch(MemBlockId(1)));
        assert_eq!(e.stats.misses, 1);
        assert_eq!(e.stats.hits, 1);
        assert_eq!(e.cycle, 21 + 1);
    }

    #[test]
    fn prefetch_hides_latency_when_early_enough() {
        let mut e = engine();
        e.prefetch(MemBlockId(9));
        // Burn more than Λ = 21 cycles on other fetches.
        e.fetch(MemBlockId(1)); // miss, 21 cycles
        e.fetch(MemBlockId(1)); // hit, 1 cycle
        assert!(e.cycle >= 21);
        let hit = e.fetch(MemBlockId(9));
        assert!(hit, "prefetched block must hit");
        assert_eq!(e.stall_cycles, 0);
        assert_eq!(e.prefetch_useful, 1);
    }

    #[test]
    fn a_prefetch_evicted_unused_is_never_counted_useful() {
        // One direct-mapped line. 10's fill evicts the unused 9 while both
        // drain, so 9's later demand miss and hit owe nothing to a prefetch.
        let mut e = CacheEngine::new(
            &CacheConfig::new(1, 16, 16).unwrap(),
            MemTiming::with_miss_penalty(20),
        );
        e.prefetch(MemBlockId(9));
        e.prefetch(MemBlockId(10));
        for b in [1, 1, 9, 9] {
            e.fetch(MemBlockId(b));
        }
        assert_eq!(e.prefetch_useful, 0);
    }

    #[test]
    fn an_in_flight_hit_uses_up_its_prefetch() {
        let mut e = engine();
        e.prefetch(MemBlockId(9));
        assert!(e.fetch(MemBlockId(9)), "stalls on the in-flight fill");
        assert!(e.fetch(MemBlockId(9)));
        assert_eq!(e.prefetch_useful, 1);
    }

    #[test]
    fn late_prefetch_stalls_only_residual() {
        let mut e = engine();
        e.fetch(MemBlockId(1)); // 21 cycles
        e.prefetch(MemBlockId(9)); // ready at 21 + 21 = 42
        e.fetch(MemBlockId(1)); // hit → cycle 22
        let before = e.cycle;
        let hit = e.fetch(MemBlockId(9));
        assert!(hit);
        // Stalled 42 − 22 = 20 cycles + 1 hit cycle; cheaper than a miss.
        assert_eq!(e.cycle, before + 20 + 1);
        assert_eq!(e.stall_cycles, 20);
    }

    #[test]
    fn prefetch_of_cached_block_is_a_no_op() {
        let mut e = engine();
        e.fetch(MemBlockId(3));
        e.prefetch(MemBlockId(3));
        assert_eq!(e.prefetches_issued, 0);
    }

    #[test]
    fn duplicate_inflight_prefetch_is_deduplicated() {
        let mut e = engine();
        e.prefetch(MemBlockId(5));
        e.prefetch(MemBlockId(5));
        assert_eq!(e.prefetches_issued, 1);
    }

    #[test]
    fn locked_cache_hits_only_locked_blocks() {
        let mut e = engine();
        e.lock(LockedContents::new([MemBlockId(1), MemBlockId(2)]));
        assert!(e.fetch(MemBlockId(1)));
        assert!(e.fetch(MemBlockId(2)));
        assert!(!e.fetch(MemBlockId(3)));
        assert!(!e.fetch(MemBlockId(3)), "unlocked blocks never allocate");
        assert_eq!(e.stats.hits, 2);
        assert_eq!(e.stats.misses, 2);
    }

    #[test]
    fn counters_reconcile() {
        let mut e = engine();
        for b in [1u64, 2, 3, 1, 2, 3, 4, 1] {
            e.fetch(MemBlockId(b));
        }
        assert_eq!(e.stats.accesses, 8);
        assert_eq!(e.stats.hits + e.stats.misses, 8);
        assert_eq!(e.stats.cycles, e.cycle);
    }

    fn two_level() -> CacheEngine {
        // L1: one 2-way set over 16 B blocks; L2: 4-way, 16 blocks.
        let l1 = CacheConfig::new(2, 16, 32).unwrap();
        let l2 = CacheConfig::new(4, 16, 256).unwrap();
        let h = HierarchyConfig::two_level(l1, l2).unwrap();
        CacheEngine::new_hierarchy(&h, MemTiming::with_miss_penalty(20).with_l2_hit(8))
    }

    #[test]
    fn l1_only_engine_keeps_l2_counters_at_zero() {
        let mut e = engine();
        for b in [1u64, 2, 3, 1, 2, 3] {
            e.fetch(MemBlockId(b));
        }
        assert!(e.l2().is_none());
        assert_eq!(e.stats.l2_accesses, 0);
        assert_eq!(e.stats.l2_hits, 0);
        assert_eq!(e.stats.l2_misses, 0);
        assert_eq!(e.stats.l2_fills, 0);
    }

    #[test]
    fn l2_hit_costs_less_than_a_dram_miss() {
        let mut e = two_level();
        // Cold: miss in both levels, full DRAM penalty.
        assert!(!e.fetch(MemBlockId(1)));
        assert_eq!(e.cycle, 21);
        assert_eq!(
            (e.stats.l2_accesses, e.stats.l2_misses, e.stats.l2_fills),
            (1, 1, 1)
        );
        // Evict 1 from the single 2-way L1 set; the L2 keeps everything.
        e.fetch(MemBlockId(2));
        e.fetch(MemBlockId(3));
        let before = e.cycle;
        // L1 miss, L2 hit: pays 8, not 21.
        assert!(!e.fetch(MemBlockId(1)));
        assert_eq!(e.cycle, before + 8);
        assert_eq!(e.stats.l2_hits, 1);
        // The L2 access total reconciles.
        assert_eq!(e.stats.l2_accesses, e.stats.l2_hits + e.stats.l2_misses);
        assert_eq!(e.stats.l2_fills, e.stats.l2_misses);
    }

    #[test]
    fn repeat_hits_never_touch_the_l2() {
        let mut e = two_level();
        e.fetch_run(MemBlockId(7), 50);
        // One L1 miss went down; the 49 repeat hits stayed in L1.
        assert_eq!(e.stats.accesses, 50);
        assert_eq!(e.stats.misses, 1);
        assert_eq!(e.stats.l2_accesses, 1);
    }

    #[test]
    fn l2_accesses_reconcile_with_l1_misses_and_prefetches() {
        let mut e = two_level();
        for b in [1u64, 2, 3, 1, 2, 3, 4, 1] {
            e.fetch(MemBlockId(b));
        }
        e.prefetch(MemBlockId(9));
        assert_eq!(
            e.stats.l2_accesses,
            e.stats.misses + e.prefetches_issued,
            "every L1 miss and every issued prefetch consults the L2, nothing else does"
        );
    }

    #[test]
    fn prefetch_from_l2_completes_after_the_l2_round_trip() {
        let mut e = two_level();
        // Install 9 in the L2 (and L1), then push it out of the tiny L1.
        e.fetch(MemBlockId(9));
        e.fetch(MemBlockId(1));
        e.fetch(MemBlockId(2));
        assert!(!e.contains(MemBlockId(9)));
        let start = e.cycle;
        e.prefetch(MemBlockId(9));
        // Fetch immediately: the stall is the L2 residual (8 − 1), far
        // below the DRAM prefetch latency of 20.
        assert!(e.fetch(MemBlockId(9)));
        assert_eq!(e.stall_cycles, 7);
        assert_eq!(e.cycle, start + 7 + 1);
        assert_eq!(e.prefetch_useful, 1);
    }

    #[test]
    fn locked_l1_miss_is_served_by_the_l2() {
        let mut e = two_level();
        e.lock(LockedContents::new([MemBlockId(1)]));
        assert!(e.fetch(MemBlockId(1)));
        // First bypass: L2 miss, full penalty; the L2 allocates.
        let before = e.cycle;
        assert!(!e.fetch(MemBlockId(5)));
        assert_eq!(e.cycle, before + 21);
        // Second bypass of the same block: L2 hit.
        let before = e.cycle;
        assert!(!e.fetch(MemBlockId(5)));
        assert_eq!(e.cycle, before + 8);
        assert_eq!(e.stats.l2_hits, 1);
    }

    #[test]
    fn degenerate_hierarchy_engine_matches_plain_engine() {
        let cfg = CacheConfig::new(2, 16, 64).unwrap();
        let timing = MemTiming::with_miss_penalty(20);
        let mut plain = CacheEngine::new(&cfg, timing);
        let mut degen = CacheEngine::new_hierarchy(&HierarchyConfig::l1_only(cfg), timing);
        for b in [1u64, 2, 3, 1, 9, 2, 3, 4, 1, 5, 2, 9] {
            assert_eq!(plain.fetch(MemBlockId(b)), degen.fetch(MemBlockId(b)));
        }
        plain.prefetch(MemBlockId(30));
        degen.prefetch(MemBlockId(30));
        plain.fetch(MemBlockId(30));
        degen.fetch(MemBlockId(30));
        assert_eq!(plain.stats, degen.stats);
        assert_eq!(plain.cycle, degen.cycle);
        assert_eq!(plain.stall_cycles, degen.stall_cycles);
    }

    #[test]
    fn engine_follows_the_configured_policy() {
        use rtpf_cache::ReplacementPolicy;
        // Single 2-way set. The string [1, 2, 1, 3, 1] separates LRU from
        // FIFO: the hit on 1 protects it under LRU but not FIFO.
        let string = [1u64, 2, 1, 3, 1];
        let run = |policy| {
            let cfg = CacheConfig::new(2, 16, 32)
                .unwrap()
                .with_policy(policy)
                .unwrap();
            let mut e = CacheEngine::new(&cfg, MemTiming::with_miss_penalty(20));
            string
                .iter()
                .map(|&b| e.fetch(MemBlockId(b)))
                .collect::<Vec<bool>>()
        };
        assert_eq!(
            run(ReplacementPolicy::Lru),
            [false, false, true, false, true]
        );
        // FIFO: the hit does not refresh 1, so 3 evicts it.
        assert_eq!(
            run(ReplacementPolicy::Fifo),
            [false, false, true, false, false]
        );
        // Every policy keeps the counters consistent.
        for policy in ReplacementPolicy::ALL {
            let cfg = CacheConfig::new(2, 16, 64)
                .unwrap()
                .with_policy(policy)
                .unwrap();
            let mut e = CacheEngine::new(&cfg, MemTiming::with_miss_penalty(20));
            for b in [1u64, 2, 3, 1, 2, 3, 4, 1, 5, 2] {
                e.fetch(MemBlockId(b));
            }
            assert_eq!(e.stats.hits + e.stats.misses, e.stats.accesses);
            assert_eq!(e.stats.cycles, e.cycle);
        }
    }
}
