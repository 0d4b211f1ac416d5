//! Must analysis: which blocks are *guaranteed* cached.
//!
//! Abstract must states assign each cached block an upper bound on its
//! logical age (0 = most recently accessed). A block present in the must
//! state is present in **every** concrete state the abstract state
//! represents, so a reference to it is an *always hit*. Update and join
//! follow Ferdinand's abstract LRU semantics (reference \[8\] of the paper).
//!
//! The domain is policy-generic through the configuration's
//! [`ReplacementPolicy`](crate::ReplacementPolicy): for LRU it runs at the
//! real associativity (exact); for FIFO and tree-PLRU it runs the same LRU
//! update at the policy's smaller *effective* associativity
//! ([`ReplacementPolicy::must_ways`](crate::ReplacementPolicy::must_ways)),
//! the relative-competitiveness reduction of Reineke & Grund — sound for
//! those policies, at the cost of fewer always-hit guarantees (see the
//! [`crate::policy`] module docs and DESIGN.md §10).

use std::fmt;

use rtpf_isa::MemBlockId;

use crate::config::CacheConfig;
use crate::packed;

/// Abstract must cache state.
///
/// Stored as a single sorted vector of packed `(set, block, age)` words —
/// see the `packed` module for the lane layout and DESIGN.md §11
/// for the rationale. One `u64` per guaranteed block halves the footprint
/// of the old `(MemBlockId, u32)` pairs, same-set entries sit contiguously
/// so an update only touches its set's short run, joins reduce to sorted
/// word merges whose equal-block case is a single `u64::max`, and state
/// equality (the fixpoint's hottest comparison) is a `memcmp`.
///
/// Each block appears at most once, ages stay below the policy's
/// *effective* associativity, and at most that many blocks of any one set
/// are present. [`iter`](MustState::iter) yields blocks in `(set, block)`
/// order — the storage order — not global block order.
///
/// # Example
///
/// ```
/// use rtpf_cache::{CacheConfig, MustState, ReplacementPolicy};
/// use rtpf_isa::MemBlockId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = CacheConfig::new(2, 16, 32)?; // one 2-way set, LRU
/// let mut must = MustState::new(&config);
/// must.update(MemBlockId(1));
/// must.update(MemBlockId(2));
/// assert!(must.contains(MemBlockId(1))); // guaranteed cached (age 1)
/// must.update(MemBlockId(3));            // ages 1 out of the guarantee
/// assert!(!must.contains(MemBlockId(1)));
///
/// // A non-LRU policy shrinks the guarantee window: FIFO(2) runs the
/// // same domain at effective associativity 1, so only the set's most
/// // recent access stays guaranteed.
/// let fifo = config.with_policy(ReplacementPolicy::Fifo)?;
/// let mut must = MustState::new(&fifo);
/// must.update(MemBlockId(1));
/// must.update(MemBlockId(2));
/// assert!(must.contains(MemBlockId(2)));
/// assert!(!must.contains(MemBlockId(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MustState {
    /// Sorted packed words: guaranteed-cached blocks with their maximal age.
    words: Vec<u64>,
    assoc: u32,
    n_sets: u32,
}

impl MustState {
    /// The empty must state (nothing guaranteed cached) — also the analysis
    /// top for joins and the correct entry state (`ĉ_I`). Runs at the
    /// policy's effective associativity (the real one for LRU), clamped to
    /// the packed age lane's width (`packed::MAX_AGE`) — running must at
    /// fewer ways is always sound, it merely guarantees less.
    ///
    /// `const`: the no-information state for a given configuration can live
    /// in a `static` and be shared instead of rebuilt per query.
    pub const fn new(config: &CacheConfig) -> Self {
        let ways = config.policy().must_ways(config.assoc());
        let assoc = if ways > packed::MAX_AGE {
            packed::MAX_AGE
        } else {
            ways
        };
        MustState {
            words: Vec::new(),
            assoc,
            n_sets: config.n_sets(),
        }
    }

    /// The packed words, for hashing by the state interner.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words, for the k-way merge in
    /// [`crate::join`] (which writes merged words into a reusable scratch
    /// state instead of allocating per join).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut Vec<u64> {
        &mut self.words
    }

    /// Maximal age of `block`, if it is guaranteed cached.
    pub fn age(&self, block: MemBlockId) -> Option<u32> {
        if block.0 > packed::BLOCK_MASK {
            return None; // unpackable ids are never stored
        }
        let key = packed::sort_key(self.n_sets, block.0);
        packed::find(&self.words, key)
            .ok()
            .map(|i| packed::age_of(self.words[i]))
    }

    /// Whether a reference to `block` is an always-hit in this state.
    #[inline]
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.age(block).is_some()
    }

    /// Abstract must update `Û(ĉ, s)`: the referenced block becomes age 0;
    /// younger blocks age by one; blocks aging past the associativity are
    /// no longer guaranteed cached. Only the referenced block's set run is
    /// scanned; the rest of the state is untouched.
    #[inline]
    pub fn update(&mut self, block: MemBlockId) {
        self.update_classify(block);
    }

    /// [`update`](MustState::update) fused with the always-hit query:
    /// applies the update and returns whether `block` was guaranteed
    /// cached *before* it — the answer [`contains`](MustState::contains)
    /// would have given — from the same binary search, so the fixpoint's
    /// classify-then-fold walk pays one lookup instead of two.
    pub fn update_classify(&mut self, block: MemBlockId) -> bool {
        let key = packed::sort_key(self.n_sets, block.0);
        let set_mask = u64::from(self.n_sets) - 1;
        let set = block.0 & set_mask;
        let assoc = u64::from(self.assoc);
        match packed::find(&self.words, key) {
            Ok(i) => {
                // Hit at age h: only blocks strictly younger than h age,
                // to at most h < assoc — nothing falls out of the
                // guarantee, and the refreshed block keeps its slot (the
                // sort key ignores the age lane), so the whole rewrite is
                // in place with no insertion or tail move.
                let cutoff = self.words[i] & packed::AGE_MASK;
                let (lo, hi) = packed::group_range(&self.words, key, Ok(i));
                for r in lo..hi {
                    let word = self.words[r];
                    let age = word & packed::AGE_MASK;
                    // The group run may mix sets if groups collide
                    // (> 2^20 sets); re-check the set from the block id.
                    if r != i && packed::block_of(word) & set_mask == set && age < cutoff {
                        self.words[r] = word + 1;
                    }
                }
                self.words[i] = key << packed::AGE_BITS;
                true
            }
            Err(ins) => {
                // Miss: every same-set block ages (cutoff = assoc) and may
                // fall out of the guarantee.
                self.miss_update(key, set, set_mask, assoc, ins);
                false
            }
        }
    }

    /// Compact-bumps run words in `[start, hi)` down to `w` — aging
    /// same-set words, dropping those that reach `assoc` — then closes the
    /// remaining gap against the state tail (at most one tail move).
    fn compact_tail(
        &mut self,
        start: usize,
        hi: usize,
        mut w: usize,
        set: u64,
        set_mask: u64,
        assoc: u64,
    ) {
        for r in start..hi {
            let word = self.words[r];
            if packed::block_of(word) & set_mask == set {
                if (word & packed::AGE_MASK) + 1 >= assoc {
                    continue; // aged out of the guarantee
                }
                self.words[w] = word + 1;
            } else {
                self.words[w] = word;
            }
            w += 1;
        }
        if w < hi {
            self.words.copy_within(hi.., w);
            self.words.truncate(self.words.len() - (hi - w));
        }
    }

    /// The miss half of [`update_classify`](MustState::update_classify):
    /// ages the whole set run, drops what reaches `assoc`, and inserts the
    /// referenced block at age 0 — reusing the first dropped slot so the
    /// common saturated-set case never moves the state tail.
    fn miss_update(&mut self, key: u64, set: u64, set_mask: u64, assoc: u64, ins: usize) {
        let (lo, hi) = packed::group_range(&self.words, key, Err(ins));
        // Compact-bump the run prefix before the insertion point; a
        // removal there opens the slot the new word needs.
        let mut w = lo;
        for r in lo..ins {
            let word = self.words[r];
            if packed::block_of(word) & set_mask == set {
                if (word & packed::AGE_MASK) + 1 >= assoc {
                    continue;
                }
                self.words[w] = word + 1;
            } else {
                self.words[w] = word;
            }
            w += 1;
        }
        let new_word = key << packed::AGE_BITS;
        if w < ins {
            self.words[w] = new_word;
            self.compact_tail(ins, hi, w + 1, set, set_mask, assoc);
            return;
        }
        // No slot opened yet: shift the run suffix right with a carry
        // until the first removal absorbs it; only if nothing ages out
        // does the insertion move the tail.
        let mut carry = new_word;
        for r in ins..hi {
            let word = self.words[r];
            if packed::block_of(word) & set_mask == set {
                if (word & packed::AGE_MASK) + 1 >= assoc {
                    self.words[r] = carry;
                    self.compact_tail(r + 1, hi, r + 1, set, set_mask, assoc);
                    return;
                }
                self.words[r] = carry;
                carry = word + 1;
            } else {
                self.words[r] = carry;
                carry = word;
            }
        }
        self.words.insert(hi, carry);
    }

    /// Must join (Definition in \[8\]): keep only blocks present on **both**
    /// sides, at their *maximal* age. Identical states (the common case at
    /// a converged fixpoint) short-circuit via a word-wise `memcmp`.
    pub fn join(&self, other: &MustState) -> MustState {
        debug_assert_eq!(self.n_sets, other.n_sets);
        debug_assert_eq!(self.assoc, other.assoc);
        if self.words == other.words {
            return self.clone();
        }
        let (a, b) = (&self.words, &other.words);
        let mut words = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (wa, wb) = (a[i], b[j]);
            match packed::key_of(wa).cmp(&packed::key_of(wb)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Equal keys share all high lanes, so the word max is
                    // the same block at the max age.
                    words.push(wa.max(wb));
                    i += 1;
                    j += 1;
                }
            }
        }
        MustState {
            words,
            assoc: self.assoc,
            n_sets: self.n_sets,
        }
    }

    /// All blocks guaranteed cached, with their maximal ages, in
    /// `(set, block)` order.
    pub fn iter(&self) -> impl Iterator<Item = (MemBlockId, u32)> + '_ {
        self.words
            .iter()
            .map(|&w| (MemBlockId(packed::block_of(w)), packed::age_of(w)))
    }

    /// Number of blocks guaranteed cached.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing is guaranteed cached.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl fmt::Display for MustState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in 0..u64::from(self.n_sets) {
            write!(f, "set {s}:")?;
            for h in 0..self.assoc {
                let cells: Vec<String> = self
                    .iter()
                    .filter(|e| e.0 .0 % u64::from(self.n_sets) == s && e.1 == h)
                    .map(|e| e.0.to_string())
                    .collect();
                write!(f, " age{h}={{{}}}", cells.join(","))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(2, 16, 32).unwrap() // one set, 2-way
    }

    #[test]
    fn update_inserts_at_age_zero() {
        let mut m = MustState::new(&cfg());
        m.update(MemBlockId(1));
        assert_eq!(m.age(MemBlockId(1)), Some(0));
        assert!(m.contains(MemBlockId(1)));
    }

    #[test]
    fn update_ages_out_old_blocks() {
        let mut m = MustState::new(&cfg());
        m.update(MemBlockId(1));
        m.update(MemBlockId(2)); // 1 → age 1
        assert_eq!(m.age(MemBlockId(1)), Some(1));
        m.update(MemBlockId(3)); // 1 ages past assoc → gone
        assert!(!m.contains(MemBlockId(1)));
        assert_eq!(m.age(MemBlockId(2)), Some(1));
        assert_eq!(m.age(MemBlockId(3)), Some(0));
    }

    #[test]
    fn touching_a_guaranteed_block_refreshes_it() {
        let mut m = MustState::new(&cfg());
        m.update(MemBlockId(1));
        m.update(MemBlockId(2));
        m.update(MemBlockId(1)); // promote back to 0; 2 ages to 1
        assert_eq!(m.age(MemBlockId(1)), Some(0));
        assert_eq!(m.age(MemBlockId(2)), Some(1));
        m.update(MemBlockId(3));
        assert!(!m.contains(MemBlockId(2)));
    }

    #[test]
    fn hit_update_leaves_older_blocks_alone() {
        // 4-way single set: a hit at age 1 must not disturb ages ≥ 1.
        let config = CacheConfig::new(4, 16, 64).unwrap();
        let mut m = MustState::new(&config);
        for b in [1u64, 2, 3, 4] {
            m.update(MemBlockId(b));
        }
        // Ages now: 4→0, 3→1, 2→2, 1→3.
        m.update(MemBlockId(3)); // hit at age 1
        assert_eq!(m.age(MemBlockId(3)), Some(0));
        assert_eq!(m.age(MemBlockId(4)), Some(1));
        assert_eq!(m.age(MemBlockId(2)), Some(2)); // untouched
        assert_eq!(m.age(MemBlockId(1)), Some(3)); // untouched
    }

    #[test]
    fn join_keeps_intersection_at_max_age() {
        let mut a = MustState::new(&cfg());
        a.update(MemBlockId(1)); // age 0 in a
        a.update(MemBlockId(2));
        let mut b = MustState::new(&cfg());
        b.update(MemBlockId(2));
        b.update(MemBlockId(1)); // age 0 in b, but age 1 in a
        let j = a.join(&b);
        assert_eq!(j.age(MemBlockId(1)), Some(1)); // max(1, 0)
        assert_eq!(j.age(MemBlockId(2)), Some(1)); // max(0, 1)
    }

    #[test]
    fn join_drops_one_sided_blocks() {
        let mut a = MustState::new(&cfg());
        a.update(MemBlockId(1));
        let b = MustState::new(&cfg());
        let j = a.join(&b);
        assert!(j.is_empty());
    }

    #[test]
    fn per_set_capacity_is_respected() {
        // 2 sets × 2 ways: filling one set never evicts the other's blocks.
        let config = CacheConfig::new(2, 16, 64).unwrap();
        let mut m = MustState::new(&config);
        m.update(MemBlockId(1)); // set 1
        m.update(MemBlockId(2)); // set 0
        m.update(MemBlockId(4)); // set 0
        m.update(MemBlockId(6)); // set 0: evicts 2, not 1
        assert!(m.contains(MemBlockId(1)));
        assert!(!m.contains(MemBlockId(2)));
        assert_eq!(m.len(), 3);
        assert!(m.iter().all(|(_, age)| age < config.assoc()));
    }

    #[test]
    fn non_lru_policies_shrink_the_guarantee_window() {
        use crate::policy::ReplacementPolicy;
        // FIFO(4): effective associativity 1 — only the last access holds.
        let fifo = CacheConfig::new(4, 16, 64)
            .unwrap()
            .with_policy(ReplacementPolicy::Fifo)
            .unwrap();
        let mut m = MustState::new(&fifo);
        m.update(MemBlockId(1));
        m.update(MemBlockId(2));
        assert!(m.contains(MemBlockId(2)));
        assert!(!m.contains(MemBlockId(1)));
        // PLRU(4): effective associativity log2(4)+1 = 3.
        let plru = CacheConfig::new(4, 16, 64)
            .unwrap()
            .with_policy(ReplacementPolicy::Plru)
            .unwrap();
        let mut m = MustState::new(&plru);
        for b in [1u64, 2, 3] {
            m.update(MemBlockId(b));
        }
        assert!(m.contains(MemBlockId(1))); // age 2 < 3
        m.update(MemBlockId(4));
        assert!(!m.contains(MemBlockId(1))); // aged past the window
        assert!(m.contains(MemBlockId(2)));
    }

    #[test]
    fn soundness_vs_concrete_on_a_fixed_string() {
        use crate::concrete::ConcreteState;
        // Run the same access string through the concrete and must models;
        // every must-cached block must be concretely cached.
        let config = CacheConfig::new(2, 16, 64).unwrap();
        let mut c = ConcreteState::new(&config);
        let mut m = MustState::new(&config);
        for &b in &[1u64, 5, 1, 9, 13, 5, 1, 2, 6, 2] {
            c.access(MemBlockId(b));
            m.update(MemBlockId(b));
            for (blk, _) in m.iter() {
                assert!(c.contains(blk), "must claims {blk} but concrete lacks it");
            }
        }
    }

    #[test]
    fn iter_yields_set_then_block_order() {
        // 2 sets: blocks 1,3 are set 1, blocks 2,4 set 0. Storage order
        // interleaves by set, not by global block id.
        let config = CacheConfig::new(2, 16, 64).unwrap();
        let mut m = MustState::new(&config);
        for b in [1u64, 2, 3, 4] {
            m.update(MemBlockId(b));
        }
        let blocks: Vec<u64> = m.iter().map(|(b, _)| b.0).collect();
        assert_eq!(blocks, vec![2, 4, 1, 3]);
    }

    #[test]
    fn oversized_block_queries_are_absent_not_fatal() {
        let m = MustState::new(&cfg());
        assert!(!m.contains(MemBlockId(1 << 40)));
        assert_eq!(m.age(MemBlockId(1 << 40)), None);
    }
}
