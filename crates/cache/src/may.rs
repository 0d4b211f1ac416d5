//! May analysis: which blocks *might* be cached.
//!
//! Abstract may states assign each block a lower bound on its LRU age. A
//! block absent from the may state is cached in **no** concrete state the
//! abstract state represents, so a reference to it is an *always miss*.
//!
//! For LRU the domain is exact. FIFO and tree-PLRU have no finite LRU
//! reduction on the may side (a FIFO block ages only on misses, which the
//! abstract domain cannot distinguish from hits; a PLRU block can be
//! protected indefinitely by the tree bits), so their may domain is
//! *unbounded* ([`ReplacementPolicy::UNBOUNDED`](crate::ReplacementPolicy::UNBOUNDED)):
//! possibly-cached blocks never age out, and only blocks that were never
//! accessed on any reaching path classify as always-miss. Sound for any
//! policy, but strictly less precise than the exact LRU domain.

use std::fmt;

use rtpf_isa::MemBlockId;

use crate::config::CacheConfig;
use crate::packed;
use crate::policy::ReplacementPolicy;

/// Abstract may cache state.
///
/// Stored as a single sorted vector of packed `(set, block, age)` words —
/// the same layout as [`crate::MustState`]; see the `packed` module and
/// DESIGN.md §11. In the unbounded domain ages are always 0 and the
/// update degenerates to a sorted-set insert on the packed keys.
///
/// Each block appears at most once and ages stay below the policy's
/// effective associativity (which is [`ReplacementPolicy::UNBOUNDED`] for
/// FIFO and tree-PLRU — see the module docs). [`iter`](MayState::iter)
/// yields blocks in `(set, block)` order — the storage order — not global
/// block order.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MayState {
    /// Sorted packed words: possibly-cached blocks with their minimal age.
    words: Vec<u64>,
    assoc: u32,
    n_sets: u32,
}

impl MayState {
    /// The empty may state (nothing possibly cached): the correct entry
    /// state for a cold cache. A bounded effective associativity too wide
    /// for the packed age lane (`packed::MAX_AGE`) widens to
    /// [`ReplacementPolicy::UNBOUNDED`] — never ruling out eviction is
    /// sound, it merely classifies fewer always-misses.
    ///
    /// `const`: the no-information state for a given configuration can live
    /// in a `static` and be shared instead of rebuilt per query.
    pub const fn new(config: &CacheConfig) -> Self {
        let ways = config.policy().may_ways(config.assoc());
        let assoc = if ways != ReplacementPolicy::UNBOUNDED && ways > packed::MAX_AGE {
            ReplacementPolicy::UNBOUNDED
        } else {
            ways
        };
        MayState {
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

    /// Minimal age of `block`, if it might be cached.
    pub fn age(&self, block: MemBlockId) -> Option<u32> {
        if block.0 > packed::BLOCK_MASK {
            return None; // unpackable ids are never stored
        }
        let key = packed::sort_key(self.n_sets, block.0);
        packed::find(&self.words, key)
            .ok()
            .map(|i| packed::age_of(self.words[i]))
    }

    /// Whether `block` might be cached. A `false` answer classifies a
    /// reference to it as always-miss.
    #[inline]
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.age(block).is_some()
    }

    /// Whether this state lives in the no-information unbounded domain
    /// (FIFO / tree-PLRU, or a bounded effective associativity widened
    /// past the packed age lane). An unclassified reference under an
    /// unbounded may domain is a *sentinel* NC — the always-miss half of
    /// the classifier was structurally absent, not outvoted — which is
    /// what the refinement stage targets first (see
    /// [`crate::refine::NcCause`]).
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.assoc == ReplacementPolicy::UNBOUNDED
    }

    /// Abstract may update: the referenced block gets minimal age 0; blocks
    /// whose minimal age was ≤ the referenced block's move one step older;
    /// blocks aging past the (effective) associativity are definitely
    /// evicted. In an unbounded domain nothing ever ages out: the update
    /// only records that the block may now be cached.
    #[inline]
    pub fn update(&mut self, block: MemBlockId) {
        self.update_classify(block);
    }

    /// [`update`](MayState::update) fused with the possibly-cached query:
    /// applies the update and returns whether `block` might have been
    /// cached *before* it — the answer [`contains`](MayState::contains)
    /// would have given (`false` classifies the reference always-miss) —
    /// from the same binary search, so the fixpoint's classify-then-fold
    /// walk pays one lookup instead of two.
    pub fn update_classify(&mut self, block: MemBlockId) -> bool {
        let key = packed::sort_key(self.n_sets, block.0);
        if self.assoc == ReplacementPolicy::UNBOUNDED {
            return match packed::find(&self.words, key) {
                Ok(_) => true,
                Err(pos) => {
                    self.words.insert(pos, key << packed::AGE_BITS);
                    false
                }
            };
        }
        let set_mask = u64::from(self.n_sets) - 1;
        let set = block.0 & set_mask;
        let assoc = u64::from(self.assoc);
        match packed::find(&self.words, key) {
            Ok(i) => {
                // Hit at minimal age h: same-set blocks with age ≤ h move
                // one step older; one of them can reach the associativity
                // (age == h == assoc-1) and drop out, so the rewrite lags —
                // but the common no-eviction case stays fully in place.
                let bump_max = self.words[i] & packed::AGE_MASK;
                let (lo, hi) = packed::group_range(&self.words, key, Ok(i));
                let mut w = lo;
                for r in lo..hi {
                    let word = self.words[r];
                    if r == i {
                        // The refreshed block re-enters at age 0; the sort
                        // key ignores the age lane, so its slot is stable.
                        self.words[w] = key << packed::AGE_BITS;
                        w += 1;
                        continue;
                    }
                    let age = word & packed::AGE_MASK;
                    // Group runs may mix sets if groups collide (> 2^20
                    // sets); re-check the exact set from the block id.
                    if packed::block_of(word) & set_mask == set && age <= bump_max {
                        if age + 1 >= assoc {
                            continue; // definitely evicted
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
                true
            }
            Err(ins) => {
                // Miss: every same-set block ages (bump_max = assoc-1
                // covers all stored ages) and may be definitely evicted.
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
                    continue; // definitely evicted
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

    /// The miss half of [`update_classify`](MayState::update_classify):
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

    /// May join: union of both sides, keeping the *minimal* age. Identical
    /// states short-circuit via a word-wise `memcmp`.
    pub fn join(&self, other: &MayState) -> MayState {
        debug_assert_eq!(self.n_sets, other.n_sets);
        debug_assert_eq!(self.assoc, other.assoc);
        if self.words == other.words {
            return self.clone();
        }
        let (a, b) = (&self.words, &other.words);
        let mut words = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (wa, wb) = (a[i], b[j]);
            match packed::key_of(wa).cmp(&packed::key_of(wb)) {
                std::cmp::Ordering::Less => {
                    words.push(wa);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    words.push(wb);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Equal keys share all high lanes, so the word min is
                    // the same block at the min age.
                    words.push(wa.min(wb));
                    i += 1;
                    j += 1;
                }
            }
        }
        words.extend_from_slice(&a[i..]);
        words.extend_from_slice(&b[j..]);
        MayState {
            words,
            assoc: self.assoc,
            n_sets: self.n_sets,
        }
    }

    /// All possibly-cached blocks with their minimal ages, in
    /// `(set, block)` order.
    pub fn iter(&self) -> impl Iterator<Item = (MemBlockId, u32)> + '_ {
        self.words
            .iter()
            .map(|&w| (MemBlockId(packed::block_of(w)), packed::age_of(w)))
    }

    /// Number of possibly-cached blocks.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no block might be cached.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl fmt::Display for MayState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // An unbounded domain has no fixed age rows; print only the ages
        // actually present (all 0 in practice).
        let rows = if self.assoc == ReplacementPolicy::UNBOUNDED {
            self.iter().map(|e| e.1 + 1).max().unwrap_or(1)
        } else {
            self.assoc
        };
        for s in 0..u64::from(self.n_sets) {
            write!(f, "set {s}:")?;
            for h in 0..rows {
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
        CacheConfig::new(2, 16, 32).unwrap()
    }

    #[test]
    fn absent_block_is_definitely_uncached() {
        let m = MayState::new(&cfg());
        assert!(!m.contains(MemBlockId(1)));
        assert!(m.is_empty());
    }

    #[test]
    fn update_tracks_minimal_ages() {
        let mut m = MayState::new(&cfg());
        m.update(MemBlockId(1));
        m.update(MemBlockId(2));
        assert_eq!(m.age(MemBlockId(2)), Some(0));
        assert_eq!(m.age(MemBlockId(1)), Some(1));
        m.update(MemBlockId(3)); // 1 falls out (min age would be 2)
        assert!(!m.contains(MemBlockId(1)));
    }

    #[test]
    fn join_is_union_with_min_age() {
        let mut a = MayState::new(&cfg());
        a.update(MemBlockId(1)); // age 0 in a
        let mut b = MayState::new(&cfg());
        b.update(MemBlockId(2));
        b.update(MemBlockId(1)); // 1 at age 0, 2 at age 1
        let j = a.join(&b);
        assert_eq!(j.age(MemBlockId(1)), Some(0));
        assert_eq!(j.age(MemBlockId(2)), Some(1)); // only in b
    }

    #[test]
    fn unbounded_domain_never_forgets_a_block() {
        use crate::policy::ReplacementPolicy;
        for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
            let config = CacheConfig::new(2, 16, 32)
                .unwrap()
                .with_policy(policy)
                .unwrap();
            let mut m = MayState::new(&config);
            for b in 0..100u64 {
                m.update(MemBlockId(b));
            }
            // Far beyond the 2 ways, every accessed block is still "maybe
            // cached" (the domain cannot rule eviction out)...
            for b in 0..100u64 {
                assert!(m.contains(MemBlockId(b)), "{policy}: lost block {b}");
            }
            // ...and a never-accessed block still classifies always-miss.
            assert!(!m.contains(MemBlockId(100)));
            // Display terminates and shows only present age rows.
            assert!(m.to_string().contains("age0"));
            assert!(!m.to_string().contains("age1"));
        }
    }

    #[test]
    fn soundness_vs_concrete_on_a_fixed_string() {
        use crate::concrete::ConcreteState;
        // Every concretely-cached block must appear in the may state.
        let config = CacheConfig::new(2, 16, 64).unwrap();
        let mut c = ConcreteState::new(&config);
        let mut m = MayState::new(&config);
        for &b in &[3u64, 7, 3, 11, 15, 7, 3, 4, 8, 4] {
            c.access(MemBlockId(b));
            m.update(MemBlockId(b));
            for blk in c.blocks() {
                assert!(m.contains(blk), "concrete holds {blk} but may lost it");
            }
        }
    }

    #[test]
    fn hit_update_ages_siblings() {
        let mut m = MayState::new(&cfg());
        m.update(MemBlockId(1));
        m.update(MemBlockId(2)); // ages: 2→0, 1→1
        m.update(MemBlockId(2)); // hit at age 0: nothing else younger
        assert_eq!(m.age(MemBlockId(2)), Some(0));
        assert_eq!(m.age(MemBlockId(1)), Some(1));
    }

    #[test]
    fn hit_update_leaves_older_blocks_alone() {
        // 4-way single set: a hit at age 1 must not disturb ages > 1.
        let config = CacheConfig::new(4, 16, 64).unwrap();
        let mut m = MayState::new(&config);
        for b in [1u64, 2, 3, 4] {
            m.update(MemBlockId(b));
        }
        // Ages now: 4→0, 3→1, 2→2, 1→3.
        m.update(MemBlockId(3)); // hit at age 1: ages 0..=1 bump, rest stay
        assert_eq!(m.age(MemBlockId(3)), Some(0));
        assert_eq!(m.age(MemBlockId(4)), Some(1));
        assert_eq!(m.age(MemBlockId(2)), Some(2)); // untouched
        assert_eq!(m.age(MemBlockId(1)), Some(3)); // untouched
    }
}
