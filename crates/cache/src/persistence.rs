//! Persistence analysis: which blocks are never evicted once loaded.
//!
//! The third classic analysis of the Ferdinand framework (alongside must
//! and may): a block that is *persistent* at a reference can miss at most
//! once over the whole execution — every later access hits. This powers
//! the "first miss" classification WCET analyzers use to avoid charging a
//! loop-invariant block `bound × miss` cycles.
//!
//! The abstract state extends the must domain with a virtual ⊤ age: a
//! block pushed past the associativity is *possibly evicted* and parked
//! in ⊤ (it never leaves — persistence is a once-broken-always-broken
//! property). A block is persistent iff it is tracked and not in ⊤.

use std::collections::BTreeSet;
use std::fmt;

use rtpf_isa::MemBlockId;

use crate::config::{set_index, CacheConfig};

/// Abstract persistence state.
///
/// Like [`MustState`](crate::MustState), the domain runs at the
/// configuration policy's *effective* associativity: exact for LRU, and
/// the competitiveness-reduced window for FIFO (1) and tree-PLRU
/// (log2(k) + 1). A block whose age never reaches the effective window on
/// any path is resident at every point under the real policy too, so the
/// first-miss guarantee carries over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PersistenceState {
    /// `sets[s][h]` = blocks of set `s` at max-age `h`; bucket `assoc`
    /// (the effective associativity) is the virtual ⊤ ("may have been
    /// evicted").
    sets: Vec<Vec<Vec<MemBlockId>>>,
    assoc: u32,
    n_sets: u32,
}

impl PersistenceState {
    /// The empty persistence state (no block tracked yet).
    pub fn new(config: &CacheConfig) -> Self {
        let assoc = config.policy().must_ways(config.assoc());
        PersistenceState {
            sets: vec![vec![Vec::new(); assoc as usize + 1]; config.n_sets() as usize],
            assoc,
            n_sets: config.n_sets(),
        }
    }

    /// Whether `block` is persistent here: it has been referenced on every
    /// path reaching this point... (tracked) and was never possibly
    /// evicted.
    pub fn is_persistent(&self, block: MemBlockId) -> bool {
        matches!(self.age(block), Some(h) if h < self.assoc)
    }

    /// Max-age of `block` if tracked; `Some(assoc)` means ⊤.
    pub fn age(&self, block: MemBlockId) -> Option<u32> {
        let set = set_index(block, self.n_sets);
        for (h, bucket) in self.sets[set].iter().enumerate() {
            if bucket.binary_search(&block).is_ok() {
                return Some(h as u32);
            }
        }
        None
    }

    /// Abstract update: the referenced block becomes age 0 (unless it was
    /// already possibly-evicted — ⊤ is sticky); younger blocks age by one;
    /// blocks aging past the associativity fall into ⊤ and stay there.
    pub fn update(&mut self, block: MemBlockId) {
        let set = set_index(block, self.n_sets);
        let a = self.assoc as usize;
        let old = self.age(block).map(|h| h as usize);
        let buckets = &mut self.sets[set];
        match old {
            Some(h) if h == a => {
                // ⊤ is sticky: the block was possibly evicted once; its
                // persistence is gone for good. Aging others is still
                // required (the access occupies a way).
                age_range(buckets, a);
            }
            Some(h) => {
                if let Ok(pos) = buckets[h].binary_search(&block) {
                    buckets[h].remove(pos);
                }
                age_range(buckets, h);
                insert_sorted(&mut buckets[0], block);
            }
            None => {
                age_range(buckets, a);
                insert_sorted(&mut buckets[0], block);
            }
        }
    }

    /// Persistence join: union, keeping the *maximal* age (⊤ wins).
    pub fn join(&self, other: &PersistenceState) -> PersistenceState {
        debug_assert_eq!(self.n_sets, other.n_sets);
        debug_assert_eq!(self.assoc, other.assoc);
        let mut out = PersistenceState {
            sets: vec![vec![Vec::new(); self.assoc as usize + 1]; self.n_sets as usize],
            assoc: self.assoc,
            n_sets: self.n_sets,
        };
        for s in 0..self.n_sets as usize {
            let mut blocks: BTreeSet<MemBlockId> = BTreeSet::new();
            for bucket in self.sets[s].iter().chain(other.sets[s].iter()) {
                blocks.extend(bucket.iter().copied());
            }
            for b in blocks {
                let ha = self.age_in_set(s, b);
                let hb = other.age_in_set(s, b);
                let age = match (ha, hb) {
                    (Some(x), Some(y)) => x.max(y),
                    (Some(x), None) | (None, Some(x)) => x,
                    (None, None) => unreachable!("block came from a bucket"),
                } as usize;
                insert_sorted(&mut out.sets[s][age], b);
            }
        }
        out
    }

    /// All tracked blocks with their ages (`assoc` = ⊤).
    pub fn iter(&self) -> impl Iterator<Item = (MemBlockId, u32)> + '_ {
        self.sets.iter().flat_map(|set| {
            set.iter()
                .enumerate()
                .flat_map(|(h, bucket)| bucket.iter().map(move |&b| (b, h as u32)))
        })
    }

    /// Number of persistent (non-⊤) blocks.
    pub fn persistent_count(&self) -> usize {
        self.sets
            .iter()
            .map(|set| {
                set[..self.assoc as usize]
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    fn age_in_set(&self, set: usize, block: MemBlockId) -> Option<u32> {
        for (h, bucket) in self.sets[set].iter().enumerate() {
            if bucket.binary_search(&block).is_ok() {
                return Some(h as u32);
            }
        }
        None
    }
}

/// Ages buckets `0..limit` by one step; anything reaching bucket
/// `assoc` (the last) merges into ⊤.
fn age_range(buckets: &mut [Vec<MemBlockId>], limit: usize) {
    for i in (1..=limit).rev() {
        let moved = std::mem::take(&mut buckets[i - 1]);
        for b in moved {
            insert_sorted(&mut buckets[i], b);
        }
    }
}

fn insert_sorted(v: &mut Vec<MemBlockId>, b: MemBlockId) {
    if let Err(pos) = v.binary_search(&b) {
        v.insert(pos, b);
    }
}

impl fmt::Display for PersistenceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (s, set) in self.sets.iter().enumerate() {
            write!(f, "set {s}:")?;
            for (h, bucket) in set.iter().enumerate() {
                let cells: Vec<String> = bucket.iter().map(|b| b.to_string()).collect();
                let label = if h == self.assoc as usize {
                    "⊤".to_string()
                } else {
                    format!("age{h}")
                };
                write!(f, " {label}={{{}}}", cells.join(","))?;
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
    fn freshly_loaded_block_is_persistent() {
        let mut p = PersistenceState::new(&cfg());
        p.update(MemBlockId(1));
        assert!(p.is_persistent(MemBlockId(1)));
        assert_eq!(p.persistent_count(), 1);
    }

    #[test]
    fn overflow_parks_blocks_in_top_forever() {
        let mut p = PersistenceState::new(&cfg());
        p.update(MemBlockId(1));
        p.update(MemBlockId(2));
        p.update(MemBlockId(3)); // 1 may now be evicted
        assert!(!p.is_persistent(MemBlockId(1)));
        assert!(p.is_persistent(MemBlockId(2)));
        assert!(p.is_persistent(MemBlockId(3)));
        // Re-touching 1 does not resurrect persistence.
        p.update(MemBlockId(1));
        assert!(!p.is_persistent(MemBlockId(1)));
    }

    #[test]
    fn loop_working_set_within_assoc_stays_persistent() {
        let mut p = PersistenceState::new(&cfg());
        for _ in 0..10 {
            p.update(MemBlockId(1));
            p.update(MemBlockId(2));
        }
        assert!(p.is_persistent(MemBlockId(1)));
        assert!(p.is_persistent(MemBlockId(2)));
    }

    #[test]
    fn join_keeps_top_sticky() {
        let mut a = PersistenceState::new(&cfg());
        a.update(MemBlockId(1)); // persistent on the left path
        let mut b = PersistenceState::new(&cfg());
        b.update(MemBlockId(1));
        b.update(MemBlockId(2));
        b.update(MemBlockId(3)); // 1 hit ⊤ on the right path
        let j = a.join(&b);
        assert!(!j.is_persistent(MemBlockId(1)), "⊤ must win the join");
        assert!(j.age(MemBlockId(2)).is_some());
    }

    #[test]
    fn join_is_union_unlike_must() {
        let mut a = PersistenceState::new(&cfg());
        a.update(MemBlockId(1));
        let b = PersistenceState::new(&cfg());
        let j = a.join(&b);
        // Persistence tracks "was loaded on some path and never evicted";
        // a one-sided block stays tracked.
        assert!(j.is_persistent(MemBlockId(1)));
    }

    #[test]
    fn soundness_vs_concrete_eviction() {
        use crate::concrete::ConcreteState;
        // If persistence claims a block was never evicted, the concrete
        // run must indeed still hold it (whenever it was accessed).
        let config = CacheConfig::new(2, 16, 64).unwrap();
        let mut c = ConcreteState::new(&config);
        let mut p = PersistenceState::new(&config);
        for &b in &[1u64, 5, 9, 1, 13, 5, 17, 1, 21, 9] {
            c.access(MemBlockId(b));
            p.update(MemBlockId(b));
            for (blk, age) in p.iter() {
                if age < config.assoc() {
                    assert!(
                        c.contains(blk),
                        "persistent block {blk} missing from concrete cache"
                    );
                }
            }
        }
    }
}
