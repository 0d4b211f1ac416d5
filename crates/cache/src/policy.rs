//! Replacement policies and their two faces.
//!
//! A [`ReplacementPolicy`] describes one hardware replacement scheme and
//! exposes it to the rest of the stack through two faces:
//!
//! * the **concrete face** — the exact per-set update implemented by
//!   [`ConcreteState`](crate::ConcreteState) (used by the trace simulator,
//!   the optimizer's reverse analysis, and the soundness audit's walks);
//! * the **abstract face** — the parameters the must/may domains run
//!   under, expressed as *effective associativities* via relative
//!   competitiveness to LRU (Reineke & Grund).
//!
//! The LRU reduction is the identity (effective ways = real ways) — the
//! classification it yields is sound but not exact; FIFO and tree-PLRU
//! reuse the LRU domains with a smaller effective associativity:
//!
//! * **FIFO(k)** — must runs as LRU(1). A block with must-age 0
//!   was the set's last access on every path, so it is resident under FIFO
//!   (a miss fetched it; a hit found it, and FIFO never reorders), and any
//!   further same-set access drops the guarantee. The may side has no
//!   finite LRU reduction: a FIFO block ages only on *misses*, which the
//!   abstract domain cannot distinguish from hits, so possibly-cached
//!   blocks never age out ([`ReplacementPolicy::UNBOUNDED`]).
//! * **tree-PLRU(k)** — must runs as LRU(log2(k) + 1): a
//!   tree-PLRU set always retains its last log2(k) + 1 pairwise distinct
//!   accessed blocks, because every access flips the tree bits on its path
//!   away from the block. The may side is unbounded like FIFO's (an
//!   unlucky bit pattern can protect a block indefinitely).
//!
//! Both reductions are *sound but less precise* than the LRU domains at
//! the real associativity: fewer always-hit and (for the unbounded may)
//! fewer always-miss classifications. See DESIGN.md §10 for the tradeoff
//! discussion.

use std::fmt;

/// A cache replacement policy, selectable per [`CacheConfig`](crate::CacheConfig).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used: the paper's policy, analyzed at the real
    /// associativity.
    #[default]
    Lru,
    /// First-in first-out (round-robin): hits do not reorder.
    Fifo,
    /// Tree-based pseudo-LRU: one direction bit per internal tree node.
    Plru,
}

impl ReplacementPolicy {
    /// Every supported policy, in CLI/display order.
    pub const ALL: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
    ];

    /// Sentinel effective associativity of an *unbounded* may domain:
    /// possibly-cached blocks never age out, so only blocks that were
    /// never accessed on any path classify as always-miss.
    pub const UNBOUNDED: u32 = u32::MAX;

    /// The CLI / fingerprint name.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Plru => "plru",
        }
    }

    /// Parses a CLI-style policy name (case-insensitive).
    pub fn parse(s: &str) -> Option<ReplacementPolicy> {
        Self::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    }

    /// Stable one-byte identifier for content fingerprints.
    pub fn tag(self) -> u8 {
        match self {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Fifo => 1,
            ReplacementPolicy::Plru => 2,
        }
    }

    /// Effective associativity of the must domain for a set of `assoc`
    /// real ways (the competitiveness reduction above). `const` so the
    /// empty abstract states can be built in `const`/`static` contexts.
    pub const fn must_ways(self, assoc: u32) -> u32 {
        match self {
            ReplacementPolicy::Lru => assoc,
            ReplacementPolicy::Fifo => 1,
            // log2(assoc) + 1; assoc is validated as a power of two.
            ReplacementPolicy::Plru => assoc.trailing_zeros() + 1,
        }
    }

    /// Effective associativity of the may domain
    /// ([`UNBOUNDED`](Self::UNBOUNDED) when no finite LRU reduction
    /// exists).
    pub const fn may_ways(self, assoc: u32) -> u32 {
        match self {
            ReplacementPolicy::Lru => assoc,
            ReplacementPolicy::Fifo | ReplacementPolicy::Plru => Self::UNBOUNDED,
        }
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_all_names() {
        for p in ReplacementPolicy::ALL {
            assert_eq!(ReplacementPolicy::parse(p.name()), Some(p));
            assert_eq!(ReplacementPolicy::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(ReplacementPolicy::parse("mru"), None);
        assert_eq!(ReplacementPolicy::parse(""), None);
    }

    #[test]
    fn default_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    #[test]
    fn tags_are_distinct() {
        let mut tags: Vec<u8> = ReplacementPolicy::ALL.iter().map(|p| p.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ReplacementPolicy::ALL.len());
    }

    #[test]
    fn effective_ways_follow_the_reductions() {
        use ReplacementPolicy::*;
        for a in [1u32, 2, 4, 8] {
            assert_eq!(Lru.must_ways(a), a);
            assert_eq!(Lru.may_ways(a), a);
            assert_eq!(Fifo.must_ways(a), 1);
            assert_eq!(Fifo.may_ways(a), ReplacementPolicy::UNBOUNDED);
            assert_eq!(Plru.may_ways(a), ReplacementPolicy::UNBOUNDED);
        }
        // log2(k) + 1 for tree-PLRU.
        assert_eq!(Plru.must_ways(1), 1);
        assert_eq!(Plru.must_ways(2), 2);
        assert_eq!(Plru.must_ways(4), 3);
        assert_eq!(Plru.must_ways(8), 4);
    }
}
