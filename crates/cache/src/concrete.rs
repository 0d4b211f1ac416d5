//! Exact cache states (`c : L → S` in the paper's Section 3.1), for
//! every supported [`ReplacementPolicy`].

use std::collections::BTreeSet;
use std::fmt;

use rtpf_isa::MemBlockId;

use crate::config::{set_index, CacheConfig};
use crate::policy::ReplacementPolicy;

/// Result of one concrete cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// The block was already cached (Property 1).
    Hit,
    /// The block was fetched; `evicted` is the replaced block, if the set
    /// was full (Properties 2 and 3).
    Miss {
        /// Block replaced to make room, if any.
        evicted: Option<MemBlockId>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    #[inline]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// The evicted block, if this was a replacing miss.
    pub fn evicted(&self) -> Option<MemBlockId> {
        match self {
            AccessOutcome::Hit => None,
            AccessOutcome::Miss { evicted } => *evicted,
        }
    }
}

/// A concrete state of a set-associative cache under the configuration's
/// [`ReplacementPolicy`].
///
/// The per-set block order is policy-defined:
///
/// * **LRU** — most-recently-used first, matching the `[MRU, LRU]`
///   notation of the paper's Figure 1 (hits promote to the front);
/// * **FIFO** — most-recently-*inserted* first (hits do not reorder);
/// * **tree-PLRU** — physical way order (index = way number), with the
///   tree's direction bits kept beside the set.
///
/// The layout is flat and set-major: set `s` owns the `assoc` slots
/// `ways[s * assoc..]`, of which the first `len[s]` are valid, in the
/// order above. Hits and fills shift within the set's slots, and a clone
/// is two allocations (three under tree-PLRU). No access ever invalidates
/// a way, so slots past a set's fill count keep their initial value and
/// the derived `Eq`/`Hash` compare exactly the per-set block sequences.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConcreteState {
    /// `n_sets × assoc` slots, set-major.
    ways: Vec<MemBlockId>,
    /// Per set: the number of valid slots (≤ associativity).
    len: Vec<u32>,
    /// Per set for tree-PLRU: heap-indexed direction bits (bit `i` is
    /// internal node `i`, root at 1; 0 = victim path goes left). Empty for
    /// LRU and FIFO.
    plru_bits: Vec<u64>,
    policy: ReplacementPolicy,
    assoc: u32,
    n_sets: u32,
}

impl ConcreteState {
    /// An all-invalid cache (`ĉ_I`) for the given configuration.
    pub fn new(config: &CacheConfig) -> Self {
        let policy = config.policy();
        let n_sets = config.n_sets() as usize;
        ConcreteState {
            ways: vec![MemBlockId(0); n_sets * config.assoc() as usize],
            len: vec![0; n_sets],
            plru_bits: match policy {
                ReplacementPolicy::Plru => vec![0; n_sets],
                _ => Vec::new(),
            },
            policy,
            assoc: config.assoc(),
            n_sets: config.n_sets(),
        }
    }

    /// The update function `U` (Definition 1): reference `block`, applying
    /// the configured replacement policy, and report the outcome.
    #[inline]
    pub fn access(&mut self, block: MemBlockId) -> AccessOutcome {
        let set = set_index(block, self.n_sets);
        let assoc = self.assoc as usize;
        let n = self.len[set] as usize;
        let ways = &mut self.ways[set * assoc..(set + 1) * assoc];
        let hit = ways[..n].iter().position(|&b| b == block);
        match (self.policy, hit) {
            (ReplacementPolicy::Lru, Some(pos)) => {
                // Promote to MRU.
                push_front(&mut ways[..=pos], block);
                AccessOutcome::Hit
            }
            // FIFO never reorders on a hit.
            (ReplacementPolicy::Fifo, Some(_)) => AccessOutcome::Hit,
            (ReplacementPolicy::Plru, Some(way)) => {
                plru_touch(&mut self.plru_bits[set], assoc, way);
                AccessOutcome::Hit
            }
            (ReplacementPolicy::Lru | ReplacementPolicy::Fifo, None) => {
                // Insert at the front; a full set drops its back (the LRU
                // position / oldest insertion).
                let dropped = push_front(&mut ways[..=n.min(assoc - 1)], block);
                self.len[set] += u32::from(n < assoc);
                AccessOutcome::Miss {
                    evicted: (n == assoc).then_some(dropped),
                }
            }
            (ReplacementPolicy::Plru, None) => {
                // Fill the lowest invalid way first, else the tree's victim.
                let way = if n < assoc {
                    self.len[set] += 1;
                    n
                } else {
                    plru_victim(self.plru_bits[set], assoc)
                };
                let evicted = (n == assoc).then(|| ways[way]);
                ways[way] = block;
                plru_touch(&mut self.plru_bits[set], assoc, way);
                AccessOutcome::Miss { evicted }
            }
        }
    }

    /// Whether `block` is currently cached.
    pub fn contains(&self, block: MemBlockId) -> bool {
        self.set(set_index(block, self.n_sets)).contains(&block)
    }

    /// The set of all cached blocks, `B(ĉ)` (Definition 9).
    pub fn blocks(&self) -> BTreeSet<MemBlockId> {
        (0..self.n_sets as usize)
            .flat_map(|s| self.set(s))
            .copied()
            .collect()
    }

    /// Blocks of one set, in the policy-defined order (MRU first for LRU,
    /// newest insertion first for FIFO, way order for tree-PLRU).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set(&self, set: usize) -> &[MemBlockId] {
        let base = set * self.assoc as usize;
        &self.ways[base..base + self.len[set] as usize]
    }

    /// The replacement policy this state runs under.
    #[inline]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of sets.
    #[inline]
    pub fn n_sets(&self) -> u32 {
        self.n_sets
    }

    /// Associativity.
    #[inline]
    pub fn assoc(&self) -> u32 {
        self.assoc
    }
}

/// Puts `block` in `ways[0]`, shifting the rest of `ways` one slot back,
/// and returns the block shifted out of the last slot. A carried swap
/// rather than a `copy_within`, which would call `memmove` for a copy of
/// a few words.
#[inline]
fn push_front(ways: &mut [MemBlockId], block: MemBlockId) -> MemBlockId {
    let mut carry = block;
    for w in ways {
        carry = std::mem::replace(w, carry);
    }
    carry
}

/// The way a full tree-PLRU set would evict: follow the direction bits
/// from the root (heap node 1) to a leaf. Leaf `assoc + w` is way `w`.
/// Shared with the refinement stage's projected set states
/// ([`crate::refine::SetState`]), which must replay the exact semantics.
pub(crate) fn plru_victim(bits: u64, assoc: usize) -> usize {
    let mut node = 1;
    while node < assoc {
        node = 2 * node + ((bits >> node) & 1) as usize;
    }
    node - assoc
}

/// After an access to `way`, point every direction bit on the way's
/// root-to-leaf path *away* from it (the standard tree-PLRU promotion).
pub(crate) fn plru_touch(bits: &mut u64, assoc: usize, way: usize) {
    let mut node = assoc + way;
    while node > 1 {
        let parent = node / 2;
        if node == 2 * parent {
            *bits |= 1 << parent; // came from the left: victim path goes right
        } else {
            *bits &= !(1 << parent); // came from the right: victim path goes left
        }
        node = parent;
    }
}

impl fmt::Display for ConcreteState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n_sets as usize {
            let cells: Vec<String> = self.set(i).iter().map(|b| b.to_string()).collect();
            writeln!(f, "set {i}: [{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_set_two_way() -> ConcreteState {
        // 2-way, 16 B blocks, 32 B capacity → a single set.
        ConcreteState::new(&CacheConfig::new(2, 16, 32).unwrap())
    }

    #[test]
    fn miss_then_hit() {
        let mut c = one_set_two_way();
        assert_eq!(
            c.access(MemBlockId(1)),
            AccessOutcome::Miss { evicted: None }
        );
        assert_eq!(c.access(MemBlockId(1)), AccessOutcome::Hit);
        assert!(c.contains(MemBlockId(1)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = one_set_two_way();
        c.access(MemBlockId(1));
        c.access(MemBlockId(2));
        // 1 is LRU; accessing 3 must evict 1.
        assert_eq!(
            c.access(MemBlockId(3)),
            AccessOutcome::Miss {
                evicted: Some(MemBlockId(1))
            }
        );
        assert_eq!(c.set(0), &[MemBlockId(3), MemBlockId(2)]);
    }

    #[test]
    fn hit_promotes_to_mru() {
        let mut c = one_set_two_way();
        c.access(MemBlockId(1));
        c.access(MemBlockId(2)); // [2, 1]
        c.access(MemBlockId(1)); // [1, 2]
        assert_eq!(
            c.access(MemBlockId(3)).evicted(),
            Some(MemBlockId(2)) // 2 became LRU after 1 was promoted
        );
    }

    #[test]
    fn blocks_collects_all_sets() {
        let cfg = CacheConfig::new(1, 16, 32).unwrap(); // 2 direct-mapped sets
        let mut c = ConcreteState::new(&cfg);
        c.access(MemBlockId(0)); // set 0
        c.access(MemBlockId(1)); // set 1
        let blocks = c.blocks();
        assert!(blocks.contains(&MemBlockId(0)));
        assert!(blocks.contains(&MemBlockId(1)));
        assert_eq!(blocks.len(), 2);
    }

    fn one_set(assoc: u32, policy: ReplacementPolicy) -> ConcreteState {
        let cfg = CacheConfig::new(assoc, 16, assoc * 16)
            .unwrap()
            .with_policy(policy)
            .unwrap();
        ConcreteState::new(&cfg)
    }

    #[test]
    fn fifo_hit_does_not_reorder() {
        let mut c = one_set(2, ReplacementPolicy::Fifo);
        c.access(MemBlockId(1));
        c.access(MemBlockId(2)); // insertion order: [2, 1]
        assert_eq!(c.access(MemBlockId(1)), AccessOutcome::Hit);
        // Under LRU the hit would protect 1; FIFO still evicts it first.
        assert_eq!(c.access(MemBlockId(3)).evicted(), Some(MemBlockId(1)));
        assert_eq!(c.set(0), &[MemBlockId(3), MemBlockId(2)]);
    }

    #[test]
    fn fifo_evicts_in_insertion_order() {
        let mut c = one_set(2, ReplacementPolicy::Fifo);
        c.access(MemBlockId(1));
        c.access(MemBlockId(2));
        assert_eq!(c.access(MemBlockId(3)).evicted(), Some(MemBlockId(1)));
        assert_eq!(c.access(MemBlockId(4)).evicted(), Some(MemBlockId(2)));
        assert_eq!(
            c.clone().access(MemBlockId(5)).evicted(),
            Some(MemBlockId(3))
        );
    }

    #[test]
    fn plru_victim_follows_tree_bits() {
        // 4-way, single set. Fill a,b,c,d; every fill touches its way, so
        // the bits end pointing at way 0's subtree... exercise the classic
        // sequence: after filling 0..3 the victim is way 0.
        let mut c = one_set(4, ReplacementPolicy::Plru);
        for b in [10u64, 11, 12, 13] {
            assert!(!c.access(MemBlockId(4 * b)).is_hit());
        }
        // Fill order 0,1,2,3 leaves the tree pointing at way 0.
        assert_eq!(
            c.clone().access(MemBlockId(400)).evicted(),
            Some(MemBlockId(40))
        );
        // Touching way 0 re-protects it; the victim flips to the other
        // subtree (way 2, least recently touched there).
        assert_eq!(c.access(MemBlockId(40)), AccessOutcome::Hit);
        let out = c.access(MemBlockId(400));
        assert_eq!(out.evicted(), Some(MemBlockId(48)));
        assert!(c.contains(MemBlockId(400)));
        assert!(c.contains(MemBlockId(40)));
    }

    #[test]
    fn plru_retains_last_log2_plus_one_distinct_blocks() {
        // The competitiveness fact the abstract face relies on: a tree-
        // PLRU(4) set always holds its last 3 pairwise distinct accessed
        // blocks. Stress it with a pseudo-random access string.
        let mut c = one_set(4, ReplacementPolicy::Plru);
        let mut recent: Vec<MemBlockId> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = MemBlockId(4 * (x % 7)); // 7 distinct blocks, one set
            c.access(b);
            recent.retain(|&r| r != b);
            recent.insert(0, b);
            recent.truncate(3);
            for &r in &recent {
                assert!(c.contains(r), "tree-PLRU lost recent block {r}");
            }
        }
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let cfg = CacheConfig::new(1, 16, 64).unwrap(); // 4 sets, direct-mapped
        let mut c = ConcreteState::new(&cfg);
        c.access(MemBlockId(0));
        c.access(MemBlockId(1));
        c.access(MemBlockId(2));
        c.access(MemBlockId(3));
        // All four coexist; a fifth conflicting block evicts only set 0.
        assert_eq!(c.access(MemBlockId(4)).evicted(), Some(MemBlockId(0)));
        assert!(c.contains(MemBlockId(1)));
        assert!(c.contains(MemBlockId(2)));
        assert!(c.contains(MemBlockId(3)));
    }

    /// The per-set `Vec` layout this model replaced, kept only as the
    /// reference the flat layout must match access for access.
    struct Reference {
        sets: Vec<Vec<MemBlockId>>,
        plru_bits: Vec<u64>,
        policy: ReplacementPolicy,
        assoc: usize,
    }

    impl Reference {
        fn new(config: &CacheConfig) -> Self {
            Reference {
                sets: vec![Vec::new(); config.n_sets() as usize],
                plru_bits: vec![0; config.n_sets() as usize],
                policy: config.policy(),
                assoc: config.assoc() as usize,
            }
        }

        fn access(&mut self, block: MemBlockId) -> AccessOutcome {
            let set = (block.0 % self.sets.len() as u64) as usize;
            let ways = &mut self.sets[set];
            let bits = &mut self.plru_bits[set];
            let pos = ways.iter().position(|&b| b == block);
            match (self.policy, pos) {
                (ReplacementPolicy::Lru, Some(pos)) => {
                    let b = ways.remove(pos);
                    ways.insert(0, b);
                    AccessOutcome::Hit
                }
                (ReplacementPolicy::Fifo, Some(_)) => AccessOutcome::Hit,
                (ReplacementPolicy::Plru, Some(way)) => {
                    plru_touch(bits, self.assoc, way);
                    AccessOutcome::Hit
                }
                (ReplacementPolicy::Lru | ReplacementPolicy::Fifo, None) => {
                    let evicted = if ways.len() == self.assoc {
                        ways.pop()
                    } else {
                        None
                    };
                    ways.insert(0, block);
                    AccessOutcome::Miss { evicted }
                }
                (ReplacementPolicy::Plru, None) if ways.len() < self.assoc => {
                    ways.push(block);
                    plru_touch(bits, self.assoc, ways.len() - 1);
                    AccessOutcome::Miss { evicted: None }
                }
                (ReplacementPolicy::Plru, None) => {
                    let way = plru_victim(*bits, self.assoc);
                    let evicted = std::mem::replace(&mut ways[way], block);
                    plru_touch(bits, self.assoc, way);
                    AccessOutcome::Miss {
                        evicted: Some(evicted),
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// The flat layout and the reference model agree on every outcome,
        /// every evicted block and every set's contents and order, across
        /// geometries and all three policies.
        #[test]
        fn flat_layout_matches_the_per_set_reference(
            geo in 0..6usize,
            policy in 0..3usize,
            blocks in proptest::collection::vec(0u64..160, 1..300),
        ) {
            let (a, b, c) = [
                (1, 16, 64),    // direct-mapped, 4 sets
                (2, 16, 32),    // single 2-way set
                (4, 16, 256),   // 4 sets of 4 ways
                (8, 16, 512),   // 4 sets of 8 ways
                (2, 32, 1024),  // 16 sets
                (16, 16, 256),  // single 16-way set
            ][geo];
            let config = CacheConfig::new(a, b, c)
                .unwrap()
                .with_policy(ReplacementPolicy::ALL[policy])
                .unwrap();
            let mut flat = ConcreteState::new(&config);
            let mut reference = Reference::new(&config);
            for (i, &block) in blocks.iter().enumerate() {
                let block = MemBlockId(block);
                let want = reference.access(block);
                proptest::prop_assert_eq!(flat.access(block), want, "{} access {}", config, i);
                for (s, ways) in reference.sets.iter().enumerate() {
                    proptest::prop_assert_eq!(flat.set(s), &ways[..], "{} set {}", config, s);
                }
            }
        }
    }
}
