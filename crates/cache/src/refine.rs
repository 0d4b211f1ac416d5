//! Focused exact refinement of the competitiveness-based FIFO/tree-PLRU
//! classification (DESIGN.md §12).
//!
//! The cheap abstract analyses for FIFO and tree-PLRU run at a
//! policy-reduced effective associativity (must) or with no may
//! information at all (an unbounded may domain never rules a block
//! out), so they leave many
//! references unclassified that are in fact always-hit or always-miss.
//! Following Touzeau et al. ("Fast and exact analysis for LRU caches",
//! PAPERS.md), the refinement stage re-examines exactly those leftovers
//! with an *exact* finite-state exploration: it tracks sets of concrete
//! per-set policy states — the FIFO insertion queue or the PLRU ways plus
//! tree direction bits, projected onto one cache set — merged (unioned)
//! at join points, with a per-node state budget that falls back soundly
//! to the cheap result when exceeded.
//!
//! This module holds the policy-level pieces: the [`RefineConfig`] knob
//! threaded through the engine fingerprints, the projected [`SetState`]
//! with its exact per-policy transfer, and the [`RefineMark`] recording
//! what the stage did to each reference (consumed by the soundness
//! audit's RTPF040–042 cross-checks). The graph exploration itself lives
//! in `rtpf-wcet::refine`, next to the classify fixpoint it refines.

use std::fmt;

use crate::concrete::{plru_touch, plru_victim};
use crate::policy::ReplacementPolicy;

/// Configuration of the refinement stage.
///
/// Threaded from `EngineConfig` (where it enters every analysis
/// fingerprint) down to the classify fixpoint. Refinement only ever
/// *adds* precision: with `enabled = false`, or for LRU (where the stage
/// is not applied — see [`applies_to`](Self::applies_to)), the analysis
/// result is bit-identical to the unrefined one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RefineConfig {
    /// Whether the refinement stage runs at all.
    pub enabled: bool,
    /// Per-node cap on the number of distinct projected set states the
    /// exploration may hold. Exceeding it abandons the *whole* cache set
    /// (a partial exploration could miss a reachable state and is
    /// therefore unsound to conclude from) and keeps the cheap
    /// classification for its references.
    pub max_states: u32,
}

impl RefineConfig {
    /// Default per-node state budget. Measured over one pass of the
    /// benchmark's FIFO sweep (444 suite × Table 2 units, 220 439 per-set
    /// explorations), in-sets hold 4.9 distinct projected states per node
    /// visit on average, and 4 903 explorations (2.2 %) reach a node with
    /// more than 64 — those sets are abandoned to the cheap result. 64
    /// keeps the common case exact while bounding the worst case.
    pub const DEFAULT_MAX_STATES: u32 = 64;

    /// Refinement on, default budget.
    pub const fn on() -> RefineConfig {
        RefineConfig {
            enabled: true,
            max_states: RefineConfig::DEFAULT_MAX_STATES,
        }
    }

    /// Refinement off. The budget is kept at the default so toggling
    /// `enabled` alone round-trips.
    pub const fn off() -> RefineConfig {
        RefineConfig {
            enabled: false,
            max_states: RefineConfig::DEFAULT_MAX_STATES,
        }
    }

    /// Whether the stage runs under `policy`: it must be enabled, and the
    /// policy must be FIFO or tree-PLRU. It is not applied under LRU,
    /// although LRU's must/may classification is not exact either
    /// (DESIGN.md §12 records the measured gap).
    pub fn applies_to(self, policy: ReplacementPolicy) -> bool {
        self.enabled && policy != ReplacementPolicy::Lru
    }
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig::on()
    }
}

impl fmt::Display for RefineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled {
            write!(f, "on(budget={})", self.max_states)
        } else {
            f.write_str("off")
        }
    }
}

/// What the refinement stage did to one reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RefineMark {
    /// Not a refinement target: already classified by the cheap analysis,
    /// or the stage did not run (disabled, LRU, hardware prefetcher).
    #[default]
    Untouched,
    /// Targeted, but left unclassified: the exploration saw both hits and
    /// misses, or its budget was exceeded and the cheap result kept.
    Examined,
    /// Upgraded from unclassified to always-hit or always-miss by the
    /// exact exploration. The soundness audit holds these to the same
    /// hard standard as the cheap classifications (RTPF040/RTPF042).
    Refined,
}

/// Sentinel for an invalid (empty) way in a [`SetState`].
const EMPTY: u64 = u64::MAX;

/// One concrete cache-set state projected onto a single set: the blocks
/// resident in its ways plus the tree-PLRU direction bits, under the
/// exact per-policy semantics of [`crate::ConcreteState`].
///
/// The way order is policy-defined, mirroring the concrete model:
/// most-recently-*inserted* first for FIFO (hits do not reorder),
/// most-recently-used first for LRU, physical way order for tree-PLRU
/// (fills take the lowest free way; eviction replaces in place). Blocks
/// are raw `MemBlockId` values (`u64`); only same-set blocks may be
/// accessed.
///
/// `Ord`/`Eq` derive structurally, so exploration state sets can be kept
/// sorted and deduplicated with plain slice operations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SetState {
    /// Resident blocks, length ≤ associativity, no holes ([`EMPTY`] never
    /// appears: fills extend the vector, evictions replace in place).
    ways: Vec<u64>,
    /// Heap-indexed tree-PLRU direction bits (root at node 1); always 0
    /// for LRU and FIFO.
    bits: u64,
}

impl SetState {
    /// The cold (all-invalid) set state.
    pub const fn cold() -> SetState {
        SetState {
            ways: Vec::new(),
            bits: 0,
        }
    }

    /// Whether `block` is resident.
    #[inline]
    pub fn contains(&self, block: u64) -> bool {
        debug_assert_ne!(block, EMPTY);
        self.ways.contains(&block)
    }

    /// The exact update function of `policy` at associativity `assoc`,
    /// restricted to this set. Returns whether the access hit.
    ///
    /// Semantics mirror [`crate::ConcreteState::access`] way for way;
    /// the lockstep test below pins the agreement.
    pub fn access(&mut self, policy: ReplacementPolicy, assoc: u32, block: u64) -> bool {
        debug_assert_ne!(block, EMPTY);
        let assoc = assoc as usize;
        match policy {
            ReplacementPolicy::Lru => {
                if let Some(pos) = self.ways.iter().position(|&b| b == block) {
                    let b = self.ways.remove(pos);
                    self.ways.insert(0, b);
                    return true;
                }
                if self.ways.len() == assoc {
                    self.ways.pop();
                }
                self.ways.insert(0, block);
                false
            }
            ReplacementPolicy::Fifo => {
                if self.ways.contains(&block) {
                    return true; // FIFO never reorders on a hit
                }
                if self.ways.len() == assoc {
                    self.ways.pop();
                }
                self.ways.insert(0, block);
                false
            }
            ReplacementPolicy::Plru => {
                if let Some(way) = self.ways.iter().position(|&b| b == block) {
                    plru_touch(&mut self.bits, assoc, way);
                    return true;
                }
                if self.ways.len() < assoc {
                    let way = self.ways.len();
                    self.ways.push(block);
                    plru_touch(&mut self.bits, assoc, way);
                    return false;
                }
                let way = plru_victim(self.bits, assoc);
                self.ways[way] = block;
                plru_touch(&mut self.bits, assoc, way);
                false
            }
        }
    }

    /// Resident blocks in the policy-defined order.
    #[inline]
    pub fn ways(&self) -> &[u64] {
        &self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::ConcreteState;
    use crate::config::CacheConfig;
    use rtpf_isa::MemBlockId;

    #[test]
    fn config_knob_roundtrips_and_gates_by_policy() {
        assert_eq!(RefineConfig::default(), RefineConfig::on());
        assert!(RefineConfig::on().applies_to(ReplacementPolicy::Fifo));
        assert!(RefineConfig::on().applies_to(ReplacementPolicy::Plru));
        // The stage is not applied under LRU.
        assert!(!RefineConfig::on().applies_to(ReplacementPolicy::Lru));
        for p in ReplacementPolicy::ALL {
            assert!(!RefineConfig::off().applies_to(p));
        }
        assert_eq!(RefineConfig::on().to_string(), "on(budget=64)");
        assert_eq!(RefineConfig::off().to_string(), "off");
    }

    #[test]
    fn projected_state_runs_lockstep_with_the_concrete_model() {
        // Single-set geometries: the projection must agree with the full
        // concrete model access for access, for every policy.
        for policy in ReplacementPolicy::ALL {
            for assoc in [1u32, 2, 4, 8] {
                let cfg = CacheConfig::new(assoc, 16, assoc * 16)
                    .unwrap()
                    .with_policy(policy)
                    .unwrap();
                let mut concrete = ConcreteState::new(&cfg);
                let mut projected = SetState::cold();
                let mut x = 0x2545_f491_4f6c_dd1du64;
                for _ in 0..5_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let b = x % (u64::from(assoc) + 3); // slight over-subscription
                    let hit = projected.access(policy, assoc, b);
                    assert_eq!(
                        concrete.access(MemBlockId(b)).is_hit(),
                        hit,
                        "{policy} assoc {assoc}: projection diverged on block {b}"
                    );
                    assert_eq!(
                        concrete.set(0),
                        projected
                            .ways()
                            .iter()
                            .map(|&w| MemBlockId(w))
                            .collect::<Vec<_>>(),
                        "{policy} assoc {assoc}: way contents diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn states_order_and_dedup_structurally() {
        let mut a = SetState::cold();
        a.access(ReplacementPolicy::Fifo, 2, 5);
        let mut b = SetState::cold();
        b.access(ReplacementPolicy::Fifo, 2, 5);
        assert_eq!(a, b);
        b.access(ReplacementPolicy::Fifo, 2, 9);
        let mut v = vec![b.clone(), a.clone(), b.clone()];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 2);
        assert!(v.contains(&a) && v.contains(&b));
    }
}
