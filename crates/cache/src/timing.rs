//! Memory-system timing parameters shared by WCET analysis and simulation.

use std::fmt;

/// Cycle-level timing of the memory hierarchy for one cache geometry.
///
/// `rtpf-energy` derives these from the CACTI-style model; tests construct
/// them directly. All analyses interpret a reference as costing
/// [`MemTiming::hit_cycles`] on a hit and [`MemTiming::miss_cycles`] on a
/// miss (total, access included).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemTiming {
    /// Cycles for a level-1 hit.
    pub hit_cycles: u64,
    /// Total cycles for a miss that goes all the way to backing memory
    /// (DRAM access + line fill + restart).
    pub miss_cycles: u64,
    /// Prefetch latency `Λ` (Definition 4): cycles from issuing a prefetch
    /// until the block is in cache. Typically equals the fill time.
    pub prefetch_latency: u64,
    /// Total cycles for an L1 miss served by the L2 cache, when a second
    /// level exists. `None` in the single-level hierarchy; always between
    /// `hit_cycles` and `miss_cycles` when present.
    pub l2_hit_cycles: Option<u64>,
}

impl MemTiming {
    /// A typical embedded configuration: 1-cycle hits, `penalty`-cycle
    /// misses, prefetch latency equal to the miss time. The miss time
    /// saturates at `u64::MAX` rather than wrapping.
    pub fn with_miss_penalty(penalty: u64) -> Self {
        let miss_cycles = penalty.saturating_add(1);
        MemTiming {
            hit_cycles: 1,
            miss_cycles,
            prefetch_latency: miss_cycles,
            l2_hit_cycles: None,
        }
    }

    /// The same timing with an L2-hit service time, clamped into
    /// `[hit_cycles, miss_cycles]` so a "faster than L1" or "slower than
    /// DRAM" L2 cannot be expressed.
    pub fn with_l2_hit(mut self, l2_hit_cycles: u64) -> Self {
        self.l2_hit_cycles = Some(l2_hit_cycles.clamp(self.hit_cycles, self.miss_cycles));
        self
    }

    /// Cost of one access under the given hit/miss outcome.
    #[inline]
    pub fn access_cycles(&self, hit: bool) -> u64 {
        if hit {
            self.hit_cycles
        } else {
            self.miss_cycles
        }
    }
}

impl Default for MemTiming {
    /// 1-cycle hits, 20-cycle miss penalty.
    fn default() -> Self {
        MemTiming::with_miss_penalty(20)
    }
}

impl fmt::Display for MemTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hit={} miss={} Λ={}",
            self.hit_cycles, self.miss_cycles, self.prefetch_latency
        )?;
        if let Some(l2) = self.l2_hit_cycles {
            write!(f, " l2hit={l2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let t = MemTiming::default();
        assert_eq!(t.hit_cycles, 1);
        assert_eq!(t.miss_cycles, 21);
        assert_eq!(t.l2_hit_cycles, None);
        assert_eq!(t.access_cycles(true), 1);
        assert_eq!(t.access_cycles(false), 21);
    }

    #[test]
    fn l2_hit_time_is_clamped_between_hit_and_miss() {
        let t = MemTiming::with_miss_penalty(20);
        assert_eq!(t.with_l2_hit(8).l2_hit_cycles, Some(8));
        assert_eq!(t.with_l2_hit(0).l2_hit_cycles, Some(1));
        assert_eq!(t.with_l2_hit(500).l2_hit_cycles, Some(21));
        assert_eq!(t.to_string(), "hit=1 miss=21 Λ=21");
        assert_eq!(t.with_l2_hit(8).to_string(), "hit=1 miss=21 Λ=21 l2hit=8");
    }
}
