//! CACTI-style analytical energy and timing models.
//!
//! The paper obtained per-access energies, leakage power, and access times
//! from CACTI 6.5 for a 45 nm and a 32 nm process, with a 128 MB DRAM as
//! level-two memory. CACTI itself is not reproducible here, so this crate
//! provides analytical fits with the same *qualitative shape*, which is all
//! the paper's claims rely on:
//!
//! * dynamic read/fill energy grows with capacity, associativity and block
//!   size and **shrinks** with the technology node;
//! * leakage power grows linearly with capacity and **grows** as the node
//!   shrinks from 45 nm to 32 nm (the key trend behind the paper's
//!   cache-locking critique in §2.3);
//! * the miss penalty covers the DRAM access plus the line transfer;
//! * with a unified L2 ([`EnergyModel::with_l2`]) the L2 array adds its own
//!   read/fill and leakage terms, and only L1 misses that *also* miss in L2
//!   reach the DRAM — an L2 hit trades a cheap SRAM read for a DRAM burst.
//!
//! Absolute joule values are fitted placeholders, not CACTI output; all
//! experiment results are reported as *ratios* (optimized / original), as
//! in the paper's Inequations 10–12.
//!
//! The model is **replacement-policy-invariant** by design: per-access
//! energies, leakage, and timing depend only on the cache *geometry*
//! (capacity, associativity, block size) and the technology node, never
//! on how victims are chosen. The policy still changes *total* energy —
//! through the hit/miss counts in [`MemStats`] — but a FIFO or PLRU
//! configuration with the same geometry gets the exact same per-event
//! costs as LRU (the few policy-state bits are lost in the tag/data
//! array noise at any realistic geometry).
//!
//! # Example
//!
//! ```
//! use rtpf_cache::CacheConfig;
//! use rtpf_energy::{EnergyModel, MemStats, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CacheConfig::new(2, 16, 1024)?;
//! let model = EnergyModel::new(&config, Technology::Nm45);
//! let stats = MemStats {
//!     accesses: 1000,
//!     hits: 950,
//!     misses: 50,
//!     fills: 50,
//!     cycles: 2000,
//!     ..MemStats::default()
//! };
//! let e = model.energy_of(&stats);
//! assert!(e.total_nj() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use std::fmt;

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming};

/// CMOS process technology node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Technology {
    /// 45 nm node: higher dynamic energy, lower leakage, 1.0 ns cycle.
    Nm45,
    /// 32 nm node: lower dynamic energy, higher leakage, 0.8 ns cycle.
    Nm32,
}

impl Technology {
    /// Both nodes evaluated by the paper, in its order.
    pub fn all() -> [Technology; 2] {
        [Technology::Nm45, Technology::Nm32]
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        match self {
            Technology::Nm45 => 1.0,
            Technology::Nm32 => 0.8,
        }
    }

    fn dynamic_scale(&self) -> f64 {
        match self {
            Technology::Nm45 => 1.0,
            Technology::Nm32 => 0.72, // dynamic energy shrinks with node
        }
    }

    fn leakage_scale(&self) -> f64 {
        match self {
            Technology::Nm45 => 1.0,
            Technology::Nm32 => 1.9, // leakage worsens with node
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Technology::Nm45 => f.write_str("45nm"),
            Technology::Nm32 => f.write_str("32nm"),
        }
    }
}

/// Memory-system activity counters produced by analysis or simulation.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MemStats {
    /// Level-1 lookups (demand fetches and prefetch-instruction fetches).
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Line fills (demand misses + completed prefetch operations).
    pub fills: u64,
    /// Total memory-subsystem busy cycles (drives static energy).
    pub cycles: u64,
    /// Level-2 lookups (L1 misses forwarded down). Zero without an L2.
    pub l2_accesses: u64,
    /// L2 lookups that hit.
    pub l2_hits: u64,
    /// L2 lookups that missed (and went to DRAM).
    pub l2_misses: u64,
    /// L2 line fills from DRAM.
    pub l2_fills: u64,
}

/// Energy breakdown in nanojoules.
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct EnergyBreakdown {
    /// L1 cache dynamic energy (reads + fills).
    pub cache_dynamic_nj: f64,
    /// L1 cache leakage over the busy window.
    pub cache_static_nj: f64,
    /// L2 cache dynamic energy (reads + fills). Zero without an L2.
    pub l2_dynamic_nj: f64,
    /// L2 cache leakage over the busy window. Zero without an L2.
    pub l2_static_nj: f64,
    /// DRAM access energy for fills that reached the DRAM.
    pub dram_dynamic_nj: f64,
    /// DRAM background power over the busy window.
    pub dram_static_nj: f64,
}

impl EnergyBreakdown {
    /// Total memory-system energy.
    ///
    /// The L2 terms are added between the cache and DRAM terms; when they
    /// are zero (no L2) the partial-sum sequence is identical to the
    /// single-level total, so L1-only results stay bit-for-bit stable.
    pub fn total_nj(&self) -> f64 {
        self.cache_dynamic_nj
            + self.cache_static_nj
            + self.l2_dynamic_nj
            + self.l2_static_nj
            + self.dram_dynamic_nj
            + self.dram_static_nj
    }
}

/// Analytical energy/timing model for one cache hierarchy and technology.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    config: CacheConfig,
    l2: Option<CacheConfig>,
    tech: Technology,
}

/// Reference geometry the fits are normalized to (256 B, 16 B, direct).
const BASE_CAPACITY: f64 = 256.0;
const BASE_BLOCK: f64 = 16.0;

/// Fitted constants (CACTI-shaped, see crate docs).
///
/// The balance mirrors the paper's setup (S.4): the level-two memory is a
/// **128 MB DRAM**, whose background (refresh + standby) power dwarfs the
/// per-access energies, and nanometer SRAM leaks heavily (§2.3's premise).
/// Time-proportional power therefore dominates, which is exactly why the
/// paper's measured energy improvement (−11.2%) tracks its ACET
/// improvement (−10.2%) so closely.
const READ_BASE_NJ: f64 = 0.012;
const LEAK_BASE_MW: f64 = 0.35;
const DRAM_ACCESS_BASE_NJ: f64 = 1.2;
const DRAM_STATIC_MW: f64 = 55.0;
const DRAM_LATENCY_CYCLES: u64 = 18;
/// Array latency of a unified on-chip L2 — a small fraction of the DRAM
/// round trip; both pay the same line transfer on top.
const L2_LATENCY_CYCLES: u64 = 6;

impl EnergyModel {
    /// A model for the given geometry and technology.
    pub fn new(config: &CacheConfig, tech: Technology) -> Self {
        EnergyModel {
            config: *config,
            l2: None,
            tech,
        }
    }

    /// A model for a full hierarchy: the L1 geometry plus, when present,
    /// a unified L2 whose array energies and leakage join the breakdown.
    pub fn for_hierarchy(hierarchy: &HierarchyConfig, tech: Technology) -> Self {
        EnergyModel {
            config: *hierarchy.l1(),
            l2: hierarchy.l2().copied(),
            tech,
        }
    }

    /// Adds a unified L2 geometry to the model.
    pub fn with_l2(mut self, l2: &CacheConfig) -> Self {
        self.l2 = Some(*l2);
        self
    }

    /// The L1 geometry being modelled.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The L2 geometry, when the model covers a two-level hierarchy.
    pub fn l2_config(&self) -> Option<&CacheConfig> {
        self.l2.as_ref()
    }

    /// The same fits applied to the L2 geometry, when present.
    fn l2_model(&self) -> Option<EnergyModel> {
        self.l2.map(|l2| EnergyModel::new(&l2, self.tech))
    }

    /// Dynamic energy of one cache read (tag + data) in nJ.
    pub fn read_energy_nj(&self) -> f64 {
        let cap = f64::from(self.config.capacity_bytes()) / BASE_CAPACITY;
        let assoc = f64::from(self.config.assoc());
        let block = f64::from(self.config.block_bytes()) / BASE_BLOCK;
        READ_BASE_NJ
            * cap.powf(0.45)
            * assoc.powf(0.25)
            * block.powf(0.15)
            * self.tech.dynamic_scale()
    }

    /// Dynamic energy of one line fill (write of a whole block) in nJ.
    pub fn fill_energy_nj(&self) -> f64 {
        // Filling writes `block` bytes: costlier than a read, scaling with
        // the line size.
        let block = f64::from(self.config.block_bytes()) / BASE_BLOCK;
        self.read_energy_nj() * (1.1 + 0.5 * block)
    }

    /// Cache leakage power in mW.
    pub fn leakage_mw(&self) -> f64 {
        let cap = f64::from(self.config.capacity_bytes()) / BASE_CAPACITY;
        LEAK_BASE_MW * cap * self.tech.leakage_scale()
    }

    /// DRAM energy per block transfer in nJ.
    pub fn dram_access_nj(&self) -> f64 {
        let block = f64::from(self.config.block_bytes()) / BASE_BLOCK;
        DRAM_ACCESS_BASE_NJ * (0.6 + 0.4 * block)
    }

    /// Cycle-level timing for this hierarchy: 1-cycle hits; misses pay the
    /// DRAM latency plus the line transfer (4 bytes/cycle). With an L2,
    /// an L1-miss-L2-hit pays only the L2 array latency plus the same
    /// transfer.
    pub fn timing(&self) -> MemTiming {
        let transfer = u64::from(self.config.block_bytes()) / 4;
        let penalty = DRAM_LATENCY_CYCLES + transfer;
        let base = MemTiming {
            hit_cycles: 1,
            miss_cycles: 1 + penalty,
            prefetch_latency: penalty,
            l2_hit_cycles: None,
        };
        match self.l2 {
            Some(_) => base.with_l2_hit(1 + L2_LATENCY_CYCLES + transfer),
            None => base,
        }
    }

    /// Energy of an execution with the given activity counters.
    ///
    /// Without an L2 every L1 fill is a DRAM burst; with one, only the
    /// fills that also missed in L2 (`l2_fills`) reach the DRAM, and the
    /// L2 array contributes its own dynamic and leakage terms.
    pub fn energy_of(&self, stats: &MemStats) -> EnergyBreakdown {
        let ns = stats.cycles as f64 * self.tech.cycle_ns();
        let (l2_dynamic_nj, l2_static_nj, dram_fills) = match self.l2_model() {
            Some(l2m) => (
                stats.l2_accesses as f64 * l2m.read_energy_nj()
                    + stats.l2_fills as f64 * l2m.fill_energy_nj(),
                l2m.leakage_mw() * ns / 1000.0,
                stats.l2_fills,
            ),
            None => (0.0, 0.0, stats.fills),
        };
        EnergyBreakdown {
            cache_dynamic_nj: stats.accesses as f64 * self.read_energy_nj()
                + stats.fills as f64 * self.fill_energy_nj(),
            // mW × ns = pJ; /1000 → nJ.
            cache_static_nj: self.leakage_mw() * ns / 1000.0,
            l2_dynamic_nj,
            l2_static_nj,
            dram_dynamic_nj: dram_fills as f64 * self.dram_access_nj(),
            dram_static_nj: DRAM_STATIC_MW * ns / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(assoc: u32, block: u32, cap: u32) -> CacheConfig {
        CacheConfig::new(assoc, block, cap).unwrap()
    }

    #[test]
    fn dynamic_energy_grows_with_capacity() {
        let small = EnergyModel::new(&cfg(2, 16, 256), Technology::Nm45);
        let large = EnergyModel::new(&cfg(2, 16, 8192), Technology::Nm45);
        assert!(large.read_energy_nj() > small.read_energy_nj());
        assert!(large.leakage_mw() > small.leakage_mw());
    }

    #[test]
    fn node_shrink_trades_dynamic_for_leakage() {
        let c = cfg(2, 16, 1024);
        let n45 = EnergyModel::new(&c, Technology::Nm45);
        let n32 = EnergyModel::new(&c, Technology::Nm32);
        assert!(n32.read_energy_nj() < n45.read_energy_nj());
        assert!(n32.leakage_mw() > n45.leakage_mw());
    }

    #[test]
    fn model_is_replacement_policy_invariant() {
        use rtpf_cache::ReplacementPolicy;
        let base = cfg(4, 16, 1024);
        let stats = MemStats {
            accesses: 1000,
            hits: 900,
            misses: 100,
            fills: 100,
            cycles: 3000,
            ..MemStats::default()
        };
        for policy in ReplacementPolicy::ALL {
            let c = base.with_policy(policy).unwrap();
            for tech in Technology::all() {
                let m = EnergyModel::new(&c, tech);
                let r = EnergyModel::new(&base, tech);
                assert_eq!(m.read_energy_nj(), r.read_energy_nj());
                assert_eq!(m.fill_energy_nj(), r.fill_energy_nj());
                assert_eq!(m.leakage_mw(), r.leakage_mw());
                assert_eq!(m.timing().miss_cycles, r.timing().miss_cycles);
                assert_eq!(
                    m.energy_of(&stats).total_nj(),
                    r.energy_of(&stats).total_nj()
                );
            }
        }
    }

    #[test]
    fn miss_penalty_scales_with_block_size() {
        let t16 = EnergyModel::new(&cfg(1, 16, 256), Technology::Nm45).timing();
        let t32 = EnergyModel::new(&cfg(1, 32, 256), Technology::Nm45).timing();
        assert!(t32.miss_cycles > t16.miss_cycles);
        assert_eq!(t16.hit_cycles, 1);
    }

    #[test]
    fn energy_attribution_is_additive() {
        let m = EnergyModel::new(&cfg(2, 16, 1024), Technology::Nm32);
        let s1 = MemStats {
            accesses: 100,
            hits: 90,
            misses: 10,
            fills: 10,
            cycles: 500,
            ..MemStats::default()
        };
        let s2 = MemStats {
            accesses: 200,
            hits: 180,
            misses: 20,
            fills: 20,
            cycles: 1000,
            ..MemStats::default()
        };
        let e1 = m.energy_of(&s1).total_nj();
        let e2 = m.energy_of(&s2).total_nj();
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn fewer_misses_means_less_energy_and_shorter_runtime_less_static() {
        let m = EnergyModel::new(&cfg(2, 16, 1024), Technology::Nm45);
        let timing = m.timing();
        let slow = MemStats {
            accesses: 1000,
            hits: 800,
            misses: 200,
            fills: 200,
            cycles: 800 * timing.hit_cycles + 200 * timing.miss_cycles,
            ..MemStats::default()
        };
        let fast = MemStats {
            accesses: 1000,
            hits: 950,
            misses: 50,
            fills: 50,
            cycles: 950 * timing.hit_cycles + 50 * timing.miss_cycles,
            ..MemStats::default()
        };
        let es = m.energy_of(&slow);
        let ef = m.energy_of(&fast);
        assert!(ef.total_nj() < es.total_nj());
        assert!(ef.cache_static_nj < es.cache_static_nj);
        assert!(ef.dram_dynamic_nj < es.dram_dynamic_nj);
    }

    #[test]
    fn timing_is_consistent_with_memtiming_contract() {
        let m = EnergyModel::new(&cfg(4, 32, 4096), Technology::Nm32);
        let t = m.timing();
        assert!(t.miss_cycles > t.hit_cycles);
        assert!(t.prefetch_latency >= t.miss_cycles - t.hit_cycles);
    }

    #[test]
    fn l1_only_breakdown_has_zero_l2_terms() {
        let m = EnergyModel::new(&cfg(2, 16, 1024), Technology::Nm45);
        let stats = MemStats {
            accesses: 1000,
            hits: 900,
            misses: 100,
            fills: 100,
            cycles: 3000,
            ..MemStats::default()
        };
        let e = m.energy_of(&stats);
        assert_eq!(e.l2_dynamic_nj, 0.0);
        assert_eq!(e.l2_static_nj, 0.0);
        // With zero L2 terms the total is exactly the four-term sum.
        assert_eq!(
            e.total_nj(),
            e.cache_dynamic_nj + e.cache_static_nj + e.dram_dynamic_nj + e.dram_static_nj
        );
        assert_eq!(m.timing().l2_hit_cycles, None);
        assert!(m.l2_config().is_none());
    }

    #[test]
    fn hierarchy_timing_orders_the_three_latencies() {
        let l1 = cfg(2, 16, 256);
        let l2 = cfg(4, 16, 4096);
        let m = EnergyModel::new(&l1, Technology::Nm45).with_l2(&l2);
        let t = m.timing();
        let l2_hit = t.l2_hit_cycles.expect("two-level timing has an L2 latency");
        assert!(t.hit_cycles < l2_hit);
        assert!(l2_hit < t.miss_cycles);
        // Same line transfer on top of either array latency.
        let transfer = u64::from(l1.block_bytes()) / 4;
        assert_eq!(l2_hit, 1 + L2_LATENCY_CYCLES + transfer);
        assert_eq!(t.miss_cycles, 1 + DRAM_LATENCY_CYCLES + transfer);
        // The base fields are untouched by the L2.
        let base = EnergyModel::new(&l1, Technology::Nm45).timing();
        assert_eq!(t.hit_cycles, base.hit_cycles);
        assert_eq!(t.miss_cycles, base.miss_cycles);
        assert_eq!(t.prefetch_latency, base.prefetch_latency);
    }

    #[test]
    fn for_hierarchy_matches_with_l2() {
        let l1 = cfg(2, 16, 256);
        let l2 = cfg(4, 16, 4096);
        let h = HierarchyConfig::two_level(l1, l2).unwrap();
        let a = EnergyModel::for_hierarchy(&h, Technology::Nm32);
        let b = EnergyModel::new(&l1, Technology::Nm32).with_l2(&l2);
        assert_eq!(a.timing(), b.timing());
        assert_eq!(a.l2_config(), Some(&l2));
        let d = EnergyModel::for_hierarchy(&HierarchyConfig::l1_only(l1), Technology::Nm32);
        assert!(d.l2_config().is_none());
        assert_eq!(d.timing(), EnergyModel::new(&l1, Technology::Nm32).timing());
    }

    #[test]
    fn l2_hits_absorb_dram_energy() {
        let l1 = cfg(2, 16, 256);
        let l2 = cfg(4, 16, 4096);
        let m = EnergyModel::new(&l1, Technology::Nm45).with_l2(&l2);
        let t = m.timing();
        let l2_hit = t.l2_hit_cycles.unwrap();
        // Same L1 behaviour; one run catches most misses in the L2.
        let absorbed = MemStats {
            accesses: 1000,
            hits: 800,
            misses: 200,
            fills: 200,
            l2_accesses: 200,
            l2_hits: 180,
            l2_misses: 20,
            l2_fills: 20,
            cycles: 800 * t.hit_cycles + 180 * l2_hit + 20 * t.miss_cycles,
        };
        let cold = MemStats {
            accesses: 1000,
            hits: 800,
            misses: 200,
            fills: 200,
            l2_accesses: 200,
            l2_hits: 0,
            l2_misses: 200,
            l2_fills: 200,
            cycles: 800 * t.hit_cycles + 200 * t.miss_cycles,
        };
        let ea = m.energy_of(&absorbed);
        let ec = m.energy_of(&cold);
        // Only the 20 L2 misses reach the DRAM.
        assert_eq!(ea.dram_dynamic_nj, 20.0 * m.dram_access_nj());
        assert_eq!(ec.dram_dynamic_nj, 200.0 * m.dram_access_nj());
        assert!(ea.l2_dynamic_nj > 0.0);
        assert!(ea.l2_static_nj > 0.0);
        assert!(ea.total_nj() < ec.total_nj());
    }

    #[test]
    fn l2_leakage_scales_with_its_capacity() {
        let l1 = cfg(2, 16, 256);
        let small = EnergyModel::new(&l1, Technology::Nm32).with_l2(&cfg(4, 16, 2048));
        let large = EnergyModel::new(&l1, Technology::Nm32).with_l2(&cfg(4, 16, 16384));
        let stats = MemStats {
            accesses: 100,
            hits: 100,
            cycles: 100,
            ..MemStats::default()
        };
        let es = small.energy_of(&stats);
        let el = large.energy_of(&stats);
        assert!(el.l2_static_nj > es.l2_static_nj);
        // L1 terms are independent of the L2 geometry.
        assert_eq!(es.cache_dynamic_nj, el.cache_dynamic_nj);
        assert_eq!(es.cache_static_nj, el.cache_static_nj);
    }
}
