//! [`EngineConfig`]: the single source of truth for every knob the
//! pipeline consumes.
//!
//! Before the engine existed, each front end hand-rolled its own copies of
//! the cache geometry, [`MemTiming`], [`SimConfig`], and
//! [`OptimizeParams`] plumbing — and drifted. Now exactly one type owns
//! them; front ends pick a *profile* constructor and override the few
//! flags their user exposed:
//!
//! * [`EngineConfig::interactive`] — the `rtpf` CLI defaults;
//! * [`EngineConfig::cli_sweep`] — `rtpf sweep` / `rtpf audit --optimize`
//!   (few rounds, small single-verification budget);
//! * [`EngineConfig::evaluation`] — the paper-evaluation harness profile
//!   (WCET-like traces, adaptive optimizer budget, Condition-3 gating).
//!
//! The derived views ([`timing`](EngineConfig::timing),
//! [`sim_config`](EngineConfig::sim_config),
//! [`optimize_params`](EngineConfig::optimize_params)) are the only
//! sanctioned way to materialize those structs outside this crate.

use rtpf_audit::SeverityConfig;
pub use rtpf_cache::ConfigError;
use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, RefineConfig};
use rtpf_energy::{EnergyModel, Technology};
use rtpf_sim::{BranchBehavior, SimConfig};

use rtpf_core::OptimizeParams;

use crate::fingerprint::{Fingerprint, FpHasher};

/// How the optimizer budget is chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptimizePolicy {
    /// Fixed budget, independent of program size.
    Fixed {
        /// Maximum optimize–verify rounds.
        max_rounds: u32,
        /// One-at-a-time verification attempts per round.
        max_singles_per_round: u32,
        /// Hard cap on inserted prefetches.
        max_prefetches: u32,
    },
    /// The evaluation harness policy: the verification budget adapts to
    /// program size, because each one-at-a-time verification costs a full
    /// WCET analysis (which dominates on the giant generated programs).
    Adaptive,
}

/// Every knob of the analysis pipeline, in one place.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    cache: CacheConfig,
    /// Optional unified L2 behind the L1; validated against the L1 by
    /// [`with_l2`](EngineConfig::with_l2), the only way to set it.
    l2: Option<CacheConfig>,
    /// Explicit miss-penalty override; `None` derives timing from the
    /// 45 nm energy model, like every profile does by default.
    penalty: Option<u64>,
    behavior: BranchBehavior,
    sim_seed: u64,
    sim_runs: u32,
    max_fetches: u64,
    policy: OptimizePolicy,
    check_effectiveness: bool,
    /// Exact per-set FIFO/PLRU refinement behind the classify fixpoint
    /// (DESIGN.md §12). On by default in every profile; a no-op under LRU,
    /// so LRU artifacts are bit-identical with it on or off.
    refine: RefineConfig,
    severity: SeverityConfig,
}

impl EngineConfig {
    /// The only sanctioned route from raw `(assoc, block, capacity)`
    /// numbers to a [`CacheConfig`] outside the cache crate itself.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for invalid geometries.
    pub fn geometry(assoc: u32, block: u32, capacity: u32) -> Result<CacheConfig, ConfigError> {
        CacheConfig::new(assoc, block, capacity)
    }

    /// The interactive CLI profile (`rtpf analyze/optimize/simulate`).
    pub fn interactive(cache: CacheConfig) -> EngineConfig {
        EngineConfig {
            cache,
            l2: None,
            penalty: None,
            behavior: BranchBehavior::default(),
            sim_seed: 0xC0FF_EE00,
            sim_runs: 3,
            max_fetches: 8_000_000,
            policy: OptimizePolicy::Fixed {
                max_rounds: 25,
                max_singles_per_round: 48,
                max_prefetches: 512,
            },
            check_effectiveness: true,
            refine: RefineConfig::on(),
            severity: SeverityConfig::new(),
        }
    }

    /// The `rtpf sweep` / `rtpf audit --optimize` profile: a small fixed
    /// budget so all 36 configurations stay interactive.
    pub fn cli_sweep(cache: CacheConfig) -> EngineConfig {
        EngineConfig {
            policy: OptimizePolicy::Fixed {
                max_rounds: 4,
                max_singles_per_round: 8,
                max_prefetches: 512,
            },
            ..EngineConfig::interactive(cache)
        }
    }

    /// The paper-evaluation profile used by the 37 × 36 sweep: WCET-like
    /// traces (the Mälardalen programs are single-path by design), a fixed
    /// evaluation seed, and the adaptive optimizer budget.
    pub fn evaluation(cache: CacheConfig) -> EngineConfig {
        EngineConfig {
            behavior: BranchBehavior::WorstLike,
            sim_seed: 0x5EED_2013,
            sim_runs: 2,
            max_fetches: 4_000_000,
            policy: OptimizePolicy::Adaptive,
            ..EngineConfig::interactive(cache)
        }
    }

    /// Overrides the miss penalty (otherwise derived from the energy
    /// model).
    pub fn with_penalty(mut self, penalty: u64) -> EngineConfig {
        self.penalty = Some(penalty);
        self
    }

    /// Adds a unified L2 behind the L1, validating the hierarchy (the L2
    /// must be strictly larger and share the L1's block size).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError::HierarchyInvalid`] for non-monotone
    /// hierarchies.
    pub fn with_l2(mut self, l2: CacheConfig) -> Result<EngineConfig, ConfigError> {
        HierarchyConfig::two_level(self.cache, l2)?;
        self.l2 = Some(l2);
        Ok(self)
    }

    /// The L2 geometry, when configured.
    pub fn l2(&self) -> Option<&CacheConfig> {
        self.l2.as_ref()
    }

    /// The full cache hierarchy every stage analyses, optimizes,
    /// simulates, and prices.
    pub fn hierarchy(&self) -> HierarchyConfig {
        match self.l2 {
            Some(l2) => HierarchyConfig::two_level(self.cache, l2).expect("validated by with_l2"),
            None => HierarchyConfig::l1_only(self.cache),
        }
    }

    /// Overrides the simulated branch behaviour.
    pub fn with_behavior(mut self, behavior: BranchBehavior) -> EngineConfig {
        self.behavior = behavior;
        self
    }

    /// Overrides the simulation seed.
    pub fn with_seed(mut self, seed: u64) -> EngineConfig {
        self.sim_seed = seed;
        self
    }

    /// Overrides the number of averaged simulation runs.
    pub fn with_runs(mut self, runs: u32) -> EngineConfig {
        self.sim_runs = runs;
        self
    }

    /// Overrides the maximum optimize–verify rounds (switching an
    /// [`Adaptive`](OptimizePolicy::Adaptive) policy to fixed budgets is a
    /// deliberate non-goal: round overrides are a CLI affordance).
    pub fn with_rounds(mut self, rounds: u32) -> EngineConfig {
        if let OptimizePolicy::Fixed { max_rounds, .. } = &mut self.policy {
            *max_rounds = rounds;
        }
        self
    }

    /// Disables the effectiveness condition (Definition 10) — the WCET-only
    /// ablation of prior work.
    pub fn with_check_effectiveness(mut self, check: bool) -> EngineConfig {
        self.check_effectiveness = check;
        self
    }

    /// Does nothing: an analysis and an optimization run on one thread
    /// (DESIGN.md §13). Kept only so the `perfbench` package, which may
    /// not change alongside this crate, still builds; the next change to
    /// the benchmark deletes its calls and this setter.
    pub fn with_verify_workers(self, _workers: usize) -> EngineConfig {
        self
    }

    /// Does nothing, and is kept for the `perfbench` build only, like the
    /// setter above.
    pub fn with_threads(self, _threads: usize) -> EngineConfig {
        self
    }

    /// Sets the audit severity policy.
    pub fn with_severity(mut self, severity: SeverityConfig) -> EngineConfig {
        self.severity = severity;
        self
    }

    /// Sets the exact FIFO/PLRU refinement stage configuration.
    pub fn with_refine(mut self, refine: RefineConfig) -> EngineConfig {
        self.refine = refine;
        self
    }

    /// The exact FIFO/PLRU refinement stage configuration.
    pub fn refine(&self) -> RefineConfig {
        self.refine
    }

    /// Cache geometry.
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// The same knobs over a different geometry — how the Figure-5
    /// shrunk-capacity probes derive their sub-engine configuration, so
    /// probe artifacts are keyed (and cached) exactly like first-class
    /// stages. Any explicit `penalty` override is dropped: probe timing
    /// has always been derived from the energy model of the *shrunken*
    /// geometry, never inherited from the full-size one. Any configured L2
    /// is kept: the probes shrink the L1 while the rest of the hierarchy
    /// stays fixed (shrinking keeps the hierarchy monotone).
    pub(crate) fn with_cache(mut self, cache: CacheConfig) -> EngineConfig {
        self.cache = cache;
        self.penalty = None;
        self
    }

    /// The audit severity policy.
    pub fn severity(&self) -> &SeverityConfig {
        &self.severity
    }

    /// Memory timing: the explicit penalty override when present,
    /// otherwise the 45 nm energy model's timing for this hierarchy. With
    /// an L2 configured, the L2 service time is always derived from the
    /// energy model (there is no override knob for it).
    pub fn timing(&self) -> MemTiming {
        let derived = EnergyModel::for_hierarchy(&self.hierarchy(), Technology::Nm45).timing();
        match self.penalty {
            Some(p) => {
                let t = MemTiming::with_miss_penalty(p);
                match derived.l2_hit_cycles {
                    Some(l2) => t.with_l2_hit(l2),
                    None => t,
                }
            }
            None => derived,
        }
    }

    /// Simulation parameters.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            behavior: self.behavior,
            seed: self.sim_seed,
            runs: self.sim_runs,
            max_fetches: self.max_fetches,
        }
    }

    /// Optimizer parameters for a program of `instr_count` instructions
    /// (the count only matters under the adaptive policy).
    pub fn optimize_params(&self, instr_count: usize) -> OptimizeParams {
        let base = OptimizeParams {
            timing: self.timing(),
            check_effectiveness: self.check_effectiveness,
            incremental: true,
            refine: self.refine,
            ..OptimizeParams::default()
        };
        match self.policy {
            OptimizePolicy::Fixed {
                max_rounds,
                max_singles_per_round,
                max_prefetches,
            } => OptimizeParams {
                max_rounds,
                max_singles_per_round,
                max_prefetches,
                ..base
            },
            OptimizePolicy::Adaptive => {
                let big = instr_count >= 1000;
                OptimizeParams {
                    max_rounds: if big { 8 } else { 20 },
                    max_prefetches: 256,
                    max_singles_per_round: if big { 12 } else { 48 },
                    ..base
                }
            }
        }
    }

    fn write_analysis_inputs(&self, h: &mut FpHasher) {
        h.write_u32(self.cache.assoc());
        h.write_u32(self.cache.block_bytes());
        h.write_u32(self.cache.capacity_bytes());
        // The replacement policy shapes every classification and concrete
        // walk, so it is part of the analysis fingerprint (and therefore
        // of every downstream stage key): the store can never serve an
        // LRU artifact for a FIFO/PLRU request or vice versa.
        h.write_u8(self.cache.policy().tag());
        let t = self.timing();
        h.write_u64(t.hit_cycles);
        h.write_u64(t.miss_cycles);
        h.write_u64(t.prefetch_latency);
        // The refinement stage rewrites classifications, so both knobs are
        // analysis inputs. Hashed unconditionally (even for LRU, where the
        // stage is a no-op) to keep the key derivation policy-oblivious;
        // the Analyze stage version bump already re-keyed every artifact.
        h.write_u8(u8::from(self.refine.enabled));
        h.write_u32(self.refine.max_states);
        // The hierarchy below the L1: per-level classifications, τ_w, and
        // the concrete walks all change with it, so its presence, geometry,
        // policy, and service time key every analysis-derived artifact.
        match &self.l2 {
            None => h.write_u8(0),
            Some(l2) => {
                h.write_u8(1);
                h.write_u32(l2.assoc());
                h.write_u32(l2.block_bytes());
                h.write_u32(l2.capacity_bytes());
                h.write_u8(l2.policy().tag());
                h.write_u64(t.l2_hit_cycles.unwrap_or(0));
            }
        }
    }

    fn write_sim_inputs(&self, h: &mut FpHasher) {
        h.write_u8(match self.behavior {
            BranchBehavior::WorstLike => 0,
            BranchBehavior::Random => 1,
        });
        h.write_u64(self.sim_seed);
        h.write_u32(self.sim_runs);
        h.write_u64(self.max_fetches);
    }

    fn write_optimize_inputs(&self, h: &mut FpHasher) {
        match self.policy {
            OptimizePolicy::Fixed {
                max_rounds,
                max_singles_per_round,
                max_prefetches,
            } => {
                h.write_u8(0);
                h.write_u32(max_rounds);
                h.write_u32(max_singles_per_round);
                h.write_u32(max_prefetches);
            }
            OptimizePolicy::Adaptive => h.write_u8(1),
        }
        h.write_u8(u8::from(self.check_effectiveness));
    }

    /// Content hash of the knobs an analysis artifact depends on: cache
    /// geometry and memory timing. Simulation and optimizer knobs are
    /// deliberately absent so e.g. changing the simulation seed does not
    /// invalidate cached analyses.
    pub fn analysis_fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.write_analysis_inputs(&mut h);
        h.finish()
    }

    /// Content hash of the knobs a simulation artifact depends on.
    pub fn sim_fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.write_analysis_inputs(&mut h);
        self.write_sim_inputs(&mut h);
        h.finish()
    }

    /// Content hash of the knobs an optimization artifact depends on.
    pub fn optimize_fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.write_analysis_inputs(&mut h);
        self.write_optimize_inputs(&mut h);
        h.finish()
    }

    /// Content hash of everything that can influence a computed artifact.
    ///
    /// Candidate verification is always incremental, which
    /// `OptimizeParams` proves decision-identical to from-scratch
    /// re-analysis. The severity policy is excluded because it shapes
    /// *reporting* of diagnostics, which are never cached.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.write_analysis_inputs(&mut h);
        self.write_sim_inputs(&mut h);
        self.write_optimize_inputs(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k8() -> CacheConfig {
        EngineConfig::geometry(2, 16, 512).expect("valid")
    }

    #[test]
    fn profiles_reproduce_the_legacy_knobs() {
        let cli = EngineConfig::interactive(k8());
        let sim = cli.sim_config();
        assert_eq!(sim.seed, 0xC0FF_EE00);
        assert_eq!(sim.runs, 3);
        assert_eq!(sim.max_fetches, 8_000_000);
        assert_eq!(cli.optimize_params(100).max_rounds, 25);

        let eval = EngineConfig::evaluation(k8());
        let sim = eval.sim_config();
        assert_eq!(sim.behavior, BranchBehavior::WorstLike);
        assert_eq!(sim.seed, 0x5EED_2013);
        assert_eq!(sim.runs, 2);
        let small = eval.optimize_params(999);
        assert_eq!(
            (
                small.max_rounds,
                small.max_singles_per_round,
                small.max_prefetches
            ),
            (20, 48, 256)
        );
        let big = eval.optimize_params(1000);
        assert_eq!((big.max_rounds, big.max_singles_per_round), (8, 12));

        let sweep = EngineConfig::cli_sweep(k8());
        let p = sweep.optimize_params(10_000);
        assert_eq!((p.max_rounds, p.max_singles_per_round), (4, 8));
    }

    #[test]
    fn every_stage_fingerprint_separates_policies() {
        use rtpf_cache::ReplacementPolicy;
        // The policy must move the analysis fingerprint (the root of every
        // stage key), so a warm store for one policy can never answer
        // another policy's request.
        let lru = EngineConfig::evaluation(k8());
        for p in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
            let other = EngineConfig::evaluation(k8().with_policy(p).expect("valid"));
            assert_ne!(lru.analysis_fingerprint(), other.analysis_fingerprint());
            assert_ne!(lru.sim_fingerprint(), other.sim_fingerprint());
            assert_ne!(lru.optimize_fingerprint(), other.optimize_fingerprint());
            assert_ne!(lru.fingerprint(), other.fingerprint());
        }
        let fifo =
            EngineConfig::evaluation(k8().with_policy(ReplacementPolicy::Fifo).expect("valid"));
        let plru =
            EngineConfig::evaluation(k8().with_policy(ReplacementPolicy::Plru).expect("valid"));
        assert_ne!(fifo.fingerprint(), plru.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_result_knobs() {
        let base = EngineConfig::evaluation(k8());
        let diff = base.clone().with_seed(1);
        assert_ne!(base.fingerprint(), diff.fingerprint());
        let diff = base.clone().with_penalty(99);
        assert_ne!(base.fingerprint(), diff.fingerprint());
        let diff = base.clone().with_check_effectiveness(false);
        assert_ne!(base.fingerprint(), diff.fingerprint());
    }

    #[test]
    fn l2_moves_every_stage_fingerprint() {
        let l2 = EngineConfig::geometry(4, 16, 8192).expect("valid");
        let base = EngineConfig::evaluation(k8());
        let two = base.clone().with_l2(l2).expect("valid hierarchy");
        assert_eq!(two.l2(), Some(&l2));
        assert!(two.hierarchy().is_multi_level());
        assert!(!base.hierarchy().is_multi_level());
        assert_ne!(base.analysis_fingerprint(), two.analysis_fingerprint());
        assert_ne!(base.sim_fingerprint(), two.sim_fingerprint());
        assert_ne!(base.optimize_fingerprint(), two.optimize_fingerprint());
        assert_ne!(base.fingerprint(), two.fingerprint());
        // Different L2 geometries key differently too.
        let bigger = base
            .clone()
            .with_l2(EngineConfig::geometry(4, 16, 16384).expect("valid"))
            .expect("valid hierarchy");
        assert_ne!(two.analysis_fingerprint(), bigger.analysis_fingerprint());
        // The derived timing gains the L2 service time.
        assert!(two.timing().l2_hit_cycles.is_some());
        assert_eq!(base.timing().l2_hit_cycles, None);
        // A penalty override keeps the derived L2 service time.
        let pen = two.clone().with_penalty(40);
        assert!(pen.timing().l2_hit_cycles.is_some());
        assert_eq!(pen.timing().miss_cycles, 41);
    }

    #[test]
    fn with_l2_rejects_non_monotone_hierarchies() {
        use rtpf_cache::HierarchyViolation;
        let base = EngineConfig::evaluation(k8());
        let same = EngineConfig::geometry(2, 16, 512).expect("valid");
        assert!(matches!(
            base.clone().with_l2(same),
            Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::CapacityNotLarger
            ))
        ));
        let other_block = EngineConfig::geometry(2, 32, 8192).expect("valid");
        assert!(matches!(
            base.clone().with_l2(other_block),
            Err(ConfigError::HierarchyInvalid(
                HierarchyViolation::BlockMismatch
            ))
        ));
    }

    #[test]
    fn refine_knobs_move_the_analysis_fingerprint() {
        use rtpf_cache::RefineConfig;
        let base = EngineConfig::evaluation(k8());
        assert_eq!(base.refine(), RefineConfig::on());
        let off = base.clone().with_refine(RefineConfig::off());
        assert_ne!(base.analysis_fingerprint(), off.analysis_fingerprint());
        assert_ne!(base.fingerprint(), off.fingerprint());
        let bigger = base.clone().with_refine(RefineConfig {
            enabled: true,
            max_states: 256,
        });
        assert_ne!(base.analysis_fingerprint(), bigger.analysis_fingerprint());
    }
}
