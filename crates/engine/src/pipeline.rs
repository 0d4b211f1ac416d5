//! The [`Engine`]: typed pipeline stages over the artifact store.
//!
//! Each stage is a pure function from artifact values to an artifact
//! value; the engine's job is routing — compute the stage's key, consult
//! the [`ArtifactStore`], run the stage on a miss, record its wall-clock
//! in the shared [`AnalysisProfile`]. One `Engine` wraps one
//! [`EngineConfig`]; engines for different configurations can share a
//! store (keys embed the configuration fingerprint, so they never
//! collide).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtpf_audit::{DiagnosticSink, SoundnessOptions, SoundnessSummary, TransformSummary};
use rtpf_core::{check_hierarchy, OptimizeResult, Optimizer, TheoremReport};
use rtpf_energy::{EnergyBreakdown, EnergyModel, Technology};
use rtpf_isa::Program;
use rtpf_sim::{SimResult, Simulator};
use rtpf_wcet::{AnalysisProfile, WcetAnalysis};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::fingerprint::{program_fingerprint, Fingerprint, FpHasher};
use crate::store::{ArtifactKey, ArtifactStore, Stage};
use crate::unit::UnitResult;

/// An optimization that passed the paper's Condition 3 gate (or the
/// original program if it did not).
#[derive(Clone, Debug)]
pub struct Gated {
    /// The optimization result actually shipped.
    pub opt: Arc<OptimizeResult>,
    /// Simulation of the original program.
    pub sim_orig: Arc<SimResult>,
    /// Simulation of the shipped program.
    pub sim_opt: Arc<SimResult>,
}

/// The staged analysis pipeline for one configuration.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    store: Arc<ArtifactStore>,
    profile: Mutex<AnalysisProfile>,
}

impl Engine {
    /// An engine with a fresh private in-memory store.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_store(config, Arc::new(ArtifactStore::in_memory()))
    }

    /// An engine attached to a shared store.
    pub fn with_store(config: EngineConfig, store: Arc<ArtifactStore>) -> Engine {
        Engine {
            config,
            store,
            profile: Mutex::new(AnalysisProfile::default()),
        }
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The attached artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Aggregated per-phase/per-stage profile of every stage this engine
    /// executed, with the store's hit/miss counters folded in.
    pub fn profile(&self) -> AnalysisProfile {
        let mut p = *self.profile.lock().expect("profile lock");
        p.store_hits = self.store.hits();
        p.store_misses = self.store.misses();
        p
    }

    fn absorb(&self, p: &AnalysisProfile) {
        self.profile.lock().expect("profile lock").add(p);
    }

    /// Parse stage: loads `path` or `suite:NAME` into a validated program.
    ///
    /// File programs are cached by text content; suite programs are
    /// compiled skeletons and load directly.
    ///
    /// # Errors
    ///
    /// Fails when the file is unreadable/malformed or the suite name
    /// unknown.
    pub fn load(&self, spec: &str) -> Result<(String, Arc<Program>), EngineError> {
        if spec.starts_with("suite:") {
            return load_program(spec).map(|(name, p)| (name, Arc::new(p)));
        }
        let src = std::fs::read_to_string(spec).map_err(|e| EngineError::Read {
            path: spec.to_string(),
            error: e.to_string(),
        })?;
        self.parse(spec, &src)
    }

    /// Parse stage over program text, cached by content; `path` names the
    /// source in parse errors.
    pub(crate) fn parse(
        &self,
        path: &str,
        text: &str,
    ) -> Result<(String, Arc<Program>), EngineError> {
        let mut h = FpHasher::new();
        h.write_str(text);
        let key = ArtifactKey::new(Stage::Parse, &[h.finish()]);
        let named: Arc<(String, Program)> =
            self.store.get_or_compute(key, || parse_text(path, text))?;
        Ok((named.0.clone(), Arc::new(named.1.clone())))
    }

    /// Stage keys take the *program* fingerprint precomputed: public stage
    /// entries hash the program exactly once and thread the fingerprint
    /// through every internal `_with_fp` hop, so a unit no longer re-walks
    /// the program per artifact lookup it makes.
    fn key_for(&self, stage: Stage, cfg_fp: Fingerprint, pfp: Fingerprint) -> ArtifactKey {
        ArtifactKey::new(stage, &[cfg_fp, pfp])
    }

    /// Analyze stage: CFG/loops/layout, VIVU, classification, and IPET in
    /// one artifact (a full [`WcetAnalysis`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::Analysis`].
    pub fn analysis(&self, p: &Program) -> Result<Arc<WcetAnalysis>, EngineError> {
        let key = self.key_for(
            Stage::Analyze,
            self.config.analysis_fingerprint(),
            program_fingerprint(p),
        );
        self.store.get_or_compute(key, || self.compute_analysis(p))
    }

    /// Analyze stage with cache bypass: always recomputes, never consults
    /// or populates the store. The audit passes use this so their verdict
    /// is independent of potentially poisoned artifacts.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::Analysis`].
    pub fn analysis_independent(&self, p: &Program) -> Result<WcetAnalysis, EngineError> {
        self.compute_analysis(p)
    }

    /// Analyze stage under an explicit (anchored) layout. The layout is
    /// part of the artifact key — the same program at different addresses
    /// is a different analysis. Used by the Figure-5 shrunk-capacity
    /// probes, which must analyse the optimized binary at the optimizer's
    /// anchored addresses rather than a fresh `Layout::of`.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::Analysis`].
    fn analysis_at_layout(
        &self,
        p: &Program,
        pfp: Fingerprint,
        layout: &rtpf_isa::Layout,
    ) -> Result<Arc<WcetAnalysis>, EngineError> {
        let mut h = FpHasher::new();
        h.write_fp(self.config.analysis_fingerprint());
        h.write_fp(pfp);
        h.write_u64(layout.base());
        for i in 0..layout.len() {
            h.write_u64(layout.addr(rtpf_isa::InstrId(i as u32)));
        }
        let key = ArtifactKey::new(Stage::Analyze, &[h.finish()]);
        self.store.get_or_compute(key, || {
            let a = WcetAnalysis::analyze_hierarchy(
                p,
                layout.clone(),
                &self.config.hierarchy(),
                &self.config.timing(),
                self.config.refine(),
            )
            .map_err(EngineError::Analysis)?;
            self.absorb(a.profile());
            Ok(a)
        })
    }

    fn compute_analysis(&self, p: &Program) -> Result<WcetAnalysis, EngineError> {
        let a = WcetAnalysis::analyze_hierarchy(
            p,
            rtpf_isa::Layout::of(p),
            &self.config.hierarchy(),
            &self.config.timing(),
            self.config.refine(),
        )
        .map_err(EngineError::Analysis)?;
        self.absorb(a.profile());
        Ok(a)
    }

    /// Optimize stage: WCET-safe prefetch insertion (Theorem 1 by
    /// construction).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::Optimize`].
    pub fn optimized(&self, p: &Program) -> Result<Arc<OptimizeResult>, EngineError> {
        self.optimize_artifact(p, program_fingerprint(p), None)
    }

    /// Optimize stage with a round override (`Some(0)` is the no-op
    /// optimization the Condition-3 gate falls back to).
    fn optimize_artifact(
        &self,
        p: &Program,
        pfp: Fingerprint,
        rounds_override: Option<u32>,
    ) -> Result<Arc<OptimizeResult>, EngineError> {
        let mut h = FpHasher::new();
        h.write_fp(self.config.optimize_fingerprint());
        h.write_fp(pfp);
        match rounds_override {
            None => h.write_u8(0),
            Some(r) => {
                h.write_u8(1);
                h.write_u32(r);
            }
        }
        let key = ArtifactKey::new(Stage::Optimize, &[h.finish()]);
        self.store.get_or_compute(key, || {
            let t0 = Instant::now();
            let mut params = self.config.optimize_params(p.instr_count());
            if let Some(r) = rounds_override {
                params.max_rounds = r;
            }
            let r = Optimizer::new_hierarchy(self.config.hierarchy(), params)
                .run(p)
                .map_err(EngineError::Optimize)?;
            let mut prof = r.report.profile;
            prof.optimize_ns = t0.elapsed().as_nanos() as u64;
            self.absorb(&prof);
            Ok(r)
        })
    }

    /// Verify stage: the independent Theorem 1 re-proof over the optimize
    /// artifact ([`check_hierarchy`] re-analyses both programs from scratch).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::Optimize`] / [`EngineError::Verify`].
    pub fn verified(
        &self,
        p: &Program,
    ) -> Result<(Arc<OptimizeResult>, TheoremReport), EngineError> {
        let pfp = program_fingerprint(p);
        let r = self.optimize_artifact(p, pfp, None)?;
        let key = self.key_for(Stage::Verify, self.config.optimize_fingerprint(), pfp);
        let report = self.store.get_or_compute(key, || {
            let t0 = Instant::now();
            let rep = check_hierarchy(
                p,
                &r.program,
                r.analysis_after.layout().clone(),
                &self.config.hierarchy(),
                &self.config.timing(),
            )
            .map_err(EngineError::Verify)?;
            self.absorb(&AnalysisProfile {
                verify_ns: t0.elapsed().as_nanos() as u64,
                ..AnalysisProfile::default()
            });
            Ok(rep)
        })?;
        Ok((r, *report))
    }

    /// Simulate stage: seeded trace simulation under this configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::Simulate`].
    pub fn simulated(&self, p: &Program) -> Result<Arc<SimResult>, EngineError> {
        self.simulated_with_fp(p, program_fingerprint(p))
    }

    fn simulated_with_fp(
        &self,
        p: &Program,
        pfp: Fingerprint,
    ) -> Result<Arc<SimResult>, EngineError> {
        let key = self.key_for(Stage::Simulate, self.config.sim_fingerprint(), pfp);
        self.store.get_or_compute(key, || {
            let t0 = Instant::now();
            let run = Simulator::new_hierarchy(
                self.config.hierarchy(),
                self.config.timing(),
                self.config.sim_config(),
            )
            .run(p)
            .map_err(EngineError::Simulate)?;
            self.absorb(&AnalysisProfile {
                simulate_ns: t0.elapsed().as_nanos() as u64,
                ..AnalysisProfile::default()
            });
            Ok(run)
        })
    }

    /// Energy stage: memory-system energy of a simulated run for both
    /// technology nodes `(45 nm, 32 nm)`.
    pub fn energies(&self, run: &SimResult) -> [EnergyBreakdown; 2] {
        let t0 = Instant::now();
        let stats = run.mean_stats();
        let hierarchy = self.config.hierarchy();
        let out = [
            EnergyModel::for_hierarchy(&hierarchy, Technology::Nm45).energy_of(&stats),
            EnergyModel::for_hierarchy(&hierarchy, Technology::Nm32).energy_of(&stats),
        ];
        self.absorb(&AnalysisProfile {
            energy_ns: t0.elapsed().as_nanos() as u64,
            ..AnalysisProfile::default()
        });
        out
    }

    /// Optimizes under the paper's three conditions. The optimizer
    /// enforces Condition 1 (WCET non-increase) and Condition 2 (miss
    /// reduction on the WCET path); this stage enforces **Condition 3**
    /// (the measured ACET — and with it the static-dominated energy — must
    /// not increase): when no improvement is observed, the original
    /// (prefetch-equivalent) binary ships unchanged.
    ///
    /// # Errors
    ///
    /// Propagates optimize/simulate stage failures.
    pub fn gated_optimize(&self, p: &Program) -> Result<Gated, EngineError> {
        self.gated_optimize_with_fp(p, program_fingerprint(p))
    }

    fn gated_optimize_with_fp(&self, p: &Program, pfp: Fingerprint) -> Result<Gated, EngineError> {
        let e45 = EnergyModel::for_hierarchy(&self.config.hierarchy(), Technology::Nm45);
        let energy = |run: &SimResult| e45.energy_of(&run.mean_stats()).total_nj();
        let mut opt = self.optimize_artifact(p, pfp, None)?;
        let sim_orig = self.simulated_with_fp(p, pfp)?;
        // The optimized binary is a different program; its fingerprint is
        // hashed once here (not per stage the gate consults).
        let mut sim_opt =
            self.simulated_with_fp(&opt.program, program_fingerprint(&opt.program))?;
        let regressed = sim_opt.acet_cycles() > sim_orig.acet_cycles() * 1.001
            || energy(&sim_opt) > energy(&sim_orig) * 1.0005;
        if regressed {
            opt = self.optimize_artifact(p, pfp, Some(0))?;
            sim_opt = Arc::clone(&sim_orig);
        }
        Ok(Gated {
            opt,
            sim_orig,
            sim_opt,
        })
    }

    /// Unit stage: one `(program, configuration)` evaluation row — gated
    /// optimization, both simulations, both technologies' energies, and
    /// the Figure-5 half/quarter-capacity probes.
    ///
    /// # Errors
    ///
    /// Propagates optimize/simulate stage failures.
    pub fn unit(&self, name: &str, k: &str, p: &Program) -> Result<Arc<UnitResult>, EngineError> {
        let pfp = program_fingerprint(p);
        let mut h = FpHasher::new();
        h.write_fp(self.config.fingerprint());
        h.write_fp(pfp);
        h.write_str(name);
        h.write_str(k);
        let key = ArtifactKey::new(Stage::Unit, &[h.finish()]);
        self.store
            .get_or_compute(key, || self.compute_unit(name, k, p, pfp))
    }

    fn compute_unit(
        &self,
        name: &str,
        k: &str,
        p: &Program,
        pfp: Fingerprint,
    ) -> Result<UnitResult, EngineError> {
        let config = *self.config.cache();
        let Gated {
            opt,
            sim_orig,
            sim_opt,
        } = self.gated_optimize_with_fp(p, pfp)?;

        let e_orig = self.energies(&sim_orig).map(|e| e.total_nj());
        let e_opt = self.energies(&sim_opt).map(|e| e.total_nj());

        // Figure 5: the optimized binary on half / quarter capacity. Each
        // probe runs through a sub-engine for the shrunken geometry that
        // shares this engine's store, so its analysis and simulation are
        // first-class, content-addressed artifacts (keyed by the shrunken
        // configuration and — for the analysis — the optimizer's anchored
        // layout) instead of raw recomputations.
        let opt_fp = program_fingerprint(&opt.program);
        let shrunk = |divisor: u32| -> Option<[f64; 4]> {
            let small = config.shrink(divisor).ok()?;
            let sub = Engine::with_store(
                self.config.clone().with_cache(small),
                Arc::clone(&self.store),
            );
            // Probe energies price the shrunken L1 under the unchanged
            // rest of the hierarchy.
            let sub_hierarchy = sub.config.hierarchy();
            let m45 = EnergyModel::for_hierarchy(&sub_hierarchy, Technology::Nm45);
            let m32 = EnergyModel::for_hierarchy(&sub_hierarchy, Technology::Nm32);
            let wcet = sub
                .analysis_at_layout(&opt.program, opt_fp, opt.analysis_after.layout())
                .ok()?
                .tau_w();
            let sim = sub.simulated_with_fp(&opt.program, opt_fp).ok()?;
            let probe_profile = *sub.profile.lock().expect("probe profile lock");
            self.absorb(&probe_profile);
            Some([
                wcet as f64,
                sim.acet_cycles(),
                m45.energy_of(&sim.mean_stats()).total_nj(),
                m32.energy_of(&sim.mean_stats()).total_nj(),
            ])
        };

        // The probe stage wall-clock (both divisors, hits and misses
        // alike) lands in `probe_ns` — a stage counter overlapping the
        // phase fields the sub-engines already absorbed above.
        let t_probe = Instant::now();
        let half = shrunk(2);
        let quarter = shrunk(4);
        self.absorb(&AnalysisProfile {
            probe_ns: t_probe.elapsed().as_nanos() as u64,
            ..AnalysisProfile::default()
        });

        Ok(UnitResult {
            program: name.to_string(),
            k: k.to_string(),
            assoc: config.assoc(),
            block: config.block_bytes(),
            capacity: config.capacity_bytes(),
            inserted: opt.report.inserted,
            wcet_orig: opt.report.wcet_before,
            wcet_opt: opt.report.wcet_after,
            acet_orig: sim_orig.acet_cycles(),
            acet_opt: sim_opt.acet_cycles(),
            missrate_orig: sim_orig.miss_rate(),
            missrate_opt: sim_opt.miss_rate(),
            instr_orig: sim_orig.mean_instr_executed(),
            instr_opt: sim_opt.mean_instr_executed(),
            energy_orig: e_orig,
            energy_opt: e_opt,
            half,
            quarter,
        })
    }

    /// IR lint pass over the program (total: runs on invalid programs).
    pub fn audit_ir(&self, p: &Program, sink: &mut DiagnosticSink) {
        rtpf_audit::audit_ir(p, sink);
    }

    /// Soundness audit: the abstract classification cross-checked against
    /// concrete walks. With `independent` the analysis artifact is
    /// force-recomputed with cache bypass, so a poisoned store cannot
    /// influence the verdict; otherwise the cached artifact is pulled.
    ///
    /// # Errors
    ///
    /// Fails when the program cannot be analysed at all.
    pub fn audit_soundness(
        &self,
        p: &Program,
        sink: &mut DiagnosticSink,
        opts: &SoundnessOptions,
        independent: bool,
    ) -> Result<SoundnessSummary, EngineError> {
        let summary = if independent {
            let a = self.analysis_independent(p)?;
            rtpf_audit::audit_soundness_artifact(p, &a, sink, opts)
        } else {
            let a = self.analysis(p)?;
            rtpf_audit::audit_soundness_artifact(p, &a, sink, opts)
        };
        Ok(summary)
    }

    /// Transform audit: re-derives the paper's joint criterion and
    /// Theorem 1 over the engine's optimize artifact.
    ///
    /// # Errors
    ///
    /// Propagates optimize failures and analysis failures inside the
    /// audit.
    pub fn audit_transform(
        &self,
        p: &Program,
        sink: &mut DiagnosticSink,
    ) -> Result<TransformSummary, EngineError> {
        let r = self.optimized(p)?;
        rtpf_audit::audit_transform(p, &r.program, &r.analysis_after, sink)
            .map_err(EngineError::Analysis)
    }
}

fn parse_text(path: &str, src: &str) -> Result<(String, Program), EngineError> {
    let (name, shape) = rtpf_isa::text::parse(src).map_err(|e| EngineError::Parse {
        path: path.to_string(),
        error: e.to_string(),
    })?;
    let p = shape.compile(name.clone());
    Ok((name, p))
}

/// The free-function form of [`Engine::load`] for callers without an
/// engine (no Parse-artifact caching).
///
/// # Errors
///
/// Fails when the file is unreadable/malformed or the suite name unknown.
pub fn load_program(spec: &str) -> Result<(String, Program), EngineError> {
    if let Some(name) = spec.strip_prefix("suite:") {
        let b =
            rtpf_suite::by_name(name).ok_or_else(|| EngineError::UnknownSuite(name.to_string()))?;
        return Ok((b.name.to_string(), b.program));
    }
    let src = std::fs::read_to_string(spec).map_err(|e| EngineError::Read {
        path: spec.to_string(),
        error: e.to_string(),
    })?;
    parse_text(spec, &src)
}

/// Key of the full-sweep on-disk artifact: content hash over every
/// `(program, configuration)` pair of the grid, in order.
///
/// Grids repeat the same handful of programs across many configurations,
/// so program fingerprints are memoized by reference identity — the hash
/// input is unchanged, each distinct program is just walked once instead
/// of once per configuration.
pub fn sweep_key<'a>(
    units: impl IntoIterator<Item = (&'a Program, &'a EngineConfig)>,
) -> ArtifactKey {
    let mut memo: Vec<(*const Program, Fingerprint)> = Vec::new();
    let mut h = FpHasher::new();
    h.write_u32(Stage::Unit.version());
    for (p, cfg) in units {
        let key = std::ptr::from_ref(p);
        let pfp = match memo.iter().find(|(q, _)| *q == key) {
            Some(&(_, fp)) => fp,
            None => {
                let fp = program_fingerprint(p);
                memo.push((key, fp));
                fp
            }
        };
        h.write_fp(pfp);
        h.write_fp(cfg.fingerprint());
    }
    ArtifactKey::new(Stage::Sweep, &[h.finish()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let cache = EngineConfig::geometry(2, 16, 512).expect("valid");
        Engine::new(EngineConfig::interactive(cache))
    }

    fn program() -> Program {
        rtpf_suite::by_name("bs").expect("suite program").program
    }

    #[test]
    fn analysis_artifact_is_cached_and_identical() {
        let e = engine();
        let p = program();
        let a1 = e.analysis(&p).expect("analyzes");
        let a2 = e.analysis(&p).expect("analyzes");
        assert!(Arc::ptr_eq(&a1, &a2), "second lookup served from store");
        assert_eq!(e.store().hits(), 1);
        let fresh = e.analysis_independent(&p).expect("analyzes");
        assert_eq!(fresh.tau_w(), a1.tau_w());
        assert_eq!(e.store().hits(), 1, "bypass does not touch the store");
    }

    #[test]
    fn verify_stage_proves_theorem_one() {
        let e = engine();
        let p = program();
        let (r, theorem) = e.verified(&p).expect("verifies");
        assert!(theorem.equivalent);
        assert!(theorem.wcet_preserved);
        assert_eq!(theorem.tau_after, r.report.wcet_after);
    }

    #[test]
    fn stage_profile_accumulates_wall_clock() {
        let e = engine();
        let p = program();
        let run = e.simulated(&p).expect("simulates");
        let _ = e.energies(&run);
        let _ = e.optimized(&p).expect("optimizes");
        let prof = e.profile();
        assert!(prof.simulate_ns > 0);
        assert!(prof.optimize_ns > 0);
        assert_eq!(prof.store_misses, e.store().misses());
    }

    #[test]
    fn two_level_engine_runs_the_whole_pipeline() {
        let l1 = EngineConfig::geometry(2, 16, 512).expect("valid");
        let l2 = EngineConfig::geometry(4, 16, 8192).expect("valid");
        let cfg = EngineConfig::interactive(l1)
            .with_l2(l2)
            .expect("valid hierarchy");
        let single = Engine::new(EngineConfig::interactive(l1));
        let e = Engine::new(cfg);
        let p = program();

        let a = e.analysis(&p).expect("analyzes");
        let a1 = single.analysis(&p).expect("analyzes");
        assert!(a.tau_w() <= a1.tau_w(), "an L2 can only absorb misses");

        let (r, theorem) = e.verified(&p).expect("verifies");
        assert!(theorem.holds(), "{theorem:?}");
        assert!(r.report.wcet_after <= r.report.wcet_before);

        let run = e.simulated(&p).expect("simulates");
        assert_eq!(
            run.stats.l2_accesses,
            run.stats.misses + run.prefetches_issued
        );
        let [e45, e32] = e.energies(&run);
        assert!(e45.l2_static_nj > 0.0);
        assert!(e32.l2_static_nj > 0.0);

        // The single-level engine's artifacts never collide with the
        // two-level ones in a shared store.
        let run1 = single.simulated(&p).expect("simulates");
        assert!(run1.stats.l2_accesses == 0);
        let [s45, _] = single.energies(&run1);
        assert_eq!(s45.l2_static_nj, 0.0);

        let unit = e.unit("bs", "k9", &p).expect("unit");
        assert!(unit.half.is_some(), "half-capacity probe runs under L2");
    }

    #[test]
    fn load_rejects_unknown_suite_and_missing_files() {
        let e = engine();
        assert!(matches!(
            e.load("suite:doom"),
            Err(EngineError::UnknownSuite(_))
        ));
        assert!(matches!(
            e.load("/definitely/not/here.rtpf"),
            Err(EngineError::Read { .. })
        ));
        let (name, p) = e.load("suite:bs").expect("loads");
        assert_eq!(name, "bs");
        assert!(p.instr_count() > 0);
    }
}
