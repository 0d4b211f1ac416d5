//! The iterative prefetch-insertion optimizer (paper Algorithms 1–3).

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, RefineConfig};
use rtpf_isa::{InstrId, InstrKind, Layout, Program};
use rtpf_wcet::{AnalysisError, AnalysisProfile, WcetAnalysis};

use crate::candidates;
use crate::path::WcetPath;

/// Tuning knobs of the optimizer.
#[derive(Clone, Copy, Debug)]
pub struct OptimizeParams {
    /// Memory timing (hit/miss cycles and the prefetch latency `Λ`).
    pub timing: MemTiming,
    /// Maximum optimize–verify rounds.
    pub max_rounds: u32,
    /// Hard cap on inserted prefetch instructions.
    pub max_prefetches: u32,
    /// Cap on one-at-a-time verification attempts within a single round
    /// (only reached when a batch was rejected).
    pub max_singles_per_round: u32,
    /// Enforce the effectiveness condition (Definition 10). Disabling it
    /// mimics the WCET-only prior work (paper ref \[5\]) that inserts the
    /// prefetch without checking that `Λ` fits before the use — ablation 1
    /// of `rtpf-experiments --bin ablations` shows what that changes.
    pub check_effectiveness: bool,
    /// Re-analyse each verification candidate incrementally from the
    /// current accepted analysis (identical results, much cheaper) instead
    /// of from scratch. Disable to measure the speedup or to force the
    /// legacy path.
    pub incremental: bool,
    /// Worker threads for speculative single-candidate verification after
    /// a batch rejection: `0` = one per available core, `1` = sequential.
    /// Any setting yields bit-identical results; see
    /// [`Optimizer::run`].
    pub verify_workers: usize,
    /// Exact per-set FIFO/PLRU refinement applied behind every
    /// classification the optimizer consumes (`mcost`, profitability, and
    /// the verification analyses alike). A no-op under LRU.
    pub refine: RefineConfig,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        OptimizeParams {
            timing: MemTiming::default(),
            max_rounds: 25,
            max_prefetches: 512,
            max_singles_per_round: 48,
            check_effectiveness: true,
            incremental: true,
            verify_workers: 0,
            refine: RefineConfig::on(),
        }
    }
}

/// Statistics of one optimization.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OptimizeReport {
    /// Optimize–verify rounds executed.
    pub rounds: u32,
    /// Prefetch instructions in the final program.
    pub inserted: u32,
    /// `τ_w` of the original program.
    pub wcet_before: u64,
    /// `τ_w` of the optimized program (never larger; Theorem 1).
    pub wcet_after: u64,
    /// WCET-path miss count before.
    pub misses_before: u64,
    /// WCET-path miss count after.
    pub misses_after: u64,
    /// Replacement candidates examined across rounds.
    pub candidates_seen: u64,
    /// Insertions rejected by the end-to-end verifier.
    pub rejected_by_verifier: u64,
    /// Aggregated per-phase analysis timings and work counters over every
    /// analysis the run performed (wall-clock; varies between runs).
    pub profile: AnalysisProfile,
}

impl OptimizeReport {
    /// Equality of everything the optimizer *decided* — all fields except
    /// the timing-dependent [`profile`](OptimizeReport::profile). Two runs
    /// with different `verify_workers` / `incremental` settings must agree
    /// under this comparison.
    pub fn decisions_eq(&self, other: &OptimizeReport) -> bool {
        self.rounds == other.rounds
            && self.inserted == other.inserted
            && self.wcet_before == other.wcet_before
            && self.wcet_after == other.wcet_after
            && self.misses_before == other.misses_before
            && self.misses_after == other.misses_after
            && self.candidates_seen == other.candidates_seen
            && self.rejected_by_verifier == other.rejected_by_verifier
    }
}

/// An optimized program plus the analyses proving the transformation safe.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// The prefetch-equivalent optimized program.
    pub program: Program,
    /// Outcome statistics.
    pub report: OptimizeReport,
    /// Analysis of the original program.
    pub analysis_before: WcetAnalysis,
    /// Analysis of the optimized program (under its relocated layout).
    pub analysis_after: WcetAnalysis,
}

/// One planned insertion: a prefetch of the block containing `target`,
/// placed immediately before `anchor` (the paper's `r_{i+1}`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PlanEntry {
    anchor: InstrId,
    target: InstrId,
}

/// The prefetch-insertion optimizer for one cache hierarchy.
#[derive(Clone, Debug)]
pub struct Optimizer {
    hierarchy: HierarchyConfig,
    params: OptimizeParams,
}

impl Optimizer {
    /// An optimizer for a single-level cache with the given parameters.
    pub fn new(config: CacheConfig, params: OptimizeParams) -> Self {
        Self::new_hierarchy(HierarchyConfig::l1_only(config), params)
    }

    /// An optimizer for a full cache hierarchy. With an L2 level every
    /// analysis the optimizer consumes is hierarchy-aware, so the
    /// profitability test's `mcost` (Eq. 9) automatically prices an
    /// L1-miss-L2-hit at [`MemTiming::l2_hit_cycles`] instead of the DRAM
    /// miss time — prefetches that only save an L2 hit usually stop
    /// paying for themselves.
    pub fn new_hierarchy(hierarchy: HierarchyConfig, params: OptimizeParams) -> Self {
        Optimizer { hierarchy, params }
    }

    /// Optimizes `p`, returning the transformed program and its proof
    /// artefacts. The result satisfies
    /// `report.wcet_after ≤ report.wcet_before` **by construction**: every
    /// accepted insertion batch was re-verified by a full WCET analysis.
    ///
    /// Two hot-loop optimizations keep the verification cost down, and
    /// neither changes any decision:
    ///
    /// * with [`OptimizeParams::incremental`], candidate verification
    ///   re-analyses through
    ///   [`WcetAnalysis::reanalyze_after_insert`], which provably equals
    ///   the from-scratch analysis (debug builds cross-check);
    /// * with [`OptimizeParams::verify_workers`] ≠ 1, the post-batch
    ///   single-candidate loop verifies the next wave of plan entries
    ///   speculatively in parallel, then consumes the results **in plan
    ///   order**, discarding everything after the first acceptance (those
    ///   entries are re-verified against the updated program). The
    ///   accept/reject sequence, all caps, and error propagation are
    ///   exactly those of the sequential loop.
    ///
    /// # Errors
    ///
    /// Fails if the program is invalid or the analysis context budget is
    /// exceeded.
    pub fn run(&self, p: &Program) -> Result<OptimizeResult, AnalysisError> {
        let timing = self.params.timing;
        let mut prog = p.clone();
        let mut layout = Layout::of(&prog);
        let before = WcetAnalysis::analyze_hierarchy(
            &prog,
            layout.clone(),
            &self.hierarchy,
            &timing,
            self.params.refine,
            1,
        )?;
        let mut cur = before.clone();
        let mut report = OptimizeReport {
            wcet_before: before.tau_w(),
            wcet_after: before.tau_w(),
            misses_before: before.wcet_misses(),
            misses_after: before.wcet_misses(),
            ..OptimizeReport::default()
        };
        report.profile.add(before.profile());

        for _ in 0..self.params.max_rounds {
            if report.inserted >= self.params.max_prefetches {
                break;
            }
            report.rounds += 1;
            let plan = self.plan_round(&prog, &cur, &mut report);
            if plan.is_empty() {
                break;
            }

            // Batch-apply on a clone and verify end to end.
            let budget = (self.params.max_prefetches - report.inserted) as usize;
            let mut p2 = prog.clone();
            let mut l2 = layout.clone();
            let mut applied = 0u32;
            for e in plan.iter().take(budget) {
                if self.apply(&mut p2, &mut l2, *e, &mut report.profile.relocation_ns) {
                    applied += 1;
                }
            }
            if applied == 0 {
                break;
            }
            let a2 = self.verify_analysis(&cur, &p2, l2.clone())?;
            report.profile.add(a2.profile());
            if accepts(&cur, &a2) {
                prog = p2;
                layout = l2;
                cur = a2;
                report.inserted += applied;
                continue;
            }
            report.rejected_by_verifier += u64::from(applied);

            // Batch failed: verify insertions one at a time (the paper's
            // per-prefetch criterion, enforced exactly), speculating waves
            // of candidates across worker threads.
            let any = self.verify_singles(&plan, &mut prog, &mut layout, &mut cur, &mut report)?;
            if !any {
                break;
            }
        }

        report.wcet_after = cur.tau_w();
        report.misses_after = cur.wcet_misses();
        debug_assert!(report.wcet_after <= report.wcet_before);
        Ok(OptimizeResult {
            program: prog,
            report,
            analysis_before: before,
            analysis_after: cur,
        })
    }

    /// Analysis of a candidate program during verification: incremental
    /// from the current accepted analysis when enabled, from scratch
    /// otherwise.
    fn verify_analysis(
        &self,
        cur: &WcetAnalysis,
        p: &Program,
        layout: Layout,
    ) -> Result<WcetAnalysis, AnalysisError> {
        if self.params.incremental {
            cur.reanalyze_after_insert(p, layout)
        } else {
            WcetAnalysis::analyze_hierarchy(
                p,
                layout,
                &self.hierarchy,
                &self.params.timing,
                self.params.refine,
                1,
            )
        }
    }

    /// The one-at-a-time verification loop, parallelised by speculation.
    ///
    /// Waves of up to `verify_workers` plan entries are applied and
    /// analysed concurrently against the *current* program; the results
    /// are then consumed strictly in plan order. The first acceptance
    /// invalidates the remaining speculative results (they were analysed
    /// against a now-stale program), so they are discarded unconsumed —
    /// their entries re-enter the next wave. Consumed results update the
    /// counters exactly as the sequential loop would, so any worker count
    /// produces the same program, decisions, and error behaviour.
    fn verify_singles(
        &self,
        plan: &[PlanEntry],
        prog: &mut Program,
        layout: &mut Layout,
        cur: &mut WcetAnalysis,
        report: &mut OptimizeReport,
    ) -> Result<bool, AnalysisError> {
        let workers = match self.params.verify_workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let mut any = false;
        let mut tried = 0u32;
        let mut idx = 0usize;
        'waves: while idx < plan.len()
            && report.inserted < self.params.max_prefetches
            && tried < self.params.max_singles_per_round
        {
            let k = workers
                .min(plan.len() - idx)
                .min((self.params.max_singles_per_round - tried) as usize)
                .max(1);
            let wave = &plan[idx..idx + k];
            if k == 1 {
                // Single-candidate fast path: apply on the live program and
                // revert on rejection instead of cloning it. Decisions,
                // counters, and error behaviour are identical to the
                // speculative path (and to the original sequential loop).
                let e = wave[0];
                tried += 1;
                let mut reloc_ns = 0u64;
                let saved_layout = layout.clone();
                let applied = self.apply(prog, layout, e, &mut reloc_ns);
                report.profile.relocation_ns += reloc_ns;
                if !applied {
                    idx += 1;
                    continue;
                }
                let revert = |prog: &mut Program, layout: &mut Layout| {
                    let newest = InstrId(prog.instr_count() as u32 - 1);
                    prog.remove_newest_instr(newest)
                        .expect("reverting the insertion just applied");
                    *layout = saved_layout;
                };
                match self.verify_analysis(cur, prog, layout.clone()) {
                    Ok(a3) => {
                        report.profile.add(a3.profile());
                        if accepts(cur, &a3) {
                            *cur = a3;
                            report.inserted += 1;
                            any = true;
                        } else {
                            report.rejected_by_verifier += 1;
                            revert(prog, layout);
                        }
                    }
                    Err(err) => {
                        revert(prog, layout);
                        return Err(err);
                    }
                }
                idx += 1;
                continue;
            }
            let specs: Vec<(Spec, u64)> = {
                std::thread::scope(|s| {
                    let handles: Vec<_> = wave
                        .iter()
                        .map(|e| {
                            let (prog, layout, cur) = (&*prog, &*layout, &*cur);
                            s.spawn(move || self.speculate(prog, layout, cur, *e))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("verification worker panicked"))
                        .collect()
                })
            };
            for (j, (spec, reloc_ns)) in specs.into_iter().enumerate() {
                if report.inserted >= self.params.max_prefetches
                    || tried >= self.params.max_singles_per_round
                {
                    break 'waves;
                }
                tried += 1;
                report.profile.relocation_ns += reloc_ns;
                match spec {
                    Spec::Skipped => {}
                    Spec::Failed(err) => return Err(err),
                    Spec::Analyzed(boxed) => {
                        let (p3, l3, a3) = *boxed;
                        report.profile.add(a3.profile());
                        if accepts(cur, &a3) {
                            *prog = p3;
                            *layout = l3;
                            *cur = a3;
                            report.inserted += 1;
                            any = true;
                            idx += j + 1;
                            continue 'waves;
                        }
                        report.rejected_by_verifier += 1;
                    }
                }
            }
            idx += k;
        }
        Ok(any)
    }

    /// Applies and analyses one plan entry against a snapshot of the
    /// current program, without committing anything.
    fn speculate(
        &self,
        prog: &Program,
        layout: &Layout,
        cur: &WcetAnalysis,
        e: PlanEntry,
    ) -> (Spec, u64) {
        let mut reloc_ns = 0u64;
        let mut p3 = prog.clone();
        let mut l3 = layout.clone();
        if !self.apply(&mut p3, &mut l3, e, &mut reloc_ns) {
            return (Spec::Skipped, reloc_ns);
        }
        match self.verify_analysis(cur, &p3, l3.clone()) {
            Ok(a3) => (Spec::Analyzed(Box::new((p3, l3, a3))), reloc_ns),
            Err(err) => (Spec::Failed(err), reloc_ns),
        }
    }

    /// Evaluates the joint improvement criterion over the current
    /// analysis, returning the accepted insertions in reverse execution
    /// order (the paper's processing order).
    fn plan_round(
        &self,
        prog: &Program,
        cur: &WcetAnalysis,
        report: &mut OptimizeReport,
    ) -> Vec<PlanEntry> {
        let timing = self.params.timing;
        let path = WcetPath::of(cur);
        let cands = candidates::scan(prog, cur);
        report.candidates_seen += cands.len() as u64;
        let mut plan: Vec<PlanEntry> = Vec::new();
        let mut seen = std::collections::HashSet::new();

        for c in cands.iter().rev() {
            // `r_i` must lie on the WCET path (Eq. 9 weighs by n^w).
            let Some(pi) = path.position(c.r_i) else {
                continue;
            };
            // `r_{i+1}`: the insertion anchor.
            let Some(&r_next) = path.refs().get(pi + 1) else {
                continue;
            };
            // `r_j`: the next use of the replaced block on the path.
            let Some(r_j) = path.next_use(cur, c.r_i, c.evicted) else {
                continue;
            };
            let pj = path.position(r_j).expect("next_use returns path refs");
            // No gain if `r_j` already always hits, and Eq. 9 forbids
            // prefetching for a prefetch.
            if !cur.classification(r_j).counts_as_miss() {
                continue;
            }
            let rj_instr = cur.acfg().reference(r_j).instr;
            if prog.instr(rj_instr).kind.is_prefetch() {
                continue;
            }
            // Effectiveness (Definition 10): Λ ≤ t_w(r_{i+1}, r_{j−1}).
            if pj == 0 || pj <= pi + 1 {
                continue;
            }
            let window = path.span_cycles(pi + 1, pj - 1);
            if self.params.check_effectiveness && timing.prefetch_latency > window {
                continue;
            }
            // Profit (Eqs. 6, 7, 9): mcost − pcost > 0. The prefetch's own
            // fetch is estimated at hit cost (it lands beside code that is
            // being fetched anyway); the end-to-end verifier catches the
            // rare cases where the estimate is optimistic.
            let mcost = cur.t_w(r_j) * cur.n_w(r_j);
            let pcost = timing.hit_cycles * cur.n_w(r_next) + timing.hit_cycles * cur.n_w(r_j);
            if mcost <= pcost {
                continue;
            }
            let anchor = cur.acfg().reference(r_next).instr;
            let entry = PlanEntry {
                anchor,
                target: rj_instr,
            };
            if seen.insert(entry) {
                plan.push(entry);
            }
        }
        plan
    }

    /// Inserts a prefetch immediately before `anchor`, relocating with the
    /// suffix anchored (paper `relocate_upwards`) and charging the
    /// relocation time to `reloc_ns`. Returns false for redundant
    /// insertions (an equivalent prefetch already sits there, or the
    /// target block is the anchor's own).
    fn apply(
        &self,
        prog: &mut Program,
        layout: &mut Layout,
        e: PlanEntry,
        reloc_ns: &mut u64,
    ) -> bool {
        let bytes = self.hierarchy.l1().block_bytes();
        let tb = layout.block_of(e.target, bytes);
        if tb == layout.block_of(e.anchor, bytes) {
            return false;
        }
        let bb = prog.block_of(e.anchor);
        let pos = prog.pos_in_block(e.anchor);
        // Redundancy window: the two instructions preceding the anchor.
        let instrs = prog.block(bb).instrs();
        for &before in &instrs[pos.saturating_sub(2)..pos] {
            if let InstrKind::Prefetch { target } = prog.instr(before).kind {
                if layout.block_of(target, bytes) == tb {
                    return false;
                }
            }
        }
        let anchor_addr = layout.addr(e.anchor);
        let t0 = std::time::Instant::now();
        prog.insert_instr(bb, pos, InstrKind::Prefetch { target: e.target })
            .expect("anchor block exists");
        *layout = Layout::anchored(prog, e.anchor, anchor_addr);
        *reloc_ns += t0.elapsed().as_nanos() as u64;
        true
    }
}

/// Outcome of one speculative single-candidate verification.
enum Spec {
    /// The insertion was redundant (`apply` returned false).
    Skipped,
    /// Applied and analysed; acceptance is decided by the consumer.
    /// Boxed: a candidate program + analysis dwarfs the other variants.
    Analyzed(Box<(Program, Layout, WcetAnalysis)>),
    /// The analysis errored; propagated only if consumed in plan order.
    Failed(AnalysisError),
}

/// Acceptance: `τ_w` must not grow and the WCET-path misses must shrink
/// (or `τ_w` strictly improves) — Problem 1's constraint and objective.
fn accepts(cur: &WcetAnalysis, new: &WcetAnalysis) -> bool {
    new.tau_w() <= cur.tau_w()
        && (new.wcet_misses() < cur.wcet_misses() || new.tau_w() < cur.tau_w())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn optimize(shape: Shape, config: CacheConfig) -> OptimizeResult {
        let p = shape.compile("t");
        Optimizer::new(config, OptimizeParams::default())
            .run(&p)
            .unwrap()
    }

    #[test]
    fn roomy_cache_needs_no_prefetching() {
        let r = optimize(Shape::code(16), CacheConfig::new(4, 32, 8192).unwrap());
        assert_eq!(r.report.inserted, 0);
        assert_eq!(r.report.wcet_after, r.report.wcet_before);
    }

    /// A compress-like skeleton in the paper's 1–10 % miss regime: an
    /// outer loop whose branchy body slightly exceeds the cache.
    fn compress_mini() -> Shape {
        Shape::seq([
            Shape::code(30),
            Shape::loop_(
                20,
                Shape::seq([
                    Shape::code(10),
                    Shape::if_else(2, Shape::code(16), Shape::code(8)),
                    Shape::if_then(2, Shape::code(12)),
                ]),
            ),
            Shape::code(14),
        ])
    }

    #[test]
    fn conflicting_loop_gets_prefetches_and_a_lower_wcet() {
        let r = optimize(compress_mini(), CacheConfig::new(2, 16, 128).unwrap());
        assert!(r.report.inserted > 0, "expected insertions: {:?}", r.report);
        assert!(
            r.report.wcet_after < r.report.wcet_before,
            "WCET should improve: {:?}",
            r.report
        );
        assert!(r.report.misses_after < r.report.misses_before);
        assert_eq!(r.program.prefetch_count() as u32, r.report.inserted);
    }

    #[test]
    fn wcet_never_increases_on_any_suite_like_shape() {
        let shapes = [
            Shape::loop_(10, Shape::if_else(2, Shape::code(30), Shape::code(10))),
            Shape::seq([
                Shape::code(20),
                Shape::loop_(8, Shape::code(50)),
                Shape::code(10),
            ]),
            Shape::loop_(5, Shape::loop_(6, Shape::code(25))),
        ];
        for (i, s) in shapes.into_iter().enumerate() {
            let r = optimize(s, CacheConfig::new(2, 16, 128).unwrap());
            assert!(
                r.report.wcet_after <= r.report.wcet_before,
                "shape {i} violated Theorem 1: {:?}",
                r.report
            );
        }
    }

    #[test]
    fn optimized_program_still_validates() {
        let r = optimize(compress_mini(), CacheConfig::new(2, 16, 128).unwrap());
        assert!(r.report.inserted > 0);
        assert!(r.program.validate().is_ok());
    }

    #[test]
    fn prefetch_cap_is_respected() {
        let p = compress_mini().compile("cap");
        let params = OptimizeParams {
            max_prefetches: 3,
            ..OptimizeParams::default()
        };
        let r = Optimizer::new(CacheConfig::new(2, 16, 128).unwrap(), params)
            .run(&p)
            .unwrap();
        assert!(r.report.inserted <= 3);
        assert!(r.report.inserted > 0, "cap should not prevent all work");
    }

    #[test]
    fn report_counts_are_consistent() {
        let r = optimize(compress_mini(), CacheConfig::new(2, 16, 128).unwrap());
        assert_eq!(r.report.misses_before, r.analysis_before.wcet_misses());
        assert_eq!(r.report.misses_after, r.analysis_after.wcet_misses());
        assert_eq!(r.report.wcet_before, r.analysis_before.tau_w());
        assert_eq!(r.report.wcet_after, r.analysis_after.tau_w());
    }

    fn run_with(shape: &Shape, incremental: bool, verify_workers: usize) -> OptimizeResult {
        let p = shape.clone().compile("det");
        let params = OptimizeParams {
            incremental,
            verify_workers,
            ..OptimizeParams::default()
        };
        Optimizer::new(CacheConfig::new(2, 16, 128).unwrap(), params)
            .run(&p)
            .unwrap()
    }

    #[test]
    fn parallel_verification_is_byte_identical_to_sequential() {
        for shape in [
            compress_mini(),
            Shape::loop_(10, Shape::if_else(2, Shape::code(30), Shape::code(10))),
        ] {
            let seq = run_with(&shape, true, 1);
            for workers in [0, 2, 4, 7] {
                let par = run_with(&shape, true, workers);
                assert_eq!(
                    par.program, seq.program,
                    "workers={workers} produced a different program"
                );
                assert!(
                    par.report.decisions_eq(&seq.report),
                    "workers={workers}: {:?} vs {:?}",
                    par.report,
                    seq.report
                );
            }
        }
    }

    #[test]
    fn incremental_analysis_changes_no_decision() {
        let shape = compress_mini();
        let inc = run_with(&shape, true, 1);
        let full = run_with(&shape, false, 1);
        assert_eq!(inc.program, full.program);
        assert!(inc.report.decisions_eq(&full.report));
        assert!(inc.report.profile.incremental_analyses > 0);
        assert_eq!(full.report.profile.incremental_analyses, 0);
    }

    #[test]
    fn l1_only_hierarchy_optimizer_matches_single_level() {
        let p = compress_mini().compile("h");
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let single = Optimizer::new(config, OptimizeParams::default())
            .run(&p)
            .unwrap();
        let hier =
            Optimizer::new_hierarchy(HierarchyConfig::l1_only(config), OptimizeParams::default())
                .run(&p)
                .unwrap();
        assert_eq!(single.program, hier.program);
        assert!(single.report.decisions_eq(&hier.report));
    }

    #[test]
    fn l2_absorbing_misses_suppresses_unprofitable_prefetches() {
        let p = compress_mini().compile("h2");
        let l1 = CacheConfig::new(2, 16, 128).unwrap();
        let l2 = CacheConfig::new(4, 16, 4096).unwrap();
        let single = Optimizer::new(l1, OptimizeParams::default())
            .run(&p)
            .unwrap();
        assert!(single.report.inserted > 0);
        // A large L2 at 2-cycle service time makes the saved miss worth
        // about as much as the prefetch's own cost (Eq. 9's mcost uses
        // t_w = l2_hit_cycles for L1-miss-L2-hit references), so the
        // hierarchy-aware optimizer inserts strictly less.
        let params = OptimizeParams {
            timing: MemTiming::default().with_l2_hit(2),
            ..OptimizeParams::default()
        };
        let hier = Optimizer::new_hierarchy(HierarchyConfig::two_level(l1, l2).unwrap(), params)
            .run(&p)
            .unwrap();
        assert!(
            hier.report.inserted < single.report.inserted,
            "L2 should suppress insertions: {} vs {}",
            hier.report.inserted,
            single.report.inserted
        );
        // Theorem 1 holds under the hierarchy too.
        assert!(hier.report.wcet_after <= hier.report.wcet_before);
        assert!(crate::verify::check_hierarchy(
            &p,
            &hier.program,
            hier.analysis_after.layout().clone(),
            &HierarchyConfig::two_level(l1, l2).unwrap(),
            &params.timing,
        )
        .unwrap()
        .holds());
    }

    #[test]
    fn profile_accounts_for_every_analysis() {
        let r = optimize(compress_mini(), CacheConfig::new(2, 16, 128).unwrap());
        let prof = r.report.profile;
        // The initial analysis plus at least one per round.
        assert!(prof.full_analyses + prof.incremental_analyses > u64::from(r.report.rounds));
        assert!(prof.nodes_reanalyzed <= prof.nodes_total);
        assert!(prof.fixpoint_evals > 0);
    }
}
