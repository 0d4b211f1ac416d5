//! Theorem 1 verification and prefetch equivalence.
//!
//! Theorem 1 (Supplement S.2): Algorithm 3 produces a program `p' ≡ p`
//! with `τ_w(p') ≤ τ_w(p)` when memory operations stay in program order.
//! [`check`] re-proves both halves for any concrete pair of programs by
//! re-running the full WCET analysis — the experiment harness asserts it
//! over all 2664 use cases.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming};
use rtpf_isa::{InstrKind, Layout, Program};
use rtpf_wcet::{AnalysisError, WcetAnalysis};

/// Result of verifying Theorem 1 on a program pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TheoremReport {
    /// `τ_w` of the original program.
    pub tau_before: u64,
    /// `τ_w` of the transformed program.
    pub tau_after: u64,
    /// Whether the programs are prefetch-equivalent (Definition 5).
    pub equivalent: bool,
    /// Whether `τ_w(p') ≤ τ_w(p)`.
    pub wcet_preserved: bool,
}

impl TheoremReport {
    /// Whether both halves of Theorem 1 hold.
    pub fn holds(&self) -> bool {
        self.equivalent && self.wcet_preserved
    }
}

/// Definition 5: `p ≡ p'` iff the programs are indistinguishable except
/// for prefetch instructions — same non-prefetch instruction sequence per
/// basic block, same CFG, same loop bounds.
pub fn prefetch_equivalent(p: &Program, q: &Program) -> bool {
    if p.block_count() != q.block_count() || p.entry() != q.entry() {
        return false;
    }
    for b in p.block_ids() {
        // CFG must match.
        let ps: Vec<_> = p.succs(b).iter().map(|&(s, _)| s).collect();
        let qs: Vec<_> = q.succs(b).iter().map(|&(s, _)| s).collect();
        if ps != qs || p.loop_bound(b) != q.loop_bound(b) {
            return false;
        }
        // Non-prefetch payloads must match in order.
        let strip = |prog: &Program, bb| {
            prog.block(bb)
                .instrs()
                .iter()
                .map(|&i| prog.instr(i).kind)
                .filter(|k| !k.is_prefetch())
                .collect::<Vec<InstrKind>>()
        };
        if strip(p, b) != strip(q, b) {
            return false;
        }
    }
    true
}

/// Re-proves Theorem 1 for the pair `(original, optimized)` by full
/// re-analysis under each program's own layout.
///
/// # Errors
///
/// Fails if either program cannot be analysed.
pub fn check(
    original: &Program,
    optimized: &Program,
    optimized_layout: Layout,
    config: &CacheConfig,
    timing: &MemTiming,
) -> Result<TheoremReport, AnalysisError> {
    check_hierarchy(
        original,
        optimized,
        optimized_layout,
        &HierarchyConfig::l1_only(*config),
        timing,
    )
}

/// [`check`] over a full cache hierarchy: both re-analyses run
/// hierarchy-aware, so `τ_w` prices L1-miss-L2-hits at the L2 service
/// time on both sides of the comparison.
///
/// # Errors
///
/// Fails if either program cannot be analysed.
pub fn check_hierarchy(
    original: &Program,
    optimized: &Program,
    optimized_layout: Layout,
    hierarchy: &HierarchyConfig,
    timing: &MemTiming,
) -> Result<TheoremReport, AnalysisError> {
    let refine = rtpf_cache::RefineConfig::default();
    let a =
        WcetAnalysis::analyze_hierarchy(original, Layout::of(original), hierarchy, timing, refine)?;
    let b =
        WcetAnalysis::analyze_hierarchy(optimized, optimized_layout, hierarchy, timing, refine)?;
    let tau_before = a.tau_w();
    let tau_after = b.tau_w();
    Ok(TheoremReport {
        tau_before,
        tau_after,
        equivalent: prefetch_equivalent(original, optimized),
        wcet_preserved: tau_after <= tau_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{OptimizeParams, Optimizer};
    use rtpf_isa::shape::Shape;

    #[test]
    fn equivalence_tolerates_prefetches_only() {
        let p = Shape::seq([Shape::code(2), Shape::loop_(5, Shape::code(8))]).compile("e");
        let mut q = p.clone();
        let anchor = q.block(q.entry()).instrs()[0];
        q.push_instr(q.entry(), InstrKind::Prefetch { target: anchor })
            .unwrap();
        assert!(prefetch_equivalent(&p, &q));
        assert!(prefetch_equivalent(&q, &p));
        assert!(prefetch_equivalent(&p, &p));
    }

    #[test]
    fn equivalence_rejects_real_changes() {
        let p = Shape::code(5).compile("a");
        let q = Shape::code(6).compile("a");
        assert!(!prefetch_equivalent(&p, &q));
        let r = Shape::if_else(1, Shape::code(2), Shape::code(2)).compile("a");
        assert!(!prefetch_equivalent(&p, &r));
    }

    #[test]
    fn equivalence_rejects_changed_loop_bounds() {
        let p = Shape::loop_(5, Shape::code(4)).compile("a");
        let q = Shape::loop_(6, Shape::code(4)).compile("a");
        assert!(!prefetch_equivalent(&p, &q));
    }

    #[test]
    fn theorem_holds_on_an_optimized_program() {
        let p = Shape::seq([
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
        .compile("t");
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let r = Optimizer::new(config, OptimizeParams::default())
            .run(&p)
            .unwrap();
        let report = check(
            &p,
            &r.program,
            r.analysis_after.layout().clone(),
            &config,
            &MemTiming::default(),
        )
        .unwrap();
        assert!(
            r.report.inserted > 0,
            "the scenario must exercise insertion"
        );
        assert!(report.holds(), "{report:?}");
        assert!(report.tau_after <= report.tau_before);
    }
}
