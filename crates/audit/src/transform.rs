//! Transform audit: post-hoc re-verification of an optimized program.
//!
//! The optimizer promises (Theorem 1) a prefetch-equivalent program whose
//! memory WCET never increases, and selects each prefetch by the paper's
//! joint criterion: effective (Definition 10 — the latency fits the slack
//! between issue and next use), relocation-safe (Lemma 2 — already-placed
//! code keeps its addresses), and profitable (Lemma 1 — saved miss cycles
//! exceed the prefetch's own cost). This pass re-derives every one of
//! those facts from the *output* analysis, independent of the optimizer's
//! internal bookkeeping.

use rtpf_core::{check, WcetPath};
use rtpf_isa::{InstrKind, Layout, Program};
use rtpf_wcet::{AnalysisError, WcetAnalysis};

use crate::diag::{Code, DiagnosticSink, Span};

/// Aggregate outcome of one transform audit.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransformSummary {
    /// Prefetch instructions examined in the optimized program.
    pub prefetches: usize,
    /// `τ_w` of the original program.
    pub tau_before: u64,
    /// `τ_w` of the optimized program.
    pub tau_after: u64,
}

/// Audits `optimized` (analysed as `after`) against `original`.
///
/// `after` must be the analysis the optimizer produced — its layout is the
/// anchored layout the relocation model defines, and its classification is
/// what Theorem 1's `τ_w(p') ≤ τ_w(p)` was proved against.
///
/// # Errors
///
/// Fails when the original program cannot be analysed.
pub fn audit_transform(
    original: &Program,
    optimized: &Program,
    after: &WcetAnalysis,
    sink: &mut DiagnosticSink,
) -> Result<TransformSummary, AnalysisError> {
    let name = optimized.name().to_string();
    let config = after.config();
    let timing = *after.timing();

    // Theorem 1, both halves, by independent re-analysis.
    let report = check(original, optimized, after.layout().clone(), config, &timing)?;
    if !report.equivalent {
        sink.report(
            Code::NotEquivalent,
            Span::program(&name),
            "optimized program is not prefetch-equivalent to its input (Definition 5)".to_string(),
            Some("the transform may only insert prefetch instructions".into()),
        );
    }
    if !report.wcet_preserved {
        sink.report(
            Code::WcetRegression,
            Span::program(&name),
            format!(
                "τ_w regressed from {} to {} cycles (Theorem 1 violated)",
                report.tau_before, report.tau_after
            ),
            None,
        );
    }

    // Lemma 2 (relocation safety): every instruction of the original
    // program keeps the address the optimizer's suffix-anchored layout
    // promises — shifted down by one slot per prefetch inserted *before*
    // it in layout order, never up, and never reordered.
    audit_relocation(original, optimized, after.layout(), sink);

    // Per-prefetch re-checks against the final analysis.
    let path = WcetPath::of(after);
    let mut prefetches = 0usize;
    for b in optimized.block_ids() {
        for (pos, &i) in optimized.block(b).instrs().iter().enumerate() {
            let InstrKind::Prefetch { target } = optimized.instr(i).kind else {
                continue;
            };
            prefetches += 1;
            let span = Span::instr(&name, b, i);
            let tb = after.layout().block_of(target, config.block_bytes());
            // A prefetch instruction occurs in many VIVU contexts; the
            // optimizer selected it because it pays off in at least one.
            // Later rounds legitimately shift the WCET path, so a context
            // that no longer benefits is not a defect — only a prefetch
            // that benefits in *no* on-path context is worth flagging.
            // (The aggregate bound itself is covered by RTPF031.)
            let mut on_path = 0u32;
            let mut effective = 0u32; // Definition 10 holds in this context
            let mut profitable = 0u32; // next use classifies as a hit (Lemma 1)
            for rf in after.acfg().refs() {
                if rf.instr != i {
                    continue;
                }
                let Some(pi) = path.position(rf.id) else {
                    continue;
                };
                on_path += 1;
                let Some(r_j) = path.next_use(after, rf.id, tb) else {
                    continue;
                };
                let pj = path.position(r_j).expect("next_use returns path refs");
                // Definition 10: the prefetch latency must fit the slack
                // of the references strictly between issue and use.
                let window = if pj > pi + 1 {
                    path.span_cycles(pi + 1, pj - 1)
                } else {
                    0
                };
                if timing.prefetch_latency > window {
                    continue;
                }
                effective += 1;
                if after.always_hits(r_j) {
                    profitable += 1;
                }
            }
            if on_path > 0 && effective == 0 {
                sink.report(
                    Code::IneffectivePrefetch,
                    span.clone(),
                    format!(
                        "prefetch at {b}[{pos}]: in all {on_path} on-path context(s), {tb} is \
                         either never used again or the {}-cycle latency exceeds the window \
                         before its next use (Definition 10)",
                        timing.prefetch_latency
                    ),
                    None,
                );
            } else if effective > 0 && profitable == 0 {
                sink.report(
                    Code::UnprofitablePrefetch,
                    span.clone(),
                    format!(
                        "prefetch at {b}[{pos}]: the next use of {tb} still classifies as a \
                         miss in every effective on-path context, so the prefetch pays its \
                         cost for no gain (Lemma 1)"
                    ),
                    None,
                );
            }
            if on_path == 0 {
                sink.report(
                    Code::OffPathPrefetch,
                    span,
                    format!("prefetch at {b}[{pos}] lies off the final WCET path in every context"),
                    Some("harmless for the bound; earlier rounds' paths may have moved".into()),
                );
            }
        }
    }

    Ok(TransformSummary {
        prefetches,
        tau_before: report.tau_before,
        tau_after: report.tau_after,
    })
}

/// Lemma 2: under the suffix-anchored relocation model, an original
/// instruction may only shift *down* (by 4 bytes per prefetch placed
/// before it), and originally adjacent instructions must stay in order.
fn audit_relocation(
    original: &Program,
    optimized: &Program,
    after_layout: &Layout,
    sink: &mut DiagnosticSink,
) {
    let name = optimized.name().to_string();
    let before = Layout::of(original);
    let inserted = optimized
        .instr_count()
        .saturating_sub(original.instr_count()) as u64;
    let max_shift = inserted * rtpf_isa::INSTR_BYTES;
    let mut prev: Option<(rtpf_isa::InstrId, u64)> = None;
    for &b in original.layout_order() {
        for &i in original.block(b).instrs() {
            if i.index() >= optimized.instr_count() {
                continue; // not comparable; equivalence check already failed
            }
            let was = before.addr(i);
            let now = after_layout.addr(i);
            if now > was || was - now > max_shift {
                sink.report(
                    Code::RelocationUnsafe,
                    Span::instr(&name, b, i),
                    format!(
                        "instruction {i} moved from {was:#x} to {now:#x}, outside the \
                         downward relocation window of {max_shift} bytes (Lemma 2)"
                    ),
                    None,
                );
            }
            if let Some((pi, pnow)) = prev {
                if now <= pnow {
                    sink.report(
                        Code::RelocationUnsafe,
                        Span::instr(&name, b, i),
                        format!(
                            "instruction {i} ({now:#x}) no longer follows {pi} ({pnow:#x}): \
                             relocation reordered original code (Lemma 2)"
                        ),
                        None,
                    );
                }
            }
            prev = Some((i, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{DiagnosticSink, SeverityConfig};
    use rtpf_cache::{CacheConfig, MemTiming};
    use rtpf_core::{OptimizeParams, Optimizer};
    use rtpf_isa::shape::Shape;

    fn optimizable() -> Program {
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
        .compile("t")
    }

    #[test]
    fn optimizer_output_audits_clean_of_denials() {
        let p = optimizable();
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let r = Optimizer::new(config, OptimizeParams::default())
            .run(&p)
            .unwrap();
        assert!(r.report.inserted > 0, "scenario must insert prefetches");
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_transform(&p, &r.program, &r.analysis_after, &mut sink).unwrap();
        assert_eq!(s.prefetches as u32, r.report.inserted);
        assert!(s.tau_after <= s.tau_before);
        assert!(!sink.has_denials(), "{}", sink.render_text());
    }

    #[test]
    fn non_equivalent_pair_fires_rtpf030() {
        let p = optimizable();
        let config = CacheConfig::new(2, 16, 128).unwrap();
        let timing = MemTiming::default();
        // "Optimize" by analysing a *different* program.
        let q = Shape::code(40).compile("t");
        let a = WcetAnalysis::analyze(&q, &config, &timing).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let _ = audit_transform(&p, &q, &a, &mut sink).unwrap();
        assert!(sink
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::NotEquivalent));
        assert!(sink.has_denials());
    }

    #[test]
    fn hand_inserted_late_prefetch_fires_rtpf032() {
        // A prefetch placed immediately before its target's use leaves no
        // window to hide the latency: Definition 10 must flag it.
        let p = Shape::seq([Shape::code(4), Shape::code(4)]).compile("late");
        let mut q = p.clone();
        let entry = q.entry();
        let last = *q.block(entry).instrs().last().unwrap();
        let n = q.block(entry).len();
        q.insert_instr(entry, n - 1, InstrKind::Prefetch { target: last })
            .unwrap();
        let config = CacheConfig::new(2, 16, 512).unwrap();
        let timing = MemTiming::default();
        let a = WcetAnalysis::analyze(&q, &config, &timing).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_transform(&p, &q, &a, &mut sink).unwrap();
        assert_eq!(s.prefetches, 1);
        let fired: Vec<_> = sink.diagnostics().iter().map(|d| d.code).collect();
        assert!(
            fired.contains(&Code::IneffectivePrefetch) || fired.contains(&Code::OffPathPrefetch),
            "{}",
            sink.render_text()
        );
    }
}
