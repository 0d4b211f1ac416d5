//! First-miss refinement via persistence analysis.
//!
//! The must analysis charges a full miss for every execution of an
//! unclassified reference — even when the block, once loaded, can never
//! be evicted again (e.g. code reached through only one arm of a
//! conditional inside a loop: the must join drops it, but nothing ever
//! displaces it). The persistence analysis ([`PersistenceState`]) proves
//! exactly that property, turning such references into **first miss**:
//! one miss per run, hits afterwards.
//!
//! This module runs the persistence fixpoint over the VIVU graph and
//! reports how much of the WCET bound the refinement could recover. It is
//! a *diagnostic* refinement: `τ_w` itself stays the (sound, coarser)
//! must-based bound, so every Theorem 1 comparison in the optimizer is
//! unaffected.

use rtpf_cache::PersistenceState;
use rtpf_isa::{InstrKind, Program};

use crate::analysis::WcetAnalysis;
use crate::vivu::NodeId;

/// Outcome of the first-miss refinement.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PersistenceReport {
    /// References charged as misses by the must analysis that are in fact
    /// persistent (first-miss-only).
    pub first_miss_refs: usize,
    /// WCET cycles the refinement would recover:
    /// `Σ (n_w − 1) × (miss − hit)` over those references.
    pub recoverable_cycles: u64,
    /// Fixpoint iterations performed.
    pub iterations: usize,
}

/// Runs the persistence fixpoint and measures the first-miss slack in the
/// current bound.
pub fn persistence_report(p: &Program, a: &WcetAnalysis) -> PersistenceReport {
    let vivu = a.vivu();
    let acfg = a.acfg();
    let config = a.config();
    let timing = a.timing();
    let n = vivu.len();
    let empty = PersistenceState::new(config);
    let mut out: Vec<PersistenceState> = vec![empty.clone(); n];
    let mut computed = vec![false; n];

    let mut all_preds: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            vivu.preds(NodeId(i as u32))
                .iter()
                .map(|p| p.index())
                .collect::<Vec<_>>()
        })
        .collect();
    for &(latch, header) in vivu.back_edges() {
        let hp = &mut all_preds[header.index()];
        if !hp.contains(&latch.index()) {
            hp.push(latch.index());
        }
    }

    let bytes = config.block_bytes();
    let transfer = |st: &mut PersistenceState, node: NodeId| {
        for &r in acfg.refs_of_node(node) {
            let reference = acfg.reference(r);
            st.update(a.layout().block_of(reference.instr, bytes));
            if let InstrKind::Prefetch { target } = p.instr(reference.instr).kind {
                st.update(a.layout().block_of(target, bytes));
            }
        }
    };

    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for &nid in vivu.topo() {
            let i = nid.index();
            let ready: Vec<usize> = all_preds[i]
                .iter()
                .copied()
                .filter(|&pr| computed[pr])
                .collect();
            let mut st = match ready.split_first() {
                None => empty.clone(),
                Some((&first, rest)) => {
                    let mut acc = out[first].clone();
                    for &pr in rest {
                        acc = acc.join(&out[pr]);
                    }
                    acc
                }
            };
            transfer(&mut st, nid);
            if !computed[i] || st != out[i] {
                out[i] = st;
                computed[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        assert!(iterations < 1000, "persistence fixpoint diverged");
    }

    // Measure: for each WCET-charged miss whose block is persistent at the
    // reference, all but the first execution would hit.
    let gain = timing.miss_cycles - timing.hit_cycles;
    let mut report = PersistenceReport {
        iterations,
        ..PersistenceReport::default()
    };
    for &nid in vivu.topo() {
        let i = nid.index();
        let mut st = match all_preds[i].split_first() {
            None => empty.clone(),
            Some((&first, rest)) => {
                let mut acc = out[first].clone();
                for &pr in rest {
                    acc = acc.join(&out[pr]);
                }
                acc
            }
        };
        for &r in acfg.refs_of_node(nid) {
            let reference = acfg.reference(r);
            let block = a.layout().block_of(reference.instr, bytes);
            if a.classification(r).counts_as_miss() && a.n_w(r) > 1 && st.is_persistent(block) {
                report.first_miss_refs += 1;
                report.recoverable_cycles += (a.n_w(r) - 1) * gain;
            }
            st.update(block);
            if let InstrKind::Prefetch { target } = p.instr(reference.instr).kind {
                st.update(a.layout().block_of(target, bytes));
            }
        }
    }
    report
}

/// The first-miss-refined WCET bound: `τ_w` minus the recoverable slack.
///
/// Still a sound bound — every recovered cycle corresponds to an
/// execution of a persistent block that physically cannot miss twice —
/// but computed *outside* the optimizer loop, so Theorem 1 comparisons
/// (which use the plain must-based `τ_w` on both sides) are unaffected.
pub fn tau_w_first_miss(p: &Program, a: &WcetAnalysis) -> u64 {
    a.tau_w() - persistence_report(p, a).recoverable_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_cache::{CacheConfig, MemTiming};
    use rtpf_isa::shape::Shape;

    fn analyze(shape: Shape, config: CacheConfig) -> (Program, WcetAnalysis) {
        let p = shape.compile("t");
        let a = WcetAnalysis::analyze(&p, &config, &MemTiming::default()).unwrap();
        (p, a)
    }

    #[test]
    fn straight_line_has_no_first_miss_slack() {
        // Cold misses execute once (n_w = 1): nothing to recover.
        let (p, a) = analyze(Shape::code(32), CacheConfig::new(2, 16, 256).unwrap());
        let r = persistence_report(&p, &a);
        assert_eq!(r.first_miss_refs, 0);
        assert_eq!(r.recoverable_cycles, 0);
    }

    #[test]
    fn one_sided_arm_in_a_roomy_cache_is_first_miss() {
        // A loop whose arms both fit the cache: the must join at the loop
        // header intersects the two latch states and keeps losing the arm
        // blocks, but nothing ever evicts them — persistence proves the
        // misses are first-only.
        let (p, a) = analyze(
            Shape::loop_(10, Shape::if_else(1, Shape::code(12), Shape::code(12))),
            CacheConfig::new(4, 16, 1024).unwrap(),
        );
        let r = persistence_report(&p, &a);
        assert!(
            r.first_miss_refs > 0,
            "expected first-miss refinement opportunities: {r:?}"
        );
        assert!(r.recoverable_cycles > 0);
        // Recoverable slack must stay below the bound itself.
        assert!(r.recoverable_cycles < a.tau_w());
    }

    #[test]
    fn refined_bound_is_tighter_but_positive() {
        let (p, a) = analyze(
            Shape::loop_(10, Shape::if_else(1, Shape::code(12), Shape::code(12))),
            CacheConfig::new(4, 16, 1024).unwrap(),
        );
        let refined = tau_w_first_miss(&p, &a);
        assert!(refined < a.tau_w());
        // Every reference still costs at least a hit.
        assert!(refined >= a.wcet_accesses());
    }

    #[test]
    fn thrashing_loop_offers_no_persistence() {
        // The body far exceeds the cache: everything is genuinely evicted
        // every iteration — persistence must not claim otherwise.
        let (p, a) = analyze(
            Shape::loop_(10, Shape::code(80)),
            CacheConfig::new(1, 16, 64).unwrap(),
        );
        let r = persistence_report(&p, &a);
        assert_eq!(r.first_miss_refs, 0, "{r:?}");
    }
}
