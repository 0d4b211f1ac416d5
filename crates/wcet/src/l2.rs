//! Second-level classification: the Hardy & Puaut filtered must/may pass.
//!
//! Runs as a deterministic sequential post-pass after the L1 fixpoint and
//! its refinement stage, so the *refined* L1 classification feeds each
//! reference's [`CacheAccessClassification`]: an L1 always-hit never
//! reaches L2 (`Never`), an L1 always-miss always does (`Always`), and an
//! unclassified L1 outcome gives the `Uncertain` filter, whose sound L2
//! update is the join of the state with and without the access applied
//! (see [`rtpf_cache::classify_update_l2`]).
//!
//! Software-prefetch targets take the `Uncertain` update unconditionally:
//! whether the prefetched block accesses L2 depends on its (unclassified)
//! L1 residency at the prefetch point, so the join-update is the only
//! sound choice.
//!
//! The pass is recomputed from scratch on every
//! [`finish`](crate::analysis::WcetAnalysis), which keeps incremental and
//! full analyses bit-identical for free — the inputs (refined L1 classes,
//! node signatures) are already proven identical by the L1 machinery.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rtpf_cache::{
    classify_update_l2, join_pairs_into, no_info, CacheAccessClassification, CacheConfig,
    Classification, StatePair,
};

use crate::acfg::Acfg;
use crate::error::AnalysisError;
use crate::memo::{NodeSig, Topology};
use crate::vivu::{NodeId, VivuGraph};

/// Per-reference outcome of the L2 pass.
#[derive(Clone, Debug, Default)]
pub(crate) struct L2Result {
    /// L2 classification per reference. For a `Never`-filtered reference
    /// this is [`Classification::Unclassified`] — no claim is made, and
    /// the value is never consulted (the L1 always-hit fixes the cost).
    /// For `Uncertain`-filtered references the classification holds
    /// conditionally, on the executions where the access reaches L2.
    pub class: Vec<Classification>,
    /// The L1-outcome filter each reference's L2 update ran under.
    pub cac: Vec<CacheAccessClassification>,
}

/// Safety guard against a broken transfer/join pair, mirroring the L1
/// fixpoint's per-component budget.
const EVALS_PER_NODE: usize = 1_000_000;

/// Classifies every reference against the L2 geometry, with updates
/// filtered by the refined L1 classification.
///
/// A worklist fixpoint over the lineage's dataflow [`Topology`] (the VIVU
/// graph with its back edges restored), processed in topological-position
/// priority order. Uncomputed predecessors are ignored (the optimistic
/// start: absent constraints for the must intersection, absent blocks for
/// the may union); iteration repairs them.
pub(crate) fn classify_l2(
    vivu: &VivuGraph,
    top: &Topology,
    acfg: &Acfg,
    l2: &CacheConfig,
    l1_class: &[Classification],
    sigs: &[NodeSig],
) -> Result<L2Result, AnalysisError> {
    let n = vivu.len();
    let cac: Vec<CacheAccessClassification> = l1_class
        .iter()
        .map(|&c| CacheAccessClassification::from_l1(c))
        .collect();

    let mut pos = vec![0usize; n];
    for (k, nid) in vivu.topo().iter().enumerate() {
        pos[nid.index()] = k;
    }

    let seed = no_info(l2);
    let mut outs: Vec<Option<Arc<StatePair>>> = vec![None; n];
    let mut work: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(n);
    let mut pending = vec![false; n];
    for &nid in vivu.topo() {
        work.push(Reverse((pos[nid.index()], nid.index())));
        pending[nid.index()] = true;
    }

    let mut ins: Vec<Arc<StatePair>> = Vec::new();
    let mut cursors: Vec<usize> = Vec::new();
    let mut scratch = seed.clone();
    let limit = n.saturating_add(1).saturating_mul(EVALS_PER_NODE);
    let mut evals = 0usize;

    while let Some(Reverse((_, i))) = work.pop() {
        pending[i] = false;
        evals += 1;
        if evals > limit {
            return Err(AnalysisError::FixpointDiverged { iterations: evals });
        }

        ins.clear();
        ins.extend(
            top.preds(i)
                .iter()
                .filter_map(|&p| outs[p as usize].clone()),
        );
        join_pairs_into(&mut scratch, &ins, &mut cursors);

        let mut state = scratch.clone();
        transfer(
            &mut state,
            &sigs[i],
            acfg.refs_of_node(NodeId(i as u32)),
            &cac,
            None,
        );

        let changed = match &outs[i] {
            Some(prev) => **prev != state,
            None => true,
        };
        if changed {
            outs[i] = Some(Arc::new(state));
            for &s in top.succs(i) {
                let s = s as usize;
                if !pending[s] {
                    pending[s] = true;
                    work.push(Reverse((pos[s], s)));
                }
            }
        }
    }

    // Converged: one recording pass computes each node's final in-state
    // from the settled outs and classifies its references against it.
    let mut class = vec![Classification::Unclassified; acfg.len()];
    for &nid in vivu.topo() {
        let i = nid.index();
        ins.clear();
        ins.extend(
            top.preds(i)
                .iter()
                .filter_map(|&p| outs[p as usize].clone()),
        );
        join_pairs_into(&mut scratch, &ins, &mut cursors);
        let mut state = scratch.clone();
        transfer(
            &mut state,
            &sigs[i],
            acfg.refs_of_node(nid),
            &cac,
            Some(&mut class),
        );
    }

    Ok(L2Result { class, cac })
}

/// Walks one node's references through the filtered L2 update, optionally
/// recording per-reference classifications.
fn transfer(
    state: &mut StatePair,
    sig: &NodeSig,
    refs: &[crate::acfg::RefId],
    cac: &[CacheAccessClassification],
    mut record: Option<&mut Vec<Classification>>,
) {
    debug_assert_eq!(sig.len(), refs.len());
    for (&(own, pf), &rid) in sig.iter().zip(refs) {
        let class = classify_update_l2(state, own, cac[rid.index()]);
        if let Some(out) = record.as_deref_mut() {
            out[rid.index()] = class;
        }
        if let Some(target) = pf {
            // The target reaches L2 iff it is not L1-resident at the
            // prefetch point, which no level-1 fact pins down: join-update.
            classify_update_l2(state, target, CacheAccessClassification::Uncertain);
        }
    }
}
