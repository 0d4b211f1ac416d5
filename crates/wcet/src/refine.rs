//! Per-set exact refinement behind the classify fixpoint (DESIGN.md §12).
//!
//! For every cache set holding a reference the cheap competitiveness-based
//! FIFO/tree-PLRU analysis left unclassified, this pass runs a focused
//! finite-state exploration over the VIVU context graph (with the loop
//! back edges restored): the least fixpoint of *sets of concrete per-set
//! policy states* ([`SetState`] — the exact FIFO insertion queue / PLRU
//! tree bits projected onto that one cache set), seeded cold at
//! predecessor-less nodes, unioned (and deduplicated) at join points, and
//! pushed through each node's touched-block signature exactly as the
//! concrete cache would execute it. State sets are sorted vectors of ids
//! into a per-exploration table of distinct states, so joins and the
//! fixpoint's change test compare integers (DESIGN.md §12).
//!
//! The explored state sets over-approximate every state any bounded
//! concrete walk can reach at a node, so the verdict is sound: an
//! unclassified reference that hits in **every** explored in-state is
//! upgraded to always-hit, one that misses in every state to always-miss,
//! anything mixed stays unclassified. A per-node state budget
//! ([`RefineConfig::max_states`]) bounds the exploration; exceeding it
//! abandons the *whole* set — concluding from a partial exploration would
//! be unsound — and keeps the cheap classification for its references.
//!
//! The per-set explorations are independent — each reads only the shared
//! graph and touches only references mapping to its own set — and run
//! one after another in sorted set order on the analysis's own thread.
//!
//! The pass runs deterministically after every classification (full and
//! incremental alike), so an incremental re-analysis still produces
//! bit-identical results to a from-scratch run.

use rtpf_cache::{CacheConfig, Classification, RefineConfig, RefineMark, SetState};
use rtpf_isa::MemBlockId;

use crate::acfg::Acfg;
use crate::memo::{MixMap, NodeSig, Topology};
use crate::vivu::{NodeId, VivuGraph};

/// Outcome counters of one refinement pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RefineStats {
    /// Cache sets with at least one unclassified reference (exploration
    /// targets).
    pub sets_targeted: u32,
    /// Targeted sets abandoned because a node's state set outgrew the
    /// budget; their references keep the cheap classification.
    pub sets_exhausted: u32,
    /// References upgraded unclassified → always-hit.
    pub refined_hits: u32,
    /// References upgraded unclassified → always-miss.
    pub refined_misses: u32,
}

/// Read-only context shared by every per-set exploration.
struct Ctx<'a> {
    vivu: &'a VivuGraph,
    /// Snapshot of the cheap classification the upgrades are judged
    /// against; a set's exploration only reads entries of its own set.
    class: &'a [Classification],
    /// VIVU adjacency with the loop back edges restored: the exploration
    /// must cover arbitrarily many iterations, not just the peeled DAG.
    top: &'a Topology,
    policy: rtpf_cache::ReplacementPolicy,
    assoc: u32,
    budget: usize,
}

/// One targeted set's slice of the graph, bucketed once per pass: the
/// nodes touching the set, in node order, each with its same-set accesses
/// in the order the concrete walk executes them.
#[derive(Default)]
struct Bucket {
    /// `(node, start, end)`: the node's accesses are `blocks[start..end]`.
    nodes: Vec<(u32, u32, u32)>,
    /// `(block, reference index)`; no reference for a prefetch target.
    blocks: Vec<(u64, Option<u32>)>,
}

/// What one set's exploration concluded. Applied to `class`/`marks`
/// sequentially, in sorted set order.
#[derive(Default)]
struct SetOutcome {
    exhausted: bool,
    /// `(reference index, upgraded classification)` pairs.
    refined: Vec<(usize, Classification)>,
    /// References examined without enough evidence to upgrade.
    examined: Vec<usize>,
}

/// Exploration scratch, node-indexed and reused across sets.
///
/// State sets hold interned ids: each distinct [`SetState`] of the
/// current exploration is stored once (`states[id]`), so joins and the
/// changed test are integer merges and compares on sorted `u32` vectors.
#[derive(Default)]
struct Scratch {
    states: Vec<SetState>,
    ids: MixMap<SetState, u32>,
    out: Vec<Vec<u32>>,
    pending: Vec<bool>,
    /// Each node's `blocks` range in the current bucket (empty if the node
    /// does not touch the set).
    span: Vec<(u32, u32)>,
    /// The node whose out-set each node's equals: itself, or — for a node
    /// that neither touches the set nor has other than one forward
    /// predecessor — that predecessor's representative.
    rep: Vec<u32>,
    ins: Vec<u32>,
    /// `(all hit, all miss)` per reference of the node under verdict.
    unanimous: Vec<(bool, bool)>,
}

/// The id of `st`, storing it on first sight.
fn intern(states: &mut Vec<SetState>, ids: &mut MixMap<SetState, u32>, st: SetState) -> u32 {
    *ids.entry(st).or_insert_with_key(|st| {
        states.push(st.clone());
        states.len() as u32 - 1
    })
}

/// Fills `ins` with the sorted union of the out-sets of `preds` — the cold
/// state (id 0) when there are none.
fn join_into(ins: &mut Vec<u32>, out: &[Vec<u32>], rep: &[u32], preds: &[u32]) {
    ins.clear();
    let set = |p: u32| &out[rep[p as usize] as usize][..];
    match *preds {
        [] => ins.push(0),
        [p] => ins.extend_from_slice(set(p)),
        [a, b] => {
            // The common two-way join: one linear merge.
            let (mut x, mut y) = (set(a), set(b));
            while let (Some(&u), Some(&v)) = (x.first(), y.first()) {
                ins.push(u.min(v));
                x = &x[usize::from(u <= v)..];
                y = &y[usize::from(v <= u)..];
            }
            ins.extend_from_slice(x);
            ins.extend_from_slice(y);
        }
        _ => {
            for &p in preds {
                ins.extend_from_slice(set(p));
            }
            ins.sort_unstable();
            ins.dedup();
        }
    }
}

/// Runs the exploration and verdict for one cache set. Pure with respect
/// to shared state: reads `ctx` and `bucket`, mutates only `scratch` and
/// the returned outcome.
fn explore_set(ctx: &Ctx<'_>, bucket: &Bucket, scratch: &mut Scratch) -> SetOutcome {
    let mut outcome = SetOutcome::default();
    scratch.states.clear();
    scratch.ids.clear();
    intern(&mut scratch.states, &mut scratch.ids, SetState::cold());
    let n = ctx.vivu.len();
    scratch.pending.clear();
    scratch.pending.resize(n, true);
    scratch.span.clear();
    scratch.span.resize(n, (0, 0));
    scratch.rep.resize(n, 0);
    scratch.out.resize_with(n, Vec::new);
    for &(node, start, end) in &bucket.nodes {
        scratch.span[node as usize] = (start, end);
    }
    for &node in ctx.vivu.topo() {
        let i = node.index();
        scratch.out[i].clear();
        scratch.rep[i] = match (ctx.top.preds(i), ctx.vivu.preds(node)) {
            (&[p], &[_]) if scratch.span[i].0 == scratch.span[i].1 => scratch.rep[p as usize],
            _ => i as u32,
        };
    }

    // Chaotic iteration in topological order: forward edges resolve
    // within a sweep, back edges re-arm their headers for the next
    // one. State sets only grow (the transfer distributes over
    // union), so the budget bounds termination. A mirroring node
    // (`rep[i] != i`) is armed only by its predecessor's change, so it
    // changed too once that predecessor is reached.
    let mut progressed = true;
    'fixpoint: while progressed {
        progressed = false;
        for &node in ctx.vivu.topo() {
            let i = node.index();
            if !std::mem::replace(&mut scratch.pending[i], false) {
                continue;
            }
            let changed = if scratch.rep[i] as usize != i {
                !scratch.out[scratch.rep[i] as usize].is_empty()
            } else {
                let preds = ctx.top.preds(i);
                join_into(&mut scratch.ins, &scratch.out, &scratch.rep, preds);
                if scratch.ins.len() > ctx.budget {
                    outcome.exhausted = true;
                    break 'fixpoint;
                }
                let (start, end) = scratch.span[i];
                if start < end {
                    for id in scratch.ins.iter_mut() {
                        let mut st = scratch.states[*id as usize].clone();
                        for &(b, _) in &bucket.blocks[start as usize..end as usize] {
                            st.access(ctx.policy, ctx.assoc, b);
                        }
                        *id = intern(&mut scratch.states, &mut scratch.ids, st);
                    }
                    scratch.ins.sort_unstable();
                    scratch.ins.dedup();
                }
                // An empty in-set is not reached yet; a pred update re-arms.
                *scratch.ins != scratch.out[i] && {
                    std::mem::swap(&mut scratch.out[i], &mut scratch.ins);
                    true
                }
            };
            if changed {
                for &s in ctx.top.succs(i) {
                    scratch.pending[s as usize] = true;
                }
                progressed = true;
            }
        }
    }

    // Verdict: replay every in-state through each node holding an
    // unclassified reference of this set (such a node touches the set).
    // Unanimous outcomes upgrade; anything mixed (or unreachable) stays
    // cheap. An exhausted set only reports its targets as examined.
    for &(node, start, end) in &bucket.nodes {
        let acc = &bucket.blocks[start as usize..end as usize];
        let wanted = |&(_, r): &(u64, Option<u32>)| {
            let ri = r? as usize;
            (ctx.class[ri] == Classification::Unclassified).then_some(ri)
        };
        if outcome.exhausted || !acc.iter().any(|a| wanted(a).is_some()) {
            outcome.examined.extend(acc.iter().filter_map(wanted));
            continue;
        }
        let preds = ctx.top.preds(node as usize);
        join_into(&mut scratch.ins, &scratch.out, &scratch.rep, preds);
        scratch.unanimous.clear();
        scratch.unanimous.resize(acc.len(), (true, true));
        for &id in scratch.ins.iter() {
            let mut st = scratch.states[id as usize].clone();
            for (&(b, _), (all_hit, all_miss)) in acc.iter().zip(scratch.unanimous.iter_mut()) {
                let hit = st.access(ctx.policy, ctx.assoc, b);
                *all_hit &= hit;
                *all_miss &= !hit;
            }
        }
        for (a, &u) in acc.iter().zip(scratch.unanimous.iter()) {
            let Some(ri) = wanted(a) else { continue };
            // An empty in-set is unreachable in the exploration (hence in
            // every concrete walk): no evidence either way.
            match u {
                _ if scratch.ins.is_empty() => outcome.examined.push(ri),
                (true, _) => outcome.refined.push((ri, Classification::AlwaysHit)),
                (_, true) => outcome.refined.push((ri, Classification::AlwaysMiss)),
                _ => outcome.examined.push(ri),
            }
        }
    }
    outcome
}

/// Refines `class` in place and reports what happened to each reference.
///
/// `sigs` are the per-node touched-block signatures of the classify pass
/// (own fetched block plus prefetch target per reference, in node-local
/// order) — exactly the access sequence a concrete walk executes at the
/// node. `mem_block` maps each reference to its fetched block.
///
/// The pass is a no-op (all marks [`RefineMark::Untouched`]) when
/// disabled, under LRU (where the stage is not applied, although the cheap
/// LRU classification is not exact either — DESIGN.md §12), or when a
/// hardware next-line prefetcher is modelled (its folds are not part of
/// the concrete per-set replay).
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_classification(
    vivu: &VivuGraph,
    top: &Topology,
    acfg: &Acfg,
    config: &CacheConfig,
    refine: RefineConfig,
    hw_next_line: Option<u32>,
    sigs: &[NodeSig],
    mem_block: &[MemBlockId],
    class: &mut [Classification],
) -> (Vec<RefineMark>, RefineStats) {
    let mut marks = vec![RefineMark::Untouched; class.len()];
    let mut stats = RefineStats::default();
    if !refine.applies_to(config.policy()) || hw_next_line.is_some() {
        return (marks, stats);
    }
    let set_of = |b: MemBlockId| config.set_of(b) as u64;

    // Sets to explore: every set with an unclassified reference. (Under
    // FIFO/PLRU the may domain is unbounded, so none of these was ruled
    // out by the may half: always-miss was structurally unavailable.)
    let mut targets: Vec<u64> = acfg
        .refs()
        .iter()
        .filter(|r| class[r.id.index()] == Classification::Unclassified)
        .map(|r| set_of(mem_block[r.id.index()]))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    if targets.is_empty() {
        return (marks, stats);
    }

    let n = vivu.len();

    // Each node's accesses (own block, then prefetch target, per
    // reference), bucketed by targeted set.
    let mut buckets: Vec<Bucket> = targets.iter().map(|_| Bucket::default()).collect();
    for (i, sig) in sigs.iter().take(n).enumerate() {
        let rids = acfg.refs_of_node(NodeId(i as u32));
        for (&(own, pf), r) in sig.iter().zip(rids) {
            for (b, r) in std::iter::once((own, Some(r.0))).chain(pf.map(|t| (t, None))) {
                let Ok(k) = targets.binary_search(&set_of(b)) else {
                    continue;
                };
                let bucket = &mut buckets[k];
                let at = bucket.blocks.len() as u32;
                match bucket.nodes.last_mut() {
                    Some((node, _, end)) if *node == i as u32 => *end = at + 1,
                    _ => bucket.nodes.push((i as u32, at, at + 1)),
                }
                bucket.blocks.push((b.0, r));
            }
        }
    }

    let ctx = Ctx {
        vivu,
        class,
        top,
        policy: config.policy(),
        assoc: config.assoc(),
        budget: refine.max_states as usize,
    };

    let mut scratch = Scratch::default();
    let outcomes: Vec<SetOutcome> = buckets
        .iter()
        .map(|bucket| explore_set(&ctx, bucket, &mut scratch))
        .collect();

    for outcome in outcomes {
        stats.sets_targeted += 1;
        stats.sets_exhausted += u32::from(outcome.exhausted);
        for (ri, cl) in outcome.refined {
            class[ri] = cl;
            marks[ri] = RefineMark::Refined;
            match cl {
                Classification::AlwaysHit => stats.refined_hits += 1,
                Classification::AlwaysMiss => stats.refined_misses += 1,
                Classification::Unclassified => unreachable!("refinement never downgrades"),
            }
        }
        for ri in outcome.examined {
            marks[ri] = RefineMark::Examined;
        }
    }
    (marks, stats)
}

#[cfg(test)]
mod tests {
    use rtpf_cache::{
        CacheConfig, Classification, HierarchyConfig, MemTiming, RefineConfig, RefineMark,
        ReplacementPolicy,
    };
    use rtpf_isa::shape::Shape;
    use rtpf_isa::Layout;

    use crate::analysis::WcetAnalysis;
    use crate::memo::AnalysisCache;

    fn analyze(shape: &Shape, policy: ReplacementPolicy, refine: RefineConfig) -> WcetAnalysis {
        analyze_in(shape, policy, refine, CacheConfig::new(2, 16, 256).unwrap())
    }

    fn analyze_in(
        shape: &Shape,
        policy: ReplacementPolicy,
        refine: RefineConfig,
        geometry: CacheConfig,
    ) -> WcetAnalysis {
        let p = shape.clone().compile("refine-t");
        let cfg = geometry.with_policy(policy).unwrap();
        WcetAnalysis::analyze_hierarchy(
            &p,
            Layout::of(&p),
            &HierarchyConfig::l1_only(cfg),
            &MemTiming::default(),
            refine,
        )
        .unwrap()
    }

    #[test]
    fn refinement_upgrades_warm_loop_references_under_fifo_and_plru() {
        // A loop whose working set exactly fills the one 4-way set of a
        // 64 B cache: every rest-iteration reference concretely always
        // hits, but the competitiveness-reduced must analysis (FIFO at 1
        // effective way, tree-PLRU at log2(4)+1 = 3) loses the rotation
        // and leaves many unclassified. The exact exploration must
        // recover hits the cheap pass missed, and never lose precision.
        let shape = Shape::loop_(10, Shape::code(12));
        let geometry = CacheConfig::new(4, 16, 64).unwrap();
        for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
            let off = analyze_in(&shape, policy, RefineConfig::off(), geometry);
            let on = analyze_in(&shape, policy, RefineConfig::on(), geometry);
            let (hit_off, _, unk_off) = off.classification_counts();
            let (hit_on, _, unk_on) = on.classification_counts();
            assert!(
                hit_on > hit_off,
                "{policy}: refinement found no extra hits ({hit_off} → {hit_on})"
            );
            assert!(unk_on < unk_off, "{policy}: unclassified did not shrink");
            assert!(
                on.tau_w() < off.tau_w(),
                "{policy}: extra always-hits must lower τ_w"
            );
            // The cheap view is preserved verbatim either way.
            for r in on.acfg().refs() {
                assert_eq!(on.cheap_classification(r.id), off.classification(r.id));
                match on.refine_mark(r.id) {
                    RefineMark::Untouched => {
                        assert_ne!(on.cheap_classification(r.id), Classification::Unclassified);
                    }
                    RefineMark::Examined => {
                        assert_eq!(on.classification(r.id), Classification::Unclassified);
                    }
                    RefineMark::Refined => {
                        assert_eq!(on.cheap_classification(r.id), Classification::Unclassified);
                        assert_ne!(on.classification(r.id), Classification::Unclassified);
                    }
                }
            }
            let stats = on.refine_stats();
            assert!(stats.sets_targeted > 0);
            assert_eq!(
                u64::from(stats.refined_hits) + u64::from(stats.refined_misses),
                on.acfg()
                    .refs()
                    .iter()
                    .filter(|r| on.refine_mark(r.id) == RefineMark::Refined)
                    .count() as u64
            );
            // With refinement off the stage must not have run at all.
            assert!(off
                .acfg()
                .refs()
                .iter()
                .all(|r| off.refine_mark(r.id) == RefineMark::Untouched));
            assert_eq!(*off.refine_stats(), super::RefineStats::default());
        }
    }

    #[test]
    fn lru_analysis_is_untouched_by_refinement() {
        // The stage is not applied under LRU (its cheap classification is
        // not exact, but lifting the exemption changes LRU bytes); the
        // result must be bit-identical with refinement on or off.
        let shape = Shape::seq([
            Shape::code(12),
            Shape::loop_(6, Shape::if_else(1, Shape::code(8), Shape::code(4))),
        ]);
        let off = analyze(&shape, ReplacementPolicy::Lru, RefineConfig::off());
        let on = analyze(&shape, ReplacementPolicy::Lru, RefineConfig::on());
        assert_eq!(on.tau_w(), off.tau_w());
        for r in on.acfg().refs() {
            assert_eq!(on.classification(r.id), off.classification(r.id));
            assert_eq!(on.refine_mark(r.id), RefineMark::Untouched);
        }
        assert_eq!(*on.refine_stats(), super::RefineStats::default());
    }

    #[test]
    fn a_starved_budget_falls_back_to_the_cheap_result() {
        let shape = Shape::loop_(10, Shape::if_else(2, Shape::code(10), Shape::code(6)));
        let off = analyze(&shape, ReplacementPolicy::Fifo, RefineConfig::off());
        let starved = analyze(
            &shape,
            ReplacementPolicy::Fifo,
            RefineConfig {
                enabled: true,
                max_states: 0,
            },
        );
        // Budget 0: every targeted set exhausts immediately; the cheap
        // classification survives untouched and every NC target is marked
        // examined (not upgraded).
        assert_eq!(starved.tau_w(), off.tau_w());
        let stats = starved.refine_stats();
        assert!(stats.sets_targeted > 0);
        assert_eq!(stats.sets_exhausted, stats.sets_targeted);
        assert_eq!(stats.refined_hits + stats.refined_misses, 0);
        for r in starved.acfg().refs() {
            assert_eq!(starved.classification(r.id), off.classification(r.id));
            match starved.classification(r.id) {
                Classification::Unclassified => {
                    assert_eq!(starved.refine_mark(r.id), RefineMark::Examined);
                }
                _ => assert_eq!(starved.refine_mark(r.id), RefineMark::Untouched),
            }
        }
    }

    #[test]
    fn the_budget_bounds_the_distinct_in_states_exactly() {
        // One 4-way set holds every block, so exactly one set is targeted.
        // Two branch diamonds inside a loop make its largest per-node
        // in-set hold M distinct states (pinned before the exploration
        // switched to interned ids): a budget of M explores it fully, M − 1
        // abandons it — the budget counts distinct states, nothing else.
        let shape = Shape::loop_(
            8,
            Shape::seq([
                Shape::if_else(1, Shape::code(6), Shape::code(3)),
                Shape::if_else(1, Shape::code(5), Shape::code(9)),
            ]),
        );
        let geometry = CacheConfig::new(4, 16, 64).unwrap();
        for (policy, m) in [(ReplacementPolicy::Fifo, 11), (ReplacementPolicy::Plru, 43)] {
            let run = |max_states| {
                *analyze_in(
                    &shape,
                    policy,
                    RefineConfig {
                        enabled: true,
                        max_states,
                    },
                    geometry,
                )
                .refine_stats()
            };
            let fits = run(m);
            assert_eq!(fits.sets_targeted, 1, "{policy}");
            assert_eq!(fits.sets_exhausted, 0, "{policy}: budget {m} must suffice");
            assert!(fits.refined_hits + fits.refined_misses > 0, "{policy}");
            let short = run(m - 1);
            assert_eq!(
                short.sets_exhausted,
                1,
                "{policy}: budget {} must exhaust",
                m - 1
            );
            assert_eq!(short.refined_hits + short.refined_misses, 0, "{policy}");
        }
    }

    #[test]
    fn incremental_reanalysis_stays_exact_under_refinement() {
        use rtpf_isa::InstrKind;
        // The optimizer's hot path: insert a prefetch, re-analyse
        // incrementally, and demand bit-identical results to a
        // from-scratch refined analysis (debug builds also cross-check
        // inside `reanalyze_after_insert` itself).
        let cfg = CacheConfig::new(2, 16, 128)
            .unwrap()
            .with_policy(ReplacementPolicy::Fifo)
            .unwrap();
        let timing = MemTiming::default();
        let p1 = Shape::seq([Shape::code(6), Shape::loop_(8, Shape::code(12))]).compile("ri");
        let mut lineage = AnalysisCache::new();
        let a1 = WcetAnalysis::analyze_hierarchy_in(
            &p1,
            Layout::of(&p1),
            &HierarchyConfig::l1_only(cfg),
            &timing,
            RefineConfig::default(),
            &mut lineage,
        )
        .unwrap();

        let mut p2 = p1.clone();
        let b0 = p2.entry();
        let target = p2.block(b0).instrs()[4];
        p2.insert_instr(b0, 1, InstrKind::Prefetch { target })
            .unwrap();
        let anchor = p2.block(b0).instrs()[0];
        let layout2 = Layout::anchored(&p2, anchor, a1.layout().addr(anchor));

        let inc = a1
            .reanalyze_after_insert(&p2, layout2.clone(), &mut lineage)
            .unwrap();
        let full = WcetAnalysis::analyze_hierarchy(
            &p2,
            layout2,
            &HierarchyConfig::l1_only(cfg),
            &timing,
            RefineConfig::default(),
        )
        .unwrap();
        assert_eq!(inc.tau_w(), full.tau_w());
        assert_eq!(inc.classification_counts(), full.classification_counts());
        for r in inc.acfg().refs() {
            assert_eq!(inc.classification(r.id), full.classification(r.id));
            assert_eq!(
                inc.cheap_classification(r.id),
                full.cheap_classification(r.id)
            );
            assert_eq!(inc.refine_mark(r.id), full.refine_mark(r.id));
        }
    }
}
