//! Must/may classification fixpoint over the VIVU graph.
//!
//! States propagate at basic-block (VIVU node) granularity; inside a node
//! every reference is classified against the running state and then folded
//! into it. The broken back edges are *included* in the join, and the whole
//! system is iterated to a fixpoint, so the rest instance of a loop sees
//! the states from later iterations — this keeps the classification sound
//! despite the acyclic ACFG used elsewhere.
//!
//! Software prefetch instructions have two effects: their own fetch (a
//! normal reference to their containing block) and the prefetched block
//! entering the cache. Following the semantics of next-N-line analysis
//! extension (reference \[22\] of the paper), the prefetched block is
//! folded into the abstract states at the prefetch point; the insertion
//! criterion of `rtpf-core` guarantees the latency is hidden on the WCET
//! path.
//!
//! # Solver structure
//!
//! The dataflow graph (VIVU edges plus restored back edges) is condensed
//! into its strongly connected components; the condensation is a DAG, and
//! the solver walks it in topological order, solving each SCC to its local
//! fixpoint once all its predecessor SCCs are done. Inside an SCC the
//! solver runs a *priority worklist*: members are (re-)evaluated in
//! topological-position order, and a node re-enters the worklist only
//! when one of its inputs actually changed. Both choices are pure
//! scheduling: the must fixpoint is the greatest fixpoint of a monotone
//! system and the may fixpoint the least one, so each is unique and
//! chaotic iteration reaches it in *any* order — the worklist order only
//! affects how fast.
//!
//! # Incremental re-analysis
//!
//! `classify_incremental` re-runs the fixpoint after a program edit that
//! preserves the CFG (prefetch insertion never adds blocks or edges). It
//! is crate-private: its one caller is
//! [`WcetAnalysis::reanalyze_after_insert`](crate::WcetAnalysis::reanalyze_after_insert),
//! which binds the lineage cache to the program first. The solver evaluates the SCCs of the dataflow graph in condensation order,
//! which makes an exact change-driven cutoff possible:
//!
//! * an SCC is **recomputed** (from the same ⊤/⊥ start a from-scratch run
//!   uses) iff one of its nodes' touched-block signature changed or one of
//!   its external inputs' out-states changed *in content*;
//! * otherwise it is **skipped** and keeps its previous out-states.
//!
//! By induction over the condensation order this reproduces the
//! from-scratch solution exactly: a recomputed SCC given exact inputs is
//! solved to its local extremal fixpoint, which is the restriction of the
//! global one; a skipped SCC has the same transfer functions *and* the
//! same inputs as in the previous pass, so its previous local fixpoint is
//! still the restriction of the global one. Because abstract cache states
//! forget a block after `assoc` conflicting accesses to its set, edits
//! decay with dataflow distance and most SCCs are skipped in practice —
//! the whole-closure alternative would mark nearly everything affected
//! whenever relocation shifts addresses near the entry.
//!
//! # The may half runs only where it is read
//!
//! `τ_w` prices a reference at the hit time iff it is always-hit, which
//! the must half alone decides. The may half only separates always-miss
//! from unclassified, and that split is read by the L2 filter, by the
//! FIFO/tree-PLRU refinement (which targets the unclassified set), and by
//! reports. `Halves::for_config` is the one place that decides, from
//! the configuration alone, whether an analysis needs the split up
//! front; when it does not, the solver runs the must half alone
//! (`Halves::Must`) and the analysis computes the split on first read
//! with a may-only run of the same solver (`classify_may`).
//!
//! This is exact because must and may are independent lattices. The
//! join of a pair is the pair of the joins (intersection on the must
//! half, union on the may half), and a reference's transfer — its own
//! fetch, its hardware next-line folds and its prefetch fold — updates
//! each half from that half alone. The fused system is therefore the
//! product of two systems that never read each other, and its unique
//! extremal fixpoint is the pair of their unique extremal fixpoints: a
//! must-only run reaches exactly the must half of the fused solution,
//! and a may-only run exactly its may half. The classification combines
//! the two the way the fused transfer does: always-hit if the must half
//! guarantees the block, else always-miss if the may half rules it out,
//! else unclassified. The incremental cutoff argument above uses only
//! the uniqueness of each component's local fixpoint and the
//! signature/input change test, so it holds for the must system by
//! itself. A memo entry records the classifications of one mode, so a
//! lineage cache is bound to one mode as well as one graph
//! (`AnalysisCache::bind`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use rtpf_cache::{
    join_pairs_into, CacheConfig, Classification, HierarchyConfig, RefineConfig, StatePair,
};
use rtpf_isa::{BlockId, InstrKind, Layout, MemBlockId, Program};

use crate::acfg::Acfg;
use crate::error::AnalysisError;
use crate::memo::{AnalysisCache, NodeEval, NodeSig, Topology};
use crate::vivu::{NodeId, VivuGraph};

/// Which halves of the abstract state pair a classify pass computes (see
/// the module docs). A half that does not run stays at the
/// no-information sentinel's empty words on every node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Halves {
    /// Must and may together: the exact always-hit / always-miss /
    /// unclassified answer per reference.
    Both,
    /// The must half alone: always-hit or not, which is all `τ_w` reads.
    /// Every other reference reads [`Classification::Unclassified`].
    Must,
    /// The may half alone: always-miss or not, the complement of a
    /// [`Halves::Must`] pass. Every reference the may half cannot rule
    /// out reads [`Classification::Unclassified`].
    May,
}

impl Halves {
    /// The halves an analysis under `hierarchy` and `refine` computes up
    /// front: both when the always-miss/unclassified split feeds the L2
    /// filter or the exact refinement, the must half alone otherwise.
    pub(crate) fn for_config(hierarchy: &HierarchyConfig, refine: RefineConfig) -> Halves {
        if hierarchy.l2().is_some() || refine.applies_to(hierarchy.l1().policy()) {
            Halves::Both
        } else {
            Halves::Must
        }
    }
}

/// Per-reference classification results.
#[derive(Clone, Debug)]
pub struct ClassifyResult {
    /// Classification per [`RefId`](crate::acfg::RefId) index, as far as
    /// the halves the pass ran decide it.
    pub class: Vec<Classification>,
    /// Memory block fetched by each reference.
    pub mem_block: Vec<MemBlockId>,
    /// Block targeted by each reference's prefetch, if it is one.
    pub pf_block: Vec<Option<MemBlockId>>,
    /// Interned out-state (must, may) per VIVU node.
    pub out_states: Vec<Arc<StatePair>>,
    /// Touched-block signature per VIVU node (drives the incremental
    /// dirty check and the evaluation memo of the next pass).
    pub sigs: Vec<NodeSig>,
    /// Node evaluations actually executed (memo misses).
    pub evals: u64,
    /// Node evaluations answered by the shared memo.
    pub memo_hits: u64,
    /// States answered from the interner.
    pub states_interned: u64,
    /// States allocated fresh.
    pub states_fresh: u64,
    /// Nodes whose states were recomputed (equals the node count for a
    /// from-scratch run).
    pub nodes_reanalyzed: usize,
    /// Nanoseconds spent joining predecessor states (memo misses only);
    /// a share of the fixpoint's wall clock.
    pub join_ns: u64,
    /// Nanoseconds spent walking references (classify + fold per
    /// reference), memo misses only; a share of the fixpoint's wall clock
    /// like [`join_ns`](Self::join_ns).
    pub transfer_ns: u64,
}

/// The parts of a previous classification that seed an incremental run.
///
/// `acfg` must be the reference graph the previous results were computed
/// on; reference ids are matched positionally per node, which is valid
/// because prefetch insertion preserves the VIVU node set.
#[derive(Clone, Copy)]
pub(crate) struct PrevPass<'a> {
    pub acfg: &'a Acfg,
    pub class: &'a [Classification],
    pub mem_block: &'a [MemBlockId],
    pub pf_block: &'a [Option<MemBlockId>],
    pub out_states: &'a [Arc<StatePair>],
    pub sigs: &'a [NodeSig],
}

/// Runs the must/may fixpoint from scratch and classifies every
/// reference, recording its evaluations into a caller-provided lineage
/// cache so later incremental passes can reuse them.
///
/// With `hw_next_line = Some(n)` it applies **next-N-line hardware
/// prefetching** semantics, reproducing the abstract-semantics extension
/// of the paper's reference \[22\]: every fetch of block `b` additionally
/// folds blocks `b+1 ..= b+n` into the abstract states (the "next-line
/// always" policy). That classification assumes ideal prefetch timing
/// (the prefetched line arrives before its first use), so the WCET
/// computed from it is *optimistic* for hardware prefetching — which is
/// exactly the comparison the paper draws: hardware prefetching has no
/// safe WCET story, software insertion does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify_full_cached(
    p: &Program,
    layout: &Layout,
    vivu: &VivuGraph,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    halves: Halves,
    cache: &mut AnalysisCache,
) -> Result<ClassifyResult, AnalysisError> {
    let block_shift = config.block_bytes().trailing_zeros();
    let (sigs, _) = node_sigs(p, layout, vivu, block_shift, None, cache);
    solve(
        vivu,
        acfg,
        config,
        hw_next_line,
        halves,
        sigs,
        None,
        None,
        cache,
    )
}

/// The may half of an analysis whose fixpoint ran the must half alone,
/// from that analysis's own VIVU graph, reference graph and node
/// signatures: per reference, [`Classification::AlwaysMiss`] where the
/// may half rules the block out and [`Classification::Unclassified`]
/// elsewhere. Runs on a private cache, so the caller's lineage stays in
/// its own mode.
pub(crate) fn classify_may(
    vivu: &Arc<VivuGraph>,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    sigs: &[NodeSig],
) -> Result<Vec<Classification>, AnalysisError> {
    let mut cache = AnalysisCache::new();
    cache.bind(vivu, Halves::May);
    let cls = solve(
        vivu,
        acfg,
        config,
        hw_next_line,
        Halves::May,
        sigs.to_vec(),
        None,
        None,
        &mut cache,
    )?;
    Ok(cls.class)
}

/// Re-classifies after a CFG-preserving program edit, recomputing only the
/// SCCs whose touched-block signature or inputs changed (see the module
/// docs) and answering repeated node evaluations from `cache`, the
/// lineage's evaluation cache. Produces results
/// identical to a from-scratch classification of the new program.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify_incremental(
    p: &Program,
    layout: &Layout,
    vivu: &VivuGraph,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    halves: Halves,
    prev: PrevPass<'_>,
    cache: &mut AnalysisCache,
) -> Result<ClassifyResult, AnalysisError> {
    let block_shift = config.block_bytes().trailing_zeros();
    let (sigs, dirty) = node_sigs(p, layout, vivu, block_shift, Some(prev.sigs), cache);
    solve(
        vivu,
        acfg,
        config,
        hw_next_line,
        halves,
        sigs,
        dirty.as_deref(),
        Some(prev),
        cache,
    )
}

/// Fills `buf` with one basic block's touched-block signature: the
/// per-instruction sequence of `(own block, prefetch target block)`
/// pairs, which determines the transfer function of every context of the
/// block (hardware next-line folds depend only on the fetched block).
/// Reuses the caller's scratch buffer so a classify pass allocates no
/// per-block signature vectors. `block_shift` is `log2(block_bytes)` —
/// block sizes are validated powers of two, so the address-to-block map
/// is a shift rather than a 64-bit division.
fn fill_block_sig(
    p: &Program,
    layout: &Layout,
    block_shift: u32,
    block: BlockId,
    buf: &mut Vec<(MemBlockId, Option<MemBlockId>)>,
) {
    buf.clear();
    buf.extend(p.block(block).instrs().iter().map(|&i| {
        let own = MemBlockId(layout.addr(i) >> block_shift);
        let pf = match p.instr(i).kind {
            InstrKind::Prefetch { target } => Some(MemBlockId(layout.addr(target) >> block_shift)),
            _ => None,
        };
        (own, pf)
    }));
}

/// Canonical touched-block signature of every VIVU node, plus — given the
/// previous pass's signatures — which nodes' signatures changed.
///
/// All contexts of a basic block share its signature, so it is filled
/// and tested once per block and its `Arc` shared by every context. An
/// unchanged block keeps the previous pass's `Arc` (no hashing);
/// everything else is interned through the lineage cache, so
/// content-equal signatures across candidate analyses share one pointer
/// and the memo key is a pure pointer tuple.
fn node_sigs(
    p: &Program,
    layout: &Layout,
    vivu: &VivuGraph,
    block_shift: u32,
    prev: Option<&[NodeSig]>,
    cache: &mut AnalysisCache,
) -> (Vec<NodeSig>, Option<Vec<bool>>) {
    let mut scratch: Vec<(MemBlockId, Option<MemBlockId>)> = Vec::new();
    // Per basic block: its signature and whether it changed, filled at
    // the block's first context.
    let mut per_block: Vec<Option<(NodeSig, bool)>> = vec![None; p.block_count()];
    let mut sigs: Vec<NodeSig> = Vec::with_capacity(vivu.len());
    let mut dirty: Option<Vec<bool>> = prev.map(|_| Vec::with_capacity(vivu.len()));
    for (i, node) in vivu.nodes().iter().enumerate() {
        let (sig, changed) = per_block[node.block.index()].get_or_insert_with(|| {
            fill_block_sig(p, layout, block_shift, node.block, &mut scratch);
            match prev {
                Some(pv) if pv[i].as_slice() == scratch.as_slice() => (Arc::clone(&pv[i]), false),
                _ => (cache.intern_sig(&scratch), true),
            }
        });
        sigs.push(Arc::clone(sig));
        if let Some(d) = &mut dirty {
            d.push(*changed);
        }
    }
    (sigs, dirty)
}

/// Strongly connected components of the dataflow graph, in condensation
/// (topological) order. Iterative Tarjan; the algorithm emits SCCs in
/// reverse topological order, so the result is reversed before returning.
fn condensation(n: usize, succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 < succs[v].len() {
                let w = succs[v][frame.1];
                frame.1 += 1;
                if index[w] == UNVISITED {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.0] = low[parent.0].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps.reverse();
    comps
}

/// Builds the fixpoint topology of a VIVU graph: adjacency with the
/// broken back edges restored, and its SCC condensation with members
/// sorted by topological position. Built once per lineage via
/// [`AnalysisCache::topology`].
pub(crate) fn build_topology(vivu: &VivuGraph) -> Topology {
    let n = vivu.len();
    let mut preds: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            vivu.preds(NodeId(i as u32))
                .iter()
                .map(|p| p.index())
                .collect::<Vec<_>>()
        })
        .collect();
    let mut succs: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            vivu.succs(NodeId(i as u32))
                .iter()
                .map(|s| s.index())
                .collect::<Vec<_>>()
        })
        .collect();
    for &(latch, header) in vivu.back_edges() {
        let hp = &mut preds[header.index()];
        if !hp.contains(&latch.index()) {
            hp.push(latch.index());
        }
        let ls = &mut succs[latch.index()];
        if !ls.contains(&header.index()) {
            ls.push(header.index());
        }
    }

    let mut comps = condensation(n, &succs);
    let mut pos = vec![0usize; n];
    for (k, nid) in vivu.topo().iter().enumerate() {
        pos[nid.index()] = k;
    }
    for comp in &mut comps {
        comp.sort_unstable_by_key(|&i| pos[i]);
    }

    Topology::from_parts(preds, succs, comps)
}

/// Folds block `b` into the halves of `state` that `halves` runs.
#[inline]
fn fold(state: &mut StatePair, b: MemBlockId, halves: Halves) {
    if halves != Halves::May {
        state.0.update(b);
    }
    if halves != Halves::Must {
        state.1.update(b);
    }
}

/// Classifies one reference and applies its fetch to the halves of the
/// abstract state that `halves` runs — fused so the classification
/// answers fall out of the update's own binary searches — including the
/// hardware next-line folds when enabled.
fn classify_touch(
    state: &mut StatePair,
    b: MemBlockId,
    hw_next_line: Option<u32>,
    halves: Halves,
) -> Classification {
    let guaranteed = halves != Halves::May && state.0.update_classify(b);
    let possible = halves == Halves::Must || state.1.update_classify(b);
    if let Some(n) = hw_next_line {
        for k in 1..=u64::from(n) {
            fold(state, MemBlockId(b.0 + k), halves);
        }
    }
    if guaranteed {
        Classification::AlwaysHit
    } else if !possible {
        Classification::AlwaysMiss
    } else {
        Classification::Unclassified
    }
}

/// What the solver learns about a node once its component converged.
/// Filled once per node, in condensation order, so every external input
/// of a component is filled before the component is solved.
struct NodeOutcome {
    /// Converged (interned) out-state.
    out: Arc<StatePair>,
    /// The node's final evaluation; `None` for skipped nodes, whose
    /// classifications are copied from the previous pass instead.
    eval: Option<Arc<NodeEval>>,
    /// Out-state content differs from the previous pass (trivially true
    /// in a from-scratch run).
    changed: bool,
    /// Whether the node was actually re-evaluated this pass.
    recomputed: bool,
}

/// Work counters of one classify pass.
#[derive(Clone, Copy, Default)]
struct Counters {
    evals: u64,
    memo_hits: u64,
    states_interned: u64,
    states_fresh: u64,
    join_ns: u64,
    transfer_ns: u64,
}

/// Solver scratch. All vectors are node-indexed and reused across every
/// component of a pass, so the steady-state allocation rate is zero:
/// joins merge into `work`, signatures and inputs live in reusable
/// buffers, and the worklist is a bitset plus a binary heap of
/// component-local indices.
pub(crate) struct SolverScratch {
    /// Input states of the node under evaluation.
    ins_buf: Vec<Arc<StatePair>>,
    /// k-way merge cursors.
    cursors: Vec<usize>,
    /// Join destination + reference-walk state; cloned once from the
    /// no-information sentinel (carries the geometry, empty words).
    work: StatePair,
    /// Current out-state per member of the component being solved.
    local_out: Vec<Option<Arc<StatePair>>>,
    /// Final evaluation per member of the component being solved.
    local_eval: Vec<Option<Arc<NodeEval>>>,
    /// Component-local index (= topological rank within the component).
    local_idx: Vec<u32>,
    /// Worklist membership bit per node.
    pend: Vec<bool>,
    /// Priority worklist: pops the pending member with the lowest
    /// topological position first, so straight-line chains inside a loop
    /// body are swept in order instead of rescanning the whole component.
    heap: BinaryHeap<Reverse<u32>>,
}

impl SolverScratch {
    fn new(n: usize, empty: &StatePair) -> SolverScratch {
        SolverScratch {
            ins_buf: Vec::new(),
            cursors: Vec::new(),
            work: empty.clone(),
            local_out: vec![None; n],
            local_eval: vec![None; n],
            local_idx: vec![0; n],
            pend: vec![false; n],
            heap: BinaryHeap::new(),
        }
    }

    /// Takes the lineage's stored scratch, falling back to a fresh one
    /// when there is none or it is sized for a different graph. A
    /// successfully finished solve leaves every node-indexed vector in its
    /// initial state (worklist drained, local slots `take`n), so reuse
    /// skips the per-pass allocation *and* zero-fill.
    fn acquire(cache: &mut AnalysisCache, n: usize, empty: &StatePair) -> SolverScratch {
        match cache.scratch.take() {
            Some(ws) if ws.local_idx.len() == n => ws,
            _ => SolverScratch::new(n, empty),
        }
    }

    /// Returns the scratch to the lineage's cache. Only called on clean
    /// exits — a pass that errored mid-component drops its scratch
    /// instead, since the worklist invariants no longer hold.
    fn release(mut self, cache: &mut AnalysisCache) {
        self.ins_buf.clear();
        cache.scratch = Some(self);
    }
}

/// The fixpoint solver of one classify pass: walks the condensation in
/// topological order and solves each component in place.
struct Solver<'a> {
    top: &'a Topology,
    sigs: &'a [NodeSig],
    cache: &'a mut AnalysisCache,
    prev: Option<PrevPass<'a>>,
    dirty: Option<&'a [bool]>,
    hw_next_line: Option<u32>,
    halves: Halves,
    /// Per-node outcome, filled when the node's component converged.
    outcomes: Vec<Option<NodeOutcome>>,
    ws: SolverScratch,
    c: Counters,
}

impl Solver<'_> {
    /// Solves every component in condensation order and returns each
    /// node's outcome plus the pass's work counters.
    fn solve(mut self) -> Result<(Vec<NodeOutcome>, Counters), AnalysisError> {
        for cid in 0..self.top.n_comps() {
            self.process_comp(cid)?;
        }
        self.ws.release(self.cache);
        let outcomes = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("every component was solved"))
            .collect();
        Ok((outcomes, self.c))
    }

    fn publish(&mut self, i: usize, outcome: NodeOutcome) {
        debug_assert!(self.outcomes[i].is_none(), "node {i} solved twice");
        self.outcomes[i] = Some(outcome);
    }

    /// Outcome of a node in an earlier component.
    fn solved(&self, i: usize) -> &NodeOutcome {
        self.outcomes[i]
            .as_ref()
            .expect("predecessor components are solved first")
    }

    fn changed_of(&self, i: usize, new: &Arc<StatePair>) -> bool {
        match self.prev {
            Some(pv) => !Arc::ptr_eq(new, &pv.out_states[i]) && **new != *pv.out_states[i],
            None => true,
        }
    }

    /// Evaluates node `i` of component `cid` against its current inputs:
    /// memo hit, or a real k-way join + per-reference classify/fold.
    ///
    /// Must analysis is an intersection-join ("available blocks")
    /// problem: the sound *and precise* solution is the greatest
    /// fixpoint, reached by descending from an optimistic start.
    /// Same-component predecessors whose out-state has not been computed
    /// yet are therefore *ignored* in the join (treated as ⊤), exactly
    /// like uninitialized nodes in available-expressions analysis;
    /// seeding them as "empty cache" would poison every loop with its own
    /// not-yet-analysed back edge. The may analysis (union join) is
    /// indifferent: skipping an uncomputed predecessor equals joining
    /// with its ∅ bottom. Cross-component predecessors are always solved
    /// before this component, by condensation order.
    fn eval_node(&mut self, cid: usize, i: usize) -> Arc<NodeEval> {
        let ws = &mut self.ws;
        ws.ins_buf.clear();
        for &pr in self.top.preds(i) {
            let pr = pr as usize;
            if self.top.comp_id(pr) == cid {
                if let Some(a) = &ws.local_out[pr] {
                    ws.ins_buf.push(Arc::clone(a));
                }
            } else {
                let ext = self.outcomes[pr]
                    .as_ref()
                    .expect("predecessor components are solved first");
                ws.ins_buf.push(Arc::clone(&ext.out));
            }
        }
        if let Some(hit) = self.cache.lookup(&self.sigs[i], &ws.ins_buf) {
            self.c.memo_hits += 1;
            return hit;
        }
        self.c.evals += 1;
        let t_join = Instant::now();
        join_pairs_into(&mut ws.work, &ws.ins_buf, &mut ws.cursors);
        let t_walk = Instant::now();
        self.c.join_ns += t_walk.duration_since(t_join).as_nanos() as u64;
        let sig = &self.sigs[i];
        let mut class = Vec::with_capacity(sig.len());
        for &(own, pf) in sig.iter() {
            class.push(classify_touch(
                &mut ws.work,
                own,
                self.hw_next_line,
                self.halves,
            ));
            if let Some(tb) = pf {
                fold(&mut ws.work, tb, self.halves);
            }
        }
        self.c.transfer_ns += t_walk.elapsed().as_nanos() as u64;
        let (stored, fresh) = self.cache.store(sig, &ws.ins_buf, &ws.work, class);
        if fresh {
            self.c.states_fresh += 1;
        } else {
            self.c.states_interned += 1;
        }
        stored
    }

    /// Solves component `cid` to its local fixpoint and fills every
    /// member's outcome. Runs once per component, after all predecessor
    /// components.
    fn process_comp(&mut self, cid: usize) -> Result<(), AnalysisError> {
        let top = self.top;
        let comp = top.comp(cid);
        // Incremental cutoff: skip the whole component when no member's
        // signature and no external input changed (see module docs).
        let recompute = match (self.prev, self.dirty) {
            (Some(_), Some(dirty)) => comp.iter().any(|&i| {
                let i = i as usize;
                dirty[i]
                    || top.preds(i).iter().any(|&pr| {
                        let pr = pr as usize;
                        top.comp_id(pr) != cid && self.solved(pr).changed
                    })
            }),
            _ => true,
        };
        if !recompute {
            let pv = self.prev.expect("skipping requires a previous pass");
            for &i in comp {
                let i = i as usize;
                self.publish(
                    i,
                    NodeOutcome {
                        out: Arc::clone(&pv.out_states[i]),
                        eval: None,
                        changed: false,
                        recomputed: false,
                    },
                );
            }
            return Ok(());
        }
        if comp.len() == 1 && !top.preds(comp[0] as usize).contains(&comp[0]) {
            // Acyclic singleton: one evaluation is the exact solution.
            let i = comp[0] as usize;
            let ev = self.eval_node(cid, i);
            let changed = self.changed_of(i, &ev.out);
            self.publish(
                i,
                NodeOutcome {
                    out: Arc::clone(&ev.out),
                    eval: Some(ev),
                    changed,
                    recomputed: true,
                },
            );
            return Ok(());
        }
        // Priority worklist with change-driven re-evaluation: a member is
        // (re-)evaluated only while one of its inputs may have changed
        // since its last evaluation. Skipping is exact — re-applying a
        // transfer to unchanged inputs reproduces the same output — and
        // chaotic iteration from the extremal start reaches the unique
        // extremal fixpoint in any order; topological-position priority
        // just minimizes wasted evaluations against half-updated inputs.
        let ws = &mut self.ws;
        debug_assert!(ws.heap.is_empty());
        for (k, &i) in comp.iter().enumerate() {
            let i = i as usize;
            ws.local_idx[i] = k as u32;
            ws.local_out[i] = None;
            ws.local_eval[i] = None;
            ws.pend[i] = true;
            ws.heap.push(Reverse(k as u32));
        }
        // The solver descends a finite lattice, so this guard only trips
        // on a broken transfer function or join — surfaced as a typed
        // error instead of a panic.
        let limit = comp.len().saturating_mul(1_000_000);
        let mut pops = 0usize;
        while let Some(Reverse(k)) = self.ws.heap.pop() {
            let i = comp[k as usize] as usize;
            if !self.ws.pend[i] {
                continue;
            }
            self.ws.pend[i] = false;
            pops += 1;
            if pops > limit {
                return Err(AnalysisError::FixpointDiverged { iterations: pops });
            }
            let ev = self.eval_node(cid, i);
            let ws = &mut self.ws;
            let same = ws.local_out[i]
                .as_ref()
                .is_some_and(|old| Arc::ptr_eq(old, &ev.out) || **old == *ev.out);
            if !same {
                ws.local_out[i] = Some(Arc::clone(&ev.out));
                for &s in top.succs(i) {
                    let s = s as usize;
                    if top.comp_id(s) == cid && !ws.pend[s] {
                        ws.pend[s] = true;
                        ws.heap.push(Reverse(ws.local_idx[s]));
                    }
                }
            }
            ws.local_eval[i] = Some(ev);
        }
        for &i in comp {
            let i = i as usize;
            let out = self.ws.local_out[i]
                .take()
                .expect("fixpoint computed every member");
            let eval = self.ws.local_eval[i]
                .take()
                .expect("fixpoint evaluated every member");
            let changed = self.changed_of(i, &out);
            self.publish(
                i,
                NodeOutcome {
                    out,
                    eval: Some(eval),
                    changed,
                    recomputed: true,
                },
            );
        }
        Ok(())
    }
}

/// Solves the fixpoint over precomputed node signatures (`dirty` marks
/// the nodes whose signature changed since `prev`, in incremental mode)
/// and records every reference's classification.
#[allow(clippy::too_many_arguments)]
fn solve(
    vivu: &VivuGraph,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    halves: Halves,
    sigs: Vec<NodeSig>,
    dirty: Option<&[bool]>,
    prev: Option<PrevPass<'_>>,
    cache: &mut AnalysisCache,
) -> Result<ClassifyResult, AnalysisError> {
    let n = vivu.len();
    // No-information sentinel for predecessor-less nodes. Cloning it is
    // allocation-free (empty packed-word vectors) — see `rtpf_cache::no_info`.
    let empty: StatePair = rtpf_cache::no_info(config);

    // Adjacency (with back edges) and SCC condensation are identical for
    // every analysis of the lineage — fetched from the lineage cache,
    // built on the first pass.
    let top = cache.topology(|| build_topology(vivu));

    let ws = SolverScratch::acquire(cache, n, &empty);
    let (outcomes, totals) = Solver {
        top: &top,
        sigs: &sigs,
        cache,
        prev,
        dirty,
        hw_next_line,
        halves,
        outcomes: (0..n).map(|_| None).collect(),
        ws,
        c: Counters::default(),
    }
    .solve()?;

    // Final recording pass: recomputed nodes publish the classifications
    // of their converged evaluation; skipped nodes copy the previous
    // results positionally.
    let m = acfg.len();
    let mut class = vec![Classification::Unclassified; m];
    let mut mem_block = vec![MemBlockId(0); m];
    let mut pf_block: Vec<Option<MemBlockId>> = vec![None; m];
    let mut nodes_reanalyzed = 0usize;
    for &nid in vivu.topo() {
        let i = nid.index();
        let oc = &outcomes[i];
        if !oc.recomputed {
            let prev = prev.expect("skipped nodes exist only in incremental mode");
            for (o, r) in prev
                .acfg
                .refs_of_node(nid)
                .iter()
                .zip(acfg.refs_of_node(nid))
            {
                class[r.index()] = prev.class[o.index()];
                mem_block[r.index()] = prev.mem_block[o.index()];
                pf_block[r.index()] = prev.pf_block[o.index()];
            }
            continue;
        }
        nodes_reanalyzed += 1;
        let ev = oc.eval.as_ref().expect("recomputed nodes were evaluated");
        let refs = acfg.refs_of_node(nid);
        debug_assert_eq!(refs.len(), ev.class.len());
        for ((&r, &cl), &(own, pf)) in refs.iter().zip(&ev.class).zip(sigs[i].iter()) {
            class[r.index()] = cl;
            mem_block[r.index()] = own;
            pf_block[r.index()] = pf;
        }
    }

    let out_states: Vec<Arc<StatePair>> = outcomes.into_iter().map(|o| o.out).collect();

    Ok(ClassifyResult {
        class,
        mem_block,
        pf_block,
        out_states,
        sigs,
        evals: totals.evals,
        memo_hits: totals.memo_hits,
        states_interned: totals.states_interned,
        states_fresh: totals.states_fresh,
        nodes_reanalyzed,
        join_ns: totals.join_ns,
        transfer_ns: totals.transfer_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    /// A from-scratch classification over a private memo.
    fn classify_with(
        p: &Program,
        layout: &Layout,
        v: &VivuGraph,
        a: &Acfg,
        config: &CacheConfig,
        hw_next_line: Option<u32>,
    ) -> ClassifyResult {
        classify_full_cached(
            p,
            layout,
            v,
            a,
            config,
            hw_next_line,
            Halves::Both,
            &mut AnalysisCache::new(),
        )
        .unwrap()
    }

    fn run(shape: Shape, config: CacheConfig) -> (Program, Acfg, ClassifyResult) {
        let p = shape.compile("t");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c = classify_with(&p, &layout, &v, &a, &config, None);
        (p, a, c)
    }

    #[test]
    fn straight_line_first_item_misses_rest_hit() {
        // 8 instructions = 32 bytes = two 16-byte blocks in a big cache.
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let (_, a, c) = run(Shape::code(8), cfg);
        let mut misses = 0;
        for r in a.refs() {
            if c.class[r.id.index()].counts_as_miss() {
                misses += 1;
            }
        }
        // One (cold) miss per distinct block.
        assert_eq!(misses, 2);
    }

    #[test]
    fn loop_rest_iterations_hit_when_cache_fits() {
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        // 5-instr body fits the cache: rest instance must be all hits.
        let p = Shape::loop_(10, Shape::code(5)).compile("l");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c = classify_with(&p, &layout, &v, &a, &cfg, None);
        for r in a.refs() {
            let node = v.node(r.node);
            let is_rest = node
                .ctx
                .frames()
                .iter()
                .any(|&(_, it)| it == crate::context::Iter::Rest);
            if is_rest {
                assert_eq!(
                    c.class[r.id.index()],
                    Classification::AlwaysHit,
                    "rest reference {} should hit",
                    r.id
                );
            }
        }
    }

    #[test]
    fn thrashing_loop_misses_in_rest() {
        // Direct-mapped 32-byte cache (two 16-byte lines); a 40-instr body
        // (160 B) cannot fit, so rest iterations keep missing somewhere.
        let cfg = CacheConfig::new(1, 16, 32).unwrap();
        let p = Shape::loop_(10, Shape::code(40)).compile("t");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c = classify_with(&p, &layout, &v, &a, &cfg, None);
        let rest_misses = a
            .refs()
            .iter()
            .filter(|r| {
                v.node(r.node)
                    .ctx
                    .frames()
                    .iter()
                    .any(|&(_, it)| it == crate::context::Iter::Rest)
                    && c.class[r.id.index()].counts_as_miss()
            })
            .count();
        assert!(rest_misses > 0);
    }

    #[test]
    fn prefetch_makes_downstream_reference_hit() {
        // Straight line long enough to span blocks; insert a prefetch for a
        // later block early, then the later block's first item must be
        // always-hit.
        let cfg = CacheConfig::new(4, 16, 256).unwrap();
        let mut p = Shape::code(12).compile("pf");
        let b0 = p.entry();
        // Target: the instruction at position 8 (block 2 with 16-B lines).
        let target = p.block(b0).instrs()[8];
        p.insert_instr(b0, 1, InstrKind::Prefetch { target })
            .unwrap();
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c = classify_with(&p, &layout, &v, &a, &cfg, None);
        // Find the reference fetching `target`.
        let r = a.refs().iter().find(|r| r.instr == target).unwrap();
        assert_eq!(c.class[r.id.index()], Classification::AlwaysHit);
        assert!(c.pf_block.iter().filter(|b| b.is_some()).count() == 1);
    }

    #[test]
    fn next_line_semantics_convert_sequential_misses_to_hits() {
        // Reference [22]: with an always-on next-line prefetcher, the
        // sequential cold misses of straight-line code collapse to the
        // first block only (ideal timing).
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let p = Shape::code(32).compile("seq");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let plain = classify_with(&p, &layout, &v, &a, &cfg, None);
        let hw = classify_with(&p, &layout, &v, &a, &cfg, Some(1));
        let misses = |c: &ClassifyResult| c.class.iter().filter(|x| x.counts_as_miss()).count();
        assert_eq!(misses(&plain), 8, "32 instrs = 8 cold blocks");
        assert_eq!(misses(&hw), 1, "only the very first block misses");
    }

    #[test]
    fn conditional_merge_is_conservative() {
        // A tiny cache where then/else arms load conflicting blocks: after
        // the merge neither arm's block is guaranteed.
        let cfg = CacheConfig::new(1, 16, 16).unwrap(); // one line!
        let (_, a, c) = run(
            Shape::seq([
                Shape::if_else(1, Shape::code(8), Shape::code(8)),
                Shape::code(4),
            ]),
            cfg,
        );
        // At least one always-miss (cold code) and the merge code cannot be
        // all hits.
        let hits = c
            .class
            .iter()
            .filter(|c| matches!(c, Classification::AlwaysHit))
            .count();
        assert!(hits < a.len());
    }

    #[test]
    fn incremental_after_insert_matches_from_scratch() {
        // Insert a prefetch mid-program and check the incremental pass
        // reproduces the from-scratch classification exactly while
        // recomputing only part of the graph.
        let cfg = CacheConfig::new(2, 16, 128).unwrap();
        let p1 = Shape::seq([
            Shape::code(6),
            Shape::loop_(8, Shape::code(10)),
            Shape::code(12),
        ])
        .compile("inc");
        let layout1 = Layout::of(&p1);
        let v = VivuGraph::build(&p1).unwrap();
        let a1 = Acfg::build(&p1, &v);
        let c1 = classify_with(&p1, &layout1, &v, &a1, &cfg, None);

        let mut p2 = p1.clone();
        let b0 = p2.entry();
        let target = p2.block(b0).instrs()[4];
        p2.insert_instr(b0, 1, InstrKind::Prefetch { target })
            .unwrap();
        let anchor = p2.block(b0).instrs()[0];
        let layout2 = Layout::anchored(&p2, anchor, layout1.addr(anchor));

        let a2 = Acfg::build(&p2, &v);
        let full = classify_with(&p2, &layout2, &v, &a2, &cfg, None);
        let inc = classify_incremental(
            &p2,
            &layout2,
            &v,
            &a2,
            &cfg,
            None,
            Halves::Both,
            PrevPass {
                acfg: &a1,
                class: &c1.class,
                mem_block: &c1.mem_block,
                pf_block: &c1.pf_block,
                out_states: &c1.out_states,
                sigs: &c1.sigs,
            },
            &mut AnalysisCache::new(),
        )
        .unwrap();
        assert_eq!(inc.class, full.class);
        assert_eq!(inc.mem_block, full.mem_block);
        assert_eq!(inc.pf_block, full.pf_block);
        assert!(
            inc.nodes_reanalyzed <= full.nodes_reanalyzed,
            "incremental should not redo more nodes than from-scratch"
        );
        for (i, o) in inc.out_states.iter().zip(&full.out_states) {
            assert_eq!(**i, **o);
        }
    }

    #[test]
    fn signatures_are_shared_per_block_and_dirty_exactly_where_blocks_moved() {
        let cfg = CacheConfig::new(2, 16, 128).unwrap();
        let bytes = cfg.block_bytes();
        let shift = bytes.trailing_zeros();
        let p1 = Shape::seq([
            Shape::code(6),
            Shape::loop_(
                8,
                Shape::seq([Shape::code(5), Shape::loop_(3, Shape::code(7))]),
            ),
            Shape::code(9),
        ])
        .compile("sig");
        let layout1 = Layout::of(&p1);
        let v = VivuGraph::build(&p1).unwrap();
        let mut cache = AnalysisCache::new();
        let (sigs1, dirty1) = node_sigs(&p1, &layout1, &v, shift, None, &mut cache);
        assert!(dirty1.is_none());
        for (a, b) in v.nodes().iter().zip(&sigs1) {
            for (c, d) in v.nodes().iter().zip(&sigs1) {
                if a.block == c.block {
                    assert!(Arc::ptr_eq(b, d), "contexts of {:?} share one sig", a.block);
                }
            }
        }

        // Insert a prefetch into the last block: the suffix keeps its
        // addresses, the prefix shifts down one slot.
        let mut p2 = p1.clone();
        let last = *p2.layout_order().last().unwrap();
        let anchor = p2.block(last).instrs()[4];
        let target = p2.block(p2.entry()).instrs()[0];
        p2.insert_instr(last, 4, InstrKind::Prefetch { target })
            .unwrap();
        let layout2 = Layout::anchored(&p2, anchor, layout1.addr(anchor));
        let (sigs2, dirty2) = node_sigs(&p2, &layout2, &v, shift, Some(&sigs1), &mut cache);
        let dirty2 = dirty2.expect("incremental pass reports dirty bits");

        // A block moved iff its sequence of fetched and prefetched memory
        // blocks changed.
        let touched = |p: &Program, l: &Layout, b| -> Vec<(MemBlockId, Option<MemBlockId>)> {
            p.block(b)
                .instrs()
                .iter()
                .map(|&i| {
                    let pf = match p.instr(i).kind {
                        InstrKind::Prefetch { target } => Some(l.block_of(target, bytes)),
                        _ => None,
                    };
                    (l.block_of(i, bytes), pf)
                })
                .collect()
        };
        let mut moved_seen = [false; 2];
        for (i, node) in v.nodes().iter().enumerate() {
            let moved = touched(&p1, &layout1, node.block) != touched(&p2, &layout2, node.block);
            moved_seen[usize::from(moved)] = true;
            assert_eq!(dirty2[i], moved, "node {i} ({:?})", node.block);
            assert_eq!(Arc::ptr_eq(&sigs2[i], &sigs1[i]), !moved, "node {i}");
        }
        assert_eq!(
            moved_seen,
            [true, true],
            "the edit moves some blocks, not all"
        );
    }

    #[test]
    fn incremental_with_no_change_reuses_everything() {
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let p = Shape::loop_(10, Shape::code(8)).compile("same");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c1 = classify_with(&p, &layout, &v, &a, &cfg, None);
        let inc = classify_incremental(
            &p,
            &layout,
            &v,
            &a,
            &cfg,
            None,
            Halves::Both,
            PrevPass {
                acfg: &a,
                class: &c1.class,
                mem_block: &c1.mem_block,
                pf_block: &c1.pf_block,
                out_states: &c1.out_states,
                sigs: &c1.sigs,
            },
            &mut AnalysisCache::new(),
        )
        .unwrap();
        assert_eq!(inc.nodes_reanalyzed, 0);
        assert_eq!(inc.evals, 0);
        assert_eq!(inc.class, c1.class);
    }
}
