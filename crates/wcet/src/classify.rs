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
//! each SCC is solved to its local fixpoint once all its predecessor SCCs
//! are done. Inside an SCC the solver runs a *priority worklist*: members
//! are (re-)evaluated in topological-position order, and a node re-enters
//! the worklist only when one of its inputs actually changed. Both choices
//! are pure scheduling: the must fixpoint is the greatest fixpoint of a
//! monotone system and the may fixpoint the least one, so each is unique
//! and chaotic iteration reaches it in *any* order — the worklist order
//! only affects how fast.
//!
//! The same uniqueness argument makes the solver parallel: independent
//! ready SCCs (indegree zero in the remaining condensation DAG) are
//! handed to a scoped worker pool (the `threads` knob threaded through
//! the engine). Each SCC is still solved by exactly one worker with a
//! deterministic worklist, and cross-SCC inputs are published
//! write-once, so the computed states — and every classification
//! derived from them — are bit-identical at any thread count.
//!
//! # Incremental re-analysis
//!
//! [`classify_incremental`] re-runs the fixpoint after a program edit that
//! preserves the CFG (prefetch insertion never adds blocks or edges). The
//! solver evaluates the SCCs of the dataflow graph in condensation order,
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use rtpf_cache::{join_pairs_into, CacheConfig, Classification, StatePair};
use rtpf_isa::{InstrKind, Layout, MemBlockId, Program};

use crate::acfg::Acfg;
use crate::error::AnalysisError;
use crate::memo::{AnalysisCache, NodeEval, NodeSig, Topology};
use crate::vivu::{NodeId, VivuGraph};

/// Per-reference classification results.
#[derive(Clone, Debug)]
pub struct ClassifyResult {
    /// Classification per [`RefId`](crate::acfg::RefId) index.
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
    /// Worklist evaluations performed (pops plus singleton solves;
    /// deterministic across thread counts — the per-SCC worklist order
    /// is fixed).
    pub iterations: usize,
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
    /// Nanoseconds spent joining predecessor states (memo misses only),
    /// summed across workers — CPU time, not wall clock, under `threads > 1`.
    pub join_ns: u64,
    /// Nanoseconds spent walking references (classify + fold per
    /// reference), summed across workers like [`join_ns`](Self::join_ns).
    pub transfer_ns: u64,
}

/// The parts of a previous classification that seed an incremental run.
///
/// `acfg` must be the reference graph the previous results were computed
/// on; reference ids are matched positionally per node, which is valid
/// because prefetch insertion preserves the VIVU node set.
#[derive(Clone, Copy)]
pub struct PrevPass<'a> {
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
///
/// Ready SCCs of the condensation DAG are solved on `threads` scoped
/// worker threads (`1` = in-place sequential). Results are bit-identical
/// at any thread count; only the eval/memo-hit and interned/fresh
/// *splits* may shift (their sums stay fixed), because a racing worker
/// can win the memo slot another would have filled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify_full_cached(
    p: &Program,
    layout: &Layout,
    vivu: &VivuGraph,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    cache: &AnalysisCache,
    threads: usize,
) -> Result<ClassifyResult, AnalysisError> {
    run_classify(
        p,
        layout,
        vivu,
        acfg,
        config,
        hw_next_line,
        None,
        cache,
        threads,
    )
}

/// Re-classifies after a CFG-preserving program edit, recomputing only the
/// SCCs whose touched-block signature or inputs changed (see the module
/// docs) and answering repeated node evaluations from `cache`, which is
/// shared across every analysis of the lineage. Produces results
/// identical to a from-scratch classification of the new program.
#[allow(clippy::too_many_arguments)]
pub fn classify_incremental(
    p: &Program,
    layout: &Layout,
    vivu: &VivuGraph,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    prev: PrevPass<'_>,
    cache: &AnalysisCache,
    threads: usize,
) -> Result<ClassifyResult, AnalysisError> {
    run_classify(
        p,
        layout,
        vivu,
        acfg,
        config,
        hw_next_line,
        Some(prev),
        cache,
        threads,
    )
}

/// Fills `buf` with one node's touched-block signature: the per-reference
/// sequence of `(own block, prefetch target block)` pairs, which
/// determines the node's transfer function entirely (hardware next-line
/// folds depend only on the fetched block). Reuses the caller's scratch
/// buffer so a classify pass allocates no per-node signature vectors.
/// `block_shift` is `log2(block_bytes)` — block sizes are validated powers
/// of two, and this runs for every reference of every pass, so the
/// address-to-block map is a shift rather than a 64-bit division.
fn fill_node_sig(
    p: &Program,
    layout: &Layout,
    acfg: &Acfg,
    block_shift: u32,
    nid: NodeId,
    buf: &mut Vec<(MemBlockId, Option<MemBlockId>)>,
) {
    buf.clear();
    for &r in acfg.refs_of_node(nid) {
        let reference = acfg.reference(r);
        let own = MemBlockId(layout.addr(reference.instr) >> block_shift);
        let pf = match p.instr(reference.instr).kind {
            InstrKind::Prefetch { target } => Some(MemBlockId(layout.addr(target) >> block_shift)),
            _ => None,
        };
        buf.push((own, pf));
    }
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
/// sorted by topological position. Shared across a lineage via
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

/// Classifies one reference and applies its fetch to the abstract state —
/// fused so the classification answers fall out of the update's own
/// binary searches — including the hardware next-line folds when enabled.
fn classify_touch(
    state: &mut StatePair,
    b: MemBlockId,
    hw_next_line: Option<u32>,
) -> Classification {
    let guaranteed = state.0.update_classify(b);
    let possible = state.1.update_classify(b);
    if let Some(n) = hw_next_line {
        for k in 1..=u64::from(n) {
            let nb = MemBlockId(b.0 + k);
            state.0.update(nb);
            state.1.update(nb);
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

/// Everything a worker needs to learn about a node once its component
/// converged. Published exactly once per node through a `OnceLock`, which
/// is both the cross-thread synchronization (a successor component reads
/// its external inputs here) and the proof that no state is ever
/// published twice.
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

/// Order-independent work counters, owned per worker and summed at the
/// end. The sums are deterministic at any thread count; only the
/// evals/memo-hits and interned/fresh *splits* can shift when workers
/// race for a memo slot.
#[derive(Clone, Copy, Default)]
struct Counters {
    iterations: usize,
    evals: u64,
    memo_hits: u64,
    states_interned: u64,
    states_fresh: u64,
    join_ns: u64,
    transfer_ns: u64,
}

impl Counters {
    fn merge(&mut self, o: Counters) {
        self.iterations += o.iterations;
        self.evals += o.evals;
        self.memo_hits += o.memo_hits;
        self.states_interned += o.states_interned;
        self.states_fresh += o.states_fresh;
        self.join_ns += o.join_ns;
        self.transfer_ns += o.transfer_ns;
    }
}

/// Per-worker scratch. All vectors are node-indexed and reused across
/// every component the worker solves, so a worker's steady-state
/// allocation rate is zero: joins merge into `work`, signatures and
/// inputs live in reusable buffers, and the worklist is a bitset plus a
/// binary heap of component-local indices.
pub(crate) struct WorkerState {
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
    c: Counters,
}

impl WorkerState {
    fn new(n: usize, empty: &StatePair) -> WorkerState {
        WorkerState {
            ins_buf: Vec::new(),
            cursors: Vec::new(),
            work: empty.clone(),
            local_out: vec![None; n],
            local_eval: vec![None; n],
            local_idx: vec![0; n],
            pend: vec![false; n],
            heap: BinaryHeap::new(),
            c: Counters::default(),
        }
    }

    /// Fetches a scratch from the lineage pool, falling back to a fresh
    /// one when the pool is empty or sized for a different graph. A
    /// successfully finished solve leaves every node-indexed vector in its
    /// initial state (worklist drained, local slots `take`n), so pooled
    /// reuse skips the per-pass allocation *and* zero-fill.
    fn acquire(cache: &AnalysisCache, n: usize, empty: &StatePair) -> WorkerState {
        match cache.take_scratch() {
            Some(ws) if ws.local_idx.len() == n => ws,
            _ => WorkerState::new(n, empty),
        }
    }

    /// Returns the scratch to the pool and hands back its counters. Only
    /// called on clean exits — a worker that errored mid-component drops
    /// its scratch instead, since the worklist invariants no longer hold.
    fn release(mut self, cache: &AnalysisCache) -> Counters {
        let c = self.c;
        self.c = Counters::default();
        self.ins_buf.clear();
        cache.put_scratch(self);
        c
    }
}

/// Read-only solver context shared by every worker.
struct Shared<'a> {
    top: &'a Topology,
    sigs: &'a [NodeSig],
    cache: &'a AnalysisCache,
    prev: Option<PrevPass<'a>>,
    dirty: Option<&'a [bool]>,
    hw_next_line: Option<u32>,
    published: &'a [OnceLock<NodeOutcome>],
}

impl Shared<'_> {
    fn publish(&self, i: usize, outcome: NodeOutcome) {
        if self.published[i].set(outcome).is_err() {
            unreachable!("node {i} published twice — a component was scheduled twice");
        }
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
    /// with its ∅ bottom. Cross-component predecessors are always
    /// published before this component is scheduled.
    fn eval_node(&self, cid: usize, i: usize, ws: &mut WorkerState) -> Arc<NodeEval> {
        ws.ins_buf.clear();
        for &pr in self.top.preds(i) {
            let pr = pr as usize;
            if self.top.comp_id(pr) == cid {
                if let Some(a) = &ws.local_out[pr] {
                    ws.ins_buf.push(Arc::clone(a));
                }
            } else {
                let ext = self.published[pr]
                    .get()
                    .expect("external predecessor published before scheduling");
                ws.ins_buf.push(Arc::clone(&ext.out));
            }
        }
        if let Some(hit) = self.cache.lookup(&self.sigs[i], &ws.ins_buf) {
            ws.c.memo_hits += 1;
            return hit;
        }
        ws.c.evals += 1;
        let t_join = Instant::now();
        join_pairs_into(&mut ws.work, &ws.ins_buf, &mut ws.cursors);
        let t_walk = Instant::now();
        ws.c.join_ns += t_walk.duration_since(t_join).as_nanos() as u64;
        let sig = &self.sigs[i];
        let mut class = Vec::with_capacity(sig.len());
        for &(own, pf) in sig.iter() {
            class.push(classify_touch(&mut ws.work, own, self.hw_next_line));
            if let Some(tb) = pf {
                ws.work.0.update(tb);
                ws.work.1.update(tb);
            }
        }
        ws.c.transfer_ns += t_walk.elapsed().as_nanos() as u64;
        let (stored, fresh) = self.cache.store(sig, &ws.ins_buf, &ws.work, class);
        if fresh {
            ws.c.states_fresh += 1;
        } else {
            ws.c.states_interned += 1;
        }
        stored
    }

    /// Solves component `cid` to its local fixpoint and publishes every
    /// member's outcome. Exactly one worker runs this per component, and
    /// only after all predecessor components have been published.
    fn process_comp(&self, cid: usize, ws: &mut WorkerState) -> Result<(), AnalysisError> {
        let comp = self.top.comp(cid);
        // Incremental cutoff: skip the whole component when no member's
        // signature and no external input changed (see module docs).
        let recompute = match (self.prev, self.dirty) {
            (Some(_), Some(dirty)) => comp.iter().any(|&i| {
                let i = i as usize;
                dirty[i]
                    || self.top.preds(i).iter().any(|&pr| {
                        let pr = pr as usize;
                        self.top.comp_id(pr) != cid
                            && self.published[pr]
                                .get()
                                .expect("external predecessor published before scheduling")
                                .changed
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
        if comp.len() == 1 && !self.top.preds(comp[0] as usize).contains(&comp[0]) {
            // Acyclic singleton: one evaluation is the exact solution.
            let i = comp[0] as usize;
            ws.c.iterations += 1;
            let ev = self.eval_node(cid, i, ws);
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
        while let Some(Reverse(k)) = ws.heap.pop() {
            let i = comp[k as usize] as usize;
            if !ws.pend[i] {
                continue;
            }
            ws.pend[i] = false;
            pops += 1;
            if pops > limit {
                ws.heap.clear();
                return Err(AnalysisError::FixpointDiverged { iterations: pops });
            }
            let ev = self.eval_node(cid, i, ws);
            let same = ws.local_out[i]
                .as_ref()
                .is_some_and(|old| Arc::ptr_eq(old, &ev.out) || **old == *ev.out);
            if !same {
                ws.local_out[i] = Some(Arc::clone(&ev.out));
                for &s in self.top.succs(i) {
                    let s = s as usize;
                    if self.top.comp_id(s) == cid && !ws.pend[s] {
                        ws.pend[s] = true;
                        ws.heap.push(Reverse(ws.local_idx[s]));
                    }
                }
            }
            ws.local_eval[i] = Some(ev);
        }
        ws.c.iterations += pops;
        for &i in comp {
            let i = i as usize;
            let out = ws.local_out[i]
                .take()
                .expect("fixpoint computed every member");
            let eval = ws.local_eval[i]
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

/// Runs ready components on `threads` scoped workers. The condensation
/// DAG is walked with per-component indegree counters: a component enters
/// the ready queue when its last predecessor completes, so a worker never
/// reads an unpublished external input.
fn solve_parallel(
    shared: &Shared<'_>,
    n: usize,
    empty: &StatePair,
    threads: usize,
) -> Result<Counters, AnalysisError> {
    let top = shared.top;
    let n_comps = top.n_comps();
    let indeg: Vec<AtomicU32> = (0..n_comps)
        .map(|c| AtomicU32::new(top.comp_indegree(c)))
        .collect();
    let ready: Mutex<VecDeque<u32>> = Mutex::new(
        (0..n_comps as u32)
            .filter(|&c| top.comp_indegree(c as usize) == 0)
            .collect(),
    );
    let cvar = Condvar::new();
    let open = AtomicUsize::new(n_comps);
    let done = AtomicBool::new(n_comps == 0);
    let failure: Mutex<Option<AnalysisError>> = Mutex::new(None);

    let mut totals = Counters::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut ws = WorkerState::acquire(shared.cache, n, empty);
                    loop {
                        let cid = {
                            let mut q = ready.lock().expect("scheduler queue poisoned");
                            loop {
                                if done.load(Ordering::Acquire) {
                                    return ws.release(shared.cache);
                                }
                                if let Some(c) = q.pop_front() {
                                    break c;
                                }
                                q = cvar.wait(q).expect("scheduler queue poisoned");
                            }
                        } as usize;
                        match shared.process_comp(cid, &mut ws) {
                            Ok(()) => {
                                for &sc in top.comp_succs(cid) {
                                    if indeg[sc as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                        let mut q = ready.lock().expect("scheduler queue poisoned");
                                        q.push_back(sc);
                                        cvar.notify_one();
                                    }
                                }
                                if open.fetch_sub(1, Ordering::AcqRel) == 1 {
                                    // Flip `done` under the queue lock so a
                                    // worker between its `done` check and
                                    // `wait` cannot miss the wakeup.
                                    let _q = ready.lock().expect("scheduler queue poisoned");
                                    done.store(true, Ordering::Release);
                                    cvar.notify_all();
                                }
                            }
                            Err(e) => {
                                let mut f = failure.lock().expect("failure slot poisoned");
                                if f.is_none() {
                                    *f = Some(e);
                                }
                                drop(f);
                                let _q = ready.lock().expect("scheduler queue poisoned");
                                done.store(true, Ordering::Release);
                                cvar.notify_all();
                                return ws.c;
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            totals.merge(w.join().expect("classify worker panicked"));
        }
    });
    match failure.into_inner().expect("failure slot poisoned") {
        Some(e) => Err(e),
        None => Ok(totals),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_classify(
    p: &Program,
    layout: &Layout,
    vivu: &VivuGraph,
    acfg: &Acfg,
    config: &CacheConfig,
    hw_next_line: Option<u32>,
    prev: Option<PrevPass<'_>>,
    cache: &AnalysisCache,
    threads: usize,
) -> Result<ClassifyResult, AnalysisError> {
    let n = vivu.len();
    // No-information sentinel for predecessor-less nodes. Cloning it is
    // allocation-free (empty packed-word vectors) — see `rtpf_cache::no_info`.
    let empty: StatePair = rtpf_cache::no_info(config);

    // Adjacency (with back edges) and SCC condensation are identical for
    // every analysis of the lineage — fetched from the shared cache,
    // built on the first pass.
    let top = cache.topology(|| build_topology(vivu));

    let block_shift = config.block_bytes().trailing_zeros();
    // Canonicalize signatures through the lineage cache: a node whose
    // signature content is unchanged keeps the previous pass's `Arc`
    // (no hashing), everything else is interned so content-equal
    // signatures across candidate analyses share one pointer. The memo
    // key is then a pure pointer tuple. `dirty[i]` falls out for free.
    // One scratch buffer serves every node; the interner copies on miss.
    let mut scratch: Vec<(MemBlockId, Option<MemBlockId>)> = Vec::new();
    let mut sigs: Vec<NodeSig> = Vec::with_capacity(n);
    let dirty: Option<Vec<bool>> = match prev {
        Some(pv) => {
            let mut d = Vec::with_capacity(n);
            for i in 0..n {
                fill_node_sig(p, layout, acfg, block_shift, NodeId(i as u32), &mut scratch);
                if pv.sigs[i].as_slice() == scratch.as_slice() {
                    sigs.push(Arc::clone(&pv.sigs[i]));
                    d.push(false);
                } else {
                    sigs.push(cache.intern_sig(&scratch));
                    d.push(true);
                }
            }
            Some(d)
        }
        None => {
            for i in 0..n {
                fill_node_sig(p, layout, acfg, block_shift, NodeId(i as u32), &mut scratch);
                sigs.push(cache.intern_sig(&scratch));
            }
            None
        }
    };

    let published: Vec<OnceLock<NodeOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let shared = Shared {
        top: &top,
        sigs: &sigs,
        cache,
        prev,
        dirty: dirty.as_deref(),
        hw_next_line,
        published: &published,
    };

    // One worker per ready component up to `threads`; a single worker
    // walks the condensation order in place, with no pool, no atomics
    // traffic, and the same deterministic per-component worklist.
    let threads = threads.max(1).min(top.n_comps().max(1));
    let totals = if threads == 1 {
        let mut ws = WorkerState::acquire(cache, n, &empty);
        for cid in 0..top.n_comps() {
            shared.process_comp(cid, &mut ws)?;
        }
        ws.release(cache)
    } else {
        solve_parallel(&shared, n, &empty, threads)?
    };

    let outcomes: Vec<NodeOutcome> = published
        .into_iter()
        .map(|o| o.into_inner().expect("scheduler published every node"))
        .collect();

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
        iterations: totals.iterations,
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
        threads: usize,
    ) -> ClassifyResult {
        let cache = AnalysisCache::new();
        classify_full_cached(p, layout, v, a, config, hw_next_line, &cache, threads).unwrap()
    }

    fn run(shape: Shape, config: CacheConfig) -> (Program, Acfg, ClassifyResult) {
        let p = shape.compile("t");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c = classify_with(&p, &layout, &v, &a, &config, None, 1);
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
        let c = classify_with(&p, &layout, &v, &a, &cfg, None, 1);
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
        let c = classify_with(&p, &layout, &v, &a, &cfg, None, 1);
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
        let c = classify_with(&p, &layout, &v, &a, &cfg, None, 1);
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
        let plain = classify_with(&p, &layout, &v, &a, &cfg, None, 1);
        let hw = classify_with(&p, &layout, &v, &a, &cfg, Some(1), 1);
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
    fn parallel_solve_matches_sequential() {
        // Non-trivial nesting so the condensation has real width and real
        // cyclic components; 3 workers must reproduce the 1-worker result
        // bit for bit.
        let cfg = CacheConfig::new(2, 16, 128).unwrap();
        let p = Shape::seq([
            Shape::code(6),
            Shape::loop_(
                8,
                Shape::seq([Shape::code(4), Shape::loop_(3, Shape::code(6))]),
            ),
            Shape::if_else(1, Shape::code(10), Shape::loop_(5, Shape::code(7))),
            Shape::code(5),
        ])
        .compile("par");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let seq = classify_with(&p, &layout, &v, &a, &cfg, None, 1);
        let par = classify_with(&p, &layout, &v, &a, &cfg, None, 3);
        assert_eq!(par.class, seq.class);
        assert_eq!(par.mem_block, seq.mem_block);
        assert_eq!(par.pf_block, seq.pf_block);
        assert_eq!(par.iterations, seq.iterations);
        assert_eq!(par.evals + par.memo_hits, seq.evals + seq.memo_hits);
        for (a, b) in par.out_states.iter().zip(&seq.out_states) {
            assert_eq!(**a, **b);
        }
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
        let c1 = classify_with(&p1, &layout1, &v, &a1, &cfg, None, 1);

        let mut p2 = p1.clone();
        let b0 = p2.entry();
        let target = p2.block(b0).instrs()[4];
        p2.insert_instr(b0, 1, InstrKind::Prefetch { target })
            .unwrap();
        let anchor = p2.block(b0).instrs()[0];
        let layout2 = Layout::anchored(&p2, anchor, layout1.addr(anchor));

        let a2 = Acfg::build(&p2, &v);
        let full = classify_with(&p2, &layout2, &v, &a2, &cfg, None, 1);
        let inc = classify_incremental(
            &p2,
            &layout2,
            &v,
            &a2,
            &cfg,
            None,
            PrevPass {
                acfg: &a1,
                class: &c1.class,
                mem_block: &c1.mem_block,
                pf_block: &c1.pf_block,
                out_states: &c1.out_states,
                sigs: &c1.sigs,
            },
            &AnalysisCache::new(),
            1,
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
    fn incremental_with_no_change_reuses_everything() {
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let p = Shape::loop_(10, Shape::code(8)).compile("same");
        let layout = Layout::of(&p);
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        let c1 = classify_with(&p, &layout, &v, &a, &cfg, None, 1);
        let inc = classify_incremental(
            &p,
            &layout,
            &v,
            &a,
            &cfg,
            None,
            PrevPass {
                acfg: &a,
                class: &c1.class,
                mem_block: &c1.mem_block,
                pf_block: &c1.pf_block,
                out_states: &c1.out_states,
                sigs: &c1.sigs,
            },
            &AnalysisCache::new(),
            1,
        )
        .unwrap();
        assert_eq!(inc.nodes_reanalyzed, 0);
        assert_eq!(inc.evals, 0);
        assert_eq!(inc.class, c1.class);
    }
}
