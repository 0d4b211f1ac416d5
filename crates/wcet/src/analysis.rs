//! End-to-end WCET analysis: VIVU → classification → IPET.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rtpf_cache::{
    CacheAccessClassification, CacheConfig, Classification, HierarchyConfig, MemTiming,
    RefineConfig, RefineMark, StatePair,
};
use rtpf_isa::{Layout, MemBlockId, Program};

use crate::acfg::{Acfg, RefId};
use crate::classify::{self, ClassifyResult, Halves, PrevPass};
use crate::error::AnalysisError;
use crate::ipet;
use crate::l2;
use crate::memo::{AnalysisCache, NodeSig};
use crate::profile::AnalysisProfile;
use crate::refine::{self, RefineStats};
use crate::vivu::{NodeId, VivuGraph};

/// Result of analysing one program under one cache configuration.
///
/// Holds everything the prefetch optimizer needs: the reference graph, the
/// per-reference classification and worst-case access time `t_w(r)`, the
/// WCET-scenario execution counts `n^w`, and the total memory contribution
/// `τ_w` to the WCET.
///
/// The analysis also retains its per-context abstract cache states, so a
/// follow-up analysis of the *same CFG* (e.g. after the optimizer inserts
/// a prefetch instruction) can run incrementally via
/// [`reanalyze_after_insert`](WcetAnalysis::reanalyze_after_insert). The
/// evaluation memo such re-analyses share is not part of the analysis:
/// the caller owns it as an [`AnalysisCache`].
#[derive(Clone, Debug)]
pub struct WcetAnalysis {
    layout: Layout,
    vivu: Arc<VivuGraph>,
    acfg: Acfg,
    config: CacheConfig,
    /// Second-level geometry, when the analysed hierarchy has one. `None`
    /// keeps every L2 code path inert and the analysis bit-identical to
    /// the historical single-level one.
    l2: Option<CacheConfig>,
    /// Per-reference L2 classification (empty when `l2` is `None`),
    /// computed by the Hardy & Puaut filtered post-pass.
    l2_class: Vec<Classification>,
    /// Per-reference L1-outcome filter the L2 updates ran under (empty
    /// when `l2` is `None`).
    l2_cac: Vec<CacheAccessClassification>,
    timing: MemTiming,
    hw_next_line: Option<u32>,
    refine: RefineConfig,
    /// Fingerprint of the analysed program's CFG (blocks, edges, loop
    /// bounds); incremental re-analysis requires it to be unchanged.
    cfg_sig: u64,
    /// The state halves the fixpoint ran ([`Halves::for_config`]). Under
    /// [`Halves::Must`] `class` and `cheap_class` decide always-hit only
    /// (every other reference reads unclassified) and `split` holds the
    /// full answer once something reads it.
    halves: Halves,
    /// Final classification: the cheap fixpoint result, with every
    /// upgrade the refinement stage proved applied on top. Feeds `t_w`,
    /// IPET, and the optimizer's profitability inputs, none of which
    /// reads more than its always-hit bit.
    class: Vec<Classification>,
    /// The *unrefined* fixpoint classification. Incremental re-analysis
    /// seeds from this vector, never the refined one: the skipped-SCC
    /// positional copy must reproduce exactly what the fixpoint would
    /// compute, and a positionally-copied refined upgrade could go stale
    /// when another context of the same cache set changes. Refinement
    /// instead re-runs deterministically after every (re-)classification.
    cheap_class: Vec<Classification>,
    /// The always-hit / always-miss / unclassified classification of a
    /// [`Halves::Must`] analysis, computed on first read by a may-only
    /// run over this analysis's own graph and signatures. Refinement and
    /// the L2 pass never run under that mode, so one vector serves as
    /// both the refined and the cheap classification. Unused under
    /// [`Halves::Both`].
    split: OnceLock<Vec<Classification>>,
    /// What the refinement stage did to each reference.
    marks: Vec<RefineMark>,
    refine_stats: RefineStats,
    mem_block: Vec<MemBlockId>,
    pf_block: Vec<Option<MemBlockId>>,
    out_states: Vec<Arc<StatePair>>,
    /// Per-node touched-block signatures, kept for change detection in the
    /// next incremental step.
    sigs: Vec<NodeSig>,
    t_w: Vec<u64>,
    n_w: Vec<u64>,
    on_path: Vec<bool>,
    tau_w: u64,
    profile: AnalysisProfile,
}

/// Hash of everything the VIVU construction depends on: entry, block set,
/// edges (with kinds), and loop bounds. Instruction edits that keep this
/// stable keep the context graph valid.
fn cfg_signature(p: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    p.entry().hash(&mut h);
    p.block_count().hash(&mut h);
    for b in p.block_ids() {
        b.hash(&mut h);
        p.succs(b).hash(&mut h);
        p.loop_bound(b).hash(&mut h);
    }
    h.finish()
}

impl WcetAnalysis {
    /// Analyses `p` under the default base layout.
    ///
    /// # Errors
    ///
    /// Fails if `p` is structurally invalid or the analysis blows its
    /// context budget.
    pub fn analyze(
        p: &Program,
        config: &CacheConfig,
        timing: &MemTiming,
    ) -> Result<Self, AnalysisError> {
        Self::analyze_full(
            p,
            Layout::of(p),
            &HierarchyConfig::l1_only(*config),
            timing,
            None,
            RefineConfig::default(),
            &mut AnalysisCache::new(),
        )
    }

    /// Analyses `p` under an explicit layout and a full cache
    /// [`HierarchyConfig`] (the engine's entry point; the optimizer's
    /// relocated layouts come through here too). With an L2 level the
    /// refined L1 classification drives Hardy & Puaut's filtered L2
    /// must/may pass, and `t_w` charges [`MemTiming::l2_hit_cycles`] for
    /// L1 misses the L2 analysis proves always-hit.
    ///
    /// `refine` configures the exact FIFO/tree-PLRU refinement; under LRU
    /// or with refinement disabled the result is bit-identical to the
    /// unrefined analysis.
    ///
    /// # Errors
    ///
    /// Fails if `p` is structurally invalid or the analysis blows its
    /// context budget.
    pub fn analyze_hierarchy(
        p: &Program,
        layout: Layout,
        hierarchy: &HierarchyConfig,
        timing: &MemTiming,
        refine: RefineConfig,
    ) -> Result<Self, AnalysisError> {
        Self::analyze_hierarchy_in(
            p,
            layout,
            hierarchy,
            timing,
            refine,
            &mut AnalysisCache::new(),
        )
    }

    /// [`analyze_hierarchy`](WcetAnalysis::analyze_hierarchy) as the root
    /// of a lineage whose evaluations land in the caller-owned `cache`.
    /// Passing the same cache to every
    /// [`reanalyze_after_insert`](WcetAnalysis::reanalyze_after_insert)
    /// derived from the result lets those re-analyses reuse them; the
    /// cache starts over if it held another lineage.
    ///
    /// # Errors
    ///
    /// Fails if `p` is structurally invalid or the analysis blows its
    /// context budget.
    pub fn analyze_hierarchy_in(
        p: &Program,
        layout: Layout,
        hierarchy: &HierarchyConfig,
        timing: &MemTiming,
        refine: RefineConfig,
        cache: &mut AnalysisCache,
    ) -> Result<Self, AnalysisError> {
        Self::analyze_full(p, layout, hierarchy, timing, None, refine, cache)
    }

    /// Analyses `p` assuming an always-on **next-N-line hardware
    /// prefetcher** (the abstract-semantics extension of the paper's
    /// reference \[22\]). The bound assumes ideal prefetch timing and is
    /// therefore optimistic (see the `classify` module).
    ///
    /// # Errors
    ///
    /// Fails if `p` is structurally invalid or the analysis blows its
    /// context budget.
    pub fn analyze_with_hw_next_line(
        p: &Program,
        config: &CacheConfig,
        timing: &MemTiming,
        n: u32,
    ) -> Result<Self, AnalysisError> {
        Self::analyze_full(
            p,
            Layout::of(p),
            &HierarchyConfig::l1_only(*config),
            timing,
            Some(n),
            RefineConfig::default(),
            &mut AnalysisCache::new(),
        )
    }

    fn analyze_full(
        p: &Program,
        layout: Layout,
        hierarchy: &HierarchyConfig,
        timing: &MemTiming,
        hw_next_line: Option<u32>,
        refine: RefineConfig,
        cache: &mut AnalysisCache,
    ) -> Result<Self, AnalysisError> {
        let halves = Halves::for_config(hierarchy, refine);
        Self::analyze_in_mode(
            p,
            layout,
            hierarchy,
            timing,
            hw_next_line,
            refine,
            halves,
            cache,
        )
    }

    /// [`analyze_full`](Self::analyze_full) with the fixpoint's halves
    /// given rather than derived from the configuration; tests pass
    /// [`Halves::Both`] to compare a must-only analysis against the fused
    /// one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn analyze_in_mode(
        p: &Program,
        layout: Layout,
        hierarchy: &HierarchyConfig,
        timing: &MemTiming,
        hw_next_line: Option<u32>,
        refine: RefineConfig,
        halves: Halves,
        cache: &mut AnalysisCache,
    ) -> Result<Self, AnalysisError> {
        let t0 = Instant::now();
        let vivu = Arc::new(VivuGraph::build(p)?);
        let acfg = Acfg::build(p, &vivu);
        let vivu_ns = t0.elapsed().as_nanos() as u64;

        // A new VIVU graph roots a new lineage: the cache starts empty.
        cache.bind(&vivu, halves);
        let t1 = Instant::now();
        let cls = classify::classify_full_cached(
            p,
            &layout,
            &vivu,
            &acfg,
            hierarchy.l1(),
            hw_next_line,
            halves,
            cache,
        )?;
        let fixpoint_ns = t1.elapsed().as_nanos() as u64;

        Self::finish(
            cfg_signature(p),
            layout,
            vivu,
            acfg,
            hierarchy,
            timing,
            hw_next_line,
            refine,
            halves,
            cls,
            cache,
            vivu_ns,
            fixpoint_ns,
            false,
        )
    }

    /// Shared tail of full and incremental analysis: timing vector, node
    /// weights, IPET, and profile assembly. `cfg_sig` is the analysed
    /// program's `cfg_signature`.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        cfg_sig: u64,
        layout: Layout,
        vivu: Arc<VivuGraph>,
        acfg: Acfg,
        hierarchy: &HierarchyConfig,
        timing: &MemTiming,
        hw_next_line: Option<u32>,
        refine: RefineConfig,
        halves: Halves,
        cls: ClassifyResult,
        cache: &mut AnalysisCache,
        vivu_ns: u64,
        fixpoint_ns: u64,
        incremental: bool,
    ) -> Result<Self, AnalysisError> {
        let config = hierarchy.l1();
        // Exact refinement of the cheap classification (a deterministic
        // post-pass, so incremental and full analyses stay bit-identical).
        // The unrefined vector is retained: it alone seeds the next
        // incremental step.
        let cheap_class = cls.class;
        let mut class = cheap_class.clone();
        let top = cache.topology(|| classify::build_topology(&vivu));
        let t_refine = Instant::now();
        let (marks, refine_stats) = refine::refine_classification(
            &vivu,
            &top,
            &acfg,
            config,
            refine,
            hw_next_line,
            &cls.sigs,
            &cls.mem_block,
            &mut class,
        );
        let refine_ns = t_refine.elapsed().as_nanos() as u64;

        // Second-level classification: a deterministic post-pass fed by
        // the *refined* L1 classes (the level-wise composition — refine
        // runs per level in the sense that its upgrades tighten the L2
        // filter). Recomputed from scratch every finish, so incremental
        // and full analyses agree by construction. The hardware next-line
        // model stays a single-level analysis.
        let l2_cfg = if hw_next_line.is_some() {
            None
        } else {
            hierarchy.l2().copied()
        };
        let (l2_class, l2_cac) = match &l2_cfg {
            Some(l2cfg) => {
                let r = l2::classify_l2(&vivu, &top, &acfg, l2cfg, &class, &cls.sigs)?;
                (r.class, r.cac)
            }
            None => (Vec::new(), Vec::new()),
        };

        // Per-reference worst-case access time, from the refined view.
        // With an L2 level, an L1 miss the L2 analysis proves always-hit
        // is served in `l2_hit_cycles` instead of the DRAM time.
        let l2_hit_cycles = timing.l2_hit_cycles.unwrap_or(timing.miss_cycles);
        let t_w: Vec<u64> = class
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if !c.counts_as_miss() {
                    timing.hit_cycles
                } else if l2_cfg.is_some() && l2_class[i] == Classification::AlwaysHit {
                    l2_hit_cycles
                } else {
                    timing.miss_cycles
                }
            })
            .collect();

        let t2 = Instant::now();
        // Node weights: Σ t_w over the node's references × multiplicity.
        let node_weight: Vec<u64> = (0..vivu.len())
            .map(|i| {
                let n = NodeId(i as u32);
                acfg.refs_of_node(n)
                    .iter()
                    .try_fold(0u64, |sum, r| sum.checked_add(t_w[r.index()]))
                    .and_then(|sum| sum.checked_mul(vivu.node(n).mult))
                    .ok_or(AnalysisError::Overflow)
            })
            .collect::<Result<_, _>>()?;

        let ipet = cache
            .ipet_graph(|| ipet::IpetGraph::build(&vivu))?
            .solve(&vivu, node_weight)?;
        let n_w: Vec<u64> = acfg
            .refs()
            .iter()
            .map(|r| ipet.n_w[r.node.index()])
            .collect();
        let ipet_ns = t2.elapsed().as_nanos() as u64;

        let profile = AnalysisProfile {
            vivu_ns,
            fixpoint_ns,
            join_ns: cls.join_ns,
            transfer_ns: cls.transfer_ns,
            refine_ns,
            ipet_ns,
            relocation_ns: 0,
            fixpoint_evals: cls.evals,
            memo_hits: cls.memo_hits,
            states_interned: cls.states_interned,
            states_fresh: cls.states_fresh,
            full_analyses: u64::from(!incremental),
            incremental_analyses: u64::from(incremental),
            nodes_total: vivu.len() as u64,
            nodes_reanalyzed: cls.nodes_reanalyzed as u64,
            ..AnalysisProfile::default()
        };

        Ok(WcetAnalysis {
            layout,
            vivu,
            acfg,
            config: *config,
            l2: l2_cfg,
            l2_class,
            l2_cac,
            timing: *timing,
            hw_next_line,
            refine,
            cfg_sig,
            halves,
            class,
            cheap_class,
            split: OnceLock::new(),
            marks,
            refine_stats,
            mem_block: cls.mem_block,
            pf_block: cls.pf_block,
            out_states: cls.out_states,
            sigs: cls.sigs,
            t_w,
            n_w,
            on_path: ipet.on_path,
            tau_w: ipet.tau_w,
            profile,
        })
    }

    /// Re-analyses `p2` (the analysed program after one or more
    /// instruction insertions that preserve the CFG — blocks, edges, and
    /// loop bounds) by reusing this analysis's VIVU context graph and
    /// abstract cache states. Only condensation components holding a
    /// context whose touched-block signature changed — or receiving a
    /// changed input — are pushed through the must/may fixpoint, and
    /// recomputed node evaluations resolve from the lineage's memo in
    /// `cache` whenever the same transfer was already applied to the same
    /// inputs; IPET re-solves the lineage's frozen graph under the new
    /// weights. `cache` is the one this analysis's lineage was rooted in
    /// ([`analyze_hierarchy_in`](WcetAnalysis::analyze_hierarchy_in)); any
    /// other cache starts over empty, which costs memo hits but changes no
    /// result.
    ///
    /// The result is *identical* to a from-scratch
    /// [`analyze_hierarchy`](WcetAnalysis::analyze_hierarchy) of
    /// `(p2, layout2)` — see the `classify` module docs for the fixpoint
    /// uniqueness argument; debug builds cross-check this. If the CFG
    /// *did* change, the call transparently falls back to a full
    /// analysis, which roots a new lineage in an emptied `cache`.
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as a full analysis.
    pub fn reanalyze_after_insert(
        &self,
        p2: &Program,
        layout2: Layout,
        cache: &mut AnalysisCache,
    ) -> Result<Self, AnalysisError> {
        let cfg_sig = cfg_signature(p2);
        if cfg_sig != self.cfg_sig {
            return Self::analyze_full(
                p2,
                layout2,
                &self.hierarchy(),
                &self.timing,
                self.hw_next_line,
                self.refine,
                cache,
            );
        }

        let t0 = Instant::now();
        let vivu = Arc::clone(&self.vivu);
        let acfg = Acfg::build(p2, &vivu);
        let vivu_ns = t0.elapsed().as_nanos() as u64;

        cache.bind(&vivu, self.halves);
        let t1 = Instant::now();
        let cls = classify::classify_incremental(
            p2,
            &layout2,
            &vivu,
            &acfg,
            &self.config,
            self.hw_next_line,
            self.halves,
            PrevPass {
                acfg: &self.acfg,
                // Seed from the *cheap* classification: the skipped-SCC
                // positional copy must reproduce the fixpoint's own
                // output; refinement re-runs on top in `finish`.
                class: &self.cheap_class,
                mem_block: &self.mem_block,
                pf_block: &self.pf_block,
                out_states: &self.out_states,
                sigs: &self.sigs,
            },
            cache,
        )?;
        let fixpoint_ns = t1.elapsed().as_nanos() as u64;

        let result = Self::finish(
            cfg_sig,
            layout2,
            vivu,
            acfg,
            &self.hierarchy(),
            &self.timing,
            self.hw_next_line,
            self.refine,
            self.halves,
            cls,
            cache,
            vivu_ns,
            fixpoint_ns,
            true,
        )?;

        #[cfg(debug_assertions)]
        {
            let full = Self::analyze_full(
                p2,
                result.layout.clone(),
                &self.hierarchy(),
                &self.timing,
                self.hw_next_line,
                self.refine,
                &mut AnalysisCache::new(),
            )?;
            debug_assert_eq!(
                result.tau_w, full.tau_w,
                "incremental re-analysis diverged from from-scratch τ_w"
            );
            debug_assert_eq!(
                result.on_path, full.on_path,
                "incremental re-analysis diverged from from-scratch WCET path"
            );
            debug_assert_eq!(
                result.class, full.class,
                "incremental re-analysis diverged from from-scratch classification"
            );
            debug_assert_eq!(
                result.cheap_class, full.cheap_class,
                "incremental re-analysis diverged from from-scratch cheap classification"
            );
        }

        Ok(result)
    }

    /// The memory system's contribution to the WCET (`τ_w`, Eq. 3).
    #[inline]
    pub fn tau_w(&self) -> u64 {
        self.tau_w
    }

    /// The layout the analysis ran under.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The VIVU context graph.
    #[inline]
    pub fn vivu(&self) -> &VivuGraph {
        &self.vivu
    }

    /// The reference graph (ACFG).
    #[inline]
    pub fn acfg(&self) -> &Acfg {
        &self.acfg
    }

    /// The cache geometry analysed against (the L1 level).
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The second-level geometry, when the analysed hierarchy has one.
    #[inline]
    pub fn l2_config(&self) -> Option<&CacheConfig> {
        self.l2.as_ref()
    }

    /// The full hierarchy this analysis ran under.
    pub fn hierarchy(&self) -> HierarchyConfig {
        match self.l2 {
            Some(l2) => HierarchyConfig::two_level(self.config, l2)
                .expect("hierarchy validated at analysis entry"),
            None => HierarchyConfig::l1_only(self.config),
        }
    }

    /// L2 classification of reference `r` — `None` for a single-level
    /// hierarchy. For a reference whose access never reaches L2 (L1
    /// always-hit) the value is
    /// [`Classification::Unclassified`]: no claim is made.
    #[inline]
    pub fn l2_classification(&self, r: RefId) -> Option<Classification> {
        self.l2.map(|_| self.l2_class[r.index()])
    }

    /// The L1-outcome filter reference `r`'s L2 update ran under — `None`
    /// for a single-level hierarchy.
    #[inline]
    pub fn l2_cac(&self, r: RefId) -> Option<CacheAccessClassification> {
        self.l2.map(|_| self.l2_cac[r.index()])
    }

    /// The timing model analysed against.
    #[inline]
    pub fn timing(&self) -> &MemTiming {
        &self.timing
    }

    /// Per-phase timings and work counters for this analysis run.
    #[inline]
    pub fn profile(&self) -> &AnalysisProfile {
        &self.profile
    }

    /// The refined and the cheap classification vectors, with the
    /// always-miss/unclassified split: the fixpoint's own vectors when it
    /// ran both halves, else the split computed on first read (see the
    /// `classify` module docs).
    fn classes(&self) -> (&[Classification], &[Classification]) {
        if self.halves == Halves::Both {
            return (&self.class, &self.cheap_class);
        }
        let split = self.split.get_or_init(|| {
            debug_assert_eq!(
                self.class, self.cheap_class,
                "no refinement without the may half"
            );
            let may = classify::classify_may(
                &self.vivu,
                &self.acfg,
                &self.config,
                self.hw_next_line,
                &self.sigs,
            )
            .expect("the may half converges wherever the must half did");
            self.class
                .iter()
                .zip(may)
                .map(|(&c, m)| if c == Classification::AlwaysHit { c } else { m })
                .collect()
        });
        (split, split)
    }

    /// The state halves the fixpoint ran.
    #[cfg(test)]
    pub(crate) fn halves(&self) -> Halves {
        self.halves
    }

    /// Whether the always-miss/unclassified split of a must-only analysis
    /// has been computed.
    #[cfg(test)]
    pub(crate) fn split_computed(&self) -> bool {
        self.split.get().is_some()
    }

    /// Classification of reference `r` (refined, when the refinement
    /// stage upgraded it). The first call on an analysis whose fixpoint
    /// ran the must half alone computes the always-miss/unclassified
    /// split for every reference; [`always_hits`](Self::always_hits)
    /// answers the part `τ_w` prices without it.
    #[inline]
    pub fn classification(&self, r: RefId) -> Classification {
        self.classes().0[r.index()]
    }

    /// Whether reference `r` is classified always-hit (refined, when the
    /// refinement stage upgraded it) — the one bit of the classification
    /// that `t_w` prices. Never computes the always-miss/unclassified
    /// split.
    #[inline]
    pub fn always_hits(&self, r: RefId) -> bool {
        self.class[r.index()] == Classification::AlwaysHit
    }

    /// The cheap (unrefined) fixpoint classification of reference `r`.
    /// Differs from [`classification`](WcetAnalysis::classification) only
    /// on references the refinement stage upgraded.
    #[inline]
    pub fn cheap_classification(&self, r: RefId) -> Classification {
        self.classes().1[r.index()]
    }

    /// What the refinement stage did to reference `r`.
    #[inline]
    pub fn refine_mark(&self, r: RefId) -> RefineMark {
        self.marks[r.index()]
    }

    /// The refinement configuration this analysis ran under.
    #[inline]
    pub fn refine_config(&self) -> RefineConfig {
        self.refine
    }

    /// Outcome counters of the refinement stage.
    #[inline]
    pub fn refine_stats(&self) -> &RefineStats {
        &self.refine_stats
    }

    /// Worst-case access time `t_w(r)` in cycles.
    #[inline]
    pub fn t_w(&self, r: RefId) -> u64 {
        self.t_w[r.index()]
    }

    /// WCET-scenario execution count of `r`'s basic-block instance
    /// (`n^w_{B(r)}`).
    #[inline]
    pub fn n_w(&self, r: RefId) -> u64 {
        self.n_w[r.index()]
    }

    /// Whether `r` lies on the WCET path.
    #[inline]
    pub fn on_wcet_path(&self, r: RefId) -> bool {
        self.n_w[r.index()] > 0
    }

    /// Whether the VIVU node lies on the WCET path.
    #[inline]
    pub fn node_on_wcet_path(&self, n: NodeId) -> bool {
        self.on_path[n.index()]
    }

    /// Memory block fetched by reference `r`.
    #[inline]
    pub fn mem_block(&self, r: RefId) -> MemBlockId {
        self.mem_block[r.index()]
    }

    /// Memory block loaded by reference `r`'s prefetch, if `r` is one.
    #[inline]
    pub fn pf_block(&self, r: RefId) -> Option<MemBlockId> {
        self.pf_block[r.index()]
    }

    /// Overall contribution of reference `r` to the WCET
    /// (`τ_w(r) = t_w(r) × n^w`, Eq. 2).
    #[inline]
    pub fn tau_of(&self, r: RefId) -> u64 {
        self.t_w[r.index()] * self.n_w[r.index()]
    }

    /// Number of classified-miss references weighted by WCET counts
    /// (misses the WCET bound accounts for).
    pub fn wcet_misses(&self) -> u64 {
        self.acfg
            .refs()
            .iter()
            .filter(|r| self.class[r.id.index()].counts_as_miss())
            .map(|r| self.n_w[r.id.index()])
            .sum()
    }

    /// Total accesses on the WCET path.
    pub fn wcet_accesses(&self) -> u64 {
        self.acfg
            .refs()
            .iter()
            .map(|r| self.n_w[r.id.index()])
            .sum()
    }

    /// Static counts of always-hit / always-miss / unclassified references.
    pub fn classification_counts(&self) -> (usize, usize, usize) {
        let mut hit = 0;
        let mut miss = 0;
        let mut unk = 0;
        for c in self.classes().0 {
            match c {
                Classification::AlwaysHit => hit += 1,
                Classification::AlwaysMiss => miss += 1,
                Classification::Unclassified => unk += 1,
            }
        }
        (hit, miss, unk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn analyze(shape: Shape, config: CacheConfig) -> WcetAnalysis {
        let p = shape.compile("t");
        WcetAnalysis::analyze(&p, &config, &MemTiming::default()).unwrap()
    }

    #[test]
    fn tau_w_equals_sum_of_reference_contributions() {
        let a = analyze(
            Shape::loop_(10, Shape::if_else(1, Shape::code(6), Shape::code(2))),
            CacheConfig::new(2, 16, 256).unwrap(),
        );
        let sum: u64 = a.acfg().refs().iter().map(|r| a.tau_of(r.id)).sum();
        assert_eq!(sum, a.tau_w());
    }

    #[test]
    fn bigger_cache_never_increases_tau_w() {
        let shape = Shape::loop_(20, Shape::code(60));
        let small = analyze(shape.clone(), CacheConfig::new(2, 16, 128).unwrap());
        let large = analyze(shape, CacheConfig::new(2, 16, 4096).unwrap());
        assert!(large.tau_w() <= small.tau_w());
    }

    #[test]
    fn warm_loop_wcet_dominated_by_first_iteration_misses() {
        // Body fits in cache: rest iterations all hit, so WCET ≈
        // cold misses + (iterations × hits).
        let cfg = CacheConfig::new(4, 16, 1024).unwrap();
        let a = analyze(Shape::loop_(100, Shape::code(16)), cfg);
        let t = MemTiming::default();
        // All instructions execute ≈ 100×16 times at hit cost; misses only
        // on first touch of each block (16 instrs = 4 blocks + wrapper).
        let lower = 100 * 16 * t.hit_cycles;
        let upper = lower + 40 * t.miss_cycles;
        assert!(a.tau_w() >= lower, "tau {} < {lower}", a.tau_w());
        assert!(a.tau_w() <= upper, "tau {} > {upper}", a.tau_w());
    }

    #[test]
    fn miss_counts_drop_with_capacity() {
        let shape = Shape::loop_(10, Shape::code(120));
        let small = analyze(shape.clone(), CacheConfig::new(1, 16, 128).unwrap());
        let large = analyze(shape, CacheConfig::new(4, 32, 8192).unwrap());
        assert!(large.wcet_misses() < small.wcet_misses());
    }

    #[test]
    fn accessors_are_consistent() {
        let a = analyze(Shape::code(10), CacheConfig::new(2, 16, 256).unwrap());
        for r in a.acfg().refs() {
            assert!(a.t_w(r.id) >= 1);
            if a.on_wcet_path(r.id) {
                assert!(a.n_w(r.id) >= 1);
                assert!(a.node_on_wcet_path(r.node));
            }
        }
        let (h, m, u) = a.classification_counts();
        assert_eq!(h + m + u, a.acfg().len());
        let prof = a.profile();
        assert_eq!(prof.full_analyses, 1);
        assert_eq!(prof.incremental_analyses, 0);
        assert_eq!(prof.nodes_total, a.vivu().len() as u64);
    }

    #[test]
    fn straight_line_wcet_is_exact() {
        // 8 instrs on two 16-B blocks, big cache: 2 misses + 6 hits.
        let t = MemTiming::default();
        let a = analyze(Shape::code(8), CacheConfig::new(2, 16, 256).unwrap());
        assert_eq!(a.tau_w(), 2 * t.miss_cycles + 6 * t.hit_cycles);
    }

    #[test]
    fn reanalyze_after_insert_matches_full() {
        use rtpf_isa::{InstrKind, Layout};
        let cfg = CacheConfig::new(2, 16, 128).unwrap();
        let timing = MemTiming::default();
        let hierarchy = HierarchyConfig::l1_only(cfg);
        let refine = RefineConfig::default();
        let p1 = Shape::seq([Shape::code(6), Shape::loop_(8, Shape::code(12))]).compile("ra");
        let mut lineage = AnalysisCache::new();
        let a1 = WcetAnalysis::analyze_hierarchy_in(
            &p1,
            Layout::of(&p1),
            &hierarchy,
            &timing,
            refine,
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

        let full =
            WcetAnalysis::analyze_hierarchy(&p2, layout2.clone(), &hierarchy, &timing, refine)
                .unwrap();
        // The lineage's own cache, a fresh one, and one that rooted
        // another program's lineage under another geometry all give the
        // from-scratch result: memo entries keep their keyed `Arc`s
        // alive, so a pointer match always means the same content, and a
        // cache bound to another lineage starts over (its topology and
        // IPET graph describe another VIVU graph).
        let other = Shape::if_else(1, Shape::code(4), Shape::code(9)).compile("other");
        let mut foreign = AnalysisCache::new();
        WcetAnalysis::analyze_hierarchy_in(
            &other,
            Layout::of(&other),
            &HierarchyConfig::l1_only(CacheConfig::new(4, 16, 256).unwrap()),
            &timing,
            refine,
            &mut foreign,
        )
        .unwrap();
        let mut fresh = AnalysisCache::new();
        for cache in [&mut lineage, &mut fresh, &mut foreign] {
            let inc = a1
                .reanalyze_after_insert(&p2, layout2.clone(), cache)
                .unwrap();
            assert_eq!(inc.tau_w(), full.tau_w());
            assert_eq!(inc.wcet_misses(), full.wcet_misses());
            assert_eq!(inc.classification_counts(), full.classification_counts());
            for r in inc.acfg().refs() {
                assert_eq!(inc.classification(r.id), full.classification(r.id));
                assert_eq!(inc.n_w(r.id), full.n_w(r.id));
            }
            assert_eq!(inc.profile().incremental_analyses, 1);
            assert!(inc.profile().nodes_reanalyzed <= inc.profile().nodes_total);
        }
    }

    #[test]
    fn reanalyze_falls_back_when_cfg_changes() {
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let timing = MemTiming::default();
        let p1 = Shape::code(8).compile("fb");
        let a1 = WcetAnalysis::analyze(&p1, &cfg, &timing).unwrap();
        // A structurally different program: the fallback path must produce
        // a correct full analysis rather than touching stale state.
        let p2 = Shape::seq([
            Shape::code(4),
            Shape::if_else(1, Shape::code(4), Shape::code(4)),
        ])
        .compile("fb2");
        let inc = a1
            .reanalyze_after_insert(&p2, rtpf_isa::Layout::of(&p2), &mut AnalysisCache::new())
            .unwrap();
        let full = WcetAnalysis::analyze(&p2, &cfg, &timing).unwrap();
        assert_eq!(inc.tau_w(), full.tau_w());
        assert_eq!(inc.profile().full_analyses, 1);
    }
}
