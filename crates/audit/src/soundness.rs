//! Abstract-vs-concrete soundness audit.
//!
//! The must/may classification promises: an *always-hit* reference hits in
//! **every** execution, an *always-miss* reference never hits. Following
//! Touzeau et al.'s cross-checking methodology, this pass drives the
//! concrete LRU cache ([`rtpf_cache::ConcreteState`]) down feasible paths
//! of the VIVU context graph — the exact graph the abstract fixpoint ran on — and
//! compares per-reference outcomes:
//!
//! * an always-hit reference that concretely misses is a genuine
//!   soundness bug (RTPF020, deny);
//! * an always-miss reference that concretely hits likewise (RTPF022);
//! * an unclassified reference that hit on every observed execution is a
//!   precision gap (RTPF021, note) and feeds the per-program precision
//!   score.
//!
//! Classifications produced by the exact FIFO/PLRU refinement stage
//! (DESIGN.md §12) are cross-checked under their own codes: a *refined*
//! always-hit that concretely misses is RTPF040, a refined always-miss
//! that concretely hits is RTPF042 (both deny — one counterexample
//! disproves the exploration), and a reference the refinement examined
//! but could not classify that shows a single concrete outcome is RTPF041
//! (note). The summary reports the precision of the cheap classification
//! alongside the refined one, so the evaluation can quantify what the
//! refinement bought.
//!
//! Under a two-level hierarchy (DESIGN.md §14) the walk drives the exact
//! [`ConcreteHierarchy`] instead, and the per-level classifications are
//! cross-checked the same way: a reference whose L1 outcome admits no L2
//! access that concretely reaches the L2 is RTPF050, an L2 always-hit
//! that concretely fills from DRAM is RTPF051, and an L2 always-miss
//! that concretely hits in the L2 is RTPF052 (all deny).
//!
//! Because the abstract join covers *every* path through the context
//! graph (including arbitrary flow around the broken back edges), any
//! walk that respects loop bounds observes a subset of the abstracted
//! behaviours — a disagreement is always a true positive, never noise
//! from an infeasible path.

use std::collections::HashMap;

use rtpf_cache::{
    CacheAccessClassification, CacheConfig, Classification, ConcreteHierarchy, HierarchyConfig,
    HierarchyOutcome, MemTiming, RefineMark,
};
use rtpf_isa::{BlockId, Layout, Program};
use rtpf_wcet::{AnalysisError, NodeId, RefId, WcetAnalysis};

use crate::diag::{Code, DiagnosticSink, Span};

/// Tuning knobs for the concrete walks.
#[derive(Clone, Copy, Debug)]
pub struct SoundnessOptions {
    /// Number of concrete executions per program/configuration. Walk 0 is
    /// iteration-greedy (runs every loop to its bound, for maximum warm
    /// coverage); the rest randomize loop exits and branch arms.
    pub walks: u32,
    /// Seed for the walk-policy generator (walks are deterministic given
    /// the seed).
    pub seed: u64,
    /// Instruction-fetch budget per walk, bounding audit time on large
    /// bound products.
    pub max_fetches: u64,
}

impl Default for SoundnessOptions {
    fn default() -> Self {
        SoundnessOptions {
            walks: 8,
            seed: 0x5eed_f00d,
            max_fetches: 2_000_000,
        }
    }
}

/// Aggregate outcome of one soundness audit.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoundnessSummary {
    /// References in the ACFG.
    pub refs_total: usize,
    /// References executed by at least one walk.
    pub refs_observed: usize,
    /// RTPF020/RTPF022/RTPF040/RTPF042 findings (genuine unsoundness).
    pub unsound: usize,
    /// RTPF021/RTPF041 findings (unclassified yet concretely
    /// single-outcome).
    pub precision_gaps: usize,
    /// Observed references whose classification was upgraded by the exact
    /// FIFO/PLRU refinement stage.
    pub refined: usize,
    /// Fraction of observed references whose (refined) classification
    /// matched the concrete behaviour exactly (1.0 = perfectly precise on
    /// the observed paths).
    pub precision_score: f64,
    /// The same fraction for the *cheap* (pre-refinement) classification.
    /// Equal to [`precision_score`](SoundnessSummary::precision_score)
    /// under LRU or with refinement off.
    pub cheap_precision_score: f64,
}

/// Runs the soundness audit of `p` under `config`/`timing`.
///
/// # Errors
///
/// Fails when the program cannot be analysed at all.
pub fn audit_soundness(
    p: &Program,
    config: &CacheConfig,
    timing: &MemTiming,
    sink: &mut DiagnosticSink,
    opts: &SoundnessOptions,
) -> Result<SoundnessSummary, AnalysisError> {
    audit_soundness_with(p, config, timing, sink, opts, |_, c| c)
}

/// [`audit_soundness`] with a classification override, the seam that lets
/// tests prove the audit catches a broken classifier: `reclass` sees each
/// reference's analysed classification and returns the one to audit.
///
/// # Errors
///
/// Fails when the program cannot be analysed at all.
pub fn audit_soundness_with(
    p: &Program,
    config: &CacheConfig,
    timing: &MemTiming,
    sink: &mut DiagnosticSink,
    opts: &SoundnessOptions,
    reclass: impl Fn(RefId, Classification) -> Classification,
) -> Result<SoundnessSummary, AnalysisError> {
    audit_soundness_forced(p, config, timing, sink, opts, |r, c, m| (reclass(r, c), m))
}

/// [`audit_soundness_with`] with the refinement mark exposed and
/// overridable as well: the seam that lets tests prove the audit catches
/// a corrupted *refinement* (RTPF040/RTPF042), not just a corrupted cheap
/// classifier.
///
/// # Errors
///
/// Fails when the program cannot be analysed at all.
pub fn audit_soundness_forced(
    p: &Program,
    config: &CacheConfig,
    timing: &MemTiming,
    sink: &mut DiagnosticSink,
    opts: &SoundnessOptions,
    reclass: impl Fn(RefId, Classification, RefineMark) -> (Classification, RefineMark),
) -> Result<SoundnessSummary, AnalysisError> {
    let a = WcetAnalysis::analyze(p, config, timing)?;
    let obs = observe(p, &a, &a.hierarchy(), opts);
    Ok(compare(p, &a, &obs, sink, reclass, |_, c, cac| (c, cac)))
}

/// Runs the soundness audit of `p` under a full cache hierarchy: the
/// walks replay the exact two-level semantics and the per-level
/// classifications (L1 and, when present, L2 plus its L1-outcome filter)
/// are each cross-checked against the concrete outcomes.
///
/// # Errors
///
/// Fails when the program cannot be analysed at all.
pub fn audit_hierarchy_soundness(
    p: &Program,
    hierarchy: &HierarchyConfig,
    timing: &MemTiming,
    sink: &mut DiagnosticSink,
    opts: &SoundnessOptions,
) -> Result<SoundnessSummary, AnalysisError> {
    audit_hierarchy_soundness_forced(p, hierarchy, timing, sink, opts, |_, c, cac| (c, cac))
}

/// [`audit_hierarchy_soundness`] with an L2 classification override, the
/// seam that lets tests prove the audit catches a broken second-level
/// classifier or a broken L1 filter: `reclass_l2` sees each reference's
/// analysed L2 classification and L1-outcome filter and returns the pair
/// to audit.
///
/// # Errors
///
/// Fails when the program cannot be analysed at all.
pub fn audit_hierarchy_soundness_forced(
    p: &Program,
    hierarchy: &HierarchyConfig,
    timing: &MemTiming,
    sink: &mut DiagnosticSink,
    opts: &SoundnessOptions,
    reclass_l2: impl Fn(
        RefId,
        Classification,
        CacheAccessClassification,
    ) -> (Classification, CacheAccessClassification),
) -> Result<SoundnessSummary, AnalysisError> {
    let a = WcetAnalysis::analyze_hierarchy(
        p,
        Layout::of(p),
        hierarchy,
        timing,
        rtpf_cache::RefineConfig::on(),
    )?;
    let obs = observe(p, &a, hierarchy, opts);
    Ok(compare(p, &a, &obs, sink, |_, c, m| (c, m), reclass_l2))
}

/// Runs the soundness audit over an already-computed analysis artifact
/// (cache geometry and timing come from the artifact itself). This is the
/// seam the engine uses: the caller decides whether `a` came from the
/// artifact store or from an independent cache-bypassing recomputation.
pub fn audit_soundness_artifact(
    p: &Program,
    a: &WcetAnalysis,
    sink: &mut DiagnosticSink,
    opts: &SoundnessOptions,
) -> SoundnessSummary {
    let obs = observe(p, a, &a.hierarchy(), opts);
    compare(p, a, &obs, sink, |_, c, m| (c, m), |_, c, cac| (c, cac))
}

/// Per-reference concrete observations across all walks. The `l2_*`
/// counters track the second-level outcome of the own-block access and
/// stay zero on a single-level hierarchy.
struct Observations {
    hits: Vec<u64>,
    misses: Vec<u64>,
    l2_hits: Vec<u64>,
    l2_misses: Vec<u64>,
}

/// Walks the VIVU graph concretely, accumulating per-reference outcomes.
fn observe(
    p: &Program,
    a: &WcetAnalysis,
    hierarchy: &HierarchyConfig,
    opts: &SoundnessOptions,
) -> Observations {
    let g = a.vivu();
    let acfg = a.acfg();
    let two_level = hierarchy.l2().is_some();
    let mut hits = vec![0u64; acfg.len()];
    let mut misses = vec![0u64; acfg.len()];
    let mut l2_hits = vec![0u64; acfg.len()];
    let mut l2_misses = vec![0u64; acfg.len()];
    // Back edges grouped by source latch node.
    let mut back_of: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(l, h) in g.back_edges() {
        back_of.entry(l).or_default().push(h);
    }
    let bound = |h: BlockId| p.loop_bound(h).unwrap_or(1);

    for w in 0..opts.walks {
        let mut rng = SplitMix64(opts.seed ^ u64::from(w).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let greedy = w == 0;
        let mut state = ConcreteHierarchy::new(hierarchy);
        let mut cur = g.entry();
        let mut fetches = 0u64;
        let mut steps = 0u64;
        // Activation stack mirroring the current node's context frames:
        // `(header block, body entries so far this activation)`.
        let mut stack: Vec<(BlockId, u32)> = Vec::new();
        loop {
            let node = g.node(cur);
            let frames = node.ctx.frames();
            // Loops we have exited disappear from the frame stack.
            let keep = stack
                .iter()
                .zip(frames)
                .take_while(|(s, f)| s.0 == f.0)
                .count();
            stack.truncate(keep);
            // Frame growth only ever happens by arriving at a header.
            if let Some(&(h, it)) = frames.last() {
                if node.block == h {
                    match (stack.len() == frames.len(), it) {
                        (true, rtpf_wcet::Iter::First) => {
                            stack.last_mut().expect("depth > 0").1 = 1
                        }
                        (true, rtpf_wcet::Iter::Rest) => {
                            stack.last_mut().expect("depth > 0").1 += 1;
                        }
                        (false, rtpf_wcet::Iter::First) => stack.push((h, 1)),
                        (false, rtpf_wcet::Iter::Rest) => stack.push((h, 2)),
                    }
                }
            }
            // Intermediate frames can only be missing on the very first
            // node of the walk (an entry inside a loop).
            while stack.len() < frames.len() {
                stack.push((frames[stack.len()].0, 1));
            }

            // Execute the node's references, mirroring the abstract
            // transfer: access the own block, then the prefetch target.
            for &r in acfg.refs_of_node(cur) {
                match state.access(a.mem_block(r)) {
                    HierarchyOutcome::L1Hit => hits[r.index()] += 1,
                    HierarchyOutcome::L2Hit => {
                        misses[r.index()] += 1;
                        l2_hits[r.index()] += 1;
                    }
                    HierarchyOutcome::Miss => {
                        misses[r.index()] += 1;
                        if two_level {
                            l2_misses[r.index()] += 1;
                        }
                    }
                }
                fetches += 1;
                if let Some(tb) = a.pf_block(r) {
                    state.access(tb);
                    fetches += 1;
                }
            }
            steps += 1;
            if fetches >= opts.max_fetches || steps >= opts.max_fetches {
                break;
            }

            // Candidate moves: acyclic successors, plus back edges whose
            // loop still has iterations left under its bound.
            let forward = g.succs(cur);
            let mut back: Vec<NodeId> = Vec::new();
            if let Some(hs) = back_of.get(&cur) {
                for &hn in hs {
                    let hb = g.node(hn).block;
                    let iters = stack
                        .iter()
                        .rev()
                        .find(|&&(sh, _)| sh == hb)
                        .map_or(0, |&(_, n)| n);
                    if iters < bound(hb) {
                        back.push(hn);
                    }
                }
            }
            let take_back =
                !back.is_empty() && (greedy || forward.is_empty() || !rng.next().is_multiple_of(4));
            cur = if take_back {
                back[(rng.next() as usize) % back.len()]
            } else if !forward.is_empty() {
                forward[(rng.next() as usize) % forward.len()]
            } else {
                break;
            };
        }
    }
    Observations {
        hits,
        misses,
        l2_hits,
        l2_misses,
    }
}

/// Exactness of one classification against one reference's observations,
/// per the precision-score rules: hit-only always-hit, miss-only
/// always-miss, and genuinely-variable unclassified are exact.
fn is_exact(class: Classification, h: u64, m: u64) -> bool {
    match class {
        Classification::AlwaysHit => m == 0,
        Classification::AlwaysMiss => h == 0,
        Classification::Unclassified => h > 0 && m > 0,
    }
}

/// Compares observations against (possibly overridden) classifications.
fn compare(
    p: &Program,
    a: &WcetAnalysis,
    obs: &Observations,
    sink: &mut DiagnosticSink,
    reclass: impl Fn(RefId, Classification, RefineMark) -> (Classification, RefineMark),
    reclass_l2: impl Fn(
        RefId,
        Classification,
        CacheAccessClassification,
    ) -> (Classification, CacheAccessClassification),
) -> SoundnessSummary {
    let acfg = a.acfg();
    let name = p.name().to_string();
    let mut s = SoundnessSummary {
        refs_total: acfg.len(),
        ..SoundnessSummary::default()
    };
    let mut exact = 0usize;
    let mut cheap_exact = 0usize;
    for rf in acfg.refs() {
        let r = rf.id;
        let (h, m) = (obs.hits[r.index()], obs.misses[r.index()]);
        if h + m == 0 {
            continue; // never reached by any walk: no evidence either way
        }
        s.refs_observed += 1;
        let node = a.vivu().node(rf.node);
        let span = Span::instr(&name, node.block, rf.instr);
        let (class, mark) = reclass(r, a.classification(r), a.refine_mark(r));
        // The cheap (pre-refinement) view is scored silently on the same
        // observations; diagnostics are only raised for the shipped view.
        if is_exact(a.cheap_classification(r), h, m) {
            cheap_exact += 1;
        }
        if mark == RefineMark::Refined {
            s.refined += 1;
        }
        match class {
            Classification::AlwaysHit => {
                if m > 0 {
                    s.unsound += 1;
                    if mark == RefineMark::Refined {
                        sink.report(
                            Code::RefinedUnsoundAlwaysHit,
                            span.clone(),
                            format!(
                                "refined always-hit reference {} in {} (context {}) concretely \
                                 missed {m} of {} executions",
                                rf.instr,
                                node.block,
                                node.ctx,
                                h + m
                            ),
                            Some(
                                "the exact exploration missed a reachable state: \
                                 this is a refinement soundness bug"
                                    .into(),
                            ),
                        );
                    } else {
                        sink.report(
                            Code::UnsoundAlwaysHit,
                            span.clone(),
                            format!(
                                "reference {} in {} (context {}) is classified always-hit but \
                                 concretely missed {m} of {} executions",
                                rf.instr,
                                node.block,
                                node.ctx,
                                h + m
                            ),
                            Some(
                                "the must analysis over-approximates: this is a soundness bug"
                                    .into(),
                            ),
                        );
                    }
                } else {
                    exact += 1;
                }
            }
            Classification::AlwaysMiss => {
                if h > 0 {
                    s.unsound += 1;
                    if mark == RefineMark::Refined {
                        sink.report(
                            Code::RefinedUnsoundAlwaysMiss,
                            span.clone(),
                            format!(
                                "refined always-miss reference {} in {} (context {}) concretely \
                                 hit {h} of {} executions",
                                rf.instr,
                                node.block,
                                node.ctx,
                                h + m
                            ),
                            Some(
                                "the exact exploration saw a spurious miss in every state: \
                                 this is a refinement soundness bug"
                                    .into(),
                            ),
                        );
                    } else {
                        sink.report(
                            Code::UnsoundAlwaysMiss,
                            span.clone(),
                            format!(
                                "reference {} in {} (context {}) is classified always-miss but \
                                 concretely hit {h} of {} executions",
                                rf.instr,
                                node.block,
                                node.ctx,
                                h + m
                            ),
                            Some(
                                "the may analysis under-approximates: this is a soundness bug"
                                    .into(),
                            ),
                        );
                    }
                } else {
                    exact += 1;
                }
            }
            Classification::Unclassified => {
                if m == 0 {
                    s.precision_gaps += 1;
                    if mark == RefineMark::Examined {
                        sink.report(
                            Code::RefinedPrecisionGap,
                            span.clone(),
                            format!(
                                "refinement-examined reference {} in {} (context {}) stayed \
                                 unclassified yet hit on all {h} observed executions",
                                rf.instr, node.block, node.ctx
                            ),
                            Some(
                                "the exploration saw mixed states or ran out of budget; \
                                 raising --refine-budget may close this"
                                    .into(),
                            ),
                        );
                    } else {
                        sink.report(
                            Code::PrecisionGap,
                            span.clone(),
                            format!(
                                "unclassified reference {} in {} (context {}) hit on all {h} \
                                 observed executions",
                                rf.instr, node.block, node.ctx
                            ),
                            None,
                        );
                    }
                } else if h == 0 && mark == RefineMark::Examined {
                    s.precision_gaps += 1;
                    sink.report(
                        Code::RefinedPrecisionGap,
                        span.clone(),
                        format!(
                            "refinement-examined reference {} in {} (context {}) stayed \
                             unclassified yet missed on all {m} observed executions",
                            rf.instr, node.block, node.ctx
                        ),
                        Some(
                            "the exploration saw mixed states or ran out of budget; \
                             raising --refine-budget may close this"
                                .into(),
                        ),
                    );
                } else if h > 0 {
                    exact += 1; // genuinely variable: unclassified is tight
                }
            }
        }
        // Second-level cross-check (two-level hierarchies only): the L1
        // filter and the L2 classification are each falsified by one
        // contradicting concrete outcome.
        if let (Some(l2class), Some(cac)) = (a.l2_classification(r), a.l2_cac(r)) {
            let (l2class, cac) = reclass_l2(r, l2class, cac);
            let (l2h, l2m) = (obs.l2_hits[r.index()], obs.l2_misses[r.index()]);
            if cac == CacheAccessClassification::Never && l2h + l2m > 0 {
                s.unsound += 1;
                sink.report(
                    Code::HierarchyFilterViolated,
                    span.clone(),
                    format!(
                        "reference {} in {} (context {}) is L1 always-hit (L2 filter                          `never`) yet concretely reached the L2 on {} of {} executions",
                        rf.instr,
                        node.block,
                        node.ctx,
                        l2h + l2m,
                        h + m
                    ),
                    Some(
                        "the L1 filter fed the L2 analysis a reference it promised away:                          this is a hierarchy soundness bug"
                            .into(),
                    ),
                );
            }
            match l2class {
                Classification::AlwaysHit if l2m > 0 => {
                    s.unsound += 1;
                    sink.report(
                        Code::UnsoundL2AlwaysHit,
                        span.clone(),
                        format!(
                            "reference {} in {} (context {}) is classified L2 always-hit                              but concretely filled from DRAM on {l2m} of {} L2 accesses",
                            rf.instr,
                            node.block,
                            node.ctx,
                            l2h + l2m
                        ),
                        Some(
                            "the WCET bound charged an L2 hit for a DRAM access: this is                              a soundness bug"
                                .into(),
                        ),
                    );
                }
                Classification::AlwaysMiss if l2h > 0 => {
                    s.unsound += 1;
                    sink.report(
                        Code::UnsoundL2AlwaysMiss,
                        span.clone(),
                        format!(
                            "reference {} in {} (context {}) is classified L2 always-miss                              but concretely hit in the L2 on {l2h} of {} L2 accesses",
                            rf.instr,
                            node.block,
                            node.ctx,
                            l2h + l2m
                        ),
                        Some(
                            "the L2 may analysis under-approximates: this is a soundness                              bug"
                                .into(),
                        ),
                    );
                }
                _ => {}
            }
        }
    }
    if s.refs_observed == 0 {
        s.precision_score = 1.0;
        s.cheap_precision_score = 1.0;
    } else {
        s.precision_score = exact as f64 / s.refs_observed as f64;
        s.cheap_precision_score = cheap_exact as f64 / s.refs_observed as f64;
    }
    s
}

/// SplitMix64: tiny deterministic generator for walk policies.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::SeverityConfig;
    use rtpf_isa::shape::Shape;

    fn demo() -> Program {
        Shape::seq([
            Shape::code(6),
            Shape::loop_(12, Shape::if_else(2, Shape::code(8), Shape::code(4))),
            Shape::code(3),
        ])
        .compile("demo")
    }

    #[test]
    fn honest_classifier_has_no_unsound_findings() {
        let p = demo();
        let config = CacheConfig::new(2, 16, 256).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_soundness(
            &p,
            &config,
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
        )
        .unwrap();
        assert_eq!(s.unsound, 0, "{}", sink.render_text());
        assert!(!sink.has_denials(), "{}", sink.render_text());
        assert!(s.refs_observed > 0);
        assert!(s.refs_observed <= s.refs_total);
        assert!((0.0..=1.0).contains(&s.precision_score));
    }

    #[test]
    fn broken_classifier_fires_rtpf020() {
        // Force every reference to always-hit: the cold entry access must
        // concretely miss, so no always-hit-that-misses can escape.
        let p = demo();
        let config = CacheConfig::new(2, 16, 256).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_soundness_with(
            &p,
            &config,
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
            |_, _| Classification::AlwaysHit,
        )
        .unwrap();
        assert!(s.unsound > 0);
        assert!(sink
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::UnsoundAlwaysHit));
        assert!(sink.has_denials());
    }

    #[test]
    fn broken_may_analysis_fires_rtpf022() {
        // A loop small enough to stay resident: rest-context accesses hit
        // concretely, so classifying everything always-miss must be caught.
        let p = Shape::loop_(16, Shape::code(4)).compile("tight");
        let config = CacheConfig::new(4, 16, 1024).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_soundness_with(
            &p,
            &config,
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
            |_, _| Classification::AlwaysMiss,
        )
        .unwrap();
        assert!(s.unsound > 0);
        assert!(sink
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::UnsoundAlwaysMiss));
    }

    #[test]
    fn corrupted_refinement_fires_rtpf040_and_rtpf042() {
        // Forcing the refined mark onto corrupt classifications must
        // surface the refinement-specific deny codes, not the cheap ones:
        // a refined always-hit that misses is RTPF040, a refined
        // always-miss that hits is RTPF042.
        let p = demo();
        let config = CacheConfig::new(2, 16, 256).unwrap();
        for (forced, code) in [
            (Classification::AlwaysHit, Code::RefinedUnsoundAlwaysHit),
            (Classification::AlwaysMiss, Code::RefinedUnsoundAlwaysMiss),
        ] {
            let mut sink = DiagnosticSink::new(SeverityConfig::new());
            let s = audit_soundness_forced(
                &p,
                &config,
                &MemTiming::default(),
                &mut sink,
                &SoundnessOptions::default(),
                |_, _, _| (forced, RefineMark::Refined),
            )
            .unwrap();
            assert!(s.unsound > 0, "{forced:?} corruption must be caught");
            assert!(
                sink.diagnostics().iter().any(|d| d.code == code),
                "expected {code}: {}",
                sink.render_text()
            );
            assert!(sink.has_denials());
            assert_eq!(s.refined, s.refs_observed);
        }
    }

    #[test]
    fn examined_but_unclassified_gaps_fire_rtpf041() {
        // Mark every reference examined-and-unclassified: single-outcome
        // references become RTPF041 residual-gap notes (never denials).
        let p = demo();
        let config = CacheConfig::new(2, 16, 256).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_soundness_forced(
            &p,
            &config,
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
            |_, _, _| (Classification::Unclassified, RefineMark::Examined),
        )
        .unwrap();
        assert_eq!(s.unsound, 0);
        assert!(s.precision_gaps > 0);
        assert!(sink
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::RefinedPrecisionGap));
        assert!(sink
            .diagnostics()
            .iter()
            .all(|d| d.code != Code::PrecisionGap));
        assert!(!sink.has_denials(), "{}", sink.render_text());
    }

    #[test]
    fn cheap_and_refined_scores_agree_without_refinement() {
        // Under LRU the refinement never runs, so both precision views
        // must coincide.
        let p = demo();
        let config = CacheConfig::new(2, 16, 256).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_soundness(
            &p,
            &config,
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
        )
        .unwrap();
        assert_eq!(s.precision_score, s.cheap_precision_score);
        assert_eq!(s.refined, 0);
    }

    #[test]
    fn walks_are_deterministic_given_the_seed() {
        let p = demo();
        let config = CacheConfig::new(1, 16, 128).unwrap();
        let run = || {
            let mut sink = DiagnosticSink::new(SeverityConfig::new());
            let s = audit_soundness(
                &p,
                &config,
                &MemTiming::default(),
                &mut sink,
                &SoundnessOptions::default(),
            )
            .unwrap();
            (s.refs_observed, s.precision_gaps, sink.diagnostics().len())
        };
        assert_eq!(run(), run());
    }

    fn demo_hierarchy() -> HierarchyConfig {
        let l1 = CacheConfig::new(2, 16, 256).unwrap();
        let l2 = CacheConfig::new(8, 16, 2048).unwrap();
        HierarchyConfig::from_levels(&[l1, l2]).unwrap()
    }

    #[test]
    fn honest_two_level_analysis_has_no_unsound_findings() {
        let p = demo();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_hierarchy_soundness(
            &p,
            &demo_hierarchy(),
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
        )
        .unwrap();
        assert_eq!(s.unsound, 0, "{}", sink.render_text());
        assert!(!sink.has_denials(), "{}", sink.render_text());
        assert!(s.refs_observed > 0);
    }

    #[test]
    fn violated_l1_filter_fires_rtpf050() {
        // Claim every reference is L1 always-hit as far as the L2 is
        // concerned (filter `Never`): cold L1 misses still reach the L2
        // concretely, so the filter lie cannot escape.
        let p = demo();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_hierarchy_soundness_forced(
            &p,
            &demo_hierarchy(),
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
            |_, c, _| (c, CacheAccessClassification::Never),
        )
        .unwrap();
        assert!(s.unsound > 0);
        assert!(
            sink.diagnostics()
                .iter()
                .any(|d| d.code == Code::HierarchyFilterViolated),
            "expected RTPF050: {}",
            sink.render_text()
        );
        assert!(sink.has_denials());
    }

    #[test]
    fn broken_l2_must_analysis_fires_rtpf051() {
        // Force L2 always-hit everywhere: the very first L2 access of a
        // cold walk fills from DRAM, contradicting the claim.
        let p = demo();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_hierarchy_soundness_forced(
            &p,
            &demo_hierarchy(),
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
            |_, _, cac| (Classification::AlwaysHit, cac),
        )
        .unwrap();
        assert!(s.unsound > 0);
        assert!(
            sink.diagnostics()
                .iter()
                .any(|d| d.code == Code::UnsoundL2AlwaysHit),
            "expected RTPF051: {}",
            sink.render_text()
        );
        assert!(sink.has_denials());
    }

    #[test]
    fn broken_l2_may_analysis_fires_rtpf052() {
        // A loop that thrashes a tiny L1 but stays resident in the L2:
        // rest-context L1 misses hit the L2 concretely, so classifying the
        // L2 always-miss must be caught.
        let p = Shape::loop_(16, Shape::code(40)).compile("l2-resident");
        let l1 = CacheConfig::new(1, 16, 128).unwrap();
        let l2 = CacheConfig::new(8, 16, 4096).unwrap();
        let hierarchy = HierarchyConfig::from_levels(&[l1, l2]).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_hierarchy_soundness_forced(
            &p,
            &hierarchy,
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
            |_, _, cac| (Classification::AlwaysMiss, cac),
        )
        .unwrap();
        assert!(s.unsound > 0);
        assert!(
            sink.diagnostics()
                .iter()
                .any(|d| d.code == Code::UnsoundL2AlwaysMiss),
            "expected RTPF052: {}",
            sink.render_text()
        );
    }

    #[test]
    fn single_level_walks_never_touch_the_l2_counters() {
        // The degenerate guard at the audit layer: with no L2 the
        // hierarchy entry point must agree with the single-level one and
        // raise none of the RTPF05x codes.
        let p = demo();
        let config = CacheConfig::new(2, 16, 256).unwrap();
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let s = audit_hierarchy_soundness(
            &p,
            &HierarchyConfig::l1_only(config),
            &MemTiming::default(),
            &mut sink,
            &SoundnessOptions::default(),
        )
        .unwrap();
        let mut sink1 = DiagnosticSink::new(SeverityConfig::new());
        let s1 = audit_soundness(
            &p,
            &config,
            &MemTiming::default(),
            &mut sink1,
            &SoundnessOptions::default(),
        )
        .unwrap();
        assert_eq!(s.unsound, s1.unsound);
        assert_eq!(s.refs_observed, s1.refs_observed);
        assert_eq!(s.precision_gaps, s1.precision_gaps);
        assert!(!sink.diagnostics().iter().any(|d| matches!(
            d.code,
            Code::HierarchyFilterViolated | Code::UnsoundL2AlwaysHit | Code::UnsoundL2AlwaysMiss
        )));
    }
}
