//! A must-only analysis against the fused must/may pass.
//!
//! The may half runs only where its answer is read (see the `classify`
//! module docs); everywhere else the analysis must answer exactly as the
//! fused pass does, from `τ_w` down to the lazily computed
//! always-miss/unclassified split. Release builds compile out the debug
//! cross-check inside `reanalyze_after_insert`, so CI runs this module in
//! release too.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, RefineConfig, ReplacementPolicy};
use rtpf_core::{OptimizeParams, Optimizer};
use rtpf_isa::{Layout, Program};

use crate::analysis::WcetAnalysis;
use crate::classify::Halves;
use crate::memo::AnalysisCache;

/// The geometries every suite program is compared under.
const GEOMETRIES: [(u32, u32, u32); 5] = [
    (1, 16, 256),
    (2, 16, 512),
    (4, 16, 1024),
    (2, 32, 2048),
    (8, 32, 4096),
];

fn geometry((assoc, block, capacity): (u32, u32, u32)) -> CacheConfig {
    CacheConfig::new(assoc, block, capacity).unwrap()
}

fn analyze(
    p: &Program,
    hierarchy: &HierarchyConfig,
    hw_next_line: Option<u32>,
    refine: RefineConfig,
    halves: Halves,
) -> WcetAnalysis {
    WcetAnalysis::analyze_in_mode(
        p,
        Layout::of(p),
        hierarchy,
        &MemTiming::default(),
        hw_next_line,
        refine,
        halves,
        &mut AnalysisCache::new(),
    )
    .unwrap()
}

/// Every answer of `lean` (must-only) equals the fused one's. Checks the
/// priced answers first, before anything computes the split.
fn assert_same(lean: &WcetAnalysis, fused: &WcetAnalysis, what: &str) {
    assert_eq!(lean.halves(), Halves::Must, "{what}");
    assert_eq!(fused.halves(), Halves::Both, "{what}");
    assert_eq!(lean.tau_w(), fused.tau_w(), "{what}: tau_w");
    assert_eq!(lean.wcet_misses(), fused.wcet_misses(), "{what}: misses");
    for r in lean.acfg().refs() {
        assert_eq!(lean.t_w(r.id), fused.t_w(r.id), "{what}: t_w({})", r.id);
        assert_eq!(
            lean.on_wcet_path(r.id),
            fused.on_wcet_path(r.id),
            "{what}: on_wcet_path({})",
            r.id
        );
        assert_eq!(lean.always_hits(r.id), fused.always_hits(r.id), "{what}");
    }
    assert!(
        !lean.split_computed(),
        "{what}: pricing must not compute the split"
    );
    assert_eq!(
        lean.classification_counts(),
        fused.classification_counts(),
        "{what}: counts"
    );
    assert!(lean.split_computed(), "{what}");
    for r in lean.acfg().refs() {
        assert_eq!(
            lean.classification(r.id),
            fused.classification(r.id),
            "{what}: classification({})",
            r.id
        );
        assert_eq!(
            lean.cheap_classification(r.id),
            fused.cheap_classification(r.id),
            "{what}: cheap_classification({})",
            r.id
        );
    }
}

#[test]
fn must_only_analysis_equals_the_fused_one_on_the_suite() {
    let refine = RefineConfig::default();
    for b in rtpf_suite::catalog() {
        for g in GEOMETRIES {
            let h = HierarchyConfig::l1_only(geometry(g));
            assert_eq!(Halves::for_config(&h, refine), Halves::Must);
            let lean = analyze(&b.program, &h, None, refine, Halves::Must);
            let fused = analyze(&b.program, &h, None, refine, Halves::Both);
            assert_same(&lean, &fused, &format!("{} at {g:?}", b.name));
        }
    }
}

#[test]
fn must_only_analysis_with_hw_next_line_equals_the_fused_one() {
    let refine = RefineConfig::default();
    let timing = MemTiming::default();
    for b in rtpf_suite::catalog() {
        let g = (2, 16, 512);
        let config = geometry(g);
        let h = HierarchyConfig::l1_only(config);
        for n in [1, 2] {
            let public =
                WcetAnalysis::analyze_with_hw_next_line(&b.program, &config, &timing, n).unwrap();
            assert_eq!(public.halves(), Halves::Must);
            let fused = analyze(&b.program, &h, Some(n), refine, Halves::Both);
            assert_same(&public, &fused, &format!("{} next-{n}-line", b.name));
        }
    }
}

/// The optimizer decides on `τ_w`, `t_w` and `n_w` alone, so its run over
/// must-only lineages equals one over fused lineages. An L2 level whose
/// hits are priced at the DRAM time (`MemTiming::l2_hit_cycles` unset)
/// changes no price, yet turns the fused pass on: it is the fused-mode
/// run of the same optimization.
#[test]
fn optimizer_decides_as_over_a_fused_lineage() {
    let params = OptimizeParams::default();
    assert_eq!(params.timing.l2_hit_cycles, None);
    let (_, shape) =
        rtpf_isa::text::parse(include_str!("../../../examples/tasks/compress_mini.rtpf")).unwrap();
    let compress_mini = shape.compile("compress_mini");
    let suite = |name| rtpf_suite::by_name(name).unwrap().program;
    let runs = [
        (compress_mini.clone(), (2, 16, 128)),
        (compress_mini, (2, 16, 512)),
        (suite("nsichneu"), (2, 16, 512)),
        (suite("ndes"), (2, 16, 512)),
    ];
    for (p, g) in runs {
        let l1 = geometry(g);
        let l2 = CacheConfig::new(4, g.1, g.2 * 8).unwrap();
        let neutral = HierarchyConfig::two_level(l1, l2).unwrap();
        assert_eq!(Halves::for_config(&neutral, params.refine), Halves::Both);
        let lean = Optimizer::new(l1, params).run(&p).unwrap();
        let fused = Optimizer::new_hierarchy(neutral, params).run(&p).unwrap();
        assert!(
            lean.report.decisions_eq(&fused.report),
            "{} at {g:?}: {:?} vs {:?}",
            p.name(),
            lean.report,
            fused.report
        );
        assert_eq!(lean.program, fused.program, "{} at {g:?}", p.name());
    }
}

/// The gate keeps the fused pass wherever the split is read before any
/// report asks: the L2 filter and the FIFO/tree-PLRU refinement.
#[test]
fn l2_and_refined_policies_take_the_fused_path() {
    let p = rtpf_suite::by_name("ndes").unwrap().program;
    let l1 = geometry((2, 16, 512));
    let l2 = CacheConfig::new(4, 16, 4096).unwrap();
    let on = RefineConfig::default();
    let two_level = HierarchyConfig::two_level(l1, l2).unwrap();
    let l1_only = HierarchyConfig::l1_only(l1);
    let mut cases = vec![
        (two_level, on, Halves::Both),
        (l1_only, on, Halves::Must),
        (l1_only, RefineConfig::off(), Halves::Must),
    ];
    for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
        let h = HierarchyConfig::l1_only(l1.with_policy(policy).unwrap());
        cases.push((h, on, Halves::Both));
        cases.push((h, RefineConfig::off(), Halves::Must));
    }
    let timing = MemTiming::default();
    for (h, refine, halves) in cases {
        assert_eq!(Halves::for_config(&h, refine), halves, "{h:?} {refine:?}");
        let a = WcetAnalysis::analyze_hierarchy(&p, Layout::of(&p), &h, &timing, refine).unwrap();
        assert_eq!(a.halves(), halves, "{h:?} {refine:?}");
    }
}
