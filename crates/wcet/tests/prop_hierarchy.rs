//! Property tests for the two-level hierarchy analysis.
//!
//! Pins the three load-bearing facts of the Hardy & Puaut composition:
//! the single-level hierarchy is bit-identical to the historical
//! single-level analysis; an L1 always-hit reference contributes zero L2
//! accesses to the abstract update (its access classification is
//! `Never`); and the two-level bound never exceeds the single-level one
//! (an L2 can only absorb misses, not create them). A suite slice also
//! checks the profile's phase split with and without an L2.

use proptest::prelude::*;

use rtpf_cache::{
    CacheAccessClassification, CacheConfig, Classification, HierarchyConfig, MemTiming,
    RefineConfig, ReplacementPolicy,
};
use rtpf_isa::shape::Shape;
use rtpf_isa::{InstrId, InstrKind, Layout, Program};
use rtpf_wcet::{AnalysisCache, WcetAnalysis};

/// Random structured programs: bounded depth, bounded loop bounds.
fn shapes() -> impl Strategy<Value = Shape> {
    let leaf = (1u32..30).prop_map(Shape::code);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Shape::seq),
            (0u32..3, inner.clone(), inner.clone()).prop_map(|(c, a, b)| Shape::if_else(c, a, b)),
            (0u32..3, inner.clone()).prop_map(|(c, a)| Shape::if_then(c, a)),
            (1u32..8, inner.clone()).prop_map(|(n, b)| Shape::loop_(n, b)),
        ]
    })
}

/// L1 geometries small enough to generate real misses on the generated
/// programs, paired with a strictly larger same-block-size L2.
fn hierarchies() -> impl Strategy<Value = HierarchyConfig> {
    (0usize..4, 0usize..3).prop_map(|(l1_sel, l2_mult)| {
        let l1s = [
            CacheConfig::new(1, 16, 128).unwrap(),
            CacheConfig::new(2, 16, 256).unwrap(),
            CacheConfig::new(1, 32, 256).unwrap(),
            CacheConfig::new(4, 16, 512).unwrap(),
        ];
        let l1 = l1s[l1_sel];
        let l2 = CacheConfig::new(
            4,
            l1.block_bytes(),
            l1.capacity_bytes() << (l2_mult as u32 + 1),
        )
        .unwrap();
        HierarchyConfig::two_level(l1, l2).unwrap()
    })
}

fn timing() -> MemTiming {
    MemTiming::with_miss_penalty(20).with_l2_hit(8)
}

fn all_instrs(p: &Program) -> Vec<InstrId> {
    p.block_ids()
        .flat_map(|b| p.block(b).instrs().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degenerate_hierarchy_is_bit_identical_to_single_level(
        shape in shapes(),
        ki in 0usize..36,
    ) {
        let timing = MemTiming::default();
        let p = shape.compile("prop");
        let (_, config) = CacheConfig::paper_configs().swap_remove(ki);
        let single = WcetAnalysis::analyze(&p, &config, &timing).expect("single-level");
        let hier = WcetAnalysis::analyze_hierarchy(
            &p,
            Layout::of(&p),
            &HierarchyConfig::l1_only(config),
            &timing,
            Default::default(),
        )
        .expect("degenerate hierarchy");
        prop_assert_eq!(single.tau_w(), hier.tau_w());
        prop_assert_eq!(single.wcet_misses(), hier.wcet_misses());
        prop_assert_eq!(single.classification_counts(), hier.classification_counts());
        for r in single.acfg().refs() {
            prop_assert_eq!(single.classification(r.id), hier.classification(r.id));
            prop_assert_eq!(single.t_w(r.id), hier.t_w(r.id));
            prop_assert_eq!(single.n_w(r.id), hier.n_w(r.id));
            prop_assert_eq!(hier.l2_classification(r.id), None);
            prop_assert_eq!(hier.l2_cac(r.id), None);
        }
    }

    #[test]
    fn l1_always_hit_references_never_access_l2(
        shape in shapes(),
        hierarchy in hierarchies(),
    ) {
        let p = shape.compile("prop");
        let a = WcetAnalysis::analyze_hierarchy(
            &p,
            Layout::of(&p),
            &hierarchy,
            &timing(),
            Default::default(),
        )
        .expect("two-level analysis");
        for r in a.acfg().refs() {
            let cac = a.l2_cac(r.id).expect("two-level hierarchy has a CAC");
            match a.classification(r.id) {
                Classification::AlwaysHit => {
                    // The filter: an L1 always-hit contributes zero L2
                    // accesses to the abstract update.
                    prop_assert_eq!(cac, CacheAccessClassification::Never);
                    prop_assert!(!cac.may_access());
                    // And its cost is the L1 hit, regardless of L2.
                    prop_assert_eq!(a.t_w(r.id), timing().hit_cycles);
                }
                Classification::AlwaysMiss => {
                    prop_assert_eq!(cac, CacheAccessClassification::Always);
                }
                Classification::Unclassified => {
                    prop_assert_eq!(cac, CacheAccessClassification::Uncertain);
                }
            }
        }
    }

    #[test]
    fn l2_never_worsens_the_single_level_bound(
        shape in shapes(),
        hierarchy in hierarchies(),
    ) {
        let p = shape.compile("prop");
        let t = timing();
        let single = WcetAnalysis::analyze(&p, hierarchy.l1(), &t).expect("single-level");
        let hier = WcetAnalysis::analyze_hierarchy(
            &p,
            Layout::of(&p),
            &hierarchy,
            &t,
            Default::default(),
        )
        .expect("two-level analysis");
        // Per reference, charging an L2 hit can only lower the bound.
        for r in single.acfg().refs() {
            prop_assert!(hier.t_w(r.id) <= single.t_w(r.id));
        }
        prop_assert!(hier.tau_w() <= single.tau_w());
    }

    #[test]
    fn hierarchy_reanalyze_after_insert_equals_from_scratch(
        shape in shapes(),
        hierarchy in hierarchies(),
        anchor_sel in 0usize..10_000,
        target_sel in 0usize..10_000,
    ) {
        let t = timing();
        let p1 = shape.compile("prop");
        let mut lineage = AnalysisCache::new();
        let a1 = WcetAnalysis::analyze_hierarchy_in(
            &p1,
            Layout::of(&p1),
            &hierarchy,
            &t,
            Default::default(),
            &mut lineage,
        )
        .expect("base analysis");

        let instrs = all_instrs(&p1);
        let anchor = instrs[anchor_sel % instrs.len()];
        let target = instrs[target_sel % instrs.len()];
        let mut p2 = p1.clone();
        let bb = p2.block_of(anchor);
        let pos = p2.pos_in_block(anchor);
        p2.insert_instr(bb, pos, InstrKind::Prefetch { target })
            .expect("insertion at an existing position");
        let layout2 = Layout::anchored(&p2, anchor, a1.layout().addr(anchor));

        let inc = a1
            .reanalyze_after_insert(&p2, layout2.clone(), &mut lineage)
            .expect("incremental analysis");
        let full = WcetAnalysis::analyze_hierarchy(
            &p2,
            layout2,
            &hierarchy,
            &t,
            Default::default(),
        )
        .expect("from-scratch analysis");

        prop_assert_eq!(inc.tau_w(), full.tau_w());
        prop_assert_eq!(inc.classification_counts(), full.classification_counts());
        for r in full.acfg().refs() {
            prop_assert_eq!(inc.classification(r.id), full.classification(r.id));
            prop_assert_eq!(inc.l2_classification(r.id), full.l2_classification(r.id));
            prop_assert_eq!(inc.l2_cac(r.id), full.l2_cac(r.id));
            prop_assert_eq!(inc.t_w(r.id), full.t_w(r.id));
        }
    }
}

/// Cheap-but-diverse suite slice: branchy, loop-nest and state-machine
/// shapes spanning small and large reference footprints.
const PROGRAMS: [&str; 6] = ["bs", "crc", "fft1", "insertsort", "matmult", "statemate"];

/// Geometry extremes plus mid-grid points of Table 2 (index into
/// `paper_configs`): direct-mapped/small, high-assoc/large, and the
/// middle of the grid.
const CONFIG_IDX: [usize; 6] = [0, 7, 13, 20, 28, 35];

/// The fixpoint's join and transfer timers time disjoint stretches of
/// the one thread the fixpoint runs on, so they fit inside its wall clock.
fn assert_phase_split(ctx: &str, a: &WcetAnalysis) {
    let p = a.profile();
    assert!(
        p.join_ns + p.transfer_ns <= p.fixpoint_ns,
        "join {} + transfer {} ns exceed fixpoint {} ns for {ctx}",
        p.join_ns,
        p.transfer_ns,
        p.fixpoint_ns
    );
}

/// The phase split holds for every policy on the suite slice, single-level
/// and behind the 8:16:16384 L2 (which only pairs with the 16 B-block
/// geometries).
#[test]
fn fixpoint_phase_split_fits_inside_the_fixpoint_wall_clock() {
    let l2 = CacheConfig::new(8, 16, 16384).expect("valid L2");
    let l2_timing = timing();
    let configs = CacheConfig::paper_configs();
    let mut two_level = 0;
    for name in PROGRAMS {
        let b = rtpf_suite::by_name(name).expect("suite program");
        for &ki in &CONFIG_IDX {
            let (_, geo) = &configs[ki];
            for policy in ReplacementPolicy::ALL {
                let l1 = geo.with_policy(policy).expect("Table 2 supports policy");
                let mut hierarchies = vec![(HierarchyConfig::l1_only(l1), MemTiming::default())];
                if geo.block_bytes() == l2.block_bytes() {
                    let two = HierarchyConfig::two_level(l1, l2).expect("valid hierarchy");
                    hierarchies.push((two, l2_timing));
                    two_level += 1;
                }
                for (hierarchy, t) in &hierarchies {
                    let a = WcetAnalysis::analyze_hierarchy(
                        &b.program,
                        Layout::of(&b.program),
                        hierarchy,
                        t,
                        RefineConfig::on(),
                    )
                    .expect("analysis succeeds");
                    let ctx = format!("{name} k{} {policy} {hierarchy}", ki + 1);
                    assert_phase_split(&ctx, &a);
                }
            }
        }
    }
    assert_eq!(two_level, PROGRAMS.len() * 4 * ReplacementPolicy::ALL.len());
}
