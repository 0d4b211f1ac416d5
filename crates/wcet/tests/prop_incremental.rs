//! Property test: incremental re-analysis after a prefetch insertion is
//! indistinguishable from a from-scratch analysis — same `τ_w`, same
//! per-reference classifications and WCET counts — across random program
//! shapes, random insertion points, and the paper's k1..k36 cache
//! configurations.

use proptest::prelude::*;

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, RefineConfig};
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

fn all_instrs(p: &Program) -> Vec<InstrId> {
    p.block_ids()
        .flat_map(|b| p.block(b).instrs().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reanalyze_after_insert_equals_from_scratch(
        shape in shapes(),
        ki in 0usize..36,
        anchor_sel in 0usize..10_000,
        target_sel in 0usize..10_000,
    ) {
        let timing = MemTiming::default();
        let p1 = shape.compile("prop");
        let (_, config) = CacheConfig::paper_configs().swap_remove(ki);
        let mut lineage = AnalysisCache::new();
        let a1 = WcetAnalysis::analyze_hierarchy_in(
            &p1,
            Layout::of(&p1),
            &HierarchyConfig::l1_only(config),
            &timing,
            RefineConfig::default(),
            &mut lineage,
        )
        .expect("base analysis");

        // Insert a prefetch of a random target before a random anchor,
        // relocating exactly like the optimizer does.
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
            &HierarchyConfig::l1_only(config),
            &timing,
            RefineConfig::default(),
        )
            .expect("from-scratch analysis");

        prop_assert_eq!(inc.tau_w(), full.tau_w());
        prop_assert_eq!(inc.wcet_misses(), full.wcet_misses());
        prop_assert_eq!(inc.wcet_accesses(), full.wcet_accesses());
        prop_assert_eq!(inc.classification_counts(), full.classification_counts());
        for r in full.acfg().refs() {
            prop_assert_eq!(inc.classification(r.id), full.classification(r.id));
            prop_assert_eq!(inc.mem_block(r.id), full.mem_block(r.id));
            prop_assert_eq!(inc.n_w(r.id), full.n_w(r.id));
            prop_assert_eq!(inc.t_w(r.id), full.t_w(r.id));
        }
        prop_assert_eq!(inc.profile().incremental_analyses, 1);
    }

    #[test]
    fn reanalyze_chains_across_multiple_insertions(
        shape in shapes(),
        ki in 0usize..36,
        sels in prop::collection::vec((0usize..10_000, 0usize..10_000), 2..5),
    ) {
        // Repeated incremental steps (each seeded by the previous
        // incremental result) must stay glued to the from-scratch truth —
        // this is exactly the optimizer's accept path.
        let timing = MemTiming::default();
        let mut p = shape.compile("prop");
        let (_, config) = CacheConfig::paper_configs().swap_remove(ki);
        let mut lineage = AnalysisCache::new();
        let mut cur = WcetAnalysis::analyze_hierarchy_in(
            &p,
            Layout::of(&p),
            &HierarchyConfig::l1_only(config),
            &timing,
            RefineConfig::default(),
            &mut lineage,
        )
        .expect("base analysis");
        for (anchor_sel, target_sel) in sels {
            let instrs = all_instrs(&p);
            let anchor = instrs[anchor_sel % instrs.len()];
            let target = instrs[target_sel % instrs.len()];
            let mut p2 = p.clone();
            let bb = p2.block_of(anchor);
            let pos = p2.pos_in_block(anchor);
            p2.insert_instr(bb, pos, InstrKind::Prefetch { target })
                .expect("insertion at an existing position");
            let layout2 = Layout::anchored(&p2, anchor, cur.layout().addr(anchor));
            let inc = cur
                .reanalyze_after_insert(&p2, layout2.clone(), &mut lineage)
                .expect("incremental analysis");
            let full = WcetAnalysis::analyze_hierarchy(
            &p2,
            layout2,
            &HierarchyConfig::l1_only(config),
            &timing,
            RefineConfig::default(),
        )
                .expect("from-scratch analysis");
            prop_assert_eq!(inc.tau_w(), full.tau_w());
            prop_assert_eq!(inc.classification_counts(), full.classification_counts());
            p = p2;
            cur = inc;
        }
    }
}
