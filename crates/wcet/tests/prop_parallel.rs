//! Thread-count invariance of the full analysis: `analyze_parallel` at
//! any worker count must be indistinguishable from the sequential run —
//! same `τ_w`, same per-reference classifications, marks and WCET counts,
//! same deterministic work counters — across the benchmark suite, the
//! paper's Table 2 geometries, and all three replacement policies.
//!
//! This is the executable form of the DESIGN.md §13 argument: the must
//! and may fixpoints are extremal and therefore unique, each SCC is
//! solved by exactly one worker with a deterministic priority worklist,
//! and cross-SCC inputs are published write-once — so chaotic scheduling
//! of ready SCCs cannot change a single output byte.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, RefineConfig, ReplacementPolicy};
use rtpf_isa::Layout;
use rtpf_wcet::WcetAnalysis;

/// Cheap-but-diverse suite slice: branchy, loop-nest and state-machine
/// shapes spanning small and large reference footprints.
const PROGRAMS: [&str; 6] = ["bs", "crc", "fft1", "insertsort", "matmult", "statemate"];

/// Geometry extremes plus mid-grid points of Table 2 (index into
/// `paper_configs`): direct-mapped/small, high-assoc/large, and the
/// middle of the grid where SCCs are plentiful.
const CONFIG_IDX: [usize; 6] = [0, 7, 13, 20, 28, 35];

fn assert_same(
    name: &str,
    k: usize,
    policy: ReplacementPolicy,
    seq: &WcetAnalysis,
    par: &WcetAnalysis,
) {
    let ctx = format!("{name} k{} {policy}", k + 1);
    assert_eq!(seq.tau_w(), par.tau_w(), "tau_w diverged for {ctx}");
    assert_eq!(
        seq.classification_counts(),
        par.classification_counts(),
        "classification counts diverged for {ctx}"
    );
    assert_eq!(
        seq.wcet_misses(),
        par.wcet_misses(),
        "WCET misses diverged for {ctx}"
    );
    for r in seq.acfg().refs() {
        assert_eq!(
            seq.classification(r.id),
            par.classification(r.id),
            "classification of {:?} diverged for {ctx}",
            r.id
        );
        assert_eq!(
            seq.cheap_classification(r.id),
            par.cheap_classification(r.id),
            "cheap classification of {:?} diverged for {ctx}",
            r.id
        );
        assert_eq!(
            seq.refine_mark(r.id),
            par.refine_mark(r.id),
            "refine mark of {:?} diverged for {ctx}",
            r.id
        );
        assert_eq!(seq.mem_block(r.id), par.mem_block(r.id));
        assert_eq!(seq.n_w(r.id), par.n_w(r.id));
        assert_eq!(seq.t_w(r.id), par.t_w(r.id));
    }
    assert_eq!(
        seq.refine_stats(),
        par.refine_stats(),
        "refinement stats diverged for {ctx}"
    );
    // The eval/memo-hit *split* is racy under a shared memo, but the sum
    // (work per node) and the pop count are deterministic.
    let sp = seq.profile();
    let pp = par.profile();
    assert_eq!(
        sp.fixpoint_evals + sp.memo_hits,
        pp.fixpoint_evals + pp.memo_hits,
        "total node evaluations diverged for {ctx}"
    );
    assert_eq!(
        sp.states_interned + sp.states_fresh,
        pp.states_interned + pp.states_fresh,
        "total interner traffic diverged for {ctx}"
    );
}

#[test]
fn parallel_analysis_matches_sequential_across_suite_and_policies() {
    let timing = MemTiming::default();
    let configs = CacheConfig::paper_configs();
    for name in PROGRAMS {
        let b = rtpf_suite::by_name(name).expect("suite program");
        for &ki in &CONFIG_IDX {
            let (_, geo) = &configs[ki];
            for policy in ReplacementPolicy::ALL {
                let config = geo.with_policy(policy).expect("Table 2 supports policy");
                let seq = WcetAnalysis::analyze_hierarchy(
                    &b.program,
                    Layout::of(&b.program),
                    &HierarchyConfig::l1_only(config),
                    &timing,
                    RefineConfig::on(),
                    1,
                )
                .expect("sequential analysis");
                for threads in [2, 3] {
                    let par = WcetAnalysis::analyze_hierarchy(
                        &b.program,
                        Layout::of(&b.program),
                        &HierarchyConfig::l1_only(config),
                        &timing,
                        RefineConfig::on(),
                        threads,
                    )
                    .expect("parallel analysis");
                    assert_same(name, ki, policy, &seq, &par);
                }
            }
        }
    }
}
