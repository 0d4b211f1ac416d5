//! Thread-count invariance of the full analysis: `analyze_hierarchy` at
//! any `threads` value must be indistinguishable from the single-thread
//! run — same `τ_w`, same per-reference classifications, marks, L2
//! classes and WCET counts, same work counters — across the benchmark
//! suite, the paper's Table 2 geometries, all three replacement policies,
//! and a two-level hierarchy.
//!
//! The classify fixpoint is one sequential solver, so `threads` drives
//! only the exact per-set refinement (DESIGN.md §12–13): each targeted
//! cache set is explored independently on a scoped worker, and the
//! outcomes are applied in sorted set order. Under FIFO and tree-PLRU
//! that fan-out does real work, and with an L2 level its refined L1
//! classes feed the L2 filter; under LRU it is idle. Nothing inside one
//! analysis races for the lineage memo, so every work counter is exact,
//! not just the eval/memo-hit and interned/fresh sums.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, RefineConfig, ReplacementPolicy};
use rtpf_isa::Layout;
use rtpf_wcet::WcetAnalysis;

/// Cheap-but-diverse suite slice: branchy, loop-nest and state-machine
/// shapes spanning small and large reference footprints.
const PROGRAMS: [&str; 6] = ["bs", "crc", "fft1", "insertsort", "matmult", "statemate"];

/// Geometry extremes plus mid-grid points of Table 2 (index into
/// `paper_configs`): direct-mapped/small, high-assoc/large, and the
/// middle of the grid.
const CONFIG_IDX: [usize; 6] = [0, 7, 13, 20, 28, 35];

fn assert_same(ctx: &str, seq: &WcetAnalysis, par: &WcetAnalysis) {
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
        assert_eq!(
            seq.l2_classification(r.id),
            par.l2_classification(r.id),
            "L2 classification of {:?} diverged for {ctx}",
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
    let sp = seq.profile();
    let pp = par.profile();
    assert_eq!(
        sp.fixpoint_evals, pp.fixpoint_evals,
        "fixpoint evals diverged for {ctx}"
    );
    assert_eq!(sp.memo_hits, pp.memo_hits, "memo hits diverged for {ctx}");
    assert_eq!(
        sp.states_interned, pp.states_interned,
        "interned states diverged for {ctx}"
    );
    assert_eq!(
        sp.states_fresh, pp.states_fresh,
        "fresh states diverged for {ctx}"
    );
}

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

fn analyze(
    program: &rtpf_isa::Program,
    hierarchy: &HierarchyConfig,
    timing: &MemTiming,
    threads: usize,
) -> WcetAnalysis {
    WcetAnalysis::analyze_hierarchy(
        program,
        Layout::of(program),
        hierarchy,
        timing,
        RefineConfig::on(),
        threads,
    )
    .expect("analysis succeeds")
}

/// Runs `hierarchy` at threads 1, 2 and 3 and checks the three agree.
fn check(ctx: &str, program: &rtpf_isa::Program, hierarchy: &HierarchyConfig, timing: &MemTiming) {
    let seq = analyze(program, hierarchy, timing, 1);
    assert_phase_split(ctx, &seq);
    for threads in [2, 3] {
        let par = analyze(program, hierarchy, timing, threads);
        let ctx = format!("{ctx} threads {threads}");
        assert_phase_split(&ctx, &par);
        assert_same(&ctx, &seq, &par);
    }
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
                let ctx = format!("{name} k{} {policy}", ki + 1);
                check(&ctx, &b.program, &HierarchyConfig::l1_only(config), &timing);
            }
        }
    }
}

#[test]
fn two_level_analysis_is_thread_invariant() {
    let timing = MemTiming::with_miss_penalty(20).with_l2_hit(8);
    let l2 = CacheConfig::new(8, 16, 16384).expect("valid L2");
    let configs = CacheConfig::paper_configs();
    let mut checked = 0;
    for name in PROGRAMS {
        let b = rtpf_suite::by_name(name).expect("suite program");
        for &ki in &CONFIG_IDX {
            let (_, geo) = &configs[ki];
            if geo.block_bytes() != l2.block_bytes() {
                continue;
            }
            for policy in ReplacementPolicy::ALL {
                let l1 = geo.with_policy(policy).expect("Table 2 supports policy");
                let hierarchy = HierarchyConfig::two_level(l1, l2).expect("valid hierarchy");
                let ctx = format!("{name} k{} {policy} + L2 {l2}", ki + 1);
                check(&ctx, &b.program, &hierarchy, &timing);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, PROGRAMS.len() * 4 * ReplacementPolicy::ALL.len());
}
