//! The lineage-cached IPET graph solves exactly like a fresh
//! [`ipet::solve_dag`].
//!
//! An analysis lineage freezes the IPET graph's edges and topological
//! order once and re-solves it under each candidate's node weights. The
//! order decides ties between equal-weight paths, and the optimizer reads
//! `on_path` and `n_w`, so any drift between the cached graph and a
//! freshly built one would change decisions without touching `τ_w`. For
//! every suite program, one Table 2 configuration per sampled capacity
//! band under LRU (plus FIFO at k8), both the root analysis and the end
//! of the optimizer's lineage (`analysis_after`, reached through
//! incremental re-analyses) must match a fresh solve on `τ_w`, `on_path`
//! and `n_w`.

use rtpf_cache::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use rtpf_core::{OptimizeParams, Optimizer};
use rtpf_wcet::{ipet, NodeId, WcetAnalysis};

/// Asserts that `a`'s IPET solution equals a fresh solve of its weights.
fn assert_fresh_ipet_agrees(a: &WcetAnalysis, what: &str) {
    let vivu = a.vivu();
    let weights: Vec<u64> = vivu
        .nodes()
        .iter()
        .map(|n| {
            let per_run: u64 = a.acfg().refs_of_node(n.id).iter().map(|&r| a.t_w(r)).sum();
            per_run * n.mult
        })
        .collect();
    let fresh = ipet::solve_dag(vivu, &weights).expect("fresh IPET solves");
    assert_eq!(a.tau_w(), fresh.tau_w, "{what}: tau_w");
    let on_path: Vec<bool> = (0..vivu.len())
        .map(|i| a.node_on_wcet_path(NodeId(i as u32)))
        .collect();
    assert_eq!(on_path, fresh.on_path, "{what}: on_path");
    for r in a.acfg().refs() {
        assert_eq!(
            a.n_w(r.id),
            fresh.n_w[r.node.index()],
            "{what}: n_w of {}",
            r.id
        );
    }
}

/// Optimizes every suite program under Table 2 configuration `k` and
/// checks the root analysis and the end of the optimizer's lineage.
fn check_suite(k: &str, policy: ReplacementPolicy) {
    let (_, geo) = CacheConfig::paper_configs()
        .into_iter()
        .find(|(id, _)| id == k)
        .expect("Table 2 id");
    let config = geo.with_policy(policy).expect("Table 2 supports policy");
    for b in rtpf_suite::catalog() {
        let what = format!("{} {k} {policy}", b.name);
        let opt =
            Optimizer::new_hierarchy(HierarchyConfig::l1_only(config), OptimizeParams::default())
                .run(&b.program)
                .expect("suite program optimizes");
        assert_fresh_ipet_agrees(&opt.analysis_before, &format!("{what} before"));
        assert_fresh_ipet_agrees(&opt.analysis_after, &format!("{what} after"));
    }
}

// One Table 2 configuration from each of four capacity bands (256 B,
// 512 B, 1 KiB, 4 KiB), one test each so the harness runs them in
// parallel.

#[test]
fn lru_k3_lineages_match_a_fresh_solve() {
    check_suite("k3", ReplacementPolicy::Lru);
}

#[test]
fn lru_k8_lineages_match_a_fresh_solve() {
    check_suite("k8", ReplacementPolicy::Lru);
}

#[test]
fn lru_k18_lineages_match_a_fresh_solve() {
    check_suite("k18", ReplacementPolicy::Lru);
}

#[test]
fn lru_k26_lineages_match_a_fresh_solve() {
    check_suite("k26", ReplacementPolicy::Lru);
}

#[test]
fn fifo_k8_lineages_match_a_fresh_solve() {
    check_suite("k8", ReplacementPolicy::Fifo);
}
