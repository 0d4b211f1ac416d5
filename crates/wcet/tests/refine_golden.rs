//! Golden pin of the exact FIFO/PLRU refinement (DESIGN.md §12).
//!
//! For every suite program × {FIFO, PLRU} × one Table 2 configuration per
//! sampled capacity band, the refinement's outcome — its `RefineStats`,
//! the resulting `τ_w`, and a hash of the per-reference classification
//! and `RefineMark` vectors — must match `refine_golden.csv`, recorded
//! before the exploration switched to interned state ids. PLRU is on no
//! benchmark workload, so this file is its main guard.
//!
//! On a mismatch the freshly computed table is written next to the test
//! binaries (`CARGO_TARGET_TMPDIR`) for diffing.

use rtpf_cache::{
    CacheConfig, Classification, HierarchyConfig, MemTiming, RefineConfig, RefineMark,
    ReplacementPolicy,
};
use rtpf_isa::Layout;
use rtpf_wcet::WcetAnalysis;

const GOLDEN: &str = include_str!("refine_golden.csv");

/// One Table 2 configuration from each of four capacity bands (256 B,
/// 512 B, 1 KiB, 4 KiB), spanning 2- and 4-way sets and both block sizes.
const CONFIGS: [&str; 4] = ["k3", "k8", "k18", "k26"];

/// FNV-1a over the classification and mark codes, reference by reference.
fn outcome_hash(a: &WcetAnalysis) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in a.acfg().refs() {
        let class = match a.classification(r.id) {
            Classification::AlwaysHit => 0u8,
            Classification::AlwaysMiss => 1,
            Classification::Unclassified => 2,
        };
        let mark = match a.refine_mark(r.id) {
            RefineMark::Untouched => 0u8,
            RefineMark::Examined => 1,
            RefineMark::Refined => 2,
        };
        for byte in [class, mark] {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn render() -> String {
    let timing = MemTiming::default();
    let configs = CacheConfig::paper_configs();
    let mut out = String::from(
        "program,policy,k,sets_targeted,sets_exhausted,refined_hits,refined_misses,tau_w,outcome_hash\n",
    );
    for b in rtpf_suite::catalog() {
        for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Plru] {
            for k in CONFIGS {
                let (_, geo) = configs.iter().find(|(id, _)| id == k).expect("Table 2 id");
                let config = geo.with_policy(policy).expect("Table 2 supports policy");
                let a = WcetAnalysis::analyze_hierarchy(
                    &b.program,
                    Layout::of(&b.program),
                    &HierarchyConfig::l1_only(config),
                    &timing,
                    RefineConfig::on(),
                )
                .expect("suite program analyses");
                let s = a.refine_stats();
                out.push_str(&format!(
                    "{},{policy},{k},{},{},{},{},{},{:016x}\n",
                    b.name,
                    s.sets_targeted,
                    s.sets_exhausted,
                    s.refined_hits,
                    s.refined_misses,
                    a.tau_w(),
                    outcome_hash(&a),
                ));
            }
        }
    }
    out
}

#[test]
fn refinement_outcomes_match_the_golden_table() {
    let got = render();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("refine_golden.csv");
        std::fs::write(&path, &got).expect("write actual table");
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("got  {g}\nwant {w}"))
            .unwrap_or_else(|| "row count differs".to_string());
        panic!(
            "refinement outcomes diverged from refine_golden.csv (actual table: {}):\n{first}",
            path.display()
        );
    }
}
