//! Policy-generic soundness properties.
//!
//! The cache abstraction is generic over the replacement policy; FIFO
//! and tree-PLRU run their must/may domains through
//! relative-competitiveness reductions to LRU (DESIGN.md §10). Those
//! reductions are allowed to lose precision but never soundness, so the
//! property is the same for every policy:
//!
//! * the abstract classifier never reports *always-hit* where the
//!   concrete policy misses (RTPF020), nor *always-miss* where it hits
//!   (RTPF022) — over sampled suite programs × Table 2 configurations;
//! * conversely, a deliberately broken classifier is still caught under
//!   every policy, proving the concrete walks actually exercise the
//!   configured policy rather than silently falling back to LRU.

use proptest::prelude::*;

use rtpf_audit::{
    audit_soundness, audit_soundness_with, Code, DiagnosticSink, SeverityConfig, SoundnessOptions,
};
use rtpf_cache::{CacheConfig, Classification, MemTiming, ReplacementPolicy};

/// The CI policy: `--deny warnings`.
fn deny_warnings() -> SeverityConfig {
    let mut c = SeverityConfig::new();
    c.deny_warnings = true;
    c
}

fn fired(sink: &DiagnosticSink, code: Code) -> bool {
    sink.diagnostics().iter().any(|d| d.code == code)
}

fn policy_config(ki: usize, poli: usize) -> CacheConfig {
    let (_, config) = CacheConfig::paper_configs()[ki].clone();
    config
        .with_policy(ReplacementPolicy::ALL[poli])
        .expect("Table 2 associativities support every policy")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampled (benchmark, configuration, policy) triples classify
    /// soundly: the concrete cross-check, walking the exact configured
    /// policy, finds zero contradictions.
    #[test]
    fn every_policy_classifies_soundly(
        pi in 0usize..37,
        ki in 0usize..36,
        poli in 0usize..3,
    ) {
        let b = &rtpf_suite::catalog()[pi];
        let config = policy_config(ki, poli);
        let mut sink = DiagnosticSink::new(deny_warnings());
        let timing = MemTiming::default();
        let opts = SoundnessOptions { walks: 4, ..SoundnessOptions::default() };
        let sum = audit_soundness(&b.program, &config, &timing, &mut sink, &opts)
            .expect("suite program analyses");
        prop_assert_eq!(
            sum.unsound, 0,
            "{} under {}: {}", b.name, config.policy(), sink.render_text()
        );
        prop_assert!(!sink.has_denials(), "{}:\n{}", b.name, sink.render_text());
    }

    /// An everything-is-always-hit classifier is caught under every
    /// policy: the first fetch of a cold cache misses no matter how the
    /// sets are managed, and the walks use the configured policy.
    #[test]
    fn broken_classifier_is_caught_under_every_policy(
        pi in 0usize..37,
        ki in 0usize..36,
        poli in 0usize..3,
    ) {
        let b = &rtpf_suite::catalog()[pi];
        let config = policy_config(ki, poli);
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        let timing = MemTiming::default();
        let opts = SoundnessOptions { walks: 2, ..SoundnessOptions::default() };
        audit_soundness_with(&b.program, &config, &timing, &mut sink, &opts, |_, _| {
            Classification::AlwaysHit
        })
        .expect("suite program analyses");
        prop_assert!(
            fired(&sink, Code::UnsoundAlwaysHit),
            "{} under {} not caught", b.name, config.policy()
        );
        prop_assert!(sink.has_denials());
    }
}
