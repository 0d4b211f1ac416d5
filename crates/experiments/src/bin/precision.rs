//! Per-policy precision scores of the abstract classifier, recorded as
//! the `results/precision.csv` artifact.
//!
//! For each replacement policy the soundness audit walks every
//! `(program, Table 2 configuration)` unit concretely and scores how
//! often the abstract classification matched the observed behaviour.
//! The LRU row is the analog of the repository's headline ≈0.98 figure;
//! FIFO and PLRU go through the competitiveness-based reductions of
//! DESIGN.md §10 — scored both raw (`mean_precision_cheap`) and with the
//! exact per-set refinement of DESIGN.md §12 applied (`mean_precision`).
//! The audit asserts every policy is *sound* (zero RTPF020/022/040/042
//! findings).
//!
//! With `--check` the run additionally enforces the committed precision
//! record ([`rtpf_experiments::PRECISION_RECORD`]): any policy scoring
//! below its record, or any unsound finding, fails the process — the CI
//! ratchet against precision regressions.

fn main() {
    use rtpf_cache::ReplacementPolicy;

    let check = std::env::args().any(|a| a == "--check");
    let t0 = std::time::Instant::now();
    let mut failures = Vec::new();
    let rows: Vec<_> = ReplacementPolicy::ALL
        .into_iter()
        .map(|policy| {
            let r = rtpf_experiments::measure_precision(policy);
            println!(
                "{policy}: mean precision {:.3} (cheap {:.3}, {} refs refined) over {} \
                 analyses ({} unsound, {} precision gaps)",
                r.mean_precision,
                r.mean_precision_cheap,
                r.refined,
                r.analyses,
                r.unsound,
                r.precision_gaps
            );
            assert_eq!(
                r.unsound, 0,
                "{policy}: abstract classifier contradicted the concrete cache"
            );
            assert!(
                r.mean_precision >= r.mean_precision_cheap,
                "{policy}: refinement may never lose precision \
                 ({:.6} < {:.6})",
                r.mean_precision,
                r.mean_precision_cheap
            );
            if check {
                let record = rtpf_experiments::precision_record(policy);
                if r.mean_precision < record {
                    failures.push(format!(
                        "{policy}: measured precision {:.6} fell below the committed \
                         record {record:.3}",
                        r.mean_precision
                    ));
                }
            }
            r
        })
        .collect();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("precision --check: {f}");
        }
        std::process::exit(1);
    }
    let path = rtpf_experiments::persist_precision(&rows);
    println!(
        "precision audit complete in {:.1}s: {}{}",
        t0.elapsed().as_secs_f64(),
        path.display(),
        if check { " (record check passed)" } else { "" }
    );
}
