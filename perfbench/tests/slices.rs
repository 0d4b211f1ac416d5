//! A 2-program × 2-configuration slice of every workload runs through
//! the real code path and passes its oracle: the committed sweep CSVs,
//! the golden verdicts, and the daemon-vs-library byte identity with
//! exactly-once compute.

use rtpf_perfbench::gen::{self, Slice};
use rtpf_perfbench::trace;
use rtpf_perfbench::workload::RunConfig;

const PROGRAMS: [&str; 2] = ["bs", "fibcall"];

fn slice_run(workload: &str, configs: &[&str], traced: bool) -> rtpf_perfbench::workload::Outcome {
    let cfg = RunConfig {
        seed: 11,
        seconds: 0.0,
        trace: traced,
        slice: Some(Slice::new(&PROGRAMS, configs)),
    };
    let out = rtpf_perfbench::run(workload, &cfg).expect("the slice sets up");
    assert_eq!(out.failed, 0, "{workload}: {:#?}", out.notes);
    assert!(out.attempted > 0, "{workload} ran nothing");
    let report = rtpf_perfbench::report::Report::from_outcome(workload, &cfg, &out);
    assert_eq!(report.attempted, out.attempted);
    out
}

#[test]
fn sweep_lru_slice_matches_the_committed_csv() {
    let out = slice_run("sweep-lru", &["k1", "k8"], false);
    // Four units are too few for any percentile with ten samples beyond.
    assert!(!out.values.contains_key("latency_tail_ms"));
    assert!(out.values["ops_per_s"] > 0.0);
}

#[test]
fn sweep_fifo_slice_matches_the_committed_csv() {
    slice_run("sweep-fifo", &["k2", "k9"], false);
}

#[test]
fn verdict_slice_matches_the_golden_verdicts() {
    // k7 takes the L2 on the slice's second sample.
    slice_run("verdict", &["k2", "k7"], false);
}

#[test]
fn serve_slice_is_byte_identical_to_the_library_and_computes_once() {
    let out = slice_run("serve", &[gen::SERVE_CACHE], false);
    assert!(out.values["wcet_reduction_pct"].is_finite());
}

#[test]
fn a_traced_sweep_reconciles_and_renders_a_chrome_trace() {
    let out = slice_run("sweep-lru", &["k1", "k8"], true);
    assert_eq!(out.traces.len(), 4);
    for op in &out.traces {
        let names: Vec<&str> = op.children.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "core.optimize",
                "sim.simulate",
                "sim.simulate",
                "engine.gate",
                "energy.energy",
                "engine.probe",
                "engine.teardown"
            ]
        );
        assert!(
            op.children
                .iter()
                .map(|c| c.dur)
                .sum::<std::time::Duration>()
                <= op.root.dur
        );
    }
    assert!(out.values["wcet.fixpoint_ms"] > 0.0);
    assert_eq!(out.values["core.verify_ms"], 0.0, "sweeps never re-prove");
    assert_eq!(out.values["bench.traced_ops"], 4.0);
    let (json, events, ops) = trace::chrome_json(&out.traces);
    assert_eq!(ops, 4);
    assert!(events >= 4 * 8);
    let doc = rtpf_serve::json::Value::parse(&json).expect("the trace is JSON");
    assert!(
        matches!(doc.get("traceEvents"), Some(rtpf_serve::json::Value::Arr(e)) if e.len() == events)
    );
}

#[test]
fn a_traced_verdict_times_the_re_proof() {
    let out = slice_run("verdict", &["k2", "k7"], true);
    assert!(out.values["core.verify_ms"] > 0.0);
    assert_eq!(out.values["sim.simulate_ms"], 0.0);
}

#[test]
fn a_traced_serve_times_every_request_phase() {
    let out = slice_run("serve", &[gen::SERVE_CACHE], true);
    // Two programs × four operations, 25 copies.
    assert_eq!(out.traces.len(), 200);
    assert!(out.values["engine.store.misses"] > 0.0);
    assert!(out.values["engine.store.hits"] > 0.0);
    assert!(out.values["serve.connect_ms"] > 0.0);
    assert!(out.traces.iter().all(|t| t.children.len() == 5));
}
