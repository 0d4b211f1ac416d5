//! The percentile picker's ten-beyond rule, the quartiles the stability
//! check uses, the report round trip, and the manifest check.

use rtpf_perfbench::report::{Metric, Report};
use rtpf_perfbench::spec;
use rtpf_perfbench::stats;

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
    assert_eq!(stats::percentile(&ascending(1000), 99), Some(990.0));
    assert_eq!(stats::beyond(1000, 99), 10);
    assert_eq!(stats::percentile(&ascending(999), 99), None);
    assert_eq!(stats::percentile(&ascending(100), 90), Some(90.0));
    assert_eq!(stats::percentile(&ascending(99), 90), None);
    // The median follows the same rule.
    assert_eq!(stats::percentile(&ascending(20), 50), Some(10.0));
    assert_eq!(stats::percentile(&ascending(19), 50), None);
    assert_eq!(stats::percentile(&[], 50), None);
    assert_eq!(stats::beyond(0, 50), 0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(stats::quartiles(&ascending(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(
        stats::quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]),
        Some([1.5, 3.0, 4.5])
    );
    assert_eq!(stats::quartiles(&[1.0, 2.0]), None);
}

#[test]
fn reductions_are_geometric() {
    assert_eq!(stats::reduction_pct([]), 0.0);
    let r = stats::reduction_pct([0.5, 2.0, 0.81]);
    assert!((r - 100.0 * (1.0 - 0.81f64.powf(1.0 / 3.0))).abs() < 1e-9);
}

fn sample_report() -> Report {
    Report {
        workload: "serve".to_string(),
        seed: 17,
        trace: false,
        correct: true,
        attempted: 50_000,
        failed: 0,
        metrics: vec![
            Metric {
                name: "ops_per_s".to_string(),
                unit: "1/s".to_string(),
                value: 6929.402963010297,
            },
            Metric {
                name: "latency_p50_ms".to_string(),
                unit: "ms".to_string(),
                value: 0.094315,
            },
            Metric {
                name: "setup_s".to_string(),
                unit: "s".to_string(),
                value: 1.0e-7,
            },
        ],
        notes: vec!["a \"quoted\" note\nover two lines".to_string()],
    }
}

#[test]
fn the_report_round_trips_through_json() {
    let r = sample_report();
    assert_eq!(Report::parse(&r.to_json()), Ok(r.clone()));

    // The result line keeps exactly four keys and the same numbers.
    let line = r.result_line();
    assert!(!line.contains('\n'));
    let back = Report::parse(&line).expect("the result line parses");
    assert_eq!(
        (back.correct, back.attempted, back.failed, &back.metrics),
        (r.correct, r.attempted, r.failed, &r.metrics)
    );
    let doc = rtpf_serve::json::Value::parse(&line).expect("json");
    let rtpf_serve::json::Value::Obj(fields) = doc else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn the_repository_manifest_agrees_with_the_binary() {
    let m = spec::load_manifest().expect("BENCHMARK.json matches the built-in tables");
    for metric in spec::END_TO_END {
        let bound = m.bound(metric.name).expect("every e2e metric has a bound");
        assert!((0.0..=0.25).contains(&bound), "{}: {bound}", metric.name);
    }
    let largest = m.bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max);
    assert_eq!(
        m.bound("setup_s"),
        Some(largest),
        "set-up gets the largest bound"
    );
    for w in spec::WORKLOADS {
        assert!(m.why(w.name).is_some_and(|why| !why.is_empty()));
    }
}

#[test]
fn a_disagreeing_manifest_is_refused() {
    let text = std::fs::read_to_string(spec::manifest_path()).expect("manifest");
    for (from, to) in [
        ("\"sweep-fifo\"", "\"sweep-plru\""),
        ("\"ops_per_s\"", "\"requests_per_s\""),
        ("\"unit\": \"MB\"", "\"unit\": \"GB\""),
        ("\"better\": \"higher\"", "\"better\": \"lower\""),
    ] {
        assert!(text.contains(from), "{from}");
        let tampered = text.replacen(from, to, 1);
        assert!(
            spec::check_manifest(&tampered).is_err(),
            "{from} -> {to} must be refused"
        );
    }
    assert!(spec::check_manifest("{").is_err());
}
