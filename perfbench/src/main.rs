//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark [--seed N] [--seconds S] [--trace [0|1]]   # every workload, one child process each
//! benchmark --repeat N [--workload NAME] [--seed N]    # stability: N fresh processes per workload
//! benchmark --list                                     # workloads and metrics
//! benchmark --bless                                    # rewrite golden/verdict.csv
//! ```
//!
//! A single-workload run prints every metric with its unit, writes its
//! report (and, traced, a Chrome trace) under `target/rtpf-bench/`, and
//! ends its standard output with the one-line JSON result. It exits 0
//! only when every output check passed.

use std::process::{Command, Stdio};

use rtpf_perfbench::report::Report;
use rtpf_perfbench::spec::{self, Manifest};
use rtpf_perfbench::workload::RunConfig;
use rtpf_perfbench::{report_dir, stats, trace, verdict};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--repeat N] [--list] [--bless]";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    list: bool,
    bless: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                a.seconds = Some(s);
            }
            "--repeat" => {
                a.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--list" => a.list = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if spec::workload(w).is_none() {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(a)
}

fn list(manifest: &Manifest) {
    println!("workloads:");
    for w in spec::WORKLOADS {
        println!(
            "  {:<12} tail p{:<3} {}",
            w.name,
            w.tail_percent,
            manifest.why(w.name).unwrap_or("")
        );
    }
    println!("end-to-end metrics (untraced run):");
    for m in spec::END_TO_END {
        println!(
            "  {:<28} {:<9} {:<7} bound {}",
            m.name,
            m.unit,
            m.better.name(),
            manifest.bound(m.name).unwrap_or(f64::NAN)
        );
    }
    println!("per-layer metrics (--trace run, totals per pass):");
    for m in spec::PER_LAYER {
        println!("  {:<32} {:<9} {}", m.name, m.unit, m.better.name());
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(workload: &str, cfg: &RunConfig) -> i32 {
    let (report, traces) = match rtpf_perfbench::run(workload, cfg) {
        Ok(mut outcome) => {
            let traces = std::mem::take(&mut outcome.traces);
            (Report::from_outcome(workload, cfg, &outcome), traces)
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            let mut r = Report::from_outcome(workload, cfg, &Default::default());
            r.correct = false;
            r.failed = r.failed.max(1);
            r.notes.push(format!("FAILED: {e}"));
            (r, Vec::new())
        }
    };

    println!(
        "{workload} (seed {}, {} run):",
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for m in &report.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        println!("  - {n}");
    }

    let dir = report_dir();
    let stem = if cfg.trace {
        format!("{workload}.layers")
    } else {
        workload.to_string()
    };
    let mut written = vec![(dir.join(format!("{stem}.json")), report.to_json())];
    if cfg.trace {
        let (json, events, ops) = trace::chrome_json(&traces);
        println!(
            "  - trace: {events} events, the first {ops} of {} operations",
            traces.len()
        );
        written.push((dir.join(format!("{workload}.trace.json")), json));
    }
    for (path, text) in written {
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("  - wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{workload}: {} ({} attempted, {} failed)",
        if report.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        report.attempted,
        report.failed
    );
    println!("{}", report.result_line());
    i32::from(!report.correct)
}

/// Runs `workload` in a fresh child process, echoing its output but the
/// result line, which it parses.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let mut report =
        Report::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    report.workload = workload.to_string();
    report.seed = seed;
    Ok(report)
}

/// Every workload, each in its own process; one combined result line.
fn run_all(seed: u64, seconds: f64, traced: bool) -> i32 {
    let mut combined = Report {
        workload: "all".to_string(),
        seed,
        trace: traced,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    for w in spec::WORKLOADS {
        match child(w.name, seed, seconds, traced) {
            Ok(r) => {
                combined.correct &= r.correct;
                combined.attempted += r.attempted;
                combined.failed += r.failed;
                for mut m in r.metrics {
                    m.name = format!("{}.{}", w.name, m.name);
                    combined.metrics.push(m);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                combined.correct = false;
                combined.failed += 1;
            }
        }
    }
    combined.attempted = combined.attempted.max(1);
    println!("{}", combined.result_line());
    i32::from(!combined.correct)
}

/// Stability mode: `n` runs per workload in fresh processes, seeds
/// `seed..seed + n`, workload order alternating between runs. Prints
/// each metric's median, quartiles and spread (IQR ÷ median) beside its
/// bound.
fn repeat(
    n: usize,
    workloads: &[&str],
    seed: u64,
    seconds: f64,
    traced: bool,
    manifest: &Manifest,
) -> i32 {
    let mut runs: Vec<Vec<Report>> = vec![Vec::new(); workloads.len()];
    let mut ok = true;
    for rep in 0..n {
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for i in order {
            match child(workloads[i], seed + rep as u64, seconds, traced) {
                Ok(r) => {
                    ok &= r.correct;
                    runs[i].push(r);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "stability over {n} runs per workload (seeds {seed}..{}):",
        seed + n as u64 - 1
    );
    for (w, reports) in workloads.iter().zip(&runs) {
        println!("{w}:");
        let Some(first) = reports.first() else {
            continue;
        };
        for m in &first.metrics {
            let values: Vec<f64> = reports.iter().filter_map(|r| r.value(&m.name)).collect();
            let Some([q1, med, q3]) = stats::quartiles(&values) else {
                continue;
            };
            let spread = stats::ratio(q3 - q1, med.abs());
            let verdict = match manifest.bound(&m.name) {
                Some(b) if spread > b => "OVER BOUND",
                Some(b) if spread > b / 3.0 => "above a third of the bound",
                Some(_) => "ok",
                None => "",
            };
            println!(
                "  {:<32} median {:>14.6} q1 {:>14.6} q3 {:>14.6} spread {:>7.4} {verdict}",
                m.name, med, q1, q3, spread
            );
        }
    }
    i32::from(!ok)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let manifest = match spec::load_manifest() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("refusing to run: {e}");
            std::process::exit(2);
        }
    };
    if args.list {
        list(&manifest);
        return;
    }
    if args.bless {
        match verdict::bless() {
            Ok(n) => println!("wrote {} ({n} verdicts)", verdict::golden_path().display()),
            Err(e) => {
                eprintln!("bless failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    let code = match (args.repeat, &args.workload) {
        (Some(n), w) if n > 0 => {
            let names: Vec<&str> = match w {
                Some(w) => vec![w.as_str()],
                None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
            };
            repeat(n, &names, args.seed, seconds, args.trace, &manifest)
        }
        (Some(_), _) => {
            eprintln!("--repeat needs a positive count");
            2
        }
        (None, Some(w)) => run_one(
            w,
            &RunConfig {
                seed: args.seed,
                seconds,
                trace: args.trace,
                slice: None,
            },
        ),
        (None, None) => run_all(args.seed, seconds, args.trace),
    };
    std::process::exit(code);
}
