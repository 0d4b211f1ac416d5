//! `verdict`: time-to-verdict for one program as `rtpf optimize` computes
//! it — a fresh interactive engine (analysis threads 2, verify workers 2)
//! per sample, then analyze → optimize → independent Theorem-1 re-proof.
//! A closed loop with one caller.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rtpf_core::{OptimizeResult, TheoremReport};
use rtpf_engine::{Engine, EngineConfig, EngineError, Grid};
use rtpf_suite::Benchmark;

use crate::gen::{self, VerdictSample};
use crate::spec::WorkloadSpec;
use crate::trace::{OpTrace, Recorder};
use crate::workload::{
    end_to_end, per_layer, repeat_passes, setup_median, LayerSums, Outcome, RunConfig, Timed,
    WORKERS,
};

/// Header of the golden file.
const GOLDEN_HEADER: &str = "program,k,l2,inserted,rounds,wcet_before,wcet_after,\
misses_before,misses_after,candidates_seen,rejected_by_verifier,equivalent,wcet_preserved";

/// Where the golden verdicts live.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/verdict.csv")
}

fn engine_for(s: &VerdictSample, threads: usize) -> Engine {
    let mut config = EngineConfig::interactive(s.config)
        .with_threads(threads)
        .with_verify_workers(threads);
    if s.l2 {
        config = config
            .with_l2(gen::verdict_l2())
            .expect("only samples with the L2's block size get the L2");
    }
    Engine::new(config)
}

/// The golden line of one verdict.
fn line(name: &str, s: &VerdictSample, r: &OptimizeResult, t: &TheoremReport) -> String {
    let rep = &r.report;
    format!(
        "{name},{},{},{},{},{},{},{},{},{},{},{},{}",
        s.k,
        if s.l2 { "l2" } else { "-" },
        rep.inserted,
        rep.rounds,
        rep.wcet_before,
        rep.wcet_after,
        rep.misses_before,
        rep.misses_after,
        rep.candidates_seen,
        rep.rejected_by_verifier,
        t.equivalent,
        t.wcet_preserved
    )
}

/// The identifying `program,k,l2` prefix of a golden line.
fn key_of(line: &str) -> String {
    line.splitn(4, ',').take(3).collect::<Vec<_>>().join(",")
}

/// One sample's verdict line and WCET ratio, wall time, and its layer
/// sums and spans when traced.
struct SampleRun {
    verdict: Result<(String, f64), EngineError>,
    wall: Duration,
    traced: Option<(LayerSums, OpTrace)>,
}

fn ratio(r: &OptimizeResult) -> f64 {
    r.report.wcet_after as f64 / r.report.wcet_before as f64
}

fn run_sample(b: &Benchmark, s: &VerdictSample) -> SampleRun {
    let t0 = Instant::now();
    let engine = engine_for(s, WORKERS);
    let verdict = engine
        .verified(&b.program)
        .map(|(r, t)| (line(b.name, s, &r, &t), ratio(&r)));
    drop(engine);
    SampleRun {
        verdict,
        wall: t0.elapsed(),
        traced: None,
    }
}

/// The sample as two calls: `optimized` (analysis and insertion), then
/// `verified`, whose optimize lookup hits the store, so its span is the
/// re-proof alone.
fn run_sample_traced(b: &Benchmark, s: &VerdictSample, origin: Instant, id: u64) -> SampleRun {
    let mut rec = Recorder::start(origin);
    let engine = engine_for(s, WORKERS);
    let mut sums = LayerSums::default();
    let p = &b.program;
    let verdict = (|| -> Result<(String, f64), EngineError> {
        let t = Instant::now();
        rec.time("core.optimize", || engine.optimized(p))?;
        let span = t.elapsed();
        sums.optimize_self = span.saturating_sub(Duration::from_nanos(engine.profile().total_ns()));
        let (r, theorem) = rec.time("core.verify", || engine.verified(p))?;
        sums.candidates_seen = r.report.candidates_seen;
        sums.inserted = u64::from(r.report.inserted);
        sums.rejected = r.report.rejected_by_verifier;
        Ok((line(b.name, s, &r, &theorem), ratio(&r)))
    })();
    sums.profile = engine.profile();
    sums.store = engine.store().metrics();
    rec.time("engine.teardown", || drop(engine));
    let trace = rec.finish("engine.verdict", id);
    sums.verify = trace.child_total("core.verify");
    sums.teardown = trace.child_total("engine.teardown");
    sums.account(&trace);
    SampleRun {
        verdict,
        wall: trace.root.dur,
        traced: Some((sums, trace)),
    }
}

struct Setup {
    suite: Vec<Benchmark>,
    samples: Vec<VerdictSample>,
    golden: HashMap<String, String>,
    compile: Duration,
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let t0 = Instant::now();
    let suite = rtpf_suite::catalog();
    let compile = t0.elapsed();
    let samples = gen::verdict_samples(&suite, cfg.slice.as_ref(), cfg.seed);
    let path = golden_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read the golden verdicts {}: {e}", path.display()))?;
    let golden = text
        .lines()
        .skip(1)
        .map(|l| (key_of(l), l.to_string()))
        .collect();
    Ok(Setup {
        suite,
        samples,
        golden,
        compile,
    })
}

struct Pass {
    runs: Vec<SampleRun>,
    timed: Timed,
}

fn pass(s: &Setup, traced: bool, origin: Instant) -> Pass {
    let (runs, timed) = Timed::measure(|| {
        s.samples
            .iter()
            .enumerate()
            .map(|(i, sample)| {
                let b = &s.suite[sample.program];
                if traced {
                    run_sample_traced(b, sample, origin, i as u64)
                } else {
                    run_sample(b, sample)
                }
            })
            .collect()
    });
    Pass { runs, timed }
}

/// Every verdict must equal its golden line.
fn check(s: &Setup, p: &Pass, out: &mut Outcome) -> Vec<f64> {
    let mut ratios = Vec::new();
    for (sample, run) in s.samples.iter().zip(&p.runs) {
        let name = s.suite[sample.program].name;
        match &run.verdict {
            Err(e) => out.fail(format!("{name} {}: {e}", sample.k)),
            Ok((line, r)) => {
                match s.golden.get(&key_of(line)) {
                    Some(want) if want == line => {}
                    Some(want) => out.fail(format!("verdict {line} differs from golden {want}")),
                    None => out.fail(format!("verdict {line} has no golden line")),
                }
                ratios.push(*r);
            }
        }
    }
    ratios
}

/// Runs the `verdict` workload.
///
/// # Errors
///
/// Set-up failures (the golden file is unreadable).
pub fn run(spec: WorkloadSpec, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (s, setup_s) = setup_median(|| setup(cfg), drop)?;
    let origin = Instant::now();
    let passes = repeat_passes(cfg.seconds, |_| Ok(pass(&s, cfg.trace, origin)))?;
    // The untraced pass that prices the tracing runs last, on a process
    // as warm as the traced passes found it.
    let reference = cfg.trace.then(|| pass(&s, false, origin));
    let mut ratios = Vec::new();
    for p in reference.iter().chain(&passes) {
        out.attempted += p.runs.len() as u64;
        ratios = check(&s, p, &mut out);
    }
    out.note(format!(
        "{} samples per pass ({} with an L2), one caller, fresh engine per sample, \
         each verdict checked against {}",
        s.samples.len(),
        s.samples.iter().filter(|x| x.l2).count(),
        golden_path()
            .strip_prefix(crate::repo_root())
            .unwrap_or(&golden_path())
            .display()
    ));

    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    match reference {
        None => {
            let latencies: Vec<Vec<f64>> = passes
                .iter()
                .map(|p| p.runs.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect())
                .collect();
            end_to_end(&mut out, spec, setup_s, &latencies, &timed, ratios);
        }
        Some(reference) => {
            let mut sums = LayerSums {
                compile: s.compile,
                ..LayerSums::default()
            };
            for p in passes {
                for run in p.runs {
                    if let Some((sample, trace)) = run.traced {
                        sums.merge(&sample);
                        out.traces.push(trace);
                    }
                }
            }
            per_layer(&mut out, &sums, &timed, reference.timed);
        }
    }
    Ok(out)
}

/// Recomputes the golden verdicts over the whole sample space
/// ([`gen::verdict_space`]) and writes them to [`golden_path`]. Outputs
/// do not depend on thread counts, so this runs one analysis thread per
/// engine on a two-worker grid.
///
/// # Errors
///
/// A failing verdict or an unwritable file.
pub fn bless() -> Result<usize, String> {
    let suite = rtpf_suite::catalog();
    let space = gen::verdict_space(&suite);
    let grid = Grid {
        workers: WORKERS,
        progress_every: 200,
        label: "bless verdict",
        shards: 1,
    };
    let lines = grid.run(&space, |_, s| {
        let b = &suite[s.program];
        engine_for(s, 1)
            .verified(&b.program)
            .map(|(r, t)| line(b.name, s, &r, &t))
            .map_err(|e| format!("{} {}: {e}", b.name, s.k))
    });
    let mut text = format!("{GOLDEN_HEADER}\n");
    for l in lines {
        text.push_str(&l?);
        text.push('\n');
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden file has a directory"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(space.len())
}
