//! `sweep-lru` and `sweep-fifo`: the paper's evaluation grid as batch
//! work on a two-worker [`Grid`], one fresh engine per unit (see
//! [`unit_engine`]).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rtpf_cache::{CacheConfig, ReplacementPolicy};
use rtpf_engine::{to_csv, Engine, EngineConfig, EngineError, Grid, UnitResult};
use rtpf_suite::Benchmark;

use crate::gen::{self, SweepUnit};
use crate::spec::WorkloadSpec;
use crate::trace::{OpTrace, Recorder};
use crate::workload::{
    end_to_end, per_layer, repeat_passes, setup_median, LayerSums, Outcome, RunConfig, Timed,
    WORKERS,
};

/// The inputs and oracle of one sweep run.
struct Setup {
    suite: Vec<Benchmark>,
    units: Vec<SweepUnit>,
    /// The committed CSV: header plus one line per `(program, k)`.
    oracle_text: String,
    oracle: HashMap<(String, String), String>,
    compile: Duration,
}

fn setup(policy: ReplacementPolicy, cfg: &RunConfig) -> Result<Setup, String> {
    let t0 = Instant::now();
    let suite = rtpf_suite::catalog();
    let compile = t0.elapsed();
    let units = gen::sweep_units(&suite, policy, cfg.slice.as_ref(), cfg.seed);
    let path = crate::repo_root()
        .join("results")
        .join(rtpf_experiments::sweep_artifact_name(policy));
    let oracle_text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read the oracle {}: {e}", path.display()))?;
    let oracle = oracle_text
        .lines()
        .skip(1)
        .filter_map(|line| {
            let mut f = line.split(',');
            Some((
                (f.next()?.to_string(), f.next()?.to_string()),
                line.to_string(),
            ))
        })
        .collect();
    Ok(Setup {
        suite,
        units,
        oracle_text,
        oracle,
        compile,
    })
}

/// The engine of one unit: the engine `rtpf_experiments::run_unit`
/// builds (`engine_with_threads(config, 1)`), with the optimizer's
/// speculative verify pool also pinned to one worker. Left at its
/// default, that pool takes one worker per core inside every unit, so
/// each of the grid's two workers would run a machine-sized pool: on the
/// 2-vCPU reference VM that costs 45 % more CPU per unit and 40 % of the
/// throughput, and the load would depend on the machine.
fn unit_engine(config: CacheConfig) -> Engine {
    Engine::new(
        EngineConfig::evaluation(config)
            .with_threads(1)
            .with_verify_workers(1),
    )
}

/// One unit's result and wall time, plus its layer sums and spans when
/// traced.
struct UnitRun {
    row: Result<UnitResult, EngineError>,
    wall: Duration,
    traced: Option<(LayerSums, OpTrace)>,
}

fn run_unit(b: &Benchmark, u: &SweepUnit) -> UnitRun {
    let t0 = Instant::now();
    let engine = unit_engine(u.config);
    let row = engine.unit(b.name, &u.k, &b.program).map(|r| (*r).clone());
    drop(engine);
    UnitRun {
        row,
        wall: t0.elapsed(),
        traced: None,
    }
}

/// The unit through its stages one call at a time: each later call hits
/// the store for the artifacts earlier ones computed, so each span is
/// that stage's own cost.
fn run_unit_traced(b: &Benchmark, u: &SweepUnit, origin: Instant, id: u64) -> UnitRun {
    let mut rec = Recorder::start(origin);
    let engine = unit_engine(u.config);
    let mut sums = LayerSums::default();
    let staged = (|| -> Result<UnitResult, EngineError> {
        let p = &b.program;
        let t = Instant::now();
        let opt = rec.time("core.optimize", || engine.optimized(p))?;
        let span = t.elapsed();
        // A fresh engine: its profile so far is the optimize stage's.
        let in_optimize = Duration::from_nanos(engine.profile().total_ns());
        sums.optimize_self = span.saturating_sub(in_optimize);
        let orig = rec.time("sim.simulate", || engine.simulated(p))?;
        let optimized = rec.time("sim.simulate", || engine.simulated(&opt.program))?;
        let gated = rec.time("engine.gate", || engine.gated_optimize(p))?;
        rec.time("energy.energy", || {
            std::hint::black_box(engine.energies(&gated.sim_orig));
            std::hint::black_box(engine.energies(&gated.sim_opt));
        });
        let row = rec.time("engine.probe", || engine.unit(b.name, &u.k, p))?;
        sums.candidates_seen = opt.report.candidates_seen;
        sums.inserted = u64::from(opt.report.inserted);
        sums.rejected = opt.report.rejected_by_verifier;
        sums.sim_instructions = orig.instr_executed + optimized.instr_executed;
        sums.prefetches_issued = optimized.prefetches_issued;
        sums.prefetch_useful = optimized.prefetch_useful;
        Ok((*row).clone())
    })();
    sums.profile = engine.profile();
    sums.store = engine.store().metrics();
    rec.time("engine.teardown", || drop(engine));
    let trace = rec.finish("engine.unit", id);
    sums.simulate = trace.child_total("sim.simulate");
    sums.gate = trace.child_total("engine.gate");
    sums.energy = trace.child_total("energy.energy");
    sums.probe = trace.child_total("engine.probe");
    sums.teardown = trace.child_total("engine.teardown");
    sums.account(&trace);
    UnitRun {
        wall: trace.root.dur,
        row: staged,
        traced: Some((sums, trace)),
    }
}

/// One pass over every unit.
struct Pass {
    runs: Vec<UnitRun>,
    timed: Timed,
}

fn pass(s: &Setup, traced: bool, origin: Instant) -> Pass {
    let grid = Grid {
        workers: WORKERS,
        progress_every: 0,
        label: "perfbench",
        shards: 1,
    };
    let (runs, timed) = Timed::measure(|| {
        grid.run(&s.units, |i, u| {
            let b = &s.suite[u.program];
            if traced {
                run_unit_traced(b, u, origin, i as u64)
            } else {
                run_unit(b, u)
            }
        })
    });
    Pass { runs, timed }
}

/// Checks a pass's rows against the committed CSV: every row must equal
/// its `(program, k)` line, and a pass over the whole grid must render
/// the committed file byte for byte.
fn check(s: &Setup, p: &Pass, full_grid: bool, out: &mut Outcome) -> Vec<UnitResult> {
    let mut rows = Vec::with_capacity(p.runs.len());
    for (u, run) in s.units.iter().zip(&p.runs) {
        let name = s.suite[u.program].name;
        match &run.row {
            Err(e) => out.fail(format!("{name} {}: {e}", u.k)),
            Ok(row) => {
                let rendered = to_csv(std::slice::from_ref(row));
                let line = rendered.lines().nth(1).unwrap_or_default();
                match s.oracle.get(&(name.to_string(), u.k.clone())) {
                    Some(want) if want == line => {}
                    Some(_) => out.fail(format!(
                        "{name} {}: row differs from the committed CSV",
                        u.k
                    )),
                    None => out.fail(format!("{name} {}: no committed row", u.k)),
                }
                rows.push(row.clone());
            }
        }
    }
    if full_grid {
        rows.sort_by(|a, b| (&a.program, &a.k).cmp(&(&b.program, &b.k)));
        if to_csv(&rows) != s.oracle_text {
            out.fail("the rendered grid is not byte-identical to the committed CSV");
        }
    }
    rows
}

/// Runs one sweep workload.
///
/// # Errors
///
/// Set-up failures (the committed CSV is unreadable).
pub fn run(
    spec: WorkloadSpec,
    policy: ReplacementPolicy,
    cfg: &RunConfig,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (s, setup_s) = setup_median(|| setup(policy, cfg), drop)?;
    let full_grid = policy == ReplacementPolicy::Lru && cfg.slice.is_none();
    let origin = Instant::now();

    let passes = repeat_passes(cfg.seconds, |_| Ok(pass(&s, cfg.trace, origin)))?;
    // The untraced pass that prices the tracing runs last, on a process
    // as warm as the traced passes found it.
    let reference = cfg.trace.then(|| pass(&s, false, origin));
    let mut rows = Vec::new();
    for p in reference.iter().chain(&passes) {
        out.attempted += p.runs.len() as u64;
        rows = check(&s, p, full_grid, &mut out);
    }
    let mut sums = LayerSums {
        compile: s.compile,
        energy_ratios: rows.iter().map(|r| r.energy_ratio(0)).collect(),
        ..LayerSums::default()
    };
    let mut latencies = Vec::new();
    for p in &passes {
        latencies.push(p.runs.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect());
        let busy: Duration = p.runs.iter().map(|r| r.wall).sum();
        sums.grid_busy += busy;
        sums.grid_idle +=
            Duration::from_secs_f64(WORKERS as f64 * p.timed.wall_s).saturating_sub(busy);
    }
    out.note(format!(
        "{} units per pass ({policy}), grid of {WORKERS} workers, {}",
        s.units.len(),
        if full_grid {
            "CSV byte-identity checked per pass"
        } else {
            "each row checked against its committed line"
        }
    ));

    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    match reference {
        None => {
            let ratios = rows.iter().map(UnitResult::wcet_ratio);
            end_to_end(&mut out, spec, setup_s, &latencies, &timed, ratios);
        }
        Some(reference) => {
            for p in passes {
                for run in p.runs {
                    if let Some((unit, trace)) = run.traced {
                        sums.merge(&unit);
                        out.traces.push(trace);
                    }
                }
            }
            per_layer(&mut out, &sums, &timed, reference.timed);
        }
    }
    Ok(out)
}
