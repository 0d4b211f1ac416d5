//! What every workload shares: the run configuration, the outcome it
//! reports, repeated set-up, the pass loop, and the per-layer sums.
//!
//! A *pass* is one execution of a workload's seeded input set. A run
//! sets up [`SETUP_REPEATS`] times (reporting the median), then repeats
//! passes until `seconds` have elapsed, always finishing the pass in
//! flight. Every pass does the same work, so passes can be compared
//! operation by operation (see [`end_to_end`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtpf_engine::StoreMetrics;
use rtpf_wcet::AnalysisProfile;

use crate::gen::Slice;
use crate::spec::WorkloadSpec;
use crate::stats;
use crate::trace::OpTrace;

/// Threads every load runs on: grid workers, analysis threads, verify
/// workers, daemon workers and client threads. Fixed, never derived from
/// the machine, so the same inputs mean the same contention everywhere.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 31;

/// How one run is driven.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds of passes to run (the pass in flight always finishes).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Restrict the inputs (tests); `None` runs the full workload.
    pub slice: Option<Slice>,
}

/// What a run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Failed operations and failed output checks.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable facts about the run.
    pub notes: Vec<String>,
    /// Traced operations (traced runs only).
    pub traces: Vec<OpTrace>,
}

/// Failure notes kept per run; later failures are only counted.
const MAX_FAILURE_NOTES: usize = 20;

impl Outcome {
    /// Records one failed operation or check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failed as usize <= MAX_FAILURE_NOTES {
            self.notes.push(format!("FAILED: {}", why.into()));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Sets up [`SETUP_REPEATS`] times, handing every set-up but the last to
/// `discard`, and returns the last one with the median set-up seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn setup_median<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(value) {
            discard(previous);
        }
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Runs `pass(index)` until `seconds` have elapsed since the first one
/// started (at least once).
///
/// # Errors
///
/// The first pass error.
pub fn repeat_passes<P>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<P, String>,
) -> Result<Vec<P>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass(out.len())?);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// Wall and CPU time of the timed part of one pass, and the process's
/// peak resident set when it ended.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// `VmHWM` in MB at the end of the pass.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Times `f`.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Timed) {
        let cpu0 = stats::cpu_seconds();
        let t0 = Instant::now();
        let out = f();
        let timed = Timed {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: stats::cpu_seconds() - cpu0,
            peak_rss_mb: stats::peak_rss_mb(),
        };
        (out, timed)
    }
}

/// Fills the end-to-end metrics of an untraced run from each pass's
/// per-operation latencies (ms), the passes' timing, and the outcome
/// ratios (optimized / original WCET).
///
/// Every pass runs the same operations, and the host only ever slows a
/// pass down: other tenants take its cores for bursts of a second or
/// more. So each timing keeps the best the passes showed: throughput and
/// CPU cost from the fastest pass (least wall time), and each
/// operation's latency as the lowest over the passes, with the
/// percentiles taken over the operations. The peak resident set is the
/// one at the end of the first pass, set-up plus one pass of work; later
/// passes repeat that work and add only allocator fragmentation, which
/// varies from run to run.
pub fn end_to_end(
    out: &mut Outcome,
    spec: WorkloadSpec,
    setup_s: f64,
    latencies_ms: &[Vec<f64>],
    timed: &[Timed],
    wcet_ratios: impl IntoIterator<Item = f64>,
) {
    let best = timed
        .iter()
        .copied()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .unwrap_or_default();
    let ops = latencies_ms.first().map_or(0, Vec::len);
    let mut sorted: Vec<f64> = (0..ops)
        .map(|i| {
            latencies_ms
                .iter()
                .filter_map(|pass| pass.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    sorted.sort_by(f64::total_cmp);
    out.set("setup_s", setup_s);
    out.set("ops_per_s", ops as f64 / best.wall_s);
    out.set("cpu_ms_per_op", 1e3 * best.cpu_s / ops as f64);
    out.set(
        "peak_rss_mb",
        timed.first().map_or(f64::NAN, |t| t.peak_rss_mb),
    );
    out.set("wcet_reduction_pct", stats::reduction_pct(wcet_ratios));
    for (name, percent) in [
        ("latency_p50_ms", 50),
        ("latency_tail_ms", spec.tail_percent),
    ] {
        match stats::percentile(&sorted, percent) {
            Some(v) => out.set(name, v),
            None => out.note(format!(
                "{name}: fewer than {} of {ops} operations beyond p{percent}",
                stats::MIN_BEYOND
            )),
        }
    }
    let walls: Vec<String> = timed.iter().map(|t| format!("{:.3}", t.wall_s)).collect();
    out.note(format!(
        "{} passes of {ops} operations: wall {} s; the fastest took {:.3} s and {:.3} CPU s",
        timed.len(),
        walls.join(", "),
        best.wall_s,
        best.cpu_s
    ));
    out.note(format!(
        "latency: each operation's lowest of {} passes, over n = {ops} operations; \
         p50 has {} beyond, tail = p{} has {} beyond",
        timed.len(),
        stats::beyond(ops, 50),
        spec.tail_percent,
        stats::beyond(ops, spec.tail_percent)
    ));
}

/// Adds `b`'s counters to `a`, keeping the larger `bytes_in_use`.
pub fn add_store(a: &mut StoreMetrics, b: &StoreMetrics) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.coalesced += b.coalesced;
    a.compute_ns += b.compute_ns;
    a.coalesce_wait_ns += b.coalesce_wait_ns;
    // A gauge: the largest store, not a sum over stores.
    a.bytes_in_use = a.bytes_in_use.max(b.bytes_in_use);
}

/// Per-layer totals accumulated over traced passes.
#[derive(Clone, Debug, Default)]
pub struct LayerSums {
    /// WCET-analysis phases and counters of every engine used.
    pub profile: AnalysisProfile,
    /// Optimize stage time minus the analysis phases run inside it.
    pub optimize_self: Duration,
    /// Independent Theorem-1 re-proof time.
    pub verify: Duration,
    /// Optimizer counters.
    pub candidates_seen: u64,
    /// Prefetches inserted.
    pub inserted: u64,
    /// Insertions the verifier rejected.
    pub rejected: u64,
    /// Simulation stage time (host).
    pub simulate: Duration,
    /// Instructions simulated in that time.
    pub sim_instructions: u64,
    /// Prefetches the simulated optimized programs issued.
    pub prefetches_issued: u64,
    /// Of those, the ones a later fetch used.
    pub prefetch_useful: u64,
    /// Condition-3 gate stage time.
    pub gate: Duration,
    /// Figure-5 probe stage time.
    pub probe: Duration,
    /// Energy stage time.
    pub energy: Duration,
    /// Dropping an engine and the artifacts its store holds.
    pub teardown: Duration,
    /// `(optimized / original)` 45 nm energies.
    pub energy_ratios: Vec<f64>,
    /// Σ unit wall time on the grid.
    pub grid_busy: Duration,
    /// Worker time on the grid not spent in a unit.
    pub grid_idle: Duration,
    /// Artifact-store counters, summed over every store used.
    pub store: StoreMetrics,
    /// Service-core handling time per operation (analyze, optimize,
    /// audit, simulate).
    pub handle: [Duration; 4],
    /// Client connect time.
    pub connect: Duration,
    /// Client wait from request sent to first response byte.
    pub wait: Duration,
    /// Request latency over the HTTP path minus the same requests'
    /// library-path handling time, in ms.
    pub overhead_ms: f64,
    /// Client connection retries.
    pub retries: u64,
    /// Suite compile time (set-up).
    pub compile: Duration,
    /// Root time no child span covers.
    pub gap: Duration,
    /// Operations whose gap exceeded the tolerance.
    pub gap_ops: u64,
    /// Operations traced.
    pub ops: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl LayerSums {
    /// Adds one operation's sums (a unit or a sample) into a pass total.
    pub fn merge(&mut self, op: &LayerSums) {
        self.profile.add(&op.profile);
        self.optimize_self += op.optimize_self;
        self.verify += op.verify;
        self.candidates_seen += op.candidates_seen;
        self.inserted += op.inserted;
        self.rejected += op.rejected;
        self.simulate += op.simulate;
        self.sim_instructions += op.sim_instructions;
        self.prefetches_issued += op.prefetches_issued;
        self.prefetch_useful += op.prefetch_useful;
        self.gate += op.gate;
        self.probe += op.probe;
        self.energy += op.energy;
        self.teardown += op.teardown;
        add_store(&mut self.store, &op.store);
        self.gap += op.gap;
        self.gap_ops += op.gap_ops;
        self.ops += op.ops;
    }

    /// Folds one traced operation's root/children accounting in.
    pub fn account(&mut self, op: &OpTrace) {
        self.ops += 1;
        self.gap += op.gap();
        if !op.reconciled() {
            self.gap_ops += 1;
        }
    }

    /// Per-pass per-layer metric values (totals divided by `passes`,
    /// ratios from the totals).
    pub fn values(&self, passes: usize) -> Vec<(&'static str, f64)> {
        let k = passes.max(1) as f64;
        let p = &self.profile;
        let sim_s = self.simulate.as_secs_f64();
        vec![
            ("wcet.vivu_ms", ns_ms(p.vivu_ns) / k),
            ("wcet.fixpoint_ms", ns_ms(p.fixpoint_ns) / k),
            ("wcet.join_ms", ns_ms(p.join_ns) / k),
            ("wcet.transfer_ms", ns_ms(p.transfer_ns) / k),
            ("wcet.refine_ms", ns_ms(p.refine_ns) / k),
            ("wcet.ipet_ms", ns_ms(p.ipet_ns) / k),
            (
                "wcet.refine_share",
                stats::ratio(p.refine_ns as f64, p.total_ns() as f64),
            ),
            ("wcet.fixpoint_evals", p.fixpoint_evals as f64 / k),
            ("wcet.memo_hits", p.memo_hits as f64 / k),
            ("wcet.states_fresh", p.states_fresh as f64 / k),
            ("wcet.nodes_reuse_ratio", p.reuse_fraction()),
            ("core.optimize_self_ms", ms(self.optimize_self) / k),
            ("core.relocation_ms", ns_ms(p.relocation_ns) / k),
            ("core.verify_ms", ms(self.verify) / k),
            ("core.candidates_seen", self.candidates_seen as f64 / k),
            ("core.inserted", self.inserted as f64 / k),
            ("core.rejected_by_verifier", self.rejected as f64 / k),
            (
                "core.insert_ratio",
                stats::ratio(self.inserted as f64, self.candidates_seen as f64),
            ),
            ("sim.simulate_ms", ms(self.simulate) / k),
            (
                "sim.minstr_per_s",
                stats::ratio(self.sim_instructions as f64 / 1e6, sim_s),
            ),
            (
                "sim.prefetch_useful_ratio",
                stats::ratio(self.prefetch_useful as f64, self.prefetches_issued as f64),
            ),
            ("engine.gate_ms", ms(self.gate) / k),
            ("engine.probe_ms", ms(self.probe) / k),
            ("energy.energy_ms", ms(self.energy) / k),
            ("engine.teardown_ms", ms(self.teardown) / k),
            (
                "energy.reduction_pct",
                stats::reduction_pct(self.energy_ratios.iter().copied()),
            ),
            ("engine.grid_busy_ms", ms(self.grid_busy) / k),
            ("engine.grid_idle_ms", ms(self.grid_idle) / k),
            ("engine.store.hits", self.store.hits as f64 / k),
            ("engine.store.misses", self.store.misses as f64 / k),
            ("engine.store.coalesced", self.store.coalesced as f64 / k),
            (
                "engine.store.hit_rate",
                stats::ratio(self.store.hits as f64, self.store.lookups() as f64),
            ),
            ("engine.store.compute_ms", ns_ms(self.store.compute_ns) / k),
            (
                "engine.store.coalesce_wait_ms",
                ns_ms(self.store.coalesce_wait_ns) / k,
            ),
            ("engine.store.bytes_in_use", self.store.bytes_in_use as f64),
            ("engine.handle.analyze_ms", ms(self.handle[0]) / k),
            ("engine.handle.optimize_ms", ms(self.handle[1]) / k),
            ("engine.handle.audit_ms", ms(self.handle[2]) / k),
            ("engine.handle.simulate_ms", ms(self.handle[3]) / k),
            ("serve.connect_ms", ms(self.connect) / k),
            ("serve.wait_ms", ms(self.wait) / k),
            ("serve.overhead_ms", self.overhead_ms / k),
            ("serve.retries", self.retries as f64 / k),
            ("isa.compile_ms", ms(self.compile)),
            ("bench.gap_ms", ms(self.gap) / k),
            ("bench.gap_ops", self.gap_ops as f64 / k),
            ("bench.traced_ops", self.ops as f64 / k),
        ]
    }
}

/// Sets the per-layer metrics of a traced run and notes the tracing
/// overhead (`traced pass wall ÷ untraced pass wall`).
pub fn per_layer(out: &mut Outcome, sums: &LayerSums, traced: &[Timed], untraced: Timed) {
    for (name, v) in sums.values(traced.len()) {
        out.set(name, v);
    }
    let traced_wall = traced.iter().map(|t| t.wall_s).sum::<f64>() / traced.len().max(1) as f64;
    let overhead = stats::ratio(traced_wall, untraced.wall_s);
    out.set("bench.trace_overhead_ratio", overhead);
    out.note(format!(
        "tracing overhead: {traced_wall:.3} s traced / {:.3} s untraced pass = {overhead:.3}",
        untraced.wall_s
    ));
    out.note(format!(
        "reconciliation: {} of {} operations have child spans covering their wall time within {:.0} %; \
         the rest show their remainder as bench.gap ({:.1} ms per pass in all)",
        sums.ops - sums.gap_ops,
        sums.ops,
        100.0 * crate::trace::GAP_TOLERANCE,
        ms(sums.gap) / traced.len().max(1) as f64
    ));
}
