//! The benchmark's built-in workload and metric tables, and the check
//! that `BENCHMARK.json` at the repository root describes the same ones.
//!
//! The tables are the source of truth for what the binary measures; the
//! manifest adds what only a reader needs (why each workload exists) and
//! what the regression gate needs (each end-to-end metric's bound). A
//! benchmark whose binary and manifest disagree refuses to run.

use rtpf_serve::json::Value;

/// One workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The tail percentile `latency_tail_ms` reports. It is the highest
    /// percentile with at least ten samples beyond it in a single pass,
    /// so it never changes with the number of passes a run fits.
    pub tail_percent: u32,
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "sweep-lru",
        tail_percent: 99,
    },
    WorkloadSpec {
        name: "sweep-fifo",
        tail_percent: 90,
    },
    WorkloadSpec {
        name: "verdict",
        tail_percent: 90,
    },
    WorkloadSpec {
        name: "serve",
        tail_percent: 99,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, outcome).
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name (`<crate>.<metric>` for per-layer metrics).
    pub name: &'static str,
    /// Unit as printed and as written in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them from an untraced run.
pub const END_TO_END: [MetricSpec; 7] = [
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("latency_tail_ms", "ms", Lower),
    m("cpu_ms_per_op", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("wcet_reduction_pct", "%", Higher),
];

/// Per-layer metrics, named `<crate>.<metric>`, from a traced run. Each
/// is a total over one pass of the workload's inputs (the mean over the
/// traced passes; `engine.store.bytes_in_use` is the largest store seen);
/// a layer a workload does not exercise reports 0.
pub const PER_LAYER: [MetricSpec; 48] = [
    m("wcet.vivu_ms", "ms", Lower),
    m("wcet.fixpoint_ms", "ms", Lower),
    m("wcet.join_ms", "ms", Lower),
    m("wcet.transfer_ms", "ms", Lower),
    m("wcet.refine_ms", "ms", Lower),
    m("wcet.ipet_ms", "ms", Lower),
    m("wcet.refine_share", "ratio", Lower),
    m("wcet.fixpoint_evals", "count", Lower),
    m("wcet.memo_hits", "count", Higher),
    m("wcet.states_fresh", "count", Lower),
    m("wcet.nodes_reuse_ratio", "ratio", Higher),
    m("core.optimize_self_ms", "ms", Lower),
    m("core.relocation_ms", "ms", Lower),
    m("core.verify_ms", "ms", Lower),
    m("core.candidates_seen", "count", Lower),
    m("core.inserted", "count", Higher),
    m("core.rejected_by_verifier", "count", Lower),
    m("core.insert_ratio", "ratio", Higher),
    m("sim.simulate_ms", "ms", Lower),
    m("sim.minstr_per_s", "Minstr/s", Higher),
    m("sim.prefetch_useful_ratio", "ratio", Higher),
    m("engine.gate_ms", "ms", Lower),
    m("engine.probe_ms", "ms", Lower),
    m("energy.energy_ms", "ms", Lower),
    m("engine.teardown_ms", "ms", Lower),
    m("energy.reduction_pct", "%", Higher),
    m("engine.grid_busy_ms", "ms", Lower),
    m("engine.grid_idle_ms", "ms", Lower),
    m("engine.store.hits", "count", Higher),
    m("engine.store.misses", "count", Lower),
    m("engine.store.coalesced", "count", Higher),
    m("engine.store.hit_rate", "ratio", Higher),
    m("engine.store.compute_ms", "ms", Lower),
    m("engine.store.coalesce_wait_ms", "ms", Lower),
    m("engine.store.bytes_in_use", "bytes", Lower),
    m("engine.handle.analyze_ms", "ms", Lower),
    m("engine.handle.optimize_ms", "ms", Lower),
    m("engine.handle.audit_ms", "ms", Lower),
    m("engine.handle.simulate_ms", "ms", Lower),
    m("serve.connect_ms", "ms", Lower),
    m("serve.wait_ms", "ms", Lower),
    m("serve.overhead_ms", "ms", Lower),
    m("serve.retries", "count", Lower),
    m("isa.compile_ms", "ms", Lower),
    m("bench.gap_ms", "ms", Lower),
    m("bench.gap_ops", "count", Lower),
    m("bench.traced_ops", "count", Higher),
    m("bench.trace_overhead_ratio", "ratio", Lower),
];

/// What `BENCHMARK.json` adds to the built-in tables.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// `(name, bound)` per end-to-end metric.
    pub bounds: Vec<(String, f64)>,
}

impl Manifest {
    /// The bound of an end-to-end metric.
    pub fn bound(&self, name: &str) -> Option<f64> {
        self.bounds.iter().find(|(n, _)| n == name).map(|&(_, b)| b)
    }

    /// Why a workload was chosen.
    pub fn why(&self, name: &str) -> Option<&str> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_str())
    }
}

/// Path of the repository's `BENCHMARK.json`.
pub fn manifest_path() -> std::path::PathBuf {
    crate::repo_root().join("BENCHMARK.json")
}

/// Parses `BENCHMARK.json` and checks it against the built-in tables.
///
/// # Errors
///
/// Describes the first disagreement: malformed JSON, a workload or
/// metric missing, extra or reordered, or a unit or direction that
/// differs.
pub fn check_manifest(text: &str) -> Result<Manifest, String> {
    let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let arr = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => Ok(items.as_slice()),
        _ => Err(format!("BENCHMARK.json: `{key}` must be an array")),
    };
    let string = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
    };

    let workloads: Vec<(String, String)> = arr("workloads")?
        .iter()
        .map(|w| Ok((string(w, "name")?, string(w, "why")?)))
        .collect::<Result<_, String>>()?;
    let listed: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    let built_in: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if listed != built_in {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the binary runs {built_in:?}"
        ));
    }

    let mut bounds = Vec::new();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = arr(key)?;
        if entries.len() != table.len() {
            return Err(format!(
                "BENCHMARK.json lists {} {key} metrics, the binary reports {}",
                entries.len(),
                table.len()
            ));
        }
        for (entry, spec) in entries.iter().zip(table) {
            let got = (
                string(entry, "name")?,
                string(entry, "unit")?,
                string(entry, "better")?,
            );
            let want = (spec.name, spec.unit, spec.better.name());
            if (got.0.as_str(), got.1.as_str(), got.2.as_str()) != want {
                return Err(format!(
                    "BENCHMARK.json {key} entry {got:?} disagrees with the binary's {want:?}"
                ));
            }
            if key == "end_to_end" {
                let bound = entry
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("BENCHMARK.json: {} has no numeric bound", spec.name))?;
                bounds.push((spec.name.to_string(), bound));
            }
        }
    }

    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: `run_seconds` must be a number")?;
    Ok(Manifest {
        run_seconds,
        workloads,
        bounds,
    })
}

/// Reads and checks the repository's manifest.
///
/// # Errors
///
/// An unreadable file or any disagreement [`check_manifest`] reports.
pub fn load_manifest() -> Result<Manifest, String> {
    let path = manifest_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    check_manifest(&text)
}
