//! The request-level service core: typed requests in, typed
//! JSON-serializable responses out.
//!
//! [`ServiceCore`] is the engine tier the `rtpfd` daemon (and any other
//! embedder) mounts on a worker pool: one shared [`ArtifactStore`] plus a
//! cache of [`Engine`]s keyed by configuration fingerprint, so every
//! worker serving the same configuration shares one engine and all
//! configurations share one artifact space. `handle` is synchronous and
//! thread-safe; concurrency comes from calling it on many threads — the
//! store's sharding and single-flight make that cheap and
//! exactly-once.
//!
//! Responses are rendered by `to_json` as a **pure function of the
//! underlying artifacts** (field order fixed, floats via Rust's
//! shortest-roundtrip `Display`), so a response served through the
//! daemon is byte-identical to one rendered from a library-path artifact
//! with the same fingerprint — the golden tests in `crates/serve` pin
//! exactly that.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use rtpf_audit::{DiagnosticSink, SoundnessOptions};
use rtpf_cache::CacheConfig;
use rtpf_isa::Program;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::fingerprint::{Fingerprint, FpHasher};
use crate::pipeline::{parse_text, Engine};
use crate::store::{ArtifactKey, ArtifactStore, Stage};

/// The operation a request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceOp {
    /// WCET analysis: τ_w, classification counts, miss bound.
    Analyze,
    /// Verified optimization: prefetch insertion plus the independent
    /// Theorem 1 re-proof.
    Optimize,
    /// IR lints plus the abstract-vs-concrete soundness cross-check.
    Audit,
    /// Seeded trace simulation: ACET, miss rate, prefetch counters.
    Simulate,
}

impl ServiceOp {
    /// The operation's wire name (also its endpoint path segment).
    pub fn name(self) -> &'static str {
        match self {
            ServiceOp::Analyze => "analyze",
            ServiceOp::Optimize => "optimize",
            ServiceOp::Audit => "audit",
            ServiceOp::Simulate => "simulate",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<ServiceOp> {
        match s {
            "analyze" => Some(ServiceOp::Analyze),
            "optimize" => Some(ServiceOp::Optimize),
            "audit" => Some(ServiceOp::Audit),
            "simulate" => Some(ServiceOp::Simulate),
            _ => None,
        }
    }
}

/// The program a request targets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramSource {
    /// A `suite:NAME` spec or a file path readable by the server.
    Spec(String),
    /// Inline program text, cached by content like a loaded file.
    Inline {
        /// Display name attached to diagnostics and responses.
        name: String,
        /// The `.rtpf` program text.
        text: String,
    },
}

/// The engine profile a request runs under (the same three profiles the
/// CLI and experiment front ends use).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ServiceProfile {
    /// Few-runs interactive defaults.
    #[default]
    Interactive,
    /// The paper-evaluation profile (worst-like behavior, pinned seed).
    Evaluation,
    /// The CLI sweep profile.
    Sweep,
}

impl ServiceProfile {
    /// The profile's wire name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceProfile::Interactive => "interactive",
            ServiceProfile::Evaluation => "evaluation",
            ServiceProfile::Sweep => "sweep",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<ServiceProfile> {
        match s {
            "interactive" => Some(ServiceProfile::Interactive),
            "evaluation" => Some(ServiceProfile::Evaluation),
            "sweep" => Some(ServiceProfile::Sweep),
            _ => None,
        }
    }
}

/// Configuration half of a request: geometry specs plus a few overrides,
/// resolved to a full [`EngineConfig`] by [`resolve`](ConfigSpec::resolve).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigSpec {
    /// L1 geometry, `a:b:c[:policy]` (see [`CacheConfig::parse_spec`]).
    pub cache: String,
    /// Optional L2 geometry in the same format.
    pub l2: Option<String>,
    /// Engine profile.
    pub profile: ServiceProfile,
    /// Memory penalty override (cycles).
    pub penalty: Option<u64>,
    /// Simulation run-count override.
    pub runs: Option<u32>,
    /// Simulation seed override.
    pub seed: Option<u64>,
}

impl Default for ConfigSpec {
    fn default() -> ConfigSpec {
        ConfigSpec {
            cache: "2:16:512".to_string(),
            l2: None,
            profile: ServiceProfile::default(),
            penalty: None,
            runs: None,
            seed: None,
        }
    }
}

impl ConfigSpec {
    /// Resolves the spec to the engine configuration it describes.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadRequest`] for malformed geometry specs
    /// or an invalid hierarchy.
    pub fn resolve(&self) -> Result<EngineConfig, ServiceError> {
        let bad = |e: &dyn fmt::Display| ServiceError::BadRequest(e.to_string());
        let cache = CacheConfig::parse_spec(&self.cache).map_err(|e| bad(&e))?;
        let mut cfg = match self.profile {
            ServiceProfile::Interactive => EngineConfig::interactive(cache),
            ServiceProfile::Evaluation => EngineConfig::evaluation(cache),
            ServiceProfile::Sweep => EngineConfig::cli_sweep(cache),
        };
        if let Some(l2) = &self.l2 {
            let l2 = CacheConfig::parse_spec(l2).map_err(|e| bad(&e))?;
            cfg = cfg.with_l2(l2).map_err(|e| bad(&e))?;
        }
        if let Some(p) = self.penalty {
            cfg = cfg.with_penalty(p);
        }
        if let Some(r) = self.runs {
            cfg = cfg.with_runs(r);
        }
        if let Some(s) = self.seed {
            cfg = cfg.with_seed(s);
        }
        Ok(cfg)
    }
}

/// One complete service request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServiceRequest {
    /// What to compute.
    pub op: ServiceOp,
    /// Over which program.
    pub program: ProgramSource,
    /// Under which configuration.
    pub config: ConfigSpec,
}

/// Service-tier failure: either the request itself was malformed or the
/// pipeline failed.
#[derive(Clone, PartialEq, Debug)]
pub enum ServiceError {
    /// The request could not be interpreted (HTTP 400 territory).
    BadRequest(String),
    /// A pipeline stage failed (HTTP 500 territory).
    Engine(EngineError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> ServiceError {
        ServiceError::Engine(e)
    }
}

/// Response of an `analyze` request.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnalyzeResponse {
    /// WCET bound τ_w (cycles).
    pub tau_w: u64,
    /// Instruction-fetch misses on the WCET path.
    pub wcet_misses: u64,
    /// Instruction fetches on the WCET path.
    pub wcet_accesses: u64,
    /// References classified always-hit.
    pub always_hit: usize,
    /// References classified always-miss.
    pub always_miss: usize,
    /// References left unclassified.
    pub unclassified: usize,
}

/// Response of an `optimize` request (the verified optimization).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OptimizeResponse {
    /// Prefetches inserted.
    pub inserted: u32,
    /// Optimizer rounds run.
    pub rounds: u32,
    /// τ_w before optimization.
    pub wcet_before: u64,
    /// τ_w after optimization.
    pub wcet_after: u64,
    /// WCET-path misses before.
    pub misses_before: u64,
    /// WCET-path misses after.
    pub misses_after: u64,
    /// Candidates the optimizer examined.
    pub candidates_seen: u64,
    /// Candidates rejected by the incremental verifier.
    pub rejected_by_verifier: u64,
    /// Independent Theorem 1 re-proof: prefetch-equivalence.
    pub equivalent: bool,
    /// Independent Theorem 1 re-proof: τ_w non-increase.
    pub wcet_preserved: bool,
}

/// Response of an `audit` request.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AuditResponse {
    /// Deny-severity findings.
    pub denials: usize,
    /// Warn-severity findings.
    pub warnings: usize,
    /// Note-severity findings.
    pub notes: usize,
    /// References in the ACFG.
    pub refs_total: usize,
    /// References executed by at least one audit walk.
    pub refs_observed: usize,
    /// Genuinely unsound classifications found (must be 0).
    pub unsound: usize,
    /// Precision of the classification on observed paths.
    pub precision_score: f64,
}

/// Response of a `simulate` request.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimulateResponse {
    /// Simulation runs aggregated.
    pub runs: u32,
    /// Mean cycles per run (the ACET estimate).
    pub acet_cycles: f64,
    /// Instruction-fetch miss rate.
    pub miss_rate: f64,
    /// Mean instructions executed per run.
    pub instr_executed: f64,
    /// Prefetches issued across all runs.
    pub prefetches_issued: u64,
    /// Prefetches that were subsequently useful.
    pub prefetch_useful: u64,
}

/// The operation-specific payload of a [`ServiceResponse`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ResponseBody {
    /// `analyze` payload.
    Analyze(AnalyzeResponse),
    /// `optimize` payload.
    Optimize(OptimizeResponse),
    /// `audit` payload.
    Audit(AuditResponse),
    /// `simulate` payload.
    Simulate(SimulateResponse),
}

/// A complete service response: request echo plus the typed payload.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceResponse {
    /// The operation served.
    pub op: ServiceOp,
    /// Resolved program name.
    pub program: String,
    /// Full configuration fingerprint (hex) — the artifact space the
    /// response was served from.
    pub config_fingerprint: String,
    /// Operation payload.
    pub body: ResponseBody,
}

impl ServiceResponse {
    /// Deterministic JSON rendering: fixed field order, floats through
    /// Rust's shortest-roundtrip `Display`. Byte-identical across the
    /// daemon and library paths for the same artifacts.
    pub fn to_json(&self) -> String {
        let body = match &self.body {
            ResponseBody::Analyze(a) => format!(
                "{{\"tau_w\": {}, \"wcet_misses\": {}, \"wcet_accesses\": {}, \
                 \"always_hit\": {}, \"always_miss\": {}, \"unclassified\": {}}}",
                a.tau_w,
                a.wcet_misses,
                a.wcet_accesses,
                a.always_hit,
                a.always_miss,
                a.unclassified
            ),
            ResponseBody::Optimize(o) => format!(
                "{{\"inserted\": {}, \"rounds\": {}, \"wcet_before\": {}, \"wcet_after\": {}, \
                 \"misses_before\": {}, \"misses_after\": {}, \"candidates_seen\": {}, \
                 \"rejected_by_verifier\": {}, \"equivalent\": {}, \"wcet_preserved\": {}}}",
                o.inserted,
                o.rounds,
                o.wcet_before,
                o.wcet_after,
                o.misses_before,
                o.misses_after,
                o.candidates_seen,
                o.rejected_by_verifier,
                o.equivalent,
                o.wcet_preserved
            ),
            ResponseBody::Audit(a) => format!(
                "{{\"denials\": {}, \"warnings\": {}, \"notes\": {}, \"refs_total\": {}, \
                 \"refs_observed\": {}, \"unsound\": {}, \"precision_score\": {}}}",
                a.denials,
                a.warnings,
                a.notes,
                a.refs_total,
                a.refs_observed,
                a.unsound,
                a.precision_score
            ),
            ResponseBody::Simulate(s) => format!(
                "{{\"runs\": {}, \"acet_cycles\": {}, \"miss_rate\": {}, \
                 \"instr_executed\": {}, \"prefetches_issued\": {}, \"prefetch_useful\": {}}}",
                s.runs,
                s.acet_cycles,
                s.miss_rate,
                s.instr_executed,
                s.prefetches_issued,
                s.prefetch_useful
            ),
        };
        format!(
            "{{\"op\": \"{}\", \"program\": \"{}\", \"config\": \"{}\", \"result\": {body}}}",
            self.op.name(),
            json_escape(&self.program),
            self.config_fingerprint
        )
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character, so any parser that follows RFC 8259
/// (including `rtpf_serve::json`) reads the text back verbatim.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The shared, thread-safe engine tier behind the daemon: one artifact
/// store, one [`Engine`] per distinct configuration fingerprint.
#[derive(Debug)]
pub struct ServiceCore {
    store: Arc<ArtifactStore>,
    engines: Mutex<HashMap<Fingerprint, Arc<Engine>>>,
}

impl ServiceCore {
    /// A core over the given (usually shared) store.
    pub fn new(store: Arc<ArtifactStore>) -> ServiceCore {
        ServiceCore {
            store,
            engines: Mutex::new(HashMap::new()),
        }
    }

    /// The shared artifact store (the `/metrics` endpoint reads it).
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The engine serving `config`, created on first use. Engines are
    /// cached by full configuration fingerprint, so every request under
    /// the same configuration shares one engine (and all engines share
    /// the one store — keys embed the fingerprint and never collide).
    pub fn engine_for(&self, config: EngineConfig) -> Arc<Engine> {
        let fp = config.fingerprint();
        let mut engines = self.engines.lock().expect("engines lock");
        Arc::clone(
            engines
                .entry(fp)
                .or_insert_with(|| Arc::new(Engine::with_store(config, Arc::clone(&self.store)))),
        )
    }

    /// Number of distinct configurations currently materialized.
    pub fn engine_count(&self) -> usize {
        self.engines.lock().expect("engines lock").len()
    }

    fn load(
        &self,
        engine: &Engine,
        source: &ProgramSource,
    ) -> Result<(String, Arc<Program>), ServiceError> {
        match source {
            ProgramSource::Spec(spec) => Ok(engine.load(spec)?),
            ProgramSource::Inline { name, text } => {
                let mut h = FpHasher::new();
                h.write_str(text);
                let key = ArtifactKey::new(Stage::Parse, &[h.finish()]);
                let named = engine
                    .store()
                    .get_or_compute(key, || parse_text(name, text))?;
                Ok((named.0.clone(), Arc::new(named.1.clone())))
            }
        }
    }

    /// Serves one request. Synchronous and thread-safe; all caching is
    /// the store's business (memoized stages, single-flight
    /// deduplication).
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] for uninterpretable requests,
    /// [`ServiceError::Engine`] for pipeline failures.
    pub fn handle(&self, req: &ServiceRequest) -> Result<ServiceResponse, ServiceError> {
        let config = req.config.resolve()?;
        let config_fingerprint = config.fingerprint().hex();
        let engine = self.engine_for(config);
        let (program, p) = self.load(&engine, &req.program)?;
        let body = match req.op {
            ServiceOp::Analyze => {
                let a = engine.analysis(&p)?;
                let (always_hit, always_miss, unclassified) = a.classification_counts();
                ResponseBody::Analyze(AnalyzeResponse {
                    tau_w: a.tau_w(),
                    wcet_misses: a.wcet_misses(),
                    wcet_accesses: a.wcet_accesses(),
                    always_hit,
                    always_miss,
                    unclassified,
                })
            }
            ServiceOp::Optimize => {
                let (r, theorem) = engine.verified(&p)?;
                ResponseBody::Optimize(OptimizeResponse {
                    inserted: r.report.inserted,
                    rounds: r.report.rounds,
                    wcet_before: r.report.wcet_before,
                    wcet_after: r.report.wcet_after,
                    misses_before: r.report.misses_before,
                    misses_after: r.report.misses_after,
                    candidates_seen: r.report.candidates_seen,
                    rejected_by_verifier: r.report.rejected_by_verifier,
                    equivalent: theorem.equivalent,
                    wcet_preserved: theorem.wcet_preserved,
                })
            }
            ServiceOp::Audit => {
                let mut sink = DiagnosticSink::new(engine.config().severity().clone());
                engine.audit_ir(&p, &mut sink);
                // The service audit cross-checks the *cached* analysis
                // artifact (`independent = false`): its job is auditing
                // what the service is actually serving. The CLI's
                // store-bypassing audit remains the independent referee.
                let summary =
                    engine.audit_soundness(&p, &mut sink, &SoundnessOptions::default(), false)?;
                let (denials, warnings, notes) = sink.counts();
                ResponseBody::Audit(AuditResponse {
                    denials,
                    warnings,
                    notes,
                    refs_total: summary.refs_total,
                    refs_observed: summary.refs_observed,
                    unsound: summary.unsound,
                    precision_score: summary.precision_score,
                })
            }
            ServiceOp::Simulate => {
                let s = engine.simulated(&p)?;
                ResponseBody::Simulate(SimulateResponse {
                    runs: s.runs,
                    acet_cycles: s.acet_cycles(),
                    miss_rate: s.miss_rate(),
                    instr_executed: s.mean_instr_executed(),
                    prefetches_issued: s.prefetches_issued,
                    prefetch_useful: s.prefetch_useful,
                })
            }
        };
        Ok(ServiceResponse {
            op: req.op,
            program,
            config_fingerprint,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(op: ServiceOp) -> ServiceRequest {
        ServiceRequest {
            op,
            program: ProgramSource::Spec("suite:bs".to_string()),
            config: ConfigSpec::default(),
        }
    }

    #[test]
    fn responses_match_the_library_path_exactly() {
        let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        let resp = core.handle(&request(ServiceOp::Analyze)).expect("serves");

        let cfg = ConfigSpec::default().resolve().expect("resolves");
        let engine = Engine::new(cfg);
        let (_, p) = engine.load("suite:bs").expect("loads");
        let a = engine.analysis(&p).expect("analyzes");
        let ResponseBody::Analyze(got) = resp.body else {
            panic!("analyze response expected");
        };
        assert_eq!(got.tau_w, a.tau_w());
        assert_eq!(got.wcet_misses, a.wcet_misses());
        assert_eq!(resp.program, "bs");
        assert!(resp.to_json().contains("\"op\": \"analyze\""));
    }

    #[test]
    fn engines_are_cached_per_configuration() {
        let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        core.handle(&request(ServiceOp::Analyze)).expect("serves");
        core.handle(&request(ServiceOp::Simulate)).expect("serves");
        assert_eq!(core.engine_count(), 1, "same config, one engine");
        let mut other = request(ServiceOp::Analyze);
        other.config.cache = "4:16:2048".to_string();
        core.handle(&other).expect("serves");
        assert_eq!(core.engine_count(), 2);
    }

    #[test]
    fn warm_requests_are_fully_cache_hit() {
        let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        for op in [ServiceOp::Analyze, ServiceOp::Optimize, ServiceOp::Simulate] {
            core.handle(&request(op)).expect("serves");
        }
        let misses_cold = core.store().misses();
        assert!(misses_cold > 0);
        for op in [ServiceOp::Analyze, ServiceOp::Optimize, ServiceOp::Simulate] {
            core.handle(&request(op)).expect("serves");
        }
        assert_eq!(
            core.store().misses(),
            misses_cold,
            "warm pass must not recompute any stage"
        );
    }

    #[test]
    fn inline_programs_are_cached_by_content() {
        let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        let text = "program tiny\ncode 8\nloop 4 { code 6 }\ncode 2\n";
        let req = ServiceRequest {
            op: ServiceOp::Analyze,
            program: ProgramSource::Inline {
                name: "tiny".to_string(),
                text: text.to_string(),
            },
            config: ConfigSpec::default(),
        };
        let r1 = core.handle(&req).expect("serves");
        let misses = core.store().misses();
        let r2 = core.handle(&req).expect("serves");
        assert_eq!(r1, r2);
        assert_eq!(core.store().misses(), misses, "second pass fully cached");
    }

    #[test]
    fn bad_requests_are_rejected_without_engine_errors() {
        let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
        let mut req = request(ServiceOp::Analyze);
        req.config.cache = "3:16:512".to_string();
        assert!(matches!(
            core.handle(&req),
            Err(ServiceError::BadRequest(_))
        ));
        let mut req = request(ServiceOp::Analyze);
        req.config.l2 = Some("junk".to_string());
        assert!(matches!(
            core.handle(&req),
            Err(ServiceError::BadRequest(_))
        ));
        let mut req = request(ServiceOp::Analyze);
        req.program = ProgramSource::Spec("suite:doom".to_string());
        assert!(matches!(core.handle(&req), Err(ServiceError::Engine(_))));
    }
}
