//! The request-level service core: typed requests in, responses holding
//! the engine's artifacts out.
//!
//! [`ServiceCore`] is the engine tier the `rtpfd` daemon (and any other
//! embedder) mounts on a worker pool: one shared [`ArtifactStore`] plus a
//! cache of [`Engine`]s keyed by configuration fingerprint, so every
//! worker serving the same configuration shares one engine and all
//! configurations share one artifact space. `serve` is the one path from
//! an operation, a program and a configuration to an answer: the daemon
//! reaches it through `handle`, the `rtpf` CLI calls it directly. Both
//! are synchronous and thread-safe; concurrency comes from calling them
//! on many threads — the store's sharding and single-flight make that
//! cheap and exactly-once.
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

use rtpf_audit::{json_escape, DiagnosticSink, SoundnessOptions};
use rtpf_cache::CacheConfig;
use rtpf_core::{OptimizeResult, TheoremReport};
use rtpf_isa::Program;
use rtpf_sim::{SimError, SimResult};
use rtpf_wcet::{AnalysisError, WcetAnalysis};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::fingerprint::Fingerprint;
use crate::pipeline::Engine;
use crate::store::ArtifactStore;

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
    /// Returns [`ServiceError::BadRequest`] for malformed geometry specs,
    /// an invalid hierarchy, or a zero run count.
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
            if r == 0 {
                return Err(ServiceError::BadRequest(
                    "\"runs\" must be at least 1".to_string(),
                ));
            }
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
    /// The request could not be interpreted, or the pipeline failed
    /// because of what it asked for (HTTP 400 territory).
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

/// Whether an engine failure is the request's fault: program text that
/// does not parse, an unknown suite name, a program the analysis or the
/// simulator rejects as invalid, a loop nest past the context budget, or
/// an execution past the simulator's fetch cap. Everything else is a
/// pipeline failure.
fn client_caused(e: &EngineError) -> bool {
    match e {
        EngineError::Parse { .. } | EngineError::UnknownSuite(_) => true,
        EngineError::Analysis(a) | EngineError::Optimize(a) | EngineError::Verify(a) => matches!(
            a,
            AnalysisError::ContextExplosion { .. } | AnalysisError::InvalidProgram(_)
        ),
        EngineError::Simulate(s) => matches!(
            s,
            SimError::InvalidProgram(_) | SimError::FetchCapExceeded { .. }
        ),
        _ => false,
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> ServiceError {
        if client_caused(&e) {
            ServiceError::BadRequest(e.to_string())
        } else {
            ServiceError::Engine(e)
        }
    }
}

/// Response of an `audit` request. Unlike the other payloads it is not
/// an engine artifact: its counts come from the request's diagnostic
/// sink.
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

/// The operation-specific payload of a [`ServiceResponse`]: the engine's
/// own artifacts, shared with its store. Front ends render what they
/// need from them (the daemon a fixed JSON subset, the CLI its text).
#[derive(Clone, Debug)]
pub enum ResponseBody {
    /// `analyze` payload: the loaded program and its WCET analysis.
    Analyze {
        /// The analyzed program.
        program: Arc<Program>,
        /// The analysis artifact.
        analysis: Arc<WcetAnalysis>,
    },
    /// `optimize` payload: the optimization and its independent Theorem 1
    /// re-proof.
    Optimize {
        /// The optimize artifact.
        result: Arc<OptimizeResult>,
        /// The verify artifact.
        theorem: TheoremReport,
    },
    /// `audit` payload.
    Audit(AuditResponse),
    /// `simulate` payload: the simulate artifact.
    Simulate(Arc<SimResult>),
}

/// A complete service response: request echo plus the typed payload.
#[derive(Clone, Debug)]
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
            ResponseBody::Analyze { analysis: a, .. } => {
                let (always_hit, always_miss, unclassified) = a.classification_counts();
                format!(
                    "{{\"tau_w\": {}, \"wcet_misses\": {}, \"wcet_accesses\": {}, \
                     \"always_hit\": {always_hit}, \"always_miss\": {always_miss}, \
                     \"unclassified\": {unclassified}}}",
                    a.tau_w(),
                    a.wcet_misses(),
                    a.wcet_accesses(),
                )
            }
            ResponseBody::Optimize { result, theorem } => {
                let r = &result.report;
                format!(
                    "{{\"inserted\": {}, \"rounds\": {}, \"wcet_before\": {}, \"wcet_after\": {}, \
                     \"misses_before\": {}, \"misses_after\": {}, \"candidates_seen\": {}, \
                     \"rejected_by_verifier\": {}, \"equivalent\": {}, \"wcet_preserved\": {}}}",
                    r.inserted,
                    r.rounds,
                    r.wcet_before,
                    r.wcet_after,
                    r.misses_before,
                    r.misses_after,
                    r.candidates_seen,
                    r.rejected_by_verifier,
                    theorem.equivalent,
                    theorem.wcet_preserved
                )
            }
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
                s.acet_cycles(),
                s.miss_rate(),
                s.mean_instr_executed(),
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

    /// Serves one request: resolves its configuration, then [`serve`]s
    /// it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] for uninterpretable requests and for
    /// pipeline failures the request caused (program text that does not
    /// parse, an unknown suite name, an invalid program, a loop nest past
    /// the context budget, a run past the fetch cap),
    /// [`ServiceError::Engine`] for every other pipeline failure.
    ///
    /// [`serve`]: ServiceCore::serve
    pub fn handle(&self, req: &ServiceRequest) -> Result<ServiceResponse, ServiceError> {
        let config = req.config.resolve()?;
        Ok(self.serve(req.op, &req.program, config)?)
    }

    /// Runs `op` over `program` under `config` — the one path from an
    /// operation to its artifacts, shared by the daemon (through
    /// [`handle`](ServiceCore::handle)) and the CLI. Synchronous and
    /// thread-safe; all caching is the store's business (memoized
    /// stages, single-flight deduplication).
    ///
    /// # Errors
    ///
    /// Propagates the failing stage's [`EngineError`].
    pub fn serve(
        &self,
        op: ServiceOp,
        program: &ProgramSource,
        config: EngineConfig,
    ) -> Result<ServiceResponse, EngineError> {
        let config_fingerprint = config.fingerprint().hex();
        let engine = self.engine_for(config);
        let (name, p) = match program {
            ProgramSource::Spec(spec) => engine.load(spec)?,
            ProgramSource::Inline { name, text } => engine.parse(name, text)?,
        };
        let body = match op {
            ServiceOp::Analyze => ResponseBody::Analyze {
                analysis: engine.analysis(&p)?,
                program: p,
            },
            ServiceOp::Optimize => {
                let (result, theorem) = engine.verified(&p)?;
                ResponseBody::Optimize { result, theorem }
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
            ServiceOp::Simulate => ResponseBody::Simulate(engine.simulated(&p)?),
        };
        Ok(ServiceResponse {
            op,
            program: name,
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
        let ResponseBody::Analyze { analysis: got, .. } = &resp.body else {
            panic!("analyze response expected");
        };
        assert_eq!(got.tau_w(), a.tau_w());
        assert_eq!(got.wcet_misses(), a.wcet_misses());
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
        assert_eq!(r1.to_json(), r2.to_json());
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
        let mut req = request(ServiceOp::Simulate);
        req.config.runs = Some(0);
        assert!(matches!(
            req.config.resolve(),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            core.handle(&req),
            Err(ServiceError::BadRequest(_))
        ));
        let mut req = request(ServiceOp::Analyze);
        req.program = ProgramSource::Spec("suite:doom".to_string());
        assert!(matches!(
            core.handle(&req),
            Err(ServiceError::BadRequest(_))
        ));
        req.program = ProgramSource::Inline {
            name: "junk".to_string(),
            text: "loop 0 { code 1 }".to_string(),
        };
        assert!(matches!(
            core.handle(&req),
            Err(ServiceError::BadRequest(_))
        ));
    }
}
