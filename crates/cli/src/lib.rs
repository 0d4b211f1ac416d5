//! The `rtpf` command-line front end.
//!
//! Lets a real-time engineer drive the whole toolchain from task
//! descriptions in the [`rtpf_isa::text`] format (or the built-in
//! Mälardalen skeletons via `suite:NAME`):
//!
//! ```text
//! rtpf analyze  task.rtpf --cache 2,16,512
//! rtpf optimize task.rtpf --cache 2,16,512 --verbose
//! rtpf simulate suite:fft1 --cache 2,16,512 --behavior worst --runs 3
//! rtpf sweep    suite:compress
//! rtpf fmt      task.rtpf
//! rtpf suite
//! ```
//!
//! Every command drives the shared [`rtpf_engine`] pipeline: flags are
//! folded into an [`EngineConfig`] profile. `analyze`, `optimize` and
//! `simulate` hand it to [`ServiceCore::serve`] — the compute path the
//! `rtpfd` daemon mounts — and render the response's artifacts as text;
//! `sweep` and `audit` drive engines of their own. All command logic
//! lives in this library (returning strings) so it is unit-testable;
//! `main.rs` only does I/O.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;

use rtpf_audit::{Code, DiagnosticSink, Level, Severity, SeverityConfig, SoundnessOptions, Span};
use rtpf_cache::{CacheConfig, RefineConfig, ReplacementPolicy, SpecError};
use rtpf_engine::{
    ArtifactStore, Engine, EngineConfig, EngineError, ProgramSource, ResponseBody, ServiceCore,
    ServiceOp, ServiceResponse,
};
use rtpf_isa::{InstrKind, Program};
use rtpf_sim::BranchBehavior;

/// A user-facing failure, separated by layer: argument/usage problems,
/// typed pipeline failures (wrapping the ISA/analysis/simulation error
/// they came from), and audit verdicts.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or a malformed flag value.
    Usage(String),
    /// `--policy` named a replacement policy this build does not know.
    UnknownPolicy(String),
    /// A pipeline stage failed; carries the typed source error.
    Engine(EngineError),
    /// An audit rendered findings and failed (deny-level verdict), or a
    /// tool error was rendered through the diagnostic sink.
    Audit(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(s) | CliError::Audit(s) => f.write_str(s),
            CliError::UnknownPolicy(given) => {
                let valid: Vec<&str> = ReplacementPolicy::ALL.iter().map(|p| p.name()).collect();
                write!(
                    f,
                    "unknown replacement policy `{given}` (valid policies: {})",
                    valid.join(", ")
                )
            }
            CliError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Subcommand name.
    pub command: String,
    /// Program spec (`path` or `suite:NAME`), if the command takes one.
    pub spec: Option<String>,
    /// `--cache a,b,c`.
    pub cache: Option<(u32, u32, u32)>,
    /// `--l2 a:b:c[:policy]` — unified L2 behind the L1 (absent = the
    /// classic single-level hierarchy). Parsed and validated by
    /// [`CacheConfig::parse_spec`]; monotonicity against the L1 is
    /// checked when the hierarchy is assembled (`with_l2`).
    pub l2: Option<CacheConfig>,
    /// `--policy lru|fifo|plru` (L1 replacement policy; LRU by default).
    pub policy: Option<ReplacementPolicy>,
    /// `--refine on|off` (exact FIFO/PLRU refinement stage; on by
    /// default).
    pub refine: Option<bool>,
    /// `--refine-budget N` (per-node state budget of the refinement
    /// exploration).
    pub refine_budget: Option<u32>,
    /// `--penalty N` (miss penalty in cycles).
    pub penalty: Option<u64>,
    /// `--runs N`.
    pub runs: Option<u32>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--behavior worst|random`.
    pub behavior: Option<BranchBehavior>,
    /// `--rounds N` (optimizer).
    pub rounds: Option<u32>,
    /// `--verbose`.
    pub verbose: bool,
    /// `--profile` (sweep): print the aggregated per-stage pipeline
    /// profile and throughput.
    pub profile: bool,
    /// `--shards N` (sweep): run the configuration grid on the parallel
    /// scheduler partitioned into `N` worker groups (see
    /// [`rtpf_engine::Grid`]); absent = the classic serial sweep.
    pub shards: Option<usize>,
    /// `--json` (audit): emit diagnostics as JSON lines.
    pub json: bool,
    /// `--optimize` (audit): additionally optimize each program and audit
    /// the transform.
    pub optimize: bool,
    /// `--deny warnings|RTPF0xx` occurrences, in order.
    pub deny: Vec<String>,
    /// `--allow RTPF0xx` occurrences, in order.
    pub allow: Vec<String>,
}

impl Options {
    /// Parses CLI arguments (without the binary name).
    ///
    /// # Errors
    ///
    /// Returns usage-style errors for unknown flags or malformed values.
    pub fn parse(args: &[String]) -> Result<Options, CliError> {
        let mut it = args.iter().peekable();
        let command = it.next().ok_or_else(|| err(USAGE))?.clone();
        let mut o = Options {
            command,
            spec: None,
            cache: None,
            l2: None,
            policy: None,
            refine: None,
            refine_budget: None,
            penalty: None,
            runs: None,
            seed: None,
            behavior: None,
            rounds: None,
            verbose: false,
            profile: false,
            shards: None,
            json: false,
            optimize: false,
            deny: Vec::new(),
            allow: Vec::new(),
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--cache" => {
                    let v = it.next().ok_or_else(|| err("--cache needs a,b,c"))?;
                    let parts: Vec<u32> = v
                        .split(',')
                        .map(|p| {
                            p.trim()
                                .parse()
                                .map_err(|_| err(format!("bad --cache {v}")))
                        })
                        .collect::<Result<_, _>>()?;
                    if parts.len() != 3 {
                        return Err(err(format!("--cache wants 3 numbers, got {v}")));
                    }
                    o.cache = Some((parts[0], parts[1], parts[2]));
                }
                "--l2" => {
                    let v = it.next().ok_or_else(|| err("--l2 needs a:b:c[:policy]"))?;
                    o.l2 = Some(parse_l2_spec(v)?);
                }
                "--policy" => {
                    let v = it
                        .next()
                        .ok_or_else(|| err("--policy needs lru|fifo|plru"))?;
                    o.policy = Some(
                        ReplacementPolicy::parse(v)
                            .ok_or_else(|| CliError::UnknownPolicy(v.clone()))?,
                    );
                }
                "--refine" => {
                    let v = it.next().ok_or_else(|| err("--refine needs on|off"))?;
                    o.refine = Some(match v.as_str() {
                        "on" => true,
                        "off" => false,
                        other => return Err(err(format!("--refine needs on|off, got {other}"))),
                    });
                }
                "--refine-budget" => {
                    o.refine_budget = Some(parse_num(it.next(), "--refine-budget")?);
                }
                "--penalty" => {
                    o.penalty = Some(parse_num(it.next(), "--penalty")?);
                }
                "--runs" => {
                    let n: u32 = parse_num(it.next(), "--runs")?;
                    if n == 0 {
                        return Err(err("bad --runs value 0: wants at least 1"));
                    }
                    o.runs = Some(n);
                }
                "--seed" => o.seed = Some(parse_num(it.next(), "--seed")?),
                "--rounds" => o.rounds = Some(parse_num(it.next(), "--rounds")?),
                "--behavior" => {
                    let v = it
                        .next()
                        .ok_or_else(|| err("--behavior needs worst|random"))?;
                    o.behavior = Some(match v.as_str() {
                        "worst" => BranchBehavior::WorstLike,
                        "random" => BranchBehavior::Random,
                        other => return Err(err(format!("unknown behavior {other}"))),
                    });
                }
                "--verbose" | "-v" => o.verbose = true,
                "--profile" => o.profile = true,
                "--shards" => {
                    let n: usize = parse_num(it.next(), "--shards")?;
                    if n == 0 {
                        return Err(err("--shards wants at least 1"));
                    }
                    o.shards = Some(n);
                }
                "--json" => o.json = true,
                "--optimize" => o.optimize = true,
                "--deny" => {
                    let v = it
                        .next()
                        .ok_or_else(|| err("--deny needs `warnings` or an RTPF0xx code"))?;
                    o.deny.push(v.clone());
                }
                "--allow" => {
                    let v = it
                        .next()
                        .ok_or_else(|| err("--allow needs an RTPF0xx code"))?;
                    o.allow.push(v.clone());
                }
                flag if flag.starts_with("--") => return Err(err(format!("unknown flag {flag}"))),
                spec => {
                    if o.spec.is_some() {
                        return Err(err(format!("unexpected argument {spec}")));
                    }
                    o.spec = Some(spec.to_string());
                }
            }
        }
        Ok(o)
    }

    fn cache_config(&self) -> Result<CacheConfig, CliError> {
        let (a, b, c) = self.cache.ok_or_else(|| {
            err("this command needs --cache ASSOC,BLOCK,CAPACITY (e.g. --cache 2,16,512)")
        })?;
        let cfg = EngineConfig::geometry(a, b, c)
            .map_err(|e| CliError::Engine(EngineError::Geometry(e)))?;
        self.apply_policy(cfg)
    }

    /// Applies `--policy` (when given) to a geometry.
    fn apply_policy(&self, config: CacheConfig) -> Result<CacheConfig, CliError> {
        match self.policy {
            Some(p) => config
                .with_policy(p)
                .map_err(|e| CliError::Engine(EngineError::Geometry(e))),
            None => Ok(config),
        }
    }

    /// Applies `--l2` (when given) to an engine profile, validating the
    /// hierarchy.
    fn apply_l2(&self, cfg: EngineConfig) -> Result<EngineConfig, CliError> {
        match self.l2 {
            Some(l2) => cfg
                .with_l2(l2)
                .map_err(|e| CliError::Engine(EngineError::Geometry(e))),
            None => Ok(cfg),
        }
    }

    /// Folds the interactive flags into the engine profile this command
    /// runs under.
    fn engine_config(&self, cache: CacheConfig) -> Result<EngineConfig, CliError> {
        let mut cfg = EngineConfig::interactive(cache);
        if let Some(p) = self.penalty {
            cfg = cfg.with_penalty(p);
        }
        if let Some(b) = self.behavior {
            cfg = cfg.with_behavior(b);
        }
        if let Some(s) = self.seed {
            cfg = cfg.with_seed(s);
        }
        if let Some(r) = self.runs {
            cfg = cfg.with_runs(r);
        }
        if let Some(r) = self.rounds {
            cfg = cfg.with_rounds(r);
        }
        self.apply_l2(cfg.with_refine(self.refine_config()))
    }

    /// The batch profile `sweep` and `audit --optimize` share: a small
    /// fixed optimizer budget so all 36 configurations stay interactive.
    fn batch_config(&self, cache: CacheConfig) -> Result<EngineConfig, CliError> {
        let mut cfg = EngineConfig::cli_sweep(cache);
        if let Some(p) = self.penalty {
            cfg = cfg.with_penalty(p);
        }
        if let Some(r) = self.rounds {
            cfg = cfg.with_rounds(r);
        }
        self.apply_l2(cfg.with_refine(self.refine_config()))
    }

    /// Folds `--refine` / `--refine-budget` over the default-on stage
    /// configuration.
    fn refine_config(&self) -> RefineConfig {
        let mut r = RefineConfig::on();
        if let Some(enabled) = self.refine {
            r.enabled = enabled;
        }
        if let Some(budget) = self.refine_budget {
            r.max_states = budget;
        }
        r
    }
}

/// Parses a numeric flag value at the flag's own width: an out-of-range
/// value is a usage error, never a truncation.
fn parse_num<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> Result<T, CliError> {
    let v = v.ok_or_else(|| err(format!("{flag} needs a number")))?;
    v.parse().map_err(|_| err(format!("bad {flag} value {v}")))
}

/// Parses `--l2 a:b:c[:policy]` via the shared [`CacheConfig::parse_spec`]
/// grammar, mapping spec errors onto the CLI's error layers.
fn parse_l2_spec(v: &str) -> Result<CacheConfig, CliError> {
    CacheConfig::parse_spec(v).map_err(|e| match e {
        SpecError::Policy(name) => CliError::UnknownPolicy(name),
        SpecError::Config(c) => CliError::Engine(EngineError::Geometry(c)),
        malformed => err(format!("--l2: {malformed}")),
    })
}

/// Usage text.
pub const USAGE: &str = "usage: rtpf <command> [args]

commands:
  analyze  <file|suite:NAME> --cache a,b,c [--l2 a:b:c[:policy]]
           [--policy lru|fifo|plru] [--penalty N]
           [--refine on|off] [--refine-budget N]
  optimize <file|suite:NAME> --cache a,b,c [--l2 a:b:c[:policy]]
           [--policy lru|fifo|plru] [--penalty N]
           [--rounds N] [--refine on|off] [--refine-budget N] [-v]
  simulate <file|suite:NAME> --cache a,b,c [--l2 a:b:c[:policy]]
           [--policy lru|fifo|plru] [--runs N]
           [--seed N] [--behavior worst|random]
  sweep    <file|suite:NAME> [--l2 a:b:c[:policy]] [--policy lru|fifo|plru]
           [--refine on|off]
           [--refine-budget N] [--profile] [--shards N]
                                            # all 36 paper configurations
  audit    <file|suite:NAME|suite:all> [--cache a,b,c] [--l2 a:b:c[:policy]]
           [--policy lru|fifo|plru]
           [--refine on|off] [--refine-budget N] [--json] [--optimize]
           [--deny warnings|RTPF0xx] [--allow RTPF0xx] [-v]
  fmt      <file>                           # parse + pretty-print
  suite                                     # list built-in benchmarks

the program format is documented in `rtpf_isa::text`; `suite:NAME` loads a
built-in Mälardalen skeleton (see `rtpf suite`). `--policy` selects the
cache replacement policy (default lru; fifo and tree-plru are analyzed via
a sound competitiveness reduction, see DESIGN.md §10). `--l2` puts a
unified second level behind the L1 (same block size, strictly larger
capacity; optional fourth field = L2 replacement policy, default lru) —
the whole pipeline then runs the two-level Hardy/Puaut analysis
(DESIGN.md §14). `--refine` toggles
the exact per-set FIFO/PLRU refinement of unclassified references
(DESIGN.md §12; on by default, a no-op under lru) and `--refine-budget`
caps its per-node state count (default 64). `audit` runs the IR lints and
the abstract-vs-concrete soundness audit (plus the transform audit with
--optimize) over every Table 2 configuration unless --cache narrows it;
deny-level findings make the command fail. `analyze`, `optimize` and
`simulate` compute through the same service core as the `rtpfd` analysis
daemon (DESIGN.md §15) and render its response as text.";

/// Executes a parsed command, returning the output to print.
///
/// # Errors
///
/// Propagates argument, I/O, and analysis failures as [`CliError`].
pub fn run(o: &Options) -> Result<String, CliError> {
    match o.command.as_str() {
        "analyze" => cmd_analyze(o),
        "optimize" => cmd_optimize(o),
        "simulate" => cmd_simulate(o),
        "sweep" => cmd_sweep(o),
        "audit" => cmd_audit(o),
        "fmt" => cmd_fmt(o),
        "suite" => Ok(cmd_suite()),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command {other}\n\n{USAGE}"))),
    }
}

fn spec_of(o: &Options) -> Result<&str, CliError> {
    o.spec
        .as_deref()
        .ok_or_else(|| err("this command needs a program (a file or suite:NAME)"))
}

/// Serves `op` for the command's program under its engine profile on a
/// [`ServiceCore`] over a fresh in-memory store — the same compute path
/// the daemon mounts. Returns the engine that served it alongside the
/// response, for the renderers.
fn serve(o: &Options, op: ServiceOp) -> Result<(Arc<Engine>, ServiceResponse), CliError> {
    let program = ProgramSource::Spec(spec_of(o)?.to_string());
    let config = o.engine_config(o.cache_config()?)?;
    let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
    let resp = core.serve(op, &program, config.clone())?;
    Ok((core.engine_for(config), resp))
}

fn cmd_analyze(o: &Options) -> Result<String, CliError> {
    let (engine, resp) = serve(o, ServiceOp::Analyze)?;
    let cfg = engine.config();
    let ResponseBody::Analyze {
        program: p,
        analysis: a,
    } = &resp.body
    else {
        unreachable!("analyze serves an analyze body")
    };
    let (name, config, timing) = (&resp.program, cfg.cache(), cfg.timing());
    let (hit, miss, unk) = a.classification_counts();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "program {name}: {} instrs ({} B)",
        p.instr_count(),
        p.code_bytes()
    );
    let _ = writeln!(s, "cache {config} ({} sets), {timing}", config.n_sets());
    if let Some(l2) = cfg.l2() {
        let _ = writeln!(s, "L2 {l2} ({} sets), unified behind L1", l2.n_sets());
    }
    let _ = writeln!(
        s,
        "references: {} over {} contexts",
        a.acfg().len(),
        a.vivu().len()
    );
    let _ = writeln!(
        s,
        "classification: {hit} always-hit / {miss} always-miss / {unk} unclassified"
    );
    let rs = a.refine_stats();
    if rs.sets_targeted > 0 {
        let _ = writeln!(
            s,
            "refinement {}: {} sets explored ({} over budget), {} upgraded to \
             always-hit, {} to always-miss",
            a.refine_config(),
            rs.sets_targeted,
            rs.sets_exhausted,
            rs.refined_hits,
            rs.refined_misses
        );
    }
    let _ = writeln!(s, "WCET (memory): {} cycles", a.tau_w());
    let _ = writeln!(
        s,
        "WCET-path accesses: {} ({} misses)",
        a.wcet_accesses(),
        a.wcet_misses()
    );
    Ok(s)
}

fn cmd_optimize(o: &Options) -> Result<String, CliError> {
    let (engine, resp) = serve(o, ServiceOp::Optimize)?;
    let ResponseBody::Optimize { result: r, theorem } = &resp.body else {
        unreachable!("optimize serves an optimize body")
    };
    let (name, config) = (&resp.program, engine.config().cache());
    let mut s = String::new();
    let rep = &r.report;
    let _ = writeln!(s, "program {name} on {config}:");
    let _ = writeln!(
        s,
        "  inserted {} prefetches over {} rounds ({} candidates seen)",
        rep.inserted, rep.rounds, rep.candidates_seen
    );
    let _ = writeln!(
        s,
        "  WCET (memory): {} -> {} cycles ({:+.2}%)",
        rep.wcet_before,
        rep.wcet_after,
        100.0 * (rep.wcet_after as f64 / rep.wcet_before as f64 - 1.0)
    );
    let _ = writeln!(
        s,
        "  WCET-path misses: {} -> {}",
        rep.misses_before, rep.misses_after
    );
    let _ = writeln!(
        s,
        "  Theorem 1: equivalent={} wcet_preserved={}",
        theorem.equivalent, theorem.wcet_preserved
    );
    if o.verbose {
        let _ = writeln!(s, "  placements:");
        for b in r.program.block_ids() {
            for (pos, &i) in r.program.block(b).instrs().iter().enumerate() {
                if let InstrKind::Prefetch { target } = r.program.instr(i).kind {
                    let _ = writeln!(
                        s,
                        "    {b}[{pos}]: prefetch block of {target} \
                         (addr {:#x})",
                        r.analysis_after.layout().addr(target)
                    );
                }
            }
        }
    }
    Ok(s)
}

fn cmd_simulate(o: &Options) -> Result<String, CliError> {
    let (engine, resp) = serve(o, ServiceOp::Simulate)?;
    let cfg = engine.config();
    let ResponseBody::Simulate(run) = &resp.body else {
        unreachable!("simulate serves a simulate body")
    };
    let (name, config) = (&resp.program, cfg.cache());
    let [e45, e32] = engine.energies(run);
    let mut s = String::new();
    match cfg.l2() {
        Some(l2) => {
            let _ = writeln!(
                s,
                "program {name} on {config} + L2 {l2} ({} runs):",
                run.runs
            );
        }
        None => {
            let _ = writeln!(s, "program {name} on {config} ({} runs):", run.runs);
        }
    }
    let _ = writeln!(s, "  ACET (memory): {:.0} cycles", run.acet_cycles());
    let _ = writeln!(
        s,
        "  accesses {} | hits {} | misses {} (miss rate {:.2}%)",
        run.stats.accesses,
        run.stats.hits,
        run.stats.misses,
        100.0 * run.miss_rate()
    );
    if cfg.l2().is_some() {
        let _ = writeln!(
            s,
            "  L2: accesses {} | hits {} | misses {} (fills {})",
            run.stats.l2_accesses, run.stats.l2_hits, run.stats.l2_misses, run.stats.l2_fills
        );
    }
    let _ = writeln!(
        s,
        "  prefetches issued {} (useful {}), stall cycles {}",
        run.prefetches_issued, run.prefetch_useful, run.stall_cycles
    );
    let _ = writeln!(
        s,
        "  energy: {:.1} nJ @45nm, {:.1} nJ @32nm",
        e45.total_nj(),
        e32.total_nj()
    );
    Ok(s)
}

fn cmd_sweep(o: &Options) -> Result<String, CliError> {
    let (name, p) = rtpf_engine::load_program(spec_of(o)?)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "program {name}: WCET before/after per Table 2 configuration"
    );
    let _ = writeln!(
        s,
        "{:<5} {:>2} {:>3} {:>6} {:>12} {:>12} {:>8} {:>4}",
        "k", "a", "b", "c", "wcet_orig", "wcet_opt", "delta", "pf"
    );
    let configs: Vec<(String, CacheConfig)> = CacheConfig::paper_configs()
        .into_iter()
        .map(|(k, c)| Ok((k, o.apply_policy(c)?)))
        .collect::<Result<_, CliError>>()?;
    // Under --l2, Table 2 geometries that cannot sit beneath the shared
    // L2 (block-size mismatch, or capacity not strictly smaller) are
    // skipped up front rather than failing the whole sweep — the same
    // policy the engine smoke drill uses.
    let mut skipped: Vec<String> = Vec::new();
    let mut configs = configs;
    if o.l2.is_some() {
        let mut kept = Vec::with_capacity(configs.len());
        for (k, c) in configs {
            if o.batch_config(c).is_ok() {
                kept.push((k, c));
            } else {
                skipped.push(k);
            }
        }
        configs = kept;
        if configs.is_empty() {
            return Err(CliError::Usage(
                "--l2 leaves no Table 2 configuration to sweep (every geometry is \
                 incompatible with the given L2)"
                    .into(),
            ));
        }
    }
    let t0 = std::time::Instant::now();
    // Without --shards: one worker, one shard — the classic serial sweep.
    // With --shards N: the engine's sharded grid scheduler, one worker
    // group per shard. Output rows come back in configuration order either
    // way, so the rendered table is identical.
    let grid = rtpf_engine::Grid {
        workers: if o.shards.is_some() { 0 } else { 1 },
        shards: o.shards.unwrap_or(1),
        progress_every: 0,
        label: "sweep",
    };
    let rows: Vec<Result<(String, rtpf_wcet::AnalysisProfile), CliError>> =
        grid.run(&configs, |_, (k, config)| {
            let engine = Engine::new(o.batch_config(*config)?);
            let r = engine
                .optimized(&p)
                .map_err(|e| tool_error(&name, Some(k), &e))?;
            let mut line = String::new();
            let _ = writeln!(
                line,
                "{:<5} {:>2} {:>3} {:>6} {:>12} {:>12} {:>7.2}% {:>4}",
                k,
                config.assoc(),
                config.block_bytes(),
                config.capacity_bytes(),
                r.report.wcet_before,
                r.report.wcet_after,
                100.0 * (r.report.wcet_after as f64 / r.report.wcet_before as f64 - 1.0),
                r.report.inserted
            );
            Ok((line, engine.profile()))
        });
    let mut profile = rtpf_wcet::AnalysisProfile::default();
    let mut units = 0u32;
    for row in rows {
        let (line, prof) = row?;
        s.push_str(&line);
        profile.add(&prof);
        units += 1;
    }
    if !skipped.is_empty() {
        let _ = writeln!(
            s,
            "skipped {} configuration(s) that cannot sit under --l2: {}",
            skipped.len(),
            skipped.join(", ")
        );
    }
    if o.profile {
        let elapsed = t0.elapsed().as_secs_f64();
        let _ = writeln!(s, "\nanalysis profile over {units} configurations:");
        let _ = writeln!(s, "{profile}");
        let _ = writeln!(
            s,
            "throughput: {:.2} units/s ({:.2} s wall clock)",
            f64::from(units) / elapsed,
            elapsed
        );
    }
    Ok(s)
}

/// Renders a tool-level failure through the shared diagnostic renderer so
/// `sweep` and `audit` fail uniformly (RTPF090). The engine error's
/// rendering already names the failed stage.
fn tool_error(program: &str, config: Option<&str>, e: &EngineError) -> CliError {
    let mut sink = DiagnosticSink::new(SeverityConfig::new());
    let mut span = Span::program(program);
    span.config = config.map(str::to_string);
    sink.report(Code::ToolError, span, e.to_string(), None);
    CliError::Audit(sink.render_text().trim_end().to_string())
}

/// Builds the audit severity policy from `--deny`/`--allow` flags.
fn severity_config(o: &Options) -> Result<SeverityConfig, CliError> {
    let mut cfg = SeverityConfig::new();
    for d in &o.deny {
        if d == "warnings" {
            cfg.deny_warnings = true;
        } else {
            let code = Code::parse(d).ok_or_else(|| err(format!("unknown lint code {d}")))?;
            cfg.set(code, Level::Deny);
        }
    }
    for a in &o.allow {
        let code = Code::parse(a).ok_or_else(|| err(format!("unknown lint code {a}")))?;
        cfg.set(code, Level::Allow);
    }
    Ok(cfg)
}

fn cmd_audit(o: &Options) -> Result<String, CliError> {
    let spec = spec_of(o)?;
    let programs: Vec<(String, Program)> = if spec == "suite:all" {
        rtpf_suite::catalog()
            .into_iter()
            .map(|b| (b.name.to_string(), b.program))
            .collect()
    } else {
        vec![rtpf_engine::load_program(spec)?]
    };
    let configs: Vec<(String, CacheConfig)> = match o.cache {
        Some(_) => vec![("cli".to_string(), o.cache_config()?)],
        None => CacheConfig::paper_configs()
            .into_iter()
            .map(|(k, c)| Ok((k, o.apply_policy(c)?)))
            .collect::<Result<_, CliError>>()?,
    };
    let sev = severity_config(o)?;
    let sopts = SoundnessOptions {
        seed: o.seed.unwrap_or(SoundnessOptions::default().seed),
        ..SoundnessOptions::default()
    };

    let mut sink = DiagnosticSink::new(sev.clone());
    let mut s = String::new();
    let mut score_sum = 0.0;
    let mut score_n = 0u32;
    for (name, p) in &programs {
        let mut psink = DiagnosticSink::new(sev.clone());
        rtpf_audit::audit_ir(p, &mut psink);
        sink.absorb(psink, None);
        for (k, config) in &configs {
            // One engine per (program, configuration) unit: the transform
            // audit pulls the engine's optimize artifact, while the
            // soundness audit force-recomputes its analysis with cache
            // bypass so its verdict cannot be influenced by a poisoned
            // artifact (see DESIGN.md §9).
            let engine = Engine::new(o.batch_config(*config)?.with_severity(sev.clone()));
            let mut csink = DiagnosticSink::new(engine.config().severity().clone());
            match engine.audit_soundness(p, &mut csink, &sopts, true) {
                Ok(sum) => {
                    score_sum += sum.precision_score;
                    score_n += 1;
                }
                Err(e) => {
                    let mut span = Span::program(name);
                    span.config = Some(k.clone());
                    csink.report(Code::ToolError, span, e.to_string(), None);
                }
            }
            if o.optimize {
                if let Err(e) = engine.audit_transform(p, &mut csink) {
                    let mut span = Span::program(name);
                    span.config = Some(k.clone());
                    let msg = match &e {
                        EngineError::Optimize(_) => e.to_string(),
                        EngineError::Analysis(inner) => {
                            format!("transform audit failed: {inner}")
                        }
                        other => format!("transform audit failed: {other}"),
                    };
                    csink.report(Code::ToolError, span, msg, None);
                }
            }
            sink.absorb(csink, Some(k));
        }
    }

    let (deny, warn, note) = sink.counts();
    if o.json {
        s.push_str(&sink.render_json());
    } else {
        for d in sink.diagnostics() {
            if d.severity == Severity::Note && !o.verbose {
                continue;
            }
            let _ = writeln!(s, "{}[{}]: {} ({})", d.severity, d.code, d.message, d.span);
            if let Some(h) = &d.help {
                let _ = writeln!(s, "  help: {h}");
            }
        }
        let _ = writeln!(
            s,
            "audit: {} program(s) x {} configuration(s): {deny} deny, {warn} warn, {note} note",
            programs.len(),
            configs.len()
        );
        if score_n > 0 {
            let _ = writeln!(
                s,
                "soundness: mean precision score {:.3} over {score_n} analyses",
                score_sum / f64::from(score_n)
            );
        }
        if note > 0 && !o.verbose {
            let _ = writeln!(s, "({note} note-level findings hidden; pass -v to show)");
        }
    }
    if sink.has_denials() {
        return Err(CliError::Audit(format!(
            "{s}audit failed: {deny} deny-level finding(s)"
        )));
    }
    Ok(s)
}

fn cmd_fmt(o: &Options) -> Result<String, CliError> {
    let spec = spec_of(o)?;
    let src = std::fs::read_to_string(spec).map_err(|e| {
        CliError::Engine(EngineError::Read {
            path: spec.to_string(),
            error: e.to_string(),
        })
    })?;
    let (name, shape) = rtpf_isa::text::parse(&src).map_err(|e| {
        CliError::Engine(EngineError::Parse {
            path: spec.to_string(),
            error: e.to_string(),
        })
    })?;
    Ok(rtpf_isa::text::write(&name, &shape))
}

fn cmd_suite() -> String {
    let mut s = String::from("built-in Mälardalen skeletons (use as suite:NAME):\n");
    for b in rtpf_suite::catalog() {
        let _ = writeln!(
            s,
            "  {:<4} {:<14} {:>6} instrs  {}",
            b.id,
            b.name,
            b.program.instr_count(),
            b.description
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_option_set() {
        let o = Options::parse(&args(&[
            "optimize",
            "suite:fft1",
            "--cache",
            "2,16,512",
            "--penalty",
            "30",
            "--rounds",
            "5",
            "--verbose",
        ]))
        .expect("parses");
        assert_eq!(o.command, "optimize");
        assert_eq!(o.spec.as_deref(), Some("suite:fft1"));
        assert_eq!(o.cache, Some((2, 16, 512)));
        assert_eq!(o.penalty, Some(30));
        assert_eq!(o.rounds, Some(5));
        assert!(o.verbose);
    }

    /// A value one past the flag's width is the usage error a malformed
    /// value gets; the width's maximum still parses.
    fn assert_rejects_beyond_u32(flag: &str, too_big: &str) {
        let e = Options::parse(&args(&["simulate", "suite:bs", flag, too_big])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{flag}: {e:?}");
        assert_eq!(e.to_string(), format!("bad {flag} value {too_big}"));
        Options::parse(&args(&["simulate", "suite:bs", flag, "4294967295"])).expect("u32::MAX");
    }

    #[test]
    fn runs_flag_rejects_values_beyond_u32() {
        assert_rejects_beyond_u32("--runs", "4294967296");
    }

    #[test]
    fn runs_flag_rejects_zero() {
        let e = Options::parse(&args(&["simulate", "suite:bs", "--runs", "0"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e:?}");
        assert!(e.to_string().starts_with("bad --runs value"), "{e}");
    }

    #[test]
    fn rounds_flag_rejects_values_beyond_u32() {
        assert_rejects_beyond_u32("--rounds", "4294967297");
    }

    #[test]
    fn refine_budget_flag_rejects_values_beyond_u32() {
        assert_rejects_beyond_u32("--refine-budget", "4294967296");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_cache() {
        assert!(Options::parse(&args(&["analyze", "--bogus"])).is_err());
        assert!(Options::parse(&args(&["analyze", "x", "--cache", "2,16"])).is_err());
        assert!(Options::parse(&args(&["analyze", "x", "--cache", "a,b,c"])).is_err());
    }

    #[test]
    fn parses_policy_flag() {
        let o = Options::parse(&args(&[
            "analyze", "suite:bs", "--cache", "2,16,512", "--policy", "fifo",
        ]))
        .expect("parses");
        assert_eq!(o.policy, Some(ReplacementPolicy::Fifo));
        // Case-insensitive, like the rest of the flag grammar.
        let o = Options::parse(&args(&["sweep", "suite:bs", "--policy", "PLRU"])).expect("parses");
        assert_eq!(o.policy, Some(ReplacementPolicy::Plru));
    }

    #[test]
    fn parses_refine_flags() {
        let o = Options::parse(&args(&[
            "analyze", "suite:bs", "--cache", "2,16,512", "--refine", "off",
        ]))
        .expect("parses");
        assert_eq!(o.refine, Some(false));
        assert!(!o.refine_config().enabled);

        let o = Options::parse(&args(&[
            "sweep",
            "suite:bs",
            "--refine",
            "on",
            "--refine-budget",
            "128",
        ]))
        .expect("parses");
        assert_eq!(o.refine, Some(true));
        assert_eq!(o.refine_budget, Some(128));
        assert_eq!(
            o.refine_config(),
            RefineConfig {
                enabled: true,
                max_states: 128
            }
        );

        // Default: on, with the library default budget.
        let o =
            Options::parse(&args(&["analyze", "suite:bs", "--cache", "2,16,512"])).expect("parses");
        assert_eq!(o.refine_config(), RefineConfig::on());

        assert!(Options::parse(&args(&["analyze", "x", "--refine", "maybe"])).is_err());
        assert!(Options::parse(&args(&["analyze", "x", "--refine-budget", "many"])).is_err());
    }

    #[test]
    fn unknown_policy_is_a_typed_error_listing_valid_names() {
        let e = Options::parse(&args(&["analyze", "suite:bs", "--policy", "mru"])).unwrap_err();
        assert!(
            matches!(e, CliError::UnknownPolicy(ref p) if p == "mru"),
            "{e:?}"
        );
        let msg = e.to_string();
        assert!(msg.contains("mru"), "{msg}");
        for p in ReplacementPolicy::ALL {
            assert!(msg.contains(p.name()), "{msg} should list {p}");
        }
        // A missing value is a plain usage error.
        assert!(matches!(
            Options::parse(&args(&["analyze", "--policy"])).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn analyze_accepts_every_policy() {
        for p in ReplacementPolicy::ALL {
            let o = Options::parse(&args(&[
                "analyze",
                "suite:bs",
                "--cache",
                "2,16,512",
                "--policy",
                p.name(),
            ]))
            .expect("parses");
            let out = run(&o).expect("runs");
            assert!(out.contains("WCET (memory):"), "{p}: {out}");
            if p != ReplacementPolicy::Lru {
                assert!(
                    out.contains(p.name()),
                    "{p} should appear in the header: {out}"
                );
            }
        }
    }

    #[test]
    fn parses_l2_flag_with_and_without_policy() {
        let o = Options::parse(&args(&[
            "analyze",
            "suite:bs",
            "--cache",
            "2,16,512",
            "--l2",
            "4:16:8192",
        ]))
        .expect("parses");
        assert_eq!(o.l2, Some(CacheConfig::new(4, 16, 8192).expect("valid l2")));

        let o = Options::parse(&args(&[
            "simulate",
            "suite:bs",
            "--cache",
            "2,16,512",
            "--l2",
            "8:16:16384:fifo",
        ]))
        .expect("parses");
        let expected = CacheConfig::new(8, 16, 16384)
            .and_then(|c| c.with_policy(ReplacementPolicy::Fifo))
            .expect("valid l2");
        assert_eq!(o.l2, Some(expected));

        assert!(Options::parse(&args(&["analyze", "x", "--l2", "4:16"])).is_err());
        assert!(Options::parse(&args(&["analyze", "x", "--l2", "a:b:c"])).is_err());
        assert!(matches!(
            Options::parse(&args(&["analyze", "x", "--l2", "4:16:8192:mru"])).unwrap_err(),
            CliError::UnknownPolicy(ref p) if p == "mru"
        ));
    }

    #[test]
    fn analyze_and_simulate_run_two_level() {
        let o = Options::parse(&args(&[
            "analyze",
            "suite:bs",
            "--cache",
            "2,16,512",
            "--l2",
            "4:16:8192",
        ]))
        .expect("parses");
        let out = run(&o).expect("runs");
        assert!(out.contains("L2 (4, 16, 8192)"), "{out}");
        assert!(out.contains("WCET (memory):"), "{out}");

        let o = Options::parse(&args(&[
            "simulate",
            "suite:bs",
            "--cache",
            "2,16,512",
            "--l2",
            "4:16:8192",
            "--runs",
            "1",
        ]))
        .expect("parses");
        let out = run(&o).expect("runs");
        assert!(out.contains("+ L2"), "{out}");
        assert!(out.contains("L2: accesses"), "{out}");
    }

    #[test]
    fn non_monotone_l2_is_a_typed_hierarchy_error() {
        // Equal capacity: rejected when the hierarchy is assembled.
        let o = Options::parse(&args(&[
            "analyze", "suite:bs", "--cache", "2,16,512", "--l2", "4:16:512",
        ]))
        .expect("parses");
        let e = run(&o).unwrap_err();
        assert!(
            matches!(e, CliError::Engine(EngineError::Geometry(_))),
            "{e:?}"
        );
        assert!(e.to_string().contains("strictly larger"), "{e}");

        // Block mismatch: same typed rejection.
        let o = Options::parse(&args(&[
            "analyze",
            "suite:bs",
            "--cache",
            "2,16,512",
            "--l2",
            "4:32:8192",
        ]))
        .expect("parses");
        let e = run(&o).unwrap_err();
        assert!(e.to_string().contains("block size"), "{e}");
    }

    #[test]
    fn suite_listing_names_all_programs() {
        let out = cmd_suite();
        assert!(out.contains("matmult"));
        assert!(out.contains("p37"));
    }

    #[test]
    fn analyze_on_a_suite_program() {
        let o =
            Options::parse(&args(&["analyze", "suite:bs", "--cache", "2,16,512"])).expect("parses");
        let out = run(&o).expect("runs");
        assert!(out.contains("WCET (memory):"));
        assert!(out.contains("classification:"));
    }

    /// A miss penalty large enough to push τ_w past `u64::MAX` is a typed
    /// analysis error, not a wrapped bound.
    #[test]
    fn analyze_rejects_a_wcet_bound_that_overflows() {
        for (program, penalty) in [
            ("suite:fft1", "9007199254740992"),
            ("suite:bs", "18446744073709551615"),
        ] {
            let o = Options::parse(&args(&[
                "analyze",
                program,
                "--cache",
                "2,16,512",
                "--penalty",
                penalty,
            ]))
            .expect("parses");
            let e = run(&o).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::Engine(EngineError::Analysis(rtpf_wcet::AnalysisError::Overflow))
                ),
                "{program} at penalty {penalty}: {e:?}"
            );
        }
    }

    #[test]
    fn optimize_reports_theorem() {
        let o = Options::parse(&args(&[
            "optimize",
            "suite:crc",
            "--cache",
            "2,16,512",
            "--rounds",
            "2",
        ]))
        .expect("parses");
        let out = run(&o).expect("runs");
        assert!(out.contains("Theorem 1: equivalent=true wcet_preserved=true"));
    }

    #[test]
    fn simulate_prints_energy() {
        let o = Options::parse(&args(&[
            "simulate", "suite:bs", "--cache", "2,16,512", "--runs", "1",
        ]))
        .expect("parses");
        let out = run(&o).expect("runs");
        assert!(out.contains("nJ @45nm"));
    }

    #[test]
    fn sweep_profile_prints_breakdown() {
        let o = Options::parse(&args(&["sweep", "suite:bs", "--profile", "--rounds", "1"]))
            .expect("parses");
        let out = run(&o).expect("runs");
        assert!(out.contains("analysis profile over 36 configurations"));
        assert!(out.contains("fixpoint"));
        assert!(out.contains("units/s"));
        // The engine wires stage-level wall clock and store counters into
        // the profile: the sweep runs the Optimize stage, so the stage
        // breakdown line must be present.
        assert!(out.contains("stages:"), "{out}");
        assert!(out.contains("optimize"), "{out}");
        assert!(out.contains("misses"), "{out}");
    }

    #[test]
    fn sweep_under_l2_skips_incompatible_geometries() {
        // Table 2 mixes 8/16/32-byte blocks and capacities up to the L2's
        // size, so a shared L2 cannot sit over all 36 geometries; the
        // sweep must run the compatible ones and report the rest skipped
        // rather than fail.
        let o = Options::parse(&args(&[
            "sweep",
            "suite:bs",
            "--l2",
            "8:16:16384",
            "--rounds",
            "1",
        ]))
        .expect("parses");
        let out = run(&o).expect("runs");
        assert!(
            out.contains("skipped") && out.contains("cannot sit under --l2"),
            "{out}"
        );
        // 16-byte-block geometries strictly smaller than 16 KiB survive.
        assert!(out.lines().any(|l| l.contains(" 16 ")), "{out}");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let o = Options::parse(&args(&["frobnicate"])).expect("parses");
        let e = run(&o).unwrap_err();
        assert!(e.to_string().contains("usage:"));
    }

    #[test]
    fn missing_cache_is_a_clear_error() {
        let o = Options::parse(&args(&["analyze", "suite:bs"])).expect("parses");
        let e = run(&o).unwrap_err();
        assert!(e.to_string().contains("--cache"));
    }

    #[test]
    fn errors_are_typed_and_preserve_legacy_messages() {
        // Pipeline failures carry their typed source error; the rendered
        // message is exactly what the string-typed CLI printed before.
        let analyze = |spec: &str| {
            let o =
                Options::parse(&args(&["analyze", spec, "--cache", "2,16,512"])).expect("parses");
            run(&o).unwrap_err()
        };
        let e = analyze("suite:doom");
        assert!(matches!(e, CliError::Engine(EngineError::UnknownSuite(_))));
        assert_eq!(
            e.to_string(),
            "unknown suite program doom (try `rtpf suite`)"
        );
        assert!(std::error::Error::source(&e).is_some());

        let e = analyze("/no/such/file.rtpf");
        assert!(matches!(e, CliError::Engine(EngineError::Read { .. })));
        assert!(e.to_string().starts_with("cannot read /no/such/file.rtpf:"));

        let o =
            Options::parse(&args(&["analyze", "suite:bs", "--cache", "3,16,512"])).expect("parses");
        let e = run(&o).unwrap_err();
        assert!(matches!(e, CliError::Engine(EngineError::Geometry(_))));
        assert!(e.to_string().starts_with("invalid cache geometry:"));

        let o = Options::parse(&args(&["analyze", "suite:bs"])).expect("parses");
        assert!(matches!(run(&o).unwrap_err(), CliError::Usage(_)));
    }
}
