//! Structured diagnostics: codes, severities, spans, and the sink.
//!
//! Every finding of the audit passes is a [`Diagnostic`] carrying a stable
//! [`Code`] (the `RTPF0xx` catalog in DESIGN.md §8), an effective
//! [`Severity`], and a [`Span`] anchoring it to a program element. The
//! [`DiagnosticSink`] collects findings, applies the severity
//! configuration (`--deny warnings`, per-code promotion/suppression), and
//! renders either human text or line-oriented JSON.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use rtpf_isa::{BlockId, InstrId};

/// Stable lint/audit codes. The numeric ranges partition by audit layer:
/// `001..=019` IR lints, `020..=029` soundness audit, `030..=039`
/// transform audit, `040..=049` refinement audit (the soundness
/// cross-check specialized to classifications the exact FIFO/PLRU
/// exploration produced), `050..=059` hierarchy audit (the concrete
/// two-level walk cross-checked against the per-level classifications of
/// DESIGN.md §14), `090..=099` tool-level failures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Code {
    /// RTPF001: a block is not reachable from the entry.
    UnreachableBlock,
    /// RTPF002: a block holds no instructions.
    EmptyBlock,
    /// RTPF003: a loop header carries no iteration bound.
    MissingLoopBound,
    /// RTPF004: a loop header carries a zero iteration bound.
    ZeroLoopBound,
    /// RTPF005: the CFG contains an irreducible cycle.
    IrreducibleLoop,
    /// RTPF006: the entry block has predecessors.
    EntryHasPreds,
    /// RTPF007: the program has no exit block.
    NoExit,
    /// RTPF008: layout address ranges overlap or leave gaps.
    LayoutAnomaly,
    /// RTPF009: a prefetch targets an instruction not in the program, or
    /// another prefetch (Eq. 9 forbids prefetching for a prefetch).
    DanglingPrefetch,
    /// RTPF010: a prefetch target is never referenced downstream.
    UselessPrefetch,
    /// RTPF020: an always-hit reference concretely missed (unsound).
    UnsoundAlwaysHit,
    /// RTPF021: an unclassified reference concretely always hit.
    PrecisionGap,
    /// RTPF022: an always-miss reference concretely hit (unsound).
    UnsoundAlwaysMiss,
    /// RTPF040: a *refined* always-hit (upgraded by the exact FIFO/PLRU
    /// exploration) concretely missed — the refinement itself is unsound.
    RefinedUnsoundAlwaysHit,
    /// RTPF041: a reference the refinement examined but left unclassified
    /// showed a single concrete outcome across every seeded walk — a
    /// residual precision gap the exploration could not close.
    RefinedPrecisionGap,
    /// RTPF042: a *refined* always-miss concretely hit — the refinement
    /// itself is unsound.
    RefinedUnsoundAlwaysMiss,
    /// RTPF050: a reference whose L1 classification admits no L2 access
    /// (L1 always-hit, filter `Never`) concretely reached the L2 — the
    /// hierarchy filter itself is unsound.
    HierarchyFilterViolated,
    /// RTPF051: an L2 always-hit reference concretely filled from DRAM
    /// (unsound: the WCET bound charged an L2 hit for a DRAM access).
    UnsoundL2AlwaysHit,
    /// RTPF052: an L2 always-miss reference concretely hit in the L2
    /// (unsound may analysis at the second level).
    UnsoundL2AlwaysMiss,
    /// RTPF030: input and output are not prefetch-equivalent.
    NotEquivalent,
    /// RTPF031: the transform increased `τ_w`.
    WcetRegression,
    /// RTPF032: an inserted prefetch violates the Definition 10 window.
    IneffectivePrefetch,
    /// RTPF033: an inserted prefetch's target still classifies as a miss.
    UnprofitablePrefetch,
    /// RTPF034: an inserted prefetch lies off the final WCET path.
    OffPathPrefetch,
    /// RTPF035: the transform moved an original instruction (Lemma 2).
    RelocationUnsafe,
    /// RTPF090: a tool-level failure (load, parse, analysis, optimize).
    ToolError,
}

impl Code {
    /// Every code, in catalog order.
    pub const ALL: [Code; 26] = [
        Code::UnreachableBlock,
        Code::EmptyBlock,
        Code::MissingLoopBound,
        Code::ZeroLoopBound,
        Code::IrreducibleLoop,
        Code::EntryHasPreds,
        Code::NoExit,
        Code::LayoutAnomaly,
        Code::DanglingPrefetch,
        Code::UselessPrefetch,
        Code::UnsoundAlwaysHit,
        Code::PrecisionGap,
        Code::UnsoundAlwaysMiss,
        Code::RefinedUnsoundAlwaysHit,
        Code::RefinedPrecisionGap,
        Code::RefinedUnsoundAlwaysMiss,
        Code::HierarchyFilterViolated,
        Code::UnsoundL2AlwaysHit,
        Code::UnsoundL2AlwaysMiss,
        Code::NotEquivalent,
        Code::WcetRegression,
        Code::IneffectivePrefetch,
        Code::UnprofitablePrefetch,
        Code::OffPathPrefetch,
        Code::RelocationUnsafe,
        Code::ToolError,
    ];

    /// The stable `RTPF0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnreachableBlock => "RTPF001",
            Code::EmptyBlock => "RTPF002",
            Code::MissingLoopBound => "RTPF003",
            Code::ZeroLoopBound => "RTPF004",
            Code::IrreducibleLoop => "RTPF005",
            Code::EntryHasPreds => "RTPF006",
            Code::NoExit => "RTPF007",
            Code::LayoutAnomaly => "RTPF008",
            Code::DanglingPrefetch => "RTPF009",
            Code::UselessPrefetch => "RTPF010",
            Code::UnsoundAlwaysHit => "RTPF020",
            Code::PrecisionGap => "RTPF021",
            Code::UnsoundAlwaysMiss => "RTPF022",
            Code::RefinedUnsoundAlwaysHit => "RTPF040",
            Code::RefinedPrecisionGap => "RTPF041",
            Code::RefinedUnsoundAlwaysMiss => "RTPF042",
            Code::HierarchyFilterViolated => "RTPF050",
            Code::UnsoundL2AlwaysHit => "RTPF051",
            Code::UnsoundL2AlwaysMiss => "RTPF052",
            Code::NotEquivalent => "RTPF030",
            Code::WcetRegression => "RTPF031",
            Code::IneffectivePrefetch => "RTPF032",
            Code::UnprofitablePrefetch => "RTPF033",
            Code::OffPathPrefetch => "RTPF034",
            Code::RelocationUnsafe => "RTPF035",
            Code::ToolError => "RTPF090",
        }
    }

    /// Parses an `RTPF0xx` identifier (case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// Catalog severity before any configuration is applied.
    pub fn default_severity(self) -> Severity {
        match self {
            // Structural defects the analyses cannot tolerate.
            Code::UnreachableBlock
            | Code::MissingLoopBound
            | Code::ZeroLoopBound
            | Code::IrreducibleLoop
            | Code::NoExit
            | Code::DanglingPrefetch => Severity::Deny,
            // Genuine soundness / Theorem 1 violations. A refined
            // classification that disagrees with a concrete walk is a hard
            // failure exactly like a cheap one: the exploration claims
            // every reachable state, so one counterexample disproves it.
            Code::UnsoundAlwaysHit
            | Code::UnsoundAlwaysMiss
            | Code::RefinedUnsoundAlwaysHit
            | Code::RefinedUnsoundAlwaysMiss
            | Code::HierarchyFilterViolated
            | Code::UnsoundL2AlwaysHit
            | Code::UnsoundL2AlwaysMiss
            | Code::NotEquivalent
            | Code::WcetRegression
            | Code::RelocationUnsafe
            | Code::ToolError => Severity::Deny,
            // Suspicious but survivable.
            Code::EntryHasPreds
            | Code::LayoutAnomaly
            | Code::UselessPrefetch
            | Code::IneffectivePrefetch
            | Code::UnprofitablePrefetch => Severity::Warn,
            // Informational: legitimate in compiler-generated code, or a
            // precision (not soundness) signal.
            Code::EmptyBlock
            | Code::PrecisionGap
            | Code::RefinedPrecisionGap
            | Code::OffPathPrefetch => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How seriously a diagnostic is taken. Ordered: `Note < Warn < Deny`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational; never fails an audit.
    Note,
    /// Suspicious; fails under `--deny warnings`.
    Warn,
    /// A defect; always fails the audit.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        })
    }
}

/// Where a diagnostic points: a program, optionally narrowed to a basic
/// block, an instruction, and the cache configuration it was found under.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Name of the audited program.
    pub program: String,
    /// Basic block the finding anchors to, if any.
    pub block: Option<BlockId>,
    /// Instruction the finding anchors to, if any.
    pub instr: Option<InstrId>,
    /// Label of the cache configuration (e.g. `k7`), for findings that
    /// only exist under a specific geometry.
    pub config: Option<String>,
}

impl Span {
    /// A span covering the whole program.
    pub fn program(name: impl Into<String>) -> Span {
        Span {
            program: name.into(),
            ..Span::default()
        }
    }

    /// A span anchored to a basic block.
    pub fn block(name: impl Into<String>, b: BlockId) -> Span {
        Span {
            program: name.into(),
            block: Some(b),
            ..Span::default()
        }
    }

    /// A span anchored to an instruction inside a block.
    pub fn instr(name: impl Into<String>, b: BlockId, i: InstrId) -> Span {
        Span {
            program: name.into(),
            block: Some(b),
            instr: Some(i),
            ..Span::default()
        }
    }

    /// Returns this span tagged with a cache-configuration label.
    pub fn under(mut self, config: impl Into<String>) -> Span {
        self.config = Some(config.into());
        self
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.program)?;
        if let Some(b) = self.block {
            write!(f, ":{b}")?;
        }
        if let Some(i) = self.instr {
            write!(f, ":{i}")?;
        }
        if let Some(k) = &self.config {
            write!(f, "@{k}")?;
        }
        Ok(())
    }
}

/// One audit finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable catalog code.
    pub code: Code,
    /// Effective severity after configuration.
    pub severity: Severity,
    /// Program element the finding anchors to.
    pub span: Span,
    /// What was found.
    pub message: String,
    /// How to address it, when the pass knows.
    pub help: Option<String>,
}

/// Per-code severity policy: keep the catalog default, force a level, or
/// drop the diagnostic entirely.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Level {
    /// Use [`Code::default_severity`].
    #[default]
    Default,
    /// Suppress the diagnostic.
    Allow,
    /// Force [`Severity::Note`].
    Note,
    /// Force [`Severity::Warn`].
    Warn,
    /// Force [`Severity::Deny`].
    Deny,
}

/// Severity configuration applied by the sink as findings arrive.
#[derive(Clone, Debug, Default)]
pub struct SeverityConfig {
    /// Promote every warning to deny (`--deny warnings`).
    pub deny_warnings: bool,
    overrides: BTreeMap<Code, Level>,
}

impl SeverityConfig {
    /// The default policy: catalog severities, warnings stay warnings.
    pub fn new() -> SeverityConfig {
        SeverityConfig::default()
    }

    /// Sets the policy for one code.
    pub fn set(&mut self, code: Code, level: Level) {
        self.overrides.insert(code, level);
    }

    /// Effective severity of `code`, or `None` when suppressed.
    pub fn effective(&self, code: Code) -> Option<Severity> {
        let base = match self.overrides.get(&code).copied().unwrap_or_default() {
            Level::Allow => return None,
            Level::Default => code.default_severity(),
            Level::Note => Severity::Note,
            Level::Warn => Severity::Warn,
            Level::Deny => Severity::Deny,
        };
        // `--deny warnings` promotes warn-level findings only; notes are
        // informational and stay below the failure threshold.
        if self.deny_warnings && base == Severity::Warn {
            Some(Severity::Deny)
        } else {
            Some(base)
        }
    }
}

/// Collects diagnostics from the audit passes, applying the severity
/// configuration as they arrive.
///
/// # Example
///
/// ```
/// use rtpf_audit::{Code, DiagnosticSink, SeverityConfig, Span};
///
/// let mut sink = DiagnosticSink::new(SeverityConfig::new());
/// sink.report(Code::NoExit, Span::program("demo"), "no exit block", None);
/// assert!(sink.has_denials());
/// assert!(sink.render_text().contains("RTPF007"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiagnosticSink {
    config: SeverityConfig,
    diags: Vec<Diagnostic>,
}

impl DiagnosticSink {
    /// An empty sink with the given severity policy.
    pub fn new(config: SeverityConfig) -> DiagnosticSink {
        DiagnosticSink {
            config,
            diags: Vec::new(),
        }
    }

    /// Records a finding unless its code is suppressed.
    pub fn report(
        &mut self,
        code: Code,
        span: Span,
        message: impl Into<String>,
        help: Option<String>,
    ) {
        if let Some(severity) = self.config.effective(code) {
            self.diags.push(Diagnostic {
                code,
                severity,
                span,
                message: message.into(),
                help,
            });
        }
    }

    /// All recorded findings, in arrival order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Absorbs another sink's findings, tagging each with a cache
    /// configuration label unless the finding already carries one.
    pub fn absorb(&mut self, other: DiagnosticSink, config_label: Option<&str>) {
        for mut d in other.diags {
            if d.span.config.is_none() {
                d.span.config = config_label.map(str::to_string);
            }
            self.diags.push(d);
        }
    }

    /// `(deny, warn, note)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diags {
            match d.severity {
                Severity::Deny => c.0 += 1,
                Severity::Warn => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// Whether any finding reached deny level.
    pub fn has_denials(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Deny)
    }

    /// The severity policy this sink applies.
    pub fn config(&self) -> &SeverityConfig {
        &self.config
    }

    /// Renders every finding as indented human-readable text.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diags {
            let _ = writeln!(s, "{}[{}]: {} ({})", d.severity, d.code, d.message, d.span);
            if let Some(h) = &d.help {
                let _ = writeln!(s, "  help: {h}");
            }
        }
        s
    }

    /// Renders every finding as one JSON object per line.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        for d in &self.diags {
            let mut o = String::new();
            let _ = write!(
                o,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"program\":\"{}\"",
                d.code,
                d.severity,
                json_escape(&d.span.program)
            );
            if let Some(b) = d.span.block {
                let _ = write!(o, ",\"block\":{}", b.index());
            }
            if let Some(i) = d.span.instr {
                let _ = write!(o, ",\"instr\":{}", i.index());
            }
            if let Some(k) = &d.span.config {
                let _ = write!(o, ",\"config\":\"{}\"", json_escape(k));
            }
            let _ = write!(o, ",\"message\":\"{}\"", json_escape(&d.message));
            if let Some(h) = &d.help {
                let _ = write!(o, ",\"help\":\"{}\"", json_escape(h));
            }
            o.push('}');
            let _ = writeln!(s, "{o}");
        }
        s
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character, so any parser that follows RFC 8259
/// reads the text back verbatim.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parse_back() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert!(c.as_str().starts_with("RTPF"));
        }
        assert_eq!(Code::parse("rtpf020"), Some(Code::UnsoundAlwaysHit));
        assert_eq!(Code::parse("RTPF999"), None);
    }

    #[test]
    fn deny_warnings_promotes_warn_not_note() {
        let mut cfg = SeverityConfig::new();
        cfg.deny_warnings = true;
        assert_eq!(cfg.effective(Code::UselessPrefetch), Some(Severity::Deny));
        assert_eq!(cfg.effective(Code::EmptyBlock), Some(Severity::Note));
        assert_eq!(cfg.effective(Code::NoExit), Some(Severity::Deny));
    }

    #[test]
    fn allow_suppresses_and_overrides_force() {
        let mut cfg = SeverityConfig::new();
        cfg.set(Code::EmptyBlock, Level::Deny);
        cfg.set(Code::NoExit, Level::Allow);
        let mut sink = DiagnosticSink::new(cfg);
        sink.report(Code::EmptyBlock, Span::program("p"), "m", None);
        sink.report(Code::NoExit, Span::program("p"), "m", None);
        assert_eq!(sink.diagnostics().len(), 1);
        assert_eq!(sink.diagnostics()[0].severity, Severity::Deny);
    }

    #[test]
    fn json_escapes_and_renders_span_fields() {
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        sink.report(
            Code::UnsoundAlwaysHit,
            Span::instr("p \"q\"", BlockId(3), InstrId(7)).under("k9"),
            "line1\nline2",
            Some("fix it".into()),
        );
        let j = sink.render_json();
        assert!(j.contains("\"code\":\"RTPF020\""));
        assert!(j.contains("\\\"q\\\""));
        assert!(j.contains("\"block\":3"));
        assert!(j.contains("\"instr\":7"));
        assert!(j.contains("\"config\":\"k9\""));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"help\":\"fix it\""));
    }

    #[test]
    fn text_rendering_is_greppable() {
        let mut sink = DiagnosticSink::new(SeverityConfig::new());
        sink.report(
            Code::MissingLoopBound,
            Span::block("p", BlockId(2)),
            "loop bb2 has no bound",
            Some("call set_loop_bound".into()),
        );
        let t = sink.render_text();
        assert!(t.contains("error[RTPF003]"));
        assert!(t.contains("p:bb2"));
        assert!(t.contains("help: call set_loop_bound"));
    }
}
