//! Structured engine errors.
//!
//! Every stage failure carries the typed source error plus which stage
//! raised it, so front ends can match on structure instead of scraping
//! formatted strings. The `Display` renderings intentionally reproduce the
//! messages the CLI printed before the engine existed.

use std::error::Error;
use std::fmt;

use rtpf_cache::ConfigError;
use rtpf_isa::IsaError;
use rtpf_sim::SimError;
use rtpf_wcet::AnalysisError;

/// A failure in the engine pipeline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// Invalid cache geometry.
    Geometry(ConfigError),
    /// A program file could not be read.
    Read {
        /// The path (or spec) that failed.
        path: String,
        /// The I/O error rendering.
        error: String,
    },
    /// A program file could not be parsed.
    Parse {
        /// The path that failed.
        path: String,
        /// The parser's rendering of the defect.
        error: String,
    },
    /// `suite:NAME` named an unknown benchmark.
    UnknownSuite(String),
    /// The WCET analysis stage failed.
    Analysis(AnalysisError),
    /// The optimize stage failed.
    Optimize(AnalysisError),
    /// The verify stage (Theorem 1 re-proof) failed to run.
    Verify(AnalysisError),
    /// The simulate stage failed.
    Simulate(SimError),
    /// A structural CFG defect outside an analysis run.
    Isa(IsaError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Geometry(e) => write!(f, "invalid cache geometry: {e}"),
            EngineError::Read { path, error } => write!(f, "cannot read {path}: {error}"),
            EngineError::Parse { path, error } => write!(f, "{path}: {error}"),
            EngineError::UnknownSuite(name) => {
                write!(f, "unknown suite program {name} (try `rtpf suite`)")
            }
            EngineError::Analysis(e) => write!(f, "analysis failed: {e}"),
            EngineError::Optimize(e) => write!(f, "optimization failed: {e}"),
            EngineError::Verify(e) => write!(f, "verification failed: {e}"),
            EngineError::Simulate(e) => write!(f, "simulation failed: {e}"),
            EngineError::Isa(e) => write!(f, "{e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Geometry(e) => Some(e),
            EngineError::Analysis(e) | EngineError::Optimize(e) | EngineError::Verify(e) => Some(e),
            EngineError::Simulate(e) => Some(e),
            EngineError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Geometry(e)
    }
}

impl From<IsaError> for EngineError {
    fn from(e: IsaError) -> Self {
        EngineError::Isa(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Simulate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_preserve_legacy_cli_messages() {
        let e = EngineError::UnknownSuite("doom".into());
        assert_eq!(
            e.to_string(),
            "unknown suite program doom (try `rtpf suite`)"
        );
        let e = EngineError::Read {
            path: "x.rtpf".into(),
            error: "gone".into(),
        };
        assert_eq!(e.to_string(), "cannot read x.rtpf: gone");
        let e = EngineError::Analysis(AnalysisError::Ipet("cyclic".into()));
        assert!(e.to_string().starts_with("analysis failed:"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
