//! Analysis errors.

use std::error::Error;
use std::fmt;

use rtpf_isa::{BlockId, ValidateError};

/// Error raised by WCET analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnalysisError {
    /// The input program failed structural validation.
    InvalidProgram(ValidateError),
    /// The VIVU expansion exceeded the context budget (pathologically deep
    /// loop nesting).
    ContextExplosion {
        /// Number of contexts produced before giving up.
        contexts: usize,
    },
    /// The IPET instance was unexpectedly infeasible or cyclic.
    Ipet(String),
    /// A loop header lost its bound between validation and analysis.
    MissingBound(BlockId),
    /// The must/may classification fixpoint exceeded its iteration guard.
    /// The solver descends a finite lattice, so this indicates a broken
    /// transfer function or join, not a property of the input program —
    /// but callers get a typed stage failure instead of a panic.
    FixpointDiverged {
        /// Worklist evaluations performed in the diverging component
        /// before giving up.
        iterations: usize,
    },
    /// The WCET bound exceeds `u64::MAX` cycles (a miss penalty far
    /// beyond any real memory).
    Overflow,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            AnalysisError::ContextExplosion { contexts } => {
                write!(f, "VIVU produced {contexts} contexts, over budget")
            }
            AnalysisError::Ipet(msg) => write!(f, "IPET failed: {msg}"),
            AnalysisError::MissingBound(b) => write!(f, "missing loop bound at {b}"),
            AnalysisError::Overflow => write!(f, "WCET bound overflows u64 cycles"),
            AnalysisError::FixpointDiverged { iterations } => {
                write!(
                    f,
                    "classification fixpoint diverged after {iterations} evaluations"
                )
            }
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::InvalidProgram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for AnalysisError {
    fn from(e: ValidateError) -> Self {
        AnalysisError::InvalidProgram(e)
    }
}
