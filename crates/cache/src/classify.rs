//! Hit/miss classification from abstract states.

use std::fmt;

use rtpf_isa::MemBlockId;

use crate::may::MayState;
use crate::must::MustState;

/// Static classification of one reference, in the style of cache-aware WCET
/// analysis (references [8, 21] of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Classification {
    /// The referenced block is cached in every reachable concrete state.
    AlwaysHit,
    /// The referenced block is cached in no reachable concrete state.
    AlwaysMiss,
    /// Neither guarantee holds; WCET analysis must assume a miss.
    Unclassified,
}

impl Classification {
    /// Classifies a reference to `block` given the incoming must and may
    /// states.
    pub fn of(block: MemBlockId, must: &MustState, may: &MayState) -> Classification {
        if must.contains(block) {
            Classification::AlwaysHit
        } else if !may.contains(block) {
            Classification::AlwaysMiss
        } else {
            Classification::Unclassified
        }
    }

    /// Whether WCET analysis must account a miss penalty for this
    /// classification (everything but [`Classification::AlwaysHit`]).
    #[inline]
    pub fn counts_as_miss(&self) -> bool {
        !matches!(self, Classification::AlwaysHit)
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Classification::AlwaysHit => "always-hit",
            Classification::AlwaysMiss => "always-miss",
            Classification::Unclassified => "unclassified",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    #[test]
    fn classification_tracks_abstract_states() {
        let cfg = CacheConfig::new(2, 16, 32).unwrap();
        let mut must = MustState::new(&cfg);
        let mut may = MayState::new(&cfg);
        let b = MemBlockId(4);

        // Cold: not even possibly cached.
        assert_eq!(
            Classification::of(b, &must, &may),
            Classification::AlwaysMiss
        );

        // Possibly cached on one path only.
        may.update(b);
        assert_eq!(
            Classification::of(b, &must, &may),
            Classification::Unclassified
        );

        // Guaranteed cached.
        must.update(b);
        assert_eq!(
            Classification::of(b, &must, &may),
            Classification::AlwaysHit
        );
        assert!(!Classification::of(b, &must, &may).counts_as_miss());
    }

    #[test]
    fn display_names() {
        assert_eq!(Classification::AlwaysHit.to_string(), "always-hit");
        assert_eq!(Classification::AlwaysMiss.to_string(), "always-miss");
        assert_eq!(Classification::Unclassified.to_string(), "unclassified");
    }
}
