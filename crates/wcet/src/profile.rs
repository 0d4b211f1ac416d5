//! Per-phase timing and work counters for the WCET analysis.
//!
//! Collected by [`WcetAnalysis`](crate::WcetAnalysis) on every run (full or
//! incremental), aggregated by the optimizer across all analyses of an
//! optimization run, and surfaced by `rtpf sweep --profile` and
//! `perfbench`'s traced runs. All counters are plain `u64`s so profiles are `Copy`
//! and can be summed field-wise with [`AnalysisProfile::add`].

use std::fmt;

/// Cumulative per-phase breakdown of one or more WCET analyses.
///
/// Timings are wall-clock nanoseconds; counters are exact. Equality
/// compares every field, so two profiles from timed runs will practically
/// never be equal — comparisons of optimizer reports must exclude the
/// profile (see `OptimizeReport::decisions_eq` in `rtpf-core`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisProfile {
    /// Building the VIVU context graph and the reference graph (ACFG).
    pub vivu_ns: u64,
    /// Must/may dataflow fixpoint (including classification recording).
    pub fixpoint_ns: u64,
    /// Predecessor-state joins inside the fixpoint, memo misses only; a
    /// part of `fixpoint_ns`, which the sequential solver runs on one
    /// thread.
    pub join_ns: u64,
    /// Per-reference classify + fold walks inside the fixpoint, memo
    /// misses only; a part of `fixpoint_ns` like
    /// [`join_ns`](Self::join_ns).
    pub transfer_ns: u64,
    /// Exact per-set refinement of unclassified references (DESIGN.md
    /// §12); 0 under LRU or with refinement disabled.
    pub refine_ns: u64,
    /// IPET longest-path solve and per-reference count extraction.
    pub ipet_ns: u64,
    /// Relocation / layout re-anchoring performed by the optimizer between
    /// analyses (always 0 on a standalone analysis).
    pub relocation_ns: u64,
    /// Node transfer-function evaluations across all fixpoint sweeps.
    pub fixpoint_evals: u64,
    /// Node evaluations answered from the lineage's shared memo instead of
    /// being recomputed.
    pub memo_hits: u64,
    /// Abstract state pairs answered from the interner (shared allocations).
    pub states_interned: u64,
    /// Abstract state pairs allocated fresh by the interner.
    pub states_fresh: u64,
    /// From-scratch analyses performed.
    pub full_analyses: u64,
    /// Incremental re-analyses performed.
    pub incremental_analyses: u64,
    /// VIVU nodes summed over all analyses.
    pub nodes_total: u64,
    /// VIVU nodes whose states were actually recomputed.
    pub nodes_reanalyzed: u64,
    /// Engine Optimize stage wall-clock (prefetch insertion, end to end).
    pub optimize_ns: u64,
    /// Engine Verify stage wall-clock (independent Theorem 1 re-proof).
    pub verify_ns: u64,
    /// Engine Simulate stage wall-clock (seeded trace simulation).
    pub simulate_ns: u64,
    /// Engine Energy stage wall-clock (per-technology accounting).
    pub energy_ns: u64,
    /// Figure-5 shrunk-capacity probe analyses wall-clock (the 1/2- and
    /// 1/4-capacity sub-engine runs inside a unit evaluation). A *stage*
    /// counter like `optimize_ns`: the probes' own phase work is already
    /// included in the phase fields above, so this overlaps them rather
    /// than extending `total_ns`.
    pub probe_ns: u64,
    /// Artifact-store lookups answered from the store.
    pub store_hits: u64,
    /// Artifact-store lookups that had to compute.
    pub store_misses: u64,
}

impl AnalysisProfile {
    /// Field-wise accumulation.
    pub fn add(&mut self, other: &AnalysisProfile) {
        self.vivu_ns += other.vivu_ns;
        self.fixpoint_ns += other.fixpoint_ns;
        self.join_ns += other.join_ns;
        self.transfer_ns += other.transfer_ns;
        self.refine_ns += other.refine_ns;
        self.ipet_ns += other.ipet_ns;
        self.relocation_ns += other.relocation_ns;
        self.fixpoint_evals += other.fixpoint_evals;
        self.memo_hits += other.memo_hits;
        self.states_interned += other.states_interned;
        self.states_fresh += other.states_fresh;
        self.full_analyses += other.full_analyses;
        self.incremental_analyses += other.incremental_analyses;
        self.nodes_total += other.nodes_total;
        self.nodes_reanalyzed += other.nodes_reanalyzed;
        self.optimize_ns += other.optimize_ns;
        self.verify_ns += other.verify_ns;
        self.simulate_ns += other.simulate_ns;
        self.energy_ns += other.energy_ns;
        self.probe_ns += other.probe_ns;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
    }

    /// Total analysis time across the recorded phases.
    pub fn total_ns(&self) -> u64 {
        self.vivu_ns + self.fixpoint_ns + self.refine_ns + self.ipet_ns + self.relocation_ns
    }

    /// Fraction of summed nodes that incremental re-analysis skipped.
    pub fn reuse_fraction(&self) -> f64 {
        if self.nodes_total == 0 {
            return 0.0;
        }
        1.0 - self.nodes_reanalyzed as f64 / self.nodes_total as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

impl fmt::Display for AnalysisProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "analyses: {} full + {} incremental ({:.1}% nodes reused)",
            self.full_analyses,
            self.incremental_analyses,
            100.0 * self.reuse_fraction()
        )?;
        writeln!(
            f,
            "phases:   vivu {:.2} ms | fixpoint {:.2} ms (join {:.2} + transfer {:.2}) | \
             refine {:.2} ms | ipet {:.2} ms | relocation {:.2} ms",
            ms(self.vivu_ns),
            ms(self.fixpoint_ns),
            ms(self.join_ns),
            ms(self.transfer_ns),
            ms(self.refine_ns),
            ms(self.ipet_ns),
            ms(self.relocation_ns)
        )?;
        write!(
            f,
            "work:     {} transfer evals + {} memo hits | states: {} interned / {} fresh",
            self.fixpoint_evals, self.memo_hits, self.states_interned, self.states_fresh
        )?;
        let staged =
            self.optimize_ns + self.verify_ns + self.simulate_ns + self.energy_ns + self.probe_ns;
        if staged > 0 || self.store_hits + self.store_misses > 0 {
            write!(
                f,
                "\nstages:   optimize {:.2} ms | verify {:.2} ms | simulate {:.2} ms | \
                 energy {:.2} ms | probes {:.2} ms | store {} hits / {} misses",
                ms(self.optimize_ns),
                ms(self.verify_ns),
                ms(self.simulate_ns),
                ms(self.energy_ns),
                ms(self.probe_ns),
                self.store_hits,
                self.store_misses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_fieldwise() {
        let mut a = AnalysisProfile {
            vivu_ns: 1,
            fixpoint_ns: 2,
            ipet_ns: 3,
            relocation_ns: 4,
            fixpoint_evals: 5,
            memo_hits: 0,
            states_interned: 6,
            states_fresh: 7,
            full_analyses: 1,
            incremental_analyses: 0,
            nodes_total: 10,
            nodes_reanalyzed: 10,
            ..Default::default()
        };
        let b = AnalysisProfile {
            incremental_analyses: 1,
            nodes_total: 10,
            nodes_reanalyzed: 2,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.total_ns(), 10);
        assert_eq!(a.nodes_total, 20);
        assert_eq!(a.nodes_reanalyzed, 12);
        assert!((a.reuse_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_phases() {
        let p = AnalysisProfile::default();
        let s = p.to_string();
        assert!(s.contains("fixpoint"));
        assert!(s.contains("interned"));
    }
}
