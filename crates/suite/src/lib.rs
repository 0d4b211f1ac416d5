//! Synthetic reconstruction of the Mälardalen WCET benchmark suite.
//!
//! The paper evaluates on the 37 programs of the Mälardalen benchmark
//! (reference \[10\]), compiled for ARMv7. The C sources cannot be compiled
//! here, so this crate reconstructs each program's **control-flow
//! skeleton** — loop nests with their documented bounds, conditional and
//! switch shapes, and code sizes in the range of the real binaries — using
//! the [`Shape`](rtpf_isa::shape::Shape) DSL. Instruction-cache behaviour
//! is fully determined by these observables (addresses, blocks, CFG, loop
//! bounds), so the skeletons exercise exactly the code paths the paper's
//! technique optimizes; see DESIGN.md for the substitution argument.
//!
//! # Example
//!
//! ```
//! let all = rtpf_suite::catalog();
//! assert_eq!(all.len(), 37);
//! let matmult = rtpf_suite::by_name("matmult").expect("matmult exists");
//! assert!(matmult.program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]

pub mod programs;

use rtpf_isa::Program;

/// One benchmark program: its Table 1 id, name, and compiled skeleton.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Paper Table 1 identifier (`p1`..`p37`).
    pub id: String,
    /// Mälardalen program name.
    pub name: &'static str,
    /// What the original program does and how the skeleton mirrors it.
    pub description: &'static str,
    /// The compiled control-flow skeleton.
    pub program: Program,
}

/// All 37 benchmarks in Table 1 order (`p1`..`p37`).
pub fn catalog() -> Vec<Benchmark> {
    programs::NAMES
        .iter()
        .enumerate()
        .map(|(i, &(name, description))| Benchmark {
            id: format!("p{}", i + 1),
            name,
            description,
            program: programs::shape_of(name)
                .expect("catalog name has a shape")
                .compile(name),
        })
        .collect()
}

/// Looks a benchmark up by Mälardalen name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    let idx = programs::NAMES.iter().position(|&(n, _)| n == name)?;
    let (n, description) = programs::NAMES[idx];
    Some(Benchmark {
        id: format!("p{}", idx + 1),
        name: n,
        description,
        program: programs::shape_of(n)?.compile(n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_37_programs() {
        assert_eq!(catalog().len(), 37);
    }

    #[test]
    fn every_program_validates() {
        for b in catalog() {
            assert!(
                b.program.validate().is_ok(),
                "{} failed validation: {:?}",
                b.name,
                b.program.validate()
            );
        }
    }

    #[test]
    fn ids_follow_table1_order() {
        let all = catalog();
        assert_eq!(all[0].id, "p1");
        assert_eq!(all[0].name, "adpcm");
        assert_eq!(all[36].id, "p37");
    }

    #[test]
    fn names_are_unique() {
        let all = catalog();
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i].name, all[j].name);
            }
        }
    }

    #[test]
    fn by_name_matches_catalog() {
        let m = by_name("matmult").unwrap();
        let c = catalog();
        let in_cat = c.iter().find(|b| b.name == "matmult").unwrap();
        assert_eq!(m.id, in_cat.id);
        assert_eq!(m.program.instr_count(), in_cat.program.instr_count());
        assert!(by_name("not-a-benchmark").is_none());
    }

    #[test]
    fn code_sizes_span_realistic_range() {
        // The paper selects cache sizes so pre-optimization miss rates span
        // 1–10%; that needs programs from a few hundred bytes to several
        // KiB of text.
        let sizes: Vec<u64> = catalog().iter().map(|b| b.program.code_bytes()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min < 1024, "smallest program {min} B should be tiny");
        assert!(max > 10_000, "largest program {max} B should exceed 10 KiB");
    }

    #[test]
    fn nsichneu_is_the_giant_state_machine() {
        let n = by_name("nsichneu").unwrap();
        // The real nsichneu is ~4000 lines of generated if-chains; ours
        // must dwarf the median benchmark.
        assert!(n.program.code_bytes() > 15_000);
        assert!(n.program.block_count() > 200);
    }
}
