//! CFG walker: executes a program under a branch-behaviour policy.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming};
use rtpf_isa::dom::Dominators;
use rtpf_isa::loops::LoopForest;
use rtpf_isa::{BlockId, InstrKind, Layout, MemBlockId, Program};

use crate::engine::{CacheEngine, HwPrefetcher, LockedContents};
use crate::result::SimResult;

/// How branches behave during simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BranchBehavior {
    /// Loops iterate their full bound; conditionals are drawn uniformly.
    /// Approximates a heavy, WCET-like input.
    WorstLike,
    /// Loops iterate `Uniform(1..=bound)` times; conditionals uniform.
    /// Approximates average inputs (the paper's trace-based ACET).
    #[default]
    Random,
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Branch behaviour policy.
    pub behavior: BranchBehavior,
    /// Base RNG seed; run `k` uses `seed + k`.
    pub seed: u64,
    /// Number of runs averaged into the result.
    pub runs: u32,
    /// Safety cap on fetches per run.
    pub max_fetches: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            behavior: BranchBehavior::Random,
            seed: 0xC0FF_EE00,
            runs: 3,
            max_fetches: 2_000_000,
        }
    }
}

/// Simulation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The program failed validation (unreachable code, missing bounds…).
    InvalidProgram(String),
    /// A run exceeded [`SimConfig::max_fetches`].
    FetchCapExceeded {
        /// The configured cap.
        cap: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(m) => write!(f, "invalid program: {m}"),
            SimError::FetchCapExceeded { cap } => {
                write!(f, "execution exceeded the fetch cap of {cap}")
            }
        }
    }
}

impl Error for SimError {}

/// One step of a block's precompiled fetch sequence.
#[derive(Clone, Debug)]
enum Seg {
    /// `n` consecutive instructions mapping to the same memory block
    /// (batched via [`CacheEngine::fetch_run`]).
    Fetch { mb: MemBlockId, n: u32 },
    /// A software prefetch action, issued after the owning instruction's
    /// fetch (which is part of the preceding `Fetch` run).
    Prefetch { target: MemBlockId },
}

/// Per-program walk plan, built once per [`Simulator::run_full`] and
/// shared by every seeded run: each block's instruction stream collapsed
/// into same-memory-block fetch runs, loop bounds by block index, and a
/// body-membership bitset per loop header. Replaces the per-instruction
/// layout lookups and per-transition `LoopForest` scans of the walk's
/// previous inner loop.
struct WalkPlan {
    segs: Vec<Vec<Seg>>,
    bound: Vec<Option<u32>>,
    /// `body[h]` non-empty iff block `h` heads a loop; bit `b` set iff
    /// block `b` is in that loop's body.
    body: Vec<Vec<u64>>,
}

impl WalkPlan {
    fn build(p: &Program, forest: &LoopForest, layout: &Layout, block_bytes: u32) -> WalkPlan {
        let n_blocks = p.block_count();
        let words = n_blocks.div_ceil(64);
        let mut segs = vec![Vec::new(); n_blocks];
        let mut bound = vec![None; n_blocks];
        let mut body = vec![Vec::new(); n_blocks];
        for b in p.block_ids() {
            bound[b.index()] = p.loop_bound(b);
            if let Some(l) = forest.loop_of(b) {
                let mut bits = vec![0u64; words];
                for &m in &l.body {
                    bits[m.index() / 64] |= 1 << (m.index() % 64);
                }
                body[b.index()] = bits;
            }
            let v = &mut segs[b.index()];
            for &i in p.block(b).instrs() {
                let mb = layout.block_of(i, block_bytes);
                match v.last_mut() {
                    Some(Seg::Fetch { mb: m, n }) if *m == mb => *n += 1,
                    _ => v.push(Seg::Fetch { mb, n: 1 }),
                }
                if let InstrKind::Prefetch { target } = p.instr(i).kind {
                    v.push(Seg::Prefetch {
                        target: layout.block_of(target, block_bytes),
                    });
                }
            }
        }
        WalkPlan { segs, bound, body }
    }

    #[inline]
    fn in_body(&self, header: BlockId, b: BlockId) -> bool {
        let bits = &self.body[header.index()];
        !bits.is_empty() && (bits[b.index() / 64] >> (b.index() % 64)) & 1 == 1
    }
}

/// Trace-driven simulator for one cache hierarchy and timing model.
#[derive(Clone, Debug)]
pub struct Simulator {
    hierarchy: HierarchyConfig,
    timing: MemTiming,
    sim: SimConfig,
}

impl Simulator {
    /// A simulator for a single-level cache of the given geometry, timing,
    /// and policy.
    pub fn new(config: CacheConfig, timing: MemTiming, sim: SimConfig) -> Self {
        Self::new_hierarchy(HierarchyConfig::l1_only(config), timing, sim)
    }

    /// A simulator for a full hierarchy; with an L2, every run's engine
    /// serves L1 misses through the exact two-level walk.
    pub fn new_hierarchy(hierarchy: HierarchyConfig, timing: MemTiming, sim: SimConfig) -> Self {
        Simulator {
            hierarchy,
            timing,
            sim,
        }
    }

    /// Runs `p` with a plain cache (no hardware prefetcher, no locking),
    /// averaging [`SimConfig::runs`] seeded runs.
    ///
    /// # Errors
    ///
    /// Fails if `p` is invalid or a run exceeds the fetch cap.
    pub fn run(&self, p: &Program) -> Result<SimResult, SimError> {
        self.run_with(p, |_| {})
    }

    /// Runs `p` with statically locked contents.
    ///
    /// # Errors
    ///
    /// Fails if `p` is invalid or a run exceeds the fetch cap.
    pub fn run_locked(
        &self,
        p: &Program,
        contents: &LockedContents,
    ) -> Result<SimResult, SimError> {
        self.run_with(p, |e| e.lock(contents.clone()))
    }

    /// Runs `p`, customizing each run's engine (e.g. locking) via `setup`.
    ///
    /// # Errors
    ///
    /// Fails if `p` is invalid or a run exceeds the fetch cap.
    pub fn run_with(
        &self,
        p: &Program,
        setup: impl Fn(&mut CacheEngine),
    ) -> Result<SimResult, SimError> {
        self.run_full(p, setup, || None)
    }

    /// Runs `p` with a hardware prefetcher built fresh per run.
    ///
    /// # Errors
    ///
    /// Fails if `p` is invalid or a run exceeds the fetch cap.
    pub fn run_hw(
        &self,
        p: &Program,
        factory: impl Fn() -> Box<dyn HwPrefetcher>,
    ) -> Result<SimResult, SimError> {
        self.run_full(p, |_| {}, || Some(factory()))
    }

    fn run_full(
        &self,
        p: &Program,
        setup: impl Fn(&mut CacheEngine),
        hw_factory: impl Fn() -> Option<Box<dyn HwPrefetcher>>,
    ) -> Result<SimResult, SimError> {
        p.validate()
            .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let dom = Dominators::compute(p);
        let forest =
            LoopForest::compute(p, &dom).map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let layout = Layout::of(p);
        let plan = WalkPlan::build(p, &forest, &layout, self.hierarchy.l1().block_bytes());

        let mut result = SimResult::default();
        for k in 0..self.sim.runs {
            let mut engine = CacheEngine::new_hierarchy(&self.hierarchy, self.timing);
            setup(&mut engine);
            let mut hw = hw_factory();
            let instrs = self.walk(
                p,
                &plan,
                &layout,
                &mut engine,
                &mut hw,
                self.sim.seed.wrapping_add(u64::from(k)),
            )?;
            result.absorb(&engine, instrs);
        }
        Ok(result)
    }

    /// One seeded walk; returns the number of executed instructions.
    fn walk(
        &self,
        p: &Program,
        plan: &WalkPlan,
        layout: &Layout,
        engine: &mut CacheEngine,
        hw: &mut Option<Box<dyn HwPrefetcher>>,
        seed: u64,
    ) -> Result<u64, SimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let block_bytes = self.hierarchy.l1().block_bytes();
        // Remaining iterations per loop header, by block index.
        let mut counters = vec![0u64; p.block_count()];
        let mut fetched: u64 = 0;

        let choose_iters = |rng: &mut StdRng, bound: u32| -> u64 {
            match self.sim.behavior {
                BranchBehavior::WorstLike => u64::from(bound),
                BranchBehavior::Random => rng.gen_range(1..=u64::from(bound)),
            }
        };

        let mut cur = p.entry();
        if let Some(bound) = plan.bound[cur.index()] {
            counters[cur.index()] = choose_iters(&mut rng, bound);
        }
        // Address of the block's last instruction; only the hardware
        // prefetcher reads it.
        let mut last_addr = 0;
        loop {
            // Fetch the block's instructions. With a hardware prefetcher
            // attached, every fetch is reported individually at its exact
            // address; otherwise the precompiled fetch runs collapse the
            // per-instruction loop into one engine call per memory block.
            if let Some(hw) = hw.as_deref_mut() {
                let instrs = p.block(cur).instrs();
                last_addr = layout.addr(*instrs.last().unwrap_or(&rtpf_isa::InstrId(0)));
                for &i in instrs {
                    fetched += 1;
                    if fetched > self.sim.max_fetches {
                        return Err(SimError::FetchCapExceeded {
                            cap: self.sim.max_fetches,
                        });
                    }
                    let addr = layout.addr(i);
                    let mb = layout.block_of(i, block_bytes);
                    let hit = engine.fetch(mb);
                    for s in hw.on_fetch(addr, mb, !hit) {
                        engine.prefetch(s);
                    }
                    if let InstrKind::Prefetch { target } = p.instr(i).kind {
                        engine.prefetch(layout.block_of(target, block_bytes));
                    }
                }
            } else {
                for seg in &plan.segs[cur.index()] {
                    match *seg {
                        Seg::Fetch { mb, n } => {
                            fetched += u64::from(n);
                            if fetched > self.sim.max_fetches {
                                return Err(SimError::FetchCapExceeded {
                                    cap: self.sim.max_fetches,
                                });
                            }
                            engine.fetch_run(mb, n);
                        }
                        Seg::Prefetch { target } => engine.prefetch(target),
                    }
                }
            }

            // Choose the successor.
            let succs = p.succs(cur);
            if succs.is_empty() {
                break;
            }
            let next = if plan.bound[cur.index()].is_some() {
                let c = &mut counters[cur.index()];
                let want_body = *c > 0;
                if want_body {
                    *c -= 1;
                }
                // Count the matching successors without materializing them;
                // the RNG draw pattern is identical to the old collect.
                let mut count = 0usize;
                let mut first = None;
                for &(s, _) in succs {
                    if plan.in_body(cur, s) == want_body {
                        count += 1;
                        if first.is_none() {
                            first = Some(s);
                        }
                    }
                }
                match count {
                    0 => succs[rng.gen_range(0..succs.len())].0,
                    1 => first.expect("count said one match"),
                    n => {
                        let j = rng.gen_range(0..n);
                        succs
                            .iter()
                            .map(|&(s, _)| s)
                            .filter(|&s| plan.in_body(cur, s) == want_body)
                            .nth(j)
                            .expect("count said j-th match exists")
                    }
                }
            } else {
                succs[rng.gen_range(0..succs.len())].0
            };
            // Loop-entry counter reset: entering a header from outside its
            // body starts a fresh iteration count.
            if let Some(bound) = plan.bound[next.index()] {
                if !plan.in_body(next, cur) {
                    counters[next.index()] = choose_iters(&mut rng, bound);
                }
            }

            if let Some(hw) = hw.as_deref_mut() {
                if let Some(&first) = p.block(next).instrs().first() {
                    let tb = layout.block_of(first, block_bytes);
                    // The edge kind of the first matching successor.
                    let kind = succs.iter().find(|&&(s, _)| s == next).map(|&(_, k)| k);
                    let taken = kind == Some(rtpf_isa::EdgeKind::Taken);
                    for s in hw.on_branch(last_addr, tb, taken) {
                        engine.prefetch(s);
                    }
                }
            }

            cur = next;
        }
        Ok(fetched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn sim(behavior: BranchBehavior) -> Simulator {
        Simulator::new(
            CacheConfig::new(2, 16, 256).unwrap(),
            MemTiming::default(),
            SimConfig {
                behavior,
                seed: 42,
                runs: 2,
                max_fetches: 1_000_000,
            },
        )
    }

    #[test]
    fn straight_line_executes_every_instruction() {
        let p = Shape::code(25).compile("s");
        let r = sim(BranchBehavior::WorstLike).run(&p).unwrap();
        assert_eq!(r.instr_executed, 25 * 2); // two runs
        assert_eq!(r.stats.accesses, 50);
    }

    #[test]
    fn worst_like_loop_runs_full_bound() {
        let p = Shape::loop_(10, Shape::code(5)).compile("l");
        let r = sim(BranchBehavior::WorstLike).run(&p).unwrap();
        let per_run = r.instr_executed / 2;
        // body 5×10 + header 2×11 + entry/exit ≈ 73.
        assert!(per_run >= 50 + 20, "per_run = {per_run}");
    }

    #[test]
    fn random_policy_is_reproducible() {
        let p = Shape::loop_(50, Shape::if_else(1, Shape::code(9), Shape::code(2))).compile("r");
        let a = sim(BranchBehavior::Random).run(&p).unwrap();
        let b = sim(BranchBehavior::Random).run(&p).unwrap();
        assert_eq!(a.instr_executed, b.instr_executed);
        assert_eq!(a.stats.cycles, b.stats.cycles);
    }

    #[test]
    fn random_runs_at_most_bound_iterations() {
        let p = Shape::loop_(8, Shape::code(10)).compile("b");
        let r = sim(BranchBehavior::Random).run(&p).unwrap();
        // ≤ bound × body + overhead per run.
        assert!(r.instr_executed / 2 <= 8 * 10 + 30);
        assert!(r.instr_executed / 2 >= 10, "at least one iteration");
    }

    #[test]
    fn software_prefetch_reduces_cycles() {
        // Two loops over the same large footprint: version with prefetches
        // inserted before the second loop body should run faster on a tiny
        // cache... here simply check prefetch instructions execute and are
        // counted.
        let mut p = Shape::code(40).compile("pf");
        let entry = p.entry();
        let target = p.block(entry).instrs()[36];
        p.insert_instr(entry, 0, InstrKind::Prefetch { target })
            .unwrap();
        let r = sim(BranchBehavior::WorstLike).run(&p).unwrap();
        assert!(r.prefetches_issued >= 1);
    }

    #[test]
    fn fetch_cap_is_enforced() {
        let p = Shape::loop_(100, Shape::code(100)).compile("big");
        let s = Simulator::new(
            CacheConfig::new(2, 16, 256).unwrap(),
            MemTiming::default(),
            SimConfig {
                behavior: BranchBehavior::WorstLike,
                seed: 1,
                runs: 1,
                max_fetches: 100,
            },
        );
        assert!(matches!(
            s.run(&p),
            Err(SimError::FetchCapExceeded { cap: 100 })
        ));
    }

    #[test]
    fn batched_walk_matches_the_per_instruction_path() {
        // A no-op hardware prefetcher forces the exact per-instruction
        // fetch loop with the same RNG draw pattern, so it is a reference
        // implementation for the precompiled fetch-run path: every counter
        // must agree, for every policy, with and without software
        // prefetches.
        use rtpf_cache::ReplacementPolicy;
        struct NoopHw;
        impl crate::HwPrefetcher for NoopHw {
            fn on_fetch(&mut self, _: u64, _: MemBlockId, _: bool) -> Vec<MemBlockId> {
                Vec::new()
            }
            fn on_branch(&mut self, _: u64, _: MemBlockId, _: bool) -> Vec<MemBlockId> {
                Vec::new()
            }
        }
        let mut p =
            Shape::loop_(20, Shape::if_else(3, Shape::code(17), Shape::code(9))).compile("eq");
        let (tb, target) = p
            .block_ids()
            .find_map(|b| p.block(b).instrs().first().map(|&i| (b, i)))
            .expect("program has instructions");
        p.insert_instr(tb, 0, InstrKind::Prefetch { target })
            .unwrap();
        for policy in ReplacementPolicy::ALL {
            for behavior in [BranchBehavior::WorstLike, BranchBehavior::Random] {
                let cfg = CacheConfig::new(2, 16, 64)
                    .unwrap()
                    .with_policy(policy)
                    .unwrap();
                let s = Simulator::new(
                    cfg,
                    MemTiming::default(),
                    SimConfig {
                        behavior,
                        seed: 7,
                        runs: 2,
                        max_fetches: 1_000_000,
                    },
                );
                let fast = s.run(&p).unwrap();
                let slow = s.run_hw(&p, || Box::new(NoopHw)).unwrap();
                assert_eq!(fast, slow, "{policy} {behavior:?}");
            }
        }
    }

    #[test]
    fn nested_loops_terminate() {
        let p = Shape::loop_(5, Shape::loop_(5, Shape::loop_(5, Shape::code(3)))).compile("n");
        let r = sim(BranchBehavior::WorstLike).run(&p).unwrap();
        assert!(r.instr_executed > 0);
    }
}
