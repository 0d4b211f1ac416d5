//! Golden pin of the trace simulator's counters.
//!
//! For a spread of suite programs, each with and without software
//! prefetches, the simulator runs under LRU, FIFO and tree-PLRU at a
//! capacity `C`, `C/2` and `C/4`, with both branch behaviours, L1-only
//! and over an L2, plain, with a few blocks locked, and with a next-line
//! hardware prefetcher. Every [`SimResult`] field except `prefetch_useful`
//! (pinned by the engine's unit tests) must match `sim_golden.csv`,
//! recorded before the concrete cache model moved to its flat set-major
//! layout.
//!
//! On a mismatch the freshly computed table is written next to the test
//! binaries (`CARGO_TARGET_TMPDIR`) for diffing.

use rtpf_cache::{CacheConfig, HierarchyConfig, MemTiming, ReplacementPolicy};
use rtpf_isa::{InstrKind, Layout, MemBlockId, Program};
use rtpf_sim::{BranchBehavior, HwPrefetcher, LockedContents, SimConfig, SimResult, Simulator};

const GOLDEN: &str = include_str!("sim_golden.csv");

/// Small to mid-sized suite programs: straight-line code, single loops,
/// nests and branchy state machines.
const PROGRAMS: [&str; 6] = ["bs", "cnt", "fibcall", "expint", "cover", "fft1"];

/// The same program with a software prefetch at the head of every block
/// that has successors, targeting the first instruction of its last
/// successor.
fn with_prefetches(p: &Program) -> Program {
    let mut q = p.clone();
    let sites: Vec<_> = p
        .block_ids()
        .filter_map(|b| {
            let &(s, _) = p.succs(b).last()?;
            Some((b, *p.block(s).instrs().first()?))
        })
        .collect();
    for (b, target) in sites {
        q.insert_instr(b, 0, InstrKind::Prefetch { target })
            .expect("valid insertion point");
    }
    q
}

/// Next-line on every demand miss; on a control transfer, the target when
/// taken and the line two past the branch otherwise (so the branch
/// address and edge kind the walk reports are pinned too).
struct NextLine;

impl HwPrefetcher for NextLine {
    fn on_fetch(&mut self, _addr: u64, block: MemBlockId, was_miss: bool) -> Vec<MemBlockId> {
        if was_miss {
            vec![MemBlockId(block.0 + 1)]
        } else {
            Vec::new()
        }
    }

    fn on_branch(&mut self, branch_addr: u64, target: MemBlockId, taken: bool) -> Vec<MemBlockId> {
        if taken {
            vec![target]
        } else {
            vec![MemBlockId((branch_addr >> 4) + 2)]
        }
    }
}

fn sim_config(behavior: BranchBehavior) -> SimConfig {
    SimConfig {
        behavior,
        seed: 11,
        runs: 2,
        max_fetches: 2_000_000,
    }
}

fn row(out: &mut String, case: &str, r: &SimResult) {
    let s = &r.stats;
    out.push_str(&format!(
        "{case},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
        s.accesses,
        s.hits,
        s.misses,
        s.fills,
        s.cycles,
        s.l2_accesses,
        s.l2_hits,
        s.l2_misses,
        s.l2_fills,
        r.runs,
        r.instr_executed,
        r.prefetches_issued,
        r.stall_cycles,
    ));
}

fn render() -> String {
    let mut out = String::from(
        "program,variant,policy,capacity,behavior,mode,accesses,hits,misses,fills,cycles,\
         l2_accesses,l2_hits,l2_misses,l2_fills,runs,instr_executed,prefetches_issued,stall_cycles\n",
    );
    let timing = MemTiming::default();
    let base = CacheConfig::new(2, 16, 1024).expect("valid geometry");
    for name in PROGRAMS {
        let orig = rtpf_suite::by_name(name).expect("suite program").program;
        let pf = with_prefetches(&orig);
        for (variant, p) in [("orig", &orig), ("pf", &pf)] {
            for policy in ReplacementPolicy::ALL {
                let full = base.with_policy(policy).expect("policy supported");
                for div in [1, 2, 4] {
                    let l1 = full.shrink(div).expect("shrunk geometry");
                    for behavior in [BranchBehavior::WorstLike, BranchBehavior::Random] {
                        let s = Simulator::new(l1, timing, sim_config(behavior));
                        let case = format!(
                            "{name},{variant},{policy},{},{behavior:?}",
                            l1.capacity_bytes()
                        );
                        let plain = s.run(p).expect("simulates");
                        row(&mut out, &format!("{case},plain"), &plain);
                        if div == 2 {
                            let hw = s.run_hw(p, || Box::new(NextLine)).expect("simulates");
                            row(&mut out, &format!("{case},hw"), &hw);
                        }
                    }
                }
                // Over an L2, and locked L1s in front of it.
                let l1 = full.shrink(4).expect("shrunk geometry");
                let l2 = CacheConfig::new(4, 16, 4096)
                    .and_then(|c| c.with_policy(policy))
                    .expect("valid L2");
                let h = HierarchyConfig::two_level(l1, l2).expect("valid hierarchy");
                let s = Simulator::new_hierarchy(
                    h,
                    timing.with_l2_hit(6),
                    sim_config(BranchBehavior::Random),
                );
                let case = format!("{name},{variant},{policy},{},Random", l1.capacity_bytes());
                row(
                    &mut out,
                    &format!("{case},l2"),
                    &s.run(p).expect("simulates"),
                );
                let hw = s.run_hw(p, || Box::new(NextLine)).expect("simulates");
                row(&mut out, &format!("{case},l2-hw"), &hw);
                let layout = Layout::of(p);
                let locked = LockedContents::new(
                    p.block_ids()
                        .step_by(3)
                        .filter_map(|b| p.block(b).instrs().first())
                        .map(|&i| layout.block_of(i, l1.block_bytes()))
                        .take(8),
                );
                let lk = s.run_locked(p, &locked).expect("simulates");
                row(&mut out, &format!("{case},l2-locked"), &lk);
                let l1s = Simulator::new(l1, timing, sim_config(BranchBehavior::WorstLike));
                let lk = l1s.run_locked(p, &locked).expect("simulates");
                row(
                    &mut out,
                    &format!(
                        "{name},{variant},{policy},{},WorstLike,locked",
                        l1.capacity_bytes()
                    ),
                    &lk,
                );
            }
        }
    }
    out
}

#[test]
fn simulated_counters_match_the_golden_table() {
    let got = render();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_golden.csv");
        std::fs::write(&path, &got).expect("write actual table");
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("got  {g}\nwant {w}"))
            .unwrap_or_else(|| "row count differs".to_string());
        panic!(
            "simulated counters diverged from sim_golden.csv (actual table: {}):\n{first}",
            path.display()
        );
    }
}
