//! The reverse analysis: detecting prefetch opportunities (Algorithm 1).
//!
//! The paper's optimizer visits references in **reverse execution order**
//! (the `ACFG*`), starting from an all-invalid state at the sink, and
//! applies the cache update function to the reversed reference string.
//! The resulting state at each point holds the blocks whose next *forward*
//! use is nearest — a near-future-reuse window. When visiting `r_i`
//! "replaces" a block `s'` in this reverse state (Property 3 read
//! backwards), block `s'` is needed soon after `r_i` but will not survive
//! demand fetching — whether because it gets evicted (conflict miss) or
//! was never loaded (cold miss). That is precisely a prefetch opportunity:
//! insert `π_{s'}` at `(r_i, r_{i+1})` and the fetch latency overlaps the
//! intervening work.
//!
//! At reverse-merge points (forward branch points) the state of the
//! outgoing edge on the WCET path wins, mirroring the `J_SE` join
//! (Algorithm 2).

use rtpf_cache::ConcreteState;
use rtpf_isa::{InstrKind, MemBlockId, Program};
use rtpf_wcet::{RefId, WcetAnalysis};

/// A detected opportunity: the near-future block `evicted` conflicts at
/// `r_i` and deserves a prefetch at `(r_i, r_{i+1})`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// The reference whose (reverse) update displaces the block (the
    /// paper's `r_i`; the prefetch is inserted at `(r_i, r_{i+1})`).
    pub r_i: RefId,
    /// The displaced near-future block (the paper's `s'`).
    pub evicted: MemBlockId,
}

/// How reverse-merge states are joined.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JoinPolicy {
    /// The paper's `J_SE`: the successor on the WCET path wins.
    #[default]
    WcetPath,
    /// Conventional deterministic choice (first successor), ignoring the
    /// WCET path — the `ablation_join` benchmark's strawman.
    FirstSucc,
}

/// Runs the reverse sweep and returns every opportunity, in forward
/// execution (topological) order. Uses the paper's `J_SE` join.
pub fn scan(p: &Program, a: &WcetAnalysis) -> Vec<Candidate> {
    scan_with_join(p, a, JoinPolicy::WcetPath)
}

/// [`scan`] with an explicit join policy (for ablation studies).
pub fn scan_with_join(p: &Program, a: &WcetAnalysis, policy: JoinPolicy) -> Vec<Candidate> {
    let vivu = a.vivu();
    let acfg = a.acfg();
    let config = a.config();
    let block_bytes = config.block_bytes();
    // Reverse out-state per node: the state *before* the node's first
    // reference, built by walking the node's references backwards.
    let mut rev_out: Vec<Option<ConcreteState>> = vec![None; vivu.len()];
    // Forward predecessors yet to visit per node: the last one moves the
    // state instead of cloning it, or drops it if it chose another.
    let mut readers = vec![0u32; vivu.len()];
    for &n in vivu.topo() {
        for &s in vivu.succs(n) {
            readers[s.index()] += 1;
        }
    }
    let mut found = Vec::new();

    for &n in vivu.topo().iter().rev() {
        // Reverse J_SE: prefer the forward successor on the WCET path.
        let succs = vivu.succs(n);
        let preferred = match policy {
            JoinPolicy::WcetPath => succs.iter().find(|&&s| a.node_on_wcet_path(s)),
            JoinPolicy::FirstSucc => None,
        };
        let mut state = match preferred.or_else(|| succs.first()) {
            Some(&s) if readers[s.index()] == 1 => rev_out[s.index()].take(),
            Some(&s) => rev_out[s.index()].clone(),
            None => None,
        }
        .unwrap_or_else(|| ConcreteState::new(config)); // the sink's ĉ_I
        for &s in succs {
            readers[s.index()] -= 1;
            if readers[s.index()] == 0 {
                rev_out[s.index()] = None;
            }
        }

        for &r in acfg.refs_of_node(n).iter().rev() {
            let reference = acfg.reference(r);
            // A prefetch instruction announces a future use of its target.
            if let InstrKind::Prefetch { target } = p.instr(reference.instr).kind {
                let tb = a.layout().block_of(target, block_bytes);
                state.access(tb);
            }
            if let Some(evicted) = state.access(a.mem_block(r)).evicted() {
                found.push(Candidate { r_i: r, evicted });
            }
        }
        rev_out[n.index()] = Some(state);
    }
    found.reverse();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_cache::{CacheConfig, MemTiming};
    use rtpf_isa::shape::Shape;

    fn analyze(shape: Shape, config: CacheConfig) -> (Program, WcetAnalysis) {
        let p = shape.compile("t");
        let a = WcetAnalysis::analyze(&p, &config, &MemTiming::default()).unwrap();
        (p, a)
    }

    #[test]
    fn no_opportunities_in_a_roomy_cache() {
        let (p, a) = analyze(Shape::code(16), CacheConfig::new(4, 16, 1024).unwrap());
        assert!(scan(&p, &a).is_empty());
    }

    #[test]
    fn sequential_code_beyond_capacity_offers_streaming_prefetches() {
        // 64 instrs = 256 B of straight-line code through a 32 B cache:
        // cold misses downstream are conflict points in the reverse state.
        let (p, a) = analyze(Shape::code(64), CacheConfig::new(1, 16, 32).unwrap());
        let c = scan(&p, &a);
        assert!(!c.is_empty());
        for cand in &c {
            assert_ne!(a.mem_block(cand.r_i), cand.evicted);
        }
    }

    #[test]
    fn displaced_block_is_used_downstream() {
        // The reverse state only holds future-used blocks, so every
        // candidate's block must be referenced after r_i in the ACFG.
        let (_, a) = analyze(Shape::code(64), CacheConfig::new(1, 16, 32).unwrap());
        let c = scan(&Shape::code(64).compile("t"), &a);
        // Reference ids are allocated in topological order.
        for cand in &c {
            let after_use = a
                .acfg()
                .refs()
                .iter()
                .any(|r| r.id > cand.r_i && a.mem_block(r.id) == cand.evicted);
            assert!(
                after_use,
                "candidate block {} has no future use",
                cand.evicted
            );
        }
    }

    #[test]
    fn thrashing_loop_reports_opportunities() {
        let (p, a) = analyze(
            Shape::loop_(10, Shape::code(40)),
            CacheConfig::new(1, 16, 64).unwrap(),
        );
        let c = scan(&p, &a);
        assert!(c.len() > 4);
    }

    /// Figure 2: at a conditional join the `J_SE` function propagates the
    /// state of the entering edge on the WCET path, not the conventional
    /// intersection.
    #[test]
    fn figure2_join() {
        use crate::candidates::JoinPolicy;
        // A diamond whose heavy arm (on the WCET path) touches different
        // blocks than the light arm, followed by reuse of early code.
        let shape = Shape::seq([
            Shape::code(8),
            Shape::loop_(
                6,
                Shape::seq([
                    Shape::if_else(1, Shape::code(24), Shape::code(4)),
                    Shape::code(6),
                ]),
            ),
        ]);
        let (p, a) = analyze(shape, CacheConfig::new(1, 16, 128).unwrap());
        let jse = scan_with_join(&p, &a, JoinPolicy::WcetPath);
        // With J_SE, states at the loop-body join reflect the heavy arm —
        // so every candidate's r_i with a choice lies on the WCET path.
        let on_path = jse.iter().filter(|c| a.on_wcet_path(c.r_i)).count();
        assert!(
            on_path * 2 >= jse.len(),
            "J_SE should keep most detections on the WCET path: {on_path}/{}",
            jse.len()
        );
        // The policy is exercised (both run without error; results may or
        // may not coincide depending on the layout).
        let first = scan_with_join(&p, &a, JoinPolicy::FirstSucc);
        assert!(!first.is_empty() || jse.is_empty());
    }

    #[test]
    fn candidates_are_in_topological_order() {
        let (p, a) = analyze(Shape::code(64), CacheConfig::new(1, 16, 32).unwrap());
        let c = scan(&p, &a);
        // Reference ids are allocated in topological order.
        for w in c.windows(2) {
            assert!(w[0].r_i <= w[1].r_i);
        }
    }
}
