//! The seeded input generators: determinism, seed sensitivity, the
//! shape of the `serve` stream, and the fixed shapes of each pass.

use std::collections::HashMap;

use rtpf_cache::ReplacementPolicy;
use rtpf_engine::ServiceOp;
use rtpf_perfbench::gen::{self, Rng};

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_other_ones() {
    let suite = rtpf_suite::catalog();
    let fifo = gen::sweep_units(&suite, ReplacementPolicy::Fifo, None, 7);
    assert_eq!(
        fifo,
        gen::sweep_units(&suite, ReplacementPolicy::Fifo, None, 7)
    );
    assert_ne!(
        fifo,
        gen::sweep_units(&suite, ReplacementPolicy::Fifo, None, 8)
    );
    // The LRU grid is the paper's batch job in Table 2 order; its seed is
    // unused.
    assert_eq!(
        gen::sweep_units(&suite, ReplacementPolicy::Lru, None, 7),
        gen::sweep_units(&suite, ReplacementPolicy::Lru, None, 8)
    );
    let v = gen::verdict_samples(&suite, None, 7);
    assert_eq!(v, gen::verdict_samples(&suite, None, 7));
    assert_ne!(v, gen::verdict_samples(&suite, None, 8));
    let s = gen::serve_stream(37, 10, 7);
    assert_eq!(s, gen::serve_stream(37, 10, 7));
    assert_ne!(s, gen::serve_stream(37, 10, 8));
}

#[test]
fn seeds_reorder_sweeps_and_verdicts_without_changing_their_work() {
    let suite = rtpf_suite::catalog();
    let key = |p: usize, k: &str| (p, k.to_string());
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let mut a: Vec<_> = gen::sweep_units(&suite, policy, None, 1)
            .iter()
            .map(|u| key(u.program, &u.k))
            .collect();
        let mut b: Vec<_> = gen::sweep_units(&suite, policy, None, 2)
            .iter()
            .map(|u| key(u.program, &u.k))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
    let set = |seed| {
        let mut v: Vec<_> = gen::verdict_samples(&suite, None, seed)
            .iter()
            .map(|s| (s.program, s.k.clone(), s.l2))
            .collect();
        v.sort();
        v
    };
    assert_eq!(set(1), set(2));
}

#[test]
fn pass_shapes_match_the_workload_table() {
    let suite = rtpf_suite::catalog();
    assert_eq!(
        gen::sweep_units(&suite, ReplacementPolicy::Lru, None, 1).len(),
        37 * 36
    );

    // The FIFO third: every program at 12 configurations, four of each
    // associativity, one per (capacity, block) group.
    let fifo = gen::sweep_units(&suite, ReplacementPolicy::Fifo, None, 1);
    assert_eq!(fifo.len(), 444);
    let mut per_program: HashMap<usize, Vec<u32>> = HashMap::new();
    for u in &fifo {
        per_program
            .entry(u.program)
            .or_default()
            .push(u.config.assoc());
    }
    assert_eq!(per_program.len(), 37);
    for assocs in per_program.values() {
        for a in [1, 2, 4] {
            assert_eq!(assocs.iter().filter(|&&x| x == a).count(), 4);
        }
    }

    // Largest programs first, so the grid's tail holds the smallest units.
    let sizes: Vec<usize> = fifo
        .iter()
        .map(|u| suite[u.program].program.instr_count())
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] >= w[1]));

    let verdict = gen::verdict_samples(&suite, None, 1);
    assert_eq!(verdict.len(), 222);
    assert!(verdict.iter().any(|s| s.l2));
    assert!(verdict
        .iter()
        .all(|s| !s.l2 || s.config.block_bytes() == gen::verdict_l2().block_bytes()));
    assert_eq!(gen::verdict_space(&suite).len(), 37 * (36 + 18));
    assert_eq!(gen::serve_programs(&suite, None).len(), 37);
}

#[test]
fn the_serve_stream_is_the_loadgen_list_in_seeded_copies() {
    let programs = 37;
    let copies = 5;
    let stream = gen::serve_stream(programs, copies, 3);
    assert_eq!(stream.len(), programs * 4 * copies);
    let sorted = |items: &[(ServiceOp, usize)]| {
        let mut v: Vec<(&str, usize)> = items.iter().map(|&(op, p)| (op.name(), p)).collect();
        v.sort_unstable();
        v
    };
    let list: Vec<(ServiceOp, usize)> = (0..programs)
        .flat_map(|p| gen::SERVE_OPS.map(|op| (op, p)))
        .collect();
    // Every copy holds each operation on each program exactly once, so
    // the first copy computes every artifact and the rest hit the store.
    for copy in stream.chunks(list.len()) {
        assert_eq!(sorted(copy), sorted(&list));
    }
    assert_ne!(stream[..list.len()], stream[list.len()..2 * list.len()]);
    assert_eq!(gen::SERVE_CACHE, "2:16:512");
}

#[test]
fn shuffles_are_permutations() {
    let mut v: Vec<u32> = (0..1000).collect();
    Rng::new(9).shuffle(&mut v);
    assert_ne!(v, (0..1000).collect::<Vec<_>>());
    v.sort_unstable();
    assert_eq!(v, (0..1000).collect::<Vec<_>>());
}
