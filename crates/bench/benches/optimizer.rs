//! End-to-end optimizer runtime across program sizes — the practical
//! check on the paper's O(|R|²) complexity claim (Supplement S.1).

use criterion::{criterion_group, criterion_main, Criterion};

use rtpf_core::Optimizer;
use rtpf_engine::EngineConfig;

fn bench_optimize(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer");
    g.sample_size(10);
    for (name, capacity) in [
        ("crc", 512u32),
        ("fft1", 512),
        ("compress", 1024),
        ("ndes", 1024),
    ] {
        let b = rtpf_suite::by_name(name).expect("known");
        let config = EngineConfig::geometry(2, 16, capacity).expect("valid");
        // The CLI sweep profile (4 rounds, 8 singles) with the classic
        // 20-cycle miss penalty.
        let params = EngineConfig::cli_sweep(config)
            .with_penalty(20)
            .optimize_params(b.program.instr_count());
        g.bench_function(
            format!("{name}/{}_instrs", b.program.instr_count()),
            |bench| {
                bench.iter(|| {
                    Optimizer::new(config, params)
                        .run(&b.program)
                        .expect("optimizes")
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_optimize);
criterion_main!(benches);
