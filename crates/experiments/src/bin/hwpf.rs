//! Extension experiment (paper §2 / reference \[22\]): hardware next-line
//! prefetching vs. the paper's software insertion, on both axes that
//! matter to a real-time engineer:
//!
//! * **average case** — simulated ACET with a real next-line prefetcher
//!   (latency modelled, pollution included);
//! * **worst case** — the WCET bound. For hardware prefetching the bound
//!   shown uses the idealized next-line abstract semantics of \[22\]
//!   (prefetch always completes in time), i.e. it is a *best case for
//!   hardware*; the software technique's bound is fully guaranteed
//!   (Theorem 1) and needs no timing leap of faith.

use rtpf_baselines::hw::{simulate_hw, HwScheme};
use rtpf_energy::{EnergyModel, Technology};
use rtpf_engine::EngineConfig;
use rtpf_experiments::optimize_with_condition3;
use rtpf_sim::Simulator;
use rtpf_wcet::WcetAnalysis;

fn main() {
    let programs = ["fft1", "compress", "ndes", "jfdctint", "edn", "adpcm"];
    let config = EngineConfig::geometry(2, 16, 512).expect("valid");
    let timing = EnergyModel::new(&config, Technology::Nm45).timing();
    let sim_config = || EngineConfig::evaluation(config).sim_config();
    println!("Hardware next-line vs software prefetch insertion on {config}\n");
    println!(
        "{:<10} {:>11} {:>11} {:>11} | {:>10} {:>12} {:>10}",
        "program", "base ACET", "hw ACET", "sw ACET", "base WCET", "hw WCET*", "sw WCET"
    );

    for name in programs {
        let b = rtpf_suite::by_name(name).expect("known");
        let sim = Simulator::new(config, timing, sim_config());

        let base_run = sim.run(&b.program).expect("simulates");
        let base_wcet = WcetAnalysis::analyze(&b.program, &config, &timing)
            .expect("analyzes")
            .tau_w();

        let hw_run = simulate_hw(
            &b.program,
            config,
            timing,
            sim_config(),
            HwScheme::NextLine { n: 1 },
        )
        .expect("simulates");
        let hw_wcet = WcetAnalysis::analyze_with_hw_next_line(&b.program, &config, &timing, 1)
            .expect("analyzes")
            .tau_w();

        let gated = optimize_with_condition3(&b.program, config);
        let opt = gated.opt;
        let sw_run = gated.sim_opt;

        println!(
            "{:<10} {:>11.0} {:>11.0} {:>11.0} | {:>10} {:>12} {:>10}",
            name,
            base_run.acet_cycles(),
            hw_run.acet_cycles(),
            sw_run.acet_cycles(),
            base_wcet,
            hw_wcet,
            opt.report.wcet_after,
        );
    }
    println!("\n* hw WCET assumes ideal prefetch timing (reference [22] semantics);");
    println!("  no hardware guarantees it, which is the paper's §2 argument for");
    println!("  software insertion: sw WCET is a sound bound (Theorem 1).");
}
