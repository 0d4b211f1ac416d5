//! Result-quality ablations of the design choices DESIGN.md calls out:
//!
//! 1. effectiveness check on/off — does ignoring the latency window (the
//!    WCET-only prior work, paper ref \[5\]) change the outcome?
//! 2. `J_SE` WCET-path join vs. a conventional first-successor join in
//!    the reverse analysis — how many useful candidates does each see?
//! 3. single optimization round vs. iterating to a fixpoint.
//!
//! Each knob setting is its own [`Engine`]; all engines share one
//! artifact store, so e.g. the analysis ablation 2 pulls is computed once
//! no matter how many engines ask for it.

use std::sync::Arc;

use rtpf_core::{candidates, JoinPolicy};
use rtpf_engine::{ArtifactStore, Engine, EngineConfig};

fn main() {
    let programs = ["crc", "fft1", "compress", "ndes", "whet"];
    let config = EngineConfig::geometry(2, 16, 512).expect("valid");
    let base = EngineConfig::interactive(config);
    let store = Arc::new(ArtifactStore::in_memory());
    let engine = |cfg: EngineConfig| Engine::with_store(cfg, Arc::clone(&store));

    println!("== ablation 1: effectiveness condition (Definition 10) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>9} {:>9}",
        "program", "wcet_on", "wcet_off", "ins_on", "ins_off"
    );
    let eng_on = engine(base.clone());
    let eng_off = engine(base.clone().with_check_effectiveness(false));
    for name in programs {
        let b = rtpf_suite::by_name(name).expect("known");
        let on = eng_on.optimized(&b.program).expect("optimizes").report;
        let off = eng_off.optimized(&b.program).expect("optimizes").report;
        println!(
            "{:<10} {:>14} {:>14} {:>9} {:>9}",
            name, on.wcet_after, off.wcet_after, on.inserted, off.inserted
        );
    }
    println!(
        "(identical outcomes mean the end-to-end verifier caught every\n\
         ineffective insertion the filter would have skipped; the filter's\n\
         value is avoiding that wasted verification work up front)"
    );

    println!("\n== ablation 2: reverse-analysis join (J_SE vs first-successor) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>16}",
        "program", "cands_jse", "cands_first", "on-path (jse)"
    );
    for name in programs {
        let b = rtpf_suite::by_name(name).expect("known");
        let a = eng_on.analysis(&b.program).expect("analyzes");
        let jse = candidates::scan_with_join(&b.program, &a, JoinPolicy::WcetPath);
        let first = candidates::scan_with_join(&b.program, &a, JoinPolicy::FirstSucc);
        let on_path = jse.iter().filter(|c| a.on_wcet_path(c.r_i)).count();
        println!(
            "{:<10} {:>12} {:>12} {:>16}",
            name,
            jse.len(),
            first.len(),
            on_path
        );
    }

    println!("\n== ablation 3: single round vs iterative improvement ==");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "program", "wcet_orig", "wcet_1round", "wcet_fixpoint"
    );
    let eng_one = engine(base.clone().with_rounds(1));
    let eng_fix = engine(base.clone().with_rounds(12));
    for name in programs {
        let b = rtpf_suite::by_name(name).expect("known");
        let one = eng_one.optimized(&b.program).expect("optimizes").report;
        let fixed = eng_fix.optimized(&b.program).expect("optimizes").report;
        println!(
            "{:<10} {:>14} {:>14} {:>14}",
            name, one.wcet_before, one.wcet_after, fixed.wcet_after
        );
        assert!(fixed.wcet_after <= one.wcet_after);
    }
}
