//! The `rtpf` binary's exit status for argument errors: a flag the parser
//! does not know is a usage error, which exits 2 before any work starts.

use std::process::Command;

#[test]
fn the_retired_threads_flag_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_rtpf"))
        .args(["sweep", "suite:fft1", "--threads", "4"])
        .output()
        .expect("rtpf runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown flag --threads\n"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
}
