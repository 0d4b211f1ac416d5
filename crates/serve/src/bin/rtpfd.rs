//! `rtpfd` — the analysis-as-a-service daemon.
//!
//! ```text
//! rtpfd [--addr HOST:PORT] [--workers N] [--queue N]
//!       [--max-bytes N] [--shards N] [--port-file PATH]
//! ```
//!
//! Binds (port 0 picks an ephemeral port), optionally writes the bound
//! address to `--port-file` (how CI discovers the port), serves until a
//! `POST /shutdown`, drains, and exits 0. `rtpf serve` is the same
//! entry point behind the main CLI; both delegate to
//! [`rtpf_serve::serve_main`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rtpf_serve::serve_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(m) => {
            eprintln!("rtpfd: {m}");
            ExitCode::FAILURE
        }
    }
}
