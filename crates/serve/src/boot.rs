//! Daemon bootstrap shared by the `rtpfd` binary and `rtpf serve`:
//! flag parsing, bind, port-file publication, and the serve loop.

use crate::{Daemon, DaemonConfig};

/// Flag summary for `--help` and error messages.
pub const SERVE_USAGE: &str = "[--addr HOST:PORT] [--workers N] [--queue N]\n\
     \x20 [--max-bytes N] [--shards N] [--port-file PATH]";

/// Parses the daemon flag set (everything after the binary/subcommand
/// name). Returns the configuration plus the `--port-file` path.
///
/// # Errors
///
/// A usage-style message for unknown flags, missing values, or
/// unparsable numbers (also for `--help`, carrying the usage text).
pub fn parse_serve_args(args: &[String]) -> Result<(DaemonConfig, Option<String>), String> {
    let mut config = DaemonConfig::default();
    let mut port_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(SERVE_USAGE.to_string());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{SERVE_USAGE}"))?;
        let num = |v: &str| -> Result<u64, String> {
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--workers" => config.workers = num(value)? as usize,
            "--queue" => config.queue = num(value)? as usize,
            "--max-bytes" => config.store.max_bytes = Some(num(value)?),
            "--shards" => config.store.shards = num(value)? as usize,
            "--port-file" => port_file = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{SERVE_USAGE}")),
        }
    }
    Ok((config, port_file))
}

/// Parses `args`, binds, publishes the bound address to the port file
/// (when asked), and serves until a `POST /shutdown` drains the daemon.
/// Status lines go to stderr; the connection loop owns stdout-free.
///
/// # Errors
///
/// Usage problems, bind failures, and I/O failures, pre-rendered for
/// the caller to print and turn into a nonzero exit.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let (config, port_file) = parse_serve_args(args)?;
    let daemon = Daemon::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = daemon.local_addr();
    if let Some(path) = port_file {
        std::fs::write(&path, addr.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("rtpfd: serving on {addr}");
    daemon.run().map_err(|e| e.to_string())?;
    eprintln!("rtpfd: drained, bye");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_flag_set() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:7070",
            "--workers",
            "8",
            "--queue",
            "64",
            "--max-bytes",
            "1048576",
            "--shards",
            "4",
            "--port-file",
            "/tmp/p",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (config, port_file) = parse_serve_args(&args).expect("parses");
        assert_eq!(config.addr, "0.0.0.0:7070");
        assert_eq!((config.workers, config.queue), (8, 64));
        assert_eq!(config.store.max_bytes, Some(1_048_576));
        assert_eq!(config.store.shards, 4);
        assert_eq!(port_file.as_deref(), Some("/tmp/p"));
    }

    #[test]
    fn rejects_bad_flags() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_serve_args(&s(&["--warp"])).is_err());
        assert!(parse_serve_args(&s(&["--workers"])).is_err());
        assert!(parse_serve_args(&s(&["--workers", "many"])).is_err());
        assert!(parse_serve_args(&s(&["--store-dir", "/tmp/s"])).is_err());
    }
}
