//! Golden pin of the `rtpf analyze/optimize/simulate` text output.
//!
//! Each case runs one command line through `rtpf_cli::run` and compares
//! the exact output — or `error: ` plus the `Display` of the error — with
//! `tests/golden/<case>.txt`. On a mismatch the actual text is written
//! next to the test binaries (`CARGO_TARGET_TMPDIR/golden/<case>.txt`)
//! for diffing.

use std::path::PathBuf;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `line` (whitespace-separated arguments; `{examples}` expands to
/// the repository's `examples/` directory) and renders the outcome.
fn render(line: &str) -> String {
    let examples = manifest_dir().join("../../examples");
    let args: Vec<String> = line
        .split_whitespace()
        .map(|a| a.replace("{examples}", &examples.display().to_string()))
        .collect();
    match rtpf_cli::Options::parse(&args).and_then(|o| rtpf_cli::run(&o)) {
        Ok(out) => out,
        Err(e) => format!("error: {e}\n"),
    }
}

fn check(case: &str, line: &str) {
    let actual = render(line);
    let path = manifest_dir()
        .join("tests/golden")
        .join(format!("{case}.txt"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&dir).expect("create golden output dir");
        let out = dir.join(format!("{case}.txt"));
        std::fs::write(&out, &actual).expect("write actual output");
        panic!(
            "`rtpf {line}` differs from {}; actual output written to {}:\n{actual}",
            path.display(),
            out.display()
        );
    }
}

#[test]
fn analyze_lru() {
    check("analyze_bs", "analyze suite:bs --cache 2,16,512");
}

#[test]
fn analyze_fifo_prints_refinement() {
    check(
        "analyze_fft1_fifo",
        "analyze suite:fft1 --cache 2,16,512 --policy fifo",
    );
}

#[test]
fn analyze_a_task_file() {
    check(
        "analyze_compress_mini_plru",
        "analyze {examples}/tasks/compress_mini.rtpf --cache 4,16,1024 --policy plru --penalty 30",
    );
}

#[test]
fn analyze_two_level() {
    check(
        "analyze_bs_l2",
        "analyze suite:bs --cache 2,16,512 --l2 4:16:8192",
    );
}

#[test]
fn optimize_verbose_prints_placements() {
    check(
        "optimize_crc_verbose",
        "optimize suite:crc --cache 2,16,512 --rounds 2 -v",
    );
}

#[test]
fn optimize_two_level() {
    check(
        "optimize_crc_l2",
        "optimize suite:crc --cache 2,16,512 --l2 8:16:16384 --rounds 2",
    );
}

#[test]
fn simulate_one_run() {
    check("simulate_bs", "simulate suite:bs --cache 2,16,512 --runs 1");
}

#[test]
fn simulate_two_level_random() {
    check(
        "simulate_fft1_l2_random",
        "simulate suite:fft1 --cache 2,16,512 --l2 4:16:8192 --behavior random --seed 7 --runs 2",
    );
}

#[test]
fn unknown_suite_program() {
    check("error_unknown_suite", "analyze suite:doom --cache 2,16,512");
}

#[test]
fn invalid_geometry() {
    check("error_bad_geometry", "analyze suite:bs --cache 3,16,512");
}

#[test]
fn non_monotone_l2() {
    check(
        "error_non_monotone_l2",
        "analyze suite:bs --cache 2,16,512 --l2 4:16:512",
    );
}

#[test]
fn missing_cache() {
    check("error_missing_cache", "analyze suite:bs");
}
