//! Concurrent load generator for `rtpfd`.
//!
//! Drives a daemon (an in-process one by default, or an external one via
//! `--addr`/`--port-file`) with a *mixed* workload — every service
//! operation (analyze / optimize / audit / simulate) across a program ×
//! configuration grid — from many concurrent clients, twice:
//!
//! * **cold**: the first pass computes every artifact. The `/metrics`
//!   miss delta must not exceed the number of distinct artifacts the
//!   workload can produce — concurrent duplicates of an in-flight key
//!   must coalesce, never recompute (the single-flight guarantee, as an
//!   exact counter assertion).
//! * **warm**: the second pass must be served entirely from the store
//!   (miss delta exactly zero).
//!
//! Both passes print wall-clock, requests/s, and p50/p99 latency, followed
//! by the store's hit/miss/coalesce counters. These are single-run figures
//! for a quick look; the repeated, seeded measurement of the same request
//! list is `perfbench`'s `serve` workload (see `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release -p rtpf-serve --bin loadgen                # full, 1000 clients
//! cargo run --release -p rtpf-serve --bin loadgen -- --smoke     # 3 programs, 64 clients
//! loadgen --port-file /tmp/rtpfd.port --smoke --shutdown        # CI rtpfd-smoke
//! ```

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rtpf_engine::{ConfigSpec, ProgramSource, ServiceOp, ServiceRequest};
use rtpf_serve::http::request as http_request;
use rtpf_serve::json::Value;
use rtpf_serve::{encode_request, Daemon, DaemonConfig};

const FULL_CLIENTS: usize = 1000;
const SMOKE_CLIENTS: usize = 64;
/// A small, a medium and a large suite program.
const SMOKE_PROGRAMS: [&str; 3] = ["bs", "fft1", "statemate"];
const TIMEOUT: Duration = Duration::from_secs(300);

/// The mixed workload: every op × program × configuration unit.
fn workload(smoke: bool) -> Vec<ServiceRequest> {
    let programs: Vec<&str> = if smoke {
        SMOKE_PROGRAMS.to_vec()
    } else {
        rtpf_suite::catalog().iter().map(|b| b.name).collect()
    };
    // One representative Table 2 geometry; the grid axis the daemon is
    // being benched on is concurrency, not configuration count.
    let caches = ["2:16:512"];
    let mut reqs = Vec::new();
    for program in &programs {
        for cache in &caches {
            for op in [
                ServiceOp::Analyze,
                ServiceOp::Optimize,
                ServiceOp::Audit,
                ServiceOp::Simulate,
            ] {
                reqs.push(ServiceRequest {
                    op,
                    program: ProgramSource::Spec(format!("suite:{program}")),
                    config: ConfigSpec {
                        cache: cache.to_string(),
                        ..ConfigSpec::default()
                    },
                });
            }
        }
    }
    reqs
}

/// Distinct store computations the workload can cause, at most once
/// each: per (program, configuration) — one Analyze artifact (shared by
/// `analyze` and `audit`), one Optimize + one Verify (the `optimize`
/// op), one Simulate. Suite programs load without a Parse artifact.
fn expected_misses(distinct_units: usize) -> u64 {
    distinct_units as u64 * 4
}

struct PhaseRecord {
    wall_ms: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

struct Target {
    addr: String,
    /// The in-process daemon's thread, when loadgen owns the daemon.
    daemon: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

struct Metrics {
    hits: u64,
    misses: u64,
    coalesced: u64,
}

impl Target {
    fn metrics(&self) -> Metrics {
        let resp = http_request(self.addr.as_str(), "/metrics", None, TIMEOUT)
            .expect("/metrics reachable");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = Value::parse(&resp.body).expect("metrics json parses");
        let store = doc.get("store").expect("metrics carries a store section");
        let n = |k: &str| store.get(k).and_then(Value::as_u64).expect("counter");
        Metrics {
            hits: n("hits"),
            misses: n("misses"),
            coalesced: n("coalesced"),
        }
    }

    fn shutdown(self) {
        let resp = http_request(self.addr.as_str(), "/shutdown", Some("{}"), TIMEOUT)
            .expect("/shutdown reachable");
        assert_eq!(resp.status, 200, "{}", resp.body);
        if let Some(thread) = self.daemon {
            thread
                .join()
                .expect("daemon thread joins")
                .expect("daemon drains cleanly");
        }
    }
}

/// Fires the whole request list from `clients` concurrent client
/// threads (small stacks — a thousand clients is the point, not a
/// thousand megabytes), returning the latency record.
fn run_phase(addr: &str, requests: &[(String, String)], clients: usize) -> PhaseRecord {
    let requests = Arc::new(requests.to_vec());
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(requests.len())));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let addr = Arc::new(addr.to_string());

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let requests = Arc::clone(&requests);
            let latencies = Arc::clone(&latencies);
            let barrier = Arc::clone(&barrier);
            let addr = Arc::clone(&addr);
            std::thread::Builder::new()
                .name(format!("loadgen-{c}"))
                .stack_size(128 * 1024)
                .spawn(move || {
                    barrier.wait();
                    let mut mine = Vec::new();
                    // Client c serves every c-th request: all clients in
                    // flight together, each on its own connections.
                    for (path, body) in requests.iter().skip(c).step_by(clients.max(1)) {
                        let t0 = Instant::now();
                        // A thousand simultaneous connects overflow the
                        // listener backlog; the kernel resets the excess.
                        // Requests are idempotent (and cached), so retry
                        // with backoff like any real client — the retry
                        // wait stays inside the recorded latency.
                        let mut attempt = 0;
                        let resp = loop {
                            match http_request(addr.as_str(), path, Some(body), TIMEOUT) {
                                Ok(resp) => break resp,
                                Err(e) if attempt < 50 => {
                                    attempt += 1;
                                    let _ = e;
                                    std::thread::sleep(Duration::from_millis(2 * attempt));
                                }
                                Err(e) => panic!("{path}: {e} after {attempt} retries"),
                            }
                        };
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        assert_eq!(resp.status, 200, "{path}: {}", resp.body);
                        mine.push(ms);
                    }
                    latencies.lock().expect("latency lock").extend(mine);
                })
                .expect("spawns client")
        })
        .collect();

    barrier.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join().expect("client joins");
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut lat = Arc::try_unwrap(latencies)
        .expect("clients joined")
        .into_inner()
        .expect("latency lock");
    lat.sort_by(f64::total_cmp);
    let pick = |q: f64| lat[(((lat.len() - 1) as f64) * q) as usize];
    PhaseRecord {
        wall_ms,
        rps: lat.len() as f64 / (wall_ms / 1e3),
        p50_ms: pick(0.50),
        p99_ms: pick(0.99),
    }
}

fn measure(target: &Target, smoke: bool, clients: usize) {
    let reqs = workload(smoke);
    let distinct = reqs.len() / 4; // (program, configuration) units
    let wire: Vec<(String, String)> = reqs
        .iter()
        .map(|r| (format!("/{}", r.op.name()), encode_request(r)))
        .collect();
    // Enough traffic that every client has work and every request has
    // concurrent duplicates in flight.
    let mut traffic: Vec<(String, String)> = Vec::new();
    while traffic.len() < 2 * clients.max(wire.len()) {
        traffic.extend(wire.iter().cloned());
    }

    let m0 = target.metrics();
    println!(
        "cold: {} requests from {clients} clients ...",
        traffic.len()
    );
    let cold = run_phase(&target.addr, &traffic, clients);
    let m1 = target.metrics();
    let cold_misses = m1.misses - m0.misses;
    let budget = expected_misses(distinct);
    // The exactly-once guarantee, as exact arithmetic: every distinct
    // artifact computes at most once no matter how many copies of its
    // request were in flight.
    assert!(
        cold_misses <= budget,
        "duplicate computation: {cold_misses} misses > {budget} distinct artifacts"
    );
    if m0.misses == 0 {
        assert_eq!(
            cold_misses, budget,
            "a fresh daemon must compute each distinct artifact exactly once"
        );
    }

    println!(
        "warm: {} requests from {clients} clients ...",
        traffic.len()
    );
    let warm = run_phase(&target.addr, &traffic, clients);
    let m2 = target.metrics();
    assert_eq!(
        m2.misses - m1.misses,
        0,
        "the warm pass must be served without recomputing any stage"
    );

    let lookups = m2.hits + m2.misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        m2.hits as f64 / lookups as f64
    };
    let label = if smoke { "smoke" } else { "full" };
    println!(
        "{label:<6} cold {:>8.1} ms ({:>7.1} req/s, p50 {:>7.2} ms, p99 {:>8.2} ms)",
        cold.wall_ms, cold.rps, cold.p50_ms, cold.p99_ms
    );
    println!(
        "       warm {:>8.1} ms ({:>7.1} req/s, p50 {:>7.2} ms, p99 {:>8.2} ms)",
        warm.wall_ms, warm.rps, warm.p50_ms, warm.p99_ms
    );
    println!(
        "       store: {} hits / {} misses / {} coalesced (hit rate {hit_rate:.4})",
        m2.hits, m2.misses, m2.coalesced
    );
}

fn main() {
    let (mut smoke, mut send_shutdown) = (false, false);
    let (mut addr, mut port_file, mut clients) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--shutdown" => send_shutdown = true,
            "--addr" => addr = args.next(),
            "--port-file" => port_file = args.next(),
            "--clients" => clients = args.next(),
            // An unknown flag fails loudly rather than being ignored.
            other => {
                eprintln!("loadgen: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let clients = clients
        .map(|v| v.parse().expect("--clients takes a number"))
        .unwrap_or(if smoke { SMOKE_CLIENTS } else { FULL_CLIENTS });

    let external_addr = addr.or_else(|| {
        port_file.map(|path| {
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read --port-file {path}: {e}"))
                .trim()
                .to_string()
        })
    });
    let target = match external_addr {
        Some(addr) => Target { addr, daemon: None },
        None => {
            let workers = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
            let daemon = Daemon::bind(DaemonConfig {
                workers,
                queue: 2048,
                ..DaemonConfig::default()
            })
            .expect("daemon binds");
            let addr = daemon.local_addr().to_string();
            println!("in-process rtpfd on {addr} ({workers} workers)");
            Target {
                addr,
                daemon: Some(std::thread::spawn(move || daemon.run())),
            }
        }
    };

    measure(&target, smoke, clients);

    if send_shutdown || target.daemon.is_some() {
        target.shutdown();
        println!("daemon drained cleanly");
    }
}
