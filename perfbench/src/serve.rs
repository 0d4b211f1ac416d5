//! `serve`: an in-process `rtpfd` ([`Daemon`], two workers, unbounded
//! store, started cold) driven over HTTP by two client threads in a
//! closed loop — `rtpfd`'s callers wait for their replies.
//!
//! The traffic is that of `loadgen`, the daemon's only existing caller:
//! every operation on every suite program at one Table 2 geometry, the
//! whole list sent again and again, one connection per request (see
//! [`gen::serve_stream`]). Each pass binds a fresh daemon and sends the
//! seeded stream through it. The traced run adds a replay of the same
//! stream through [`ServiceCore::handle`] on two threads, which prices
//! the library path without HTTP.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtpf_engine::{ArtifactStore, Grid, ServiceCore, ServiceOp, StoreConfig, StoreMetrics};
use rtpf_serve::json::Value;
use rtpf_serve::{encode_request, Daemon, DaemonConfig};
use rtpf_wcet::AnalysisProfile;

use crate::gen;
use crate::spec::WorkloadSpec;
use crate::trace::{OpTrace, Recorder};
use crate::workload::{
    add_store, end_to_end, per_layer, repeat_passes, setup_median, LayerSums, Outcome, RunConfig,
    Timed, WORKERS,
};

/// Copies of the request list per pass of the full workload: a pass of
/// about one second on the 2-vCPU reference VM, so a run fits many and
/// keeps the fastest.
pub const COPIES: usize = 68;

/// Copies per pass of a test slice.
const SLICE_COPIES: usize = 25;

/// Client socket timeout: far above any single request.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Connection attempts per request before it counts as failed.
const MAX_RETRIES: u32 = 20;

/// A response rendered as JSON, or the error that replaced it.
type Rendered = Result<String, String>;

/// The stream's distinct requests and their wire form.
struct Setup {
    programs: Vec<String>,
    /// Distinct `(op, program)` requests, in first-seen order.
    distinct: Vec<(ServiceOp, usize)>,
    /// `(path, body)` of each distinct request.
    wire: Vec<(String, String)>,
    /// Distinct-request index of every request of the stream.
    stream: Vec<usize>,
    /// Store computations the stream causes, each exactly once.
    expected_misses: u64,
    compile: Duration,
    daemon: Option<Running>,
}

fn op_index(op: ServiceOp) -> usize {
    match op {
        ServiceOp::Analyze => 0,
        ServiceOp::Optimize => 1,
        ServiceOp::Audit => 2,
        ServiceOp::Simulate => 3,
    }
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let t0 = Instant::now();
    let suite = rtpf_suite::catalog();
    let compile = t0.elapsed();
    let programs = gen::serve_programs(&suite, cfg.slice.as_ref());
    if programs.is_empty() {
        return Err("the slice selects no serve programs".to_string());
    }
    let copies = if cfg.slice.is_some() {
        SLICE_COPIES
    } else {
        COPIES
    };
    let mut index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut distinct = Vec::new();
    let stream = gen::serve_stream(programs.len(), copies, cfg.seed)
        .into_iter()
        .map(|(op, p)| {
            *index.entry((op_index(op), p)).or_insert_with(|| {
                distinct.push((op, p));
                distinct.len() - 1
            })
        })
        .collect();
    let wire = distinct
        .iter()
        .map(|&(op, p)| {
            (
                format!("/{}", op.name()),
                encode_request(&gen::serve_request(&programs[p], op)),
            )
        })
        .collect();
    Ok(Setup {
        // As `loadgen` counts them: per program one analysis (shared by
        // `analyze` and `audit`), one optimization plus its Theorem-1
        // re-proof, and one simulation. Suite programs load without a
        // parse artifact; audits themselves are never cached.
        expected_misses: 4 * programs.len() as u64,
        programs,
        distinct,
        wire,
        stream,
        compile,
        daemon: Some(Running::start()?),
    })
}

/// A daemon serving on its own thread.
struct Running {
    addr: SocketAddr,
    core: Arc<ServiceCore>,
    thread: JoinHandle<io::Result<()>>,
}

impl Running {
    /// Binds a cold daemon and waits until it answers `/healthz`.
    fn start() -> Result<Running, String> {
        let daemon = Daemon::bind(DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue: 64,
            store: StoreConfig::default(),
        })
        .map_err(|e| format!("rtpfd bind: {e}"))?;
        let addr = daemon.local_addr();
        let core = Arc::clone(daemon.core());
        let thread = std::thread::spawn(move || daemon.run());
        let running = Running { addr, core, thread };
        match exchange(addr, "GET", "/healthz", "") {
            Ok(x) if x.status == 200 => Ok(running),
            other => {
                let _ = running.stop();
                Err(format!("rtpfd not healthy: {:?}", other.map(|x| x.status)))
            }
        }
    }

    /// Drains the daemon and joins its thread.
    fn stop(self) -> Result<(), String> {
        let ack = exchange(self.addr, "POST", "/shutdown", "{}");
        let joined = self
            .thread
            .join()
            .map_err(|_| "rtpfd thread panicked".to_string())?;
        joined.map_err(|e| format!("rtpfd: {e}"))?;
        match ack {
            Ok(x) if x.status == 200 => Ok(()),
            other => Err(format!("rtpfd shutdown: {:?}", other.map(|x| x.status))),
        }
    }

    /// Profile of the daemon's engine for the one configuration served.
    fn profile(&self) -> AnalysisProfile {
        gen::serve_config()
            .resolve()
            .map(|config| self.core.engine_for(config).profile())
            .unwrap_or_default()
    }
}

/// One HTTP exchange: the response and the client-side phases.
#[derive(Debug)]
struct Exchange {
    status: u16,
    body: String,
    /// Start of connect, send, wait (for the first byte), read and
    /// close.
    starts: [Instant; 5],
    /// Their durations.
    phases: [Duration; 5],
}

const PHASES: [&str; 5] = [
    "serve.connect",
    "serve.send",
    "serve.wait",
    "serve.read",
    "serve.close",
];

/// One request on its own connection (`connection: close`).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Exchange> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let t0 = Instant::now();
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let t1 = Instant::now();
    let mut writer = &stream;
    writer.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: rtpfd\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let t2 = Instant::now();
    let mut reader = BufReader::new(&stream);
    if reader.fill_buf()?.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        ));
    }
    let t3 = Instant::now();
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    let mut buf = vec![0u8; length];
    reader.read_exact(&mut buf)?;
    let body = String::from_utf8(buf).map_err(|_| bad("non-utf8 body"))?;
    let t4 = Instant::now();
    drop(reader);
    drop(stream);
    let t5 = Instant::now();
    Ok(Exchange {
        status,
        body,
        starts: [t0, t1, t2, t3, t4],
        phases: [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4],
    })
}

/// What one client thread saw in one pass.
#[derive(Default)]
struct ClientOut {
    /// `(request index, latency ms)`.
    latencies_ms: Vec<(usize, f64)>,
    /// First response body per distinct request.
    bodies: HashMap<usize, String>,
    failures: Vec<String>,
    retries: u64,
    connect: Duration,
    wait: Duration,
    traces: Vec<OpTrace>,
}

/// A closed-loop client: claims the next request of the stream, sends
/// it, waits for the reply, repeats. A failed connection is retried with
/// back-off; the retries count against the request's latency.
fn client(s: &Setup, addr: SocketAddr, next: &AtomicUsize, origin: Option<Instant>) -> ClientOut {
    let mut o = ClientOut::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&d) = s.stream.get(i) else {
            return o;
        };
        let (path, body) = &s.wire[d];
        let rec = origin.map(Recorder::start);
        let t0 = Instant::now();
        let mut attempt = 0;
        let result = loop {
            match exchange(addr, "POST", path, body) {
                Err(_) if attempt < MAX_RETRIES => {
                    attempt += 1;
                    o.retries += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(attempt)));
                }
                other => break other,
            }
        };
        let latency = t0.elapsed();
        // The root span ends here; checking the response is the client's
        // own work, not the request's.
        if let Some(mut rec) = rec {
            if let Ok(x) = &result {
                for ((name, &start), &dur) in PHASES.iter().zip(&x.starts).zip(&x.phases) {
                    rec.push(name, start, dur);
                }
                o.connect += x.phases[0];
                o.wait += x.phases[2];
            }
            o.traces.push(rec.finish("serve.request", i as u64));
        }
        o.latencies_ms.push((i, latency.as_secs_f64() * 1e3));
        match &result {
            Ok(x) if x.status == 200 => match o.bodies.get(&d) {
                None => {
                    o.bodies.insert(d, x.body.clone());
                }
                Some(first) if *first == x.body => {}
                Some(_) => o
                    .failures
                    .push(format!("{path} {body}: response changed between calls")),
            },
            Ok(x) => o
                .failures
                .push(format!("{path} {body}: HTTP {} {}", x.status, x.body)),
            Err(e) => o.failures.push(format!("{path} {body}: {e}")),
        }
    }
}

/// One pass over HTTP against one cold daemon.
struct HttpPass {
    clients: Vec<ClientOut>,
    timed: Timed,
    store: StoreMetrics,
    profile: AnalysisProfile,
}

fn http_pass(s: &Setup, daemon: &Running, origin: Option<Instant>) -> HttpPass {
    let next = AtomicUsize::new(0);
    let (clients, timed) = Timed::measure(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| scope.spawn(|| client(s, daemon.addr, &next, origin)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect::<Vec<_>>()
        })
    });
    HttpPass {
        clients,
        timed,
        store: daemon.core.store().metrics(),
        profile: daemon.profile(),
    }
}

/// Library-path responses for the distinct requests, each computed
/// once on a fresh core.
fn library_responses(s: &Setup) -> Vec<Rendered> {
    let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
    let grid = Grid {
        workers: WORKERS,
        progress_every: 0,
        label: "perfbench",
        shards: 1,
    };
    grid.run(&s.distinct, |_, &(op, p)| {
        core.handle(&gen::serve_request(&s.programs[p], op))
            .map(|r| r.to_json())
            .map_err(|e| e.to_string())
    })
}

/// The replay: the same stream through [`ServiceCore::handle`] on two
/// threads, against a fresh core. Returns per-operation handling time,
/// their total, and the first response per distinct request.
fn replay(s: &Setup) -> ([Duration; 4], Duration, Vec<Rendered>) {
    let core = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));
    let next = AtomicUsize::new(0);
    let outs: Vec<([Duration; 4], HashMap<usize, Rendered>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut per_op = [Duration::ZERO; 4];
                    let mut first = HashMap::new();
                    while let Some(&d) = s.stream.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (op, p) = s.distinct[d];
                        let request = gen::serve_request(&s.programs[p], op);
                        let t0 = Instant::now();
                        let resp = core.handle(&request);
                        per_op[op_index(op)] += t0.elapsed();
                        first.entry(d).or_insert_with(|| {
                            resp.map(|r| r.to_json()).map_err(|e| e.to_string())
                        });
                    }
                    (per_op, first)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay threads do not panic"))
            .collect()
    });
    let mut per_op = [Duration::ZERO; 4];
    let mut responses: Vec<Rendered> = vec![Err("never replayed".to_string()); s.distinct.len()];
    for (times, first) in outs {
        for (total, t) in per_op.iter_mut().zip(times) {
            *total += t;
        }
        for (d, r) in first {
            responses[d] = r;
        }
    }
    let total = per_op.iter().sum();
    (per_op, total, responses)
}

/// Checks one pass: every request answered 200, and the cold daemon
/// computed each distinct artifact exactly once.
fn check_pass(s: &Setup, p: &HttpPass, bodies: &mut HashMap<usize, String>, out: &mut Outcome) {
    for c in &p.clients {
        for f in &c.failures {
            out.fail(f.clone());
        }
        for (&d, body) in &c.bodies {
            match bodies.get(&d) {
                None => {
                    bodies.insert(d, body.clone());
                }
                Some(first) if first == body => {}
                Some(_) => out.fail(format!("{}: responses differ between calls", s.wire[d].1)),
            }
        }
    }
    if p.store.misses != s.expected_misses {
        out.fail(format!(
            "a cold daemon computed {} artifacts for {} distinct ones",
            p.store.misses, s.expected_misses
        ));
    }
}

/// Every distinct daemon response must be byte-identical to the library
/// path's `ServiceCore::handle(..).to_json()`.
fn check_library(
    s: &Setup,
    bodies: &HashMap<usize, String>,
    library: &[Rendered],
    out: &mut Outcome,
) {
    for (d, lib) in library.iter().enumerate() {
        match (bodies.get(&d), lib) {
            (Some(daemon), Ok(lib)) if daemon == lib => {}
            (Some(_), Ok(_)) => out.fail(format!(
                "{}: daemon and library responses differ",
                s.wire[d].1
            )),
            (_, Err(e)) => out.fail(format!("{}: library path failed: {e}", s.wire[d].1)),
            (None, Ok(_)) => out.fail(format!("{}: no daemon response", s.wire[d].1)),
        }
    }
}

/// `wcet_after / wcet_before` of every distinct optimize response.
fn wcet_ratios(s: &Setup, bodies: &HashMap<usize, String>) -> Vec<f64> {
    s.distinct
        .iter()
        .enumerate()
        .filter(|(_, (op, _))| *op == ServiceOp::Optimize)
        .filter_map(|(d, _)| {
            let doc = Value::parse(bodies.get(&d)?).ok()?;
            let result = doc.get("result")?;
            let before = result.get("wcet_before")?.as_f64()?;
            Some(result.get("wcet_after")?.as_f64()? / before)
        })
        .collect()
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// Set-up failures and daemons that fail to bind or drain.
pub fn run(spec: WorkloadSpec, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut s, setup_s) = setup_median(
        || setup(cfg),
        |mut old| {
            if let Some(d) = old.daemon.take() {
                let _ = d.stop();
            }
        },
    )?;
    let mut first = s.daemon.take();
    let mut run_pass = |origin: Option<Instant>| -> Result<HttpPass, String> {
        let daemon = match first.take() {
            Some(d) => d,
            None => Running::start()?,
        };
        let p = http_pass(&s, &daemon, origin);
        daemon.stop()?;
        Ok(p)
    };
    let origin = Instant::now();
    let traced_origin = cfg.trace.then_some(origin);
    let passes = repeat_passes(cfg.seconds, |_| run_pass(traced_origin))?;
    // The untraced pass that prices the tracing runs last, on a process
    // as warm as the traced passes found it.
    let reference = cfg.trace.then(|| run_pass(None)).transpose()?;

    let mut bodies = HashMap::new();
    for p in reference.iter().chain(&passes) {
        out.attempted += s.stream.len() as u64;
        check_pass(&s, p, &mut bodies, &mut out);
    }
    out.note(format!(
        "{} requests per pass: {} programs × {} operations at {} ({} artifacts), \
         {WORKERS} closed-loop clients, daemon with {WORKERS} workers",
        s.stream.len(),
        s.programs.len(),
        gen::SERVE_OPS.len(),
        gen::SERVE_CACHE,
        s.expected_misses
    ));

    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    match reference {
        None => {
            let latencies: Vec<Vec<f64>> = passes
                .iter()
                .map(|p| {
                    let mut by_request = vec![f64::NAN; s.stream.len()];
                    for &(i, ms) in p.clients.iter().flat_map(|c| &c.latencies_ms) {
                        by_request[i] = ms;
                    }
                    by_request
                })
                .collect();
            let ratios = wcet_ratios(&s, &bodies);
            end_to_end(&mut out, spec, setup_s, &latencies, &timed, ratios);
            check_library(&s, &bodies, &library_responses(&s), &mut out);
        }
        Some(reference) => {
            let (handle, handled, library) = replay(&s);
            check_library(&s, &bodies, &library, &mut out);
            // The replay runs once; it is scaled like the per-pass sums
            // it is divided with.
            let mut sums = LayerSums {
                compile: s.compile,
                handle: handle.map(|d| d * passes.len() as u32),
                ..LayerSums::default()
            };
            let mut latency_ms = 0.0;
            for p in passes {
                sums.profile.add(&p.profile);
                sums.verify += Duration::from_nanos(p.profile.verify_ns);
                sums.simulate += Duration::from_nanos(p.profile.simulate_ns);
                add_store(&mut sums.store, &p.store);
                for c in p.clients {
                    latency_ms += c.latencies_ms.iter().map(|&(_, ms)| ms).sum::<f64>();
                    sums.retries += c.retries;
                    sums.connect += c.connect;
                    sums.wait += c.wait;
                    for t in c.traces {
                        sums.account(&t);
                        out.traces.push(t);
                    }
                }
            }
            sums.overhead_ms = latency_ms - handled.as_secs_f64() * 1e3 * timed.len() as f64;
            per_layer(&mut out, &sums, &timed, reference.timed);
        }
    }
    Ok(out)
}
