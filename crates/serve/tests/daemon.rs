//! End-to-end daemon tests: golden byte-identity against the library
//! path, warm-pass cache behavior, exactly-once compute under concurrent
//! duplicates, protocol errors, and graceful shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtpf_cache::CacheConfig;
use rtpf_engine::{
    ArtifactStore, ConfigSpec, ProgramSource, ServiceCore, ServiceOp, ServiceProfile,
    ServiceRequest,
};
use rtpf_serve::http::{request, ClientResponse};
use rtpf_serve::json::Value;
use rtpf_serve::{encode_request, Daemon, DaemonConfig, IDLE_TIMEOUT};

const TIMEOUT: Duration = Duration::from_secs(60);

struct Running {
    addr: String,
    core: Arc<ServiceCore>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(config: DaemonConfig) -> Running {
        let daemon = Daemon::bind(config).expect("binds");
        let addr = daemon.local_addr().to_string();
        let core = Arc::clone(daemon.core());
        let thread = thread::spawn(move || daemon.run());
        Running { addr, core, thread }
    }

    fn post(&self, path: &str, body: &str) -> ClientResponse {
        request(self.addr.as_str(), path, Some(body), TIMEOUT).expect("request succeeds")
    }

    fn get(&self, path: &str) -> ClientResponse {
        request(self.addr.as_str(), path, None, TIMEOUT).expect("request succeeds")
    }

    /// The store's miss counter, as `/metrics` reports it over HTTP.
    fn misses(&self) -> u64 {
        let resp = self.get("/metrics");
        assert_eq!(resp.status, 200, "{}", resp.body);
        Value::parse(&resp.body)
            .expect("metrics json parses")
            .get("store")
            .and_then(|s| s.get("misses"))
            .and_then(Value::as_u64)
            .expect("metrics carries store.misses")
    }

    fn shutdown(self) {
        let resp = self.post("/shutdown", "{}");
        assert_eq!(resp.status, 200);
        self.thread
            .join()
            .expect("daemon thread joins")
            .expect("daemon drains cleanly");
    }
}

fn spec_of(c: &CacheConfig) -> String {
    format!("{}:{}:{}", c.assoc(), c.block_bytes(), c.capacity_bytes())
}

fn service_request(op: ServiceOp, program: &str, cache: &str) -> ServiceRequest {
    ServiceRequest {
        op,
        program: ProgramSource::Spec(format!("suite:{program}")),
        config: ConfigSpec {
            cache: cache.to_string(),
            ..ConfigSpec::default()
        },
    }
}

/// The acceptance golden: responses served through the daemon are
/// byte-identical to the library path for suite programs × Table 2
/// configurations, across all four operations.
#[test]
fn daemon_responses_are_byte_identical_to_the_library_path() {
    let server = Running::start(DaemonConfig::default());
    let library = ServiceCore::new(Arc::new(ArtifactStore::in_memory()));

    let table2 = CacheConfig::paper_configs();
    let configs: Vec<String> = ["k1", "k9"]
        .iter()
        .map(|k| {
            let (_, c) = table2
                .iter()
                .find(|(name, _)| name == k)
                .expect("table 2 key");
            spec_of(c)
        })
        .collect();
    for program in ["bs", "fibcall"] {
        for cache in &configs {
            for op in [
                ServiceOp::Analyze,
                ServiceOp::Optimize,
                ServiceOp::Audit,
                ServiceOp::Simulate,
            ] {
                let req = service_request(op, program, cache);
                let wire = server.post(&format!("/{}", op.name()), &encode_request(&req));
                assert_eq!(wire.status, 200, "{program}/{cache}: {}", wire.body);
                let expected = library.handle(&req).expect("library path serves").to_json();
                assert_eq!(
                    wire.body,
                    expected,
                    "{program} × {cache} × {} must be byte-identical",
                    op.name()
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn warm_requests_hit_the_cache_and_metrics_show_it() {
    let server = Running::start(DaemonConfig::default());
    let body = encode_request(&service_request(ServiceOp::Analyze, "bs", "2:16:512"));

    let cold = server.post("/analyze", &body);
    assert_eq!(cold.status, 200);
    let misses_cold = server.core.store().misses();
    assert!(misses_cold > 0);

    let warm = server.post("/analyze", &body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body, "warm response identical");
    assert_eq!(
        server.core.store().misses(),
        misses_cold,
        "warm request recomputed a stage"
    );

    let metrics = server.get("/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("\"hits\":"), "{}", metrics.body);
    assert!(metrics.body.contains("\"engines\": 1"), "{}", metrics.body);
    server.shutdown();
}

/// Fires every request from `clients` threads at once (each thread walks
/// the list from its own offset, so copies of one request overlap) and
/// returns, per request, the bodies of all its copies.
fn fire_duplicates(
    server: &Running,
    wire: &[(String, String)],
    clients: usize,
) -> Vec<Vec<String>> {
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let addr = server.addr.clone();
            let wire = wire.to_vec();
            thread::spawn(move || {
                barrier.wait();
                let mut bodies = vec![String::new(); wire.len()];
                for k in 0..wire.len() {
                    let i = (c + k) % wire.len();
                    let (path, body) = &wire[i];
                    let resp = request(addr.as_str(), path, Some(body), TIMEOUT)
                        .expect("request succeeds");
                    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
                    bodies[i] = resp.body;
                }
                bodies
            })
        })
        .collect();
    let mut per_request = vec![Vec::new(); wire.len()];
    for t in threads {
        for (i, body) in t.join().expect("client joins").into_iter().enumerate() {
            per_request[i].push(body);
        }
    }
    per_request
}

/// The single-flight guarantee over HTTP: concurrent duplicates of every
/// operation compute each distinct artifact exactly once, a warm pass
/// computes nothing, and every copy of a request gets the same bytes.
#[test]
fn concurrent_duplicates_compute_each_artifact_exactly_once() {
    let server = Running::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let programs = ["bs", "fft1"];
    let mut wire = Vec::new();
    for program in programs {
        for op in [
            ServiceOp::Analyze,
            ServiceOp::Optimize,
            ServiceOp::Audit,
            ServiceOp::Simulate,
        ] {
            let req = service_request(op, program, "2:16:512");
            wire.push((format!("/{}", op.name()), encode_request(&req)));
        }
    }

    // Per program: one Analyze artifact (shared by analyze and audit),
    // one Optimize and one Verify (the optimize op), one Simulate.
    let m0 = server.misses();
    let cold = fire_duplicates(&server, &wire, 16);
    let m1 = server.misses();
    assert_eq!(m1 - m0, 4 * programs.len() as u64, "cold miss delta");
    let warm = fire_duplicates(&server, &wire, 16);
    assert_eq!(server.misses(), m1, "the warm pass recomputed a stage");

    for (i, (path, _)) in wire.iter().enumerate() {
        let first = &cold[i][0];
        for body in cold[i].iter().chain(&warm[i]) {
            assert_eq!(body, first, "{path}: duplicate responses differ");
        }
    }
    server.shutdown();
}

#[test]
fn inline_source_and_profiles_are_served() {
    let server = Running::start(DaemonConfig::default());
    let req = ServiceRequest {
        op: ServiceOp::Simulate,
        program: ProgramSource::Inline {
            name: "tiny".to_string(),
            text: "program tiny\ncode 8\nloop 4 { code 6 }\ncode 2\n".to_string(),
        },
        config: ConfigSpec {
            profile: ServiceProfile::Evaluation,
            runs: Some(1),
            ..ConfigSpec::default()
        },
    };
    let resp = server.post("/simulate", &encode_request(&req));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"program\": \"tiny\""), "{}", resp.body);
    assert!(resp.body.contains("\"acet_cycles\":"), "{}", resp.body);
    server.shutdown();
}

#[test]
fn protocol_errors_use_the_right_status_codes() {
    let server = Running::start(DaemonConfig::default());
    assert_eq!(server.get("/healthz").status, 200);
    assert_eq!(server.get("/nope").status, 404);
    assert_eq!(server.get("/analyze").status, 405);
    assert_eq!(server.post("/metrics", "{}").status, 405);
    assert_eq!(server.post("/analyze", "not json").status, 400);
    assert_eq!(server.post("/analyze", "{}").status, 400);
    let bad_cache = encode_request(&service_request(ServiceOp::Analyze, "bs", "3:16:512"));
    assert_eq!(server.post("/analyze", &bad_cache).status, 400);
    let unknown = encode_request(&service_request(ServiceOp::Analyze, "doom", "2:16:512"));
    assert_eq!(server.post("/analyze", &unknown).status, 400);
    server.shutdown();
}

#[test]
fn a_zero_run_count_is_a_bad_request() {
    let server = Running::start(DaemonConfig::default());
    let mut req = service_request(ServiceOp::Simulate, "bs", "2:16:512");
    req.config.runs = Some(0);
    let reply = server.post("/simulate", &encode_request(&req));
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("runs"), "{}", reply.body);
    server.shutdown();
}

/// A head line that never ends is cut off at the head cap: the client
/// sees a 400 or a closed connection instead of a worker buffering its
/// bytes for as long as it stays connected.
#[test]
fn an_endless_head_line_is_rejected_at_the_head_cap() {
    let server = Running::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let mut conn = TcpStream::connect(server.addr.as_str()).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("sets timeout");
    // The daemon may reset the connection before it has read all of this.
    let _ = conn.write_all(&[b'A'; 64 * 1024]);
    let mut reply = Vec::new();
    match conn.read_to_end(&mut reply) {
        Ok(_) => assert!(
            reply.is_empty() || reply.starts_with(b"HTTP/1.1 400"),
            "{}",
            String::from_utf8_lossy(&reply)
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "the daemon must answer or close within 5 s, got {e}"
        ),
    }
    assert_eq!(server.get("/healthz").status, 200);
    drop(conn);
    server.shutdown();
}

/// A request body of 1 MiB of `[` is refused at the JSON parser's nesting
/// cap instead of overflowing a worker's stack and aborting the daemon.
#[test]
fn a_deeply_nested_json_body_is_a_bad_request() {
    let server = Running::start(DaemonConfig::default());
    let resp = server.post("/analyze", &"[".repeat(1 << 20));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
    assert_eq!(server.get("/healthz").status, 200);
    server.shutdown();
}

/// Inline program text nested 20 000 blocks deep is refused at the text
/// parser's nesting cap, like any other program text that does not parse.
#[test]
fn a_deeply_nested_inline_program_is_a_bad_request() {
    let server = Running::start(DaemonConfig::default());
    let depth = 20_000;
    let req = ServiceRequest {
        op: ServiceOp::Analyze,
        program: ProgramSource::Inline {
            name: "deep".to_string(),
            text: "loop 2 {\n".repeat(depth) + "code 1\n" + &"}\n".repeat(depth),
        },
        config: ConfigSpec::default(),
    };
    let resp = server.post("/analyze", &encode_request(&req));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
    assert_eq!(server.get("/healthz").status, 200);
    server.shutdown();
}

/// A program whose loop nest passes VIVU's context budget, yet stays
/// inside the text parser's nesting cap, is the client's fault: a 400,
/// and the daemon keeps serving.
#[test]
fn a_loop_nest_past_the_context_budget_is_a_bad_request() {
    let server = Running::start(DaemonConfig::default());
    let depth = 256;
    let req = ServiceRequest {
        op: ServiceOp::Analyze,
        program: ProgramSource::Inline {
            name: "nest".to_string(),
            text: "loop 2 {\n".repeat(depth) + "code 1\n" + &"}\n".repeat(depth),
        },
        config: ConfigSpec::default(),
    };
    let resp = server.post("/analyze", &encode_request(&req));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("contexts, over budget"), "{}", resp.body);
    assert_eq!(server.get("/healthz").status, 200);
    server.shutdown();
}

/// Error bodies are valid JSON even when the message echoes control
/// characters, quotes and backslashes from the request.
#[test]
fn error_bodies_escape_every_character_the_request_echoes() {
    let server = Running::start(DaemonConfig::default());
    let name = "a\tb\u{1}\"c\\d";
    // Written out by hand, so only the daemon's escaping is under test.
    let body = r#"{"program": "suite:a\tb\u0001\"c\\d", "config": {"cache": "2:16:512"}}"#;
    let resp = server.post("/analyze", body);
    assert_eq!(resp.status, 400, "{}", resp.body);
    let doc = Value::parse(&resp.body).expect("error body is valid JSON");
    let error = doc
        .get("error")
        .and_then(Value::as_str)
        .expect("error string");
    assert!(
        error.contains(name),
        "{error:?} must echo {name:?} verbatim"
    );
    server.shutdown();
}

/// A penalty that pushes τ_w past `u64::MAX` gets an error response
/// instead of a wrapped bound, and the daemon keeps serving.
#[test]
fn an_overflowing_wcet_bound_is_an_error_response() {
    let server = Running::start(DaemonConfig::default());
    let mut req = service_request(ServiceOp::Analyze, "fft1", "2:16:512");
    req.config.penalty = Some(1 << 53);
    let resp = server.post("/analyze", &encode_request(&req));
    assert_ne!(resp.status, 200, "{}", resp.body);
    let doc = Value::parse(&resp.body).expect("error body is valid JSON");
    assert!(
        doc.get("error").and_then(Value::as_str).is_some(),
        "{}",
        resp.body
    );
    assert_eq!(server.get("/healthz").status, 200);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let server = Running::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let body = encode_request(&service_request(ServiceOp::Analyze, "bs", "2:16:512"));
    assert_eq!(server.post("/analyze", &body).status, 200);
    let addr = server.addr.clone();
    server.shutdown();
    assert!(
        request(addr.as_str(), "/healthz", None, Duration::from_secs(2)).is_err(),
        "a drained daemon must not serve new connections"
    );
}

/// A client that connects and sends nothing holds the only worker for at
/// most `IDLE_TIMEOUT`: requests queued behind it are answered, and a
/// shutdown queued behind a second silent client still drains.
#[test]
fn a_silent_connection_neither_starves_the_pool_nor_blocks_shutdown() {
    let server = Running::start(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let limit = IDLE_TIMEOUT + Duration::from_secs(5);
    let _silent = TcpStream::connect(server.addr.as_str()).expect("connects");
    let health = request(server.addr.as_str(), "/healthz", None, limit)
        .expect("healthz is answered once the silent connection times out");
    assert_eq!(health.status, 200);

    let _idle = TcpStream::connect(server.addr.as_str()).expect("connects");
    let t0 = Instant::now();
    let ack = request(server.addr.as_str(), "/shutdown", Some("{}"), limit)
        .expect("shutdown is answered once the idle connection times out");
    assert_eq!(ack.status, 200);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(server.thread.join()));
    let left = limit.saturating_sub(t0.elapsed());
    rx.recv_timeout(left)
        .expect("the daemon drains within IDLE_TIMEOUT + 5 s")
        .expect("daemon thread joins")
        .expect("daemon drains cleanly");
}
