//! End-to-end daemon tests over real TCP sockets.
//!
//! These drive `emgrid-serve` exactly the way an operator's scripts would:
//! raw HTTP/1.1 requests against an ephemeral port. The two load-bearing
//! properties of the ISSUE are asserted here — identical specs produce
//! byte-identical result documents even under concurrent service load, and
//! a daemon killed mid-job resumes from its checkpoint after restart with
//! a result byte-identical to an uninterrupted run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use emgrid_serve::json::{self, Json};
use emgrid_serve::{ServeConfig, Server};

/// A scratch state directory unique to one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emgrid-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        state_dir: temp_dir(tag),
        ..ServeConfig::default()
    }
}

/// One HTTP exchange; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    // `Connection: close` so `read_to_string` sees EOF — the daemon keeps
    // HTTP/1.1 connections alive by default; keep-alive behavior has its
    // own test suite (tests/keepalive.rs).
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // The server may answer (and close) before the body is fully written —
    // e.g. a 413 — so body write errors are not failures.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, body) = request(addr, "POST", "/v1/jobs", spec);
    assert_eq!(status, 202, "submit failed: {body}");
    json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .expect("submit response carries an id")
}

/// Polls `GET /v1/jobs/:id` until the status is terminal; returns the last
/// status document.
fn wait_done(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        let state = doc.get("status").and_then(Json::as_str).unwrap().to_owned();
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{state}`");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn result_bytes(addr: SocketAddr, id: u64) -> String {
    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn health_metrics_and_error_routes() {
    let server = Server::start(config("routes")).unwrap();
    let addr = server.local_addr();

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("emgrid_jobs_submitted_total 0"), "{body}");
    assert!(body.contains("emgrid_jobs_queued 0"), "{body}");

    assert_eq!(request(addr, "PUT", "/healthz", "").0, 405);
    assert_eq!(request(addr, "GET", "/nowhere", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/jobs/999", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/jobs/999/result", "").0, 404);
    assert_eq!(request(addr, "DELETE", "/v1/jobs/999", "").0, 404);
    assert_eq!(request(addr, "GET", "/v1/jobs/banana", "").0, 404);

    // Malformed and invalid submissions are 400s with an explanation.
    assert_eq!(request(addr, "POST", "/v1/jobs", "{not json").0, 400);
    let (status, body) = request(addr, "POST", "/v1/jobs", r#"{"kind":"mine"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown kind"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/jobs",
        r#"{"kind":"characterize","typo":1}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown key"), "{body}");

    let root = server.state_dir();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn identical_specs_yield_byte_identical_results_under_load() {
    let server = Server::start(config("determinism")).unwrap();
    let addr = server.local_addr();
    let spec = r#"{"kind":"characterize","array":"4x4","pattern":"tee","criterion":"rinf","trials":160,"seed":42,"threads":2}"#;

    // Submitted back-to-back, the two copies run concurrently on the two
    // workers; queue order and scheduling must not leak into the results.
    let a = submit(addr, spec);
    let b = submit(addr, spec);
    assert_ne!(a, b);
    wait_done(addr, a);
    wait_done(addr, b);
    let bytes_a = result_bytes(addr, a);
    let bytes_b = result_bytes(addr, b);
    assert_eq!(bytes_a, bytes_b, "service load leaked into the result");
    assert!(bytes_a.contains("\"kind\":\"characterize\""), "{bytes_a}");
    assert!(bytes_a.contains("ttf_median_years"), "{bytes_a}");

    let root = server.state_dir();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn killed_daemon_resumes_checkpointed_jobs_to_the_same_bytes() {
    // A small synthetic grid, uploaded inline so the test also covers the
    // netlist path; JSON escaping is handled by the crate's own writer.
    let deck = emgrid_spice::writer::write_string(
        &emgrid_spice::GridSpec::custom("daemon-test", 10, 10).generate(),
    );
    let spec = Json::Obj(vec![
        ("kind".into(), Json::s("analyze")),
        ("netlist".into(), Json::s(&deck)),
        ("trials".into(), Json::n(120.0)),
        ("seed".into(), Json::n(7.0)),
        ("grid_trials".into(), Json::n(240.0)),
    ])
    .to_string();
    let spec = spec.as_str();

    // Reference: the same job on an undisturbed daemon.
    let reference_server = Server::start(config("resume-ref")).unwrap();
    let ref_addr = reference_server.local_addr();
    let ref_id = submit(ref_addr, spec);
    let doc = wait_done(ref_addr, ref_id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    let reference = result_bytes(ref_addr, ref_id);
    let ref_root = reference_server.state_dir();
    reference_server.shutdown();

    // Victim: small checkpoint cadence, killed as soon as a checkpoint
    // lands (or the job finishes first — the restart path is exercised
    // either way, and determinism must hold in both).
    let state_dir = temp_dir("resume-victim");
    let victim_config = ServeConfig {
        state_dir: state_dir.clone(),
        workers: 1,
        checkpoint_every: 8,
        ..ServeConfig::default()
    };
    let victim = Server::start(victim_config.clone()).unwrap();
    let victim_addr = victim.local_addr();
    let id = submit(victim_addr, spec);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_checkpoint = false;
    loop {
        let (_, body) = request(victim_addr, "GET", &format!("/v1/jobs/{id}"), "");
        let doc = json::parse(&body).unwrap();
        let checkpoints = doc.get("checkpoints").and_then(Json::as_u64).unwrap_or(0);
        let state = doc.get("status").and_then(Json::as_str).unwrap_or("");
        if checkpoints >= 1 {
            saw_checkpoint = true;
            break;
        }
        if matches!(state, "done" | "failed" | "cancelled") {
            break;
        }
        assert!(Instant::now() < deadline, "job never progressed");
        std::thread::yield_now();
    }
    victim.shutdown_now();

    // Restart over the same state directory: the job requeues under its
    // original id and resumes from the checkpoint watermark.
    let revived = Server::start(victim_config).unwrap();
    let revived_addr = revived.local_addr();
    let doc = wait_done(revived_addr, id);
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("done"),
        "{doc}"
    );
    assert_eq!(
        result_bytes(revived_addr, id),
        reference,
        "restart changed the result bytes"
    );
    if saw_checkpoint {
        let (_, metrics) = request(revived_addr, "GET", "/metrics", "");
        assert!(metrics.contains("emgrid_jobs_resumed_total 1"), "{metrics}");
    }
    revived.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
    let _ = std::fs::remove_dir_all(ref_root);
}

#[test]
fn restart_requeues_more_unfinished_jobs_than_the_queue_depth() {
    // A crashed daemon can leave more unfinished jobs on disk than the
    // configured queue depth (running jobs hold no queue slot, and the
    // operator may restart with a smaller --queue-depth). Startup must
    // absorb them all instead of panicking into a permanent crash loop.
    let state_dir = temp_dir("requeue-overflow");
    let store = emgrid_serve::JobStore::open(&state_dir).unwrap();
    let spec = json::parse(
        r#"{"kind":"characterize","array":"1x1","pattern":"plus","criterion":"rinf","trials":8,"seed":1,"threads":1}"#,
    )
    .unwrap();
    for id in 1..=5u64 {
        store.write_spec(id, &spec).unwrap();
    }

    let server = Server::start(ServeConfig {
        state_dir: state_dir.clone(),
        workers: 1,
        queue_depth: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    for id in 1..=5u64 {
        let doc = wait_done(addr, id);
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("done"),
            "{doc}"
        );
    }
    // The door is still open for fresh submissions after the requeue.
    let fresh = submit(
        addr,
        r#"{"kind":"characterize","array":"1x1","trials":8,"seed":2}"#,
    );
    assert!(fresh > 5, "id counter not seeded past disk ids");
    wait_done(addr, fresh);
    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn cancelled_jobs_stay_cancelled_across_restart() {
    let state_dir = temp_dir("cancel");
    let base = ServeConfig {
        state_dir: state_dir.clone(),
        workers: 1,
        checkpoint_every: 16,
        ..ServeConfig::default()
    };
    let server = Server::start(base.clone()).unwrap();
    let addr = server.local_addr();

    // A large budget so the cancel lands while the job is queued or mid-run.
    let id = submit(
        addr,
        r#"{"kind":"characterize","trials":500000,"seed":3,"threads":1}"#,
    );
    let (status, body) = request(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("cancelling"), "{body}");
    let doc = wait_done(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("cancelled"));
    server.shutdown();

    // The client-cancelled marker must survive the restart: the job is not
    // requeued and reports `cancelled` from disk.
    let revived = Server::start(base).unwrap();
    let revived_addr = revived.local_addr();
    let (status, body) = request(revived_addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"cancelled\""), "{body}");
    let (status, _) = request(revived_addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 409, "a cancelled job has no result");
    let (_, metrics) = request(revived_addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("emgrid_jobs_submitted_total 0"),
        "{metrics}"
    );
    revived.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn uploaded_netlists_are_screened_and_bodies_are_bounded() {
    let mut cfg = config("ingest");
    cfg.max_body_bytes = 512;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    // A deck with a floating node fails lint at the door, not in a worker.
    let bad = r#"{"kind":"analyze","netlist":"R1 a b 1.0\nV1 a 0 1.0\nR2 c d 2.0\n.end","grid_trials":10}"#;
    let (status, body) = request(addr, "POST", "/v1/jobs", bad);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"lint\""), "{body}");

    // Oversized bodies bounce with 413 before any parsing happens.
    let huge = format!(
        r#"{{"kind":"analyze","netlist":"{}","grid_trials":10}}"#,
        "x".repeat(2000)
    );
    let (status, body) = request(addr, "POST", "/v1/jobs", &huge);
    assert_eq!(status, 413, "{body}");

    let root = server.state_dir();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// Filters the default panic hook so the induced connection panics below
/// don't spam test output; every other panic still prints normally.
fn silence_induced_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if message.is_some_and(|m| m.contains("induced panic (debug route)")) {
                return;
            }
            previous(info);
        }));
    });
}

/// The value of a plain (unlabelled) counter in a `/metrics` scrape.
fn scrape_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` series in scrape:\n{metrics}"))
}

#[test]
fn panicking_connections_do_not_leak_slots() {
    // Regression for the connection-slot leak: a panicking handler once
    // kept its connection slot forever, so 256 panics bricked the daemon
    // into shedding every future request. The dispatcher catches each
    // panic and the event loop closes the connection; induce more panics
    // than the connection cap and prove the daemon is still fully alive
    // afterwards.
    silence_induced_panics();
    let mut cfg = config("panic-flood");
    cfg.debug_panic_route = true;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let floods = 300usize;
    for _ in 0..floods {
        // The handler panics before writing anything, so the client just
        // sees the connection close; there is no response to parse.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ =
            stream.write_all(b"POST /debug/panic HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        let mut sink = String::new();
        let _ = stream.read_to_string(&mut sink);
    }

    // Past the old 256-slot ceiling the daemon must still answer, not 503.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "daemon bricked after panic flood: {body}");

    // Every panic is counted once the event loop collects the failed
    // dispatch, which may trail the client's close, so poll briefly for
    // the full count.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, metrics) = request(addr, "GET", "/metrics", "");
        if scrape_counter(&metrics, "emgrid_http_connection_panics_total") >= floods as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "panic counter stuck:\n{metrics}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let root = server.state_dir();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn sheds_and_slow_requests_show_up_in_response_counters() {
    // Shed 503s and request-deadline 408s used to be written straight to
    // the socket without touching any counter, so overload was invisible
    // in `/metrics`. Both must now land in the responses-by-class family.
    let mut cfg = config("shed-counts");
    cfg.max_connections = 2;
    cfg.request_deadline = Duration::from_millis(900);
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    // Two idle connections occupy both slots (their eventual fate is a
    // 408 when the request deadline lapses with no bytes on the wire).
    let idle_a = TcpStream::connect(addr).unwrap();
    let idle_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // With both slots held, the accept loop sheds the next connection.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 503, "expected a shed: {body}");

    // The idle connections time out with a 408 once the deadline lapses.
    for mut idle in [idle_a, idle_b] {
        let mut raw = String::new();
        idle.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    }

    // Slots are free again, and both failure modes are on the scoreboard.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("emgrid_http_responses_total{status_class=\"5xx\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("emgrid_http_responses_total{status_class=\"4xx\"} 2"),
        "{metrics}"
    );

    let root = server.state_dir();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn scrape_has_histograms_and_status_docs_carry_phases() {
    let server = Server::start(config("obs")).unwrap();
    let addr = server.local_addr();
    let id = submit(
        addr,
        r#"{"kind":"characterize","array":"1x1","trials":32,"seed":9}"#,
    );
    let doc = wait_done(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));

    // Per-job phase timings are operator telemetry: they belong in the
    // status document and must never reach the (byte-stable) result doc.
    let phases = doc.get("phases").expect("status doc carries phases");
    assert!(
        phases.get("mc_seconds").and_then(Json::as_f64).is_some(),
        "{doc}"
    );
    assert!(!result_bytes(addr, id).contains("phases"));

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    for family in [
        "emgrid_http_request_duration_seconds",
        "emgrid_job_queue_wait_seconds",
        "emgrid_job_duration_seconds",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} histogram")),
            "{metrics}"
        );
    }
    assert!(
        scrape_counter(&metrics, "emgrid_job_duration_seconds_count") >= 1,
        "{metrics}"
    );
    // Process-global registry instruments ride along in the same scrape.
    // Their values are process-wide (other tests contribute), so only
    // presence is asserted.
    assert!(metrics.contains("emgrid_mc_trials_total"), "{metrics}");
    assert!(metrics.contains("emgrid_mc_runs_total"), "{metrics}");

    let root = server.state_dir();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
