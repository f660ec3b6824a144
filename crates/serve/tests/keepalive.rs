//! HTTP/1.1 keep-alive and pipelining conformance, admission-control
//! behavior, connection scale, and the accept-path regression tests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use emgrid_serve::{ServeConfig, Server};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emgrid-keepalive-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        state_dir: temp_dir(tag),
        ..ServeConfig::default()
    }
}

/// A client-side response reader with carryover: pipelined responses can
/// arrive back-to-back in one TCP segment, so bytes past the current
/// response's `Content-Length` belong to the *next* one and are kept.
struct ResponseReader {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl ResponseReader {
    fn new(stream: TcpStream) -> Self {
        ResponseReader {
            stream,
            pending: Vec::new(),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    /// Reads exactly one HTTP/1.1 response (head + `Content-Length`
    /// body). Returns `(status, head, body)`.
    fn read_one(&mut self) -> (u16, String, String) {
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = self.pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed mid-head: {:?}", self.pending);
            self.pending.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(self.pending[..head_end].to_vec()).unwrap();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(String::from)
            })
            .and_then(|v| v.parse().ok())
            .expect("response declares Content-Length");
        let total = head_end + 4 + declared;
        while self.pending.len() < total {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid-body");
            self.pending.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.pending[head_end + 4..total].to_vec()).unwrap();
        self.pending.drain(..total);
        (status, head, body)
    }

    /// Asserts the server closes without sending anything further.
    fn expect_clean_close(mut self) {
        assert!(self.pending.is_empty(), "unread bytes: {:?}", self.pending);
        let mut rest = Vec::new();
        self.stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after close: {rest:?}");
    }
}

fn shutdown_and_clean(server: Server) {
    let root = server.state_dir();
    server.shutdown_now();
    let _ = std::fs::remove_dir_all(root);
}

/// Two pipelined POSTs written in a single segment must produce two
/// in-order, correctly framed responses on the same connection — and the
/// first request's leftover bytes (the entire second request arrived in
/// the same read) must be preserved, not truncated with the body.
#[test]
fn pipelined_posts_get_in_order_responses_with_correct_framing() {
    let server = Server::start(config("pipeline")).unwrap();
    let addr = server.local_addr();

    let spec_a = r#"{"kind":"characterize","array":"1x1","trials":8,"seed":1}"#;
    let spec_b = r#"{"kind":"characterize","array":"1x1","trials":8,"seed":2}"#;
    let mut wire = String::new();
    for spec in [spec_a, spec_b] {
        wire.push_str(&format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        ));
    }
    let mut client = ResponseReader::new(TcpStream::connect(addr).unwrap());
    client.write_all(wire.as_bytes());

    let (status_a, head_a, body_a) = client.read_one();
    let (status_b, head_b, body_b) = client.read_one();
    assert_eq!((status_a, status_b), (202, 202), "{body_a}\n{body_b}");
    for head in [&head_a, &head_b] {
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "pipelined responses must not close the connection: {head}"
        );
    }
    // In-order: the first response answers the first submit. Job ids
    // are allocated in submission order, so id(a) < id(b).
    let id = |body: &str| -> u64 {
        body.split("\"id\":")
            .nth(1)
            .and_then(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            })
            .unwrap_or_else(|| panic!("no id in {body}"))
    };
    assert!(
        id(&body_a) < id(&body_b),
        "responses out of order: {body_a} vs {body_b}"
    );
    shutdown_and_clean(server);
}

/// A routed 400 (bad JSON in a submit) must NOT kill the connection:
/// protocol framing was intact, so keep-alive survives and a healthz on
/// the same socket still answers.
#[test]
fn connection_reuse_survives_a_routed_400() {
    let server = Server::start(config("reuse-400")).unwrap();
    let addr = server.local_addr();

    let bad = "{this is not json";
    let mut client = ResponseReader::new(TcpStream::connect(addr).unwrap());
    client.write_all(
        format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{bad}",
            bad.len()
        )
        .as_bytes(),
    );
    let (status, head, _) = client.read_one();
    assert_eq!(status, 400);
    assert!(
        head.to_ascii_lowercase().contains("connection: keep-alive"),
        "routed 400 must honor keep-alive: {head}"
    );

    client.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let (status, _, body) = client.read_one();
    assert_eq!(status, 200, "reuse after 400 failed: {body}");

    // A third request with `Connection: close` ends the session.
    client.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (status, head, _) = client.read_one();
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("connection: close"));
    client.expect_clean_close();
    shutdown_and_clean(server);
}

/// Keep-alive reuse is visible in `/metrics`, and a request whose body is
/// followed by leftover bytes of the *next* request keeps those bytes:
/// submit (with body) + status GET pipelined in one segment, then a third
/// request written separately.
#[test]
fn leftover_bytes_carry_over_after_a_body() {
    let server = Server::start(config("leftover")).unwrap();
    let addr = server.local_addr();

    let spec = r#"{"kind":"characterize","array":"1x1","trials":8,"seed":7}"#;
    // The GET rides in the same TCP segment as the POST body — the
    // old reader truncated it away with `body.truncate(declared)`.
    let wire = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        spec.len()
    );
    let mut client = ResponseReader::new(TcpStream::connect(addr).unwrap());
    client.write_all(wire.as_bytes());
    let (status, _, body) = client.read_one();
    assert_eq!(status, 202, "{body}");
    let (status, _, body) = client.read_one();
    assert_eq!(status, 200, "leftover GET was lost: {body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Reuse shows up on the scoreboard.
    client.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let (status, _, metrics) = client.read_one();
    assert_eq!(status, 200);
    let reuses: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("emgrid_http_keepalive_reuses_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("keepalive reuse counter in scrape");
    assert!(reuses >= 2, "expected >=2 reuses, saw {reuses}");
    shutdown_and_clean(server);
}

/// The value of a counter series in a scrape (label-free exact match).
fn scrape_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` in scrape"))
}

/// Connection scale: a daemon with the default configuration holds 128
/// keep-alive connections from one client at once. That is twice the
/// default per-client in-flight cap of 64, so requests over the cap wait
/// in the deferred queue. Each of 8 rounds writes one healthz on every
/// connection before reading any response. The client reads blocking
/// sockets in connection order: no `poll`, no thread per connection.
#[test]
fn default_daemon_serves_128_keep_alive_connections_from_one_client() {
    const CONNECTIONS: usize = 128;
    const ROUNDS: usize = 8;
    let server = Server::start(config("scale")).unwrap();
    let addr = server.local_addr();

    let mut clients: Vec<ResponseReader> = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            // A wedged daemon fails the test instead of hanging it.
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            ResponseReader::new(stream)
        })
        .collect();
    for round in 0..ROUNDS {
        for client in &mut clients {
            client.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        }
        for (i, client) in clients.iter_mut().enumerate() {
            let (status, _, body) = client.read_one();
            assert_eq!(status, 200, "round {round}, connection {i}: {body}");
        }
    }

    let mut scrape = ResponseReader::new(TcpStream::connect(addr).unwrap());
    scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (status, _, metrics) = scrape.read_one();
    assert_eq!(status, 200);
    assert!(
        metrics
            .lines()
            .any(|l| l == "emgrid_http_responses_total{status_class=\"5xx\"} 0"),
        "server errors under connection load:\n{metrics}"
    );
    // Every request after a connection's first reuses it.
    let reuses = scrape_value(&metrics, "emgrid_http_keepalive_reuses_total");
    let expected = ((ROUNDS - 1) * CONNECTIONS) as u64;
    assert!(
        reuses >= expected,
        "{reuses} keep-alive reuses, expected >= {expected}"
    );
    drop(clients);
    shutdown_and_clean(server);
}

/// One `Connection: close` request on a fresh socket, surfacing
/// transport errors instead of panicking — a connection shed without its
/// request being read can be reset (RST) by the server's close, which is
/// retryable, not fatal.
fn try_request_close(addr: SocketAddr, method: &str, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        )
        .as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("malformed response: {raw:?}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Accept-path regressions:
///
/// 1. Shed 503s are written nonblocking — a storm of shed connections
///    whose clients never read their sockets must not stall the accept
///    path (the old code did a blocking write with a 1s timeout *on the
///    accept thread*, so N slow clients could freeze accepts for N
///    seconds).
/// 2. Shed connections count as requests, so
///    `requests_total ≥ responses_total` holds even under a shed storm
///    (sheds used to increment only the response side).
#[test]
fn shed_storm_of_unread_sockets_does_not_stall_accepts_and_keeps_counters_sane() {
    let mut cfg = config("shed-storm");
    cfg.max_connections = 1;
    cfg.request_deadline = Duration::from_secs(30);
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    // Occupy the single slot with an idle connection.
    let slot_holder = TcpStream::connect(addr).unwrap();
    // Make sure the server has accepted it before the storm begins.
    std::thread::sleep(Duration::from_millis(100));

    // Open a storm of connections that are shed; none of them ever
    // reads its 503. With the old blocking shed-write this is worth
    // up to `storm × 1s` of accept-thread stall.
    let storm = 30u64;
    let started = Instant::now();
    let mut unread: Vec<TcpStream> = Vec::new();
    for _ in 0..storm {
        unread.push(TcpStream::connect(addr).unwrap());
    }
    // Every storm connection received its 503 (peek observes without
    // consuming — the sockets stay "unread" from the server's view)
    // in far less than the old worst case of storm × 1s of blocking
    // shed writes on the accept thread.
    for sock in &unread {
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut probe = [0u8; 16];
        let n = sock.peek(&mut probe).expect("shed 503 never arrived");
        assert!(n > 0, "empty shed response");
        assert!(probe.starts_with(b"HTTP/1.1 503"));
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "accept path stalled by unread shed sockets"
    );

    // Free the slot, then scrape (while the slot was held, scrapes
    // themselves would be shed).
    drop(slot_holder);
    drop(unread);
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        // A still-shed probe can be RST by the server's close (the 503
        // is written without reading our request); treat transport
        // errors like a non-200 and retry.
        if let Ok((200, m)) = try_request_close(addr, "GET", "/metrics") {
            break m;
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    };
    let requests = scrape_value(&metrics, "emgrid_http_requests_total");
    let responses: u64 = ["2xx", "3xx", "4xx", "5xx"]
        .iter()
        .map(|class| {
            metrics
                .lines()
                .find_map(|l| {
                    l.strip_prefix(&format!(
                        "emgrid_http_responses_total{{status_class=\"{class}\"}} "
                    ))
                })
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    assert!(
        requests >= responses,
        "responses ({responses}) exceed requests ({requests}):\n{metrics}"
    );
    assert!(
        requests >= storm,
        "sheds not counted as requests: {requests} < {storm}"
    );
    shutdown_and_clean(server);
}
