//! A deliberately small HTTP/1.1 server-side protocol layer.
//!
//! `std::net` gives us TCP; this module adds just enough HTTP on top for
//! the daemon's JSON API: request-line + header parsing with hard caps,
//! `Content-Length` bodies bounded by the server's configured maximum,
//! and response serialization.
//!
//! Parsing is incremental: a [`RequestBuffer`] accumulates bytes as the
//! event loop reads them and [`RequestBuffer::try_parse`] peels complete
//! requests off the front,
//! preserving any leftover bytes for the next request on the same
//! connection — the foundation of HTTP/1.1 keep-alive and pipelining.
//! The header-terminator scan resumes where the previous chunk left off,
//! so a head trickled in byte-wise costs O(n), not O(n²).
//!
//! Responses carry an explicit [`Response::close`] flag: protocol-level
//! failures (malformed framing, timeouts, oversized bodies, shed
//! connections) always close because request framing can no longer be
//! trusted, while routed responses — errors included — keep the connection
//! open when the client asked for keep-alive.

use std::fmt;

use crate::json::Json;

/// Upper bound on request line + headers, bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target as sent (path plus optional query).
    pub target: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the client asked to reuse the connection: HTTP/1.1 defaults
    /// to keep-alive unless `Connection: close` was sent; HTTP/1.0 defaults
    /// to close unless `Connection: keep-alive` was sent.
    pub keep_alive: bool,
}

impl Request {
    /// The path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not valid HTTP.
    BadRequest(String),
    /// The declared body exceeds the server's limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body too large: {declared} bytes (limit {limit})")
            }
        }
    }
}

/// Finds the `\r\n\r\n` head terminator at or after `from`.
fn find_terminator(bytes: &[u8], from: usize) -> Option<usize> {
    bytes
        .get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| pos + from)
}

/// Accumulated inbound bytes for one connection, with incremental request
/// parsing. Bytes beyond the first complete request stay buffered — they
/// are the start of the next pipelined request, not garbage to truncate.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// Resume point for the head-terminator scan: every position before
    /// this index is known not to start `\r\n\r\n`. Without it, each
    /// arriving chunk would rescan the whole accumulated head
    /// (`windows(4).position` from zero) — O(n²) on a 16 KiB header
    /// trickled byte-wise.
    scanned: usize,
    /// Cached terminator position once found, so chunks that merely grow
    /// the body do not re-scan (or re-parse) the head.
    head_end: Option<usize>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any unconsumed bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Buffered, unconsumed bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// Returns `Ok(None)` when more bytes are needed. On success the
    /// consumed bytes are drained and any leftover (the next pipelined
    /// request) is preserved.
    ///
    /// # Errors
    ///
    /// [`HttpError::BadRequest`] on malformed framing,
    /// [`HttpError::BodyTooLarge`] when the declared `Content-Length`
    /// exceeds `max_body`. After an error the buffer contents are
    /// unspecified and the connection must be closed.
    pub fn try_parse(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        let split = match self.head_end {
            Some(pos) => pos,
            None => match find_terminator(&self.buf, self.scanned) {
                Some(pos) => {
                    if pos > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest("headers too large".into()));
                    }
                    self.head_end = Some(pos);
                    pos
                }
                None => {
                    // The terminator may straddle the next chunk boundary,
                    // so the last three bytes stay unscanned.
                    self.scanned = self.buf.len().saturating_sub(3);
                    if self.buf.len() > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest("headers too large".into()));
                    }
                    return Ok(None);
                }
            },
        };
        let head_text = std::str::from_utf8(&self.buf[..split])
            .map_err(|_| HttpError::BadRequest("headers are not UTF-8".into()))?;
        let mut lines = head_text.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::BadRequest("malformed request line".into()));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequest(format!(
                "unsupported version `{version}`"
            )));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let mut request = Request {
            method: method.to_ascii_uppercase(),
            target: target.to_owned(),
            headers,
            body: Vec::new(),
            keep_alive: false,
        };
        request.keep_alive = match request.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => version != "HTTP/1.0",
        };
        let declared: usize = match request.header("content-length") {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))?,
        };
        if declared > max_body {
            return Err(HttpError::BodyTooLarge {
                declared,
                limit: max_body,
            });
        }
        let body_start = split + 4;
        let total = body_start + declared;
        if self.buf.len() < total {
            return Ok(None);
        }
        request.body = self.buf[body_start..total].to_vec();
        // Leftover bytes are the next pipelined request — keep them.
        self.buf.drain(..total);
        self.scanned = 0;
        self.head_end = None;
        Ok(Some(request))
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether to announce `Connection: close` and drop the connection
    /// after writing. Constructors default to `true`; the serving layer
    /// flips it for routed responses on keep-alive connections. Protocol
    /// errors (bad framing, timeouts, sheds) always keep it `true`.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: value.to_string().into_bytes(),
            close: true,
        }
    }

    /// A JSON response from pre-rendered bytes (served verbatim).
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            close: true,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: true,
        }
    }

    /// A JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(status, &Json::Obj(vec![("error".into(), Json::s(message))]))
    }

    /// Serializes head + body into one buffer (what the event loop queues
    /// on a connection's write side).
    pub fn to_bytes(&self) -> Vec<u8> {
        let reason = reason_phrase(self.status);
        let connection = if self.close { "close" } else { "keep-alive" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection,
        );
        let mut out = Vec::with_capacity(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `bytes` to a fresh buffer in two chunks split at the midpoint,
    /// the way two socket reads deliver them, parsing after each chunk.
    /// Panics if the bytes end before a request is complete.
    fn parse_in_two_chunks(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let mut buffer = RequestBuffer::new();
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        for chunk in [head, tail] {
            buffer.extend(chunk);
            if let Some(request) = buffer.try_parse(max_body)? {
                return Ok(request);
            }
        }
        panic!("incomplete request: {:?}", String::from_utf8_lossy(bytes));
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw =
            b"POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n{\"a\":1}\r\n";
        let req = parse_in_two_chunks(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/jobs");
        assert_eq!(req.header("HOST"), Some("h"));
        assert_eq!(req.body, b"{\"a\":1}\r\n");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn enforces_the_body_limit() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        match parse_in_two_chunks(raw, 10) {
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (100, 10));
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_framing() {
        assert!(matches!(
            parse_in_two_chunks(b"NOT-HTTP\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_in_two_chunks(b"GET / SPDY/3\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_in_two_chunks(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n", 1024),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn connection_intent_follows_version_and_header() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, expect) in cases {
            let req = parse_in_two_chunks(raw, 1024).unwrap();
            assert_eq!(req.keep_alive, *expect, "{:?}", std::str::from_utf8(raw));
        }
    }

    #[test]
    fn pipelined_requests_are_preserved_not_truncated() {
        // Regression: the old reader read `Content-Length` worth of body and
        // then `body.truncate(declared)` silently discarded any bytes of the
        // next pipelined request that had arrived in the same chunk.
        let mut buffer = RequestBuffer::new();
        buffer.extend(
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\nHost: h\r\n\r\n",
        );
        let first = buffer.try_parse(1024).unwrap().expect("first request");
        assert_eq!((first.method.as_str(), first.path()), ("POST", "/a"));
        assert_eq!(first.body, b"abc");
        let second = buffer.try_parse(1024).unwrap().expect("second request");
        assert_eq!((second.method.as_str(), second.path()), ("GET", "/b"));
        assert!(buffer.is_empty());
        assert!(buffer.try_parse(1024).unwrap().is_none());
    }

    /// Satellite regression: the head-terminator scan must resume where the
    /// previous chunk stopped. A large header arriving byte-by-byte (the
    /// worst case for the old full-rescan) parses correctly, including a
    /// terminator straddling chunk boundaries.
    #[test]
    fn byte_wise_chunked_arrival_parses_with_a_resumed_scan() {
        let mut head = String::from("POST /big HTTP/1.1\r\nContent-Length: 4\r\n");
        while head.len() < 12 * 1024 {
            head.push_str("X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        head.push_str("\r\nbody");
        let raw = head.as_bytes();
        let mut buffer = RequestBuffer::new();
        let mut parsed = None;
        for (i, byte) in raw.iter().enumerate() {
            buffer.extend(std::slice::from_ref(byte));
            if let Some(req) = buffer.try_parse(1024).unwrap() {
                assert_eq!(i, raw.len() - 1, "parsed before the body finished");
                parsed = Some(req);
            }
        }
        let req = parsed.expect("request completed");
        assert_eq!(req.path(), "/big");
        assert_eq!(req.body, b"body");

        // Terminator split across two extends at every offset within it.
        for cut in 1..4 {
            let raw = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
            let split = raw.len() - cut;
            let mut buffer = RequestBuffer::new();
            buffer.extend(&raw[..split]);
            assert!(buffer.try_parse(1024).unwrap().is_none());
            buffer.extend(&raw[split..]);
            let req = buffer.try_parse(1024).unwrap().expect("straddled parse");
            assert_eq!(req.path(), "/x");
        }
    }

    #[test]
    fn oversized_heads_are_rejected_incrementally() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(b"GET / HTTP/1.1\r\n");
        let pad = vec![b'a'; MAX_HEAD_BYTES + 8];
        buffer.extend(&pad);
        assert!(matches!(
            buffer.try_parse(1024),
            Err(HttpError::BadRequest(m)) if m.contains("headers too large")
        ));
    }

    #[test]
    fn response_serializes_with_framing() {
        let bytes =
            Response::json(200, &Json::Obj(vec![("ok".into(), Json::Bool(true))])).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn keep_alive_responses_announce_it() {
        let mut response = Response::text(200, "ok");
        response.close = false;
        let bytes = response.to_bytes();
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }
    /// Wire fragments the byte generator mixes with raw bytes, so generated
    /// input reaches deep into the parser instead of failing at byte one.
    const WIRE_TOKENS: &[&[u8]] = &[
        b"GET /a HTTP/1.1",
        b"POST /v1/jobs HTTP/1.0",
        b"\r\n",
        b"\r\n\r\n",
        b"Content-Length: ",
        b"Connection: close",
        b"Connection: keep-alive",
        b": ",
        b"7",
        b"18446744073709551616",
        b"-1",
        b" ",
        b"\xff\xfe",
        b"\xc3",
    ];

    prop_compose! {
        fn wire_bytes()(
            pieces in collection::vec((0usize..2 * WIRE_TOKENS.len(), 0u16..256), 0..80),
        ) -> Vec<u8> {
            let mut out = Vec::new();
            for (pick, byte) in pieces {
                match WIRE_TOKENS.get(pick) {
                    Some(token) => out.extend_from_slice(token),
                    None => out.push(byte as u8),
                }
            }
            out
        }
    }

    /// The comparable parts of a request.
    type Parts = (String, String, Vec<(String, String)>, Vec<u8>, bool);

    fn parts(r: Request) -> Parts {
        (r.method, r.target, r.headers, r.body, r.keep_alive)
    }

    /// Parses every complete request buffered so far.
    fn drain(buffer: &mut RequestBuffer, out: &mut Vec<Parts>) -> Result<(), HttpError> {
        while let Some(request) = buffer.try_parse(1024)? {
            out.push(parts(request));
        }
        Ok(())
    }

    prop_compose! {
        fn request_bytes()(
            method in 0usize..4,
            path in "/[a-z0-9/]{0,12}",
            version in 0usize..2,
            connection in 0usize..3,
            headers in collection::vec(("X-[a-z]{1,8}", "[ -~]{0,16}"), 0..4),
            body in collection::vec(0u16..256, 0..40),
        ) -> Vec<u8> {
            let method = ["GET", "POST", "DELETE", "put"][method];
            let version = ["HTTP/1.1", "HTTP/1.0"][version];
            let mut head = format!("{method} {path} {version}\r\n");
            for (name, value) in headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str(["", "Connection: close\r\n", "Connection: keep-alive\r\n"][connection]);
            if !body.is_empty() {
                head.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            head.push_str("\r\n");
            let mut out = head.into_bytes();
            out.extend(body.into_iter().map(|b| b as u8));
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn try_parse_never_panics_on_arbitrary_chunks(
            wire in wire_bytes(),
            cuts in collection::vec(0usize..4096, 0..8),
            max_body in 0usize..64,
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(wire.len());
            let mut buffer = RequestBuffer::new();
            let mut from = 0;
            'feed: for to in cuts {
                buffer.extend(&wire[from..to]);
                from = to;
                loop {
                    match buffer.try_parse(max_body) {
                        Ok(Some(request)) => prop_assert!(request.body.len() <= max_body),
                        Ok(None) => break,
                        // The connection closes after a protocol error.
                        Err(_) => break 'feed,
                    }
                }
            }
        }

        #[test]
        fn pipelined_pairs_parse_the_same_at_every_split(
            first in request_bytes(),
            second in request_bytes(),
            leftover in "[ -~]{0,24}",
        ) {
            let mut wire = first;
            wire.extend_from_slice(&second);
            wire.extend_from_slice(leftover.as_bytes());
            let mut whole = RequestBuffer::new();
            whole.extend(&wire);
            let mut expected = Vec::new();
            prop_assert!(drain(&mut whole, &mut expected).is_ok());
            prop_assert_eq!(expected.len(), 2);
            for split in 0..=wire.len() {
                let mut buffer = RequestBuffer::new();
                let mut got = Vec::new();
                buffer.extend(&wire[..split]);
                prop_assert!(drain(&mut buffer, &mut got).is_ok());
                buffer.extend(&wire[split..]);
                prop_assert!(drain(&mut buffer, &mut got).is_ok());
                prop_assert!(got == expected, "split at {split}: {got:?} vs {expected:?}");
                prop_assert_eq!(&buffer.buf, &whole.buf);
            }
        }
    }
}
