//! Minimal blocking HTTP/1.1 keep-alive client for the daemon workload.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request that gets no complete response within this long fails.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One keep-alive connection, reopened when the server closes it.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened.
    pub connects: u64,
    /// Requests sent.
    pub requests: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
            requests: 0,
        }
    }

    /// Sends one request and returns the status code and body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body) {
            // A kept-alive connection the server already closed fails
            // before any response byte: retry once on a fresh one.
            Err(e) if reused && e.kind() == io::ErrorKind::UnexpectedEof => {
                self.conn = None;
                self.try_request(method, path, body)
            }
            other => other,
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        self.requests += 1;
        let result = exchange(
            self.conn.as_mut().expect("connected above"),
            method,
            path,
            body,
        );
        match &result {
            Ok((_, _, keep_alive)) if *keep_alive => {}
            _ => self.conn = None,
        }
        result.map(|(status, body, _)| (status, body))
    }
}

/// Writes one request and reads its response: `(status, body, keep_alive)`.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n",
        body.len()
    )
    .into_bytes();
    if !body.is_empty() {
        req.extend_from_slice(b"Content-Type: application/json\r\n");
    }
    req.extend_from_slice(b"\r\n");
    req.extend_from_slice(body);
    conn.get_mut().write_all(&req)?;

    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body)?;
    Ok((status, body, keep_alive))
}
