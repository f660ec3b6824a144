//! The daemon's I/O layer: one `poll(2)` event loop owning every
//! connection, plus a small dispatcher pool that runs route handlers.
//!
//! # State machine
//!
//! Each connection walks `Reading → (Pending) → Dispatching → Writing`,
//! then either closes or loops back to `Reading` (HTTP/1.1 keep-alive).
//! Oversized bodies take the `Writing → Draining` detour: the 413 goes
//! out first, then up to 1 MiB of the declared body is discarded so the
//! close is a clean FIN rather than an RST that could destroy the
//! response in flight. The event loop never blocks on a socket — reads
//! and writes happen only when `poll` reports readiness, and request
//! deadlines, sheds and the 413 drain are state-machine timeouts.
//!
//! # Admission control
//!
//! Parsed requests are dispatched over two lanes. Interactive routes
//! (healthz, metrics, status, result, cancel) go to the interactive
//! lane; submit, sweep, and unknown routes go to the bulk lane.
//! Dispatcher 0 serves *only* the interactive lane and the rest prefer
//! it, so a flood of bulk submissions can never starve a liveness probe.
//! A per-client (peer IP) in-flight cap bounds how many handlers one
//! client can occupy at once; requests over the cap wait in a deferred
//! queue — delayed, not rejected.
//!
//! # Invariants
//!
//! * Handler panics are caught in the dispatcher, counted in
//!   `emgrid_http_connection_panics_total`, and close the connection
//!   without a response — no slot leaks, no daemon crash.
//! * Every response written is counted by status class, and every
//!   counted response (plus every shed and panicked request) was first
//!   counted as a request, so `requests_total ≥ responses_total` always.
//! * Shed 503s are written nonblocking and can never stall the accept
//!   path.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{HttpError, Request, RequestBuffer, Response};
use crate::metrics::Metrics;
use crate::poll::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use crate::server::{route, route_label, Shared};

/// Budget for finishing a response write once it has started.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);
/// Budget for a shed 503 to drain to a slow client.
const SHED_WRITE_DEADLINE: Duration = Duration::from_secs(1);
/// Most bytes of an oversized body discarded before closing.
const MAX_DRAIN_BYTES: usize = 1 << 20;
/// Per-connection read budget per loop iteration, so one firehose client
/// cannot monopolize an iteration.
const READ_BUDGET: usize = 64 * 1024;
/// Most shed writes in flight at once; beyond this the connection is
/// dropped without a response (the request is still counted).
const MAX_PENDING_SHEDS: usize = 1024;

/// Tuning knobs threaded through from `ServeConfig`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventLoopOptions {
    /// Dispatcher threads (min 2: one interactive-only, one bulk-capable).
    pub dispatchers: usize,
    /// Per-peer-IP in-flight handler cap (0 = unlimited).
    pub max_in_flight_per_client: usize,
}

/// What happens after the current write buffer finishes.
enum After {
    Close,
    KeepAlive,
    Drain(usize),
}

enum State {
    /// Waiting for (more of) a request; polled for `POLLIN`.
    Reading,
    /// Parsed but deferred by the per-client cap; not polled.
    Pending(Box<Request>),
    /// In a dispatcher's hands; not polled.
    Dispatching,
    /// Response bytes queued; polled for `POLLOUT`.
    Writing {
        out: Vec<u8>,
        pos: usize,
        then: After,
    },
    /// Discarding an oversized body before close; polled for `POLLIN`.
    Draining { left: usize },
}

struct Conn {
    stream: TcpStream,
    ip: IpAddr,
    buf: RequestBuffer,
    state: State,
    /// Current state's deadline. Not enforced while a handler runs
    /// (`Pending`/`Dispatching`): the request deadline bounds reading a
    /// request, not serving it.
    deadline: Instant,
    /// Requests fully served on this connection.
    served: u64,
    /// Wall-clock start of the request in flight (for the route histogram).
    started: Instant,
    /// Route label of the request in flight.
    label: &'static str,
}

/// A shed 503 still draining to its client, written nonblocking so a
/// client that never reads cannot stall accepts (it gets dropped at the
/// 1s deadline instead). Once the 503 is fully written the socket
/// lingers read-side until the client's FIN: the shed never read the
/// request, and closing with unread bytes in the receive buffer turns
/// into an RST that can destroy the 503 in flight.
struct Shed {
    stream: TcpStream,
    out: Vec<u8>,
    pos: usize,
    deadline: Instant,
}

impl Shed {
    fn writing(&self) -> bool {
        self.pos < self.out.len()
    }
}

/// Discards readable bytes until the peer's FIN. Returns `true` when the
/// socket is finished (EOF or error) and can be dropped without an RST.
fn drained(stream: &mut TcpStream) -> bool {
    let mut scratch = [0u8; 4096];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// A request handed to the dispatcher pool.
struct Work {
    token: u64,
    ip: IpAddr,
    request: Request,
}

/// A finished (or panicked) dispatch coming back to the event loop.
struct Done {
    token: u64,
    ip: IpAddr,
    keep_alive: bool,
    /// `None` = the handler panicked.
    response: Option<Response>,
}

#[derive(Default)]
struct LaneQueues {
    interactive: VecDeque<Work>,
    bulk: VecDeque<Work>,
    shutdown: bool,
}

/// The two dispatch lanes plus the wakeup used by dispatcher threads.
struct Lanes {
    queues: Mutex<LaneQueues>,
    ready: Condvar,
}

impl Lanes {
    fn push(&self, work: Work, interactive: bool) {
        let mut q = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        if interactive {
            q.interactive.push_back(work);
        } else {
            q.bulk.push_back(work);
        }
        drop(q);
        self.ready.notify_all();
    }

    /// Blocks until work is available for dispatcher `index` (dispatcher 0
    /// only ever takes interactive work) or shutdown is signalled.
    fn take(&self, index: usize) -> Option<Work> {
        let mut q = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(work) = q.interactive.pop_front() {
                return Some(work);
            }
            if index != 0 {
                if let Some(work) = q.bulk.pop_front() {
                    return Some(work);
                }
            }
            if q.shutdown {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn shut_down(&self) {
        self.queues
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.ready.notify_all();
    }
}

/// Whether a route label belongs to the interactive lane.
fn is_interactive(label: &str) -> bool {
    matches!(
        label,
        "healthz" | "metrics" | "status" | "result" | "cancel"
    )
}

/// Runs the event loop until `shared.jobs.shutting_down` is observed. This is
/// the body of the daemon's accept thread.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, opts: EventLoopOptions) {
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("emgrid-serve: cannot set listener nonblocking: {e}");
        return;
    }
    let waker = Arc::new(match Waker::new() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("emgrid-serve: cannot create event-loop waker: {e}");
            return;
        }
    });
    let lanes = Arc::new(Lanes {
        queues: Mutex::new(LaneQueues::default()),
        ready: Condvar::new(),
    });
    let completions: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));

    let dispatcher_count = opts.dispatchers.max(2);
    let mut dispatchers = Vec::with_capacity(dispatcher_count);
    for index in 0..dispatcher_count {
        let lanes = Arc::clone(&lanes);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        let shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("emgrid-dispatch-{index}"))
            .spawn(move || {
                while let Some(work) = lanes.take(index) {
                    let response =
                        catch_unwind(AssertUnwindSafe(|| route(&work.request, &shared))).ok();
                    completions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Done {
                            token: work.token,
                            ip: work.ip,
                            keep_alive: work.request.keep_alive,
                            response,
                        });
                    waker.wake();
                }
            })
            .expect("spawn dispatcher thread");
        dispatchers.push(handle);
    }

    let mut loop_state = LoopState {
        shared: Arc::clone(&shared),
        lanes: Arc::clone(&lanes),
        conns: HashMap::new(),
        sheds: Vec::new(),
        in_flight: HashMap::new(),
        deferred: VecDeque::new(),
        next_token: 0,
        cap: opts.max_in_flight_per_client,
    };
    let mut pollfds: Vec<PollFd> = Vec::new();
    // pollfds[i] maps back to owners[i].
    let mut owners: Vec<Owner> = Vec::new();

    while !shared.jobs.shutting_down.load(Ordering::SeqCst) {
        for done in std::mem::take(&mut *completions.lock().unwrap_or_else(|e| e.into_inner())) {
            loop_state.complete(done);
        }
        loop_state.retry_deferred();

        pollfds.clear();
        owners.clear();
        pollfds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        owners.push(Owner::Listener);
        pollfds.push(PollFd::new(waker.poll_fd(), POLLIN));
        owners.push(Owner::Waker);
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        let arm = |deadline: Instant, slot: &mut Option<Instant>| {
            *slot = Some(slot.map_or(deadline, |d| d.min(deadline)));
        };
        for (token, conn) in &loop_state.conns {
            let interest = match conn.state {
                State::Reading | State::Draining { .. } => POLLIN,
                State::Writing { .. } => POLLOUT,
                State::Pending(_) | State::Dispatching => continue,
            };
            arm(conn.deadline, &mut next_deadline);
            pollfds.push(PollFd::new(conn.stream.as_raw_fd(), interest));
            owners.push(Owner::Conn(*token));
        }
        for (index, shed) in loop_state.sheds.iter().enumerate() {
            arm(shed.deadline, &mut next_deadline);
            let interest = if shed.writing() { POLLOUT } else { POLLIN };
            pollfds.push(PollFd::new(shed.stream.as_raw_fd(), interest));
            owners.push(Owner::Shed(index));
        }
        let timeout = next_deadline.map(|d| d.saturating_duration_since(now));
        if poll_fds(&mut pollfds, timeout).is_err() {
            // EINVAL and friends would spin; a brief sleep keeps the loop
            // alive without burning a core.
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut ready_conns: Vec<u64> = Vec::new();
        let mut ready_sheds: Vec<usize> = Vec::new();
        let mut accept_ready = false;
        for (fd, owner) in pollfds.iter().zip(&owners) {
            if fd.revents() == 0 {
                continue;
            }
            match owner {
                Owner::Listener => accept_ready = true,
                Owner::Waker => waker.drain(),
                Owner::Conn(token) => ready_conns.push(*token),
                Owner::Shed(index) => ready_sheds.push(*index),
            }
        }

        if accept_ready {
            loop_state.accept_burst(&listener);
        }
        for token in ready_conns {
            loop_state.advance(token);
        }
        // Highest index first so swap_remove cannot move an entry that a
        // later (smaller) index still refers to.
        ready_sheds.sort_unstable_by(|a, b| b.cmp(a));
        for index in ready_sheds {
            loop_state.advance_shed(index);
        }
        loop_state.expire(Instant::now());
        shared
            .active_connections
            .store(loop_state.conns.len(), Ordering::SeqCst);
    }

    lanes.shut_down();
    for handle in dispatchers {
        let _ = handle.join();
    }
    shared.active_connections.store(0, Ordering::SeqCst);
}

enum Owner {
    Listener,
    Waker,
    Conn(u64),
    Shed(usize),
}

struct LoopState {
    shared: Arc<Shared>,
    lanes: Arc<Lanes>,
    conns: HashMap<u64, Conn>,
    sheds: Vec<Shed>,
    /// Dispatched-but-unfinished requests per peer IP.
    in_flight: HashMap<IpAddr, usize>,
    /// Tokens parsed but over their IP's in-flight cap, oldest first.
    deferred: VecDeque<u64>,
    next_token: u64,
    cap: usize,
}

impl LoopState {
    fn accept_burst(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if self.conns.len() >= self.shared.max_connections {
                        self.shed(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            ip: peer.ip(),
                            buf: RequestBuffer::new(),
                            state: State::Reading,
                            deadline: now + self.shared.request_deadline,
                            served: 0,
                            started: now,
                            label: "other",
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Queues a nonblocking 503 on an over-capacity connection. The shed
    /// is both a request and a response for accounting purposes — the
    /// counters move here, whether or not the bytes ever drain.
    fn shed(&mut self, stream: TcpStream) {
        Metrics::inc(&self.shared.jobs.metrics.http_requests);
        let response = Response::error(503, "too many connections");
        self.shared.jobs.metrics.count_response(response.status);
        let out = response.to_bytes();
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut shed = Shed {
            stream,
            out,
            pos: 0,
            deadline: Instant::now() + SHED_WRITE_DEADLINE,
        };
        if !write_some(&mut shed.stream, &shed.out, &mut shed.pos) {
            return; // socket error: nothing more to do
        }
        if !shed.writing() {
            let _ = shed.stream.shutdown(Shutdown::Write);
            if drained(&mut shed.stream) {
                return;
            }
        }
        if self.sheds.len() < MAX_PENDING_SHEDS {
            self.sheds.push(shed);
        }
    }

    fn advance_shed(&mut self, index: usize) {
        let shed = &mut self.sheds[index];
        if shed.writing() {
            if !write_some(&mut shed.stream, &shed.out, &mut shed.pos) {
                self.sheds.swap_remove(index);
                return;
            }
            if shed.writing() {
                return;
            }
            let _ = shed.stream.shutdown(Shutdown::Write);
        }
        if drained(&mut shed.stream) {
            self.sheds.swap_remove(index);
        }
    }

    /// Drives one connection forward on readiness.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match &mut conn.state {
            State::Reading => {
                let mut chunk = [0u8; 4096];
                let mut budget = READ_BUDGET;
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            if conn.buf.is_empty() {
                                self.close(token);
                            } else {
                                self.early_error(
                                    token,
                                    Response::error(400, "connection closed mid-request"),
                                );
                            }
                            return;
                        }
                        Ok(n) => {
                            conn.buf.extend(&chunk[..n]);
                            budget = budget.saturating_sub(n);
                            if budget == 0 {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.close(token);
                            return;
                        }
                    }
                }
                self.try_start_request(token);
            }
            State::Writing { out, pos, .. } => {
                if !write_some(&mut conn.stream, out, pos) {
                    self.close(token);
                    return;
                }
                if *pos >= out.len() {
                    self.finish_write(token);
                }
            }
            State::Draining { left } => {
                let mut sink = [0u8; 4096];
                loop {
                    match conn.stream.read(&mut sink) {
                        Ok(0) => {
                            self.close(token);
                            return;
                        }
                        Ok(n) => {
                            *left = left.saturating_sub(n);
                            if *left == 0 {
                                self.close(token);
                                return;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.close(token);
                            return;
                        }
                    }
                }
            }
            State::Pending(_) | State::Dispatching => {}
        }
    }

    /// Parses as much as the buffer allows and moves the connection into
    /// dispatch (or deferral) when a full request is present.
    fn try_start_request(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !matches!(conn.state, State::Reading) {
            return;
        }
        match conn.buf.try_parse(self.shared.max_body) {
            Ok(None) => {}
            Ok(Some(request)) => {
                Metrics::inc(&self.shared.jobs.metrics.http_requests);
                if conn.served > 0 {
                    Metrics::inc(&self.shared.jobs.metrics.keepalive_reuses);
                }
                conn.started = Instant::now();
                conn.label = route_label(&request);
                let ip = conn.ip;
                let over_cap =
                    self.cap > 0 && self.in_flight.get(&ip).copied().unwrap_or(0) >= self.cap;
                if over_cap {
                    conn.state = State::Pending(Box::new(request));
                    self.deferred.push_back(token);
                } else {
                    conn.state = State::Dispatching;
                    *self.in_flight.entry(ip).or_insert(0) += 1;
                    let label = conn.label;
                    self.lanes
                        .push(Work { token, ip, request }, is_interactive(label));
                }
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                Metrics::inc(&self.shared.jobs.metrics.http_requests);
                let response = Response::error(
                    413,
                    format!("body too large: {declared} bytes (limit {limit})"),
                );
                self.shared.jobs.metrics.count_response(response.status);
                let drain = declared.min(MAX_DRAIN_BYTES);
                conn.label = "other";
                conn.state = State::Writing {
                    out: response.to_bytes(),
                    pos: 0,
                    then: After::Drain(drain),
                };
                conn.deadline = Instant::now() + WRITE_DEADLINE;
                self.advance(token);
            }
            Err(HttpError::BadRequest(message)) => {
                self.early_error(token, Response::error(400, message));
            }
        }
    }

    /// Queues a protocol-level error (400/408) that both counts as a
    /// request and closes the connection after writing.
    fn early_error(&mut self, token: u64, response: Response) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        Metrics::inc(&self.shared.jobs.metrics.http_requests);
        self.shared.jobs.metrics.count_response(response.status);
        conn.label = "other";
        conn.state = State::Writing {
            out: response.to_bytes(),
            pos: 0,
            then: After::Close,
        };
        conn.deadline = Instant::now() + WRITE_DEADLINE;
        self.advance(token);
    }

    /// Handles a dispatcher result: write the response, or close the
    /// connection if the handler panicked.
    fn complete(&mut self, done: Done) {
        if let Some(count) = self.in_flight.get_mut(&done.ip) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.in_flight.remove(&done.ip);
            }
        }
        let Some(conn) = self.conns.get_mut(&done.token) else {
            return;
        };
        let Some(mut response) = done.response else {
            Metrics::inc(&self.shared.jobs.metrics.connection_panics);
            self.close(done.token);
            return;
        };
        response.close = !done.keep_alive;
        self.shared.jobs.metrics.count_response(response.status);
        let then = if response.close {
            After::Close
        } else {
            After::KeepAlive
        };
        conn.state = State::Writing {
            out: response.to_bytes(),
            pos: 0,
            then,
        };
        conn.deadline = Instant::now() + WRITE_DEADLINE;
        self.advance(done.token);
    }

    /// Runs deferred requests whose client dropped back under the cap.
    fn retry_deferred(&mut self) {
        let mut still_blocked = VecDeque::new();
        while let Some(token) = self.deferred.pop_front() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let ip = conn.ip;
            let over_cap =
                self.cap > 0 && self.in_flight.get(&ip).copied().unwrap_or(0) >= self.cap;
            if over_cap {
                still_blocked.push_back(token);
                continue;
            }
            let State::Pending(request) = std::mem::replace(&mut conn.state, State::Dispatching)
            else {
                continue;
            };
            *self.in_flight.entry(ip).or_insert(0) += 1;
            let label = conn.label;
            self.lanes.push(
                Work {
                    token,
                    ip,
                    request: *request,
                },
                is_interactive(label),
            );
        }
        self.deferred = still_blocked;
    }

    /// A response finished writing: close, start draining, or loop back to
    /// keep-alive reading (serving any pipelined request already buffered).
    fn finish_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let then = match std::mem::replace(&mut conn.state, State::Reading) {
            State::Writing { then, .. } => then,
            other => {
                conn.state = other;
                return;
            }
        };
        match then {
            After::Close => {
                self.shared
                    .jobs
                    .metrics
                    .observe_route(conn.label, conn.started.elapsed());
                self.close(token);
            }
            After::Drain(left) => {
                self.shared
                    .jobs
                    .metrics
                    .observe_route(conn.label, conn.started.elapsed());
                if left == 0 {
                    self.close(token);
                } else {
                    conn.state = State::Draining { left };
                    conn.deadline = Instant::now() + WRITE_DEADLINE;
                }
            }
            After::KeepAlive => {
                self.shared
                    .jobs
                    .metrics
                    .observe_route(conn.label, conn.started.elapsed());
                conn.served += 1;
                conn.deadline = Instant::now() + self.shared.request_deadline;
                conn.started = Instant::now();
                // Pipelining: the next request may already be buffered.
                self.try_start_request(token);
            }
        }
    }

    /// Enforces state deadlines. A fresh connection that never delivered a
    /// request gets a 408 (slow-loris gets told); an idle keep-alive
    /// connection that already served requests is closed silently (that is
    /// the normal end of its life, not a client error).
    fn expire(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                !matches!(conn.state, State::Pending(_) | State::Dispatching)
                    && now >= conn.deadline
            })
            .map(|(token, _)| *token)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get(&token) else {
                continue;
            };
            match conn.state {
                State::Reading if conn.served == 0 || !conn.buf.is_empty() => {
                    self.early_error(
                        token,
                        Response::error(408, "request read deadline exceeded"),
                    );
                }
                _ => self.close(token),
            }
        }
        self.sheds.retain(|shed| now < shed.deadline);
    }

    fn close(&mut self, token: u64) {
        self.conns.remove(&token);
    }
}

/// Writes as much of `out[*pos..]` as the socket accepts right now.
/// Returns `false` on a fatal socket error.
fn write_some(stream: &mut TcpStream, out: &[u8], pos: &mut usize) -> bool {
    while *pos < out.len() {
        match stream.write(&out[*pos..]) {
            Ok(0) => return false,
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    let _ = stream.flush();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_zero_never_takes_bulk_work() {
        let lanes = Lanes {
            queues: Mutex::new(LaneQueues::default()),
            ready: Condvar::new(),
        };
        let request = Request {
            method: "POST".into(),
            target: "/v1/jobs".into(),
            headers: vec![],
            body: vec![],
            keep_alive: true,
        };
        lanes.push(
            Work {
                token: 1,
                ip: "127.0.0.1".parse().unwrap(),
                request,
            },
            false,
        );
        lanes.shut_down();
        // Dispatcher 0 is interactive-only: with only bulk work queued it
        // must come back empty rather than take the submit.
        assert!(lanes.take(0).is_none());
        assert!(lanes.take(1).is_some());
    }

    #[test]
    fn interactive_labels_are_the_latency_sensitive_routes() {
        for label in ["healthz", "metrics", "status", "result", "cancel"] {
            assert!(is_interactive(label), "{label}");
        }
        for label in ["submit", "sweep", "other"] {
            assert!(!is_interactive(label), "{label}");
        }
    }
}
