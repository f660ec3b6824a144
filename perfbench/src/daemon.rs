//! `daemon_jobs`: an open loop of independent users submitting level-1
//! characterize jobs to `emgrid serve` at a fixed arrival rate, each job
//! polled to done and its result fetched over at most two keep-alive
//! connections, with `/metrics` scraped alongside.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use emgrid::prelude::*;
use emgrid::via::{ViaCheckpoint, ViaSession};
use emgrid_scenarios::SweepSpec;
use emgrid_serve::json::{self, Json};
use emgrid_serve::{JobStore, ServeConfig};

use crate::check::{self, DEFAULT_SEED};
use crate::http::Client;
use crate::stats::{median, peak_rss_mb, tail_percentile, timed_setup};
use crate::trace::Tracer;
use crate::{end_to_end, Args, Outcome};

const WORKLOAD: &str = "daemon_jobs";
/// Job arrivals per second: a quarter of the daemon's capacity measured on
/// the two-core reference machine (80–100 jobs/s), so that the machine's
/// slow phases still leave it under half capacity (see the README).
const RATE_PER_S: f64 = 20.0;
/// Load-side connections (and threads): the reference machine's `nproc`.
const CONNECTIONS: usize = 2;
const POLL_INTERVAL: Duration = Duration::from_millis(2);
const SCRAPE_INTERVAL: Duration = Duration::from_secs(1);
/// A job due this long before the window ends must be done by then, or the
/// run is saturated: its backlog was still growing.
const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// How long outstanding jobs may take to finish after the window.
const DRAIN: Duration = Duration::from_secs(10);
const SWEEP: &str = "examples/sweeps/fig08.json";
const WORK_DIR: &str = "perfbench/work";

/// One user's job.
struct Job {
    scheduled: Instant,
    seed: u64,
    body: String,
    id: Option<u64>,
    done: Option<Instant>,
    /// FNV-1a digest of the fetched result document.
    digest: u64,
    failed: Option<String>,
    polls: u32,
    checkpoints: f64,
    mc_s: Option<f64>,
    /// Request intervals, in order: `(layer, sent, answered)`.
    requests: Vec<(&'static str, Instant, Instant)>,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Submit,
    Poll,
    Fetch,
    Scrape,
}

/// The load generator's shared schedule.
struct Schedule {
    /// `(due, sequence, action, job)`, earliest first.
    heap: BinaryHeap<Reverse<(Instant, u64, Action, usize)>>,
    seq: u64,
    jobs: Vec<Job>,
    unresolved: usize,
    stop: bool,
    /// How late each action started after its due instant, seconds.
    lateness: Vec<f64>,
    metrics_text: String,
    non2xx: u64,
    connects: u64,
    requests: u64,
}

impl Schedule {
    fn push(&mut self, due: Instant, action: Action, job: usize) {
        self.seq += 1;
        self.heap.push(Reverse((due, self.seq, action, job)));
    }

    fn fail(&mut self, job: usize, why: String) {
        if self.jobs[job].failed.is_none() && self.jobs[job].done.is_none() {
            self.jobs[job].failed = Some(why);
            self.unresolved -= 1;
        }
    }
}

/// Lateness of an action that was due at `due` and started at `started`:
/// measured from the scheduled instant, so a stall counts against every
/// action queued behind it, not just the first.
pub fn lateness(due: Instant, started: Instant) -> Duration {
    started.saturating_duration_since(due)
}

/// The scheduled send instant of arrival `i` at `rate` per second.
pub fn arrival(start: Instant, rate: f64, i: usize) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// The request bodies of the 108-point Fig. 8 sweep, one per config.
fn sweep_jobs() -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(SWEEP).map_err(|e| format!("{SWEEP}: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| format!("{SWEEP}: {e}"))?;
    let jobs = spec.expand().map_err(|e| format!("{SWEEP}: {e}"))?;
    Ok(jobs.into_iter().map(|j| j.spec.to_json()).collect())
}

/// Job `i`'s body: the sweep configs in a seed-derived order, cycled,
/// each with its own derived MC seed.
fn job_body(configs: &[Json], order: &[usize], seed: u64, i: usize) -> (String, u64) {
    let job_seed = check::derive_seed(seed, &format!("job{i}"));
    let Json::Obj(mut pairs) = configs[order[i % order.len()]].clone() else {
        unreachable!("job specs are objects")
    };
    for (k, v) in &mut pairs {
        if k == "seed" {
            *v = Json::n(job_seed as f64);
        }
    }
    (Json::Obj(pairs).to_string(), job_seed)
}

/// A seed-derived permutation of `0..n` (Fisher–Yates on splitmix draws).
fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = check::derive_seed(seed, &format!("order{i}")) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// A running daemon child process and its state directory.
struct Daemon {
    child: Child,
    /// Held open for the daemon's lifetime: it writes to stdout after the
    /// banner, and a closed pipe would fail that write.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    state_dir: PathBuf,
}

impl Daemon {
    /// Starts `emgrid serve` with the default config on an ephemeral port
    /// and a fresh state dir, returning once `/healthz` answers 200.
    fn start(tag: usize) -> Result<Daemon, String> {
        let state_dir = Path::new(WORK_DIR).join(format!("daemon-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
            .arg(&state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            addr: "127.0.0.1:0".parse().expect("literal address"),
            child,
            _stdout: stdout,
            state_dir,
        };
        let mut banner = String::new();
        daemon
            ._stdout
            .read_line(&mut banner)
            .map_err(|e| e.to_string())?;
        daemon.addr = banner
            .trim()
            .strip_prefix("emgrid-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner `{}`", banner.trim()))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = Client::new(daemon.addr).request("GET", "/healthz", b"") {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    /// Stops the daemon, waits for it to exit, and removes its state.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let fail = |e: String| Outcome {
        errors: vec![e],
        ..Outcome::default()
    };
    let configs = match sweep_jobs() {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let order = order(args.seed, configs.len());
    // Each repetition's daemon is stopped (dropped) before the next one
    // starts; the last one serves the run.
    let mut tag = 0;
    let (daemon, setup_s) = timed_setup(31, || {
        tag += 1;
        Daemon::start(tag)
    });
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => return fail(e),
    };
    let reference: Option<Vec<u64>> = (args.seed == DEFAULT_SEED && !args.record)
        .then(|| check::reference(WORKLOAD))
        .flatten()
        .and_then(|r| match r {
            Json::Arr(items) => items
                .iter()
                .map(|d| d.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
                .collect(),
            _ => None,
        });
    let mut errors = Vec::new();
    if args.seed == DEFAULT_SEED && !args.record && reference.is_none() {
        errors.push("no stored reference".into());
    }

    let start = Instant::now() + Duration::from_millis(20);
    let window_end = start + Duration::from_secs_f64(args.seconds);
    let jobs: Vec<Job> = (0..)
        .map(|i| (i, arrival(start, RATE_PER_S, i)))
        .take_while(|&(_, t)| t < window_end)
        .map(|(i, scheduled)| {
            let (body, seed) = job_body(&configs, &order, args.seed, i);
            Job {
                scheduled,
                seed,
                body,
                id: None,
                done: None,
                digest: 0,
                failed: None,
                polls: 0,
                checkpoints: 0.0,
                mc_s: None,
                requests: Vec::new(),
            }
        })
        .collect();
    let mut schedule = Schedule {
        heap: BinaryHeap::new(),
        seq: 0,
        unresolved: jobs.len(),
        jobs,
        stop: false,
        lateness: Vec::new(),
        metrics_text: String::new(),
        non2xx: 0,
        connects: 0,
        requests: 0,
    };
    for i in 0..schedule.jobs.len() {
        let due = schedule.jobs[i].scheduled;
        schedule.push(due, Action::Submit, i);
    }
    schedule.push(start + SCRAPE_INTERVAL, Action::Scrape, 0);
    let shared = (Mutex::new(schedule), Condvar::new());
    let ctx = LoadCtx {
        addr: daemon.addr,
        window_end,
        reference: reference.as_deref(),
    };
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| connection(&ctx, &shared));
        }
        // Wait for every job to resolve or the drain deadline to pass.
        let (lock, cvar) = &shared;
        let deadline = window_end + DRAIN;
        let mut sched = lock.lock().expect("schedule lock");
        while sched.unresolved > 0 && Instant::now() < deadline {
            let wait = deadline.saturating_duration_since(Instant::now());
            sched = cvar
                .wait_timeout(sched, wait.min(Duration::from_millis(50)))
                .expect("schedule lock")
                .0;
        }
        sched.stop = true;
        cvar.notify_all();
    });
    let mut sched = shared.0.into_inner().expect("schedule lock");
    for i in 0..sched.jobs.len() {
        sched.fail(i, "timed out".into());
    }
    // One last scrape, after every job resolved.
    let mut client = Client::new(daemon.addr);
    if let Ok((200, body)) = client.request("GET", "/metrics", b"") {
        sched.metrics_text = String::from_utf8_lossy(&body).into_owned();
    }
    let rss = peak_rss_mb(&daemon.child.id().to_string());
    let state_bytes = dir_bytes(&daemon.state_dir);
    drop(daemon);

    let mut out = summarize(&sched, start, window_end, setup_s, rss.unwrap_or(f64::NAN));
    out.errors.append(&mut errors);
    if args.record {
        let digests: Vec<Json> = sched
            .jobs
            .iter()
            .map(|j| Json::s(format!("{:016x}", j.digest)))
            .collect();
        if out.failed > 0 {
            out.errors
                .push("not recording a run with failed jobs".into());
        } else if let Err(e) = check::record(WORKLOAD, Json::Arr(digests)) {
            out.errors.push(format!("cannot record reference: {e}"));
        }
    }
    if tracer.enabled() {
        trace_jobs(tracer, &sched, &mut out);
        let n = sched.jobs.len().max(1) as f64;
        out.layers
            .insert("serve.state_bytes_per_job", state_bytes as f64 / n);
        match probe_checkpoint() {
            Ok(ms) => {
                out.layers.insert("serve.checkpoint_ms", ms);
            }
            Err(e) => out.errors.push(format!("probe failed: {e}")),
        }
    }
    out
}

/// What every connection thread shares besides the schedule.
struct LoadCtx<'a> {
    addr: SocketAddr,
    window_end: Instant,
    reference: Option<&'a [u64]>,
}

/// One connection's loop: take the earliest due action, perform it, and
/// schedule what follows from its answer.
fn connection(ctx: &LoadCtx<'_>, shared: &(Mutex<Schedule>, Condvar)) {
    let (lock, cvar) = shared;
    let mut client = Client::new(ctx.addr);
    loop {
        let (due, action, i, request) = {
            let mut sched = lock.lock().expect("schedule lock");
            loop {
                if sched.stop {
                    sched.connects += client.connects;
                    sched.requests += client.requests;
                    return;
                }
                let now = Instant::now();
                match sched.heap.peek() {
                    Some(&Reverse((due, _, _, _))) if due <= now => break,
                    Some(&Reverse((due, _, _, _))) => {
                        sched = cvar
                            .wait_timeout(sched, due - now)
                            .expect("schedule lock")
                            .0;
                    }
                    None => sched = cvar.wait(sched).expect("schedule lock"),
                }
            }
            let Reverse((due, _, action, i)) = sched.heap.pop().expect("peeked");
            let late = lateness(due, Instant::now()).as_secs_f64();
            sched.lateness.push(late);
            let request = match action {
                Action::Submit => ("POST", "/v1/jobs".to_owned(), sched.jobs[i].body.clone()),
                Action::Poll => (
                    "GET",
                    format!("/v1/jobs/{}", sched.jobs[i].id.unwrap_or(0)),
                    String::new(),
                ),
                Action::Fetch => (
                    "GET",
                    format!("/v1/jobs/{}/result", sched.jobs[i].id.unwrap_or(0)),
                    String::new(),
                ),
                Action::Scrape => ("GET", "/metrics".to_owned(), String::new()),
            };
            (due, action, i, request)
        };
        let sent = Instant::now();
        let response = client.request(request.0, &request.1, request.2.as_bytes());
        let answered = Instant::now();
        let mut sched = lock.lock().expect("schedule lock");
        let (status, body) = match response {
            Ok(r) => r,
            Err(e) => {
                if action != Action::Scrape {
                    sched.fail(i, format!("{} {}: {e}", request.0, request.1));
                }
                cvar.notify_all();
                continue;
            }
        };
        if !(200..300).contains(&status) {
            sched.non2xx += 1;
        }
        if action == Action::Scrape {
            sched.metrics_text = String::from_utf8_lossy(&body).into_owned();
            let next = due + SCRAPE_INTERVAL;
            if next < ctx.window_end {
                sched.push(next, Action::Scrape, 0);
            }
            continue;
        }
        if sched.jobs[i].failed.is_some() {
            continue;
        }
        let layer = match action {
            Action::Submit => "serve.submit",
            Action::Poll => "serve.status",
            _ => "serve.result",
        };
        sched.jobs[i].requests.push((layer, sent, answered));
        let text = String::from_utf8_lossy(&body);
        if !(200..300).contains(&status) {
            sched.fail(
                i,
                format!("{} {} answered {status}: {text}", request.0, request.1),
            );
            cvar.notify_all();
            continue;
        }
        let doc = json::parse(&text);
        match action {
            Action::Submit => match doc.ok().and_then(|d| d.get("id").and_then(Json::as_u64)) {
                Some(id) => {
                    sched.jobs[i].id = Some(id);
                    sched.push(answered + POLL_INTERVAL, Action::Poll, i);
                }
                None => sched.fail(i, format!("submit answered `{text}`")),
            },
            Action::Poll => {
                sched.jobs[i].polls += 1;
                let doc = doc.unwrap_or(Json::Null);
                match doc.get("status").and_then(Json::as_str) {
                    Some("done") => {
                        let job = &mut sched.jobs[i];
                        job.checkpoints =
                            doc.get("checkpoints").and_then(Json::as_f64).unwrap_or(0.0);
                        job.mc_s = doc
                            .get("phases")
                            .and_then(|p| p.get("mc_seconds"))
                            .and_then(Json::as_f64);
                        sched.push(answered, Action::Fetch, i);
                    }
                    Some("queued" | "running" | "checkpointed") => {
                        sched.push(answered + POLL_INTERVAL, Action::Poll, i);
                    }
                    _ => sched.fail(i, format!("job ended as `{text}`")),
                }
            }
            Action::Fetch => {
                let digest = check::fnv64(&body);
                let job = &sched.jobs[i];
                let verdict = check_result(i, job.seed, &doc.ok(), digest, ctx.reference);
                match verdict {
                    Ok(()) => {
                        let job = &mut sched.jobs[i];
                        job.done = Some(answered);
                        job.digest = digest;
                        sched.unresolved -= 1;
                    }
                    Err(e) => sched.fail(i, e),
                }
            }
            Action::Scrape => unreachable!("handled above"),
        }
        cvar.notify_all();
    }
}

/// Checks one result document: at the default seed its digest must match
/// the stored reference; at any seed it must be a well-formed level-1
/// result for this job.
fn check_result(
    i: usize,
    seed: u64,
    doc: &Option<Json>,
    digest: u64,
    reference: Option<&[u64]>,
) -> Result<(), String> {
    if let Some(want) = reference.and_then(|r| r.get(i)) {
        if *want != digest {
            return Err(format!(
                "job {i}: result digest {digest:016x}, reference {want:016x}"
            ));
        }
    }
    let doc = doc
        .as_ref()
        .ok_or_else(|| format!("job {i}: result is not JSON"))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let ok = doc.get("kind").and_then(Json::as_str) == Some("characterize")
        && num("trials") == 400.0
        && num("trials_run") == 400.0
        && num("seed") == seed as f64
        && num("ttf_median_years") > 0.0
        && num("ttf_p03_years") > 0.0
        && num("ttf_p03_years") <= num("ttf_median_years")
        && num("lognormal_sigma") > 0.0
        && (0.0..=1.0).contains(&num("ks"));
    if ok {
        Ok(())
    } else {
        Err(format!("job {i}: implausible result {doc}"))
    }
}

/// The end-to-end metrics of a finished load run.
fn summarize(
    sched: &Schedule,
    start: Instant,
    window_end: Instant,
    setup_s: f64,
    rss: f64,
) -> Outcome {
    let latencies: Vec<f64> = sched
        .jobs
        .iter()
        .filter_map(|j| j.done.map(|d| (d - j.scheduled).as_secs_f64()))
        .collect();
    let last_done = sched
        .jobs
        .iter()
        .filter_map(|j| j.done)
        .max()
        .unwrap_or(start);
    let mut errors = Vec::new();
    // Saturated: a job due well before the window ended was still not done
    // when it ended, so the backlog was growing.
    let overdue = |j: &&Job| {
        j.scheduled + LATENCY_LIMIT < window_end && j.done.is_none_or(|d| d > window_end)
    };
    let backlog = sched.jobs.iter().filter(overdue).count();
    if backlog > 0 {
        errors.push(format!(
            "saturated: {backlog} jobs due over {LATENCY_LIMIT:?} before the window ended were not done by its end"
        ));
    }
    for (i, j) in sched.jobs.iter().enumerate() {
        if let Some(why) = &j.failed {
            eprintln!("job {i} failed: {why}");
        }
    }
    let p90 = tail_percentile(&latencies, 0.9);
    eprintln!(
        "jobs: {} submitted, {} done; latency p50 {:.2} ms, p90 {} over {} samples; generator late p99 {}",
        sched.jobs.len(),
        latencies.len(),
        median(&latencies).unwrap_or(f64::NAN) * 1e3,
        p90.map_or("n/a".into(), |v| format!("{:.2} ms", v * 1e3)),
        latencies.len(),
        tail_percentile(&sched.lateness, 0.99).map_or("n/a".into(), |v| format!("{:.2} ms", v * 1e3)),
    );
    Outcome {
        attempted: sched.jobs.len() as u64,
        // Overdue jobs missed the latency limit: they count as failed.
        failed: sched
            .jobs
            .iter()
            .filter(|j| j.failed.is_some() || overdue(j))
            .count() as u64,
        errors,
        e2e: end_to_end(
            latencies.len() as f64 / (last_done - start).as_secs_f64(),
            setup_s,
            rss,
        ),
        layers: BTreeMap::from([(
            "op.latency_p50_ms",
            median(&latencies).unwrap_or(f64::NAN) * 1e3,
        )]),
    }
}

/// Value of the Prometheus sample `name` in a scrape.
fn prom(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Per-layer metrics from the job request logs, the final scrape and the
/// status documents; also turns each job into an op span with its
/// requests, the generator's lateness and the waits between as children.
fn trace_jobs(tracer: &mut Tracer, sched: &Schedule, out: &mut Outcome) {
    let mut request_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (op, job) in sched.jobs.iter().enumerate() {
        let Some(done) = job.done else { continue };
        let root = tracer.record("job", op, None, job.scheduled, done);
        let mut cursor = job.scheduled;
        for &(layer, sent, answered) in &job.requests {
            let gap = if cursor == job.scheduled {
                "loadgen.late"
            } else {
                "client.wait"
            };
            tracer.record(gap, op, root, cursor, sent);
            tracer.record(layer, op, root, sent, answered);
            request_ms
                .entry(layer)
                .or_default()
                .push((answered - sent).as_secs_f64() * 1e3);
            cursor = answered;
        }
    }
    let mean =
        |v: Option<&Vec<f64>>| v.map_or(0.0, |v| v.iter().sum::<f64>() / v.len().max(1) as f64);
    let done: Vec<&Job> = sched.jobs.iter().filter(|j| j.done.is_some()).collect();
    let n = done.len().max(1) as f64;
    let text = &sched.metrics_text;
    let ratio = |sum: &str, count: &str| match (prom(text, sum), prom(text, count)) {
        (Some(s), Some(c)) if c > 0.0 => s / c * 1e3,
        _ => 0.0,
    };
    let latencies: Vec<f64> = done
        .iter()
        .map(|j| (j.done.expect("done") - j.scheduled).as_secs_f64() * 1e3)
        .collect();
    let layers = &mut out.layers;
    layers.insert("serve.submit_ms", mean(request_ms.get("serve.submit")));
    layers.insert("serve.status_ms", mean(request_ms.get("serve.status")));
    layers.insert("serve.result_ms", mean(request_ms.get("serve.result")));
    layers.insert(
        "serve.job_ms",
        ratio(
            "emgrid_job_duration_seconds_sum",
            "emgrid_job_duration_seconds_count",
        ),
    );
    layers.insert(
        "runtime.queue_wait_ms",
        ratio(
            "emgrid_job_queue_wait_seconds_sum",
            "emgrid_job_queue_wait_seconds_count",
        ),
    );
    layers.insert(
        "serve.checkpoints_per_job",
        done.iter().map(|j| j.checkpoints).sum::<f64>() / n,
    );
    layers.insert(
        "serve.polls_per_job",
        done.iter().map(|j| f64::from(j.polls)).sum::<f64>() / n,
    );
    layers.insert(
        "via.mc_ms",
        done.iter().filter_map(|j| j.mc_s).sum::<f64>() / n * 1e3,
    );
    layers.insert(
        "serve.keepalive_reuse_ratio",
        1.0 - sched.connects as f64 / sched.requests.max(1) as f64,
    );
    layers.insert("serve.non2xx", sched.non2xx as f64);
    layers.insert(
        "serve.latency_p90_ms",
        tail_percentile(&latencies, 0.9).unwrap_or(0.0),
    );
    layers.insert(
        "loadgen.late_p99_ms",
        tail_percentile(&sched.lateness, 0.99).unwrap_or(0.0) * 1e3,
    );
    layers.insert(
        "trace.root_coverage_pct",
        crate::trace::min_root_coverage(tracer.spans()) * 100.0,
    );
    // The spans are built from timestamps the load generator takes anyway,
    // after the run: tracing adds no work to a job.
    layers.insert("trace.overhead_pct", 0.0);
}

/// Mean time of one checkpoint commit as the daemon makes it — encode the
/// MC state, then write it atomically into the job store — over a
/// characterize job of the sweep's size at the default checkpoint cadence.
fn probe_checkpoint() -> Result<f64, String> {
    let dir = Path::new(WORK_DIR).join(format!("probe-store-{}", std::process::id()));
    let store = JobStore::open(&dir).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    let mut on_checkpoint = |cp: &ViaCheckpoint| {
        let t = Instant::now();
        let text = cp.encode();
        if store.write_checkpoint(1, &text).is_ok() {
            times.push(t.elapsed().as_secs_f64());
        }
    };
    let session = ViaSession {
        checkpoint_every: ServeConfig::default().checkpoint_every,
        on_checkpoint: Some(&mut on_checkpoint),
        ..ViaSession::default()
    };
    ViaArrayMc::from_reference_table(
        &ViaArrayConfig::paper_8x8(IntersectionPattern::Plus),
        Technology::default(),
        1e10,
    )
    .characterize_session(400, 7, &RuntimeConfig::sequential(), session);
    let _ = std::fs::remove_dir_all(&dir);
    median(&times)
        .map(|s| s * 1e3)
        .ok_or_else(|| "no checkpoint written".into())
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_counts_from_the_scheduled_instant() {
        // Arrivals due every 50 ms; the generator stalls 120 ms before the
        // first send, then sends the backlog as fast as it can.
        let start = Instant::now();
        let due: Vec<Instant> = (0..4).map(|i| arrival(start, 20.0, i)).collect();
        let stall = start + Duration::from_millis(120);
        let sent = [
            stall,
            stall + Duration::from_millis(1),
            stall + Duration::from_millis(2),
            due[3],
        ];
        let late: Vec<u128> = due
            .iter()
            .zip(sent)
            .map(|(&d, s)| lateness(d, s).as_millis())
            .collect();
        // Measured from each one's own schedule, not from the previous
        // send: the stall shows up in every queued arrival.
        assert_eq!(late, vec![120, 71, 22, 0]);
    }

    #[test]
    fn arrivals_follow_the_fixed_rate() {
        let start = Instant::now();
        assert_eq!(arrival(start, 20.0, 0), start);
        assert_eq!(arrival(start, 20.0, 20) - start, Duration::from_secs(1));
    }

    #[test]
    fn job_order_is_a_seeded_permutation() {
        let a = order(1, 108);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..108).collect::<Vec<_>>());
        assert_eq!(a, order(1, 108));
        assert_ne!(a, order(2, 108));
    }

    #[test]
    fn prometheus_samples_parse_by_exact_name() {
        let text = "a_sum 1.5\na_sum_total 9\na_count 3\n";
        assert_eq!(prom(text, "a_sum"), Some(1.5));
        assert_eq!(prom(text, "a_count"), Some(3.0));
        assert_eq!(prom(text, "a"), None);
    }
}
