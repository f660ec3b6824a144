//! Daemon metrics exported in Prometheus text exposition format.
//!
//! Counters are plain relaxed atomics and histograms are the lock-free
//! fixed-bucket kind from [`emgrid_runtime::obs`] — they feed dashboards,
//! not control flow. The queue gauges are sampled from the job engine at
//! scrape time rather than stored, so `/metrics` can never disagree with
//! the engine about how much work is outstanding. A scrape also appends
//! the process-global registry (stress-cache hit/miss/store counters, MC
//! trial counters, checkpoint-commit latency), so one endpoint covers
//! every layer.
//!
//! Two response-side families exist deliberately:
//! `emgrid_http_requests_total` counts requests — one per parsed request
//! on a (possibly keep-alive) connection, plus one per early protocol
//! error (400/408/413) and one per accept-path shed — while
//! `emgrid_http_responses_total{status_class}` counts every response
//! *written*, sheds and early errors included. Because every counted
//! response was first counted as a request (panicked handlers count a
//! request but write nothing), `requests_total ≥ responses_total` holds
//! at every scrape; a shed storm can no longer push responses above
//! requests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use emgrid_runtime::obs::{self, Histogram};

/// Route labels for the request-latency histogram family. `other` takes
/// unroutable requests (parse errors, unknown paths).
pub const ROUTES: &[&str] = &[
    "healthz", "metrics", "submit", "status", "result", "cancel", "sweep", "other",
];

/// Status classes tracked by `emgrid_http_responses_total`.
const STATUS_CLASSES: &[&str] = &["2xx", "3xx", "4xx", "5xx"];

/// Monotonic counters, latency histograms, plus scrape-time gauges.
#[derive(Debug)]
pub struct Metrics {
    /// HTTP requests: parsed requests, early protocol errors, and sheds.
    pub http_requests: AtomicU64,
    /// Requests served on a reused (keep-alive) connection — the second
    /// and later requests on each connection.
    pub keepalive_reuses: AtomicU64,
    /// Route handlers that panicked; the dispatcher catches the panic and
    /// the event loop closes the connection without a response.
    pub connection_panics: AtomicU64,
    /// Jobs accepted through `POST /v1/jobs` or requeued at startup.
    pub jobs_submitted: AtomicU64,
    /// Jobs finished successfully.
    pub jobs_done: AtomicU64,
    /// Jobs that returned an error or panicked.
    pub jobs_failed: AtomicU64,
    /// Jobs cancelled (client delete or shutdown).
    pub jobs_cancelled: AtomicU64,
    /// Jobs whose Monte Carlo resumed from an on-disk checkpoint past
    /// trial zero (a discarded checkpoint does not count).
    pub jobs_resumed: AtomicU64,
    /// Checkpoints persisted across all jobs.
    pub checkpoints: AtomicU64,
    /// Responses written, indexed by status class (2xx..5xx).
    responses: [AtomicU64; 4],
    /// Request latency per route, parallel to [`ROUTES`].
    route_latency: Vec<Histogram>,
    /// Time jobs spent queued before a worker picked them up.
    pub queue_wait: Histogram,
    /// End-to-end job execution time (queue wait excluded).
    pub job_duration: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            http_requests: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            connection_panics: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_resumed: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            responses: Default::default(),
            route_latency: ROUTES.iter().map(|_| Histogram::latency()).collect(),
            queue_wait: Histogram::latency(),
            job_duration: Histogram::latency(),
        }
    }
}

impl Metrics {
    /// Adds one to a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one written response under its status class. Every path
    /// that writes a response — routed, early-error, or accept-loop shed —
    /// must pass through here.
    pub fn count_response(&self, status: u16) {
        let class = (status / 100).clamp(2, 5) as usize - 2;
        self.responses[class].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's wall time under its route label (unknown
    /// labels fold into `other`).
    pub fn observe_route(&self, route: &str, elapsed: Duration) {
        let idx = ROUTES
            .iter()
            .position(|r| *r == route)
            .unwrap_or(ROUTES.len() - 1);
        self.route_latency[idx].observe_duration(elapsed);
    }

    /// Renders the Prometheus text format. `queued`, `running` and
    /// `active_connections` are sampled by the caller.
    pub fn render(&self, queued: usize, running: usize, active_connections: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(8 * 1024);
        let mut counter = |name: &str, help: &str, value: u64| {
            obs::render_help(&mut out, name, help, "counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "emgrid_http_requests_total",
            "HTTP requests handled (parsed requests, early errors, and sheds).",
            self.http_requests.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_http_keepalive_reuses_total",
            "Requests served on a reused keep-alive connection.",
            self.keepalive_reuses.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_http_connection_panics_total",
            "Route handlers that panicked (connection closed, no response).",
            self.connection_panics.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_jobs_submitted_total",
            "Jobs accepted or requeued.",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_jobs_done_total",
            "Jobs finished successfully.",
            self.jobs_done.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_jobs_failed_total",
            "Jobs that failed or panicked.",
            self.jobs_failed.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_jobs_cancelled_total",
            "Jobs cancelled by clients or shutdown.",
            self.jobs_cancelled.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_jobs_resumed_total",
            "Jobs whose Monte Carlo resumed from a checkpoint past trial zero.",
            self.jobs_resumed.load(Ordering::Relaxed),
        );
        counter(
            "emgrid_checkpoints_total",
            "Checkpoints persisted across all jobs.",
            self.checkpoints.load(Ordering::Relaxed),
        );

        obs::render_help(
            &mut out,
            "emgrid_http_responses_total",
            "HTTP responses written, by status class (sheds and early errors included).",
            "counter",
        );
        for (class, count) in STATUS_CLASSES.iter().zip(&self.responses) {
            let _ = writeln!(
                out,
                "emgrid_http_responses_total{{status_class=\"{class}\"}} {}",
                count.load(Ordering::Relaxed)
            );
        }

        for (name, help, value) in [
            (
                "emgrid_jobs_queued",
                "Jobs waiting in the bounded queue.",
                queued,
            ),
            ("emgrid_jobs_running", "Jobs currently executing.", running),
            (
                "emgrid_http_active_connections",
                "Open connections (shed capacity in use).",
                active_connections,
            ),
        ] {
            obs::render_help(&mut out, name, help, "gauge");
            let _ = writeln!(out, "{name} {value}");
        }

        obs::render_help(
            &mut out,
            "emgrid_http_request_duration_seconds",
            "Request wall time from accept to response, by route.",
            "histogram",
        );
        for (route, h) in ROUTES.iter().zip(&self.route_latency) {
            obs::render_histogram(
                &mut out,
                "emgrid_http_request_duration_seconds",
                &format!("route=\"{route}\""),
                h,
            );
        }
        obs::render_help(
            &mut out,
            "emgrid_job_queue_wait_seconds",
            "Time jobs spent queued before a worker picked them up.",
            "histogram",
        );
        obs::render_histogram(
            &mut out,
            "emgrid_job_queue_wait_seconds",
            "",
            &self.queue_wait,
        );
        obs::render_help(
            &mut out,
            "emgrid_job_duration_seconds",
            "Job execution wall time (queue wait excluded).",
            "histogram",
        );
        obs::render_histogram(
            &mut out,
            "emgrid_job_duration_seconds",
            "",
            &self.job_duration,
        );

        // Instruments registered anywhere in the process: stress-cache
        // hit/miss/store, MC trial counters, checkpoint-commit latency.
        obs::render_registry(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_series_in_prometheus_format() {
        let m = Metrics::default();
        Metrics::inc(&m.http_requests);
        Metrics::inc(&m.http_requests);
        Metrics::inc(&m.jobs_submitted);
        m.count_response(202);
        m.count_response(503);
        m.count_response(408);
        m.observe_route("healthz", Duration::from_micros(80));
        m.queue_wait.observe(0.002);
        m.job_duration.observe(1.5);
        let text = m.render(3, 1, 7);
        assert!(text.contains("emgrid_http_requests_total 2\n"), "{text}");
        assert!(text.contains("emgrid_jobs_submitted_total 1\n"), "{text}");
        assert!(text.contains("emgrid_jobs_done_total 0\n"), "{text}");
        assert!(text.contains("emgrid_jobs_queued 3\n"), "{text}");
        assert!(text.contains("emgrid_jobs_running 1\n"), "{text}");
        assert!(
            text.contains("emgrid_http_active_connections 7\n"),
            "{text}"
        );
        assert!(
            text.contains("emgrid_http_responses_total{status_class=\"2xx\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("emgrid_http_responses_total{status_class=\"4xx\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("emgrid_http_responses_total{status_class=\"5xx\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "emgrid_http_request_duration_seconds_bucket{route=\"healthz\",le=\"0.0001\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("emgrid_job_queue_wait_seconds_count 1\n"),
            "{text}"
        );
        assert!(
            text.contains("emgrid_job_duration_seconds_count 1\n"),
            "{text}"
        );
        // At least the three daemon histogram families are exposed.
        let families = [
            "emgrid_http_request_duration_seconds",
            "emgrid_job_queue_wait_seconds",
            "emgrid_job_duration_seconds",
        ];
        for f in families {
            assert!(text.contains(&format!("# TYPE {f} histogram\n")), "{text}");
        }
    }

    /// The same HELP/TYPE discipline the CI `metrics-smoke` lint enforces:
    /// every sample series must belong to a family with both a HELP and a
    /// TYPE line, with histogram suffixes resolved to their base family.
    #[test]
    fn every_series_has_matching_help_and_type() {
        let m = Metrics::default();
        m.count_response(200);
        m.observe_route("metrics", Duration::from_millis(1));
        let text = m.render(0, 0, 1);
        let mut help = std::collections::BTreeSet::new();
        let mut types = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                help.insert(rest.split_whitespace().next().unwrap().to_owned());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                types.insert(rest.split_whitespace().next().unwrap().to_owned());
            }
        }
        assert_eq!(help, types, "HELP and TYPE sets diverge");
        let mut checked = 0;
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let series = line.split(['{', ' ']).next().unwrap().to_owned();
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| series.strip_suffix(s))
                .filter(|b| types.contains(*b))
                .unwrap_or(&series);
            assert!(
                types.contains(base),
                "series {series} has no TYPE line:\n{text}"
            );
            checked += 1;
        }
        assert!(checked > 20, "suspiciously few series: {checked}");
    }
}
