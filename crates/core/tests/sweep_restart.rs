//! Kill -9 the real `emgrid serve` binary mid-sweep and prove the
//! restarted daemon finishes the sweep with exactly the report bytes an
//! uninterrupted daemon produces — and that `emgrid sweep` writes those
//! same bytes for the same spec.
//!
//! This is the process-level half of the sweep conformance suite: the
//! in-crate tests in `emgrid-batch` interrupt through an in-process
//! shutdown, this one uses the shipped binary, raw sockets and `SIGKILL`
//! — the failure mode the manifest's resume protocol exists for.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// 2×2×2 = 8 jobs, each big enough to checkpoint before finishing.
const SWEEP: &str = r#"{
    "name": "restart-conformance",
    "job": {"kind": "characterize", "array": "4x4", "trials": 900, "threads": 1},
    "axes": {
        "pattern": ["plus", "tee"],
        "criterion": ["wl", "rinf"],
        "seed": [5, 6]
    }
}"#;

/// A daemon subprocess that is killed when dropped (so a failing assert
/// cannot leak servers).
struct Daemon {
    child: Child,
    addr: String,
    /// Keeps the stdout pipe open: dropping it would EPIPE the daemon's
    /// own startup prints.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(state_dir: &PathBuf) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_emgrid"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--checkpoint-every",
                "8",
                "--state-dir",
            ])
            .arg(state_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn emgrid serve");
        // The daemon announces its (ephemeral) address before blocking.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut first_line = String::new();
        reader
            .read_line(&mut first_line)
            .expect("read listening line");
        let addr = first_line
            .trim()
            .strip_prefix("emgrid-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first_line}"))
            .to_owned();
        Daemon {
            child,
            addr,
            _stdout: reader,
        }
    }

    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    /// Submits the sweep and returns its content-derived id.
    fn submit_sweep(&self) -> String {
        let (status, body) = self.request("POST", "/v1/sweeps", SWEEP);
        assert!(status == 202 || status == 200, "{status}: {body}");
        let marker = "\"sweep\":\"";
        let start = body.find(marker).expect("sweep id in response") + marker.len();
        let end = body[start..].find('"').unwrap();
        body[start..start + end].to_owned()
    }

    /// Polls sweep status until `ready` accepts the body; returns that
    /// body (the state observed at the instant the predicate fired).
    fn wait_progress(&self, sweep: &str, ready: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let (status, body) = self.request("GET", &format!("/v1/sweeps/{sweep}"), "");
            assert_eq!(status, 200, "{body}");
            if ready(&body) {
                return body;
            }
            assert!(Instant::now() < deadline, "sweep stalled: {body}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn report(&self, sweep: &str) -> String {
        let (status, body) = self.request("GET", &format!("/v1/sweeps/{sweep}/report"), "");
        assert_eq!(status, 200, "{body}");
        body
    }

    /// `SIGKILL` — no destructors, no graceful drain.
    fn kill_hard(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
        std::mem::forget(self); // already reaped
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emgrid-sweep-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkilled_daemon_resumes_a_sweep_to_a_byte_identical_report() {
    // Reference report from an undisturbed daemon.
    let ref_dir = temp_dir("ref");
    let reference = Daemon::spawn(&ref_dir);
    let ref_sweep = reference.submit_sweep();
    reference.wait_progress(&ref_sweep, |s| s.contains("\"status\":\"done\""));
    let expected = reference.report(&ref_sweep);
    drop(reference);

    // The CLI front end runs the same spec through the same job service
    // and must write the same report bytes.
    let cli_dir = temp_dir("cli");
    std::fs::create_dir_all(&cli_dir).unwrap();
    let spec_path = cli_dir.join("sweep.json");
    std::fs::write(&spec_path, SWEEP).unwrap();
    let cli_state = cli_dir.join("jobs");
    let status = Command::new(env!("CARGO_BIN_EXE_emgrid"))
        .arg("sweep")
        .arg(&spec_path)
        .args(["--workers", "1", "--checkpoint-every", "8", "--state-dir"])
        .arg(&cli_state)
        .stdout(Stdio::null())
        .status()
        .expect("run emgrid sweep");
    assert!(status.success(), "emgrid sweep exited with {status}");
    let report_path = cli_state
        .join("sweeps")
        .join(&ref_sweep)
        .join("report.json");
    let cli_report = std::fs::read_to_string(&report_path).expect("emgrid sweep wrote a report");
    assert_eq!(
        cli_report, expected,
        "emgrid sweep and POST /v1/sweeps disagree"
    );

    // Victim: let the sweep settle at least one job (so the resume path
    // genuinely skips completed work) but kill long before all eight.
    let victim_dir = temp_dir("victim");
    let victim = Daemon::spawn(&victim_dir);
    let sweep = victim.submit_sweep();
    assert_eq!(sweep, ref_sweep, "sweep id is content-derived");
    let at_kill = victim.wait_progress(&sweep, |s| {
        !s.contains("\"jobs_done\":0") || s.contains("\"status\":\"done\"")
    });
    victim.kill_hard();
    assert!(
        !at_kill.contains("\"status\":\"done\""),
        "sweep finished before the kill; grow the spec: {at_kill}"
    );

    // The revived daemon requeues unfinished jobs, resumes the manifest,
    // and must converge on exactly the reference bytes.
    let revived = Daemon::spawn(&victim_dir);
    let body = revived.wait_progress(&sweep, |s| s.contains("\"status\":\"done\""));
    assert!(body.contains("\"jobs_failed\":0"), "{body}");
    let resumed = revived.report(&sweep);
    assert_eq!(resumed, expected, "restart changed the report bytes");
    drop(revived);

    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(cli_dir);
    let _ = std::fs::remove_dir_all(victim_dir);
}
