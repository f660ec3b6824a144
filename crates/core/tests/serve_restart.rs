//! Kill -9 the real `emgrid serve` binary mid-job and prove the restarted
//! daemon finishes the job with exactly the bytes an uninterrupted daemon
//! produces.
//!
//! This is the process-level version of the in-crate daemon tests: no
//! in-process `Server` handles, just the shipped binary, raw sockets and
//! `SIGKILL` — the failure mode the checkpoint design exists for.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SPEC: &str = r#"{"kind":"characterize","array":"4x4","pattern":"plus","criterion":"rinf","trials":1200,"seed":5,"threads":1}"#;

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

    fn submit(&self) -> u64 {
        let (status, body) = self.request("POST", "/v1/jobs", SPEC);
        assert_eq!(status, 202, "{body}");
        // {"id":N,...} — pull N out without a JSON parser.
        let digits: String = body
            .split("\"id\":")
            .nth(1)
            .expect("id in response")
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("numeric id")
    }

    fn wait_done(&self, id: u64) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = self.request("GET", &format!("/v1/jobs/{id}"), "");
            assert_eq!(status, 200, "{body}");
            if body.contains("\"status\":\"done\"") {
                let (status, result) = self.request("GET", &format!("/v1/jobs/{id}/result"), "");
                assert_eq!(status, 200, "{result}");
                return result;
            }
            assert!(
                !body.contains("failed") && !body.contains("cancelled"),
                "job ended badly: {body}"
            );
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
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

/// The value of one unlabelled series in a Prometheus text scrape.
fn metric(scrape: &str, name: &str) -> Option<f64> {
    scrape.lines().find_map(|line| {
        let (series, value) = line.split_once(' ')?;
        (series == name).then(|| value.trim().parse().ok())?
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emgrid-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkilled_daemon_resumes_to_byte_identical_results() {
    // Reference bytes from an undisturbed daemon.
    let ref_dir = temp_dir("ref");
    let reference = Daemon::spawn(&ref_dir);
    let ref_id = reference.submit();
    let expected = reference.wait_done(ref_id);
    drop(reference);

    // Victim: wait until at least one checkpoint is on disk, then SIGKILL
    // the process.
    let victim_dir = temp_dir("victim");
    let victim = Daemon::spawn(&victim_dir);
    let id = victim.submit();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if victim_dir.join(id.to_string()).join("checkpoint").exists() {
            break;
        }
        let (_, body) = victim.request("GET", &format!("/v1/jobs/{id}"), "");
        if body.contains("\"status\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job never progressed: {body}");
        std::thread::yield_now();
    }
    victim.kill_hard();
    assert!(
        !victim_dir.join(id.to_string()).join("result.json").exists(),
        "the job finished before the kill: nothing was resumed"
    );

    // The revived daemon requeues the job under its original id, resumes
    // it from the checkpoint rather than from trial zero, and must
    // reproduce the reference bytes exactly.
    let revived = Daemon::spawn(&victim_dir);
    let resumed = revived.wait_done(id);
    assert_eq!(resumed, expected, "restart changed the result bytes");
    let (_, scrape) = revived.request("GET", "/metrics", "");
    assert_eq!(
        metric(&scrape, "emgrid_jobs_resumed_total"),
        Some(1.0),
        "{scrape}"
    );
    let trials = metric(&scrape, "emgrid_mc_trials_total").expect("trial counter");
    assert!(trials < 1200.0, "the revived daemon reran {trials} trials");
    drop(revived);

    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(victim_dir);
}
