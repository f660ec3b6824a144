//! A figure binary whose reader goes away, as in `fig08a_via_cdf | head -1`,
//! exits quietly instead of panicking on the closed pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_a_figure_binary_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig08a_via_cdf"))
        // Enough trials that the binary is still characterizing when the
        // pipe closes, so all it prints after the first line meets it.
        .env("EMGRID_TRIALS", "20000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figure binary starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first line arrives");
    assert!(line.starts_with("== Figure 8(a)"), "{line}");
    drop(stdout);
    let output = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
