//! Figure output is a function of the seed and trial budget alone: two runs
//! print the same bytes on stdout, with wall times only on stderr.

use std::process::Command;

fn run_fig08a() -> (Vec<u8>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fig08a_via_cdf"))
        .env("EMGRID_TRIALS", "200")
        .output()
        .expect("figure binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    (output.stdout, stderr)
}

#[test]
fn two_runs_of_a_figure_print_the_same_stdout() {
    let (first, stderr) = run_fig08a();
    let (second, _) = run_fig08a();
    assert!(!first.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second)
    );
    // The wall time went to stderr, not away.
    assert!(stderr.contains("# execution:"), "{stderr}");
    assert!(!String::from_utf8_lossy(&first).contains("# execution:"));
}
