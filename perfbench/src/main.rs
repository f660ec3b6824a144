//! emgrid benchmark harness.
//!
//! Runs one workload for a fixed time from a single process, checks every
//! op's output, and prints the metrics as the last line of stdout:
//!
//! ```text
//! emgrid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! ops with harness-side spans around each layer call and reports the
//! per-layer metrics instead. `--record` (with the default seed) rewrites
//! the workload's reference values. See `perfbench/README.md`.

mod check;
mod daemon;
mod fea;
mod grid;
mod http;
mod screen;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found outside any single op (set-up invariants, probes).
    pub errors: Vec<String>,
    /// End-to-end metrics: `(name, value, unit)`.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics by name; unset ones report 0 (layer not run).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric, with its unit, in report order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("op.latency_p50_ms", "ms"),
    ("fea.assemble_ms", "ms"),
    ("fea.recover_ms", "ms"),
    ("fea.unknowns", "count"),
    ("sparse.ic0_ms", "ms"),
    ("sparse.cg_ms", "ms"),
    ("sparse.cg_iterations", "count"),
    ("sparse.factor_ms", "ms"),
    ("sparse.fill_nnz", "count"),
    ("sparse.base_factor_ms", "ms"),
    ("sparse.smw_solve_us", "us"),
    ("sparse.rebases_per_trial", "count"),
    ("spice.parse_ms", "ms"),
    ("spice.mna_ms", "ms"),
    ("pg.grid_build_ms", "ms"),
    ("pg.mc_ms.pg1", "ms"),
    ("pg.mc_ms.pg2", "ms"),
    ("pg.mc_ms.pg5", "ms"),
    ("pg.failures_per_trial", "count"),
    ("pg.irdrop_eval_us", "us"),
    ("pg.via_currents_us", "us"),
    ("via.level1_ms", "ms"),
    ("via.mc_ms", "ms"),
    ("screen.pass_ms", "ms"),
    ("screen.json_ms", "ms"),
    ("screen.sites", "count"),
    ("runtime.queue_wait_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.checkpoints_per_job", "count"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.state_bytes_per_job", "bytes"),
    ("serve.polls_per_job", "count"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("serve.non2xx", "count"),
    ("serve.latency_p90_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.root_coverage_pct", "%"),
];

/// The gated end-to-end metrics, in report order.
pub fn end_to_end(
    throughput_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("throughput_per_s", throughput_per_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Latencies of the ops one in-process workload ran back to back.
pub struct OpRun {
    /// Wall time of every op that passed, seconds.
    pub latencies: Vec<f64>,
    /// Wall time of all ops, passed or failed, seconds.
    pub busy: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Ops run back to back until `seconds` have passed; the last one may end
/// after the deadline.
pub fn run_ops(seconds: f64, mut op: impl FnMut(usize) -> Result<(), String>) -> OpRun {
    let start = Instant::now();
    let mut run = OpRun {
        latencies: Vec::new(),
        busy: 0.0,
        attempted: 0,
        failed: 0,
    };
    while start.elapsed().as_secs_f64() < seconds {
        let k = run.attempted as usize;
        let t = Instant::now();
        let result = op(k);
        let dt = t.elapsed().as_secs_f64();
        run.attempted += 1;
        run.busy += dt;
        match result {
            Ok(()) => run.latencies.push(dt),
            Err(e) => {
                run.failed += 1;
                eprintln!("op {k} failed: {e}");
            }
        }
    }
    run
}

impl Outcome {
    /// The metrics shared by the in-process workloads: work per second over
    /// the timed phase, the set-up median and this process's peak RSS end
    /// to end; the median op latency per layer. Ops run back to back, so
    /// throughput already gates op speed.
    pub fn from_ops(run: &OpRun, units_per_op: f64, setup_s: f64) -> Outcome {
        let passed = run.latencies.len() as f64;
        let p50_ms = stats::median(&run.latencies).unwrap_or(f64::NAN) * 1e3;
        eprintln!(
            "ops: {} attempted; latency p50 {p50_ms:.1} ms over the {} that passed",
            run.attempted,
            run.latencies.len()
        );
        Outcome {
            attempted: run.attempted,
            failed: run.failed,
            e2e: end_to_end(
                units_per_op * passed / run.busy,
                setup_s,
                stats::peak_rss_mb("self").unwrap_or(f64::NAN),
            ),
            layers: BTreeMap::from([("op.latency_p50_ms", p50_ms)]),
            ..Outcome::default()
        }
    }

    /// Adds the tracing validity metrics for the spans of an in-process
    /// run: how much of each op the layer spans cover, and what recording
    /// the spans cost as a share of the median op.
    pub fn trace_validity(&mut self, tracer: &Tracer, run: &OpRun) {
        let spans = tracer.spans();
        let coverage = trace::min_root_coverage(spans);
        let per_op = spans.len() as f64 / run.attempted.max(1) as f64;
        let median = stats::median(&run.latencies).unwrap_or(f64::NAN);
        self.layers
            .insert("trace.root_coverage_pct", coverage * 100.0);
        self.layers.insert(
            "trace.overhead_pct",
            per_op * trace::span_cost() / median * 100.0,
        );
        if coverage < 0.95 {
            self.errors.push(format!(
                "layer spans cover only {:.1}% of an op",
                coverage * 100.0
            ));
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(args: &Args, outcome: &Outcome) -> String {
    let mut metrics: Vec<(String, f64, &str)> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_owned(),
                    outcome.layers.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    } else {
        outcome
            .e2e
            .iter()
            .map(|&(n, v, u)| (n.to_owned(), v, u))
            .collect()
    };
    let mut correct = outcome.errors.is_empty() && outcome.failed == 0;
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            *value = 0.0;
            correct = false;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    // A run that never got to an op (its set-up failed) reports that one
    // attempt, failed.
    let (attempted, failed) = match outcome.attempted {
        0 => (1, 1),
        n => (n, outcome.failed),
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The daemon workload runs `emgrid serve` as a child of this binary.
    if argv.first().map(String::as_str) == Some("serve") {
        match emgrid::cli::run(&argv) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.record && args.seed != check::DEFAULT_SEED {
        eprintln!("--record needs the default seed {}", check::DEFAULT_SEED);
        std::process::exit(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "fea_fig07" => fea::run(&args, &mut tracer),
        "grid_table2" => grid::run(&args, &mut tracer),
        "chip_screen" => screen::run(&args, &mut tracer),
        "daemon_jobs" => daemon::run(&args, &mut tracer),
        other => {
            eprintln!("unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    if args.trace {
        let path = format!("perfbench/work/trace-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = std::fs::create_dir_all("perfbench/work")
            .and_then(|_| std::fs::write(&path, tracer.to_json_lines()))
        {
            eprintln!("cannot write {path}: {e}");
        }
    }
    println!("{}", result_line(&args, &outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_serve::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(metrics)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        metrics
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The harness prints exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        let owned = |(n, u): (&str, &str)| (n.to_owned(), u.to_owned());
        let e2e: Vec<_> = end_to_end(1.0, 1.0, 1.0)
            .into_iter()
            .map(|(n, _, u)| owned((n, u)))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = LAYER_METRICS.iter().copied().map(owned).collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
    }
}
