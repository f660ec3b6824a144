//! Direct factor versus AMG-CG on generated power grids: the measurement
//! behind `emgrid_sparse::method::AUTO_DIRECT_LIMIT`.
//!
//! For 2-, 3- and 4-layer stacks from about 3k to 200k unknowns, times
//! what `Method::Direct` runs (the default AMD supernodal factor plus one
//! triangular solve) and what `Method::Cg` runs (the AMG hierarchy plus
//! CG to the default 1e-10 relative residual), both on one thread, and
//! prints the best of three runs of each with the CG iteration count.
//!
//! ```text
//! cargo run --release --example solver_crossover
//! ```

use std::time::Instant;

use emgrid::sparse::{conjugate_gradient, CgOptions, CsrMatrix, FactorOptions, LdlFactor};
use emgrid::spice::DcAnalysis;
use emgrid::spice::GridSpec;

/// Approximate unknown counts of the measured grids.
const SIZES: [usize; 7] = [3_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000];
const REPEATS: usize = 3;

/// The fastest of `REPEATS` runs of `f`, in ms, and its last result.
fn best_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("at least one run"))
}

fn measure(a: &CsrMatrix, b: &[f64]) -> (f64, f64, usize) {
    let (direct, _) = best_ms(|| {
        LdlFactor::factor_with(a, &FactorOptions::default())
            .expect("grid matrices are SPD")
            .solve(b)
    });
    let (cg, out) = best_ms(|| conjugate_gradient(a, b, None, &CgOptions::default()).expect("CG"));
    (direct, cg, out.iterations)
}

fn main() {
    println!("layers  grid       unknowns  factor+solve ms  AMG-CG ms  iterations");
    for layers in 2..=4 {
        for target in SIZES {
            let side = ((target / layers) as f64).sqrt().round() as usize;
            let netlist = GridSpec {
                layers,
                ..GridSpec::custom("crossover", side, side)
            }
            .generate();
            let dc = DcAnalysis::new(&netlist).expect("generated grids assemble");
            let (direct, cg, iterations) = measure(dc.matrix(), dc.rhs());
            println!(
                "{layers:>6}  {:<9}  {:>8}  {direct:>15.1}  {cg:>9.1}  {iterations:>10}",
                format!("{side}x{side}"),
                dc.unknown_count(),
            );
        }
    }
}
