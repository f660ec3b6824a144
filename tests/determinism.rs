//! Determinism guarantees of the shared Monte Carlo runtime, end-to-end
//! through both levels of the hierarchical analysis: any thread count must
//! produce bit-identical samples in identical order, with and without
//! early termination.

use emgrid::prelude::*;

const J: f64 = 1e10;

fn via_mc() -> ViaArrayMc {
    ViaArrayMc::from_reference_table(
        &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        Technology::default(),
        J,
    )
}

fn grid_mc() -> PowerGridMc {
    let rel = via_mc()
        .characterize(200, 3)
        .reliability(FailureCriterion::OpenCircuit)
        .unwrap();
    let grid = PowerGrid::from_netlist(GridSpec::custom("det", 10, 10).generate()).unwrap();
    PowerGridMc::new(grid, rel).with_system_criterion(SystemCriterion::IrDropFraction(0.10))
}

#[test]
fn via_characterization_is_thread_count_invariant() {
    let mc = via_mc();
    let seq = mc.characterize_with(150, 17, &RuntimeConfig::threaded(1));
    for threads in [2, 8] {
        let par = mc.characterize_with(150, 17, &RuntimeConfig::threaded(threads));
        // Bit-identical per-trial failure sequences, in trial order.
        assert_eq!(seq.samples(), par.samples(), "threads = {threads}");
        assert_eq!(
            seq.ttf_samples(FailureCriterion::OpenCircuit),
            par.ttf_samples(FailureCriterion::OpenCircuit),
        );
        assert_eq!(par.report().threads, threads);
    }
}

#[test]
fn grid_mc_is_thread_count_invariant() {
    let mc = grid_mc();
    let seq = mc.run_threaded(20, 29, 1).unwrap();
    for threads in [2, 8] {
        let par = mc.run_threaded(20, 29, threads).unwrap();
        // Bit-identical system TTFs AND identical failure orders (the site
        // histogram is sensitive to which array died in which trial).
        assert_eq!(seq.ttf_seconds(), par.ttf_seconds(), "threads = {threads}");
        assert_eq!(seq.failures_per_trial(), par.failures_per_trial());
        assert_eq!(seq.site_failure_counts(), par.site_failure_counts());
    }
}

/// Variation-enabled trials draw the correlated temperature/linewidth
/// fields from per-trial RNG sub-streams, so turning variation on must
/// not cost the thread-count invariance — every sample bit, and the
/// variance decomposition built from a replayed frozen-field run, must
/// agree across thread counts.
#[test]
fn varied_characterization_is_thread_count_invariant() {
    let mc = via_mc().with_variation(Variation {
        edge_current_factor: 0.5,
        temperature_sigma_c: 6.0,
        linewidth_sigma: 0.05,
    });
    let seq = mc.characterize_with(150, 17, &RuntimeConfig::threaded(1));
    for threads in [2, 8] {
        let par = mc.characterize_with(150, 17, &RuntimeConfig::threaded(threads));
        assert_eq!(seq.samples(), par.samples(), "threads = {threads}");
        assert_eq!(
            seq.ttf_samples(FailureCriterion::OpenCircuit),
            par.ttf_samples(FailureCriterion::OpenCircuit),
        );
    }
    let (_, d1) = mc.characterize_with_variance(96, 23, &RuntimeConfig::threaded(1));
    let (_, d4) = mc.characterize_with_variance(96, 23, &RuntimeConfig::threaded(4));
    assert_eq!(d1, d4);
}

/// The grid-level variation fields cross the same contract: every thread
/// count must reproduce the same system TTFs and failure orders bit for
/// bit.
#[test]
fn varied_grid_mc_is_thread_count_invariant() {
    let var = Variation {
        temperature_sigma_c: 8.0,
        linewidth_sigma: 0.05,
        ..Variation::default()
    };
    let mc = grid_mc().with_variation(GridVariation {
        ttf_ln_sigma: var.grid_ttf_ln_sigma(&Technology::default()),
        linewidth_sigma: var.linewidth_sigma,
    });
    let seq = mc.run_threaded(20, 29, 1).unwrap();
    for threads in [2, 8] {
        let par = mc.run_threaded(20, 29, threads).unwrap();
        assert_eq!(seq.ttf_seconds(), par.ttf_seconds(), "threads = {threads}");
        assert_eq!(seq.failures_per_trial(), par.failures_per_trial());
        assert_eq!(seq.site_failure_counts(), par.site_failure_counts());
    }
}

/// Work stealing hands trials to whichever of 4 workers is free; a single
/// worker runs them as one static chunk, in trial order. The two schedules
/// must agree bit for bit.
#[test]
fn work_stealing_matches_static_chunking() {
    let mc = grid_mc();
    let stealing = mc.run_threaded(20, 31, 4).unwrap();
    let one_chunk = mc.run_threaded(20, 31, 1).unwrap();
    assert_eq!(stealing.ttf_seconds(), one_chunk.ttf_seconds());
    assert_eq!(
        stealing.site_failure_counts(),
        one_chunk.site_failure_counts()
    );
}

#[test]
fn early_termination_is_thread_count_invariant() {
    // The stopping decision is taken at deterministic batch boundaries on
    // trial-ordered statistics, so even the *number* of trials run must
    // agree across thread counts.
    let mc = via_mc();
    let config = |threads| {
        RuntimeConfig::threaded(threads).with_early_stop(EarlyStop {
            target_half_width: 0.1,
            confidence: 0.95,
            min_trials: 32,
            batch: 32,
        })
    };
    let seq = mc.characterize_with(5_000, 41, &config(1));
    assert!(seq.report().stopped_early, "target should stop this run");
    for threads in [2, 8] {
        let par = mc.characterize_with(5_000, 41, &config(threads));
        assert_eq!(seq.trials(), par.trials(), "threads = {threads}");
        assert_eq!(seq.samples(), par.samples());
        assert_eq!(par.report().stopped_early, seq.report().stopped_early);
    }
}

#[test]
fn trials_run_is_scheduling_independent_telemetry() {
    let mc = via_mc();
    let r = mc.characterize_with(97, 53, &RuntimeConfig::threaded(3));
    let report = r.report();
    assert_eq!(report.trials_requested, 97);
    assert_eq!(report.trials_run, 97);
    assert_eq!(report.trials_per_thread.iter().sum::<usize>(), 97);
    assert_eq!(report.stream.count(), 97);
    assert!(report.wall.as_nanos() > 0);
}

/// The supernodal sparse engine behind every direct solve: the AMD
/// permutation, the supernode partition, the factor arrays and every solve
/// bit must be independent of the solver's thread count, including on
/// systems large enough to engage the parallel elimination-tree solve plan.
#[test]
fn sparse_factorization_is_thread_count_invariant() {
    use emgrid::sparse::{FactorOptions, LdlFactor, TripletMatrix};

    // 5-point Laplacian on an 80 x 70 grid: 5600 unknowns, comfortably
    // past the threshold where the planned parallel solve kicks in.
    let (rows, cols) = (80usize, 70usize);
    let n = rows * cols;
    let mut t = TripletMatrix::new(n, n);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            t.push(i, i, 4.0 + 1e-3);
            if r + 1 < rows {
                let j = (r + 1) * cols + c;
                t.push(i, j, -1.0);
                t.push(j, i, -1.0);
            }
            if c + 1 < cols {
                let j = r * cols + c + 1;
                t.push(i, j, -1.0);
                t.push(j, i, -1.0);
            }
        }
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();

    let factor = |threads: usize| {
        LdlFactor::factor_with(&a, &FactorOptions::default().with_threads(threads)).unwrap()
    };
    let seq = factor(1);
    let x_seq = seq.solve(&b);
    for threads in [2, 8] {
        let par = factor(threads);
        assert_eq!(
            par.permutation().as_slice(),
            seq.permutation().as_slice(),
            "AMD permutation must not depend on threads"
        );
        assert_eq!(
            par.supernode_ptr(),
            seq.supernode_ptr(),
            "supernode partition must not depend on threads"
        );
        assert_eq!(
            par.factor_parts(),
            seq.factor_parts(),
            "threads = {threads}"
        );
        assert_eq!(par.solve(&b), x_seq, "threads = {threads}");
    }
}

/// The dense-panel microkernel contract: the one production panel-kernel
/// path must reproduce, at every thread count, the factor arrays and solve
/// bits of the scalar reference kernels. The digests below are those the
/// scalar and blocked backends both produced when the backend was still a
/// switch; a kernel that reorders any fused operation moves them.
#[test]
fn sparse_factorization_is_kernel_backend_invariant() {
    use emgrid::sparse::{FactorOptions, LdlFactor, TripletMatrix};

    let (rows, cols) = (40usize, 33usize);
    let n = rows * cols;
    let mut t = TripletMatrix::new(n, n);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            t.push(i, i, 4.0 + 1e-3);
            if r + 1 < rows {
                t.push_sym(i, (r + 1) * cols + c, -1.0);
            }
            if c + 1 < cols {
                t.push_sym(i, r * cols + c + 1, -1.0);
            }
        }
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();

    for threads in [1, 2, 8] {
        let f =
            LdlFactor::factor_with(&a, &FactorOptions::default().with_threads(threads)).unwrap();
        let (col_ptr, row_idx, values, diag) = f.factor_parts();
        let factor_digest = fnv1a(
            col_ptr
                .iter()
                .map(|&p| p as u64)
                .chain(row_idx.iter().map(|&r| u64::from(r)))
                .chain(values.iter().map(|v| v.to_bits()))
                .chain(diag.iter().map(|v| v.to_bits())),
        );
        assert_eq!(
            factor_digest, 0x6b3a_b48c_22b3_186e,
            "factor moved: threads = {threads}"
        );
        let solve_digest = fnv1a(f.solve(&b).iter().map(|v| v.to_bits()));
        assert_eq!(
            solve_digest, 0xbb14_573c_32c7_e320,
            "solve moved: threads = {threads}"
        );
    }
}

/// Tentpole invariant of the parallel FEA path: the full stress field —
/// every displacement bit — is identical whether the assembly and CG
/// kernels run on 1, 2, or 8 threads.
#[test]
fn fea_stress_field_is_thread_count_invariant() {
    use emgrid::fea::SolveMethod;
    let model = CharacterizationModel {
        array: ViaArrayGeometry::square(2, 0.5, 1.0),
        margin: 0.5,
        resolution: 0.4,
        ..CharacterizationModel::default()
    };
    let solve = |threads: usize| {
        ThermalStressAnalysis::new(model)
            .with_method(SolveMethod::Iterative {
                tolerance: 1e-8,
                max_iterations: 50_000,
            })
            .with_threads(threads)
            .run()
            .expect("coarse model solves")
    };
    let seq = solve(1);
    for threads in [2, 8] {
        let par = solve(threads);
        assert_eq!(
            par.displacements(),
            seq.displacements(),
            "threads = {threads}"
        );
        assert_eq!(par.per_via_peak_stress(), seq.per_via_peak_stress());
    }
}

/// FNV-1a over the little-endian bytes of `words`: the digest the pinned
/// result tests below compare against.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins every bit of a sequential PG1 level-2 run: system TTFs, failures
/// per trial and the per-site failure histogram. PG1 takes ~140 failures
/// per trial, each a rank-1 update of the trial's factor and a kept
/// solution carried across all of them. A solver change that reorders any
/// floating-point operation of the re-solves moves the Table 2 numbers,
/// and fails here.
#[test]
fn grid_mc_result_bits_are_pinned() {
    let rel = via_mc()
        .characterize(200, 3)
        .reliability(FailureCriterion::OpenCircuit)
        .unwrap();
    let grid = PowerGrid::from_netlist(GridSpec::pg1().generate()).unwrap();
    let r = PowerGridMc::new(grid, rel).run(12, 29).unwrap();
    let digest = fnv1a(
        r.ttf_seconds()
            .iter()
            .map(|t| t.to_bits())
            .chain(r.failures_per_trial().iter().map(|&f| f as u64))
            .chain(r.site_failure_counts().iter().map(|&c| c as u64)),
    );
    assert_eq!(
        digest, 0x523c_151a_2547_f3d5,
        "PG1 grid Monte Carlo result moved"
    );
}

/// The same pin for the flat per-via Monte Carlo, whose every via failure
/// is a rank-1 update and re-solve of the whole grid.
#[test]
fn flat_mc_result_bits_are_pinned() {
    let grid = PowerGrid::from_netlist(GridSpec::custom("flat", 6, 6).generate()).unwrap();
    let r = emgrid::pg::FlatMc::new(
        grid,
        ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        Technology::default(),
    )
    .run(6, 11)
    .unwrap();
    let digest = fnv1a(r.ttf_seconds().iter().map(|t| t.to_bits()));
    assert_eq!(
        digest, 0xe70c_046b_fe53_da6d,
        "flat Monte Carlo result moved"
    );
}

/// A mixed-weight 3-D stencil on a 12×10×8 grid: every node links to all
/// 26 neighbours of its 3×3×3 block, weights cycling over eleven values and
/// shrinking with the link's length in grid steps. The diagonal is 1% above
/// the row's link sum plus 0.05, so IC(0) factors without a shift. Rows
/// share several lower neighbours, so the factor's dot products and the
/// preconditioner sweeps have many terms whose order shows in the bits.
fn mixed_stencil() -> (emgrid::sparse::CsrMatrix, Vec<f64>) {
    use emgrid::sparse::TripletMatrix;
    let (nx, ny, nz) = (12usize, 10usize, 8usize);
    let n = nx * ny * nz;
    let mut t = TripletMatrix::new(n, n);
    let mut diag = vec![0.0f64; n];
    for i in 0..n {
        let (x, y, z) = (i % nx, (i / nx) % ny, i / (nx * ny));
        // The 13 forward neighbours (higher index) of the 3×3×3 block.
        for s in 14..27usize {
            let (dx, dy, dz) = (s % 3, s / 3 % 3, s / 9);
            if x + dx < 1 || x + dx > nx || y + dy < 1 || y + dy > ny || z + dz < 1 || z + dz > nz {
                continue;
            }
            let j = ((z + dz - 1) * ny + (y + dy - 1)) * nx + (x + dx - 1);
            let steps = (dx.abs_diff(1) + dy.abs_diff(1) + dz.abs_diff(1)) as f64;
            let w = (0.25 + ((i * 7 + s * 3) % 11) as f64 * 0.2) / steps;
            t.push_sym(i, j, -w);
            diag[i] += w;
            diag[j] += w;
        }
    }
    for (i, d) in diag.iter().enumerate() {
        t.push(i, i, d * 1.01 + 0.05);
    }
    let b = (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
    (t.to_csr(), b)
}

/// Pins the IC(0) factor and the IC(0)-CG solve bit for bit: the factor's
/// CSR arrays, and the solution, iteration count and residual at every
/// thread count. Any reordering of the factor's dot products or of the
/// preconditioner sweeps fails here.
#[test]
fn ic0_factor_and_cg_bits_are_pinned() {
    use emgrid::sparse::{conjugate_gradient, CgOptions, Ic0, Preconditioner};

    let (a, b) = mixed_stencil();
    let f = Ic0::factor(&a).unwrap();
    assert_eq!(f.shift(), 0.0);
    let (row_ptr, col_idx, values) = f.factor_parts();
    let digest = fnv1a(
        row_ptr
            .iter()
            .map(|&p| p as u64)
            .chain(col_idx.iter().map(|&c| u64::from(c)))
            .chain(values.iter().map(|v| v.to_bits())),
    );
    assert_eq!(digest, 0x5f5d_1075_a4f0_ed7a, "IC(0) factor moved");

    for threads in [1, 2] {
        let options = CgOptions {
            tolerance: 1e-10,
            preconditioner: Preconditioner::IncompleteCholesky,
            threads,
            ..CgOptions::default()
        };
        let out = conjugate_gradient(&a, &b, None, &options).unwrap();
        let label = format!("threads = {threads}");
        assert_eq!(out.iterations, 19, "{label}");
        assert_eq!(out.residual.to_bits(), 0x3dd6_6b28_927c_60d4, "{label}");
        let digest = fnv1a(
            out.x
                .iter()
                .map(|v| v.to_bits())
                .chain([out.iterations as u64, out.residual.to_bits()]),
        );
        assert_eq!(
            digest, 0xe2c8_fc06_b254_4838,
            "IC(0)-CG solve moved: {label}"
        );
    }
}

/// Pins the smoothed-aggregation AMG hierarchy and the AMG-CG solve on the
/// conductance matrix of a generated three-layer stack (the chip-scale
/// profiles' structure, 5,760 unknowns): the level sizes, one V-cycle's
/// output, and the solution, iteration count and residual at every thread
/// count. Any reordering of the aggregation, the Galerkin products or the
/// smoother's arithmetic fails here.
#[test]
fn amg_hierarchy_and_cg_bits_are_pinned() {
    use emgrid::sparse::{conjugate_gradient, Amg, CgOptions};
    use emgrid::spice::DcAnalysis;

    let netlist = GridSpec {
        layers: 3,
        ..GridSpec::custom("amg", 48, 40)
    }
    .generate();
    let dc = DcAnalysis::new(&netlist).unwrap();
    let (a, b) = (dc.matrix(), dc.rhs());
    for threads in [1, 2, 8] {
        let label = format!("threads = {threads}");
        let mut amg = Amg::setup(a, threads).unwrap();
        let cycle = fnv1a(amg.apply(b).iter().map(|v| v.to_bits()));
        let out = conjugate_gradient(
            a,
            b,
            None,
            &CgOptions {
                threads,
                ..CgOptions::default()
            },
        )
        .unwrap();
        let digest = fnv1a(
            out.x
                .iter()
                .map(|v| v.to_bits())
                .chain([out.iterations as u64, out.residual.to_bits()]),
        );
        assert_eq!(amg.level_sizes(), &[5760, 1280, 48], "{label}");
        assert_eq!(cycle, 0xd134_61a9_f925_a1a4, "AMG V-cycle moved: {label}");
        assert_eq!(out.iterations, 17, "{label}");
        assert_eq!(out.residual.to_bits(), 0x3dc7_456f_778e_8ce2, "{label}");
        assert_eq!(digest, 0xebf4_87fd_c0c4_028d, "AMG-CG solve moved: {label}");
    }
}
