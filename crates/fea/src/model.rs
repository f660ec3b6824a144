//! End-to-end thermomechanical stress analysis of a characterization
//! primitive: mesh → assemble → solve → stress field.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use emgrid_runtime::obs;
use emgrid_sparse::{
    conjugate_gradient, CgOptions, FactorOptions, LdlFactor, Ordering, SparseError,
};

use crate::assembly::{assemble_with, AssembledSystem};
use crate::geometry::CharacterizationModel;
use crate::stress::StressField;

/// Errors from the finite-element pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FeaError {
    /// The voxelized model contains no occupied cells.
    EmptyMesh,
    /// The linear solver failed.
    Solver(SparseError),
}

impl fmt::Display for FeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeaError::EmptyMesh => write!(f, "voxelized model contains no occupied cells"),
            FeaError::Solver(e) => write!(f, "linear solve failed: {e}"),
        }
    }
}

impl Error for FeaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FeaError::Solver(e) => Some(e),
            FeaError::EmptyMesh => None,
        }
    }
}

impl From<SparseError> for FeaError {
    fn from(e: SparseError) -> Self {
        FeaError::Solver(e)
    }
}

/// Linear solver selection for the assembled system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveMethod {
    /// Direct LDLᵀ below `direct_limit` unknowns, conjugate gradient above.
    Auto {
        /// Largest system solved directly.
        direct_limit: usize,
    },
    /// Always use the sparse direct factorization.
    Direct,
    /// Always use IC(0)-preconditioned conjugate gradient.
    Iterative {
        /// Relative residual target.
        tolerance: f64,
        /// Iteration cap.
        max_iterations: usize,
    },
}

impl Default for SolveMethod {
    fn default() -> Self {
        SolveMethod::Auto {
            direct_limit: 12_000,
        }
    }
}

/// Telemetry from one finite-element solve, returned by
/// [`ThermalStressAnalysis::run_with_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Free unknowns in the reduced system.
    pub unknowns: usize,
    /// Stored nonzeros in the assembled stiffness matrix.
    pub nonzeros: usize,
    /// Solver actually used: `"direct-ldl"` or `"cg-ic0"`.
    pub solver: &'static str,
    /// CG iterations performed (0 for a direct solve).
    pub iterations: usize,
    /// Final relative residual (0 for a direct solve).
    pub residual: f64,
    /// Wall time of mesh + assembly.
    pub assemble_time: Duration,
    /// Wall time of the linear solve (factorization included).
    pub solve_time: Duration,
    /// Factorization share of the solve: the LDLᵀ factorization for a
    /// direct solve, the IC(0) preconditioner build for CG.
    pub factor_time: Duration,
}

/// A configured thermomechanical stress analysis (the paper's per-primitive
/// ABAQUS run).
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct ThermalStressAnalysis {
    model: CharacterizationModel,
    method: SolveMethod,
    ordering: Ordering,
    threads: usize,
}

impl ThermalStressAnalysis {
    /// Creates an analysis with the default solver selection.
    pub fn new(model: CharacterizationModel) -> Self {
        ThermalStressAnalysis {
            model,
            method: SolveMethod::default(),
            ordering: Ordering::default(),
            threads: 1,
        }
    }

    /// Overrides the solver selection.
    pub fn with_method(mut self, method: SolveMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides the fill-reducing ordering used by the direct solver
    /// (ignored by the CG branch). Defaults to [`Ordering::Amd`].
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the worker-thread count for assembly and the CG kernels.
    ///
    /// The parallel paths run fixed-chunk deterministic arithmetic, so the
    /// resulting stress field is **bit-identical for any thread count**.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The model being analyzed.
    pub fn model(&self) -> &CharacterizationModel {
        &self.model
    }

    /// Solves the direct branch shared by [`SolveMethod::Direct`] and the
    /// small-system arm of [`SolveMethod::Auto`], reporting the wall time
    /// of the factorization separately from the triangular solves.
    fn direct_solve(&self, sys: &AssembledSystem) -> Result<(Vec<f64>, Duration), FeaError> {
        let factor_start = Instant::now();
        let opts = FactorOptions::default()
            .with_ordering(self.ordering)
            .with_threads(self.threads);
        let factor = {
            let _span = obs::span("factorize");
            LdlFactor::factor_with(&sys.stiffness, &opts)?
        };
        let factor_time = factor_start.elapsed();
        Ok((factor.solve(&sys.load), factor_time))
    }

    /// Meshes, assembles and solves the thermoelastic problem, returning the
    /// recovered stress field.
    ///
    /// # Errors
    ///
    /// Returns [`FeaError::EmptyMesh`] for degenerate geometry and
    /// [`FeaError::Solver`] if the linear solve fails (singular or
    /// non-converged system).
    pub fn run(&self) -> Result<StressField, FeaError> {
        self.run_with_stats().map(|(field, _)| field)
    }

    /// [`run`](Self::run), additionally returning per-solve telemetry.
    pub fn run_with_stats(&self) -> Result<(StressField, SolveStats), FeaError> {
        let _fea_span = obs::span("fea");
        let assemble_start = Instant::now();
        let assemble_span = obs::span("assemble");
        let mesh = self.model.build_mesh();
        if mesh.occupied_count() == 0 {
            return Err(FeaError::EmptyMesh);
        }
        let bc = self.model.boundary_conditions();
        let sys = assemble_with(&mesh, &bc, self.model.delta_t(), self.threads);
        drop(assemble_span);
        let assemble_time = assemble_start.elapsed();
        let n = sys.dof_map.free_count();
        let nonzeros = sys.stiffness.values().len();

        let cg_opts = |tolerance, max_iterations| CgOptions {
            tolerance,
            max_iterations,
            threads: self.threads,
            ..CgOptions::default()
        };
        let solve_start = Instant::now();
        let solve_span = obs::span("solve");
        let (solution, solver, iterations, residual, factor_time) = match self.method {
            SolveMethod::Direct => {
                let (x, factor_time) = self.direct_solve(&sys)?;
                (x, "direct-ldl", 0, 0.0, factor_time)
            }
            SolveMethod::Auto { direct_limit } if n <= direct_limit => {
                let (x, factor_time) = self.direct_solve(&sys)?;
                (x, "direct-ldl", 0, 0.0, factor_time)
            }
            SolveMethod::Auto { .. } => {
                let out =
                    conjugate_gradient(&sys.stiffness, &sys.load, None, &cg_opts(1e-7, 40_000))?;
                (
                    out.x,
                    "cg-ic0",
                    out.iterations,
                    out.residual,
                    out.precond_time,
                )
            }
            SolveMethod::Iterative {
                tolerance,
                max_iterations,
            } => {
                let out = conjugate_gradient(
                    &sys.stiffness,
                    &sys.load,
                    None,
                    &cg_opts(tolerance, max_iterations),
                )?;
                (
                    out.x,
                    "cg-ic0",
                    out.iterations,
                    out.residual,
                    out.precond_time,
                )
            }
        };
        drop(solve_span);
        let solve_time = solve_start.elapsed();
        obs::counter(
            "emgrid_fea_solves_total",
            "Finite-element solves completed.",
        )
        .inc();
        obs::histogram(
            "emgrid_fea_solve_seconds",
            "Wall time of one FEA assemble + solve.",
        )
        .observe_duration(assemble_time + solve_time);
        let full = sys.dof_map.expand(&solution);
        let stats = SolveStats {
            unknowns: n,
            nonzeros,
            solver,
            iterations,
            residual,
            assemble_time,
            solve_time,
            factor_time,
        };
        Ok((
            StressField::from_displacements(self.model, mesh, &full),
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{IntersectionPattern, ViaArrayGeometry};

    /// A small, fast model used across the behavioural tests: 2×2 array,
    /// coarse mesh, shrunken domain.
    fn small_model(pattern: IntersectionPattern) -> CharacterizationModel {
        CharacterizationModel {
            pattern,
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            wire_width: 2.0,
            margin: 0.5,
            resolution: 0.4,
            ..CharacterizationModel::default()
        }
    }

    #[test]
    fn copper_is_in_tension_after_cooldown() {
        let field = ThermalStressAnalysis::new(small_model(IntersectionPattern::Plus))
            .run()
            .unwrap();
        let peaks = field.per_via_peak_stress();
        assert_eq!(peaks.len(), 4);
        for p in &peaks {
            // Tension of order 10–1000 MPa (CTE mismatch on -220 K).
            assert!(*p > 1e7, "peak {p} Pa not tensile enough");
            assert!(*p < 2e9, "peak {p} Pa unphysically high");
        }
    }

    #[test]
    fn plus_pattern_sees_more_stress_than_ell() {
        // The paper's Fig. 6: Plus > T > L in peak σ_T under the via row.
        let run = |p| {
            ThermalStressAnalysis::new(small_model(p))
                .run()
                .unwrap()
                .per_via_peak_stress()
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(v))
        };
        let plus = run(IntersectionPattern::Plus);
        let tee = run(IntersectionPattern::Tee);
        let ell = run(IntersectionPattern::Ell);
        assert!(plus > tee, "plus {plus} vs tee {tee}");
        assert!(tee > ell, "tee {tee} vs ell {ell}");
    }

    #[test]
    fn direct_and_iterative_solvers_agree() {
        let model = small_model(IntersectionPattern::Plus);
        let direct = ThermalStressAnalysis::new(model)
            .with_method(SolveMethod::Direct)
            .run()
            .unwrap();
        let iterative = ThermalStressAnalysis::new(model)
            .with_method(SolveMethod::Iterative {
                tolerance: 1e-10,
                max_iterations: 50_000,
            })
            .run()
            .unwrap();
        let pd = direct.per_via_peak_stress();
        let pi = iterative.per_via_peak_stress();
        for (a, b) in pd.iter().zip(&pi) {
            assert!((a - b).abs() / a.abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn ic0_outperforms_jacobi_on_stiffness_systems() {
        // The motivation for wiring IC(0) into the FEA path: multi-material
        // stiffness matrices are badly conditioned (E spans 16–223 GPa),
        // where the incomplete factorization cuts CG iterations hard.
        use emgrid_sparse::{conjugate_gradient, CgOptions, Preconditioner};

        let model = small_model(IntersectionPattern::Plus);
        let mesh = model.build_mesh();
        let sys = crate::assembly::assemble(&mesh, &model.boundary_conditions(), model.delta_t());
        let run = |p: Preconditioner| {
            conjugate_gradient(
                &sys.stiffness,
                &sys.load,
                None,
                &CgOptions {
                    tolerance: 1e-8,
                    max_iterations: 100_000,
                    preconditioner: p,
                    ..CgOptions::default()
                },
            )
            .unwrap()
            .iterations
        };
        let jacobi = run(Preconditioner::Jacobi);
        let ic = run(Preconditioner::IncompleteCholesky);
        assert!(ic * 3 < jacobi, "ic {ic} vs jacobi {jacobi} iterations");
    }

    #[test]
    fn line_scan_through_via_row_is_nonempty_and_in_range() {
        let field = ThermalStressAnalysis::new(small_model(IntersectionPattern::Plus))
            .run()
            .unwrap();
        let scan = field.via_row_scan(0);
        assert!(!scan.is_empty());
        for s in &scan {
            assert!(s.hydrostatic_mpa.is_finite());
        }
        // Positions are increasing along x.
        for w in scan.windows(2) {
            assert!(w[1].position > w[0].position);
        }
    }
}
