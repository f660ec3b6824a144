//! Ablation of a design choice called out in DESIGN.md: after each
//! via-array failure, re-solve the grid with an incremental rank-1 update
//! of the factor vs. a full refactorization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emgrid::prelude::*;
use emgrid::sparse::{FactorOptions, IncrementalSolver, LdlFactor, TripletMatrix};
use std::hint::black_box;

/// Builds the PG1-profile conductance system and the list of via edges in
/// unknown-index space.
fn pg_system() -> (
    emgrid::sparse::CsrMatrix,
    Vec<f64>,
    Vec<(usize, usize, f64)>,
) {
    let grid = PowerGrid::from_netlist(GridSpec::pg1().generate()).unwrap();
    let dc = grid.dc();
    let edges = grid
        .via_sites()
        .iter()
        .filter_map(
            |s| match (dc.unknown_index(s.lower), dc.unknown_index(s.upper)) {
                (Some(i), Some(j)) => Some((i, j, 1.0 / s.resistance)),
                _ => None,
            },
        )
        .collect();
    (dc.matrix().clone(), dc.rhs().to_vec(), edges)
}

fn bench_failure_sequences(c: &mut Criterion) {
    let (matrix, rhs, edges) = pg_system();
    let mut group = c.benchmark_group("smw_ablation");
    group.sample_size(10);
    for failures in [4usize, 16, 32] {
        group.bench_with_input(
            BenchmarkId::new("smw_incremental", failures),
            &failures,
            |bench, &failures| {
                bench.iter(|| {
                    let mut solver = IncrementalSolver::new(&matrix).unwrap();
                    for k in 0..failures {
                        let (i, j, g) = edges[k * 7 % edges.len()];
                        solver.update_edge(i, j, -g * 0.999).unwrap();
                        black_box(solver.solve(&rhs).unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_refactor", failures),
            &failures,
            |bench, &failures| {
                bench.iter(|| {
                    let n = matrix.rows();
                    let mut removed: Vec<(usize, usize, f64)> = Vec::new();
                    for k in 0..failures {
                        let (i, j, g) = edges[k * 7 % edges.len()];
                        removed.push((i, j, g * 0.999));
                        let mut t =
                            TripletMatrix::with_capacity(n, n, matrix.nnz() + 4 * removed.len());
                        for r in 0..n {
                            for (cc, v) in matrix.row(r) {
                                t.push(r, cc, v);
                            }
                        }
                        for &(i, j, g) in &removed {
                            t.push(i, i, -g);
                            t.push(j, j, -g);
                            t.push(i, j, g);
                            t.push(j, i, g);
                        }
                        let f =
                            LdlFactor::factor_with(&t.to_csr(), &FactorOptions::default()).unwrap();
                        black_box(f.solve(&rhs));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_failure_sequences);
criterion_main!(benches);
