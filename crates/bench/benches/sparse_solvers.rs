//! Direct LDLᵀ vs Jacobi- and IC(0)-PCG on grid Laplacians of increasing
//! size — the solver trade-off behind both the FEA engine and the MNA
//! analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emgrid::sparse::{
    conjugate_gradient, CgOptions, CsrMatrix, FactorOptions, LdlFactor, Preconditioner,
    TripletMatrix,
};
use std::hint::black_box;

fn grid_laplacian(n: usize) -> CsrMatrix {
    let id = |x: usize, y: usize| y * n + x;
    let mut t = TripletMatrix::new(n * n, n * n);
    for y in 0..n {
        for x in 0..n {
            t.push(id(x, y), id(x, y), 4.01);
            if x + 1 < n {
                t.push_sym(id(x, y), id(x + 1, y), -1.0);
            }
            if y + 1 < n {
                t.push_sym(id(x, y), id(x, y + 1), -1.0);
            }
        }
    }
    t.to_csr()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_solvers");
    for n in [16usize, 32, 64] {
        let a = grid_laplacian(n);
        let b = vec![1.0; n * n];
        group.bench_with_input(
            BenchmarkId::new("ldl_factor_solve", n * n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    let f =
                        LdlFactor::factor_with(black_box(&a), &FactorOptions::default()).unwrap();
                    black_box(f.solve(&b))
                })
            },
        );
        let factored = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("ldl_solve_only", n * n), &n, |bench, _| {
            bench.iter(|| black_box(factored.solve(black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("pcg_jacobi", n * n), &n, |bench, _| {
            let opts = CgOptions {
                preconditioner: Preconditioner::Jacobi,
                ..CgOptions::default()
            };
            bench.iter(|| black_box(conjugate_gradient(black_box(&a), &b, None, &opts).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("pcg_ic0", n * n), &n, |bench, _| {
            bench.iter(|| {
                black_box(
                    conjugate_gradient(black_box(&a), &b, None, &CgOptions::default()).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
