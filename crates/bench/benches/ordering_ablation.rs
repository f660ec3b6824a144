//! Fill-in and wall-time ablation of the direct solver's orderings and
//! numeric engines: natural vs RCM vs AMD vs nested dissection (scalar
//! up-looking) vs AMD + supernodes, on the two matrix families the
//! workspace actually factors — the fig. 7 FEA stiffness matrix (paper
//! 4x4 array) and a large synthetic power-grid Laplacian.
//!
//! Results land machine-readably in `BENCH_sparse.json`; each `factor`
//! benchmark id embeds the factor's fill (`fill_nnz=`). The fill
//! comparisons themselves are unit tests (`emgrid-sparse`'s ordering and
//! LDL tests on grids, `emgrid-fea`'s `ordering_fill` test on the FEA
//! matrix). Set `EMGRID_BENCH_SMALL=1` (CI) to shrink both matrices and
//! sample counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emgrid::fea::assembly::{assemble, BoundaryConditions};
use emgrid::prelude::*;
use emgrid::sparse::{CsrMatrix, FactorOptions, LdlFactor, Ordering, TripletMatrix};
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

fn fea_matrix(small: bool) -> CsrMatrix {
    let model = if small {
        CharacterizationModel {
            pattern: IntersectionPattern::Plus,
            array: ViaArrayGeometry::square(2, 0.5, 1.0),
            margin: 0.5,
            resolution: 0.5,
            ..CharacterizationModel::default()
        }
    } else {
        CharacterizationModel {
            pattern: IntersectionPattern::Plus,
            array: ViaArrayGeometry::paper_4x4(),
            resolution: 1.0,
            ..CharacterizationModel::default()
        }
    };
    let mesh = model.build_mesh();
    assemble(&mesh, &BoundaryConditions::confined_stack(), -220.0).stiffness
}

fn configs() -> [(&'static str, FactorOptions); 5] {
    let scalar = |ordering| FactorOptions {
        ordering,
        supernodal: false,
        threads: 1,
    };
    [
        ("natural", scalar(Ordering::Natural)),
        ("rcm", scalar(Ordering::Rcm)),
        ("amd", scalar(Ordering::Amd)),
        ("nd", scalar(Ordering::Nd)),
        ("amd_supernodal", FactorOptions::default()),
    ]
}

fn bench_ordering(c: &mut Criterion) {
    c.json_output("BENCH_sparse.json");
    let small = std::env::var("EMGRID_BENCH_SMALL").is_ok_and(|v| v == "1");
    let grid_n = if small { 48 } else { 110 };
    let matrices = [
        ("fea_fig07", fea_matrix(small)),
        ("grid", grid_laplacian(grid_n)),
    ];
    let mut group = c.benchmark_group("ordering_ablation");
    group.sample_size(if small { 3 } else { 5 });
    for (name, a) in &matrices {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        for (label, opts) in configs() {
            let factored = LdlFactor::factor_with(a, &opts).expect("SPD bench matrix factors");
            group.bench_with_input(
                BenchmarkId::new(
                    format!("factor/{name}/{label}"),
                    format!("fill_nnz={}", factored.l_nnz()),
                ),
                a,
                |bench, a| {
                    bench.iter(|| black_box(LdlFactor::factor_with(black_box(a), &opts).unwrap()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("solve/{name}/{label}"), n),
                &factored,
                |bench, f| bench.iter(|| black_box(f.solve(black_box(&b)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ordering);
criterion_main!(benches);
