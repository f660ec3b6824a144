//! Throughput of the level-2 (power grid) Monte Carlo on the benchmark
//! profiles, comparing the system criteria.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emgrid::prelude::*;
use std::hint::black_box;

fn reliability() -> ViaArrayReliability {
    ViaArrayMc::from_reference_table(
        &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        Technology::default(),
        1e10,
    )
    .characterize(300, 5)
    .reliability(FailureCriterion::OpenCircuit)
    .unwrap()
}

fn bench_pg_mc(c: &mut Criterion) {
    // One Criterion instance runs both bench fns, so results of the whole
    // binary land in BENCH_mc.json.
    c.json_output("BENCH_mc.json");
    let rel = reliability();
    let mut group = c.benchmark_group("pg_mc");
    group.sample_size(10);
    for spec in [GridSpec::custom("g12", 12, 12), GridSpec::pg1()] {
        let grid = PowerGrid::from_netlist(spec.generate()).unwrap();
        let sites = grid.via_sites().len();
        group.bench_with_input(
            BenchmarkId::new("ir_drop_10_trials", sites),
            &grid,
            |b, grid| {
                b.iter(|| {
                    let mc = PowerGridMc::new(grid.clone(), rel)
                        .with_system_criterion(SystemCriterion::IrDropFraction(0.10));
                    black_box(mc.run(10, 1).unwrap())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("weakest_link_10_trials", sites),
            &grid,
            |b, grid| {
                b.iter(|| {
                    let mc = PowerGridMc::new(grid.clone(), rel)
                        .with_system_criterion(SystemCriterion::WeakestLink);
                    black_box(mc.run(10, 1).unwrap())
                })
            },
        );
    }
    group.finish();
}

/// Scheduling ablation: the work-stealing runtime against the static-chunk
/// baseline at 8 threads, plus CI-based early termination against the fixed
/// budget. Both schedulers produce bit-identical results (asserted below);
/// only wall-clock differs, because grid-MC trials walk variable-length
/// failure sequences and static chunks leave threads idle behind the
/// longest chunk.
fn bench_scheduling(c: &mut Criterion) {
    let rel = reliability();
    let grid = PowerGrid::from_netlist(GridSpec::custom("g16", 16, 16).generate()).unwrap();
    let mc =
        PowerGridMc::new(grid, rel).with_system_criterion(SystemCriterion::IrDropFraction(0.10));

    // Determinism gate: any thread count, either scheduler, same result.
    let baseline = mc.run(24, 9).unwrap();
    for threads in [2, 4, 8] {
        let r = mc.run_threaded(24, 9, threads).unwrap();
        assert_eq!(baseline.ttf_seconds(), r.ttf_seconds());
    }
    let chunked = mc.run_static_chunked(24, 9, 8).unwrap();
    assert_eq!(baseline.ttf_seconds(), chunked.ttf_seconds());

    let mut group = c.benchmark_group("pg_mc_scheduling");
    group.sample_size(10);
    group.bench_function("work_stealing_8t_64_trials", |b| {
        b.iter(|| black_box(mc.run_threaded(64, 1, 8).unwrap()))
    });
    group.bench_function("static_chunked_8t_64_trials", |b| {
        b.iter(|| black_box(mc.run_static_chunked(64, 1, 8).unwrap()))
    });
    group.bench_function("early_stop_ci_0.10_8t", |b| {
        b.iter(|| {
            let cfg = RuntimeConfig::threaded(8).with_early_stop(EarlyStop::to_half_width(0.10));
            black_box(mc.run_with(10_000, 1, &cfg).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pg_mc, bench_scheduling);
criterion_main!(benches);
