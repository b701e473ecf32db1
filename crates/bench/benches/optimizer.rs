//! End-to-end optimizer benchmarks: full level-set ILT iterations on a
//! small benchmark tile, CPU vs accelerated backend, CG on/off.

use criterion::{criterion_group, criterion_main, Criterion};
use lsopc_benchsuite::Iccad2013Suite;
use lsopc_core::{LevelSetIlt, RunControl};
use lsopc_geometry::rasterize;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;

fn bench_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("levelset_ilt_3iter");
    group.sample_size(10);
    let suite = Iccad2013Suite::new();
    let case = &suite.cases()[3]; // B4, the smallest pattern
    let layout = suite.layout(case);
    let grid = 256;
    let px = 2048.0 / grid as f64;
    let target = rasterize(&layout, grid, grid, px);
    let optics = OpticsConfig::iccad2013().with_kernel_count(24);

    let cpu = LithoSimulator::from_optics(&optics, grid, px).expect("valid configuration");
    let gpu = LithoSimulator::from_optics(&optics, grid, px)
        .expect("valid configuration")
        .with_accelerated_backend(1);
    let opt = LevelSetIlt::builder().max_iterations(3).build();
    let opt_nocg = LevelSetIlt::builder()
        .max_iterations(3)
        .conjugate_gradient(false)
        .build();

    let ctl = RunControl::new();
    group.bench_function("cpu_backend", |b| {
        b.iter(|| opt.optimize(&cpu, &target, &ctl).expect("runs"));
    });
    group.bench_function("accelerated_backend", |b| {
        b.iter(|| opt.optimize(&gpu, &target, &ctl).expect("runs"));
    });
    group.bench_function("accelerated_no_cg", |b| {
        b.iter(|| opt_nocg.optimize(&gpu, &target, &ctl).expect("runs"));
    });
    group.finish();
}

criterion_group!(benches, bench_iterations);
criterion_main!(benches);
