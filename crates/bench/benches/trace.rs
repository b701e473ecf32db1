//! Cost of the tracing layer itself.
//!
//! `disabled_*` measures the fast path every instrumentation point pays
//! when no sink is installed (one relaxed atomic load) — the number the
//! <1% production-overhead budget rests on. `registry_*` and `jsonl_*`
//! measure the full per-event cost with a sink attached, and
//! `traced_sim_pass` puts the end-to-end effect on a real 512²/K=8
//! aerial pass next to its untraced twin.

use criterion::{criterion_group, criterion_main, Criterion};
use lsopc_grid::Grid;
use lsopc_litho::{FftBackend, SimBackend};
use lsopc_optics::{KernelSet, OpticsConfig};
use std::sync::Arc;

const N: usize = 512;
const K: usize = 8;

fn kernels() -> KernelSet {
    OpticsConfig::iccad2013()
        .with_field_nm(N as f64)
        .with_kernel_count(K)
        .kernels(0.0)
}

fn mask() -> Grid<f64> {
    Grid::from_fn(N, N, |x, y| {
        if (N / 4..N / 2).contains(&x) && (N / 8..7 * N / 8).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn bench_trace(c: &mut Criterion) {
    let ks = kernels();
    let m = mask();
    let backend = FftBackend::new();
    let warm = backend.aerial_image(&ks, &m);
    assert!(warm.sum() > 0.0);

    let mut group = c.benchmark_group("trace");

    // The disabled path: what every span!/count() costs in production
    // when no --trace/--metrics sink is installed.
    lsopc_trace::uninstall();
    group.bench_function("disabled_span", |b| {
        b.iter(|| {
            let _ = std::hint::black_box(lsopc_trace::span!("bench.probe"));
        })
    });
    group.bench_function("disabled_count", |b| {
        b.iter(|| lsopc_trace::count("bench.probe", std::hint::black_box(1)))
    });
    group.bench_function("untraced_sim_pass", |b| {
        b.iter(|| backend.aerial_image(&ks, &m))
    });

    // Full per-event cost with the metrics registry attached.
    let registry = Arc::new(lsopc_trace::MetricsRegistry::new());
    lsopc_trace::install(registry.clone());
    group.bench_function("registry_span", |b| {
        b.iter(|| {
            let _ = std::hint::black_box(lsopc_trace::span!("bench.probe"));
        })
    });
    group.bench_function("registry_count", |b| {
        b.iter(|| lsopc_trace::count("bench.probe", std::hint::black_box(1)))
    });
    group.bench_function("traced_sim_pass", |b| {
        b.iter(|| backend.aerial_image(&ks, &m))
    });
    lsopc_trace::uninstall();

    // Event-stream writer cost (to an in-memory buffer, not disk, so
    // the measurement is the serialization + lock, not the filesystem).
    let jsonl = Arc::new(lsopc_trace::JsonlSink::new(Vec::new()));
    lsopc_trace::install(jsonl);
    group.bench_function("jsonl_span", |b| {
        b.iter(|| {
            let _ = std::hint::black_box(lsopc_trace::span!("bench.probe"));
        })
    });
    lsopc_trace::uninstall();

    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
