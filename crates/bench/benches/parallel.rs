//! Thread-scaling of the parallel execution layer.
//!
//! Measures aerial-image, gradient and one full optimizer iteration at
//! the paper's 1024² / K = 24 configuration for thread counts
//! {1, 2, 4, 8}, each on its own [`ParallelContext`] over a persistent
//! pool, and writes a `BENCH_parallel.json` scaling summary to the
//! workspace root, next to the plan-cache numbers.
//!
//! `cargo test` runs this harness with `--test`; that executes a small
//! smoke configuration once and writes no JSON. The speedup column is a
//! property of the host: on a single-core machine every context has one
//! lane and all rows measure the same inline path.

use lsopc_core::{LevelSetIlt, RunControl};
use lsopc_grid::Grid;
use lsopc_litho::{AcceleratedBackend, LithoSimulator, SimBackend};
use lsopc_optics::{KernelSet, OpticsConfig};
use lsopc_parallel::ParallelContext;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Config {
    n: usize,
    k: usize,
    samples: usize,
}

fn kernels(cfg: &Config) -> KernelSet {
    optics(cfg).kernels(0.0)
}

fn optics(cfg: &Config) -> OpticsConfig {
    OpticsConfig::iccad2013()
        .with_field_nm(cfg.n as f64) // 1 nm/px
        .with_kernel_count(cfg.k)
}

fn mask(n: usize) -> Grid<f64> {
    Grid::from_fn(n, n, |x, y| {
        let a = (n / 8..n / 2).contains(&x) && (n / 4..n / 2).contains(&y);
        let b = (5 * n / 8..7 * n / 8).contains(&x) && (n / 8..7 * n / 8).contains(&y);
        if a || b {
            1.0
        } else {
            0.0
        }
    })
}

fn sensitivity(n: usize) -> Grid<f64> {
    Grid::from_fn(n, n, |x, y| {
        0.02 * ((x as f64 * 0.21).sin() + (y as f64 * 0.13).cos())
    })
}

/// Best-of-`samples` wall time of `f`, after one warm-up call.
fn time_best(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    threads: usize,
    aerial_s: f64,
    gradient_s: f64,
    iteration_s: f64,
}

fn measure(cfg: &Config, threads: usize) -> Row {
    let ctx = ParallelContext::new(threads);
    let ks = kernels(cfg);
    let m = mask(cfg.n);
    let z = sensitivity(cfg.n);
    let backend = AcceleratedBackend::with_context(ctx.clone());
    let aerial_s = time_best(cfg.samples, || {
        let img = backend.aerial_image(&ks, &m);
        assert!(img.sum() > 0.0);
    });
    let gradient_s = time_best(cfg.samples, || {
        let g = backend.gradient(&ks, &m, &z);
        assert!(g.as_slice().iter().any(|&v| v != 0.0));
    });

    let sim = LithoSimulator::from_optics(&optics(cfg), cfg.n, 1.0)
        .expect("valid configuration")
        .with_backend(Box::new(AcceleratedBackend::with_context(ctx)));
    let opt = LevelSetIlt::builder().max_iterations(1).build();
    let target = mask(cfg.n);
    let iteration_s = time_best(cfg.samples, || {
        let result = opt
            .optimize(&sim, &target, &RunControl::new())
            .expect("one iteration");
        assert_eq!(result.iterations, 1);
    });

    Row {
        threads,
        aerial_s,
        gradient_s,
        iteration_s,
    }
}

fn write_json(cfg: &Config, rows: &[Row]) {
    let base = &rows[0];
    let mut entries = Vec::new();
    for r in rows {
        entries.push(format!(
            concat!(
                "    {{\"threads\": {}, \"aerial_s\": {:.6}, \"gradient_s\": {:.6}, ",
                "\"iteration_s\": {:.6}, \"aerial_speedup\": {:.3}, ",
                "\"gradient_speedup\": {:.3}, \"iteration_speedup\": {:.3}}}"
            ),
            r.threads,
            r.aerial_s,
            r.gradient_s,
            r.iteration_s,
            base.aerial_s / r.aerial_s,
            base.gradient_s / r.gradient_s,
            base.iteration_s / r.iteration_s,
        ));
    }
    let host_lanes = ParallelContext::global().threads();
    let json = format!(
        "{{\n  \"benchmark\": \"parallel_scaling\",\n  \"grid\": {},\n  \"kernels\": {},\n  \
         \"host_lanes\": {},\n  \"samples_per_point\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        cfg.n,
        cfg.k,
        host_lanes,
        cfg.samples,
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, json).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let cfg = if smoke {
        Config {
            n: 64,
            k: 4,
            samples: 1,
        }
    } else {
        Config {
            n: 1024,
            k: 24,
            samples: 2,
        }
    };
    let mut rows = Vec::new();
    for &t in &THREADS {
        let row = measure(&cfg, t);
        println!(
            "threads={:<2} aerial={:.4}s gradient={:.4}s iteration={:.4}s",
            row.threads, row.aerial_s, row.gradient_s, row.iteration_s
        );
        rows.push(row);
    }
    if !smoke {
        write_json(&cfg, &rows);
    }
}
