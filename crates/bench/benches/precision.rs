//! Precision throughput: f64 vs f32 forward/adjoint passes.
//!
//! Measures aerial-image and gradient wall time at the paper's
//! 1024² / K = 24 configuration for the two CLI precisions, every
//! pass on the same single-lane [`ParallelContext`] so the comparison
//! is pure arithmetic cost, and writes a `BENCH_precision.json`
//! summary to the workspace root next to the parallel-scaling numbers.
//! Each row also records the measured max |Δ| of its aerial image and
//! gradient against the f64 reference on the same mask, so the
//! accuracy cost of each precision ships with its speedup.
//!
//! `cargo test` runs this harness with `--test`; that executes a small
//! smoke configuration once and writes no JSON.

use lsopc_grid::Grid;
use lsopc_litho::{AcceleratedBackend, SimBackend};
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;
use std::time::Instant;

struct Config {
    n: usize,
    k: usize,
    samples: usize,
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

fn max_dev(a: &Grid<f64>, b: &Grid<f64>) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

struct Row {
    precision: &'static str,
    aerial_s: f64,
    gradient_s: f64,
    max_aerial_dev: f64,
    max_gradient_dev: f64,
}

fn measure(cfg: &Config) -> Vec<Row> {
    let ctx = ParallelContext::new(1);
    let ks = optics(cfg).kernels(0.0);
    let ks32 = ks.cast::<f32>();
    let m = mask(cfg.n);
    let m32 = m.map(|&v| v as f32);
    let z = sensitivity(cfg.n);
    let z32 = z.map(|&v| v as f32);
    let acc = AcceleratedBackend::with_context(ctx);

    let ref_aerial: Grid<f64> = acc.aerial_image(&ks, &m);
    let ref_gradient: Grid<f64> = acc.gradient(&ks, &m, &z);
    assert!(ref_aerial.sum() > 0.0);

    let mut rows = Vec::new();

    rows.push(Row {
        precision: "f64",
        aerial_s: time_best(cfg.samples, || {
            let img: Grid<f64> = acc.aerial_image(&ks, &m);
            assert!(img.sum() > 0.0);
        }),
        gradient_s: time_best(cfg.samples, || {
            let g: Grid<f64> = acc.gradient(&ks, &m, &z);
            assert!(g.as_slice().iter().any(|&v| v != 0.0));
        }),
        max_aerial_dev: 0.0,
        max_gradient_dev: 0.0,
    });

    let aerial32: Grid<f32> = acc.aerial_image(&ks32, &m32);
    let gradient32: Grid<f32> = acc.gradient(&ks32, &m32, &z32);
    rows.push(Row {
        precision: "f32",
        aerial_s: time_best(cfg.samples, || {
            let img: Grid<f32> = acc.aerial_image(&ks32, &m32);
            assert!(img.sum() > 0.0);
        }),
        gradient_s: time_best(cfg.samples, || {
            let g: Grid<f32> = acc.gradient(&ks32, &m32, &z32);
            assert!(g.as_slice().iter().any(|&v| v != 0.0));
        }),
        max_aerial_dev: max_dev(&aerial32.map(|&v| v as f64), &ref_aerial),
        max_gradient_dev: max_dev(&gradient32.map(|&v| v as f64), &ref_gradient),
    });

    rows
}

fn write_json(cfg: &Config, rows: &[Row]) {
    let base = &rows[0];
    let mut entries = Vec::new();
    for r in rows {
        entries.push(format!(
            concat!(
                "    {{\"precision\": \"{}\", \"aerial_s\": {:.6}, \"gradient_s\": {:.6}, ",
                "\"aerial_speedup\": {:.3}, \"gradient_speedup\": {:.3}, ",
                "\"max_aerial_dev\": {:.3e}, \"max_gradient_dev\": {:.3e}}}"
            ),
            r.precision,
            r.aerial_s,
            r.gradient_s,
            base.aerial_s / r.aerial_s,
            base.gradient_s / r.gradient_s,
            r.max_aerial_dev,
            r.max_gradient_dev,
        ));
    }
    let note = concat!(
        "speedups are relative to the f64 row on one lane; ",
        "max_*_dev is the measured max |delta| vs the f64 backend on the ",
        "same mask (aerial intensity is O(1), gradient O(0.01)). ",
        "Both rows run the one production transform path (real-input FFT). ",
        "See DESIGN.md section 11 for the precision model."
    );
    let json = format!(
        "{{\n  \"benchmark\": \"precision\",\n  \"grid\": {},\n  \"kernels\": {},\n  \
         \"host_lanes\": {},\n  \"samples_per_point\": {},\n  \"rows\": [\n{}\n  ],\n  \
         \"note\": \"{}\"\n}}\n",
        cfg.n,
        cfg.k,
        ParallelContext::global().threads(),
        cfg.samples,
        entries.join(",\n"),
        note
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_precision.json");
    std::fs::write(path, json).expect("write BENCH_precision.json");
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
            samples: 5,
        }
    };
    let rows = measure(&cfg);
    for row in &rows {
        println!(
            "precision={:<5} aerial={:.4}s gradient={:.4}s max_dev(aerial)={:.2e} max_dev(grad)={:.2e}",
            row.precision, row.aerial_s, row.gradient_s, row.max_aerial_dev, row.max_gradient_dev
        );
    }
    if !smoke {
        write_json(&cfg, &rows);
    }
}
