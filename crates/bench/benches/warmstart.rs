//! Coarse-to-fine schedule and warm-start cache on a repeated-pattern
//! workload.
//!
//! Two claims from DESIGN.md §14, measured at the paper's 1024² / K = 24
//! configuration on the [`RepeatedTileSpec`] layout (16 identical contact
//! motifs on a 512 nm cell grid):
//!
//! 1. A [`ResolutionSchedule`] spends most iterations on a quarter-size
//!    grid with half the kernel rank, so a scheduled full-grid run beats
//!    the flat run's wall-clock at a matched iteration budget.
//! 2. A [`WarmStartCache`] on a [`TiledIlt`] run collapses the 16
//!    translation-equivalent tiles onto one cache key, so all but the
//!    first tile skip to a short warm refinement — far fewer
//!    full-resolution iterations than the uncached run.
//!
//! Writes `BENCH_warmstart.json` to the workspace root. `cargo test`
//! runs this harness with `--test`: a small smoke configuration that
//! asserts both mechanisms engage and writes no JSON.

use lsopc_benchsuite::RepeatedTileSpec;
use lsopc_core::{
    LevelSetIlt, ResolutionSchedule, RunControl, TiledIlt, TiledStats, WarmStartCache,
};
use lsopc_geometry::{rasterize, Layout};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_metrics::evaluate_mask;
use lsopc_optics::OpticsConfig;
use std::time::Instant;

struct Config {
    /// Full-grid side, px. The 2048 nm field fixes `pixel_nm`.
    n: usize,
    /// Kernel rank of the fine (and flat) stage.
    k: usize,
    /// Iteration budget per tile / per full-grid run.
    iters: usize,
    /// Warm-tile refinement budget.
    warm_iters: usize,
}

impl Config {
    fn pixel_nm(&self) -> f64 {
        lsopc_benchsuite::FIELD_NM as f64 / self.n as f64
    }

    /// Tile core matching the 512 nm cell period, so every populated
    /// tile is the same motif up to whole-pixel translation.
    fn core_px(&self, spec: &RepeatedTileSpec) -> usize {
        (spec.cell_nm as f64 / self.pixel_nm()) as usize
    }
}

fn optics(cfg: &Config) -> OpticsConfig {
    OpticsConfig::iccad2013().with_kernel_count(cfg.k)
}

fn target(cfg: &Config, spec: &RepeatedTileSpec) -> Grid<f64> {
    rasterize(&spec.generate(), cfg.n, cfg.n, cfg.pixel_nm())
}

struct FullRun {
    wall_s: f64,
    full_iterations: usize,
    coarse_iterations: usize,
    final_cost: f64,
    quality: Quality,
}

/// Contest-metric quality of a final mask (EPE violations at the
/// nominal print, PV band area), the same quantities
/// `tests/precision_tolerance.rs` bounds across precisions.
#[derive(Copy, Clone, Default)]
struct Quality {
    epe_violations: usize,
    pvb_nm2: f64,
}

fn quality(cfg: &Config, layout: &Layout, tgt: &Grid<f64>, mask: &Grid<f64>) -> Quality {
    let sim = LithoSimulator::from_optics(&optics(cfg), cfg.n, cfg.pixel_nm())
        .expect("valid configuration")
        .with_accelerated_backend(1);
    let eval = evaluate_mask(&sim, mask, layout, tgt);
    Quality {
        epe_violations: eval.epe.violations,
        pvb_nm2: eval.pvb_area_nm2,
    }
}

/// One untiled full-grid run, flat or scheduled.
fn run_full(cfg: &Config, tgt: &Grid<f64>, scheduled: bool) -> (FullRun, Grid<f64>) {
    let sim = LithoSimulator::from_optics(&optics(cfg), cfg.n, cfg.pixel_nm())
        .expect("valid configuration")
        .with_accelerated_backend(1);
    let schedule = if scheduled {
        Some(
            ResolutionSchedule::auto(cfg.n, sim.optics(), cfg.iters)
                .expect("grid is schedulable at this size"),
        )
    } else {
        None
    };
    let opt = LevelSetIlt::builder()
        .max_iterations(cfg.iters)
        .schedule(schedule)
        .build();
    let t = Instant::now();
    let result = opt
        .optimize(&sim, tgt, &RunControl::new())
        .expect("full-grid run");
    let wall_s = t.elapsed().as_secs_f64();
    let run = FullRun {
        wall_s,
        full_iterations: result.iterations - result.coarse_iterations,
        coarse_iterations: result.coarse_iterations,
        final_cost: result.final_cost(),
        quality: Quality::default(),
    };
    (run, result.mask)
}

struct TiledRun {
    wall_s: f64,
    stats: TiledStats,
    quality: Quality,
}

/// One tiled run over the repeated layout, optionally warm-started.
fn run_tiled(
    cfg: &Config,
    spec: &RepeatedTileSpec,
    tgt: &Grid<f64>,
    cache: Option<WarmStartCache>,
) -> (TiledRun, Grid<f64>) {
    let opt = LevelSetIlt::builder().max_iterations(cfg.iters).build();
    let mut ilt = TiledIlt::new(opt, cfg.core_px(spec), 0)
        .expect("valid tiling")
        .with_warm_iterations(cfg.warm_iters);
    if let Some(cache) = cache {
        ilt = ilt.with_warm_start(cache);
    }
    let t = Instant::now();
    let sim = LithoSimulator::from_optics(&optics(cfg), ilt.tile_px(), cfg.pixel_nm())
        .expect("valid tile window")
        .with_accelerated_backend(1);
    let (mask, stats) = ilt
        .optimize(&sim, tgt, &RunControl::new())
        .expect("tiled run");
    let wall_s = t.elapsed().as_secs_f64();
    let run = TiledRun {
        wall_s,
        stats,
        quality: Quality::default(),
    };
    (run, mask)
}

fn tiled_entry(name: &str, r: &TiledRun) -> String {
    format!(
        concat!(
            "    {{\"variant\": \"{}\", \"wall_s\": {:.4}, \"tiles\": {}, ",
            "\"cold\": {}, \"warm\": {}, \"full_iterations\": {}, ",
            "\"coarse_iterations\": {}, \"epe_violations\": {}, ",
            "\"pvb_nm2\": {:.0}}}"
        ),
        name,
        r.wall_s,
        r.stats.tiles,
        r.stats.cold,
        r.stats.warm,
        r.stats.full_iterations(),
        r.stats.coarse_iterations,
        r.quality.epe_violations,
        r.quality.pvb_nm2,
    )
}

fn write_json(
    cfg: &Config,
    spec: &RepeatedTileSpec,
    flat: &FullRun,
    scheduled: &FullRun,
    no_cache: &TiledRun,
    cold: &TiledRun,
    warm: &TiledRun,
) {
    let full_entries = [("flat", flat), ("scheduled", scheduled)]
        .iter()
        .map(|(name, r)| {
            format!(
                concat!(
                    "    {{\"variant\": \"{}\", \"wall_s\": {:.4}, ",
                    "\"full_iterations\": {}, \"coarse_iterations\": {}, ",
                    "\"final_cost\": {:.4}, \"epe_violations\": {}, ",
                    "\"pvb_nm2\": {:.0}}}"
                ),
                name,
                r.wall_s,
                r.full_iterations,
                r.coarse_iterations,
                r.final_cost,
                r.quality.epe_violations,
                r.quality.pvb_nm2
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let tiled_entries = [
        ("no_cache", no_cache),
        ("cold_cache", cold),
        ("warm_cache", warm),
    ]
    .iter()
    .map(|(name, r)| tiled_entry(name, r))
    .collect::<Vec<_>>()
    .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"warmstart\",\n",
            "  \"grid\": {grid},\n",
            "  \"kernels\": {k},\n",
            "  \"pixel_nm\": {px},\n",
            "  \"iterations\": {iters},\n",
            "  \"warm_iterations\": {warm_iters},\n",
            "  \"tile_core_px\": {core},\n",
            "  \"tile_halo_px\": 0,\n",
            "  \"full_grid\": [\n{full}\n  ],\n",
            "  \"schedule_speedup\": {sched_speedup:.3},\n",
            "  \"tiled\": [\n{tiled}\n  ],\n",
            "  \"warm_iteration_reduction\": {warm_red:.3}\n",
            "}}\n"
        ),
        grid = cfg.n,
        k = cfg.k,
        px = cfg.pixel_nm(),
        iters = cfg.iters,
        warm_iters = cfg.warm_iters,
        core = cfg.core_px(spec),
        full = full_entries,
        sched_speedup = flat.wall_s / scheduled.wall_s,
        tiled = tiled_entries,
        warm_red = no_cache.stats.full_iterations() as f64 / warm.stats.full_iterations() as f64,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_warmstart.json");
    std::fs::write(path, json).expect("write BENCH_warmstart.json");
    println!("wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let cfg = if smoke {
        Config {
            n: 256,
            k: 4,
            iters: 3,
            warm_iters: 1,
        }
    } else {
        Config {
            n: 1024,
            k: 24,
            iters: 9,
            warm_iters: 3,
        }
    };
    let spec = RepeatedTileSpec::default_repeated();
    let tgt = target(&cfg, &spec);
    let tiles = spec.cells_per_side() * spec.cells_per_side();

    let layout = spec.generate();

    let (mut flat, flat_mask) = run_full(&cfg, &tgt, false);
    flat.quality = quality(&cfg, &layout, &tgt, &flat_mask);
    println!(
        "full flat      wall={:.3}s full_iters={} cost={:.1} epe={} pvb={:.0}",
        flat.wall_s,
        flat.full_iterations,
        flat.final_cost,
        flat.quality.epe_violations,
        flat.quality.pvb_nm2
    );
    let (mut scheduled, scheduled_mask) = run_full(&cfg, &tgt, true);
    scheduled.quality = quality(&cfg, &layout, &tgt, &scheduled_mask);
    println!(
        "full scheduled wall={:.3}s full_iters={} coarse_iters={} cost={:.1} epe={} pvb={:.0}",
        scheduled.wall_s,
        scheduled.full_iterations,
        scheduled.coarse_iterations,
        scheduled.final_cost,
        scheduled.quality.epe_violations,
        scheduled.quality.pvb_nm2
    );

    let (mut no_cache, no_cache_mask) = run_tiled(&cfg, &spec, &tgt, None);
    no_cache.quality = quality(&cfg, &layout, &tgt, &no_cache_mask);
    println!("tiled {}", tiled_entry("no_cache", &no_cache).trim_start());
    // One cache across two runs: the first populates it (one cold solve,
    // in-run repeats warm), the second is the repeat-customer case where
    // every tile warm-starts from the cache.
    let cache = WarmStartCache::in_memory();
    let (mut cold, cold_mask) = run_tiled(&cfg, &spec, &tgt, Some(cache.clone()));
    cold.quality = quality(&cfg, &layout, &tgt, &cold_mask);
    println!("tiled {}", tiled_entry("cold_cache", &cold).trim_start());
    let (mut warm, warm_mask) = run_tiled(&cfg, &spec, &tgt, Some(cache));
    warm.quality = quality(&cfg, &layout, &tgt, &warm_mask);
    println!("tiled {}", tiled_entry("warm_cache", &warm).trim_start());

    // The two claims this bench exists to document, checked in both
    // modes so the smoke run guards the mechanisms.
    assert!(
        scheduled.coarse_iterations > 0 && scheduled.full_iterations < flat.full_iterations,
        "schedule must shift iterations onto the coarse grid"
    );
    assert_eq!(
        (no_cache.stats.tiles, no_cache.stats.cold),
        (tiles, tiles),
        "every populated tile solves cold without a cache"
    );
    assert_eq!(
        (cold.stats.cold, cold.stats.warm),
        (1, tiles - 1),
        "repeated tiles collapse onto one cold representative"
    );
    assert_eq!(
        (warm.stats.cold, warm.stats.warm),
        (0, tiles),
        "a populated cache warm-starts every tile"
    );
    assert!(
        no_cache.stats.full_iterations() >= 2 * warm.stats.full_iterations(),
        "warm-start must cut full-resolution iterations at least 2x"
    );

    if !smoke {
        // Quality bounds in the style of tests/precision_tolerance.rs:
        // the cheap variant must match its reference within ±3 EPE
        // violations and 10 % PV band area. Only checked at the full
        // configuration — the smoke budget is too short for any
        // variant's mask to be near-converged.
        for (name, q, r) in [
            ("scheduled vs flat", scheduled.quality, flat.quality),
            ("warm vs no_cache", warm.quality, no_cache.quality),
        ] {
            assert!(
                q.epe_violations <= r.epe_violations + 3,
                "{name}: EPE {} exceeds reference {} + 3",
                q.epe_violations,
                r.epe_violations
            );
            assert!(
                (q.pvb_nm2 - r.pvb_nm2).abs() <= 0.10 * r.pvb_nm2,
                "{name}: PVB {} vs reference {}",
                q.pvb_nm2,
                r.pvb_nm2
            );
        }
        write_json(&cfg, &spec, &flat, &scheduled, &no_cache, &cold, &warm);
    }
}
