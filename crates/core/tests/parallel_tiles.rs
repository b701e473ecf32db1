//! Parallel == serial bit-identity for tiled optimization.

use lsopc_core::{LevelSetIlt, RunControl, TiledIlt, WarmStartCache};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;

fn optics() -> OpticsConfig {
    OpticsConfig::iccad2013().with_kernel_count(4)
}

/// The 256-px tile window (128 core + 2·64 halo) at the 4 nm pitch.
fn tile_sim() -> LithoSimulator {
    LithoSimulator::from_optics(&optics(), 256, 4.0)
        .expect("valid")
        .with_accelerated_backend(1)
}

/// Two features in different tiles of a 256-px target.
fn two_tile_target() -> Grid<f64> {
    Grid::from_fn(256, 256, |x, y| {
        let a = (40..60).contains(&x) && (30..90).contains(&y);
        let b = (180..200).contains(&x) && (160..220).contains(&y);
        if a || b {
            1.0
        } else {
            0.0
        }
    })
}

/// The same 20×56 feature twice in a 512-px target: once in the
/// top-left corner (seen only by tile (0,0)) and once at +(256, 256),
/// where the overlapping halo windows show it — as a pure translation —
/// to four tiles. One pattern key, five non-empty tiles, so a warm
/// cache turns four of the five solves into warm refinements.
fn repeated_tile_target() -> Grid<f64> {
    Grid::from_fn(512, 512, |x, y| {
        let a = (8..28).contains(&x) && (4..60).contains(&y);
        let b = (264..284).contains(&x) && (260..316).contains(&y);
        if a || b {
            1.0
        } else {
            0.0
        }
    })
}

/// Concurrent tile optimization stitches the exact same mask as the
/// serial sweep at every thread count — including counts above the
/// number of non-empty tiles.
#[test]
fn tiled_masks_are_thread_count_invariant() {
    let target = two_tile_target();
    let opt = LevelSetIlt::builder().max_iterations(4).build();
    let (reference, _) = TiledIlt::new(opt.clone(), 128, 64)
        .expect("valid tiling")
        .with_context(ParallelContext::new(1))
        .optimize(&tile_sim(), &target, &RunControl::new())
        .expect("serial tiles run");
    assert!(reference.sum() > 0.0, "premise: a non-trivial mask");
    for threads in [2usize, 3, 8] {
        let (got, _) = TiledIlt::new(opt.clone(), 128, 64)
            .expect("valid tiling")
            .with_context(ParallelContext::new(threads))
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect("parallel tiles run");
        for (a, b) in got.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Warm-started tiled optimization is just as thread-count invariant:
/// tiles are classified cold/warm by content up front (not by a race on
/// the cache), so every thread count solves the same tiles the same way
/// and stitches a bit-identical mask. Each run gets a fresh cache so
/// all runs start from the same cache state.
#[test]
fn warm_started_tiled_masks_are_thread_count_invariant() {
    let target = repeated_tile_target();
    let opt = LevelSetIlt::builder().max_iterations(4).build();
    let run = |threads: usize| {
        TiledIlt::new(opt.clone(), 128, 64)
            .expect("valid tiling")
            .with_warm_start(WarmStartCache::in_memory())
            .with_context(ParallelContext::new(threads))
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect("warm tiles run")
    };
    let (reference, stats) = run(1);
    assert!(reference.sum() > 0.0, "premise: a non-trivial mask");
    assert_eq!(
        (stats.cold, stats.warm),
        (1, 4),
        "premise: the warm path actually executes"
    );
    for threads in [2usize, 3, 8] {
        let (got, stats) = run(threads);
        assert_eq!((stats.cold, stats.warm), (1, 4));
        for (a, b) in got.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
