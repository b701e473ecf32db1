//! The benchmark suite flows through the whole pipeline: synthetic
//! layouts rasterize, optimize and evaluate at a reduced scale.

use lsopc::prelude::*;
use lsopc_baselines::PixelIltMode;
use lsopc_metrics::evaluate_mask;

const GRID: usize = 256;

fn setup(case_index: usize) -> (LithoSimulator, Layout, Grid<f64>) {
    let suite = Iccad2013Suite::new();
    let case = suite.cases()[case_index].clone();
    let layout = suite.layout(&case);
    let pixel_nm = 2048.0 / GRID as f64;
    let sim = LithoSimulator::from_optics(
        &OpticsConfig::iccad2013().with_kernel_count(6),
        GRID,
        pixel_nm,
    )
    .expect("valid configuration")
    .with_accelerated_backend(1);
    let target = rasterize(&layout, GRID, GRID, pixel_nm);
    (sim, layout, target)
}

#[test]
fn b4_levelset_beats_uncorrected_mask() {
    let (sim, layout, target) = setup(3); // B4, the smallest tile
    let before = evaluate_mask(&sim, &target, &layout, &target);
    let result = LevelSetIlt::builder()
        .max_iterations(10)
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect("optimization runs");
    let after = evaluate_mask(&sim, &result.mask, &layout, &target);
    assert!(after.score(0.0).value() <= before.score(0.0).value());
}

#[test]
fn all_ten_cases_rasterize_with_exact_area() {
    let suite = Iccad2013Suite::new();
    for (case, layout) in suite.all_layouts() {
        // 1 nm/px rasterization area equals the layout area exactly.
        let grid = rasterize(&layout, 2048, 2048, 1.0);
        assert_eq!(
            grid.sum() as i64,
            case.target_area_nm2,
            "{} raster area mismatch",
            case.name
        );
    }
}

#[test]
fn baseline_and_levelset_run_on_the_same_case() {
    let (sim, layout, target) = setup(9); // B10
    let baseline = PixelIlt::new(PixelIltMode::Fast)
        .with_iterations(6)
        .optimize(&sim, &target)
        .expect("baseline runs");
    let levelset = LevelSetIlt::builder()
        .max_iterations(6)
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect("levelset runs");
    let uncorrected = evaluate_mask(&sim, &target, &layout, &target);
    let eval_b = evaluate_mask(&sim, &baseline.mask, &layout, &target);
    let eval_l = evaluate_mask(&sim, &levelset.mask, &layout, &target);
    // Neither optimizer may lose more features than the uncorrected mask
    // already does at this coarse scale, and the level-set method must
    // keep everything.
    assert!(
        eval_b.shapes.missing <= uncorrected.shapes.missing + 1,
        "baseline lost features: {} (uncorrected: {})",
        eval_b.shapes.missing,
        uncorrected.shapes.missing
    );
    assert_eq!(eval_l.shapes.missing, 0, "levelset lost features");
}

#[test]
fn suite_cases_are_deterministic_across_calls() {
    let a = Iccad2013Suite::new().layout(&Iccad2013Suite::new().cases()[1]);
    let b = Iccad2013Suite::new().layout(&Iccad2013Suite::new().cases()[1]);
    assert_eq!(a, b);
}
