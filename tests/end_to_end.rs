//! End-to-end integration: `.glp` text → layout → raster → level-set ILT
//! → contest metrics, across every crate in the workspace.

use lsopc::prelude::*;
use lsopc_geometry::{parse_glp, write_glp};
use lsopc_metrics::evaluate_mask;

const GRID: usize = 128;
const PIXEL_NM: f64 = 4.0;

fn simulator() -> LithoSimulator {
    LithoSimulator::from_optics(
        &OpticsConfig::iccad2013().with_kernel_count(8),
        GRID,
        PIXEL_NM,
    )
    .expect("valid configuration")
}

fn test_glp() -> &'static str {
    "BEGIN\n\
     CELL e2e\n\
     RECT 152 96 80 320 ;\n\
     RECT 296 96 80 320 ;\n\
     PGON 120 64 392 64 392 96 120 96 ;\n\
     END\n"
}

#[test]
fn glp_to_optimized_mask_improves_all_metrics() {
    let layout = parse_glp(test_glp()).expect("valid glp");
    assert_eq!(layout.len(), 3);
    let sim = simulator();
    let target = rasterize(&layout, GRID, GRID, PIXEL_NM);
    assert_eq!(
        target.sum() * PIXEL_NM * PIXEL_NM,
        layout.total_area() as f64
    );

    let before = evaluate_mask(&sim, &target, &layout, &target);
    let result = LevelSetIlt::builder()
        .max_iterations(20)
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect("optimization runs");
    let after = evaluate_mask(&sim, &result.mask, &layout, &target);

    assert!(
        after.epe.violations <= before.epe.violations,
        "EPE regressed: {} -> {}",
        before.epe.violations,
        after.epe.violations
    );
    assert!(
        after.score(0.0).value() < before.score(0.0).value(),
        "score regressed: {} -> {}",
        before.score(0.0).value(),
        after.score(0.0).value()
    );
    // The optimized mask must differ from the target (OPC did something).
    assert_ne!(result.mask, target);
}

#[test]
fn glp_roundtrip_preserves_optimization_input() {
    let layout = parse_glp(test_glp()).expect("valid glp");
    let reparsed = parse_glp(&write_glp(&layout)).expect("roundtrip");
    assert_eq!(layout, reparsed);
    let a = rasterize(&layout, GRID, GRID, PIXEL_NM);
    let b = rasterize(&reparsed, GRID, GRID, PIXEL_NM);
    assert_eq!(a, b);
}

#[test]
fn optimized_mask_prints_closer_to_target_than_target_itself() {
    let layout = parse_glp(test_glp()).expect("valid glp");
    let sim = simulator();
    let target = rasterize(&layout, GRID, GRID, PIXEL_NM);
    let result = LevelSetIlt::builder()
        .max_iterations(20)
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect("optimization runs");

    let printed_naive = sim.print(&target, ProcessCondition::NOMINAL);
    let printed_opc = sim.print(&result.mask, ProcessCondition::NOMINAL);
    let l2 = |a: &Grid<f64>, b: &Grid<f64>| -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    };
    assert!(
        l2(&printed_opc, &target) < l2(&printed_naive, &target),
        "OPC print should be closer to target"
    );
}

#[test]
fn pvb_weight_trades_pvb_for_fidelity() {
    // Higher w_pvb should never give a (much) larger PV band on this
    // simple pattern.
    let layout = parse_glp(test_glp()).expect("valid glp");
    let sim = simulator();
    let target = rasterize(&layout, GRID, GRID, PIXEL_NM);
    let run = |w: f64| {
        let result = LevelSetIlt::builder()
            .max_iterations(15)
            .pvb_weight(w)
            .build()
            .optimize(&sim, &target, &RunControl::new())
            .expect("optimization runs");
        evaluate_mask(&sim, &result.mask, &layout, &target).pvb_area_nm2
    };
    let pvb_unaware = run(0.0);
    let pvb_aware = run(2.0);
    assert!(
        pvb_aware <= pvb_unaware * 1.1,
        "PV-aware run should not inflate PVB: {pvb_unaware} -> {pvb_aware}"
    );
}
