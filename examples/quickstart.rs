//! Quickstart: optimize a mask for a single wire and watch every contest
//! metric improve.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lsopc::prelude::*;
use lsopc_metrics::evaluate_mask;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small 512nm field at 4nm/px keeps this example fast.
    let grid_px = 128;
    let pixel_nm = 4.0;

    // The target: an 80nm x 240nm vertical wire with a 100nm pad.
    let mut layout = Layout::new();
    layout.push(Rect::new(216, 120, 296, 360).into());
    layout.push(Rect::new(176, 360, 336, 440).into());

    // Build the optical model (ICCAD 2013 system, fewer kernels for speed)
    // and the simulator.
    let optics = OpticsConfig::iccad2013().with_kernel_count(12);
    let sim = LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?;
    let target = rasterize(&layout, grid_px, grid_px, pixel_nm);

    // How does the *uncorrected* mask print?
    let before = evaluate_mask(&sim, &target, &layout, &target);
    println!(
        "before OPC: #EPE {:>3} / {:>3} probes, PVB {:>8.0} nm², shape violations {}",
        before.epe.violations,
        before.epe.total_probes,
        before.pvb_area_nm2,
        before.shapes.total()
    );

    // Run the level-set ILT optimizer (paper Algorithm 1).
    let result = LevelSetIlt::builder()
        .max_iterations(40)
        .pvb_weight(1.0)
        .build()
        .optimize(&sim, &target, &RunControl::new())?;
    println!(
        "optimized in {} iterations ({:.2}s), cost {:.1} -> {:.1}",
        result.iterations,
        result.runtime_s,
        result.history.first().expect("history").cost_total,
        result.final_cost()
    );

    // And the corrected mask?
    let after = evaluate_mask(&sim, &result.mask, &layout, &target);
    println!(
        "after  OPC: #EPE {:>3} / {:>3} probes, PVB {:>8.0} nm², shape violations {}",
        after.epe.violations,
        after.epe.total_probes,
        after.pvb_area_nm2,
        after.shapes.total()
    );
    println!(
        "score: {} -> {}",
        before.score(0.0).value().round(),
        after.score(result.runtime_s).value().round()
    );

    assert!(
        after.epe.violations <= before.epe.violations,
        "OPC should not increase EPE violations"
    );
    Ok(())
}
