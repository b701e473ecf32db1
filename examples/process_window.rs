//! Reproduces the paper's Fig. 1 metrics: EPE probes along target edges
//! (Fig. 1(a)) and the PV band between the process-corner contours
//! (Fig. 1(b)), before and after level-set OPC.
//!
//! Writes `pvband_before.pgm` / `pvband_after.pgm` to the current
//! directory.
//!
//! ```text
//! cargo run --release --example process_window
//! ```

use lsopc::prelude::*;
use lsopc_fft::upsample_spectral;
use lsopc_grid::write_pgm;
use lsopc_metrics::evaluate_mask;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid_px = 128;
    let pixel_nm = 4.0;

    // Two parallel wires — the gap is where the process window bites.
    let mut layout = Layout::new();
    layout.push(Rect::new(152, 96, 232, 416).into());
    layout.push(Rect::new(296, 96, 376, 416).into());

    let optics = OpticsConfig::iccad2013().with_kernel_count(12);
    let sim = LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?;
    let target = rasterize(&layout, grid_px, grid_px, pixel_nm);

    println!(
        "process corners: nominal {:?}, inner {:?}, outer {:?}",
        sim.corners().nominal,
        sim.corners().inner,
        sim.corners().outer
    );

    // --- Before OPC -------------------------------------------------------
    let before = evaluate_mask(&sim, &target, &layout, &target);
    write_pgm(&before.pvb_map, "pvband_before.pgm")?;
    println!("\nbefore OPC:");
    report(&before);

    // --- After OPC --------------------------------------------------------
    let result = LevelSetIlt::builder().max_iterations(40).build().optimize(
        &sim,
        &target,
        &RunControl::new(),
    )?;
    let after = evaluate_mask(&sim, &result.mask, &layout, &target);
    write_pgm(&after.pvb_map, "pvband_after.pgm")?;
    println!(
        "\nafter OPC ({} iterations, {:.2}s):",
        result.iterations, result.runtime_s
    );
    report(&after);

    println!(
        "\nPVB reduced by {:.1}% (maps written to pvband_before.pgm / pvband_after.pgm)",
        100.0 * (1.0 - after.pvb_area_nm2 / before.pvb_area_nm2.max(1.0))
    );

    // Render the optimized aerial image at 1 nm/px via exact spectral
    // upsampling (aerial images are band-limited, so this is lossless).
    let aerial = sim.aerial(&result.mask, ProcessCondition::NOMINAL);
    let fine = upsample_spectral(&aerial, 4);
    write_pgm(&fine, "aerial_after_1nm.pgm")?;
    println!("aerial image rendered at 1 nm/px -> aerial_after_1nm.pgm");
    Ok(())
}

fn report(eval: &lsopc_metrics::MaskEvaluation) {
    println!(
        "  #EPE: {} of {} probes violate the 15nm threshold",
        eval.epe.violations, eval.epe.total_probes
    );
    // Fig. 1(a): a probe-by-probe view of the worst displacements.
    let mut worst: Vec<_> = eval
        .epe
        .measurements
        .iter()
        .filter_map(|m| m.displacement_nm.map(|d| (d.abs(), m.site.pos)))
        .collect();
    worst.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    for (d, pos) in worst.iter().take(3) {
        println!(
            "    displacement {d:.1} nm at ({:.0}, {:.0}) nm",
            pos.x, pos.y
        );
    }
    println!("  PV band: {:.0} nm²", eval.pvb_area_nm2);
    println!("  shape violations: {}", eval.shapes.total());
}
