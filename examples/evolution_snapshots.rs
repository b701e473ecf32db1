//! Reproduces the paper's Fig. 2: the mask boundary evolving from the
//! initial target shape toward the optimized (OPC'd) shape.
//!
//! Writes `evolution_iterN.pgm` images plus a contour CSV to the current
//! directory.
//!
//! ```text
//! cargo run --release --example evolution_snapshots
//! ```

use lsopc::prelude::*;
use lsopc_geometry::extract_contours;
use lsopc_grid::write_pgm;
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid_px = 128;
    let pixel_nm = 4.0;

    // A T-shaped target — corners are where OPC has the most work to do.
    let mut layout = Layout::new();
    layout.push(Rect::new(120, 120, 392, 192).into()); // bar
    layout.push(Rect::new(220, 192, 292, 400).into()); // stem

    let optics = OpticsConfig::iccad2013().with_kernel_count(12);
    let sim = LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?;
    let target = rasterize(&layout, grid_px, grid_px, pixel_nm);

    let result = LevelSetIlt::builder()
        .max_iterations(24)
        .snapshot_interval(6)
        .build()
        .optimize(&sim, &target, &RunControl::new())?;

    let mut csv = String::from("iteration,contour_id,x_px,y_px\n");
    for (iter, mask) in &result.snapshots {
        let path = format!("evolution_iter{iter}.pgm");
        write_pgm(mask, &path)?;
        let contours = extract_contours(mask, 0.5);
        for (cid, contour) in contours.iter().enumerate() {
            for p in &contour.points {
                let _ = writeln!(csv, "{iter},{cid},{:.2},{:.2}", p.x, p.y);
            }
        }
        println!(
            "iter {:>2}: mask area {:>6.0} px², {} contours -> {path}",
            iter,
            mask.sum(),
            contours.len()
        );
    }
    std::fs::write("evolution_contours.csv", csv)?;
    println!(
        "final cost {:.1} after {} iterations; see evolution_iter*.pgm (Fig. 2 analog)",
        result.final_cost(),
        result.iterations
    );
    Ok(())
}
