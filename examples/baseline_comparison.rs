//! Head-to-head comparison of the level-set method against the four
//! pixel-ILT baselines on one benchmark tile (a one-case preview of the
//! paper's Table I / Table II).
//!
//! ```text
//! cargo run --release --example baseline_comparison -- [--case 4] [--grid 256]
//! ```

use lsopc::prelude::*;
use lsopc_baselines::PixelIltMode;
use lsopc_metrics::evaluate_mask;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid_px = 256usize;
    let mut case_no = 4usize; // B4, the smallest tile
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => grid_px = it.next().and_then(|v| v.parse().ok()).unwrap_or(grid_px),
            "--case" => case_no = it.next().and_then(|v| v.parse().ok()).unwrap_or(case_no),
            _ => {}
        }
    }
    let pixel_nm = 2048.0 / grid_px as f64;
    let suite = Iccad2013Suite::new();
    let case = suite
        .cases()
        .get(case_no.saturating_sub(1))
        .cloned()
        .ok_or("case number out of range (1-10)")?;
    let layout = suite.layout(&case);
    println!(
        "case {} (pattern area {} nm²), grid {grid_px} px ({pixel_nm} nm/px)",
        case.name, case.target_area_nm2
    );

    let optics = OpticsConfig::iccad2013().with_kernel_count(12);
    let target = rasterize(&layout, grid_px, grid_px, pixel_nm);

    println!(
        "{:<14}{:>8}{:>12}{:>8}{:>10}{:>12}",
        "method", "#EPE", "PVB(nm²)", "shape", "RT(s)", "score"
    );

    let iters = 12;
    let baselines: Vec<Box<dyn MaskOptimizer>> = vec![
        Box::new(PixelIlt::new(PixelIltMode::Fast).with_iterations(iters)),
        Box::new(PixelIlt::new(PixelIltMode::Exact).with_iterations(iters)),
        Box::new(RobustOpc::new().with_iterations(iters)),
        Box::new(PvOpc::new().with_iterations(iters)),
    ];
    for baseline in &baselines {
        let sim = LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?;
        let result = baseline.optimize(&sim, &target)?;
        let eval = evaluate_mask(&sim, &result.mask, &layout, &target);
        let score = eval.score(result.runtime_s);
        println!(
            "{:<14}{:>8}{:>12.0}{:>8}{:>10.2}{:>12.0}",
            baseline.name(),
            eval.epe.violations,
            eval.pvb_area_nm2,
            eval.shapes.total(),
            result.runtime_s,
            score.value()
        );
    }

    // The level-set method (accelerated backend).
    let sim = LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?.with_accelerated_backend(1);
    let result = LevelSetIlt::builder()
        .max_iterations(iters)
        .build()
        .optimize(&sim, &target, &RunControl::new())?;
    let eval = evaluate_mask(&sim, &result.mask, &layout, &target);
    let score = eval.score(result.runtime_s);
    println!(
        "{:<14}{:>8}{:>12.0}{:>8}{:>10.2}{:>12.0}",
        "levelset",
        eval.epe.violations,
        eval.pvb_area_nm2,
        eval.shapes.total(),
        result.runtime_s,
        score.value()
    );
    Ok(())
}
