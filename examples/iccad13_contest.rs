//! Runs the level-set optimizer over the ICCAD 2013-style benchmark suite
//! and prints contest-format rows (the "Ours" column of the paper's
//! Table I).
//!
//! ```text
//! cargo run --release --example iccad13_contest -- [--grid 512] [--cases 1,2] [--iters 30]
//! ```

use lsopc::prelude::*;
use lsopc_metrics::evaluate_mask;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid_px = 256usize;
    let mut iters = 20usize;
    let mut kernels = 24usize;
    let mut case_filter: Vec<usize> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => grid_px = it.next().and_then(|v| v.parse().ok()).unwrap_or(grid_px),
            "--iters" => iters = it.next().and_then(|v| v.parse().ok()).unwrap_or(iters),
            "--kernels" => kernels = it.next().and_then(|v| v.parse().ok()).unwrap_or(kernels),
            "--cases" => {
                if let Some(list) = it.next() {
                    case_filter = list
                        .split(',')
                        .filter_map(|t| t.trim().parse::<usize>().ok())
                        .map(|i: usize| i.saturating_sub(1))
                        .collect();
                }
            }
            _ => {}
        }
    }
    let pixel_nm = 2048.0 / grid_px as f64;
    println!(
        "ICCAD 2013-style contest run: grid {grid_px} px ({pixel_nm} nm/px), K = {kernels}, N = {iters}"
    );
    println!(
        "{:<6}{:>12}{:>8}{:>12}{:>8}{:>10}{:>12}",
        "case", "area(nm²)", "#EPE", "PVB(nm²)", "shape", "RT(s)", "score"
    );

    let optics = OpticsConfig::iccad2013().with_kernel_count(kernels);
    let suite = Iccad2013Suite::new();
    let optimizer = LevelSetIlt::builder().max_iterations(iters).build();
    let mut total_score = 0.0;
    let mut ran = 0usize;
    for case in suite.cases() {
        if !case_filter.is_empty() && !case_filter.contains(&case.index) {
            continue;
        }
        let layout = suite.layout(case);
        let sim =
            LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?.with_accelerated_backend(1);
        let target = rasterize(&layout, grid_px, grid_px, pixel_nm);
        let result = optimizer.optimize(&sim, &target, &RunControl::new())?;
        let eval = evaluate_mask(&sim, &result.mask, &layout, &target);
        let score = eval.score(result.runtime_s);
        println!(
            "{:<6}{:>12}{:>8}{:>12.0}{:>8}{:>10.1}{:>12.0}",
            case.name,
            case.target_area_nm2,
            eval.epe.violations,
            eval.pvb_area_nm2,
            eval.shapes.total(),
            result.runtime_s,
            score.value()
        );
        total_score += score.value();
        ran += 1;
    }
    if ran > 0 {
        println!(
            "{:<6}{:>12}{:>8}{:>12}{:>8}{:>10}{:>12.0}",
            "avg",
            "",
            "",
            "",
            "",
            "",
            total_score / ran as f64
        );
    }
    Ok(())
}
