//! Cross-precision acceptance: the f32 pipeline must complete the
//! synthetic suite and land within documented tolerances of the f64
//! reference, and must stay bit-identical across thread counts.
//!
//! Tolerances (see DESIGN.md §11): the level-set loop binarizes the mask
//! every iteration, so sub-ulp differences at the zero crossing can flip
//! individual cells and the runs *diverge discretely*, not smoothly.
//! Contest metrics therefore get integer/relative headroom rather than
//! ulp-level bounds:
//!
//! * first-iteration cost (identical initial mask, pure forward-model
//!   error): within 1e-3 relative for f32;
//! * #EPE violations: within ±3 of the f64 run;
//! * PV band area and contest score: within 10% relative.

use lsopc::prelude::*;
use lsopc_core::IltResult;
use lsopc_metrics::evaluate_mask;

const GRID: usize = 128;
const PIXEL_NM: f64 = 4.0;
const ITERS: usize = 12;
const KERNELS: usize = 8;

/// Two wires and a pad — the synthetic stand-in for a contest clip.
fn layout() -> Layout {
    let mut layout = Layout::new();
    layout.push(Rect::new(152, 96, 232, 416).into());
    layout.push(Rect::new(296, 96, 376, 416).into());
    layout.push(Rect::new(96, 432, 416, 480).into());
    layout
}

fn optics() -> OpticsConfig {
    OpticsConfig::iccad2013().with_kernel_count(KERNELS)
}

fn sim_f64(threads: usize) -> LithoSimulator {
    LithoSimulator::<f64>::from_optics(&optics(), GRID, PIXEL_NM)
        .expect("valid configuration")
        .with_accelerated_backend(threads)
}

fn ilt() -> LevelSetIlt {
    LevelSetIlt::builder().max_iterations(ITERS).build()
}

fn run_f32(threads: usize) -> IltResult<f32> {
    let sim = LithoSimulator::<f32>::from_optics(&optics(), GRID, PIXEL_NM)
        .expect("valid configuration")
        .with_accelerated_backend(threads);
    let target = rasterize(&layout(), GRID, GRID, PIXEL_NM).map(|&v| v as f32);
    ilt()
        .optimize(&sim, &target, &RunControl::new())
        .expect("f32 run completes")
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

#[test]
fn f32_completes_the_suite_within_tolerance() {
    let layout = layout();
    let target = rasterize(&layout, GRID, GRID, PIXEL_NM);
    let scoring_sim = sim_f64(2);

    let ref64 = ilt()
        .optimize(&scoring_sim, &target, &RunControl::new())
        .expect("f64 run completes");
    let f32run = run_f32(2).to_f64();

    // Every precision must actually optimize.
    for (name, r) in [("f64", &ref64), ("f32", &f32run)] {
        let first = r.history.first().expect("history").cost_total;
        assert!(
            r.final_cost() < first,
            "{name} run did not improve: {first} -> {}",
            r.final_cost()
        );
        assert_eq!(r.history.len(), r.iterations, "{name} history complete");
    }

    // First-iteration cost: same initial mask, pure forward-model error.
    let c0 = ref64.history[0].cost_total;
    assert!(
        rel_diff(f32run.history[0].cost_total, c0) < 1e-3,
        "f32 first cost {} vs f64 {c0}",
        f32run.history[0].cost_total
    );

    // Contest metrics, all scored by the same f64 evaluator.
    let e64 = evaluate_mask(&scoring_sim, &ref64.mask, &layout, &target);
    let e32 = evaluate_mask(&scoring_sim, &f32run.mask, &layout, &target);
    let d_epe = (e32.epe.violations as i64 - e64.epe.violations as i64).abs();
    assert!(
        d_epe <= 3,
        "f32 EPE {} vs f64 {} (tolerance ±3)",
        e32.epe.violations,
        e64.epe.violations
    );
    assert!(
        rel_diff(e32.pvb_area_nm2, e64.pvb_area_nm2) < 0.10,
        "f32 PVB {} vs f64 {}",
        e32.pvb_area_nm2,
        e64.pvb_area_nm2
    );
    assert!(
        rel_diff(e32.score(0.0).value(), e64.score(0.0).value()) < 0.10,
        "f32 score {} vs f64 {}",
        e32.score(0.0).value(),
        e64.score(0.0).value()
    );

    // The f32 mask must be exactly binary after widening (0.0/1.0 are
    // exact in both formats — the widening seam adds no rounding).
    assert!(f32run.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
}

fn assert_runs_bit_identical<T: lsopc_grid::Scalar>(
    name: &str,
    a: &IltResult<T>,
    b: &IltResult<T>,
) {
    assert_eq!(a.iterations, b.iterations, "{name}: iteration counts");
    for (i, (x, y)) in a.mask.as_slice().iter().zip(b.mask.as_slice()).enumerate() {
        assert!(x == y, "{name}: mask cell {i} differs: {x} vs {y}");
    }
    for (i, (x, y)) in a
        .levelset
        .as_slice()
        .iter()
        .zip(b.levelset.as_slice())
        .enumerate()
    {
        assert!(
            x.to_f64().to_bits() == y.to_f64().to_bits(),
            "{name}: ψ cell {i} differs bitwise: {x} vs {y}"
        );
    }
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(
            x.cost_total.to_bits(),
            y.cost_total.to_bits(),
            "{name}: iteration {} cost differs: {} vs {}",
            x.iteration,
            x.cost_total,
            y.cost_total
        );
        assert_eq!(x.time_step.to_bits(), y.time_step.to_bits());
        assert_eq!(x.cg_beta.to_bits(), y.cg_beta.to_bits());
    }
}

#[test]
fn f32_runs_are_bit_identical_across_thread_counts() {
    let baseline = run_f32(1);
    for threads in [2, 3, 8] {
        let run = run_f32(threads);
        assert_runs_bit_identical(&format!("f32 @{threads} threads"), &baseline, &run);
    }
}
