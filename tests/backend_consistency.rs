//! The CPU and accelerated ("GPU") backends must be interchangeable: the
//! whole optimizer, not just single passes, must produce identical masks.

use lsopc::prelude::*;

fn target() -> Grid<f64> {
    Grid::from_fn(128, 128, |x, y| {
        let wire = (52..76).contains(&x) && (24..104).contains(&y);
        let pad = (24..48).contains(&x) && (24..48).contains(&y);
        if wire || pad {
            1.0
        } else {
            0.0
        }
    })
}

fn run(sim: &LithoSimulator) -> lsopc_core::IltResult {
    LevelSetIlt::builder()
        .max_iterations(8)
        .build()
        .optimize(sim, &target(), &RunControl::new())
        .expect("optimization runs")
}

#[test]
fn optimizer_masks_match_across_backends() {
    let optics = OpticsConfig::iccad2013().with_kernel_count(8);
    let cpu = LithoSimulator::from_optics(&optics, 128, 4.0).expect("valid");
    let gpu = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(1);

    let a = run(&cpu);
    let b = run(&gpu);
    assert_eq!(a.mask, b.mask, "backends must agree on the final mask");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert!(
            (x.cost_total - y.cost_total).abs() < 1e-6 * (1.0 + x.cost_total),
            "iteration {} cost diverged: {} vs {}",
            x.iteration,
            x.cost_total,
            y.cost_total
        );
    }
}

#[test]
fn threaded_accelerated_backend_matches_serial() {
    let optics = OpticsConfig::iccad2013().with_kernel_count(8);
    let serial = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(1);
    let threaded = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(4);
    assert_eq!(run(&serial).mask, run(&threaded).mask);
}

#[test]
fn prints_are_identical_across_backends_at_all_corners() {
    let optics = OpticsConfig::iccad2013().with_kernel_count(8);
    let cpu = LithoSimulator::from_optics(&optics, 128, 4.0).expect("valid");
    let gpu = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(1);
    let mask = target();
    let a = cpu.print_corners(&mask);
    let b = gpu.print_corners(&mask);
    assert_eq!(a.nominal, b.nominal);
    assert_eq!(a.inner, b.inner);
    assert_eq!(a.outer, b.outer);
}
