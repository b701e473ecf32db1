//! Thread-count determinism of the production real-input FFT path at the
//! optimizer level: a whole f64 level-set run must be bit-identical at
//! every pool size. (The transform itself is pinned against the dense
//! `Fft2d` oracle by `crates/fft/tests/proptest_rfft.rs`.)

use lsopc::prelude::*;
use lsopc_core::IltResult;
use lsopc_litho::AcceleratedBackend;
use lsopc_parallel::ParallelContext;

const GRID: usize = 128;
const PIXEL_NM: f64 = 4.0;
const ITERS: usize = 12;
const KERNELS: usize = 8;

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

fn ilt() -> LevelSetIlt {
    LevelSetIlt::builder().max_iterations(ITERS).build()
}

fn run(threads: usize) -> IltResult {
    let sim = LithoSimulator::from_optics(&optics(), GRID, PIXEL_NM)
        .expect("valid configuration")
        .with_backend(Box::new(AcceleratedBackend::with_context(
            ParallelContext::new(threads),
        )));
    let target = rasterize(&layout(), GRID, GRID, PIXEL_NM);
    ilt().optimize(&sim, &target).expect("run completes")
}

#[test]
fn rfft_runs_are_bit_identical_across_thread_counts() {
    let baseline = run(1);
    for threads in [2, 4] {
        let other = run(threads);
        assert_eq!(baseline.iterations, other.iterations, "@{threads} threads");
        for (i, (x, y)) in baseline
            .levelset
            .as_slice()
            .iter()
            .zip(other.levelset.as_slice())
            .enumerate()
        {
            assert!(
                x.to_bits() == y.to_bits(),
                "@{threads} threads: ψ cell {i} differs bitwise: {x} vs {y}"
            );
        }
        for (x, y) in baseline.history.iter().zip(&other.history) {
            assert_eq!(
                x.cost_total.to_bits(),
                y.cost_total.to_bits(),
                "@{threads} threads: iteration {} cost differs",
                x.iteration
            );
        }
    }
}
