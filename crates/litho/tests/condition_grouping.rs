//! The PVB-aware cost evaluates each distinct optical condition once:
//! one mask spectrum, one aerial image and one adjoint per defocus value.
//!
//! Pins the pass counts, the agreement of the grouped evaluation with
//! the per-corner sum, and that a backend implementing only the required
//! `SimBackend` methods (a timing or counting wrapper) sees the same bits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lsopc_grid::{Grid, Scalar};
use lsopc_litho::{
    corner_cost_and_gradient, cost_and_gradient, cost_only, AcceleratedBackend, FftBackend,
    LithoSimulator, PreparedMask, ProcessCondition, ProcessCorners, SimBackend, SimCaches,
};
use lsopc_optics::{KernelSet, OpticsConfig};

const N: usize = 64;

fn sim<T: Scalar>() -> LithoSimulator<T> {
    LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), N, 4.0)
        .expect("valid configuration")
}

fn target<T: Scalar>() -> Grid<T> {
    Grid::from_fn(N, N, |x, y| {
        if (26..38).contains(&x) && (12..52).contains(&y) {
            T::ONE
        } else {
            T::ZERO
        }
    })
}

/// A smooth grey mask near the target, so every corner contributes.
fn mask<T: Scalar>() -> Grid<T> {
    Grid::from_fn(N, N, |x, y| {
        let inside = (24..40).contains(&x) && (10..54).contains(&y);
        let ripple = 0.1 * ((x as f64 * 0.37).sin() * (y as f64 * 0.23).cos());
        T::from_f64(if inside {
            0.85 + ripple
        } else {
            0.05 + 0.5 * ripple.abs()
        })
    })
}

/// Corners at three distinct defocus values.
fn three_defocus_corners() -> ProcessCorners {
    ProcessCorners {
        nominal: ProcessCondition::NOMINAL,
        inner: ProcessCondition::new(25.0, 0.98),
        outer: ProcessCondition::new(-12.5, 1.02),
    }
}

/// Wraps a backend and counts aerial and adjoint passes, prepared or not.
#[derive(Debug)]
struct Counting<B> {
    inner: B,
    aerial: Arc<AtomicUsize>,
    gradient: Arc<AtomicUsize>,
}

impl<B: SimBackend<f64>> SimBackend<f64> for Counting<B> {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn aerial_image(&self, kernels: &KernelSet<f64>, mask: &Grid<f64>) -> Grid<f64> {
        self.aerial.fetch_add(1, Ordering::Relaxed);
        self.inner.aerial_image(kernels, mask)
    }

    fn gradient(&self, kernels: &KernelSet<f64>, mask: &Grid<f64>, z: &Grid<f64>) -> Grid<f64> {
        self.gradient.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient(kernels, mask, z)
    }

    fn prepare<'a>(&self, mask: &'a Grid<f64>) -> PreparedMask<'a, f64> {
        self.inner.prepare(mask)
    }

    fn aerial_image_prepared(
        &self,
        kernels: &KernelSet<f64>,
        prepared: &PreparedMask<'_, f64>,
    ) -> Grid<f64> {
        self.aerial.fetch_add(1, Ordering::Relaxed);
        self.inner.aerial_image_prepared(kernels, prepared)
    }

    fn gradient_prepared(
        &self,
        kernels: &KernelSet<f64>,
        prepared: &PreparedMask<'_, f64>,
        z: &Grid<f64>,
    ) -> Grid<f64> {
        self.gradient.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient_prepared(kernels, prepared, z)
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        self.inner.set_caches(caches);
    }
}

/// A simulator on a counting accelerated backend, with its aerial and
/// adjoint counters.
fn counted(corners: ProcessCorners) -> (LithoSimulator, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let aerial = Arc::new(AtomicUsize::new(0));
    let gradient = Arc::new(AtomicUsize::new(0));
    let backend = Counting {
        inner: AcceleratedBackend::new(1),
        aerial: aerial.clone(),
        gradient: gradient.clone(),
    };
    let sim = sim::<f64>()
        .with_corners(corners)
        .with_backend(Box::new(backend));
    (sim, aerial, gradient)
}

fn take(counter: &AtomicUsize) -> usize {
    counter.swap(0, Ordering::Relaxed)
}

#[test]
fn passes_run_once_per_distinct_defocus() {
    let (t, m) = (target::<f64>(), mask::<f64>());
    let (iccad, a, g) = counted(ProcessCorners::iccad2013());
    let _ = cost_and_gradient(&iccad, &m, &t, 1.0);
    assert_eq!((take(&a), take(&g)), (2, 2), "ICCAD corners");
    let _ = cost_and_gradient(&iccad, &m, &t, 0.0);
    assert_eq!((take(&a), take(&g)), (1, 1), "w_pvb = 0");
    let _ = cost_only(&iccad, &m, &t, 1.0);
    assert_eq!((take(&a), take(&g)), (2, 0), "cost_only");
    let _ = cost_only(&iccad, &m, &t, 0.0);
    assert_eq!((take(&a), take(&g)), (1, 0), "cost_only at w_pvb = 0");
    let _ = iccad.print_corners(&m);
    assert_eq!((take(&a), take(&g)), (2, 0), "print_corners");

    let (three, a, g) = counted(three_defocus_corners());
    let _ = cost_and_gradient(&three, &m, &t, 1.0);
    assert_eq!((take(&a), take(&g)), (3, 3), "three defocus values");
    let _ = three.print_corners(&m);
    assert_eq!(
        (take(&a), take(&g)),
        (3, 0),
        "print_corners, three defocus values"
    );
}

/// Largest elementwise difference relative to the largest magnitude.
fn rel_diff<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> f64 {
    let scale = b
        .as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.to_f64().abs()));
    let diff = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0f64, |m, (x, y)| m.max((x.to_f64() - y.to_f64()).abs()));
    diff / scale
}

/// The grouped evaluation against the sum of per-corner evaluations:
/// costs bit-equal, gradients within `tol` relative.
fn check_against_corners<T: Scalar>(sim: &LithoSimulator<T>, w_pvb: f64, tol: f64) {
    let (t, m) = (target::<T>(), mask::<T>());
    let corners = sim.corners();
    let (report, gradient) = cost_and_gradient(sim, &m, &t, w_pvb);
    let (nominal, mut expected) = corner_cost_and_gradient(sim, &m, &t, corners.nominal, 1.0);
    let (inner, _) = corner_cost_and_gradient(sim, &m, &t, corners.inner, 1.0);
    let (outer, _) = corner_cost_and_gradient(sim, &m, &t, corners.outer, 1.0);
    assert_eq!(report.nominal.to_bits(), nominal.to_bits());
    assert_eq!(report.pvb.to_bits(), (inner + outer).to_bits());
    for c in [corners.inner, corners.outer] {
        let (_, g) = corner_cost_and_gradient(sim, &m, &t, c, w_pvb);
        for (dst, &v) in expected.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *dst += v;
        }
    }
    let d = rel_diff(&gradient, &expected);
    assert!(
        d < tol,
        "{}: gradient off by {d:e} relative",
        sim.backend_name()
    );
}

#[test]
fn grouped_evaluation_matches_the_per_corner_sum() {
    for w in [0.7, 1.0] {
        for corners in [ProcessCorners::iccad2013(), three_defocus_corners()] {
            let fft = sim::<f64>().with_corners(corners);
            check_against_corners(&fft, w, 1e-12);
            check_against_corners(&fft.with_accelerated_backend(2), w, 1e-12);
            // §11 budget: one f32 evaluation within 1e-3 of its reference.
            let f32_sim = sim::<f32>().with_corners(corners);
            check_against_corners(&f32_sim, w, 1e-3);
            check_against_corners(&f32_sim.with_accelerated_backend(2), w, 1e-3);
        }
    }
}

/// Forwards the required methods only, like a timing wrapper: the
/// prepared calls take the trait's defaults.
#[derive(Debug)]
struct RequiredOnly<B>(B);

impl<B: SimBackend<f64>> SimBackend<f64> for RequiredOnly<B> {
    fn name(&self) -> &'static str {
        "required-only"
    }

    fn aerial_image(&self, kernels: &KernelSet<f64>, mask: &Grid<f64>) -> Grid<f64> {
        self.0.aerial_image(kernels, mask)
    }

    fn gradient(&self, kernels: &KernelSet<f64>, mask: &Grid<f64>, z: &Grid<f64>) -> Grid<f64> {
        self.0.gradient(kernels, mask, z)
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        self.0.set_caches(caches);
    }
}

fn assert_same_bits(a: &Grid<f64>, b: &Grid<f64>) {
    assert!(a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}

#[test]
fn a_required_methods_only_wrapper_gives_the_same_bits() {
    let (t, m) = (target::<f64>(), mask::<f64>());
    let bare: [Box<dyn SimBackend<f64>>; 2] = [
        Box::new(AcceleratedBackend::new(2)),
        Box::new(FftBackend::new()),
    ];
    let wrapped: [Box<dyn SimBackend<f64>>; 2] = [
        Box::new(RequiredOnly(AcceleratedBackend::new(2))),
        Box::new(RequiredOnly(FftBackend::new())),
    ];
    for (b, w) in bare.into_iter().zip(wrapped) {
        let bare = sim::<f64>().with_backend(b);
        let wrapped = sim::<f64>().with_backend(w);
        for w_pvb in [0.0, 0.7, 1.0] {
            let (rb, gb) = cost_and_gradient(&bare, &m, &t, w_pvb);
            let (rw, gw) = cost_and_gradient(&wrapped, &m, &t, w_pvb);
            assert_eq!(rb.total().to_bits(), rw.total().to_bits());
            assert_eq!(rb, rw);
            assert_same_bits(&gb, &gw);
            assert_eq!(cost_only(&wrapped, &m, &t, w_pvb), rb);
        }
        let (pb, pw) = (bare.print_corners(&m), wrapped.print_corners(&m));
        assert_eq!(pb, pw);
    }
}

#[test]
fn grouped_prints_match_per_corner_prints() {
    let m = mask::<f64>();
    for corners in [ProcessCorners::iccad2013(), three_defocus_corners()] {
        for sim in [
            sim::<f64>().with_corners(corners),
            sim::<f64>()
                .with_corners(corners)
                .with_accelerated_backend(2),
        ] {
            let prints = sim.print_corners(&m);
            assert_same_bits(&prints.nominal, &sim.print(&m, corners.nominal));
            assert_same_bits(&prints.inner, &sim.print(&m, corners.inner));
            assert_same_bits(&prints.outer, &sim.print(&m, corners.outer));
        }
    }
}
