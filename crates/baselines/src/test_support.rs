//! Test-only helpers shared by the baseline unit tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lsopc_grid::Grid;
use lsopc_litho::{FftBackend, LithoSimulator, SimBackend, SimCaches};
use lsopc_optics::{KernelSet, OpticsConfig};

/// The default FFT backend with a counter of the simulations run
/// through it: every `aerial_image` and `gradient` call.
#[derive(Debug)]
struct CountingBackend {
    inner: FftBackend,
    calls: Arc<AtomicUsize>,
}

impl SimBackend<f64> for CountingBackend {
    fn name(&self) -> &'static str {
        "counting-fft"
    }

    fn aerial_image(&self, kernels: &KernelSet<f64>, mask: &Grid<f64>) -> Grid<f64> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.aerial_image(kernels, mask)
    }

    fn gradient(&self, kernels: &KernelSet<f64>, mask: &Grid<f64>, z: &Grid<f64>) -> Grid<f64> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient(kernels, mask, z)
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        SimBackend::<f64>::set_caches(&mut self.inner, caches);
    }
}

/// The baseline tests' 64 px, K = 4 simulator with its backend wrapped in
/// a simulation counter, and the counter.
pub(crate) fn counted_sim() -> (LithoSimulator, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let backend = CountingBackend {
        inner: FftBackend::new(),
        calls: calls.clone(),
    };
    let sim = LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
        .expect("valid configuration")
        .with_backend(Box::new(backend));
    (sim, calls)
}
