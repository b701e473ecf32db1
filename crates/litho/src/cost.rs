//! The process-window-aware cost function and its gradient
//! (paper Eq. (7), (9), (11)–(14)).

use crate::{LithoSimulator, ProcessCondition};
use lsopc_grid::{Grid, Scalar};
use serde::{Deserialize, Serialize};

/// Cost terms of one evaluation: `L = L_nom + w_pvb·L_pvb` (Eq. (13)).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Nominal-condition fidelity term `‖R − R*‖²` (Eq. (7)).
    pub nominal: f64,
    /// Process-variation term `‖R_in − R*‖² + ‖R_out − R*‖²` (Eq. (12)).
    pub pvb: f64,
    /// The PV-band weight `w_pvb` used.
    pub w_pvb: f64,
}

impl CostReport {
    /// The combined objective `L_nom + w_pvb·L_pvb`.
    pub fn total(&self) -> f64 {
        self.nominal + self.w_pvb * self.pvb
    }
}

/// Evaluates the total cost `L` and its mask gradient `G = ∂L/∂M`
/// (Eq. (13)–(14)) in one pass over the three process corners.
///
/// Per corner the pipeline is: aerial image `I`, sigmoid print `R`
/// (Eq. (8)), residual cost `w·‖R − R*‖²`, sensitivity
/// `z = 2w·(R − R*)·s·dose·R·(1−R) = ∂(w‖R−R*‖²)/∂I`, and the backend's
/// adjoint map (Eq. (11)).
///
/// The work is organized by optical condition, not by corner: the mask
/// is transformed once ([`crate::SimBackend::prepare`]); corners that
/// share a defocus value share one aerial image (exactly — dose enters
/// only the resist); and each defocus value runs one adjoint of the
/// summed sensitivity of its corners (exact in arithmetic, since the
/// adjoint is linear in `z`). At the ICCAD corners — nominal and outer
/// at 0 nm, inner at 25 nm — that is two aerial and two adjoint passes.
/// Corners with zero weight are skipped, so `w_pvb = 0` reduces to
/// plain nominal-cost ILT at half the cost.
///
/// # Panics
///
/// Panics if the mask or target dimensions do not match the simulator
/// grid, or if `w_pvb` is negative.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use lsopc_grid::Grid;
/// use lsopc_litho::{cost_and_gradient, LithoSimulator};
/// use lsopc_optics::OpticsConfig;
///
/// let sim = LithoSimulator::from_optics(
///     &OpticsConfig::iccad2013().with_kernel_count(4),
///     64,
///     4.0,
/// )?;
/// let target = Grid::from_fn(64, 64, |x, y| {
///     if (24..40).contains(&x) && (16..48).contains(&y) { 1.0 } else { 0.0 }
/// });
/// let (report, gradient) = cost_and_gradient(&sim, &target, &target, 1.0);
/// assert!(report.total() > 0.0);
/// assert_eq!(gradient.dims(), (64, 64));
/// # Ok(())
/// # }
/// ```
pub fn cost_and_gradient<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    w_pvb: f64,
) -> (CostReport, Grid<T>) {
    let _span = lsopc_trace::span!("litho.cost_and_gradient");
    let (residuals, gradient) = evaluate(sim, mask, target, &corner_terms(sim, w_pvb), true);
    let report = cost_report(&residuals, w_pvb);
    let gradient = gradient.expect("the nominal term always runs an adjoint");
    #[cfg(feature = "fault-injection")]
    let (report, gradient) = sim.apply_fault(report, gradient);
    (report, gradient)
}

/// Evaluates the total cost `L` only (no adjoint pass) — roughly half
/// the price of [`cost_and_gradient`], used by line searches. The report
/// is bit-identical to the one [`cost_and_gradient`] returns.
///
/// # Panics
///
/// Panics under the same conditions as [`cost_and_gradient`].
pub fn cost_only<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    w_pvb: f64,
) -> CostReport {
    let _span = lsopc_trace::span!("litho.cost_only");
    let (residuals, _) = evaluate(sim, mask, target, &corner_terms(sim, w_pvb), false);
    cost_report(&residuals, w_pvb)
}

/// Cost `w·‖R − R*‖²` and gradient `∂(w·‖R − R*‖²)/∂M` for a single
/// process condition.
///
/// Exposed so that baseline optimizers can implement their own corner
/// schedules (e.g. simulating only two corners per iteration like robust
/// OPC [Kuang et al., DATE'15]). Each call runs its own aerial and
/// adjoint pass; [`cost_and_gradient`] shares them across corners.
///
/// # Panics
///
/// Panics if `mask` and `target` dimensions differ or do not match the
/// simulator, or if `weight` is not positive.
pub fn corner_cost_and_gradient<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    condition: ProcessCondition,
    weight: f64,
) -> (f64, Grid<T>) {
    let _span = lsopc_trace::span!("litho.corner_cost");
    assert!(weight > 0.0, "weight must be positive");
    let (residuals, gradient) = evaluate(sim, mask, target, &[(condition, weight)], true);
    let gradient = gradient.expect("a positive-weight term runs an adjoint");
    (weight * residuals[0], gradient)
}

/// The weighted corners of Eq. (14) in report order `[nominal, inner,
/// outer]`; at `w_pvb = 0` the PV-band corners drop out.
fn corner_terms<T: Scalar>(sim: &LithoSimulator<T>, w_pvb: f64) -> Vec<(ProcessCondition, f64)> {
    assert!(w_pvb >= 0.0, "w_pvb must be non-negative");
    let corners = sim.corners();
    let mut terms = vec![(corners.nominal, 1.0)];
    if w_pvb > 0.0 {
        terms.push((corners.inner, w_pvb));
        terms.push((corners.outer, w_pvb));
    }
    terms
}

/// The report of [`corner_terms`]' residuals `‖R − R*‖²`.
fn cost_report(residuals: &[f64], w_pvb: f64) -> CostReport {
    CostReport {
        nominal: residuals[0],
        pvb: residuals[1..].iter().fold(0.0, |sum, &r| sum + r),
        w_pvb,
    }
}

/// The residual `‖R − R*‖²` of each weighted condition in `terms` and,
/// with `with_gradient`, the gradient of `Σ w·‖R − R*‖²`.
///
/// One mask spectrum serves every pass; conditions with the same kernel
/// set (defocus) share one aerial image and one adjoint of their summed
/// sensitivities. The residual is accumulated in `T` (at `f64` the exact
/// historical sum) and reported in `f64`.
fn evaluate<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    terms: &[(ProcessCondition, f64)],
    with_gradient: bool,
) -> (Vec<f64>, Option<Grid<T>>) {
    assert_eq!(
        mask.dims(),
        target.dims(),
        "mask and target dimensions must match"
    );
    let backend = sim.backend();
    let resist = sim.resist();
    let prepared = backend.prepare(mask);
    let mut residuals = vec![0.0; terms.len()];
    let mut gradient: Option<Grid<T>> = None;
    for (kernels, members) in sim.kernel_groups(terms.iter().map(|(c, _)| c.defocus_nm)) {
        let aerial = backend.aerial_image_prepared(&kernels, &prepared);
        let mut z: Option<Grid<T>> = None;
        for i in members {
            let (condition, weight) = terms[i];
            let printed = resist.print_soft(&aerial, condition.dose);
            residuals[i] = printed
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(&r, &t)| (r - t) * (r - t))
                .sum::<T>()
                .to_f64();
            if with_gradient {
                // z = ∂(w·‖R − R*‖²)/∂I = 2w·(R − R*)·dR/dI.
                let two_w = T::from_f64(2.0 * weight);
                let zi = printed.zip_map(target, |&r, &t| {
                    two_w * (r - t) * resist.soft_derivative_t(r, condition.dose)
                });
                z = Some(accumulate(z, zi));
            }
        }
        if let Some(z) = z {
            let g = backend.gradient_prepared(&kernels, &prepared, &z);
            gradient = Some(accumulate(gradient, g));
        }
    }
    (residuals, gradient)
}

/// `acc + g`, or `g` itself when there is nothing to add it to, so a
/// single term keeps its exact bits.
fn accumulate<T: Scalar>(acc: Option<Grid<T>>, g: Grid<T>) -> Grid<T> {
    match acc {
        None => g,
        Some(mut acc) => {
            for (dst, &v) in acc.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *dst += v;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 32, 8.0)
            .expect("valid configuration")
    }

    fn target() -> Grid<f64> {
        Grid::from_fn(32, 32, |x, y| {
            if (12..20).contains(&x) && (8..24).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let sim = sim();
        let target = target();
        let mask = target.clone();
        let w_pvb = 0.7;
        let (_, grad) = cost_and_gradient(&sim, &mask, &target, w_pvb);
        let cost_of = |m: &Grid<f64>| cost_and_gradient(&sim, m, &target, w_pvb).0.total();
        let h = 1e-5;
        for &(px, py) in &[(13usize, 9usize), (16, 16), (4, 4), (19, 23)] {
            let mut plus = mask.clone();
            plus[(px, py)] += h;
            let mut minus = mask.clone();
            minus[(px, py)] -= h;
            let fd = (cost_of(&plus) - cost_of(&minus)) / (2.0 * h);
            let an = grad[(px, py)];
            assert!(
                (fd - an).abs() < 1e-4 * (1.0 + fd.abs().max(an.abs())),
                "pixel ({px},{py}): fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn zero_pvb_weight_reduces_to_nominal() {
        let sim = sim();
        let target = target();
        let (report, _) = cost_and_gradient(&sim, &target, &target, 0.0);
        assert_eq!(report.pvb, 0.0);
        assert!(report.nominal > 0.0);
        assert_eq!(report.total(), report.nominal);
    }

    #[test]
    fn pvb_term_increases_total() {
        let sim = sim();
        let target = target();
        let (r0, _) = cost_and_gradient(&sim, &target, &target, 0.0);
        let (r1, _) = cost_and_gradient(&sim, &target, &target, 1.0);
        assert!(r1.total() > r0.total());
        assert!((r1.nominal - r0.nominal).abs() < 1e-12);
    }

    #[test]
    fn perfect_dark_target_with_dark_mask_has_zero_gradient_norm() {
        // An empty target with an empty mask is a stationary point: R ≈ 0
        // everywhere, (R − R*) ≈ 0.
        let sim = sim();
        let dark = Grid::new(32, 32, 0.0);
        let (report, grad) = cost_and_gradient(&sim, &dark, &dark, 1.0);
        assert!(report.total() < 1e-6);
        assert!(lsopc_grid::max_abs(&grad) < 1e-6);
    }

    #[test]
    fn gradient_points_downhill() {
        let sim = sim();
        let target = target();
        let mask = target.clone();
        let (before, grad) = cost_and_gradient(&sim, &mask, &target, 1.0);
        // Take a small step against the gradient.
        let step = 1e-3 / lsopc_grid::max_abs(&grad).max(1e-12);
        let moved = mask.zip_map(&grad, |&m, &g| m - step * g);
        let (after, _) = cost_and_gradient(&sim, &moved, &target, 1.0);
        assert!(
            after.total() < before.total(),
            "before={}, after={}",
            before.total(),
            after.total()
        );
    }
}

#[cfg(test)]
mod cost_only_tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    #[test]
    fn cost_only_matches_cost_and_gradient() {
        let sim =
            LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 32, 8.0)
                .expect("valid configuration");
        let target = Grid::from_fn(32, 32, |x, y| {
            if (12..20).contains(&x) && (8..24).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        for w in [0.0, 0.5, 0.7, 1.0] {
            let full = cost_and_gradient(&sim, &target, &target, w).0;
            let only = cost_only(&sim, &target, &target, w);
            assert_eq!(full.total().to_bits(), only.total().to_bits(), "w={w}");
            assert_eq!(full.nominal.to_bits(), only.nominal.to_bits(), "w={w}");
            assert_eq!(full.pvb.to_bits(), only.pvb.to_bits(), "w={w}");
        }
    }
}
