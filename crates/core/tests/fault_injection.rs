//! Recovery property tests: a fault injected at ANY iteration still
//! yields a finite mask no worse than the last healthy checkpoint.
//!
//! Runs only with the `fault-injection` feature
//! (`cargo test -p lsopc-core --features fault-injection`); the feature
//! forwards to `lsopc-litho`'s injection hook on the cost-and-gradient
//! path. The sweep is exhaustive over (fault mode × iteration index)
//! rather than sampled — determinism makes every case cheap to pin.
#![cfg(feature = "fault-injection")]

use lsopc_core::{
    GuardConfig, GuardEventKind, LevelSetIlt, OptimizeError, RecoveryPolicy, RunControl,
};
use lsopc_grid::Grid;
use lsopc_litho::{cost_only, FaultInjector, FaultMode, LithoSimulator, ScriptedFault};
use lsopc_optics::OpticsConfig;
use std::sync::Arc;

const ITERS: usize = 6;

fn optics() -> OpticsConfig {
    OpticsConfig::iccad2013().with_kernel_count(4)
}

fn clean_sim() -> LithoSimulator {
    LithoSimulator::from_optics(&optics(), 64, 4.0).expect("valid configuration")
}

fn faulty_sim(injector: Arc<dyn FaultInjector>) -> LithoSimulator {
    LithoSimulator::from_optics(&optics(), 64, 4.0)
        .expect("valid configuration")
        .with_fault_injector(injector)
}

fn wire_target() -> Grid<f64> {
    Grid::from_fn(64, 64, |x, y| {
        if (26..38).contains(&x) && (12..52).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn optimizer(policy: RecoveryPolicy) -> LevelSetIlt {
    LevelSetIlt::builder()
        .max_iterations(ITERS)
        .recovery(policy)
        .build()
}

fn guard_on() -> RecoveryPolicy {
    RecoveryPolicy::On(GuardConfig::default())
}

fn assert_finite_binary(mask: &Grid<f64>) {
    assert!(
        mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0),
        "mask must be finite and binary"
    );
    assert!(mask.sum() > 0.0, "mask must not be empty");
}

/// The acceptance property: a fault at iteration `k` still returns `Ok`
/// with an all-finite mask whose true cost is no worse than the last
/// pre-fault checkpoint's, and the diagnostics record the recovery.
fn assert_recovers(mode: FaultMode, k: usize, clean_costs: &[f64]) {
    let sim = faulty_sim(Arc::new(ScriptedFault::once(k, mode)));
    let target = wire_target();
    let result = optimizer(guard_on())
        .optimize(&sim, &target, &RunControl::new())
        .unwrap_or_else(|e| panic!("{mode:?} at iteration {k}: optimize failed: {e}"));

    assert_finite_binary(&result.mask);
    assert!(
        result.levelset.as_slice().iter().all(|v| v.is_finite()),
        "{mode:?} at iteration {k}: non-finite ψ leaked"
    );

    // No worse than the last healthy checkpoint. Iterations before the
    // fault are bit-identical to the clean run, so the checkpoint cost
    // is the clean run's cost at k−1 (or at 0 when the fault fires on
    // the very first evaluation, which re-runs unharmed after backoff).
    let checkpoint_cost = clean_costs[k.saturating_sub(1)];
    let verify = clean_sim();
    let achieved = cost_only(&verify, &result.mask, &target, 1.0).total();
    assert!(
        achieved <= checkpoint_cost * (1.0 + 1e-6),
        "{mode:?} at iteration {k}: cost {achieved} worse than checkpoint {checkpoint_cost}"
    );

    // The diagnostics record the recovery.
    assert!(
        result.diagnostics.backoffs >= 1,
        "{mode:?} at iteration {k}: no backoff recorded"
    );
    assert!(
        result
            .diagnostics
            .events
            .iter()
            .any(|e| matches!(e.kind, GuardEventKind::Backoff { .. })),
        "{mode:?} at iteration {k}: no backoff event"
    );
    assert!(
        result.history.iter().any(|r| r.rolled_back),
        "{mode:?} at iteration {k}: no rolled-back record"
    );
    if k + 1 < ITERS {
        // A later in-loop evaluation ran healthy again.
        assert!(
            result.diagnostics.recovered(),
            "{mode:?} at iteration {k}: recovery not recorded"
        );
    }
    assert!(result.diagnostics.final_lambda_scale < 1.0);
}

/// Clean-run per-iteration costs, the rollback reference.
fn clean_costs() -> Vec<f64> {
    let result = optimizer(guard_on())
        .optimize(&clean_sim(), &wire_target(), &RunControl::new())
        .expect("clean run");
    assert!(!result.diagnostics.has_events(), "clean run saw events");
    result.history.iter().map(|r| r.cost_total).collect()
}

#[test]
fn non_finite_faults_at_every_iteration_recover() {
    let costs = clean_costs();
    assert_eq!(costs.len(), ITERS);
    for mode in [
        FaultMode::NanGradient,
        FaultMode::InfGradient,
        FaultMode::NanCost,
        FaultMode::InfCost,
    ] {
        for k in 0..ITERS {
            assert_recovers(mode, k, &costs);
        }
    }
}

#[test]
fn spike_faults_at_every_detectable_iteration_recover() {
    let costs = clean_costs();
    // A spike is finite, so it is only detectable against a healthy
    // reference magnitude — the ratio detectors need iteration ≥ 1.
    for mode in [FaultMode::SpikeGradient(1e30), FaultMode::SpikeCost(1e30)] {
        for k in 1..ITERS {
            assert_recovers(mode, k, &costs);
        }
    }
}

#[test]
fn fault_on_final_evaluation_returns_best_healthy_iterate() {
    // The post-loop evaluation is fault call number ITERS (one per
    // in-loop iteration first). Corrupting it must not corrupt the
    // returned mask.
    let target = wire_target();
    for mode in [FaultMode::NanCost, FaultMode::Panic] {
        let sim = faulty_sim(Arc::new(ScriptedFault::once(ITERS, mode)));
        let result = optimizer(guard_on())
            .optimize(&sim, &target, &RunControl::new())
            .expect("optimize survives a corrupt final evaluation");
        assert_finite_binary(&result.mask);
        assert!(result.diagnostics.has_events());
        // The in-loop iterations were all healthy.
        assert!(result.history.iter().all(|r| !r.rolled_back));
    }
}

#[test]
fn worker_panic_is_contained_as_a_diagnostics_event() {
    let sim = faulty_sim(Arc::new(ScriptedFault::once(2, FaultMode::Panic)));
    let target = wire_target();
    let result = optimizer(guard_on())
        .optimize(&sim, &target, &RunControl::new())
        .expect("panic must be contained");
    assert_finite_binary(&result.mask);
    let panics: Vec<_> = result
        .diagnostics
        .events
        .iter()
        .filter(|e| matches!(e.kind, GuardEventKind::WorkerPanic { .. }))
        .collect();
    assert_eq!(panics.len(), 1, "exactly one contained panic");
    assert_eq!(panics[0].iteration, 2);
    match &panics[0].kind {
        GuardEventKind::WorkerPanic { message } => {
            assert!(message.contains("injected fault"), "message: {message}");
        }
        other => panic!("unexpected kind {other:?}"),
    }
    assert!(result.diagnostics.backoffs >= 1);
    // The shared pool survived for the rest of the run.
    assert!(result.history.len() == ITERS);
}

#[test]
fn worker_panic_with_guard_off_still_aborts() {
    // Historical behavior is preserved: without the guard the re-raised
    // pool panic propagates out of optimize.
    let sim = faulty_sim(Arc::new(ScriptedFault::once(1, FaultMode::Panic)));
    let target = wire_target();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        optimizer(RecoveryPolicy::Off).optimize(&sim, &target, &RunControl::new())
    }));
    assert!(outcome.is_err(), "guard-off panic must propagate");
}

#[test]
fn persistent_fault_gives_up_gracefully_under_on() {
    let sim = faulty_sim(Arc::new(ScriptedFault::persistent(FaultMode::NanGradient)));
    let target = wire_target();
    let result = LevelSetIlt::builder()
        .max_iterations(12)
        .recovery(guard_on())
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect("On policy ends gracefully");
    assert!(result.diagnostics.gave_up);
    assert_eq!(
        result.diagnostics.backoffs,
        GuardConfig::default().max_backoffs
    );
    assert!(result
        .diagnostics
        .events
        .iter()
        .any(|e| e.kind == GuardEventKind::GaveUp));
    // Every evaluation was corrupt, so the fallback is the untouched
    // initial iterate — still finite and binary.
    assert_finite_binary(&result.mask);
    assert!(result.levelset.as_slice().iter().all(|v| v.is_finite()));
    assert!(!result.converged);
}

#[test]
fn persistent_fault_is_an_error_under_strict() {
    let sim = faulty_sim(Arc::new(ScriptedFault::persistent(FaultMode::NanCost)));
    let target = wire_target();
    let err = LevelSetIlt::builder()
        .max_iterations(12)
        .recovery(RecoveryPolicy::Strict(GuardConfig::default()))
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect_err("Strict policy fails hard");
    match err {
        OptimizeError::RecoveryFailed {
            iteration,
            backoffs,
        } => {
            assert_eq!(backoffs, GuardConfig::default().max_backoffs);
            assert!(iteration <= 12);
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert!(err.to_string().contains("gave up"));
}

#[test]
fn recovery_halves_lambda_and_records_it_in_history() {
    let sim = faulty_sim(Arc::new(ScriptedFault::once(2, FaultMode::NanGradient)));
    let target = wire_target();
    let result = optimizer(guard_on())
        .optimize(&sim, &target, &RunControl::new())
        .expect("recovers");
    assert_eq!(result.history.len(), ITERS);
    // Before the fault: untouched scale. At the fault: rolled back and
    // halved. After: the halved scale drives the CFL step.
    assert_eq!(result.history[1].lambda_scale, 1.0);
    assert!(result.history[2].rolled_back);
    assert_eq!(result.history[2].lambda_scale, 0.5);
    assert_eq!(result.history[2].backoffs, 1);
    assert_eq!(result.history[3].lambda_scale, 0.5);
    assert!(!result.history[3].rolled_back);
    assert_eq!(result.diagnostics.final_lambda_scale, 0.5);
}
