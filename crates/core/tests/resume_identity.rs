//! Resume determinism: a run killed at iteration `k` (via an iteration
//! budget, standing in for a crash or Ctrl-C at the same boundary) and
//! resumed from its checkpoint must reproduce the uninterrupted run
//! bit-for-bit at f64 — the same mask, the same ψ, the same history
//! records (excluding wall-clock `elapsed_s`).
//!
//! Covered paths: the plain loop, the health-guard loop (state machine
//! and rollback target are checkpointed), the line-search loop, and the
//! coarse-to-fine schedule resumed in *both* stages. `scripts/check.sh`
//! runs this suite at `LSOPC_THREADS=1` and `=4` so the guarantee holds
//! across pool sizes.

use lsopc_core::{
    CheckpointSpec, IltResult, LevelSetIlt, RecoveryPolicy, ResolutionSchedule, RunControl,
    StopReason,
};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;
use std::path::PathBuf;

fn sim(grid_px: usize) -> LithoSimulator {
    // 4 nm pixels at 64 px (the golden-test geometry); 8 nm at 256 px so
    // the 128 px coarse stage still holds the optical band.
    let pixel_nm = if grid_px == 64 { 4.0 } else { 8.0 };
    LithoSimulator::from_optics(
        &OpticsConfig::iccad2013().with_kernel_count(4),
        grid_px,
        pixel_nm,
    )
    .expect("valid configuration")
}

fn wire_target(grid_px: usize) -> Grid<f64> {
    let s = grid_px / 64;
    Grid::from_fn(grid_px, grid_px, |x, y| {
        if (26 * s..38 * s).contains(&x) && (12 * s..52 * s).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn tmp_ck(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsopc_resume_{}_{name}.lsckpt", std::process::id()))
}

/// Asserts two results are bit-identical up to wall-clock fields.
fn assert_bit_identical(a: &IltResult, b: &IltResult, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iteration count");
    assert_eq!(
        a.coarse_iterations, b.coarse_iterations,
        "{what}: coarse iteration count"
    );
    assert_eq!(a.converged, b.converged, "{what}: convergence flag");
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(ra.iteration, rb.iteration, "{what}: history iteration");
        for (va, vb, field) in [
            (ra.cost_nominal, rb.cost_nominal, "cost_nominal"),
            (ra.cost_pvb, rb.cost_pvb, "cost_pvb"),
            (ra.cost_total, rb.cost_total, "cost_total"),
            (ra.max_velocity, rb.max_velocity, "max_velocity"),
            (ra.time_step, rb.time_step, "time_step"),
            (ra.cg_beta, rb.cg_beta, "cg_beta"),
            (ra.lambda_scale, rb.lambda_scale, "lambda_scale"),
        ] {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: iter {} field {field}: {va} vs {vb}",
                ra.iteration
            );
        }
        assert_eq!(ra.rolled_back, rb.rolled_back, "{what}: rollback flag");
        assert_eq!(ra.backoffs, rb.backoffs, "{what}: backoff count");
    }
    for (i, (va, vb)) in a.mask.as_slice().iter().zip(b.mask.as_slice()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: mask pixel {i}");
    }
    for (i, (va, vb)) in a
        .levelset
        .as_slice()
        .iter()
        .zip(b.levelset.as_slice())
        .enumerate()
    {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: ψ pixel {i}");
    }
}

/// Runs `ilt` uninterrupted, then kill-at-`k`/resume, and asserts the
/// two trajectories match bitwise.
fn check_kill_resume(ilt: &LevelSetIlt, grid_px: usize, k: usize, name: &str) {
    let sim = sim(grid_px);
    let target = wire_target(grid_px);
    let baseline = ilt
        .optimize(&sim, &target, &RunControl::new())
        .expect("baseline run");

    let ck = tmp_ck(&format!("{name}_k{k}"));
    std::fs::remove_file(&ck).ok();
    // "Crash" at iteration k: the budget stops the loop at the same
    // boundary a deadline or SIGINT would, and the graceful-stop path
    // writes a final checkpoint.
    let control = RunControl::new()
        .with_iteration_budget(k)
        .with_checkpoint(CheckpointSpec::new(&ck, 1));
    let killed = ilt.optimize(&sim, &target, &control).expect("killed run");
    assert_eq!(
        killed.stopped,
        Some(StopReason::Budget),
        "{name} k={k}: budget stop recorded"
    );
    assert!(ck.exists(), "{name} k={k}: checkpoint written");

    let resumed = ilt
        .optimize(&sim, &target, &RunControl::new().with_resume(&ck))
        .expect("resumed run");
    assert!(
        resumed.stopped.is_none(),
        "{name} k={k}: resumed run completes"
    );
    assert_bit_identical(&baseline, &resumed, &format!("{name} k={k}"));
    std::fs::remove_file(ck).ok();
}

#[test]
fn plain_loop_resumes_bit_identically() {
    let ilt = LevelSetIlt::builder()
        .max_iterations(12)
        .recovery(RecoveryPolicy::Off)
        .build();
    for k in [1, 5, 9] {
        check_kill_resume(&ilt, 64, k, "plain");
    }
}

#[test]
fn guarded_loop_resumes_bit_identically() {
    // Default recovery: the guard's state machine and rollback ψ ride
    // in the checkpoint, so a resume replays identical guard decisions.
    let ilt = LevelSetIlt::builder().max_iterations(10).build();
    for k in [2, 6] {
        check_kill_resume(&ilt, 64, k, "guarded");
    }
}

#[test]
fn line_search_loop_resumes_bit_identically() {
    let ilt = LevelSetIlt::builder()
        .max_iterations(8)
        .lambda_t(4.0)
        .line_search(true)
        .build();
    check_kill_resume(&ilt, 64, 3, "line_search");
}

#[test]
fn scheduled_run_resumes_in_coarse_stage() {
    // 3 coarse + 2 fine iterations; killing at k=2 lands mid-coarse, so
    // the resume re-enters the coarse stage and still reproduces the
    // stage merge bitwise.
    let ilt = LevelSetIlt::builder()
        .max_iterations(5)
        .schedule(Some(ResolutionSchedule::new(128, 4, 3, 2)))
        .build();
    check_kill_resume(&ilt, 256, 2, "scheduled_coarse");
}

#[test]
fn scheduled_run_resumes_in_fine_stage() {
    // Killing at k=4 lands after the full coarse stage plus one fine
    // iteration: the checkpoint's CoarseCarry must reproduce the merged
    // history and diagnostics without re-running the coarse stage.
    let ilt = LevelSetIlt::builder()
        .max_iterations(5)
        .schedule(Some(ResolutionSchedule::new(128, 4, 3, 2)))
        .build();
    check_kill_resume(&ilt, 256, 4, "scheduled_fine");
}
