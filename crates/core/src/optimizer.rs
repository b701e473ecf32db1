//! The optimization loop (paper Algorithm 1).

use crate::cg::prp_beta;
use crate::guard::{panic_message, BackoffOutcome, Health, HealthGuard};
use crate::resume::{self, Checkpoint, CheckpointError, CoarseCarry, LoopSnapshot, StageTag};
use crate::{
    Evolution, GuardEventKind, IterationRecord, LevelSetIlt, RecoveryPolicy, ResolutionSchedule,
    RunControl, SolverDiagnostics, StopReason,
};
use lsopc_grid::{max_abs, Grid, Scalar};
use lsopc_levelset::{
    cfl_time_step, curvature, evolve, godunov_gradient, gradient_magnitude, mask_from_levelset,
    reinitialize, signed_distance, upsample_levelset, NarrowBand,
};
use lsopc_litho::{cost_and_gradient, cost_only, CostReport, LithoSimulator};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Error returned by [`LevelSetIlt::optimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// Target grid does not match the simulator grid.
    TargetDimsMismatch {
        /// Target grid dimensions.
        target: (usize, usize),
        /// Simulator grid dimension.
        sim: usize,
    },
    /// Target contains no pattern (nothing to optimize).
    EmptyTarget,
    /// A warm-start level set does not match the simulator grid.
    InitDimsMismatch {
        /// Warm-start grid dimensions.
        init: (usize, usize),
        /// Simulator grid dimension.
        sim: usize,
    },
    /// A [`ResolutionSchedule`] coarse stage could not build its
    /// simulator.
    CoarseStage {
        /// The underlying build error, rendered.
        message: String,
    },
    /// The health guard exhausted its backoffs under
    /// [`RecoveryPolicy::Strict`](crate::RecoveryPolicy::Strict).
    RecoveryFailed {
        /// Iteration at which the guard gave up.
        iteration: usize,
        /// Backoffs performed before giving up.
        backoffs: usize,
    },
    /// A [`RunControl::with_resume`] checkpoint could not be used
    /// (missing, corrupt, or written by an incompatible run). See
    /// [`CheckpointError`] for the categories.
    Checkpoint {
        /// The underlying [`CheckpointError`], rendered.
        message: String,
    },
}

impl From<CheckpointError> for OptimizeError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint {
            message: e.to_string(),
        }
    }
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TargetDimsMismatch { target, sim } => write!(
                f,
                "target grid {}x{} does not match simulator grid {sim}x{sim}",
                target.0, target.1
            ),
            Self::EmptyTarget => write!(f, "target contains no pattern"),
            Self::InitDimsMismatch { init, sim } => write!(
                f,
                "warm-start level set {}x{} does not match simulator grid {sim}x{sim}",
                init.0, init.1
            ),
            Self::CoarseStage { message } => {
                write!(f, "coarse-stage simulator: {message}")
            }
            Self::RecoveryFailed {
                iteration,
                backoffs,
            } => write!(
                f,
                "solver health guard gave up at iteration {iteration} after {backoffs} backoffs"
            ),
            Self::Checkpoint { message } => f.write_str(message),
        }
    }
}

impl Error for OptimizeError {}

/// The outcome of a level-set ILT run.
///
/// Generic over the field scalar `T` (default `f64`): the mask, level
/// set and snapshots carry the precision the run was performed at, while
/// the per-iteration history is always recorded in f64 — costs and step
/// sizes are optimizer master state regardless of field precision.
#[derive(Clone, Debug)]
pub struct IltResult<T: Scalar = f64> {
    /// The optimized binary mask `M*`.
    pub mask: Grid<T>,
    /// The final level-set function `ψ`.
    pub levelset: Grid<T>,
    /// Per-iteration records (always collected; they are cheap). On a
    /// scheduled run the coarse stage comes first, with fine-stage
    /// iterations renumbered to continue the count.
    pub history: Vec<IterationRecord>,
    /// Number of iterations actually run (both stages on a scheduled
    /// run).
    pub iterations: usize,
    /// How many of [`IltResult::iterations`] ran on the coarse grid of a
    /// [`ResolutionSchedule`] (0 on a flat run — every iteration paid
    /// full-resolution cost).
    pub coarse_iterations: usize,
    /// True when the run stopped on the `max|v| ≤ ε` criterion.
    pub converged: bool,
    /// End-to-end wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Mask snapshots `(iteration, mask)` when snapshotting was enabled
    /// (for reproducing the paper's Fig. 2).
    pub snapshots: Vec<(usize, Grid<T>)>,
    /// What the solver health guard observed (empty with
    /// [`RecoveryPolicy::Off`](crate::RecoveryPolicy::Off) or on a
    /// healthy run).
    pub diagnostics: SolverDiagnostics,
    /// Why the run was stopped early by its [`RunControl`] (`None` for
    /// a run that completed or converged normally). A stopped result
    /// still carries the best-so-far mask — a graceful stop is not an
    /// error.
    pub stopped: Option<StopReason>,
}

impl<T: Scalar> IltResult<T> {
    /// Total cost at the last iteration.
    pub fn final_cost(&self) -> f64 {
        self.history.last().map_or(f64::NAN, |r| r.cost_total)
    }

    /// The result with mask, level set and snapshots widened to f64.
    ///
    /// Scoring and reporting run at f64 regardless of the optimization
    /// precision; this is the seam where an f32 run re-enters the f64
    /// world. A no-op (exact) when `T = f64`.
    pub fn to_f64(&self) -> IltResult<f64> {
        IltResult {
            mask: self.mask.map(|&v| v.to_f64()),
            levelset: self.levelset.map(|&v| v.to_f64()),
            history: self.history.clone(),
            iterations: self.iterations,
            coarse_iterations: self.coarse_iterations,
            converged: self.converged,
            runtime_s: self.runtime_s,
            snapshots: self
                .snapshots
                .iter()
                .map(|(i, m)| (*i, m.map(|&v| v.to_f64())))
                .collect(),
            diagnostics: self.diagnostics.clone(),
            stopped: self.stopped,
        }
    }
}

/// Mirrors an [`IterationRecord`] to the trace layer (the
/// per-iteration telemetry event). No-op when tracing is disabled.
fn emit_iter(rec: &IterationRecord) {
    if lsopc_trace::enabled() {
        lsopc_trace::iter(&lsopc_trace::IterRecord {
            iteration: rec.iteration,
            cost_total: rec.cost_total,
            cost_nominal: rec.cost_nominal,
            cost_pvb: rec.cost_pvb,
            lambda_scale: rec.lambda_scale,
            beta: rec.cg_beta,
            time_step: rec.time_step,
            max_velocity: rec.max_velocity,
            rolled_back: rec.rolled_back,
        });
    }
}

/// Runs `f`, containing a worker-pool panic as `Err(message)` when the
/// guard is on; with the guard off a panic propagates.
fn contain<R>(guarded: bool, f: impl FnOnce() -> R) -> Result<R, String> {
    if guarded {
        catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
    } else {
        Ok(f())
    }
}

/// How the loop proceeds after one iteration body.
#[derive(Debug, PartialEq, Eq)]
enum Flow {
    /// The iteration completed: checkpoint on schedule and go on.
    Next,
    /// The guard rolled the iteration back: retry from the restored ψ.
    Retry,
    /// A stall or exhausted backoffs: stop without converging.
    Stop,
    /// Algorithm 1's stop condition `max|v| ≤ ε` held.
    Converged,
}

/// The mutable state of the Algorithm 1 loop — everything a checkpoint
/// captures and a resume restores.
struct LoopState<T: Scalar> {
    /// The iteration in progress, or the next one at an iteration
    /// boundary (local to its stage).
    iteration: usize,
    psi: Grid<T>,
    /// PRP conjugate-gradient state: the previous gradient velocity and
    /// search velocity.
    prev_gradient_velocity: Option<Grid<T>>,
    prev_velocity: Option<Grid<T>>,
    /// Best accepted iterate as `(cost, mask, ψ)`.
    best: Option<(f64, Grid<T>, Grid<T>)>,
    /// `None` with `RecoveryPolicy::Off`: the loop then follows the
    /// historical code path exactly.
    guard: Option<HealthGuard>,
    /// The guard's rollback target: the last pre-evolve ψ that passed
    /// every per-iteration check.
    guard_checkpoint: Option<Grid<T>>,
    history: Vec<IterationRecord>,
    /// Mask snapshots as `(iteration, mask)`.
    snapshots: Vec<(usize, Grid<T>)>,
}

impl<T: Scalar> LoopState<T> {
    /// The state before iteration 0, starting from `psi`.
    fn new(psi: Grid<T>, recovery: &RecoveryPolicy) -> Self {
        Self {
            iteration: 0,
            psi,
            prev_gradient_velocity: None,
            prev_velocity: None,
            best: None,
            guard: HealthGuard::from_policy(recovery),
            guard_checkpoint: None,
            history: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Captures the state in f64, the checkpoint precision: exact at
    /// f64, a lossless widening otherwise.
    fn snapshot(&self) -> LoopSnapshot {
        let widen = |g: &Grid<T>| g.map(|&v| v.to_f64());
        LoopSnapshot {
            next_iteration: self.iteration,
            psi: widen(&self.psi),
            prev_gradient_velocity: self.prev_gradient_velocity.as_ref().map(widen),
            prev_velocity: self.prev_velocity.as_ref().map(widen),
            // The best mask is always `mask_from_levelset` of the best ψ,
            // so only the (cost, ψ) pair needs to be stored.
            best: self.best.as_ref().map(|(cost, _, psi)| (*cost, widen(psi))),
            guard: self.guard.as_ref().map(HealthGuard::snapshot),
            guard_checkpoint: self.guard_checkpoint.as_ref().map(widen),
            history: self.history.clone(),
            snapshots: self.snapshots.iter().map(|(i, m)| (*i, widen(m))).collect(),
        }
    }

    /// Overwrites the state with a captured one. The narrowing map is
    /// the exact inverse of [`LoopState::snapshot`]'s widening.
    fn restore(&mut self, snap: LoopSnapshot) -> Result<(), CheckpointError> {
        let (w, h) = self.psi.dims();
        if snap.psi.dims() != (w, h) {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint ψ is {}×{}, stage grid is {w}×{h}",
                snap.psi.dims().0,
                snap.psi.dims().1
            )));
        }
        match (self.guard.as_mut(), snap.guard) {
            (Some(g), Some(gs)) => g.restore(gs),
            (None, None) => {}
            _ => {
                return Err(CheckpointError::Malformed(
                    "checkpoint guard state does not match the recovery policy".into(),
                ))
            }
        }
        let narrow = |g: &Grid<f64>| g.map(|&v| T::from_f64(v));
        self.iteration = snap.next_iteration;
        self.psi = narrow(&snap.psi);
        self.prev_gradient_velocity = snap.prev_gradient_velocity.as_ref().map(narrow);
        self.prev_velocity = snap.prev_velocity.as_ref().map(narrow);
        // The loop only ever stores best = (cost, mask_from_levelset(ψ), ψ),
        // so recomputing the mask from the stored ψ is exact.
        self.best = snap.best.map(|(cost, psi)| {
            let psi = narrow(&psi);
            (cost, mask_from_levelset(&psi), psi)
        });
        self.guard_checkpoint = snap.guard_checkpoint.as_ref().map(narrow);
        self.history = snap.history;
        self.snapshots = snap
            .snapshots
            .iter()
            .map(|(i, m)| (*i, narrow(m)))
            .collect();
        Ok(())
    }
}

/// Per-stage context handed to [`LevelSetIlt::run`].
#[derive(Clone, Copy)]
struct StageCtx<'a> {
    control: &'a RunControl,
    /// Configuration fingerprint written into (and checked against)
    /// checkpoint files; zero when the control never persists.
    config_hash: u64,
    /// The stage checkpoints are tagged with.
    stage: StageTag,
    /// Iterations completed by earlier stages (for the global budget).
    iter_offset: usize,
    /// Completed-coarse context to embed in fine-stage checkpoints.
    carry: Option<&'a CoarseCarry>,
}

impl StageCtx<'_> {
    /// Captures the loop state into the control's checkpoint file,
    /// atomically (no-op without a checkpoint spec). A write failure is
    /// a warning, not an error: losing a periodic checkpoint must not
    /// kill a healthy optimization.
    fn save<T: Scalar>(&self, state: &LoopState<T>) {
        let Some(spec) = self.control.checkpoint.as_ref() else {
            return;
        };
        // Spans the whole capture (state widening + serialization + the
        // atomic write), so the trace reports the full per-write cost.
        let _span = lsopc_trace::span!("checkpoint.write");
        let ck = Checkpoint {
            config_hash: self.config_hash,
            stage: self.stage,
            snapshot: state.snapshot(),
            carry: self.carry.cloned(),
        };
        match resume::write_checkpoint(&spec.path, &ck) {
            Ok(()) => lsopc_trace::count("checkpoint.write", 1),
            Err(e) => lsopc_trace::warn(
                "resume",
                &format!("checkpoint write to {} failed: {e}", spec.path.display()),
            ),
        }
    }
}

/// The loop state a loaded checkpoint re-enters, as `(first, fine)`:
/// `first` resumes the flat or (if `scheduled`) the coarse stage, `fine`
/// skips to the fine stage with the coarse carry. The config hash pins
/// the schedule, so a stage that does not fit means a tampered file.
type ResumePoint = (Option<LoopSnapshot>, Option<(LoopSnapshot, CoarseCarry)>);
fn resume_point(loaded: Option<Checkpoint>, scheduled: bool) -> Result<ResumePoint, OptimizeError> {
    let Some(ck) = loaded else {
        return Ok((None, None));
    };
    match (ck.stage, scheduled, ck.carry) {
        (StageTag::Flat, false, _) | (StageTag::Coarse, true, _) => Ok((Some(ck.snapshot), None)),
        (StageTag::Fine, true, Some(carry)) => Ok((None, Some((ck.snapshot, carry)))),
        (stage, ..) => Err(CheckpointError::Malformed(format!(
            "{stage:?}-stage checkpoint does not fit this run's schedule"
        ))
        .into()),
    }
}

impl LevelSetIlt {
    /// Runs Algorithm 1 under a [`RunControl`]: optimizes a mask for
    /// `target` on the given simulator.
    ///
    /// ψ₀ is the target's signed distance (binarized at 0.5), per the
    /// paper — or the control's warm start
    /// ([`RunControl::with_initial_levelset`]), used verbatim in place of
    /// any [`ResolutionSchedule`]'s coarse stage. The returned mask is
    /// that of the best-scoring iterate (by total cost), for a
    /// well-behaved run the final one.
    ///
    /// Generic over the field scalar `T` (default `f64`): fields (mask,
    /// `ψ`, gradients, velocities) are held and evolved at `T`, while
    /// every piece of optimizer control state — costs, CFL time step,
    /// PRP coefficient, guard thresholds — stays f64, the master-state
    /// pattern. At `T = f64` this is bit-identical to the historical
    /// f64-only loop (see `tests/golden_f64.rs`).
    ///
    /// A default control imposes nothing. Otherwise it is polled at
    /// every iteration boundary (including each stage's first). A stop
    /// is graceful: the best-so-far mask is returned with
    /// [`IltResult::stopped`] set and — when checkpointing is on — a
    /// final checkpoint on disk. A resumed run replays the identical
    /// code path, so at f64 it is bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if the target or the warm-start ψ₀
    /// does not match the simulator grid or the target contains no
    /// pattern, and [`OptimizeError::Checkpoint`] when a resume file is
    /// missing, corrupt, or from a run with other optimizer parameters,
    /// simulator geometry, target or ψ₀.
    pub fn optimize<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        control: &RunControl,
    ) -> Result<IltResult<T>, OptimizeError> {
        let n = sim.grid_px();
        // Narrowed before hashing, so the config hash sees the ψ₀ the
        // loop actually starts from.
        let init = match &control.initial_levelset {
            Some(g) if g.dims() != (n, n) => {
                return Err(OptimizeError::InitDimsMismatch {
                    init: g.dims(),
                    sim: n,
                })
            }
            Some(g) => Some(g.map(|&v| T::from_f64(v))),
            None => None,
        };
        if target.dims() != (n, n) {
            return Err(OptimizeError::TargetDimsMismatch {
                target: target.dims(),
                sim: n,
            });
        }
        let target = target.binarize(0.5);
        if target.sum() == T::ZERO {
            return Err(OptimizeError::EmptyTarget);
        }
        let config_hash = if control.persists() {
            resume::config_hash(self, sim, &target, init.as_ref())
        } else {
            0
        };
        let loaded = match control.resume.as_ref() {
            Some(path) => {
                let ck = {
                    let _span = lsopc_trace::span!("checkpoint.load");
                    resume::load_checkpoint(path)?
                };
                if ck.config_hash != config_hash {
                    return Err(CheckpointError::ConfigMismatch.into());
                }
                lsopc_trace::count("checkpoint.load", 1);
                Some(ck)
            }
            None => None,
        };
        let flat = StageCtx {
            control,
            config_hash,
            stage: StageTag::Flat,
            iter_offset: 0,
            carry: None,
        };
        match (self.schedule, init) {
            (Some(schedule), None) => {
                self.optimize_scheduled(sim, &target, &schedule, flat, loaded)
            }
            (_, init) => {
                let resume = resume_point(loaded, false)?.0;
                self.run(sim, &target, init, resume, self.max_iterations, flat)
            }
        }
    }

    /// Forwards to [`LevelSetIlt::optimize`] for the benchmark harness,
    /// which still calls the optimizer by this name.
    #[doc(hidden)]
    pub fn optimize_controlled<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        control: &RunControl,
    ) -> Result<IltResult<T>, OptimizeError> {
        self.optimize(sim, target, control)
    }

    /// The two-stage coarse-to-fine path (DESIGN.md §14): solve on the
    /// schedule's reduced grid/kernel rank, transfer ψ up, refine at
    /// full resolution. Falls back to a flat run when the schedule is
    /// degenerate for this grid or the pattern vanishes when
    /// downsampled.
    ///
    /// Resume dispatches on the checkpoint's stage tag: a
    /// `Coarse`-stage file re-enters (and finishes) the coarse loop
    /// before transferring up as usual; a `Fine`-stage file skips the
    /// coarse stage entirely and reproduces the stage merge from the
    /// embedded [`CoarseCarry`]. A run stopped mid-coarse still reports
    /// a full-resolution best-so-far mask (ψ upsampled).
    fn optimize_scheduled<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        schedule: &ResolutionSchedule,
        flat: StageCtx<'_>,
        loaded: Option<Checkpoint>,
    ) -> Result<IltResult<T>, OptimizeError> {
        let start = Instant::now();
        // Block-average then re-threshold: a feature must cover half a
        // coarse cell to survive. An all-empty coarse target cannot be
        // optimized, so fall back to the flat loop.
        let coarse = schedule
            .downsample_factor(sim.grid_px())
            .and_then(|factor| {
                let coarse_target = target.map(|&v| v.to_f64()).downsample(factor).binarize(0.5);
                (coarse_target.sum() != 0.0).then_some((factor, coarse_target))
            });
        let Some((factor, coarse_target)) = coarse else {
            let resume = resume_point(loaded, false)?.0;
            return self.run(sim, target, None, resume, self.max_iterations, flat);
        };
        let coarse_target = coarse_target.map(|&v| T::from_f64(v));

        let (coarse_resume, fine_resume) = resume_point(loaded, true)?;

        // Coarse stage — skipped entirely when resuming inside fine.
        let (psi0, carry, fine_snapshot) = match fine_resume {
            Some((snapshot, carry)) => (None, carry, Some(snapshot)),
            None => {
                // The coarse simulator shares the optics (same field
                // period, so identical physics in cycles-per-field) with
                // a truncated kernel rank; its plans and spectra go
                // through the same process-wide caches as any other grid
                // size.
                let coarse_kernels = schedule.coarse_kernels().min(sim.optics().kernel_count());
                let coarse_optics = sim.optics().clone().with_kernel_count(coarse_kernels);
                let coarse_pixel_nm = sim.field_nm() / schedule.coarse_px() as f64;
                let coarse_sim = LithoSimulator::<T>::from_optics(
                    &coarse_optics,
                    schedule.coarse_px(),
                    coarse_pixel_nm,
                )
                .map_err(|e| OptimizeError::CoarseStage {
                    message: e.to_string(),
                })?
                .with_accelerated_backend(1);

                let coarse = {
                    let _span = lsopc_trace::span!("optimize.stage.coarse");
                    let ctx = StageCtx {
                        stage: StageTag::Coarse,
                        ..flat
                    };
                    let iterations = schedule.coarse_iterations();
                    self.run(
                        &coarse_sim,
                        &coarse_target,
                        None,
                        coarse_resume,
                        iterations,
                        ctx,
                    )?
                };
                // A stop during the coarse stage: report the best-so-far
                // contour at full resolution (the caller's grid), with
                // the checkpoint still tagged Coarse for resume.
                if coarse.stopped.is_some() {
                    let levelset = upsample_levelset(&coarse.levelset, factor);
                    return Ok(IltResult {
                        mask: mask_from_levelset(&levelset),
                        levelset,
                        coarse_iterations: coarse.iterations,
                        converged: false,
                        runtime_s: start.elapsed().as_secs_f64(),
                        snapshots: Vec::new(),
                        ..coarse
                    });
                }
                // Carry the contour (not the far field) across:
                // band-limited interpolation of ψ, then exact
                // redistancing on the fine grid.
                let psi0 = upsample_levelset(&coarse.levelset, factor);
                let carry = CoarseCarry {
                    iterations: coarse.iterations,
                    history: coarse.history,
                    diagnostics: coarse.diagnostics,
                };
                (Some(psi0), carry, None)
            }
        };

        let fine = {
            let _span = lsopc_trace::span!("optimize.stage.fine");
            let ctx = StageCtx {
                stage: StageTag::Fine,
                iter_offset: carry.iterations,
                carry: Some(&carry),
                ..flat
            };
            let iterations = schedule.fine_iterations();
            self.run(sim, target, psi0, fine_snapshot, iterations, ctx)?
        };

        // Merge the stage records into one timeline: fine iterations and
        // snapshots renumbered past the coarse stage, elapsed times made
        // monotone. Guard diagnostics accumulate across stages (event
        // iteration numbers stay stage-local).
        let coarse_iterations = carry.iterations;
        let mut history = carry.history;
        let coarse_elapsed = history.last().map_or(0.0, |r| r.elapsed_s);
        for mut rec in fine.history {
            rec.iteration += coarse_iterations;
            rec.elapsed_s += coarse_elapsed;
            history.push(rec);
        }
        let mut diagnostics = carry.diagnostics;
        diagnostics.events.extend(fine.diagnostics.events);
        diagnostics.backoffs += fine.diagnostics.backoffs;
        diagnostics.recoveries += fine.diagnostics.recoveries;
        diagnostics.gave_up = fine.diagnostics.gave_up;
        diagnostics.final_lambda_scale = fine.diagnostics.final_lambda_scale;
        let snapshots = fine
            .snapshots
            .into_iter()
            .map(|(i, m)| (i + coarse_iterations, m))
            .collect();
        Ok(IltResult {
            history,
            iterations: coarse_iterations + fine.iterations,
            coarse_iterations,
            runtime_s: start.elapsed().as_secs_f64(),
            snapshots,
            diagnostics,
            ..fine
        })
    }

    /// The Algorithm 1 loop of one stage. `target` is already validated
    /// and binarized; ψ₀ is `init` when given (warm start / fine stage)
    /// and the target's signed distance otherwise.
    ///
    /// The stage context supplies the run-lifecycle hooks: the control
    /// is polled at every iteration boundary (before any work of that
    /// iteration), and state is checkpointed every `checkpoint-every`
    /// iterations and at a graceful stop. `resume` replaces the
    /// initialization with a captured loop state, so the remaining
    /// iterations replay the identical floating-point stream.
    fn run<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        init: Option<Grid<T>>,
        resume: Option<LoopSnapshot>,
        max_iterations: usize,
        ctx: StageCtx<'_>,
    ) -> Result<IltResult<T>, OptimizeError> {
        let start = Instant::now();
        // Line 1: ψ₀ from the initial mask M₀ = R* — unless a warm
        // start or a fine stage supplied one.
        let psi = init.unwrap_or_else(|| signed_distance(target));
        let mut state = LoopState::new(psi, &self.recovery);
        if let Some(snap) = resume {
            state.restore(snap)?;
        }
        let mut converged = false;
        let mut stopped = None;
        while state.iteration < max_iterations {
            let i = state.iteration;
            let _iter_span = lsopc_trace::span!("optimize.iter");
            // Cancellation point: poll the run control before this
            // iteration does any work (this also covers CG restarts and
            // the first iteration after a stage transfer). The stop is
            // graceful — the state at this boundary is checkpointed and
            // the best-so-far mask is still reported.
            if let Some(reason) = ctx.control.stop_requested(ctx.iter_offset + i) {
                stopped = Some(reason);
                lsopc_trace::count("run.cancel", 1);
                lsopc_trace::count(reason.counter_name(), 1);
                ctx.save(&state);
                break;
            }
            let flow = self.iterate(sim, target, &mut state, start)?;
            state.iteration = i + 1;
            match flow {
                Flow::Next => {}
                // A rolled-back iteration skips the periodic checkpoint;
                // the next completed one persists.
                Flow::Retry => continue,
                Flow::Stop => break,
                Flow::Converged => {
                    converged = true;
                    break;
                }
            }
            // Periodic checkpoint, after every mutation of this
            // iteration is in place. Keyed on the absolute iteration
            // index so a resumed run checkpoints at the same boundaries
            // as the original.
            let every = ctx.control.checkpoint.as_ref().map(|spec| spec.every);
            if every.is_some_and(|every| (i + 1).is_multiple_of(every)) {
                ctx.save(&state);
            }
        }
        Ok(self.finish(sim, target, state, converged, stopped, start))
    }

    /// One iteration of Algorithm 1 at `state.iteration`: evaluate,
    /// build the descent velocity, advance ψ. Guard trouble at any of
    /// these steps goes through [`LevelSetIlt::roll_back`].
    fn iterate<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        state: &mut LoopState<T>,
        start: Instant,
    ) -> Result<Flow, OptimizeError> {
        let i = state.iteration;
        // Line 7 (Eq. (6)): current binary mask from ψ.
        let mask = mask_from_levelset(&state.psi);
        if self.snapshot_interval > 0 && i.is_multiple_of(self.snapshot_interval) {
            state.snapshots.push((i, mask.clone()));
        }
        // Effective λ_t: halved per guard backoff. With the guard on
        // but never triggered the scale is exactly 1.0, so the multiply
        // reproduces `self.lambda_t` bit-for-bit.
        let lambda_scale = state.guard.as_ref().map_or(1.0, HealthGuard::lambda_scale);
        let (report, gradient, verdict) = self.evaluate(sim, target, &mask, state);
        // This iteration's record before any step is taken — as a
        // rollback leaves it (`roll_back` fills in the backoff count and
        // scale) and as the healthy record below starts from.
        let record = |cg_beta| IterationRecord {
            iteration: i,
            cost_nominal: report.nominal,
            cost_pvb: report.pvb,
            cost_total: report.total(),
            max_velocity: f64::NAN,
            time_step: f64::NAN,
            cg_beta,
            elapsed_s: start.elapsed().as_secs_f64(),
            rolled_back: true,
            backoffs: 0,
            lambda_scale,
        };
        let stalled = match verdict {
            Health::Corrupt(kind) => return self.roll_back(state, kind, Some(record(0.0))),
            Health::Stalled(kind) => Some(kind),
            Health::Healthy => None,
        };

        // Best-tracking: only evaluations the guard accepted (or all
        // of them with the guard off) can become the returned mask.
        let cost = report.total();
        if state.best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
            state.best = Some((cost, mask, state.psi.clone()));
        }

        let (gradient_velocity, velocity, beta) = self.descent_velocity(state, &gradient);
        // A combined velocity with NaN/∞ cells (e.g. momentum carried
        // from a corrupt history) must never evolve ψ.
        let guard = state.guard.as_ref();
        if let Some(kind) = guard.and_then(|g| g.inspect_velocity(&velocity)) {
            return self.roll_back(state, kind, Some(record(beta)));
        }

        let vmax = max_abs(&velocity).to_f64();
        let dt = cfl_time_step(&velocity, self.lambda_t * lambda_scale);
        let rec = IterationRecord {
            max_velocity: vmax,
            time_step: dt,
            rolled_back: false,
            backoffs: state.guard.as_ref().map_or(0, |g| g.diagnostics.backoffs),
            ..record(beta)
        };
        emit_iter(&rec);
        state.history.push(rec);

        // Stall (only the guard detects one): healthy values but no cost
        // progress for the window. Backing off cannot unstall a frozen
        // run, so stop early.
        if let (Some(kind), Some(g)) = (stalled, state.guard.as_mut()) {
            g.note_event(i, kind);
            return Ok(Flow::Stop);
        }
        // Algorithm 1 stop condition: max|v| ≤ ε.
        if vmax <= self.velocity_tolerance {
            return Ok(Flow::Converged);
        }
        // Commit the guard checkpoint: this pre-evolve ψ passed every
        // check and its cost is on record; a corrupted evolve rolls
        // back to exactly here.
        if state.guard.is_some() {
            state.guard_checkpoint = Some(state.psi.clone());
        }
        let flow = self.advance(sim, target, state, &velocity, dt, cost)?;
        if flow == Flow::Next {
            // Keep ψ a signed distance function periodically.
            if self.reinit_interval > 0 && (i + 1).is_multiple_of(self.reinit_interval) {
                state.psi = reinitialize(&state.psi);
            }
            state.prev_gradient_velocity = Some(gradient_velocity);
            state.prev_velocity = Some(velocity);
        }
        Ok(flow)
    }

    /// Lines 8–9: simulate, evaluate and back-propagate (Eq. (11)/(14)),
    /// then let the guard classify the evaluation. With the guard on, a
    /// worker-pool panic is contained here and classified as corrupt.
    fn evaluate<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        mask: &Grid<T>,
        state: &mut LoopState<T>,
    ) -> (CostReport, Grid<T>, Health) {
        let evaluated = contain(state.guard.is_some(), || {
            cost_and_gradient(sim, mask, target, self.w_pvb)
        });
        match evaluated {
            Ok((report, gradient)) => {
                let verdict = match state.guard.as_mut() {
                    Some(g) => g.inspect_evaluation(state.iteration, report.total(), &gradient),
                    None => Health::Healthy,
                };
                (report, gradient, verdict)
            }
            Err(message) => {
                let n = sim.grid_px();
                let report = CostReport {
                    nominal: f64::NAN,
                    pvb: f64::NAN,
                    w_pvb: self.w_pvb,
                };
                let verdict = Health::Corrupt(GuardEventKind::WorkerPanic { message });
                (report, Grid::new(n, n, T::from_f64(f64::NAN)), verdict)
            }
        }
    }

    /// The descent velocity of Eq. (10), combined with the previous
    /// velocity per the evolution scheme (Eq. (15)–(16)), plus the
    /// optional curvature and narrow-band extensions. Returns the
    /// gradient velocity (the next PRP coefficient's input), the
    /// combined velocity and the β applied.
    fn descent_velocity<T: Scalar>(
        &self,
        state: &LoopState<T>,
        gradient: &Grid<T>,
    ) -> (Grid<T>, Grid<T>, f64) {
        let psi = &state.psi;
        // Eq. (10) up to sign: with the Eq. (5)/(6) convention
        // (ψ ≤ 0 inside, M = H(−ψ)) we have ∂L/∂ψ = −G·δ(ψ), so the
        // descent update is ψ̇ = +G·|∇ψ| — the sign printed in
        // Eq. (10) corresponds to the opposite inside/outside
        // convention (see DESIGN.md §7).
        let gradmag = if self.upwind {
            godunov_gradient(psi, gradient)
        } else {
            gradient_magnitude(psi)
        };
        // The gradient-velocity g_i = G·|∇ψ| drives both the descent
        // direction and the PRP coefficient.
        let gradient_velocity = gradient.zip_map(&gradmag, |&g, &m| g * m);
        let mut velocity = gradient_velocity.clone();

        // Eq. (15)–(16): carry the previous velocity per the evolution
        // scheme — PRP only with a positive coefficient.
        let prev = (
            state.prev_gradient_velocity.as_ref(),
            state.prev_velocity.as_ref(),
        );
        let (beta, carried) = match (self.evolution, prev) {
            (Evolution::PrpConjugateGradient, (Some(g_prev), Some(v_prev))) => {
                let beta = prp_beta(&gradient_velocity, g_prev);
                (beta, (beta > 0.0).then_some(v_prev))
            }
            (Evolution::HeavyBall { beta }, (_, Some(v_prev))) => (beta, Some(v_prev)),
            _ => (0.0, None),
        };
        if let Some(v_prev) = carried {
            let beta_t = T::from_f64(beta);
            for (v, &pv) in velocity.as_mut_slice().iter_mut().zip(v_prev.as_slice()) {
                *v += beta_t * pv;
            }
        }

        // Optional contour smoothing (extension beyond the paper).
        if self.curvature_weight > 0.0 {
            let kappa = curvature(psi);
            let central = gradient_magnitude(psi);
            let weight = T::from_f64(self.curvature_weight);
            for ((v, &k), &m) in velocity
                .as_mut_slice()
                .iter_mut()
                .zip(kappa.as_slice())
                .zip(central.as_slice())
            {
                *v += weight * k * m;
            }
        }

        // Optional narrow-band restriction (extension beyond the
        // paper): freeze the far field so only near-contour cells
        // evolve.
        if self.narrow_band > 0.0 {
            NarrowBand::extract(psi, self.narrow_band).mask_velocity(&mut velocity);
        }
        (gradient_velocity, velocity, beta)
    }

    /// Lines 5–6: evolves ψ by the CFL step `dt`, optionally under a
    /// backtracking line search on the total cost (`cost` is this
    /// iteration's), then lets the guard scan the evolved ψ.
    fn advance<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        state: &mut LoopState<T>,
        velocity: &Grid<T>,
        dt: f64,
        cost: f64,
    ) -> Result<Flow, OptimizeError> {
        if self.line_search {
            let _ls_span = lsopc_trace::span!("optimize.line_search");
            let mut trial_dt = dt;
            let mut accepted = false;
            for _ in 0..3 {
                let mut trial_psi = state.psi.clone();
                evolve(&mut trial_psi, velocity, trial_dt);
                let trial_mask = mask_from_levelset(&trial_psi);
                let trial = contain(state.guard.is_some(), || {
                    cost_only(sim, &trial_mask, target, self.w_pvb).total()
                });
                // A contained worker panic rejects this trial step; the
                // post-evolve scan still protects the fallback step.
                let trial_cost = trial.unwrap_or_else(|message| {
                    if let Some(g) = state.guard.as_mut() {
                        g.note_event(state.iteration, GuardEventKind::WorkerPanic { message });
                    }
                    f64::INFINITY
                });
                if trial_cost <= cost {
                    state.psi = trial_psi;
                    accepted = true;
                    break;
                }
                trial_dt /= 2.0;
            }
            if !accepted {
                evolve(&mut state.psi, velocity, trial_dt);
            }
        } else {
            evolve(&mut state.psi, velocity, dt);
        }
        // Scan ψ BEFORE reinitialization: reinit thresholds at zero and
        // would launder NaN cells into a finite (wrong) signed distance.
        let guard = state.guard.as_ref();
        match guard.and_then(|g| g.inspect_levelset(&state.psi)) {
            Some(kind) => self.roll_back(state, kind, None),
            None => Ok(Flow::Next),
        }
    }

    /// The guard's one rollback handler, for trouble at the evaluation,
    /// the velocity or the evolved ψ: records it (pushing `rejected`, or
    /// marking the iteration's already-pushed record), restores ψ to the
    /// guard checkpoint and restarts CG. Then retries with a halved λ_t
    /// or gives up — as [`OptimizeError::RecoveryFailed`] under
    /// [`RecoveryPolicy::Strict`].
    fn roll_back<T: Scalar>(
        &self,
        state: &mut LoopState<T>,
        kind: GuardEventKind,
        rejected: Option<IterationRecord>,
    ) -> Result<Flow, OptimizeError> {
        let i = state.iteration;
        let guard = state.guard.as_mut().expect("trouble implies a guard");
        let outcome = guard.trouble(i, kind);
        let backoffs = guard.diagnostics.backoffs;
        match rejected {
            Some(rec) => {
                let rec = IterationRecord {
                    backoffs,
                    lambda_scale: guard.lambda_scale(),
                    ..rec
                };
                emit_iter(&rec);
                state.history.push(rec);
            }
            None => {
                if let Some(rec) = state.history.last_mut() {
                    rec.rolled_back = true;
                    rec.backoffs = backoffs;
                }
            }
        }
        // With no checkpoint yet, ψ is still the untouched initial
        // signed distance.
        if let Some(cp) = &state.guard_checkpoint {
            state.psi = cp.clone();
        }
        state.prev_gradient_velocity = None;
        state.prev_velocity = None;
        match outcome {
            BackoffOutcome::Retry => Ok(Flow::Retry),
            BackoffOutcome::GiveUp if self.recovery.is_strict() => {
                Err(OptimizeError::RecoveryFailed {
                    iteration: i,
                    backoffs,
                })
            }
            BackoffOutcome::GiveUp => Ok(Flow::Stop),
        }
    }

    /// Evaluates the final iterate too, then returns the best mask seen.
    /// With the guard on, a panic or non-finite cost here must not pick
    /// the (corrupt) final iterate.
    fn finish<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        mut state: LoopState<T>,
        converged: bool,
        stopped: Option<StopReason>,
        start: Instant,
    ) -> IltResult<T> {
        let iterations = state.iteration;
        let final_mask = mask_from_levelset(&state.psi);
        let guarded = state.guard.is_some();
        let evaluated = contain(guarded, || {
            let (report, _) = cost_and_gradient(sim, &final_mask, target, self.w_pvb);
            report.total()
        });
        let (final_total, trouble) = match evaluated {
            Ok(cost) => (
                cost,
                (!cost.is_finite()).then_some(GuardEventKind::NonFiniteCost),
            ),
            Err(message) => (f64::NAN, Some(GuardEventKind::WorkerPanic { message })),
        };
        if let (Some(g), Some(kind)) = (state.guard.as_mut(), trouble) {
            g.note_event(iterations, kind);
        }
        let (mask, levelset) = match state.best {
            // Under the guard a non-finite final cost never wins. With no
            // healthy iterate at all, ψ is still finite (every evolve was
            // scanned or rolled back), so its mask is a safe last resort.
            Some((_, best_mask, best_psi)) if guarded && !final_total.is_finite() => {
                (best_mask, best_psi)
            }
            Some((best_cost, best_mask, best_psi)) if best_cost < final_total => {
                (best_mask, best_psi)
            }
            _ => (final_mask, state.psi),
        };
        if self.snapshot_interval > 0 {
            state.snapshots.push((iterations, mask.clone()));
        }
        IltResult {
            mask,
            levelset,
            history: state.history,
            iterations,
            coarse_iterations: 0,
            converged,
            runtime_s: start.elapsed().as_secs_f64(),
            snapshots: state.snapshots,
            diagnostics: state.guard.map(|g| g.diagnostics).unwrap_or_default(),
            stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelSetIltBuilder;
    use lsopc_optics::OpticsConfig;

    /// The 64-px, K=4 simulator the unit tests in this file run on.
    pub(super) fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
            .expect("valid configuration")
    }

    /// One vertical wire in the 64-px field.
    pub(super) fn wire_target() -> Grid<f64> {
        Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Optimizes the wire with `builder`'s optimizer and a default
    /// control.
    pub(super) fn run(builder: LevelSetIltBuilder) -> IltResult {
        builder
            .build()
            .optimize(&sim(), &wire_target(), &RunControl::new())
            .expect("optimization runs")
    }

    #[test]
    fn optimization_reduces_cost() {
        let result = run(LevelSetIlt::builder().max_iterations(12));
        let first = result.history.first().expect("history");
        let last = result.history.last().expect("history");
        assert!(
            last.cost_total < first.cost_total * 0.9,
            "no real improvement: {} -> {}",
            first.cost_total,
            last.cost_total
        );
        assert_eq!(result.history.len(), result.iterations);
    }

    #[test]
    fn returned_mask_is_binary() {
        let result = run(LevelSetIlt::builder().max_iterations(5));
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(result.mask.sum() > 0.0);
    }

    #[test]
    fn returned_mask_is_best_iterate() {
        let result = run(LevelSetIlt::builder().max_iterations(10));
        let (best_report, _) = cost_and_gradient(&sim(), &result.mask, &wire_target(), 1.0);
        for rec in &result.history {
            assert!(
                best_report.total() <= rec.cost_total + 1e-9,
                "iteration {} had lower cost",
                rec.iteration
            );
        }
    }

    #[test]
    fn snapshots_are_recorded() {
        let result = run(LevelSetIlt::builder()
            .max_iterations(6)
            .snapshot_interval(2));
        // Snapshots at 0, 2, 4 plus the final mask.
        let iters: Vec<usize> = result.snapshots.iter().map(|(i, _)| *i).collect();
        assert_eq!(iters, vec![0, 2, 4, 6]);
    }

    #[test]
    fn loose_tolerance_converges_early() {
        let result = run(LevelSetIlt::builder()
            .max_iterations(30)
            .velocity_tolerance(1e9));
        assert!(result.converged);
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn determinism() {
        let a = run(LevelSetIlt::builder().max_iterations(6));
        let b = run(LevelSetIlt::builder().max_iterations(6));
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.cost_total, y.cost_total);
        }
    }

    #[test]
    fn plain_gradient_mode_also_improves() {
        let result = run(LevelSetIlt::builder()
            .max_iterations(12)
            .conjugate_gradient(false));
        let first = result.history.first().expect("history");
        let last = result.history.last().expect("history");
        assert!(last.cost_total < first.cost_total);
        assert!(result.history.iter().all(|r| r.cg_beta == 0.0));
    }

    #[test]
    fn cg_runs_use_nonzero_beta_eventually() {
        let result = run(LevelSetIlt::builder().max_iterations(12));
        assert!(result.history.iter().any(|r| r.cg_beta > 0.0));
    }

    #[test]
    fn rejects_mismatched_target() {
        let err = LevelSetIlt::default()
            .optimize(&sim(), &Grid::new(32, 32, 1.0), &RunControl::new())
            .expect_err("should fail");
        assert!(matches!(err, OptimizeError::TargetDimsMismatch { .. }));
        assert!(err.to_string().contains("32x32"));
    }

    #[test]
    fn rejects_empty_target() {
        let err = LevelSetIlt::default()
            .optimize(&sim(), &Grid::new(64, 64, 0.0), &RunControl::new())
            .expect_err("should fail");
        assert_eq!(err, OptimizeError::EmptyTarget);
    }
}

#[cfg(test)]
mod evolution_tests {
    use super::tests::run;
    use super::*;

    #[test]
    fn heavy_ball_improves_cost() {
        let result = run(LevelSetIlt::builder()
            .max_iterations(10)
            .evolution(Evolution::HeavyBall { beta: 0.5 }));
        let first = result.history.first().expect("history");
        let last = result.history.last().expect("history");
        assert!(last.cost_total < first.cost_total);
        // From iteration 1 onward the recorded beta is the momentum.
        assert!(result.history[1..].iter().all(|r| r.cg_beta == 0.5));
    }

    #[test]
    fn narrow_band_run_matches_full_run_closely() {
        let full = run(LevelSetIlt::builder().max_iterations(8));
        let banded = run(LevelSetIlt::builder().max_iterations(8).narrow_band(6.0));
        // Contour motion only depends on near-field ψ, so both runs reach
        // comparable cost.
        assert!(banded.final_cost() < full.final_cost() * 1.5 + 1.0);
        let first = banded.history.first().expect("history");
        assert!(banded.final_cost() < first.cost_total);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_heavy_ball_coefficient_panics() {
        let _ = LevelSetIlt::builder().evolution(Evolution::HeavyBall { beta: 1.0 });
    }
}

#[cfg(test)]
mod guard_tests {
    use super::tests::run;
    use super::*;
    use crate::GuardConfig;

    fn assert_bit_identical(off: &IltResult, on: &IltResult) {
        assert_eq!(off.iterations, on.iterations);
        assert_eq!(off.converged, on.converged);
        for (name, a, b) in [
            ("mask", &off.mask, &on.mask),
            ("levelset", &off.levelset, &on.levelset),
        ] {
            assert_eq!(a.dims(), b.dims(), "{name} dims");
            for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name} cell {i}: {x} vs {y} differ bitwise"
                );
            }
        }
        assert_eq!(off.history.len(), on.history.len());
        for (x, y) in off.history.iter().zip(&on.history) {
            assert_eq!(x.iteration, y.iteration);
            // Every field except the wall-clock timestamp.
            for (name, a, b) in [
                ("cost_nominal", x.cost_nominal, y.cost_nominal),
                ("cost_pvb", x.cost_pvb, y.cost_pvb),
                ("cost_total", x.cost_total, y.cost_total),
                ("max_velocity", x.max_velocity, y.max_velocity),
                ("time_step", x.time_step, y.time_step),
                ("cg_beta", x.cg_beta, y.cg_beta),
                ("lambda_scale", x.lambda_scale, y.lambda_scale),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "iter {} {name}: {a} vs {b} differ bitwise",
                    x.iteration
                );
            }
            assert_eq!(x.rolled_back, y.rolled_back);
            assert_eq!(x.backoffs, y.backoffs);
        }
    }

    #[test]
    fn fault_free_run_is_bit_identical_with_guard_enabled() {
        let off = run(LevelSetIlt::builder().max_iterations(8));
        let on = run(LevelSetIlt::builder()
            .max_iterations(8)
            .recovery(RecoveryPolicy::On(GuardConfig::default())));
        assert_bit_identical(&off, &on);
        assert!(!on.diagnostics.has_events());
        assert_eq!(on.diagnostics.backoffs, 0);
        assert_eq!(on.diagnostics.final_lambda_scale, 1.0);
    }

    #[test]
    fn fault_free_line_search_run_is_bit_identical_with_guard_enabled() {
        let build = |policy: RecoveryPolicy| {
            run(LevelSetIlt::builder()
                .max_iterations(6)
                .lambda_t(4.0)
                .line_search(true)
                .recovery(policy))
        };
        let off = build(RecoveryPolicy::Off);
        let on = build(RecoveryPolicy::Strict(GuardConfig::default()));
        assert_bit_identical(&off, &on);
        assert!(!on.diagnostics.has_events());
    }

    #[test]
    fn healthy_records_carry_unit_lambda_scale() {
        let result = run(LevelSetIlt::builder()
            .max_iterations(4)
            .recovery(RecoveryPolicy::On(GuardConfig::default())));
        for rec in &result.history {
            assert!(!rec.rolled_back);
            assert_eq!(rec.backoffs, 0);
            assert_eq!(rec.lambda_scale, 1.0);
        }
    }
}

#[cfg(test)]
mod step_tests {
    use super::tests::{sim, wire_target};
    use super::*;
    use crate::GuardConfig;

    /// A guarded heavy-ball optimizer. `Strict` with no backoffs makes
    /// the first trouble fatal.
    fn guarded(strict: bool) -> LevelSetIlt {
        let config = GuardConfig {
            max_backoffs: if strict { 0 } else { 3 },
            ..GuardConfig::default()
        };
        let recovery = if strict {
            RecoveryPolicy::Strict(config)
        } else {
            RecoveryPolicy::On(config)
        };
        let evolution = Evolution::HeavyBall { beta: 0.5 };
        LevelSetIlt::builder()
            .evolution(evolution)
            .recovery(recovery)
            .build()
    }

    /// Mid-run state at iteration 2: ψ has moved off the committed
    /// guard checkpoint and CG state is carried.
    fn mid_run(ilt: &LevelSetIlt) -> LoopState<f64> {
        let checkpoint = signed_distance(&wire_target());
        let mut state = LoopState::new(checkpoint.map(|&v| v + 0.25), &ilt.recovery);
        state.iteration = 2;
        state.guard_checkpoint = Some(checkpoint);
        state.prev_gradient_velocity = Some(Grid::new(64, 64, 0.0));
        state.prev_velocity = Some(Grid::new(64, 64, 0.0));
        state
    }

    fn record(iteration: usize) -> IterationRecord {
        IterationRecord {
            iteration,
            cost_nominal: 0.1,
            cost_pvb: 0.2,
            cost_total: 0.3,
            max_velocity: 0.4,
            time_step: 0.5,
            cg_beta: 0.5,
            elapsed_s: 0.7,
            rolled_back: false,
            backoffs: 0,
            lambda_scale: 1.0,
        }
    }

    /// The single handler's contract, whichever site called it: ψ back
    /// at the guard checkpoint, CG restarted, one rolled-back record
    /// (of `records` in all), the site's event logged, and a retry — or
    /// `RecoveryFailed` under `Strict`.
    fn assert_rolled_back(
        state: &LoopState<f64>,
        flow: Result<Flow, OptimizeError>,
        strict: bool,
        records: usize,
        kind: GuardEventKind,
    ) {
        assert_eq!(Some(&state.psi), state.guard_checkpoint.as_ref());
        assert!(state.prev_gradient_velocity.is_none() && state.prev_velocity.is_none());
        assert_eq!(state.history.len(), records);
        assert_eq!(state.history.iter().filter(|r| r.rolled_back).count(), 1);
        let events = &state.guard.as_ref().expect("guarded").diagnostics.events;
        assert_eq!(events[0].kind, kind);
        match flow {
            Ok(flow) => assert!(!strict && flow == Flow::Retry, "{flow:?}"),
            Err(e) => assert!(
                strict && matches!(e, OptimizeError::RecoveryFailed { iteration: 2, .. }),
                "{e}"
            ),
        }
    }

    #[test]
    fn non_finite_carried_velocity_rolls_back() {
        for strict in [false, true] {
            let ilt = guarded(strict);
            let mut state = mid_run(&ilt);
            let mut momentum = Grid::new(64, 64, 0.0);
            momentum[(10, 10)] = f64::NAN;
            state.prev_velocity = Some(momentum);
            let flow = ilt.iterate(&sim(), &wire_target(), &mut state, Instant::now());
            // The rejected iteration's record is added.
            let kind = GuardEventKind::NonFiniteVelocity;
            assert_rolled_back(&state, flow, strict, 1, kind);
        }
    }

    #[test]
    fn non_finite_evolved_levelset_rolls_back() {
        for strict in [false, true] {
            let ilt = guarded(strict);
            let mut state = mid_run(&ilt);
            // The iteration's own record, pushed before its step, is the
            // one marked.
            state.history.push(record(2));
            // A NaN time step evolves every cell of ψ to NaN.
            let velocity = Grid::new(64, 64, 1.0);
            let flow = ilt.advance(&sim(), &wire_target(), &mut state, &velocity, f64::NAN, 0.3);
            let kind = GuardEventKind::NonFiniteLevelSet;
            assert_rolled_back(&state, flow, strict, 1, kind);
        }
    }

    /// A state with every field populated, guard history included.
    fn populated<T: Scalar>() -> LoopState<T> {
        let grid = |seed: f64| {
            Grid::from_fn(8, 8, |x, y| {
                T::from_f64(seed + (x * 8 + y) as f64 * 0.37 - 7.1)
            })
        };
        let mut state = LoopState::new(grid(0.5), &RecoveryPolicy::On(GuardConfig::default()));
        state.iteration = 5;
        state.prev_gradient_velocity = Some(grid(1.5));
        state.prev_velocity = Some(grid(2.5));
        let best_psi = grid(-3.0);
        state.best = Some((0.125, mask_from_levelset(&best_psi), best_psi));
        state.guard_checkpoint = Some(grid(4.5));
        state.snapshots = vec![(0, mask_from_levelset(&grid(0.5)))];
        let guard = state.guard.as_mut().expect("guarded");
        guard.trouble(3, GuardEventKind::NonFiniteVelocity);
        state.history = vec![record(3)];
        state
    }

    /// Every field of `restore(snapshot())`, compared bitwise.
    fn round_trip<T: Scalar>() {
        let a = populated::<T>();
        let policy = RecoveryPolicy::On(GuardConfig::default());
        let mut b = LoopState::new(Grid::new(8, 8, T::ZERO), &policy);
        b.restore(a.snapshot()).expect("same grid and policy");
        let bits = |g: &Grid<T>| -> Vec<u64> {
            g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
        };
        let opt = |g: &Option<Grid<T>>| g.as_ref().map(bits);
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(bits(&a.psi), bits(&b.psi));
        assert_eq!(
            opt(&a.prev_gradient_velocity),
            opt(&b.prev_gradient_velocity)
        );
        assert_eq!(opt(&a.prev_velocity), opt(&b.prev_velocity));
        let best = |s: &LoopState<T>| {
            let (cost, mask, psi) = s.best.as_ref().expect("best");
            (cost.to_bits(), bits(mask), bits(psi))
        };
        assert_eq!(best(&a), best(&b));
        let guard = |s: &LoopState<T>| s.guard.as_ref().map(HealthGuard::snapshot);
        assert_eq!(guard(&a), guard(&b));
        assert_eq!(opt(&a.guard_checkpoint), opt(&b.guard_checkpoint));
        assert_eq!(a.history, b.history);
        let snaps = |s: &LoopState<T>| -> Vec<(usize, Vec<u64>)> {
            s.snapshots.iter().map(|(i, m)| (*i, bits(m))).collect()
        };
        assert_eq!(snaps(&a), snaps(&b));
    }

    #[test]
    fn loop_state_round_trip_is_bit_exact_at_f64() {
        round_trip::<f64>();
    }

    #[test]
    fn loop_state_round_trip_is_exact_at_f32() {
        round_trip::<f32>();
    }

    #[test]
    fn restore_rejects_another_grid_or_policy() {
        let snapshot = populated::<f64>().snapshot();
        let policy = RecoveryPolicy::On(GuardConfig::default());
        let mut wrong_grid = LoopState::new(Grid::new(4, 4, 0.0), &policy);
        assert!(wrong_grid.restore(snapshot.clone()).is_err());
        let mut unguarded = LoopState::new(Grid::new(8, 8, 0.0), &RecoveryPolicy::Off);
        assert!(unguarded.restore(snapshot).is_err());
    }
}

#[cfg(test)]
mod line_search_tests {
    use super::tests::run;
    use super::*;

    #[test]
    fn line_search_never_does_worse_than_plain() {
        // A deliberately aggressive step makes plain evolution overshoot.
        let plain = run(LevelSetIlt::builder().max_iterations(8).lambda_t(4.0));
        let guarded = run(LevelSetIlt::builder()
            .max_iterations(8)
            .lambda_t(4.0)
            .line_search(true));
        // Line search makes the cost trace (nearly) monotone; the
        // unguarded aggressive steps oscillate more.
        let increases = |history: &[crate::IterationRecord]| {
            history
                .windows(2)
                .filter(|w| w[1].cost_total > w[0].cost_total * (1.0 + 1e-9))
                .count()
        };
        assert!(
            increases(&guarded.history) <= increases(&plain.history),
            "guarded had {} increases, plain {}",
            increases(&guarded.history),
            increases(&plain.history)
        );
        // And the guarded run still makes progress.
        let first = guarded.history.first().expect("history").cost_total;
        assert!(guarded.final_cost() < first);
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::tests::{run, sim as sim_64, wire_target};
    use super::*;
    use crate::LevelSetIltBuilder;
    use lsopc_optics::OpticsConfig;

    fn optics() -> OpticsConfig {
        OpticsConfig::iccad2013().with_kernel_count(4)
    }

    /// Optimizes a 256-px wire, the smallest grid `auto` schedules.
    fn run_256(builder: LevelSetIltBuilder) -> IltResult {
        let sim = LithoSimulator::from_optics(&optics(), 256, 4.0)
            .expect("valid configuration")
            .with_accelerated_backend(1);
        let target = Grid::from_fn(256, 256, |x, y| {
            if (104..152).contains(&x) && (48..208).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let control = RunControl::new();
        builder
            .build()
            .optimize(&sim, &target, &control)
            .expect("runs")
    }

    fn auto_256() -> ResolutionSchedule {
        ResolutionSchedule::auto(256, &optics(), 9).expect("256 px grid is schedulable")
    }

    #[test]
    fn scheduled_run_executes_both_stages_and_improves() {
        let schedule = auto_256();
        let result = run_256(
            LevelSetIlt::builder()
                .max_iterations(9)
                .schedule(Some(schedule)),
        );
        assert_eq!(result.coarse_iterations, schedule.coarse_iterations());
        assert_eq!(
            result.iterations,
            result.coarse_iterations + schedule.fine_iterations()
        );
        // Merged history: stage-local records renumbered into one
        // strictly increasing sequence with no gap at the seam.
        assert_eq!(result.history.len(), result.iterations);
        for (i, rec) in result.history.iter().enumerate() {
            assert_eq!(rec.iteration, i);
        }
        // Coarse-grid costs live on a smaller grid (fewer cells), so
        // improvement is judged per stage: within the coarse records and
        // from the first full-resolution record to the end.
        let coarse_first = result.history.first().expect("history");
        let coarse_last = &result.history[result.coarse_iterations - 1];
        assert!(coarse_last.cost_total < coarse_first.cost_total);
        let fine_first = &result.history[result.coarse_iterations];
        assert!(
            result.final_cost() < fine_first.cost_total,
            "fine stage regressed: {} -> {}",
            fine_first.cost_total,
            result.final_cost()
        );
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(result.mask.sum() > 0.0);
    }

    #[test]
    fn scheduled_final_cost_is_near_the_flat_run() {
        // The schedule is a wall-clock optimization, not a quality
        // change: with matched total budgets the final cost must land in
        // the same neighbourhood as the flat solve (DESIGN.md §14 gives
        // the accuracy contract; 20% covers the discrete mask flips).
        let flat = run_256(LevelSetIlt::builder().max_iterations(9));
        let scheduled = run_256(
            LevelSetIlt::builder()
                .max_iterations(9)
                .schedule(Some(auto_256())),
        );
        let rel = (scheduled.final_cost() - flat.final_cost()).abs() / flat.final_cost();
        assert!(
            rel < 0.20,
            "scheduled {} vs flat {} ({}% apart)",
            scheduled.final_cost(),
            flat.final_cost(),
            rel * 100.0
        );
    }

    #[test]
    fn unschedulable_grid_falls_back_to_the_flat_loop() {
        // 64 px is below the coarse floor: Option stays None and the
        // configured schedule must be ignored, not an error.
        assert!(ResolutionSchedule::auto(64, &optics(), 9).is_none());
        let schedule = ResolutionSchedule::new(128, 2, 6, 3);
        let result = run(LevelSetIlt::builder()
            .max_iterations(5)
            .schedule(Some(schedule)));
        assert_eq!(result.coarse_iterations, 0);
        assert_eq!(result.iterations, 5);
    }

    #[test]
    fn warm_start_rejects_mismatched_init_dims() {
        let control = RunControl::new().with_initial_levelset(Grid::new(32, 32, 1.0));
        let err = LevelSetIlt::builder()
            .max_iterations(3)
            .build()
            .optimize(&sim_64(), &wire_target(), &control)
            .expect_err("should fail");
        assert!(matches!(err, OptimizeError::InitDimsMismatch { .. }));
        assert!(err.to_string().contains("32x32"));
    }

    #[test]
    fn warm_start_from_own_levelset_reconverges_immediately() {
        let opt = LevelSetIlt::builder().max_iterations(8).build();
        let cold = run(LevelSetIlt::builder().max_iterations(8));
        let control = RunControl::new().with_initial_levelset(cold.levelset.clone());
        let warm = opt.optimize(&sim_64(), &wire_target(), &control);
        let warm = warm.expect("warm run");
        // Restarting from the solved ψ must not undo the work.
        assert!(
            warm.final_cost() <= cold.final_cost() * 1.05,
            "warm {} much worse than cold {}",
            warm.final_cost(),
            cold.final_cost()
        );
        assert_eq!(warm.coarse_iterations, 0);
    }
}
