//! Level-set inverse lithography mask optimization — the primary
//! contribution of *“A GPU-enabled Level Set Method for Mask
//! Optimization”* (DATE 2021).
//!
//! The optimizer implements the paper's Algorithm 1:
//!
//! 1. initialize the level-set function `ψ₀` as the signed distance of the
//!    target pattern (Eq. (5));
//! 2. each iteration, simulate the sigmoid prints at the three process
//!    corners, evaluate the process-window-aware cost
//!    `L = L_nom + w_pvb·L_pvb` (Eq. (13)) and its mask gradient `G`
//!    (Eq. (11)/(14));
//! 3. form the evolution velocity `v = −G·|∇ψ|` (Eq. (10)), optionally
//!    combined with the previous velocity by the Polak–Ribière–Polyak
//!    conjugate-gradient rule (Eq. (15)–(16));
//! 4. advance `ψ ← ψ + v·Δt` with `Δt = λ_t / max|v|` and re-threshold the
//!    mask (Eq. (6));
//! 5. stop after `N` iterations or when `max|v| ≤ ε`.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use lsopc_core::{LevelSetIlt, RunControl};
//! use lsopc_grid::Grid;
//! use lsopc_litho::LithoSimulator;
//! use lsopc_optics::OpticsConfig;
//!
//! let sim = LithoSimulator::from_optics(
//!     &OpticsConfig::iccad2013().with_kernel_count(4),
//!     64,
//!     4.0,
//! )?;
//! let target = Grid::from_fn(64, 64, |x, y| {
//!     if (24..40).contains(&x) && (12..52).contains(&y) { 1.0 } else { 0.0 }
//! });
//! let result = LevelSetIlt::builder()
//!     .max_iterations(8)
//!     .build()
//!     .optimize(&sim, &target, &RunControl::new())?;
//! let first = result.history.first().expect("history");
//! let last = result.history.last().expect("history");
//! assert!(last.cost_total <= first.cost_total);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cg;
pub mod sraf;

mod config;
mod guard;
mod history;
mod optimizer;
mod resume;
mod schedule;
mod tiles;
mod warmstart;

pub use config::{Evolution, LevelSetIlt, LevelSetIltBuilder};
pub use guard::{GuardConfig, GuardEvent, GuardEventKind, RecoveryPolicy, SolverDiagnostics};
pub use history::IterationRecord;
pub use lsopc_parallel::{CancelToken, StopReason};
pub use optimizer::{IltResult, OptimizeError};
pub use resume::{CheckpointError, CheckpointSpec, RunControl};
pub use schedule::ResolutionSchedule;
pub use tiles::{tile_window, TiledError, TiledIlt, TiledStats};
pub use warmstart::{fingerprint, PatternFingerprint, WarmStartCache};
