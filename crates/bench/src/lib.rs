//! Benchmark harness regenerating the paper's Table I, Table II and
//! figures.
//!
//! The binaries in `src/bin/` drive everything:
//!
//! * `table1` — quality comparison (#EPE / PVB / Score) of the four
//!   pixel-ILT baselines and the level-set method on B1–B10;
//! * `table2` — runtime comparison, including the CPU vs accelerated
//!   ("GPU") backends of the level-set method;
//! * `figures` — Fig. 1 metric illustrations, Fig. 2 evolution snapshots
//!   and the convergence-curve data;
//! * `ablation` — CG on/off, `w_pvb` sweep, fused-kernel error and
//!   backend-equality experiments beyond the paper.
//!
//! Common flags: `--grid <px>` (default 512, i.e. 4 nm/px over the 2048 nm
//! field; `--grid 2048` reproduces the contest's 1 nm/px), `--cases 1,3`
//! to subset, `--kernels <K>` (default 24), `--iters <N>`. Any other
//! argument, or a value that does not parse, exits with status 2. Every
//! method runs on the global worker pool (`LSOPC_THREADS`, default: all
//! cores).
//!
//! The library part hosts the shared runner ([`run_suite`]), the method
//! registry ([`Method`]) and the paper's reference numbers ([`paper`]).

#![warn(missing_docs)]

pub mod paper;
pub mod report;
pub mod runner;

pub use runner::{run_suite, CaseOutcome, ExperimentConfig, Method};
