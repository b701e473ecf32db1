//! Tile-partitioned optimization for large fields.
//!
//! Full-chip ILT never optimizes one giant grid: the layout is cut into
//! tiles with an optical-interaction halo, each tile is optimized
//! independently (embarrassingly parallel in production), and the tile
//! cores are stitched back together. The optical interaction range of the
//! 193 nm / NA 1.35 system is a few hundred nanometres, so a halo of
//! ~128 nm already isolates tiles to high accuracy.
//!
//! This module implements that flow on top of [`LevelSetIlt`]; it is an
//! extension beyond the paper (whose benchmarks are single tiles by
//! construction). With a [`WarmStartCache`] attached, repeated tile
//! patterns are recognized by content (translation-invariant
//! fingerprints) and solved with a short warm refinement from the cached
//! ψ instead of a full cold run — see DESIGN.md §14.

use crate::resume::{self, RunControl, TileCheckpoint};
use crate::warmstart::{fingerprint, PatternFingerprint, WarmStartCache};
use crate::{LevelSetIlt, OptimizeError, StopReason};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_parallel::ParallelContext;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Error from tiled optimization.
#[derive(Debug)]
pub enum TiledError {
    /// The tile/halo configuration is invalid for the target grid.
    BadConfiguration(String),
    /// A tile optimization failed.
    Optimize(OptimizeError),
    /// The checkpoint/resume directory could not be used.
    Checkpoint(String),
}

impl fmt::Display for TiledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadConfiguration(msg) => write!(f, "bad tile configuration: {msg}"),
            Self::Optimize(e) => write!(f, "tile optimization: {e}"),
            Self::Checkpoint(msg) => write!(f, "tile checkpoint: {msg}"),
        }
    }
}

impl Error for TiledError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Optimize(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OptimizeError> for TiledError {
    fn from(e: OptimizeError) -> Self {
        Self::Optimize(e)
    }
}

/// Validates a tile geometry and returns its solve window
/// `core + 2·halo`.
///
/// # Errors
///
/// Returns [`TiledError::BadConfiguration`] when the geometry is
/// degenerate: a zero core, a halo at least as large as the core (the
/// "core" would be mostly duplicated context), an overflowing tile
/// size, or a window that is not a power of two (FFT requirement).
pub fn tile_window(core_px: usize, halo_px: usize) -> Result<usize, TiledError> {
    let bad = |msg: String| Err(TiledError::BadConfiguration(msg));
    if core_px == 0 {
        return bad("core size must be positive".into());
    }
    if halo_px >= core_px {
        return bad(format!(
            "halo {halo_px}px must be smaller than the {core_px}px core"
        ));
    }
    let Some(tile) = halo_px
        .checked_mul(2)
        .and_then(|h2| core_px.checked_add(h2))
    else {
        return bad(format!("tile size {core_px} + 2·{halo_px} overflows"));
    };
    if !tile.is_power_of_two() {
        return bad(format!("core + 2·halo = {tile} must be a power of two"));
    }
    Ok(tile)
}

/// What a tiled run did: tile counts and iteration totals, split by
/// whether the tile solved cold (full run from the target's signed
/// distance) or warm (short refinement from a cached ψ).
///
/// "Full" iterations are full-resolution ones — with a
/// [`ResolutionSchedule`](crate::ResolutionSchedule) on the tile
/// optimizer, coarse-stage iterations are tallied separately.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TiledStats {
    /// Non-empty tiles optimized.
    pub tiles: usize,
    /// Tiles solved cold.
    pub cold: usize,
    /// Tiles warm-started from the cache.
    pub warm: usize,
    /// Full-resolution iterations spent on cold tiles.
    pub cold_full_iterations: usize,
    /// Full-resolution iterations spent on warm tiles.
    pub warm_full_iterations: usize,
    /// Coarse-stage iterations across all tiles (0 without a schedule).
    pub coarse_iterations: usize,
    /// Tiles restored from a checkpoint directory instead of solved
    /// (also counted in [`TiledStats::tiles`] and the cold/warm split).
    pub resumed: usize,
    /// Tiles left unsolved by a cancellation or deadline; the stitched
    /// output falls back to the target pattern in those regions.
    pub unfinished: usize,
    /// Why the run stopped early (`None` when every tile completed).
    pub stopped: Option<StopReason>,
}

impl TiledStats {
    /// Total full-resolution iterations across all tiles.
    pub fn full_iterations(&self) -> usize {
        self.cold_full_iterations + self.warm_full_iterations
    }

    /// Counts one completed tile that ran `iterations`, `coarse` of
    /// them on the coarse grid.
    fn tally(&mut self, iterations: usize, coarse: usize, warm: bool) {
        self.tiles += 1;
        let full = iterations - coarse;
        self.coarse_iterations += coarse;
        if warm {
            self.warm += 1;
            self.warm_full_iterations += full;
        } else {
            self.cold += 1;
            self.cold_full_iterations += full;
        }
    }
}

/// Tile-partitioned level-set ILT.
///
/// # Example
///
/// ```no_run
/// use lsopc_core::{LevelSetIlt, RunControl, TiledError, TiledIlt};
/// use lsopc_grid::Grid;
/// use lsopc_litho::LithoSimulator;
///
/// /// `window` simulates one 256-px tile window (128 + 2·64) at the
/// /// full field's pixel pitch.
/// fn solve(window: &LithoSimulator, target: &Grid<f64>) -> Result<Grid<f64>, TiledError> {
///     let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(20).build(), 128, 64)?;
///     let (mask, _stats) = tiled.optimize(window, target, &RunControl::new())?;
///     Ok(mask)
/// }
/// ```
#[derive(Clone, Debug)]
pub struct TiledIlt {
    optimizer: LevelSetIlt,
    core_px: usize,
    halo_px: usize,
    warm_start: Option<WarmStartCache>,
    warm_iterations: Option<usize>,
    /// `None` → [`ParallelContext::global`].
    ctx: Option<ParallelContext>,
}

impl TiledIlt {
    /// Creates a tiled optimizer: tiles of `core_px` pixels, extended by
    /// `halo_px` of context on every side (`core + 2·halo` must be a
    /// power of two).
    ///
    /// # Errors
    ///
    /// Returns [`TiledError::BadConfiguration`] when [`tile_window`]
    /// rejects the geometry.
    pub fn new(optimizer: LevelSetIlt, core_px: usize, halo_px: usize) -> Result<Self, TiledError> {
        tile_window(core_px, halo_px)?;
        Ok(Self {
            optimizer,
            core_px,
            halo_px,
            warm_start: None,
            warm_iterations: None,
            ctx: None,
        })
    }

    /// Attaches a [`WarmStartCache`]: tiles whose pattern (up to
    /// whole-pixel translation) is already cached — from an earlier run
    /// via a shared/directory cache, or from an earlier tile of this run
    /// — skip the cold solve and run a short refinement from the cached
    /// ψ.
    pub fn with_warm_start(mut self, cache: WarmStartCache) -> Self {
        self.warm_start = Some(cache);
        self
    }

    /// Overrides the warm-tile refinement budget (default: a quarter of
    /// the optimizer's `max_iterations`, at least 2).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_warm_iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "warm iteration budget must be positive");
        self.warm_iterations = Some(iterations);
        self
    }

    /// Runs tile optimizations on an explicit [`ParallelContext`] instead
    /// of the process-global one (tests and thread-count sweeps).
    pub fn with_context(mut self, ctx: ParallelContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    fn ctx(&self) -> &ParallelContext {
        self.ctx
            .as_ref()
            .unwrap_or_else(|| ParallelContext::global())
    }

    /// Tile size including halo.
    pub fn tile_px(&self) -> usize {
        self.core_px + 2 * self.halo_px
    }

    /// The warm-tile refinement budget in effect.
    pub fn warm_iterations(&self) -> usize {
        self.warm_iterations
            .unwrap_or_else(|| (self.optimizer.max_iterations / 4).max(2))
    }

    /// Hash binding a tile checkpoint to the solver configuration, the
    /// tile geometry and the tile's target content — a mismatch on any
    /// of them re-solves the tile instead of restoring a stale result.
    fn tile_hash(&self, sim: &LithoSimulator<f64>, tile_target: &Grid<f64>) -> u64 {
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let base = resume::config_hash(&self.optimizer, sim, tile_target, None);
        let h = fold(base, self.core_px as u64);
        let h = fold(h, self.halo_px as u64);
        fold(h, self.warm_iterations() as u64)
    }

    /// Optimizes a (possibly large) target by tiles and stitches the
    /// result, reporting per-run [`TiledStats`]. Empty tiles are
    /// skipped.
    ///
    /// `sim` simulates one tile window ([`TiledIlt::tile_px`] pixels at
    /// the full field's pitch); every tile solve shares it and its
    /// caches. Tiles are optimized concurrently on the pool (the
    /// simulator's own fan-out runs inline inside a tile task), and the
    /// stitch — and which error is reported when several tiles fail —
    /// follows row-major tile order, never completion order.
    ///
    /// With a warm-start cache the run is two deterministic phases:
    /// every pattern's first occurrence (row-major) not already cached
    /// solves cold in phase one and is stored; phase two warm-starts the
    /// remaining tiles from the cache. Classification depends only on
    /// the tile contents and the cache state at entry — never on thread
    /// scheduling — so results are bit-identical across thread counts
    /// (pinned by `tests/parallel_tiles.rs`). Cold-phase failures are
    /// reported (first in row-major order) before warm-phase ones.
    ///
    /// The control's cancel token and deadline are observed at
    /// tile-claim points and inside every tile's loop. A stop is
    /// graceful: completed tiles keep their masks, interrupted ones
    /// stitch best-so-far ([`unfinished`](TiledStats::unfinished)),
    /// untouched ones fall back to the target. A
    /// [`CheckpointSpec`](crate::CheckpointSpec) path names a
    /// *directory* with one file per completed tile
    /// (`tile_<x>_<y>.tile`); resuming restores them and re-solves any
    /// missing, corrupt or mismatched entries.
    ///
    /// # Errors
    ///
    /// Returns [`TiledError`] when the target is not a multiple of the
    /// core size, `sim` does not match the tile window, the control
    /// carries an iteration budget or an initial level set (neither is
    /// meaningful across concurrent tiles), a tile fails to optimize,
    /// or the checkpoint/resume directory is unusable.
    pub fn optimize(
        &self,
        sim: &LithoSimulator<f64>,
        target: &Grid<f64>,
        control: &RunControl,
    ) -> Result<(Grid<f64>, TiledStats), TiledError> {
        let (w, h) = target.dims();
        if w % self.core_px != 0 || h % self.core_px != 0 {
            return Err(TiledError::BadConfiguration(format!(
                "target {w}x{h} is not a multiple of the {}px core",
                self.core_px
            )));
        }
        let tile = self.tile_px();
        if sim.grid_px() != tile {
            return Err(TiledError::BadConfiguration(format!(
                "simulator grid {}px does not match the {tile}px tile window",
                sim.grid_px()
            )));
        }
        if control.iteration_budget.is_some() {
            return Err(TiledError::BadConfiguration(
                "iteration budgets are not supported for tiled runs \
                 (a global iteration count is not meaningful across concurrent tiles)"
                    .into(),
            ));
        }
        if control.initial_levelset.is_some() {
            return Err(TiledError::BadConfiguration(
                "an initial level set is not supported for tiled runs \
                 (tiles warm-start from the warm-start cache)"
                    .into(),
            ));
        }
        // Warm the per-defocus kernel cache before fanning out so
        // concurrent tiles don't all generate the same kernels on a miss.
        let corners = sim.corners();
        for c in [corners.nominal, corners.inner, corners.outer] {
            let _ = sim.kernels_for(c.defocus_nm);
        }

        // Collect the non-empty tiles in row-major order.
        let mut tiles: Vec<(usize, usize, Grid<f64>)> = Vec::new();
        for ty in (0..h).step_by(self.core_px) {
            for tx in (0..w).step_by(self.core_px) {
                // Extract the tile with halo; outside the target is empty.
                let tile_target = Grid::from_fn(tile, tile, |x, y| {
                    let gx = tx as i64 + x as i64 - self.halo_px as i64;
                    let gy = ty as i64 + y as i64 - self.halo_px as i64;
                    if gx >= 0 && gy >= 0 && (gx as usize) < w && (gy as usize) < h {
                        target[(gx as usize, gy as usize)]
                    } else {
                        0.0
                    }
                });
                if tile_target.sum() == 0.0 {
                    continue; // nothing to optimize here
                }
                tiles.push((tx, ty, tile_target));
            }
        }

        // Each tile's solved (or best-so-far) mask, halo included.
        let mut slots: Vec<Option<Grid<f64>>> = vec![None; tiles.len()];
        let mut stats = TiledStats::default();

        // Per-tile checkpointing: the spec's path is a directory of one
        // file per completed tile.
        let ck_dir: Option<&Path> = control.checkpoint.as_ref().map(|s| s.path.as_path());
        if let Some(dir) = ck_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                TiledError::Checkpoint(format!(
                    "cannot create checkpoint directory {}: {e}",
                    dir.display()
                ))
            })?;
        }

        // Restore completed tiles before classification so that a
        // restored cold tile still seeds the warm-start cache for its
        // in-run repeats. Missing entries are normal (the previous run
        // was interrupted); corrupt or mismatched entries degrade to a
        // re-solve with a warning, never an error.
        if let Some(dir) = control.resume.as_ref() {
            if !dir.is_dir() {
                return Err(TiledError::Checkpoint(format!(
                    "resume path {} is not a tile checkpoint directory",
                    dir.display()
                )));
            }
            let _span = lsopc_trace::span!("tiles.phase.resume");
            for (i, (tx, ty, t)) in tiles.iter().enumerate() {
                let path = dir.join(resume::tile_entry_name(*tx, *ty));
                if !path.exists() {
                    continue;
                }
                let tc = match resume::load_tile_checkpoint(&path) {
                    Ok(tc) => tc,
                    Err(e) => {
                        lsopc_trace::warn(
                            "tiles",
                            &format!("ignoring tile checkpoint {}: {e}", path.display()),
                        );
                        continue;
                    }
                };
                let stale = if tc.hash != self.tile_hash(sim, t) {
                    Some("configuration or content changed")
                } else if tc.mask.dims() != (tile, tile) || tc.levelset.dims() != (tile, tile) {
                    Some("wrong dimensions")
                } else {
                    None
                };
                if let Some(why) = stale {
                    let path = path.display();
                    lsopc_trace::warn("tiles", &format!("ignoring tile checkpoint {path}: {why}"));
                    continue;
                }
                if let Some(cache) = &self.warm_start {
                    if !tc.warm {
                        let fp = fingerprint(t).expect("non-empty tiles have fingerprints");
                        cache.store(&fp, &tc.levelset);
                    }
                }
                stats.tally(tc.iterations, tc.coarse_iterations, tc.warm);
                stats.resumed += 1;
                lsopc_trace::count("tiles.resume", 1);
                slots[i] = Some(tc.mask);
            }
        }

        // The effective cancel token: tile-internal stops (deadline
        // expiring mid-tile) are promoted into it so unclaimed tiles
        // drain instead of starting doomed solves.
        let token = control.cancel.clone().unwrap_or_default();
        let tile_control = RunControl {
            cancel: Some(token.clone()),
            deadline: control.deadline,
            ..RunControl::default()
        };

        // Classify tiles by content, in row-major order so the choice of
        // each pattern's cold representative is deterministic. Restored
        // tiles participate in first-occurrence bookkeeping (their
        // pattern is already solved) but get no plan of their own.
        let plans: Vec<Option<PatternFingerprint>> = match &self.warm_start {
            None => vec![None; tiles.len()],
            Some(cache) => {
                let mut seen: HashSet<u64> = HashSet::new();
                tiles
                    .iter()
                    .enumerate()
                    .map(|(i, (_, _, t))| {
                        let fp = fingerprint(t).expect("non-empty tiles have fingerprints");
                        let first = seen.insert(fp.key());
                        if slots[i].is_some() {
                            return None;
                        }
                        let warm = if first {
                            // First occurrence: warm only on a cache hit
                            // from an earlier run (counts hit/miss).
                            cache.lookup(&fp).is_some()
                        } else {
                            // In-run repeat of a pattern being solved
                            // cold (or already warm) this run.
                            lsopc_trace::count("cache.warmstart.hit", 1);
                            true
                        };
                        warm.then_some(fp)
                    })
                    .collect()
            }
        };

        // Phase one solves the cold tiles (everything unrestored,
        // without a cache); phase two refines the warm tiles from the
        // cache phase one just completed. A cache entry that went missing
        // (e.g. a corrupt directory entry) degrades to a cold solve.
        let mut warm_opt = self.optimizer.clone();
        warm_opt.max_iterations = self.warm_iterations();
        let solve = |i: usize| {
            if let Some(reason) = tile_control.stop_requested(0) {
                token.cancel(reason);
            }
            let cache = self.warm_start.as_ref();
            match plans[i].as_ref().and_then(|fp| cache?.lookup_uncounted(fp)) {
                Some(psi0) => {
                    let warm_control = tile_control.clone().with_initial_levelset(psi0);
                    let result = warm_opt.optimize(sim, &tiles[i].2, &warm_control);
                    result.map(|r| (r, true))
                }
                None => {
                    let result = self.optimizer.optimize(sim, &tiles[i].2, &tile_control);
                    result.map(|r| (r, false))
                }
            }
        };
        let cold_idx = (0..tiles.len()).filter(|&i| slots[i].is_none() && plans[i].is_none());
        let warm_idx = (0..tiles.len()).filter(|&i| plans[i].is_some());
        for (cold, idx) in [
            (true, cold_idx.collect::<Vec<_>>()),
            (false, warm_idx.collect()),
        ] {
            if !cold && idx.is_empty() {
                continue;
            }
            let _span = lsopc_trace::span!(if cold {
                "tiles.phase.cold"
            } else {
                "tiles.phase.warm"
            });
            let results = self
                .ctx()
                .par_map_cancellable(idx.len(), &token, |j| solve(idx[j]));
            for (&i, result) in idx.iter().zip(results) {
                let Some(result) = result else {
                    stats.unfinished += 1;
                    continue;
                };
                let (result, warm) = result?;
                if let Some(reason) = result.stopped {
                    token.cancel(reason);
                    stats.unfinished += 1;
                    slots[i] = Some(result.mask);
                    continue;
                }
                // Only phase one stores: phase two reads the cache
                // concurrently, so it must not change under it.
                if let (true, Some(cache)) = (cold, &self.warm_start) {
                    let fp = fingerprint(&tiles[i].2).expect("non-empty tiles have fingerprints");
                    cache.store(&fp, &result.levelset);
                }
                // Persist the completed tile. A write failure degrades to
                // a warning — the run's result does not depend on it.
                if let Some(dir) = ck_dir {
                    let (tx, ty, t) = &tiles[i];
                    let tc = TileCheckpoint {
                        hash: self.tile_hash(sim, t),
                        warm,
                        iterations: result.iterations,
                        coarse_iterations: result.coarse_iterations,
                        mask: result.mask.clone(),
                        levelset: result.levelset.clone(),
                    };
                    let path = dir.join(resume::tile_entry_name(*tx, *ty));
                    match resume::write_tile_checkpoint(&path, &tc) {
                        Ok(()) => lsopc_trace::count("checkpoint.write", 1),
                        Err(e) => lsopc_trace::warn(
                            "tiles",
                            &format!("failed to write tile checkpoint {}: {e}", path.display()),
                        ),
                    }
                }
                stats.tally(result.iterations, result.coarse_iterations, warm);
                slots[i] = Some(result.mask);
            }
        }
        stats.stopped = token.cancelled();
        if let Some(reason) = stats.stopped {
            lsopc_trace::count(reason.counter_name(), 1);
        }

        // Stitch in row-major tile order. On a stopped run, tiles that
        // never produced a mask fall back to their target core — the
        // best-so-far output for an unstarted tile is the pattern
        // itself.
        let mut out = Grid::new(w, h, 0.0);
        for ((tx, ty, t), slot) in tiles.iter().zip(&slots) {
            let src = slot.as_ref().unwrap_or(t);
            for y in 0..self.core_px {
                for x in 0..self.core_px {
                    out[(tx + x, ty + y)] = src[(x + self.halo_px, y + self.halo_px)];
                }
            }
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_litho::ProcessCondition;
    use lsopc_optics::OpticsConfig;

    fn optics() -> OpticsConfig {
        OpticsConfig::iccad2013().with_kernel_count(4)
    }

    /// The 256-px window (128 core + 2·64 halo) at the 4 nm pitch.
    fn tile_sim() -> LithoSimulator {
        LithoSimulator::from_optics(&optics(), 256, 4.0)
            .expect("valid")
            .with_accelerated_backend(1)
    }

    /// Two features in different tiles of a 256-px target.
    fn two_tile_target() -> Grid<f64> {
        Grid::from_fn(256, 256, |x, y| {
            let a = (40..60).contains(&x) && (30..90).contains(&y);
            let b = (180..200).contains(&x) && (160..220).contains(&y);
            if a || b {
                1.0
            } else {
                0.0
            }
        })
    }

    /// The same 20×56 feature twice in a 512-px target: once tucked in
    /// the top-left corner (visible only to tile (0,0)'s window) and
    /// once at +(256, 256), where the 2-tile-overlapping windows make it
    /// fully visible — as a pure translation — to four tiles. One
    /// pattern key, five non-empty tiles.
    fn repeated_tile_target() -> Grid<f64> {
        Grid::from_fn(512, 512, |x, y| {
            let a = (8..28).contains(&x) && (4..60).contains(&y);
            let b = (264..284).contains(&x) && (260..316).contains(&y);
            if a || b {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn tiled_mask_covers_both_features() {
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(6).build(), 128, 64)
            .expect("valid tiling");
        let target = two_tile_target();
        let (mask, _) = tiled
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect("tiles run");
        assert_eq!(mask.dims(), (256, 256));
        // The mask prints both features.
        let sim = LithoSimulator::from_optics(&optics(), 256, 4.0)
            .expect("valid")
            .with_accelerated_backend(1);
        let printed = sim.print(&mask, ProcessCondition::NOMINAL);
        let (_, comps) = lsopc_geometry::label_components(&printed, 0.5);
        assert_eq!(comps.len(), 2, "both features must print");
    }

    #[test]
    fn tiled_matches_monolithic_for_isolated_features() {
        // With a halo covering the optical interaction range, tiling is
        // nearly transparent: the printed results agree.
        let opt = LevelSetIlt::builder().max_iterations(6).build();
        let target = two_tile_target();
        let sim = tile_sim();
        let (tiled_mask, _) = TiledIlt::new(opt.clone(), 128, 64)
            .expect("valid tiling")
            .optimize(&sim, &target, &RunControl::new())
            .expect("tiles run");
        let mono = opt
            .optimize(&sim, &target, &RunControl::new())
            .expect("monolithic runs");
        let p_tiled = sim.print(&tiled_mask, ProcessCondition::NOMINAL);
        let p_mono = sim.print(&mono.mask, ProcessCondition::NOMINAL);
        // Printed images agree except a small fraction of pixels.
        let differing = p_tiled
            .as_slice()
            .iter()
            .zip(p_mono.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            differing < 256 * 256 / 200,
            "tiled and monolithic prints differ on {differing} px"
        );
    }

    #[test]
    fn empty_tiles_are_skipped_cheaply() {
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(4).build(), 128, 64)
            .expect("valid tiling");
        let target = Grid::from_fn(512, 512, |x, y| {
            if (40..60).contains(&x) && (30..90).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let start = std::time::Instant::now();
        let (mask, _) = tiled
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect("tiles run");
        let with_empty = start.elapsed();
        assert!(mask.sum() > 0.0);
        // 15 of 16 tiles are empty; the run must be much faster than 16
        // tile optimizations (loose sanity bound: under 16x one tile).
        assert!(with_empty.as_secs_f64() < 30.0);
    }

    #[test]
    fn rejects_misaligned_target() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64).expect("valid tiling");
        let target = Grid::new(200, 200, 1.0);
        let err = tiled
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect_err("misaligned");
        assert!(matches!(err, TiledError::BadConfiguration(_)));
        assert!(err.to_string().contains("multiple"));
    }

    #[test]
    fn rejects_degenerate_tile_geometry() {
        for (core, halo, needle) in [
            (0usize, 0usize, "positive"),
            (100, 10, "power of two"),
            (128, 128, "smaller than"),
            (64, 96, "smaller than"),
            (usize::MAX - 1, 4, "overflow"),
        ] {
            let err = TiledIlt::new(LevelSetIlt::default(), core, halo)
                .err()
                .unwrap_or_else(|| panic!("core {core} halo {halo} must be rejected"));
            assert!(matches!(err, TiledError::BadConfiguration(_)));
            assert!(
                err.to_string().contains(needle),
                "core {core} halo {halo}: got {err}"
            );
        }
    }

    #[test]
    fn accepts_the_standard_geometry() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64).expect("128+2·64=256 is valid");
        assert_eq!(tiled.tile_px(), 256);
    }

    #[test]
    fn warm_start_reuses_repeated_tiles() {
        let opt = LevelSetIlt::builder().max_iterations(8).build();
        let cache = WarmStartCache::in_memory();
        let tiled = TiledIlt::new(opt, 128, 64)
            .expect("valid tiling")
            .with_warm_start(cache.clone());
        let (mask, stats) = tiled
            .optimize(&tile_sim(), &repeated_tile_target(), &RunControl::new())
            .expect("tiles run");
        assert!(mask.sum() > 0.0);
        assert_eq!(stats.tiles, 5);
        assert_eq!(stats.cold, 1, "one representative solves cold");
        assert_eq!(stats.warm, 4, "every repeat warm-starts");
        assert_eq!(cache.len(), 1, "one pattern cached");
        let per_warm = stats.warm_full_iterations as f64 / stats.warm as f64;
        let per_cold = stats.cold_full_iterations as f64 / stats.cold as f64;
        assert!(
            per_warm < per_cold,
            "warm tiles averaged {per_warm} iterations vs cold {per_cold}"
        );
    }

    #[test]
    fn warm_start_second_run_is_all_hits() {
        let cache = WarmStartCache::in_memory();
        let make = || {
            TiledIlt::new(LevelSetIlt::builder().max_iterations(6).build(), 128, 64)
                .expect("valid tiling")
                .with_warm_start(cache.clone())
        };
        let (first_mask, first) = make()
            .optimize(&tile_sim(), &repeated_tile_target(), &RunControl::new())
            .expect("first run");
        assert_eq!((first.cold, first.warm), (1, 4));
        let (second_mask, second) = make()
            .optimize(&tile_sim(), &repeated_tile_target(), &RunControl::new())
            .expect("second run");
        assert_eq!((second.cold, second.warm), (0, 5), "all cached now");
        // The second run warm-starts from the first run's refined ψ, so
        // the masks need not be identical — but both must print.
        assert!(first_mask.sum() > 0.0 && second_mask.sum() > 0.0);
    }

    #[test]
    fn tile_checkpoints_restore_bit_identically() {
        let dir = std::env::temp_dir().join(format!("lsopc_tiles_ck_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opt = LevelSetIlt::builder().max_iterations(5).build();
        let make = || TiledIlt::new(opt.clone(), 128, 64).expect("valid tiling");
        let spec = crate::CheckpointSpec::new(&dir, 1);
        let (first_mask, first) = make()
            .optimize(
                &tile_sim(),
                &two_tile_target(),
                &RunControl::new().with_checkpoint(spec),
            )
            .expect("first run");
        assert_eq!(first.resumed, 0);
        let (second_mask, second) = make()
            .optimize(
                &tile_sim(),
                &two_tile_target(),
                &RunControl::new().with_resume(&dir),
            )
            .expect("resumed run");
        assert_eq!(second.resumed, first.tiles, "every tile restores");
        assert_eq!(second.tiles, first.tiles);
        assert_eq!(second.full_iterations(), first.full_iterations());
        assert_eq!(first_mask, second_mask, "restored stitch is bit-identical");

        // A configuration change invalidates the stored tiles.
        let other = LevelSetIlt::builder().max_iterations(6).build();
        let (_, third) = TiledIlt::new(other, 128, 64)
            .expect("valid tiling")
            .optimize(
                &tile_sim(),
                &two_tile_target(),
                &RunControl::new().with_resume(&dir),
            )
            .expect("mismatched resume still runs");
        assert_eq!(third.resumed, 0, "hash mismatch re-solves every tile");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_run_stops_gracefully_with_target_fallback() {
        let token = crate::CancelToken::new();
        token.cancel(crate::StopReason::External);
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(5).build(), 128, 64)
            .expect("valid tiling");
        let target = two_tile_target();
        let (mask, stats) = tiled
            .optimize(&tile_sim(), &target, &RunControl::new().with_cancel(token))
            .expect("cancelled run is not an error");
        assert_eq!(stats.stopped, Some(crate::StopReason::External));
        assert_eq!(stats.tiles, 0);
        // Every halo window of this target sees some pattern, so all
        // four tile positions are non-empty — and all go unsolved.
        assert_eq!(stats.unfinished, 4);
        assert_eq!(mask, target, "unsolved tiles fall back to the target");
    }

    #[test]
    fn rejects_iteration_budget() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64).expect("valid tiling");
        let control = RunControl::new().with_iteration_budget(3);
        let err = tiled
            .optimize(&tile_sim(), &two_tile_target(), &control)
            .expect_err("budget must be rejected");
        assert!(matches!(err, TiledError::BadConfiguration(_)));
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn rejects_file_as_resume_directory() {
        let path = std::env::temp_dir().join(format!("lsopc_tiles_file_{}", std::process::id()));
        std::fs::write(&path, b"not a directory").expect("write");
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(4).build(), 128, 64)
            .expect("valid tiling");
        let err = tiled
            .optimize(
                &tile_sim(),
                &two_tile_target(),
                &RunControl::new().with_resume(&path),
            )
            .expect_err("file is not a resume directory");
        assert!(matches!(err, TiledError::Checkpoint(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_off_matches_warm_start_free_run() {
        // Without a cache attached, the stats-reporting path is the
        // plain cold path.
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(5).build(), 128, 64)
            .expect("valid tiling");
        let target = two_tile_target();
        let (plain, _) = tiled
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect("runs");
        let (with_stats, stats) = tiled
            .optimize(&tile_sim(), &target, &RunControl::new())
            .expect("runs");
        assert_eq!(plain, with_stats);
        assert_eq!(stats.warm, 0);
        assert_eq!(stats.cold, stats.tiles);
        assert_eq!(stats.coarse_iterations, 0);
    }

    #[test]
    fn rejects_a_simulator_of_another_window() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64).expect("valid tiling");
        let full = LithoSimulator::from_optics(&optics(), 512, 4.0).expect("valid");
        let err = tiled
            .optimize(&full, &two_tile_target(), &RunControl::new())
            .expect_err("a 512 px simulator is not a 256 px window");
        assert!(matches!(err, TiledError::BadConfiguration(_)));
        assert!(err.to_string().contains("256px tile window"), "{err}");
    }
}
