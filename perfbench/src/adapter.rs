//! Every call the benchmark makes into lsopc lives in this module.
//!
//! The rest of the benchmark sees only the plain types defined here, so
//! a later API change (one `optimize` entry point, one telemetry
//! pipeline) touches this file alone. It uses only surfaces that are
//! meant to stay: `Engine::submit`, `Scorer::evaluate`, `Session`,
//! `JobMetrics` and the public simulator, backend and layer functions.
//! It never sets `JobSpec::rfft`, never uses `Precision::Mixed` and
//! never installs a `MemorySink`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lsopc_benchsuite::{CaseSpec, ContactArraySpec, RepeatedTileSpec, PAPER_PATTERN_AREAS};
use lsopc_core::{LevelSetIlt, ResolutionSchedule, RunControl};
use lsopc_engine::{
    Caches, CheckpointSpec, Engine, JobDetail, JobMetrics, JobOutcome, JobSpec, Precision,
    Schedule, Scorer, Session, Tiling, WarmStart,
};
use lsopc_fft::PlanCache;
use lsopc_geometry::{rasterize, Layout};
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_litho::{AcceleratedBackend, LithoSimulator, ProcessCorners, SimBackend};
use lsopc_optics::{KernelSet, OpticsConfig};
use lsopc_trace::{Event, MetricsRegistry, TraceSink};

use crate::spans::Recorder;

/// The job parameters a workload fixes for all of its jobs.
#[derive(Clone, Copy, Debug)]
pub struct JobShape {
    pub grid: usize,
    pub kernels: usize,
    pub iterations: usize,
    /// Run the loop at f32 (scoring stays f64).
    pub single_precision: bool,
    /// Coarse-to-fine schedule derived by the optimizer.
    pub auto_schedule: bool,
    /// Tile core and halo in pixels, solved with the engine's in-memory
    /// warm-start cache.
    pub tile: Option<(usize, usize)>,
    /// Refinement iterations of warm tiles.
    pub warm_iterations: usize,
    /// Checkpoint interval; each job writes to its own file.
    pub checkpoint_every: Option<usize>,
}

impl JobShape {
    /// The grid one solve runs on: the tile window, or the whole field.
    pub fn solve_px(&self) -> usize {
        self.tile.map_or(self.grid, |(core, halo)| core + 2 * halo)
    }
}

/// A repeated-tile motif: a `cluster × cluster` contact group.
#[derive(Clone, Copy, Debug)]
pub struct Motif {
    pub cluster: usize,
    pub size_nm: i64,
    pub pitch_nm: i64,
}

/// One generated layout and its raster, the only input a job receives.
pub struct Clip {
    pub label: String,
    layout: Layout,
    target: Grid<f64>,
}

impl Clip {
    fn from_layout(label: String, layout: Layout, grid: usize) -> Clip {
        let target = rasterize(&layout, grid, grid, lsopc_engine::pixel_nm(grid));
        Clip {
            label,
            layout,
            target,
        }
    }

    /// An M1 clip with the pattern area of case `B{area_index + 1}`.
    pub fn m1(area_index: usize, seed: u64, grid: usize) -> Clip {
        let case = CaseSpec {
            index: area_index,
            name: format!("B{}", area_index + 1),
            target_area_nm2: PAPER_PATTERN_AREAS[area_index],
            seed,
        };
        let layout = lsopc_benchsuite::generate_layout(&case);
        Clip::from_layout(format!("m1-B{}-{seed:x}", area_index + 1), layout, grid)
    }

    /// A field that repeats `motif` once per 512 nm cell.
    pub fn repeated(motif: Motif, grid: usize) -> Clip {
        let spec = RepeatedTileSpec {
            cell_nm: 512,
            cluster: motif.cluster,
            size_nm: motif.size_nm,
            pitch_nm: motif.pitch_nm,
        };
        let label = format!(
            "repeated-{}x{}-{}nm-p{}",
            motif.cluster, motif.cluster, motif.size_nm, motif.pitch_nm
        );
        Clip::from_layout(label, spec.generate(), grid)
    }

    /// An irregular contact array, 70 % of its sites filled. 14 × 14
    /// sites span the field, so every 512 nm tile holds a dozen random
    /// sites and no two tiles share a warm-start fingerprint; a smaller
    /// array leaves near-empty edge tiles that repeat, which would make
    /// the field's cost depend on the seed.
    pub fn irregular(seed: u64, grid: usize) -> Clip {
        let spec = ContactArraySpec {
            cols: 14,
            rows: 14,
            seed,
            ..ContactArraySpec::default_via_array()
        };
        Clip::from_layout(format!("irregular-{seed:x}"), spec.generate(), grid)
    }

    /// FNV-1a over the raster bits: equal for equal inputs.
    pub fn fingerprint(&self) -> u64 {
        fnv(self.target.as_slice())
    }
}

fn fnv(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The mask of a finished job and what the optimizer reported.
pub struct JobRun {
    pub mask: Grid<f64>,
    /// Total cost of the first and last recorded iteration (flat jobs).
    pub costs: Option<(f64, f64)>,
    pub iterations: usize,
    pub coarse_iterations: usize,
    /// Seconds per iteration, from `IterationRecord::elapsed_s`.
    pub iter_s: Vec<f64>,
    pub tiles: Option<TileCounts>,
    pub stopped: bool,
    pub metrics: Option<LayerCounters>,
}

#[derive(Clone, Copy, Debug)]
pub struct TileCounts {
    pub tiles: usize,
    pub warm: usize,
    pub full_iterations: usize,
}

/// Quality of one mask, scored at f64 (ICCAD 2013 rules).
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub epe: usize,
    pub pvb_nm2: f64,
    pub shapes: usize,
}

/// What a traced job's `JobMetrics` said, reduced to what the benchmark
/// reports.
#[derive(Clone, Debug)]
pub struct LayerCounters {
    /// Per leaf span name: (calls, total seconds, p50 seconds).
    pub spans: BTreeMap<String, (u64, f64, f64)>,
    /// Outermost `levelset.*` spans, in seconds.
    pub levelset_s: f64,
    pub caches: BTreeMap<String, (u64, u64)>,
    pub checkpoint_bytes: u64,
}

/// `true` when every value is exactly 0 or 1 and the grid is `n × n`.
pub fn mask_is_valid(mask: &Grid<f64>, n: usize) -> bool {
    mask.dims() == (n, n) && mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0)
}

/// Bit-for-bit equality of two masks.
pub fn same_bits(a: &Grid<f64>, b: &Grid<f64>) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn optics(kernels: usize) -> OpticsConfig {
    OpticsConfig::iccad2013().with_kernel_count(kernels)
}

/// An engine with private caches, its scorer and a scratch directory
/// for checkpoints.
pub struct Runner {
    engine: Engine,
    caches: Caches,
    scorer: Scorer,
    shape: JobShape,
    tmp: PathBuf,
    replay: Mutex<Option<ReplaySims>>,
}

impl Runner {
    /// Builds an engine on the default pool with fresh caches, so each
    /// call pays the whole set-up again.
    pub fn new(shape: JobShape, tmp: &Path) -> Result<Runner, String> {
        let caches = Caches::private();
        let engine = Engine::builder().caches(caches.clone()).build();
        let scorer = engine
            .scorer(shape.grid, shape.kernels, None)
            .map_err(|e| format!("scorer: {e}"))?;
        Ok(Runner {
            engine,
            caches,
            scorer,
            shape,
            tmp: tmp.to_path_buf(),
            replay: Mutex::new(None),
        })
    }

    pub fn lanes(&self) -> usize {
        self.engine.pool_threads()
    }

    fn checkpoint_path(&self, tag: &str) -> PathBuf {
        self.tmp.join(format!("{tag}.lsckpt"))
    }

    fn control(&self, tag: &str) -> RunControl {
        match self.shape.checkpoint_every {
            Some(every) => RunControl::new()
                .with_checkpoint(CheckpointSpec::new(self.checkpoint_path(tag), every)),
            None => RunControl::new(),
        }
    }

    fn spec(
        &self,
        clip: &Clip,
        iterations: usize,
        collect: bool,
        tag: &str,
    ) -> Result<JobSpec, String> {
        let mut spec = JobSpec::new(clip.target.clone());
        spec.kernels = self.shape.kernels;
        spec.iterations = iterations;
        spec.collect_metrics = collect;
        if self.shape.single_precision {
            spec.precision = Precision::F32;
        }
        if self.shape.auto_schedule {
            spec.schedule = Schedule::Auto;
        }
        if let Some((core, halo)) = self.shape.tile {
            spec.tiling = Some(Tiling::new(core, halo).map_err(|e| format!("tiling: {e}"))?);
            spec.warm_start = Some(WarmStart::Memory);
            spec.warm_iterations = self.shape.warm_iterations;
        } else {
            spec.control = self.control(tag);
        }
        Ok(spec)
    }

    fn finish(&self, outcome: JobOutcome, tag: &str) -> JobRun {
        let ckpt = self.checkpoint_path(tag);
        // Best effort: a leftover file only costs disk space in the scratch
        // directory, which the caller removes at the end of the run.
        let _ = std::fs::remove_file(&ckpt);
        let metrics = outcome.metrics.as_ref().map(layer_counters);
        let stopped = outcome.stopped.is_some();
        match outcome.detail {
            JobDetail::Flat(result) => {
                // A scheduled run's history starts on the coarse grid,
                // whose costs are on another scale: compare within the
                // final stage.
                let fine = result
                    .history
                    .get(result.coarse_iterations..)
                    .unwrap_or(&[]);
                let costs = match (fine.iter().find(|r| !r.rolled_back), fine.last()) {
                    (Some(a), Some(b)) => Some((a.cost_total, b.cost_total)),
                    _ => None,
                };
                let mut iter_s = Vec::with_capacity(result.history.len());
                let mut last = 0.0;
                for rec in &result.history {
                    iter_s.push(rec.elapsed_s - last);
                    last = rec.elapsed_s;
                }
                JobRun {
                    mask: result.mask,
                    costs,
                    iterations: result.iterations,
                    coarse_iterations: result.coarse_iterations,
                    iter_s,
                    tiles: None,
                    stopped,
                    metrics,
                }
            }
            JobDetail::Tiled { mask, stats } => JobRun {
                mask,
                costs: None,
                iterations: 0,
                coarse_iterations: 0,
                iter_s: Vec::new(),
                tiles: Some(TileCounts {
                    tiles: stats.tiles,
                    warm: stats.warm,
                    full_iterations: stats.full_iterations(),
                }),
                stopped: stopped || stats.unfinished > 0,
                metrics,
            },
        }
    }

    /// One job through `Engine::submit`, with telemetry off.
    pub fn submit(&self, clip: &Clip, tag: &str) -> Result<JobRun, String> {
        let spec = self.spec(clip, self.shape.iterations, false, tag)?;
        let outcome = self
            .engine
            .submit(&spec)
            .map_err(|e| format!("{}: {e}", clip.label))?;
        Ok(self.finish(outcome, tag))
    }

    /// The first simulation of every optical condition the workload
    /// uses: a one-iteration job and its scoring. It bypasses the
    /// warm-start cache, so it leaves no entry behind.
    pub fn probe(&self, clip: &Clip) -> Result<(), String> {
        let mut spec = self.spec(clip, 1, false, "probe")?;
        spec.warm_start = None;
        let outcome = self
            .engine
            .submit(&spec)
            .map_err(|e| format!("probe: {e}"))?;
        let run = self.finish(outcome, "probe");
        self.evaluate(clip, &run.mask);
        Ok(())
    }

    /// Scores `mask` with the engine's shared f64 scorer.
    pub fn evaluate(&self, clip: &Clip, mask: &Grid<f64>) -> Quality {
        let eval = self.scorer.evaluate(mask, &clip.layout, &clip.target);
        Quality {
            epe: eval.epe.violations,
            pvb_nm2: eval.pvb_area_nm2,
            shapes: eval.shapes.total(),
        }
    }

    /// The PVB-aware cost (paper Eq. (14), PVB weight 1) of `mask` and of
    /// the unoptimized target, whole field at f64, so every workload is
    /// costed alike whatever its loop precision, schedule or tiling.
    pub fn field_costs(&self, clip: &Clip, mask: &Grid<f64>) -> Result<(f64, f64), String> {
        let sim = self
            .replay_sims()?
            .as_ref()
            .expect("built on first use")
            .f64_sim
            .clone();
        let target = clip.target.binarize(0.5);
        let before = lsopc_litho::cost_only(&sim, &target, &target, 1.0).total();
        let after = lsopc_litho::cost_only(&sim, mask, &target, 1.0).total();
        Ok((before, after))
    }

    /// A session that feeds a job-scoped registry and a gauge sink.
    pub fn tracer(&self) -> Tracer {
        let gauges = Arc::new(GaugeSink::default());
        let session = self.engine.session().with_sink(gauges.clone());
        Tracer { session, gauges }
    }

    /// One job through `Session::submit` with `JobMetrics` collected.
    pub fn submit_traced(&self, tracer: &Tracer, clip: &Clip, tag: &str) -> Result<JobRun, String> {
        let spec = self.spec(clip, self.shape.iterations, true, tag)?;
        let outcome = tracer
            .session
            .submit(&spec)
            .map_err(|e| format!("{}: {e}", clip.label))?;
        Ok(self.finish(outcome, tag))
    }

    fn replay_sims(&self) -> Result<std::sync::MutexGuard<'_, Option<ReplaySims>>, String> {
        let mut guard = self.replay.lock().expect("replay simulators poisoned");
        if guard.is_none() {
            *guard = Some(ReplaySims::build(&self.shape, &self.caches, self.lanes())?);
        }
        Ok(guard)
    }

    /// Replays a whole-field job through the optimizer on a simulator
    /// whose backend times every call. Backend calls are recorded as
    /// spans under `parent`; the program's own spans land in a registry
    /// scoped over the replay.
    pub fn replay(
        &self,
        clip: &Clip,
        tag: &str,
        rec: &Arc<Recorder>,
        parent: u64,
    ) -> Result<Replay, String> {
        if self.shape.tile.is_some() {
            return Err("tiled jobs are not replayed".into());
        }
        let guard = self.replay_sims()?;
        let sims = guard.as_ref().expect("built above");
        sims.timing.attach(rec.clone(), parent);
        let schedule = if self.shape.auto_schedule {
            ResolutionSchedule::auto(
                self.shape.grid,
                &optics(self.shape.kernels),
                self.shape.iterations,
            )
        } else {
            None
        };
        // Mirrors the optimizer the engine builds for a JobSpec with the
        // same fields.
        let defaults = JobSpec::new(Grid::new(1, 1, 0.0));
        let ilt = LevelSetIlt::builder()
            .max_iterations(self.shape.iterations)
            .pvb_weight(defaults.pvb_weight)
            .recovery(defaults.recovery)
            .schedule(schedule)
            .build();
        let control = self.control(tag);
        let registry = Arc::new(MetricsRegistry::new());
        let started = Instant::now();
        let result = lsopc_trace::with_scoped_sink(registry.clone(), || {
            if self.shape.single_precision {
                let target = clip.target.map(|&v| v as f32);
                optimize_replay(&ilt, &sims.f32_sim, &target, &control).map(|r| r.to_f64())
            } else {
                optimize_replay(&ilt, &sims.f64_sim, &clip.target, &control)
            }
        });
        let wall_s = started.elapsed().as_secs_f64();
        sims.timing.detach();
        let _ = std::fs::remove_file(self.checkpoint_path(tag));
        let result = result.map_err(|e| format!("replay {}: {e}", clip.label))?;
        Ok(Replay {
            mask: result.mask,
            wall_s,
            iterations: result.iterations,
            coarse_iterations: result.coarse_iterations,
            levelset_s: registry_total(&registry, "", is_levelset),
            checkpoint_s: registry_total(&registry, "", |leaf| leaf == "checkpoint.write"),
            coarse_backend_s: registry_total(&registry, "optimize.stage.coarse", |leaf| {
                leaf.starts_with("backend.")
            }),
            line_search_calls: registry
                .span_paths()
                .iter()
                .filter(|p| leaf(p) == "optimize.line_search")
                .filter_map(|p| registry.span_histogram(p))
                .map(|h| h.count())
                .sum(),
        })
    }
}

/// The result of [`Runner::replay`].
pub struct Replay {
    pub mask: Grid<f64>,
    pub wall_s: f64,
    pub iterations: usize,
    pub coarse_iterations: usize,
    /// Outermost `levelset.*` spans (SDF, CFL, evolve, reinit, upsample).
    pub levelset_s: f64,
    pub checkpoint_s: f64,
    /// Backend time of the coarse stage, whose simulator the optimizer
    /// builds itself, out of the timing wrapper's reach.
    pub coarse_backend_s: f64,
    pub line_search_calls: u64,
}

// The single call into the optimizer outside the engine.
fn optimize_replay<T: Scalar>(
    ilt: &LevelSetIlt,
    sim: &LithoSimulator<T>,
    target: &Grid<T>,
    control: &RunControl,
) -> Result<lsopc_core::IltResult<T>, lsopc_core::OptimizeError> {
    ilt.optimize_controlled(sim, target, control)
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Summed seconds of spans whose leaf matches and that have no matching
/// ancestor, so nested calls are not counted twice. `under` restricts
/// the sum to paths through that span ("" for all).
fn outermost_total<'a>(
    spans: impl Iterator<Item = (&'a str, u64)>,
    under: &str,
    matches: impl Fn(&str) -> bool,
) -> f64 {
    spans
        .filter(|(p, _)| under.is_empty() || p.split('/').any(|c| c == under))
        .filter(|(p, _)| {
            let parts: Vec<&str> = p.split('/').collect();
            let (last, ancestors) = parts.split_last().expect("span paths are non-empty");
            matches(last) && !ancestors.iter().any(|a| matches(a))
        })
        .map(|(_, ns)| ns as f64 * 1e-9)
        .sum()
}

fn registry_total(registry: &MetricsRegistry, under: &str, matches: impl Fn(&str) -> bool) -> f64 {
    let paths: Vec<(String, u64)> = registry
        .span_paths()
        .into_iter()
        .filter_map(|p| registry.span_histogram(&p).map(|h| (p, h.sum())))
        .collect();
    outermost_total(
        paths.iter().map(|(p, ns)| (p.as_str(), *ns)),
        under,
        matches,
    )
}

fn layer_counters(m: &JobMetrics) -> LayerCounters {
    let mut spans: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    // The median of a leaf's busiest path stands for the leaf.
    let mut busiest: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &m.spans {
        let name = leaf(&s.path);
        let entry = spans.entry(name.to_string()).or_insert((0, 0.0, 0.0));
        entry.0 += s.calls;
        entry.1 += s.total_ns as f64 * 1e-9;
        let most = busiest.entry(name).or_insert(0);
        if s.calls > *most {
            *most = s.calls;
            entry.2 = s.p50_ns as f64 * 1e-9;
        }
    }
    LayerCounters {
        spans,
        levelset_s: outermost_total(
            m.spans.iter().map(|s| (s.path.as_str(), s.total_ns)),
            "",
            is_levelset,
        ),
        caches: m
            .caches
            .iter()
            .map(|(k, v)| (k.clone(), (v.hits, v.misses)))
            .collect(),
        checkpoint_bytes: m.checkpoint_bytes,
    }
}

fn is_levelset(leaf: &str) -> bool {
    leaf.starts_with("levelset.")
}

/// A traced session plus the sink that averages the pool gauges.
pub struct Tracer {
    session: Session,
    gauges: Arc<GaugeSink>,
}

impl Tracer {
    /// Mean of every `pool.job.occupancy` and `pool.job.imbalance`
    /// sample seen so far (the registry keeps only the last value).
    pub fn pool_means(&self) -> (f64, f64) {
        let mean = |m: &Mutex<Mean>| m.lock().expect("gauge sink poisoned").value();
        (mean(&self.gauges.occupancy), mean(&self.gauges.imbalance))
    }
}

#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[derive(Default)]
struct GaugeSink {
    occupancy: Mutex<Mean>,
    imbalance: Mutex<Mean>,
}

impl TraceSink for GaugeSink {
    fn event(&self, event: &Event<'_>) {
        let Event::Gauge { name, value } = event else {
            return;
        };
        let slot = match *name {
            "pool.job.occupancy" => &self.occupancy,
            "pool.job.imbalance" => &self.imbalance,
            _ => return,
        };
        let mut mean = slot.lock().expect("gauge sink poisoned");
        mean.sum += value;
        mean.n += 1;
    }
}

/// Replay simulators, built once per runner with warm kernels.
struct ReplaySims {
    timing: Arc<Timing>,
    f64_sim: Arc<LithoSimulator<f64>>,
    f32_sim: Arc<LithoSimulator<f32>>,
}

impl ReplaySims {
    fn build(shape: &JobShape, caches: &Caches, lanes: usize) -> Result<ReplaySims, String> {
        let timing = Arc::new(Timing::default());
        let px = lsopc_engine::pixel_nm(shape.grid);
        let o = optics(shape.kernels);
        let f64_sim = LithoSimulator::<f64>::from_optics(&o, shape.grid, px)
            .map_err(|e| e.to_string())?
            .with_backend(Box::new(Timed::new(lanes, timing.clone())))
            .with_caches(caches.clone());
        let f32_sim = LithoSimulator::<f32>::from_optics(&o, shape.grid, px)
            .map_err(|e| e.to_string())?
            .with_backend(Box::new(Timed::new(lanes, timing.clone())))
            .with_caches(caches.clone());
        let corners = ProcessCorners::iccad2013();
        for c in [corners.nominal, corners.inner, corners.outer] {
            if shape.single_precision {
                let _ = f32_sim.kernels_for(c.defocus_nm);
            } else {
                let _ = f64_sim.kernels_for(c.defocus_nm);
            }
        }
        Ok(ReplaySims {
            timing,
            f64_sim: Arc::new(f64_sim),
            f32_sim: Arc::new(f32_sim),
        })
    }
}

/// Where the timing backend records its calls.
#[derive(Debug, Default)]
struct Timing {
    target: Mutex<Option<Arc<Recorder>>>,
    parent: AtomicU64,
}

impl Timing {
    fn attach(&self, rec: Arc<Recorder>, parent: u64) {
        *self.target.lock().expect("timing target poisoned") = Some(rec);
        self.parent.store(parent, Ordering::SeqCst);
    }

    fn detach(&self) {
        *self.target.lock().expect("timing target poisoned") = None;
    }

    fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let rec = self.target.lock().expect("timing target poisoned").clone();
        match rec {
            Some(rec) => {
                rec.time(name, Some(self.parent.load(Ordering::SeqCst)), f)
                    .0
            }
            None => f(),
        }
    }
}

/// The engine's backend with every call timed.
#[derive(Debug)]
struct Timed {
    inner: AcceleratedBackend,
    timing: Arc<Timing>,
}

impl Timed {
    fn new(lanes: usize, timing: Arc<Timing>) -> Timed {
        Timed {
            inner: AcceleratedBackend::new(lanes),
            timing,
        }
    }
}

impl<T: Scalar> SimBackend<T> for Timed {
    fn name(&self) -> &'static str {
        SimBackend::<T>::name(&self.inner)
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        self.timing
            .time("litho.aerial", || self.inner.aerial_image(kernels, mask))
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        self.timing
            .time("litho.gradient", || self.inner.gradient(kernels, mask, z))
    }

    fn set_caches(&mut self, caches: &lsopc_litho::SimCaches) {
        SimBackend::<T>::set_caches(&mut self.inner, caches);
    }
}

/// Median seconds of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    median_time_on(reps, || (), |()| f())
}

/// Median seconds of `reps` calls of `f`, each on a fresh input from
/// `setup`, which is not timed.
fn median_time_on<I>(reps: usize, mut setup: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            f(input);
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Isolated calls into `fft`, `levelset` and `optics` at the workload's
/// solve grid, K kernels and loop precision. Seconds, by metric name.
pub fn isolated(shape: &JobShape, clip: &Clip, reps: usize) -> BTreeMap<&'static str, f64> {
    if shape.single_precision {
        isolated_t::<f32>(shape, clip, reps)
    } else {
        isolated_t::<f64>(shape, clip, reps)
    }
}

fn isolated_t<T: Scalar>(
    shape: &JobShape,
    clip: &Clip,
    reps: usize,
) -> BTreeMap<&'static str, f64> {
    let n = shape.solve_px();
    let field_nm = lsopc_engine::FIELD_NM * n as f64 / shape.grid as f64;
    let mut out = BTreeMap::new();
    let plans = PlanCache::new();
    let plan = plans.plan_t::<T>(n, n);
    let rplan = plans.rplan_t::<T>(n, n);
    let window = clip.target.window(0, 0, n, n);
    let real = window.map(|&v| T::from_f64(v));
    let complex = real.map(|&v| Complex::new(v, T::ZERO));

    out.insert(
        "fft.forward",
        median_time_on(
            reps,
            || complex.clone(),
            |mut g| {
                plan.forward(&mut g);
                std::hint::black_box(&g);
            },
        ),
    );
    out.insert(
        "fft.rfft_forward",
        median_time(reps, || {
            std::hint::black_box(rplan.forward(&real));
        }),
    );
    // The optical band: the kernel support around DC, wrapped.
    let o = optics(shape.kernels).with_field_nm(field_nm);
    let half = o.support_size() / 2;
    let cols: Vec<usize> = (0..=half).chain(n - half..n).collect();
    let bands: Vec<&[usize]> = vec![&cols; shape.kernels];
    out.insert(
        "fft.inverse_band_batch",
        median_time_on(
            reps,
            || vec![complex.clone(); shape.kernels],
            |mut grids| {
                plan.inverse_band_batch(&mut grids, &bands);
                std::hint::black_box(&grids);
            },
        ),
    );

    let psi = lsopc_levelset::signed_distance(&real);
    out.insert(
        "levelset.sdf",
        median_time(reps, || {
            std::hint::black_box(lsopc_levelset::signed_distance(&real));
        }),
    );
    let velocity = psi.map(|&v| T::from_f64((v.to_f64() * 0.37).sin()));
    out.insert(
        "levelset.cfl",
        median_time(reps, || {
            std::hint::black_box(lsopc_levelset::cfl_time_step(&velocity, 1.0));
        }),
    );
    out.insert(
        "levelset.evolve",
        median_time_on(
            reps,
            || psi.clone(),
            |mut p| {
                lsopc_levelset::evolve(&mut p, &velocity, 0.1);
                std::hint::black_box(&p);
            },
        ),
    );
    let coarse = window.downsample(2).binarize(0.5).map(|&v| T::from_f64(v));
    let coarse = lsopc_levelset::signed_distance(&coarse);
    out.insert(
        "levelset.upsample",
        median_time(reps, || {
            std::hint::black_box(lsopc_levelset::upsample_levelset(&coarse, 2));
        }),
    );
    // Kernel generation for each distinct defocus of the process corners.
    let corners = ProcessCorners::iccad2013();
    let mut defocus: Vec<f64> = vec![
        corners.nominal.defocus_nm,
        corners.inner.defocus_nm,
        corners.outer.defocus_nm,
    ];
    defocus.sort_by(f64::total_cmp);
    defocus.dedup();
    let t = Instant::now();
    for d in &defocus {
        std::hint::black_box(o.kernels_t::<T>(*d));
    }
    out.insert("optics.kernel_gen", t.elapsed().as_secs_f64());
    out
}

/// Bytes of one complex element at the loop precision.
pub fn complex_bytes(shape: &JobShape) -> usize {
    if shape.single_precision {
        std::mem::size_of::<Complex<f32>>()
    } else {
        std::mem::size_of::<Complex<f64>>()
    }
}
