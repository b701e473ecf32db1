//! Measurement program of the end-to-end benchmark.
//!
//! `perfbench/run.py` builds and drives this binary; it prints one raw
//! JSON record as its last stdout line, which `run.py` reduces to the
//! metrics named in `BENCHMARK.json`.
//!
//! ```text
//! perfbench measure  --workload W --seed N --seconds S --tmp DIR
//! perfbench trace    --workload W --seed N --tmp DIR
//! perfbench baseline --workload W --seed N --tmp DIR   (LSOPC_THREADS=1)
//! ```

mod adapter;
mod json;
mod reference;
mod spans;

use std::cmp::Ordering;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use adapter::{Clip, JobRun, JobShape, Motif, Quality, Runner};
use json::Json;
use reference::Reference;
use spans::Recorder;

/// Set-up is measured this many times per run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Repetitions of each isolated layer call.
const ISOLATED_REPEATS: usize = 5;
/// Passes of each reference-kernel part per reference time.
const REFERENCE_PASSES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    M1Flat,
    Contacts,
    M1Sched,
}

/// One workload: a job shape and a seeded stream of clips.
struct Workload {
    kind: Kind,
    shape: JobShape,
    /// Period of the job mix; a run stops only at a cycle boundary, so
    /// a mixed workload's mix stays fixed.
    cycle: usize,
    /// Quality and peak memory are taken over this many first jobs, so
    /// they do not depend on how many jobs fit in the run.
    quality_jobs: usize,
    /// Jobs in the traced pass.
    traced_jobs: usize,
    seed: u64,
}

/// The motif vocabulary of the repeated fields.
const MOTIFS: [Motif; 2] = [
    Motif {
        cluster: 3,
        size_nm: 70,
        pitch_nm: 140,
    },
    Motif {
        cluster: 2,
        size_nm: 80,
        pitch_nm: 160,
    },
];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Workload> {
        let base = JobShape {
            grid: 512,
            kernels: 24,
            iterations: 10,
            single_precision: false,
            auto_schedule: false,
            tile: None,
            warm_iterations: 0,
            checkpoint_every: None,
        };
        let (kind, shape, cycle, quality_jobs, traced_jobs) = match name {
            "m1-flat-512" => (
                Kind::M1Flat,
                JobShape {
                    checkpoint_every: Some(10),
                    ..base
                },
                1,
                8,
                2,
            ),
            // Tile geometry and iteration budgets of BENCH_warmstart.json.
            "contacts-tiled-1024" => (
                Kind::Contacts,
                JobShape {
                    grid: 1024,
                    iterations: 9,
                    tile: Some((256, 0)),
                    warm_iterations: 3,
                    ..base
                },
                3,
                6,
                3,
            ),
            "m1-f32-sched-1024" => (
                Kind::M1Sched,
                JobShape {
                    grid: 1024,
                    iterations: 12,
                    single_precision: true,
                    auto_schedule: true,
                    ..base
                },
                1,
                6,
                2,
            ),
            _ => return None,
        };
        Some(Workload {
            kind,
            shape,
            cycle,
            quality_jobs,
            traced_jobs,
            seed,
        })
    }

    fn job_seed(&self, j: usize) -> u64 {
        splitmix(self.seed ^ splitmix(j as u64 + 1))
    }

    /// Job `j` of the stream. A contacts cycle holds each motif once, in
    /// a seeded order, then one irregular array.
    fn clip(&self, j: usize) -> Clip {
        let grid = self.shape.grid;
        match self.kind {
            Kind::M1Flat | Kind::M1Sched => Clip::m1(j % 10, self.job_seed(j), grid),
            Kind::Contacts => match j % 3 {
                2 => Clip::irregular(self.job_seed(j), grid),
                pos => {
                    let flip = (self.job_seed(j / 3 * 3) & 1) as usize;
                    Clip::repeated(MOTIFS[pos ^ flip], grid)
                }
            },
        }
    }

    /// Jobs run before timing starts. The last one repeats job 0 in the
    /// same cache state, so its mask must match job 0's bit for bit.
    fn warmups(&self) -> Vec<Clip> {
        let mut clips = Vec::new();
        if self.kind == Kind::Contacts {
            for m in MOTIFS {
                clips.push(Clip::repeated(m, self.shape.grid));
            }
        }
        clips.push(self.clip(0));
        clips
    }
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        tmp: PathBuf::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--tmp" => args.tmp = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.tmp.as_os_str().is_empty() {
        return Err("missing --tmp".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", args.tmp.display());
        std::process::exit(3);
    }
    let result = match args.mode.as_str() {
        "measure" => measure(&workload, &args),
        "trace" => trace(&workload, &args),
        "baseline" => baseline(&workload, &args),
        other => Err(format!("unknown mode {other}")),
    };
    match result {
        Ok(record) => println!("{}", record.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Process CPU time (user + system) in seconds.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of
    // `struct rusage` on 64-bit Linux (two timevals of two 64-bit
    // fields, then fourteen longs), and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident memory of this process so far (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Checks one finished job; returns why it failed, if it did.
fn check(run: &JobRun, grid: usize) -> Option<String> {
    if !adapter::mask_is_valid(&run.mask, grid) {
        return Some("mask is not a square binary grid of the target's size".into());
    }
    if run.stopped {
        return Some("job stopped early".into());
    }
    if let Some((first, last)) = run.costs {
        if last.partial_cmp(&first) != Some(Ordering::Less) {
            return Some(format!(
                "final cost {last} is not below the initial cost {first}"
            ));
        }
    }
    None
}

/// Builds the engine `SETUP_REPEATS` times, each time through the first
/// simulation of every optical condition; returns the last runner.
fn setup(w: &Workload, args: &Args) -> Result<(Runner, Vec<f64>), String> {
    let clip = w.clip(0);
    let mut times = Vec::new();
    let mut runner = None;
    for _ in 0..SETUP_REPEATS {
        drop(runner.take());
        let t = Instant::now();
        let r = Runner::new(w.shape, &args.tmp)?;
        r.probe(&clip)?;
        times.push(t.elapsed().as_secs_f64());
        runner = Some(r);
    }
    Ok((runner.expect("at least one set-up"), times))
}

/// Runs the warm-up jobs; returns the mask of the last one.
fn warm_up(w: &Workload, runner: &Runner) -> Result<JobRun, String> {
    let mut last = None;
    for (i, clip) in w.warmups().iter().enumerate() {
        let run = runner.submit(clip, &format!("warmup-{i}"))?;
        runner.evaluate(clip, &run.mask);
        last = Some(run);
    }
    Ok(last.expect("at least one warm-up job"))
}

/// One reference lane per CPU the process may use: the lane count of the
/// engine's default pool, which the benchmark does not resize.
fn reference_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn measure(w: &Workload, args: &Args) -> Result<Json, String> {
    // Before set-up, so its fixed buffers are resident through every
    // peak the run reads.
    let mut reference = Reference::new(reference_lanes());
    let (runner, setup_s) = setup(w, args)?;
    let warm_job0 = warm_up(w, &runner)?;

    let mut failures: Vec<String> = Vec::new();
    let mut job_s = Vec::new();
    let mut quality = Quality::default();
    let mut quality_set: Vec<(Clip, JobRun, bool)> = Vec::new();
    let mut rss = f64::NAN;
    let mut attempted = 0usize;
    // Per timed job, its process CPU time; the reference time before the
    // first job and after every job.
    let mut job_cpu_s = Vec::new();
    let mut ref_s = vec![reference.time_s(REFERENCE_PASSES)];

    let start = Instant::now();
    let mut j = 0;
    loop {
        let clip = w.clip(j);
        let cpu = cpu_seconds();
        let t = Instant::now();
        let result = runner.submit(&clip, &format!("job-{j}")).map(|run| {
            let q = runner.evaluate(&clip, &run.mask);
            (run, q)
        });
        let secs = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu;
        ref_s.push(reference.time_s(REFERENCE_PASSES));
        attempted += 1;
        match result {
            Err(e) => failures.push(e),
            Ok((run, q)) => {
                job_s.push(secs);
                job_cpu_s.push(cpu);
                let mut failure = check(&run, w.shape.grid);
                if failure.is_none() && j == 0 && !adapter::same_bits(&run.mask, &warm_job0.mask) {
                    failure = Some("resubmitted job gave a different mask".into());
                }
                let passed = failure.is_none();
                if let Some(why) = failure {
                    failures.push(format!("{}: {why}", clip.label));
                }
                if j < w.quality_jobs {
                    quality.epe += q.epe;
                    quality.pvb_nm2 += q.pvb_nm2;
                    quality.shapes += q.shapes;
                    quality_set.push((clip, run, passed));
                }
            }
        }
        j += 1;
        if j == w.quality_jobs {
            rss = peak_rss_mib() - reference.resident_mib();
        }
        if start.elapsed().as_secs_f64() >= args.seconds && j >= w.quality_jobs && j % w.cycle == 0
        {
            break;
        }
    }

    // Cost of the final masks against the unoptimized targets, outside
    // the timed loop.
    let (mut cost_before, mut cost_after) = (0.0, 0.0);
    for (clip, run, passed) in &quality_set {
        let (before, after) = runner.field_costs(clip, &run.mask)?;
        if *passed && after.partial_cmp(&before) != Some(Ordering::Less) {
            failures.push(format!(
                "{}: mask cost {after} is not below the target's {before}",
                clip.label
            ));
        }
        cost_before += before;
        cost_after += after;
    }

    let mut out = Json::obj();
    out.set("lanes", runner.lanes())
        .set("setup_s", setup_s)
        .set("job_s", job_s)
        .set("job_cpu_s", job_cpu_s)
        .set("ref_s", ref_s)
        .set("attempted", attempted)
        .set(
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        )
        .set("peak_rss_mib", rss)
        .set("epe_violations", quality.epe)
        .set("pvb_nm2", quality.pvb_nm2)
        .set("shape_violations", quality.shapes)
        .set("final_cost_ratio", cost_after / cost_before)
        .set(
            "inputs",
            Json::Arr(
                quality_set
                    .iter()
                    .map(|(c, _, _)| Json::Str(format!("{:016x}", c.fingerprint())))
                    .collect(),
            ),
        );
    Ok(out)
}

/// One traced job: engine submit and scoring inside benchmark spans,
/// then (whole-field jobs) a replay through the timing backend.
fn traced_job(
    w: &Workload,
    runner: &Runner,
    tracer: &adapter::Tracer,
    rec: &Arc<Recorder>,
    j: usize,
    failures: &mut Vec<String>,
) -> Result<Json, String> {
    let clip = w.clip(j);
    let tag = format!("traced-{j}");
    let job = rec.open("job", None);
    let (run, submit_s) = rec.time("engine.submit", Some(job.id()), || {
        runner.submit_traced(tracer, &clip, &tag)
    });
    let run = run?;
    let (q, eval_s) = rec.time("metrics.evaluate", Some(job.id()), || {
        runner.evaluate(&clip, &run.mask)
    });
    let job_s = rec.close(job);
    let mut failure = check(&run, w.shape.grid);
    let mut out = Json::obj();
    out.set("job_s", job_s)
        .set("epe_violations", q.epe)
        .set("shape_violations", q.shapes)
        .set("submit_s", submit_s)
        .set("evaluate_s", eval_s)
        .set("iterations", run.iterations)
        .set("coarse_iterations", run.coarse_iterations)
        .set("iter_s", run.iter_s.clone());
    if let Some(t) = run.tiles {
        out.set("tiles", t.tiles)
            .set("warm_tiles", t.warm)
            .set("tile_iterations", t.full_iterations);
    }
    if let Some(m) = &run.metrics {
        let mut spans = Json::obj();
        for (name, (calls, total, p50)) in &m.spans {
            spans.set(
                name,
                Json::Arr(vec![Json::Int(*calls), Json::Num(*total), Json::Num(*p50)]),
            );
        }
        let mut caches = Json::obj();
        for (name, (hits, misses)) in &m.caches {
            caches.set(name, Json::Arr(vec![Json::Int(*hits), Json::Int(*misses)]));
        }
        out.set("spans", spans)
            .set("levelset_s", m.levelset_s)
            .set("caches", caches)
            .set("checkpoint_bytes", m.checkpoint_bytes);
    }
    if w.shape.tile.is_none() {
        let replay_span = rec.open("replay", None);
        let replay = runner.replay(&clip, &format!("replay-{j}"), rec, replay_span.id());
        let replay_id = replay_span.id();
        rec.close(replay_span);
        let replay = replay?;
        if failure.is_none() && !adapter::same_bits(&replay.mask, &run.mask) {
            failure = Some("replayed mask differs from the engine mask".into());
        }
        let mut r = Json::obj();
        r.set("span", replay_id)
            .set("wall_s", replay.wall_s)
            .set("iterations", replay.iterations)
            .set("coarse_iterations", replay.coarse_iterations)
            .set("levelset_s", replay.levelset_s)
            .set("checkpoint_s", replay.checkpoint_s)
            .set("coarse_backend_s", replay.coarse_backend_s)
            .set("line_search_calls", replay.line_search_calls);
        out.set("replay", r);
    }
    if let Some(why) = failure {
        failures.push(format!("{}: {why}", clip.label));
    }
    Ok(out)
}

fn trace(w: &Workload, args: &Args) -> Result<Json, String> {
    let rec = Arc::new(Recorder::new());
    let clip0 = w.clip(0);
    // The extra cost of the first job on a fresh engine: the same probe
    // job on a cold and then a warm engine.
    let runner = Runner::new(w.shape, &args.tmp)?;
    let t = Instant::now();
    runner.probe(&clip0)?;
    let cold_probe_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    runner.probe(&clip0)?;
    let warm_probe_s = t.elapsed().as_secs_f64();
    warm_up(w, &runner)?;

    let mut failures = Vec::new();
    let n = w.traced_jobs;
    // Untraced pass over jobs 0..n, traced pass over the next n jobs
    // (fresh inputs, so the warm-start cache sees each field once).
    let t = Instant::now();
    for j in 0..n {
        let clip = w.clip(j);
        let run = runner.submit(&clip, &format!("untraced-{j}"))?;
        runner.evaluate(&clip, &run.mask);
        if let Some(why) = check(&run, w.shape.grid) {
            failures.push(format!("{}: {why}", clip.label));
        }
    }
    let untraced_s = t.elapsed().as_secs_f64();
    let reference_s = Reference::new(reference_lanes()).time_s(REFERENCE_PASSES);
    let tracer = runner.tracer();
    let mut jobs = Vec::new();
    for j in n..2 * n {
        jobs.push(traced_job(w, &runner, &tracer, &rec, j, &mut failures)?);
    }
    let (occupancy, imbalance) = tracer.pool_means();

    let isolated = adapter::isolated(&w.shape, &clip0, ISOLATED_REPEATS);
    let mut iso = Json::obj();
    for (k, v) in &isolated {
        iso.set(k, *v);
    }
    let spans: Vec<Json> = rec
        .take()
        .into_iter()
        .map(|s| {
            let mut o = Json::obj();
            o.set("id", s.id)
                .set("parent", s.parent.map_or(Json::Int(0), Json::Int))
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("lane", s.lane);
            o
        })
        .collect();
    let mut out = Json::obj();
    out.set("lanes", runner.lanes())
        .set("solve_px", w.shape.solve_px())
        .set("kernels", w.shape.kernels)
        .set("complex_bytes", adapter::complex_bytes(&w.shape))
        .set("cold_probe_s", cold_probe_s)
        .set("warm_probe_s", warm_probe_s)
        .set("untraced_s", untraced_s)
        .set("untraced_jobs", n)
        .set("reference_s", reference_s)
        .set("jobs", Json::Arr(jobs))
        .set("occupancy", occupancy)
        .set("imbalance", imbalance)
        .set("isolated", iso)
        .set("spans", Json::Arr(spans))
        .set("attempted", 2 * n)
        .set(
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        );
    Ok(out)
}

/// The first traced job again, in a process whose pool has one lane.
fn baseline(w: &Workload, args: &Args) -> Result<Json, String> {
    if std::env::var("LSOPC_THREADS").as_deref() != Ok("1") {
        return Err("the baseline runs only with LSOPC_THREADS=1".into());
    }
    let rec = Arc::new(Recorder::new());
    let runner = Runner::new(w.shape, &args.tmp)?;
    let j = w.traced_jobs;
    let clip = w.clip(j);
    runner.probe(&clip)?;
    let wall_s = if w.shape.tile.is_none() {
        let span = rec.open("replay", None);
        let replay = runner.replay(&clip, "baseline", &rec, span.id());
        rec.close(span);
        replay?.wall_s
    } else {
        warm_up(w, &runner)?;
        let t = Instant::now();
        runner.submit(&clip, "baseline")?;
        t.elapsed().as_secs_f64()
    };
    let mut out = Json::obj();
    out.set("lanes", runner.lanes()).set("wall_s", wall_s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(name: &str, seed: u64, jobs: usize) -> Vec<u64> {
        let w = Workload::new(name, seed).expect("known workload");
        (0..jobs).map(|j| w.clip(j).fingerprint()).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for name in ["m1-flat-512", "contacts-tiled-1024"] {
            assert_eq!(fingerprints(name, 5, 3), fingerprints(name, 5, 3), "{name}");
        }
    }

    #[test]
    fn another_seed_gives_other_layouts() {
        let a = fingerprints("m1-flat-512", 5, 2);
        let b = fingerprints("m1-flat-512", 6, 2);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        // Contacts: the irregular array of each cycle follows the seed.
        let a = fingerprints("contacts-tiled-1024", 5, 3);
        let b = fingerprints("contacts-tiled-1024", 6, 3);
        assert_ne!(a[2], b[2]);
    }

    #[test]
    fn contacts_cycle_holds_each_motif_once_then_an_irregular_field() {
        let w = Workload::new("contacts-tiled-1024", 3).expect("known workload");
        let motifs: Vec<u64> = MOTIFS
            .iter()
            .map(|m| Clip::repeated(*m, 1024).fingerprint())
            .collect();
        for cycle in 0..3 {
            let mut seen = [
                w.clip(3 * cycle).fingerprint(),
                w.clip(3 * cycle + 1).fingerprint(),
            ];
            seen.sort_unstable();
            let mut expected = motifs.clone();
            expected.sort_unstable();
            assert_eq!(seen.to_vec(), expected);
            assert!(!motifs.contains(&w.clip(3 * cycle + 2).fingerprint()));
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(Workload::new("m1-flat-256", 1).is_none());
    }

    #[test]
    fn json_escapes_and_marks_non_finite_numbers() {
        let mut o = Json::obj();
        o.set("s", "a\"b\\c\n").set("x", f64::NAN).set("n", 3usize);
        assert_eq!(o.render(), r#"{"s":"a\"b\\c\u000a","x":null,"n":3}"#);
    }
}
