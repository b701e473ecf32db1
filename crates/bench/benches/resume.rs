//! Checkpointing overhead and kill/resume fidelity at the paper's
//! 1024² / K = 24 configuration.
//!
//! Three questions from DESIGN.md §15, measured on a dense-wire target:
//!
//! 1. What does periodic checkpointing cost per iteration? The
//!    per-write cost (state widening + serialization + atomic write)
//!    is measured directly from the `checkpoint.write` trace span —
//!    single-shot wall-clock differences at this scale carry a few
//!    percent of page-cache/scheduler noise, the same order as the
//!    signal, so the end-to-end deltas are reported but the budget is
//!    gated on the span measurement. The default `--checkpoint-every
//!    10` must keep the measured write time under the 2 % of-run
//!    budget — that budget is what sized the default: at every-5 the
//!    pre-optimization write path measured 3.5 % end to end on this
//!    host. The every-iteration worst case (~34 MB per write at 1024²)
//!    is reported honestly even where it exceeds the budget.
//! 2. What does a kill/resume round trip cost end to end? A run killed
//!    at the halfway boundary plus its resumed second half, versus the
//!    uninterrupted run, with the `checkpoint.load` span cost called
//!    out separately.
//! 3. Is the resumed mask really the baseline mask? Asserted bitwise
//!    here (the fuller sweep lives in `tests/resume_identity.rs`).
//!
//! Writes `BENCH_resume.json` to the workspace root. `cargo test` runs
//! this harness with `--test`: a small smoke configuration that asserts
//! the mechanisms engage and writes no JSON (timing asserts are skipped
//! — smoke runs are too short to time meaningfully).

use lsopc_core::{CheckpointSpec, IltResult, LevelSetIlt, RunControl, StopReason};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;
use lsopc_trace::MemorySink;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    /// Grid side, px. The 2048 nm field fixes `pixel_nm`.
    n: usize,
    /// Kernel rank.
    k: usize,
    /// Iteration budget per run.
    iters: usize,
}

impl Config {
    fn pixel_nm(&self) -> f64 {
        lsopc_benchsuite::FIELD_NM as f64 / self.n as f64
    }
}

fn sim(cfg: &Config) -> LithoSimulator {
    LithoSimulator::from_optics(
        &OpticsConfig::iccad2013().with_kernel_count(cfg.k),
        cfg.n,
        cfg.pixel_nm(),
    )
    .expect("valid configuration")
    .with_accelerated_backend(1)
}

/// Dense vertical wires: enough structure that every iteration does
/// real work, with no dependence on layout files.
fn target(cfg: &Config) -> Grid<f64> {
    let n = cfg.n;
    Grid::from_fn(n, n, |x, y| {
        let period = n / 8;
        let in_wire = (x % period) >= period / 4 && (x % period) < period / 2;
        if in_wire && (n / 8..7 * n / 8).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn ck_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsopc_bench_resume_{}_{name}", std::process::id()))
}

/// One timed run under `control`, traced through an in-memory sink so
/// the checkpoint spans can be read back. Every run (baseline included)
/// carries the same tracing, so walls stay comparable.
fn run(
    cfg: &Config,
    opt: &LevelSetIlt,
    tgt: &Grid<f64>,
    control: &RunControl,
) -> (f64, IltResult, lsopc_trace::ProfileReport) {
    let sim = sim(cfg);
    let sink = Arc::new(MemorySink::new());
    lsopc_trace::install(sink.clone());
    let t = Instant::now();
    let result = opt.optimize(&sim, tgt, control);
    let wall = t.elapsed().as_secs_f64();
    lsopc_trace::uninstall();
    (wall, result.expect("bench run"), sink.report())
}

/// Sums `(calls, total seconds)` over every span path ending in `leaf`
/// (checkpoint spans nest under the optimizer's iteration spans).
fn span_cost(report: &lsopc_trace::ProfileReport, leaf: &str) -> (u64, f64) {
    report
        .spans
        .iter()
        .filter(|s| s.path == leaf || s.path.ends_with(&format!("/{leaf}")))
        .fold((0, 0.0), |(c, t), s| {
            (c + s.calls, t + s.total_ns as f64 / 1e9)
        })
}

fn assert_masks_match(a: &IltResult, b: &IltResult, what: &str) {
    for (i, (va, vb)) in a.mask.as_slice().iter().zip(b.mask.as_slice()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: mask pixel {i} differs");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let cfg = if smoke {
        // Twelve iterations so the default every-10 interval fires at
        // least once (completed runs don't write a redundant final
        // checkpoint).
        Config {
            n: 256,
            k: 4,
            iters: 12,
        }
    } else {
        Config {
            n: 1024,
            k: 24,
            iters: 12,
        }
    };
    let tgt = target(&cfg);
    let opt = LevelSetIlt::builder().max_iterations(cfg.iters).build();

    // 1. Baseline: no checkpointing. Two timed runs, keeping the faster
    //    one — single-shot walls at this scale carry a few percent of
    //    page-cache/scheduler noise.
    let (wall_a, baseline, _) = run(&cfg, &opt, &tgt, &RunControl::new());
    let (wall_b, _, _) = run(&cfg, &opt, &tgt, &RunControl::new());
    let wall_off = wall_a.min(wall_b);
    println!(
        "checkpoint off     wall={:.3}s ({:.4}s/iter)",
        wall_off,
        wall_off / cfg.iters as f64
    );

    // 2. Periodic checkpointing at every iteration and at the default
    //    interval (10). `write_pct` is the span-measured write time as
    //    a fraction of the baseline wall (the budgeted number);
    //    `delta_pct` is the noisy end-to-end difference.
    let mut rows = Vec::new();
    for every in [1usize, 10] {
        let ck = ck_path(&format!("every{every}.lsckpt"));
        std::fs::remove_file(&ck).ok();
        let control = RunControl::new().with_checkpoint(CheckpointSpec::new(&ck, every));
        let (wall, result, report) = run(&cfg, &opt, &tgt, &control);
        assert!(ck.exists(), "every={every}: checkpoint on disk");
        assert_masks_match(&baseline, &result, "checkpointing must only observe");
        let (writes, write_s) = span_cost(&report, "checkpoint.write");
        assert!(writes > 0, "every={every}: checkpoint.write span recorded");
        let ck_bytes = std::fs::metadata(&ck).map(|m| m.len()).unwrap_or(0);
        let write_pct = write_s / wall_off * 100.0;
        let delta_pct = (wall - wall_off) / wall_off * 100.0;
        println!(
            "checkpoint every={every} wall={wall:.3}s writes={writes}x{:.1}ms \
             write={write_pct:+.2}% (end-to-end {delta_pct:+.2}%) file={:.1}MB",
            write_s / writes as f64 * 1e3,
            ck_bytes as f64 / 1e6
        );
        rows.push((every, wall, writes, write_s, write_pct, delta_pct, ck_bytes));
        std::fs::remove_file(ck).ok();
    }

    // 3. Kill at the halfway boundary, resume, compare end-to-end cost
    //    and final-mask bits against the uninterrupted run.
    let ck = ck_path("kill.lsckpt");
    std::fs::remove_file(&ck).ok();
    let kill_at = cfg.iters / 2;
    let control = RunControl::new()
        .with_iteration_budget(kill_at)
        .with_checkpoint(CheckpointSpec::new(&ck, 10));
    let (wall_killed, killed, _) = run(&cfg, &opt, &tgt, &control);
    assert_eq!(killed.stopped, Some(StopReason::Budget));
    let (wall_resumed, resumed, resume_report) =
        run(&cfg, &opt, &tgt, &RunControl::new().with_resume(&ck));
    assert!(resumed.stopped.is_none(), "resume runs to completion");
    assert_masks_match(&baseline, &resumed, "kill/resume");
    std::fs::remove_file(&ck).ok();
    let (_, load_s) = span_cost(&resume_report, "checkpoint.load");
    let roundtrip = wall_killed + wall_resumed;
    let penalty_pct = (roundtrip - wall_off) / wall_off * 100.0;
    println!(
        "kill@{kill_at}+resume    wall={roundtrip:.3}s (uninterrupted {wall_off:.3}s, \
         {penalty_pct:+.2}%), load={:.1}ms",
        load_s * 1e3
    );

    if smoke {
        return;
    }

    // The default interval carries the documented per-iteration budget;
    // every-iteration checkpointing is reported but not gated (at 1024²
    // a full-state write is ~34 MB and may legitimately exceed 2 %).
    let every10_write_pct = rows[1].4;
    assert!(
        every10_write_pct < 2.0,
        "default-interval checkpoint write cost {every10_write_pct:.2}% exceeds the 2% budget"
    );

    let entries = rows
        .iter()
        .map(
            |(every, wall, writes, write_s, write_pct, delta_pct, bytes)| {
                format!(
                    concat!(
                        "    {{\"every\": {}, \"wall_s\": {:.4}, \"writes\": {}, ",
                        "\"write_s_total\": {:.4}, \"write_overhead_pct\": {:.3}, ",
                        "\"end_to_end_delta_pct\": {:.3}, \"checkpoint_bytes\": {}}}"
                    ),
                    every, wall, writes, write_s, write_pct, delta_pct, bytes
                )
            },
        )
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"resume\",\n",
            "  \"grid\": {grid},\n",
            "  \"kernels\": {k},\n",
            "  \"pixel_nm\": {px},\n",
            "  \"iterations\": {iters},\n",
            "  \"wall_s_no_checkpoint\": {base:.4},\n",
            "  \"checkpointed\": [\n{entries}\n  ],\n",
            "  \"kill_at\": {kill_at},\n",
            "  \"kill_resume_wall_s\": {roundtrip:.4},\n",
            "  \"kill_resume_penalty_pct\": {penalty:.3},\n",
            "  \"checkpoint_load_s\": {load:.4},\n",
            "  \"resumed_mask_bit_identical\": true\n",
            "}}\n"
        ),
        grid = cfg.n,
        k = cfg.k,
        px = cfg.pixel_nm(),
        iters = cfg.iters,
        base = wall_off,
        entries = entries,
        kill_at = kill_at,
        roundtrip = roundtrip,
        penalty = penalty_pct,
        load = load_s,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resume.json");
    std::fs::write(path, json).expect("write BENCH_resume.json");
    println!("wrote {path}");
}
