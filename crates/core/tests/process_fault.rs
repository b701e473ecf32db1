//! Process-level fault drills: cancellation fired from *inside* the
//! evaluation pipeline, corrupted/truncated checkpoint files, and
//! damaged on-disk warm-start entries. Every case must degrade
//! gracefully — a typed error or a warned cache miss — never a panic,
//! never silent corruption.
//!
//! Runs only with the `fault-injection` feature
//! (`cargo test -p lsopc-core --features fault-injection`).
#![cfg(feature = "fault-injection")]

use lsopc_core::{
    fingerprint, CancelToken, CheckpointSpec, IltResult, LevelSetIlt, OptimizeError, RunControl,
    StopReason, WarmStartCache,
};
use lsopc_grid::Grid;
use lsopc_litho::{LithoSimulator, ScriptedCancel};
use lsopc_optics::OpticsConfig;
use std::path::PathBuf;
use std::sync::Arc;

const ITERS: usize = 8;

fn clean_sim() -> LithoSimulator {
    LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
        .expect("valid configuration")
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

fn optimizer() -> LevelSetIlt {
    LevelSetIlt::builder().max_iterations(ITERS).build()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsopc_pfault_{}_{name}", std::process::id()))
}

fn assert_bit_identical(a: &IltResult, b: &IltResult, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iteration count");
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(
            ra.cost_total.to_bits(),
            rb.cost_total.to_bits(),
            "{what}: iter {} cost",
            ra.iteration
        );
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

/// A cancellation fired from inside the cost/gradient evaluation (the
/// worst place: mid-iteration, mid-pipeline) still stops at the next
/// iteration boundary with a final checkpoint, and the resume picks up
/// the trajectory bit-for-bit.
#[test]
fn mid_evaluation_cancel_checkpoints_and_resumes_bit_identically() {
    let target = wire_target();
    let ilt = optimizer();
    let baseline = ilt
        .optimize(&clean_sim(), &target, &RunControl::new())
        .expect("uninterrupted baseline");

    for k in [0, 3, ITERS - 2] {
        let ck = tmp_path(&format!("cancel_k{k}.lsckpt"));
        std::fs::remove_file(&ck).ok();
        let token = CancelToken::new();
        let sim = clean_sim().with_fault_injector(Arc::new(ScriptedCancel::new(
            k,
            token.clone(),
            StopReason::External,
        )));
        let control = RunControl::new()
            .with_cancel(token)
            .with_checkpoint(CheckpointSpec::new(&ck, 1));
        let killed = ilt
            .optimize(&sim, &target, &control)
            .expect("cancelled run is graceful");
        assert_eq!(killed.stopped, Some(StopReason::External), "k={k}");
        assert!(
            killed.iterations <= k + 1,
            "k={k}: stopped at the next boundary, not later (ran {})",
            killed.iterations
        );
        assert!(ck.exists(), "k={k}: final checkpoint written");

        // The injector never touched the numbers, so the resumed run
        // must land exactly on the uninterrupted trajectory.
        let resumed = ilt
            .optimize(&clean_sim(), &target, &RunControl::new().with_resume(&ck))
            .expect("resume runs");
        assert_bit_identical(&baseline, &resumed, &format!("cancel k={k}"));
        std::fs::remove_file(ck).ok();
    }
}

/// Produces one valid checkpoint file to corrupt.
fn valid_checkpoint(name: &str) -> (PathBuf, Vec<u8>) {
    let ck = tmp_path(name);
    std::fs::remove_file(&ck).ok();
    let control = RunControl::new()
        .with_iteration_budget(3)
        .with_checkpoint(CheckpointSpec::new(&ck, 1));
    optimizer()
        .optimize(&clean_sim(), &wire_target(), &control)
        .expect("checkpointed run");
    let bytes = std::fs::read(&ck).expect("checkpoint bytes");
    (ck, bytes)
}

fn resume_err(ck: &std::path::Path) -> OptimizeError {
    optimizer()
        .optimize(
            &clean_sim(),
            &wire_target(),
            &RunControl::new().with_resume(ck),
        )
        .expect_err("corrupt checkpoint must be rejected")
}

/// Truncating a checkpoint at any point — inside the magic, the header,
/// or the payload — yields a typed checkpoint error, never a panic or
/// an over-allocation.
#[test]
fn truncated_checkpoints_are_rejected_not_panics() {
    let (ck, bytes) = valid_checkpoint("trunc.lsckpt");
    assert!(bytes.len() > 28, "sanity: framed file has header + payload");
    let cuts = [
        0,
        1,
        7,
        8,
        11,
        12,
        19,
        20,
        27,
        28,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for cut in cuts {
        std::fs::write(&ck, &bytes[..cut]).expect("write truncation");
        let err = resume_err(&ck);
        assert!(
            matches!(err, OptimizeError::Checkpoint { .. }),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
    std::fs::remove_file(ck).ok();
}

/// Flipping any single byte — magic, version, length, checksum, or
/// payload — is caught (checksum or field validation) and rejected.
#[test]
fn corrupted_checkpoint_bytes_are_rejected_not_panics() {
    let (ck, bytes) = valid_checkpoint("flip.lsckpt");
    // Every header byte, plus a sample of payload offsets.
    let mut offsets: Vec<usize> = (0..28.min(bytes.len())).collect();
    offsets.extend(
        (0..16)
            .map(|i| 28 + i * ((bytes.len() - 29).max(1) / 16))
            .filter(|&o| o < bytes.len()),
    );
    for off in offsets {
        let mut dmg = bytes.clone();
        dmg[off] ^= 0x40;
        std::fs::write(&ck, &dmg).expect("write corruption");
        let err = resume_err(&ck);
        assert!(
            matches!(err, OptimizeError::Checkpoint { .. }),
            "flip at {off}: unexpected error {err:?}"
        );
    }
    std::fs::remove_file(ck).ok();
}

/// A checkpoint from a different configuration (here: different
/// iteration cap) is refused by the config hash, not silently resumed.
#[test]
fn checkpoint_from_other_configuration_is_refused() {
    let (ck, _) = valid_checkpoint("confighash.lsckpt");
    let other = LevelSetIlt::builder().max_iterations(ITERS + 1).build();
    let err = other
        .optimize(
            &clean_sim(),
            &wire_target(),
            &RunControl::new().with_resume(&ck),
        )
        .expect_err("mismatched configuration");
    assert!(matches!(err, OptimizeError::Checkpoint { .. }), "{err:?}");
    assert!(
        err.to_string().contains("configuration"),
        "message names the mismatch: {err}"
    );
    std::fs::remove_file(ck).ok();
}

/// A truncated on-disk warm-start entry (a crash mid-write before the
/// atomic rename existed, or disk damage) is a warned miss: a fresh
/// cache over the same directory simply re-solves, it never panics and
/// never loads garbage ψ.
#[test]
fn truncated_warmstart_entry_is_a_miss_not_a_panic() {
    let dir = tmp_path("wsdir");
    std::fs::remove_dir_all(&dir).ok();
    let cache = WarmStartCache::directory(&dir).expect("dir cache");
    let tile = Grid::from_fn(64, 64, |x, y| {
        if (20..44).contains(&x) && (20..44).contains(&y) {
            1.0
        } else {
            0.0
        }
    });
    let fp = fingerprint(&tile).expect("non-empty tile");
    let psi = Grid::from_fn(64, 64, |x, y| ((x * 13 + y * 7) as f64 * 0.21).sin());
    cache.store(&fp, &psi);

    // Damage every entry the store produced.
    let mut entries = 0;
    for e in std::fs::read_dir(&dir).expect("read dir") {
        let path = e.expect("entry").path();
        if path.extension().is_some_and(|x| x == "psi") {
            let bytes = std::fs::read(&path).expect("entry bytes");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
            entries += 1;
        }
    }
    assert_eq!(entries, 1, "store wrote exactly one entry");

    let reopened = WarmStartCache::directory(&dir).expect("reopen survives damage");
    assert!(
        reopened.lookup(&fp).is_none(),
        "truncated entry must read as a miss"
    );
    std::fs::remove_dir_all(dir).ok();
}
