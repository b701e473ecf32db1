//! Process-level behaviour of the `lsopc` binary: what a shell sees when
//! the reader of its output goes away early (`lsopc … | head -1`) — the
//! lost output must neither panic nor end the command before it writes
//! its files and returns its usual exit status — and that the telemetry
//! a run prints, writes and streams tells one story.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};

/// Runs `lsopc args…` with the read end of its stdout closed before the
/// run finishes, so its first write meets a closed pipe. Returns the
/// exit status and everything written to stderr.
fn run_with_closed_stdout(args: &[&str]) -> (ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lsopc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lsopc");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("lsopc exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    (status, stderr)
}

/// A fresh path for one test's output file.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_file(&path).ok();
    path
}

const SMALL: [&str; 6] = ["--grid", "128", "--kernels", "4", "--iters", "2"];

#[test]
fn closed_stdout_pipe_is_a_clean_exit() {
    let args = [&["profile", "--pattern", "wire"][..], &SMALL].concat();
    let (status, stderr) = run_with_closed_stdout(&args);
    assert!(status.success(), "status {status:?}, stderr: {stderr}");
}

/// `profile` prints its report before it writes `--metrics`; a closed
/// pipe must not skip the file.
#[test]
fn closed_stdout_pipe_still_writes_the_metrics_file() {
    let metrics = scratch("process_profile_metrics.json");
    let path = metrics.to_str().expect("utf-8 path");
    let args = [
        &["profile", "--pattern", "wire", "--metrics", path][..],
        &SMALL,
    ]
    .concat();
    let (status, stderr) = run_with_closed_stdout(&args);
    assert!(status.success(), "status {status:?}, stderr: {stderr}");
    let json = std::fs::read_to_string(&metrics).expect("--metrics file written");
    assert!(json.starts_with('{'), "{json}");
    std::fs::remove_file(metrics).ok();
}

/// `optimize` prints its `stopped:` / `done in` lines before it writes
/// `--out`; a closed pipe must not skip the mask, and a deadline stop
/// still exits 0.
#[test]
fn closed_stdout_pipe_still_writes_the_mask() {
    let design = scratch("process_design.glp");
    std::fs::write(&design, "BEGIN\nCELL t\nRECT 832 480 384 1088 ;\nEND\n").expect("design");
    let mask = scratch("process_mask.glp");
    let args = [
        &["optimize", "--deadline", "0"][..],
        &["--glp", design.to_str().expect("utf-8 path")],
        &["--out", mask.to_str().expect("utf-8 path")],
        &SMALL,
    ]
    .concat();
    let (status, stderr) = run_with_closed_stdout(&args);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    let glp = std::fs::read_to_string(&mask).expect("--out mask written");
    assert!(glp.starts_with("BEGIN"), "{glp}");
    std::fs::remove_file(design).ok();
    std::fs::remove_file(mask).ok();
}

/// Runs `lsopc args…` to completion and returns its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lsopc"))
        .args(args)
        .output()
        .expect("run lsopc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `profile --json` prints exactly the `--metrics` document, and
/// `analyze` of the same run's trace lists the same span paths with the
/// same call counts: every view aggregates through one registry report.
#[test]
fn profile_json_metrics_and_analyze_agree() {
    let (metrics, trace) = (scratch("agree_metrics.json"), scratch("agree_trace.jsonl"));
    let (m, t) = (
        metrics.to_str().expect("utf-8 path"),
        trace.to_str().expect("utf-8 path"),
    );
    let args = [
        &["profile", "--json", "--metrics", m, "--trace", t][..],
        &SMALL,
    ]
    .concat();
    let stdout = run_ok(&args);
    let document = std::fs::read_to_string(&metrics).expect("--metrics file written");
    assert_eq!(stdout, document, "stdout and --metrics differ");

    let mut from_metrics: Vec<(String, u64)> = document
        .lines()
        .filter_map(|l| l.trim().strip_prefix("{\"path\": \""))
        .map(|rest| {
            let (path, rest) = rest.split_once("\", \"calls\": ").expect("calls field");
            let calls = rest.split(',').next().expect("calls value");
            (path.to_string(), calls.parse().expect("calls count"))
        })
        .collect();
    let report = run_ok(&["analyze", t]);
    let mut from_analyze: Vec<(String, u64)> = report
        .lines()
        .skip_while(|l| !(l.starts_with("span") && l.contains("calls")))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let mut cols = l.split_whitespace();
            let path = cols.next().expect("path column").to_string();
            (
                path,
                cols.next().expect("calls column").parse().expect("calls"),
            )
        })
        .collect();
    from_metrics.sort();
    from_analyze.sort();
    assert!(!from_metrics.is_empty(), "{document}");
    assert_eq!(from_metrics, from_analyze, "analyze report:\n{report}");
    std::fs::remove_file(metrics).ok();
    std::fs::remove_file(trace).ok();
}
