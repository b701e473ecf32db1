//! Golden event-stream test: a short optimization under fault injection
//! streams well-formed schema-v1 JSONL whose events include the guard
//! rollback and spectrum-cache counters, with monotonically
//! non-decreasing timestamps across the whole (multi-threaded) run.
//!
//! Runs only with the `fault-injection` feature
//! (`cargo test -p lsopc-core --features fault-injection`).
#![cfg(feature = "fault-injection")]

use lsopc_core::{GuardConfig, LevelSetIlt, RecoveryPolicy, RunControl};
use lsopc_grid::Grid;
use lsopc_litho::{FaultMode, LithoSimulator, ScriptedFault};
use lsopc_optics::OpticsConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Minimal field extractor for the sink's flat one-object-per-line
/// format. String values in the schema never contain escaped quotes
/// (names and paths are static identifiers), so a bare `"`-scan is a
/// faithful parse here.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"').map(|end| &stripped[..end])
    } else {
        rest.find([',', '}']).map(|end| rest[..end].trim())
    }
}

#[test]
fn fault_run_streams_wellformed_jsonl() {
    let path = std::env::temp_dir().join(format!("lsopc_trace_{}.jsonl", std::process::id()));
    let sink = lsopc_trace::JsonlSink::create(&path).expect("create stream");
    lsopc_trace::install(Arc::new(sink));

    // Default FFT backend: its per-kernel folds go through the global
    // spectrum cache (hit + miss events) and its transforms dispatch on
    // the pool (pool events). The scripted NaN gradient at iteration 1
    // trips the guard into a rollback.
    let sim = LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
        .expect("valid configuration")
        .with_fault_injector(Arc::new(ScriptedFault::once(1, FaultMode::NanGradient)));
    let target = Grid::from_fn(64, 64, |x, y| {
        if (26..38).contains(&x) && (12..52).contains(&y) {
            1.0
        } else {
            0.0
        }
    });
    let result = LevelSetIlt::builder()
        .max_iterations(3)
        .recovery(RecoveryPolicy::On(GuardConfig::default()))
        .build()
        .optimize(&sim, &target, &RunControl::new())
        .expect("optimize recovers");
    lsopc_trace::flush();
    lsopc_trace::uninstall();
    assert!(result.diagnostics.backoffs > 0, "the scripted fault fired");

    let text = std::fs::read_to_string(&path).expect("read stream");
    std::fs::remove_file(&path).ok();
    assert!(
        text.lines().count() > 20,
        "a 3-iteration run streams events"
    );

    let mut last_ts = 0u64;
    let mut kinds = BTreeSet::new();
    let mut counters = BTreeSet::new();
    for line in text.lines() {
        assert!(line.starts_with("{\"v\": 1, "), "schema marker: {line}");
        assert!(line.ends_with('}'), "object per line: {line}");
        let ts: u64 = field(line, "ts_ns")
            .unwrap_or_else(|| panic!("ts_ns in {line}"))
            .parse()
            .unwrap_or_else(|_| panic!("numeric ts_ns in {line}"));
        assert!(ts >= last_ts, "timestamps must not regress: {line}");
        last_ts = ts;
        let kind = field(line, "kind").unwrap_or_else(|| panic!("kind in {line}"));
        if kind == "count" {
            counters.insert(
                field(line, "name")
                    .unwrap_or_else(|| panic!("name in {line}"))
                    .to_string(),
            );
        }
        kinds.insert(kind.to_string());
    }

    for kind in ["span", "count", "iter"] {
        assert!(kinds.contains(kind), "stream has {kind} events: {kinds:?}");
    }
    for counter in [
        "guard.rollback",
        "cache.spectra.hit",
        "cache.spectra.miss",
        "cache.plan.hit",
    ] {
        assert!(
            counters.contains(counter),
            "stream has {counter}: {counters:?}"
        );
    }
    assert!(
        counters.contains("pool.jobs") || counters.contains("pool.jobs_inline"),
        "stream has pool dispatch events: {counters:?}"
    );
    assert!(counters.contains("fault.hook_calls"), "{counters:?}");
}
