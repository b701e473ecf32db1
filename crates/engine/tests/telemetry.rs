//! One run, four views of its telemetry: the job's own `JobMetrics`,
//! the report of a registry the session fans out to, the session's
//! Prometheus exposition, and `lsopc_trace::analyze` of the JSONL
//! stream written alongside. All of them aggregate through one
//! `MetricsRegistry::report`, so they must agree exactly.

use lsopc_engine::{Caches, Engine, JobSpec};
use lsopc_grid::Grid;
use lsopc_trace::{FanoutSink, JsonlSink, MetricsRegistry, SpanSummary, TraceSink};
use std::sync::Arc;

fn spec() -> JobSpec {
    let mut spec = JobSpec::new(Grid::from_fn(128, 128, |x, y| {
        f64::from(u8::from((52..76).contains(&x) && (30..98).contains(&y)))
    }));
    spec.kernels = 4;
    spec.iterations = 3;
    spec
}

/// The fields every view must agree on, per span row.
fn rows(spans: &[SpanSummary]) -> Vec<(&str, u64, u64, u64)> {
    spans
        .iter()
        .map(|s| (s.path.as_str(), s.calls, s.total_ns, s.self_ns))
        .collect()
}

#[test]
fn job_metrics_registry_exposition_and_analyzer_agree() {
    let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "lsopc_engine_telemetry_{}.jsonl",
        std::process::id()
    ));
    let registry = Arc::new(MetricsRegistry::new());
    let jsonl: Arc<dyn TraceSink> = Arc::new(JsonlSink::create(&path).expect("create trace"));
    let fanout = FanoutSink::new(vec![registry.clone(), jsonl]);
    let engine = Engine::builder().caches(Caches::private()).build();
    let session = engine.session().with_sink(Arc::new(fanout));
    let outcome = session.submit(&spec()).expect("job runs");
    session.flush();
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();

    let metrics = outcome.metrics.as_ref().expect("metrics collected");
    let live = registry.report();
    let replayed = lsopc_trace::analyze::analyze(&text).expect("trace analyzes");
    assert_eq!(replayed.skipped, 0);

    assert!(
        live.spans.iter().any(|s| s.path.contains("optimize")),
        "the run was traced: {:?}",
        rows(&live.spans)
    );
    assert_eq!(
        rows(&metrics.spans),
        rows(&live.spans),
        "JobMetrics vs registry"
    );
    assert_eq!(
        rows(&replayed.report.spans),
        rows(&live.spans),
        "analyze vs registry"
    );
    // Same durations into the same histogram type: the percentiles
    // match too.
    assert_eq!(replayed.report.spans, live.spans);

    assert!(live.counters.contains_key("iter.count"));
    assert_eq!(metrics.counters, live.counters, "JobMetrics vs registry");
    assert_eq!(
        replayed.report.counters, live.counters,
        "analyze vs registry"
    );
    assert_eq!(metrics.caches, live.caches);
    assert_eq!(replayed.report.caches, live.caches);
    assert_eq!(replayed.report.iterations, live.iterations);
    assert_eq!(live.iterations.len(), 3);

    // The session's own registry saw the same stream; its exposition
    // counts every span row's calls.
    let exposition = session.exposition();
    for span in &live.spans {
        let line = format!(
            "lsopc_span_duration_seconds_count{{path=\"{}\"}} {}\n",
            span.path, span.calls
        );
        assert!(exposition.contains(&line), "missing {line}");
    }
}
