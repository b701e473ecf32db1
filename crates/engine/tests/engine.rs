//! Integration tests for the engine's cache-sharing and session
//! contracts: repeated submissions amortize the shared caches, and
//! concurrent sessions stay bit-identical with cleanly separated
//! scoped trace streams.

use lsopc_engine::{Caches, Engine, JobSpec, Precision, Tiling};
use lsopc_grid::Grid;
use lsopc_trace::MetricsRegistry;
use std::sync::Arc;

/// A 128px vertical wire; 128px is the smallest power of two whose
/// pixel pitch resolves the optical band of the fixed 2048nm field.
fn target() -> Grid<f64> {
    Grid::from_fn(128, 128, |x, y| {
        if (52..76).contains(&x) && (30..98).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn small_spec() -> JobSpec {
    let mut spec = JobSpec::new(target());
    spec.kernels = 4;
    spec.iterations = 2;
    spec
}

fn counter(sink: &MetricsRegistry, name: &str) -> u64 {
    sink.report().counters.get(name).copied().unwrap_or(0)
}

/// Two sequential submissions of the same optics: the first job pays
/// the FFT-plan construction misses, the second runs entirely out of the
/// engine's shared caches — and produces the same mask bit for bit.
#[test]
fn second_submission_runs_out_of_the_shared_caches() {
    // Private caches so counters reflect only this engine's jobs, not
    // whatever else ran in this test process.
    let engine = Engine::builder().caches(Caches::private()).build();
    let spec = small_spec();
    assert_eq!(spec.precision, Precision::F64);

    let first_sink = Arc::new(MetricsRegistry::new());
    let first = engine
        .session()
        .with_sink(first_sink.clone())
        .submit(&spec)
        .expect("first job runs");
    assert!(
        counter(&first_sink, "cache.plan.miss") > 0,
        "first job builds FFT plans"
    );
    assert!(
        counter(&first_sink, "cache.rplan.miss") > 0,
        "first job builds real-input FFT plans"
    );

    let second_sink = Arc::new(MetricsRegistry::new());
    let second = engine
        .session()
        .with_sink(second_sink.clone())
        .submit(&spec)
        .expect("second job runs");
    for family in ["plan", "rplan"] {
        assert_eq!(
            counter(&second_sink, &format!("cache.{family}.miss")),
            0,
            "second job builds no {family} entries"
        );
        assert!(
            counter(&second_sink, &format!("cache.{family}.hit")) > 0,
            "second job reuses {family} entries"
        );
    }

    let (a, b) = (first.mask().as_slice(), second.mask().as_slice());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "cache reuse changed the mask");
    }
}

/// Two threads submitting the same spec through one engine: both jobs
/// share the simulator and caches yet produce bit-identical masks, and
/// each session's scoped sink sees only its own thread's events.
#[test]
fn concurrent_sessions_are_bit_identical_with_separate_streams() {
    let engine = Engine::builder().caches(Caches::private()).build();
    // Warm the shared caches once so both threads race on the hit path.
    engine.submit(&small_spec()).expect("warm-up job runs");

    let run = |marker: &'static str| {
        let engine = engine.clone();
        move || {
            let sink = Arc::new(MetricsRegistry::new());
            let session = engine.session().with_sink(sink.clone());
            let outcome = session.scoped(|| {
                lsopc_trace::count(marker, 1);
                session.engine().submit(&small_spec())
            });
            (outcome.expect("concurrent job runs"), sink)
        }
    };
    let a = std::thread::spawn(run("test.marker.a"));
    let b = std::thread::spawn(run("test.marker.b"));
    let (outcome_a, sink_a) = a.join().expect("thread a");
    let (outcome_b, sink_b) = b.join().expect("thread b");

    for (x, y) in outcome_a
        .mask()
        .as_slice()
        .iter()
        .zip(outcome_b.mask().as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "concurrent jobs diverged");
    }

    // Each scoped stream carries its own marker and its own job's
    // events, not the sibling's.
    assert_eq!(counter(&sink_a, "test.marker.a"), 1);
    assert_eq!(counter(&sink_a, "test.marker.b"), 0);
    assert_eq!(counter(&sink_b, "test.marker.b"), 1);
    assert_eq!(counter(&sink_b, "test.marker.a"), 0);
    assert!(
        counter(&sink_a, "cache.plan.hit") > 0,
        "session a saw its job's cache traffic"
    );
    assert!(
        counter(&sink_b, "cache.plan.hit") > 0,
        "session b saw its job's cache traffic"
    );
}

/// A session's sink only observes work submitted through that session:
/// nothing leaks in from jobs run outside its scope, and nothing it
/// scoped leaks out.
#[test]
fn session_sinks_do_not_leak_across_scopes() {
    let engine = Engine::builder().caches(Caches::private()).build();
    let sink = Arc::new(MetricsRegistry::new());
    let session = engine.session().with_sink(sink.clone());

    session.submit(&small_spec()).expect("scoped job runs");
    let seen = counter(&sink, "cache.plan.miss") + counter(&sink, "cache.plan.hit");
    assert!(seen > 0, "scoped job was observed");

    // The same engine run *outside* the session must not reach its sink.
    engine.submit(&small_spec()).expect("unscoped job runs");
    let after = counter(&sink, "cache.plan.miss") + counter(&sink, "cache.plan.hit");
    assert_eq!(seen, after, "unscoped job leaked into the session sink");
}

/// Engines built with private caches are isolated from each other: one
/// engine's warm cache does not serve another's first job.
#[test]
fn private_caches_isolate_engines() {
    let first = Engine::builder().caches(Caches::private()).build();
    first.submit(&small_spec()).expect("first engine runs");

    let second = Engine::builder().caches(Caches::private()).build();
    let sink = Arc::new(MetricsRegistry::new());
    second
        .session()
        .with_sink(sink.clone())
        .submit(&small_spec())
        .expect("second engine runs");
    assert!(
        counter(&sink, "cache.plan.miss") > 0,
        "a fresh engine pays its own cache misses"
    );
}

/// Tiled jobs solve on the engine's cached window simulator, so a
/// second identical tiled job generates no optical kernels at all.
#[test]
fn second_tiled_submission_reuses_the_window_kernels() {
    let engine = Engine::builder().caches(Caches::private()).build();
    let mut spec = JobSpec::new(Grid::from_fn(256, 256, |x, y| {
        let a = (40..60).contains(&x) && (30..90).contains(&y);
        let b = (170..190).contains(&x) && (150..220).contains(&y);
        f64::from(u8::from(a || b))
    }));
    (spec.kernels, spec.iterations) = (4, 2);
    spec.tiling = Some(Tiling::new(64, 32).expect("valid geometry"));
    let run = || {
        let outcome = engine.submit(&spec).expect("tiled job runs");
        let metrics = outcome.metrics.as_ref().expect("metrics collected");
        let misses = metrics.counters.get("cache.kernels.miss").copied();
        (outcome.mask().clone(), misses.unwrap_or(0))
    };
    let ((first, first_misses), (second, second_misses)) = (run(), run());
    assert!(
        first_misses > 0,
        "the first tiled job builds the window kernels"
    );
    assert_eq!(second_misses, 0, "the second tiled job rebuilt kernels");
    assert_eq!(first, second, "reusing the simulator changed the mask");
}
