//! Concurrency stress for the engine: concurrent sessions mixing flat
//! and tiled jobs on the engine's shared cached simulators, cancellations
//! fired mid-run, and nested scoped trace sinks — repeated many times.
//!
//! This binary holds one test on purpose: its closing
//! `!lsopc_trace::enabled()` check reads process-global scope state that
//! a sibling test in the same binary could hold open.

use lsopc_core::{CancelToken, RunControl, StopReason};
use lsopc_engine::{Caches, Engine, JobSpec, Tiling};
use lsopc_grid::Grid;
use lsopc_trace::{Event, MemorySink, TraceSink};
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 3;

/// Two features in a 256-px field, as a flat job or as 64-px cores with
/// 32-px halos (every tile on one cached 128-px window simulator).
fn spec(iterations: usize, tiled: bool) -> JobSpec {
    let mut spec = JobSpec::new(Grid::from_fn(256, 256, |x, y| {
        let a = (40..60).contains(&x) && (30..90).contains(&y);
        let b = (176..196).contains(&x) && (156..226).contains(&y);
        f64::from(u8::from(a || b))
    }));
    spec.kernels = 4;
    spec.iterations = iterations;
    spec.tiling = tiled.then(|| Tiling::new(64, 32).expect("valid geometry"));
    spec
}

/// Cancels its token at the first iteration event it observes — a
/// cancellation fired from inside a running job.
struct CancelAtFirstIter(CancelToken);

impl TraceSink for CancelAtFirstIter {
    fn event(&self, event: &Event<'_>) {
        if matches!(event, Event::Iter(_)) {
            self.0.cancel(StopReason::External);
        }
    }
}

#[test]
fn concurrent_sessions_cancellations_and_nested_scopes() {
    let engine = Engine::builder().caches(Caches::private()).build();
    let jobs: Vec<(JobSpec, Grid<f64>)> = [false, true]
        .into_iter()
        .map(|tiled| {
            let spec = spec(3, tiled);
            let serial = engine.submit(&spec).expect("serial reference job");
            (spec, serial.mask().clone())
        })
        .collect();

    // Every round starts on all clients at once, so rounds overlap.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let client = |id: usize| {
        let (engine, jobs, barrier) = (engine.clone(), jobs.clone(), barrier.clone());
        move || {
            for round in 0..4 {
                barrier.wait();
                let outer = Arc::new(MemorySink::new());
                lsopc_trace::with_scoped_sink(outer.clone(), || {
                    lsopc_trace::count("stress.round", 1);
                    let session = engine.session().with_sink(Arc::new(MemorySink::new()));
                    for (spec, reference) in &jobs {
                        let outcome = session.submit(spec).expect("uncancelled job runs");
                        assert_eq!(outcome.stopped, None, "client {id}");
                        let bits = |g: &Grid<f64>| -> Vec<u64> {
                            g.as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(outcome.mask()), bits(reference), "client {id}");
                    }
                    // A long job whose own session cancels it mid-run.
                    let token = CancelToken::new();
                    let mut doomed = spec(40, (id + round) % 2 == 1);
                    doomed.control = RunControl::new().with_cancel(token.clone());
                    let canceller = engine.session();
                    let canceller = canceller.with_sink(Arc::new(CancelAtFirstIter(token)));
                    let outcome = canceller.submit(&doomed).expect("a stop is not an error");
                    assert_eq!(outcome.stopped, Some(StopReason::External));
                });
                let seen = outer.report().counters.get("stress.round").copied();
                assert_eq!(seen, Some(1), "the outer scope saw its own marker");
            }
        }
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| std::thread::spawn(client(id)))
        .collect();
    for handle in clients {
        handle.join().expect("client thread");
    }
    // Every scope opened above — outer, session, per-job registry — has
    // closed again.
    assert!(!lsopc_trace::enabled(), "a scoped sink outlived its scope");
}
