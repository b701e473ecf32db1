//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into each layer, from the benchmark's
//! side of the API. They stay in memory and are written out once, when
//! the run ends; `perfbench/stats.py` turns them into self times.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-thread number, so overlapping spans on two lanes can be
    /// told apart in the output.
    pub lane: u64,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: Cell<Option<u64>> = const { Cell::new(None) };
}

fn lane() -> u64 {
    LANE.with(|l| match l.get() {
        Some(id) => id,
        None => {
            // Relaxed: the value is only a label and publishes nothing.
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(id));
            id
        }
    })
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            // Relaxed: ids only need to be unique.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            lane: lane(),
        };
        let secs = (end_ns - open.start_ns) as f64 * 1e-9;
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(span);
        secs
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span recorder poisoned by a panicking thread"),
        )
    }
}
