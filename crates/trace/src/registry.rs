//! Registry sink: the one aggregator of the event stream. It keeps
//! per-path latency histograms, counter totals, gauge last-values, and
//! the iteration records and warnings in arrival order.
//! [`MetricsRegistry::report`] snapshots them into the [`Report`] behind
//! `lsopc profile`, `--metrics`, the engine's per-job `JobMetrics` and
//! `lsopc analyze`; [`MetricsRegistry::render_prometheus`] renders the
//! Prometheus text that `lsopc-engine`'s `Session::exposition` returns.

use crate::histogram::Histogram;
use crate::report::{CacheStats, Report, SpanSummary};
use crate::{Event, IterRecord, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Aggregates spans into one [`Histogram`] per span path, counters into
/// atomic totals, and gauges into last-value slots, and keeps every
/// iteration record and warning. Composes with a
/// [`JsonlSink`](crate::JsonlSink) via [`FanoutSink`](crate::FanoutSink)
/// or a scoped-sink layer.
///
/// Iteration events also fold into the counter/gauge vocabulary: gauges
/// `iter.cost_total`, `iter.cost_nominal`, `iter.cost_pvb`,
/// `iter.lambda_scale` (last value wins) and counters `iter.count` /
/// `iter.rollbacks`. Warnings count under `warnings`.
///
/// Locking: the maps take a read lock per event on the steady state
/// (write lock only the first time a path/name appears); the values are
/// `Arc<Histogram>` / `Arc<AtomicU64>`, so recording itself is
/// lock-free. Gauges, iteration records and warnings take a lock (rare
/// events).
#[derive(Default)]
pub struct MetricsRegistry {
    spans: RwLock<BTreeMap<String, Arc<Histogram>>>,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, f64>>,
    iterations: Mutex<Vec<IterRecord>>,
    warnings: Mutex<Vec<(String, String)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn span_hist(&self, path: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(path)
        {
            return h.clone();
        }
        let mut map = self.spans.write().unwrap_or_else(|e| e.into_inner());
        map.entry(path.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return c.clone();
        }
        let mut map = self.counters.write().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// The duration histogram for span `path`, or `None` if that path
    /// never closed a span.
    pub fn span_histogram(&self, path: &str) -> Option<Arc<Histogram>> {
        self.spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(path)
            .cloned()
    }

    /// All span paths seen so far, sorted.
    pub fn span_paths(&self) -> Vec<String> {
        self.spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    fn gauges(&self) -> BTreeMap<String, f64> {
        self.gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn record_span(&self, path: &str, dur_ns: u64) {
        self.span_hist(path).record(dur_ns);
    }

    pub(crate) fn add_count(&self, name: &str, delta: u64) {
        self.counter_cell(name).fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        self.gauges
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), value);
    }

    pub(crate) fn push_warn(&self, origin: &str, message: &str) {
        self.add_count("warnings", 1);
        self.warnings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((origin.to_string(), message.to_string()));
    }

    pub(crate) fn push_iter(&self, rec: &IterRecord) {
        self.add_count("iter.count", 1);
        if rec.rolled_back {
            self.add_count("iter.rollbacks", 1);
        }
        {
            let mut gauges = self.gauges.write().unwrap_or_else(|e| e.into_inner());
            gauges.insert("iter.cost_total".to_string(), rec.cost_total);
            gauges.insert("iter.cost_nominal".to_string(), rec.cost_nominal);
            gauges.insert("iter.cost_pvb".to_string(), rec.cost_pvb);
            gauges.insert("iter.lambda_scale".to_string(), rec.lambda_scale);
        }
        self.iterations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec.clone());
    }

    /// Snapshot of everything aggregated so far: one [`SpanSummary`]
    /// row per span path, counters, gauges, cache families, and the
    /// iteration records and warnings in arrival order.
    pub fn report(&self) -> Report {
        let spans = self.spans.read().unwrap_or_else(|e| e.into_inner());
        // Self time = total − Σ direct children, clamped at 0 (children
        // running concurrently on pool workers can overlap the parent).
        let mut child_sums: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, hist) in spans.iter() {
            if let Some((parent, _)) = path.rsplit_once('/') {
                if spans.contains_key(parent) {
                    *child_sums.entry(parent).or_insert(0) += hist.sum();
                }
            }
        }
        let rows = spans
            .iter()
            .map(|(path, hist)| {
                let total_ns = hist.sum();
                let children = child_sums.get(path.as_str()).copied().unwrap_or(0);
                SpanSummary {
                    path: path.clone(),
                    calls: hist.count(),
                    total_ns,
                    self_ns: total_ns.saturating_sub(children),
                    p50_ns: hist.quantile(0.50),
                    p90_ns: hist.quantile(0.90),
                    p99_ns: hist.quantile(0.99),
                }
            })
            .collect();
        drop(spans);
        let counters = self.counters();
        // Cache families: counters shaped `cache.<family>.hit|miss`.
        let mut caches: BTreeMap<String, CacheStats> = BTreeMap::new();
        for (name, &total) in &counters {
            let Some(rest) = name.strip_prefix("cache.") else {
                continue;
            };
            if let Some(family) = rest.strip_suffix(".hit") {
                caches.entry(family.to_string()).or_default().hits += total;
            } else if let Some(family) = rest.strip_suffix(".miss") {
                caches.entry(family.to_string()).or_default().misses += total;
            }
        }
        Report {
            spans: rows,
            counters,
            gauges: self.gauges(),
            caches,
            iterations: self
                .iterations
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            warnings: self
                .warnings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }

    /// Renders the registry in Prometheus text exposition format
    /// (version 0.0.4): span durations as a `histogram` family in
    /// seconds with cumulative `le` buckets (only buckets that change
    /// the running total, plus `+Inf`), counters as
    /// `lsopc_events_total`, gauges as `lsopc_gauge`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let spans = self.spans.read().unwrap_or_else(|e| e.into_inner());
        if !spans.is_empty() {
            out.push_str("# TYPE lsopc_span_duration_seconds histogram\n");
            for (path, hist) in spans.iter() {
                let label = prom_label(path);
                let mut cumulative = 0u64;
                for (upper_ns, n) in hist.nonzero_buckets() {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "lsopc_span_duration_seconds_bucket{{path=\"{label}\",le=\"{}\"}} {cumulative}",
                        prom_f64(upper_ns as f64 / 1e9)
                    );
                }
                let _ = writeln!(
                    out,
                    "lsopc_span_duration_seconds_bucket{{path=\"{label}\",le=\"+Inf\"}} {cumulative}"
                );
                let _ = writeln!(
                    out,
                    "lsopc_span_duration_seconds_sum{{path=\"{label}\"}} {}",
                    prom_f64(hist.sum() as f64 / 1e9)
                );
                let _ = writeln!(
                    out,
                    "lsopc_span_duration_seconds_count{{path=\"{label}\"}} {}",
                    hist.count()
                );
            }
        }
        drop(spans);
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str("# TYPE lsopc_events_total counter\n");
            for (name, total) in &counters {
                let _ = writeln!(
                    out,
                    "lsopc_events_total{{name=\"{}\"}} {total}",
                    prom_label(name)
                );
            }
        }
        let gauges = self.gauges();
        if !gauges.is_empty() {
            out.push_str("# TYPE lsopc_gauge gauge\n");
            for (name, value) in &gauges {
                let _ = writeln!(
                    out,
                    "lsopc_gauge{{name=\"{}\"}} {}",
                    prom_label(name),
                    prom_f64(*value)
                );
            }
        }
        out
    }
}

/// Escapes a label value per the Prometheus text format.
fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus sample value: plain decimal, `NaN`/`+Inf`/`-Inf` spelled
/// out per the text format.
fn prom_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{value}")
    }
}

impl TraceSink for MetricsRegistry {
    fn event(&self, event: &Event<'_>) {
        match event {
            Event::Span { path, dur_ns, .. } => self.record_span(path, *dur_ns),
            Event::Count { name, delta } => self.add_count(name, *delta),
            Event::Gauge { name, value } => self.set_gauge(name, *value),
            Event::Warn { origin, message } => self.push_warn(origin, message),
            Event::Iter(rec) => self.push_iter(rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterRecord;

    fn span(path: &str, dur_ns: u64) -> Event<'_> {
        Event::Span {
            name: "leaf",
            path,
            dur_ns,
        }
    }

    #[test]
    fn spans_aggregate_into_per_path_histograms() {
        let reg = MetricsRegistry::new();
        reg.event(&span("a/b", 100));
        reg.event(&span("a/b", 200));
        reg.event(&span("c", 5));
        let h = reg.span_histogram("a/b").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
        assert_eq!(reg.span_histogram("c").unwrap().count(), 1);
        assert!(reg.span_histogram("missing").is_none());
        assert_eq!(reg.span_paths(), vec!["a/b".to_string(), "c".to_string()]);
    }

    #[test]
    fn counters_gauges_and_iters_fold_in() {
        let reg = MetricsRegistry::new();
        reg.event(&Event::Count {
            name: "cache.hit",
            delta: 3,
        });
        reg.event(&Event::Gauge {
            name: "pool.threads",
            value: 4.0,
        });
        reg.event(&Event::Warn {
            origin: "t",
            message: "m",
        });
        reg.event(&Event::Iter(&IterRecord {
            iteration: 0,
            cost_total: 9.0,
            cost_nominal: 7.0,
            cost_pvb: 2.0,
            lambda_scale: 1.0,
            beta: 0.0,
            time_step: 0.1,
            max_velocity: 1.0,
            rolled_back: true,
        }));
        let report = reg.report();
        assert_eq!(report.counters["cache.hit"], 3);
        assert_eq!(report.counters["warnings"], 1);
        assert_eq!(report.counters["iter.count"], 1);
        assert_eq!(report.counters["iter.rollbacks"], 1);
        assert_eq!(report.gauges["pool.threads"], 4.0);
        assert_eq!(report.gauges["iter.cost_total"], 9.0);
        // The records themselves are kept too, in arrival order.
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.iterations[0].cost_nominal, 7.0);
        assert_eq!(report.warnings, [("t".to_string(), "m".to_string())]);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        reg.event(&span("fft", 100));
        reg.event(&span("fft", 100));
        reg.event(&span("fft", 1_000_000));
        reg.event(&Event::Count {
            name: "cache.hit",
            delta: 7,
        });
        reg.event(&Event::Gauge {
            name: "pool.threads",
            value: 4.0,
        });
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lsopc_span_duration_seconds histogram"));
        assert!(
            text.contains("lsopc_span_duration_seconds_bucket{path=\"fft\",le=\"+Inf\"} 3"),
            "exposition:\n{text}"
        );
        assert!(text.contains("lsopc_span_duration_seconds_count{path=\"fft\"} 3"));
        assert!(text.contains("lsopc_events_total{name=\"cache.hit\"} 7"));
        assert!(text.contains("lsopc_gauge{name=\"pool.threads\"} 4"));
        // Cumulative: the last finite bucket must already total 3.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lsopc_span_duration_seconds_bucket"))
            .collect();
        assert!(lines.len() >= 3, "expected >= 3 bucket lines:\n{text}");
        assert!(lines[lines.len() - 2].ends_with(" 3"), "lines: {lines:?}");
    }
}
