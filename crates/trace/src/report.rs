//! The snapshot of a [`MetricsRegistry`](crate::MetricsRegistry): one
//! row type for spans, one for cache families, and the two renderings
//! the CLI prints (the `lsopc profile` table and the `--metrics` JSON
//! document).

use crate::IterRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated timing for one span path.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSummary {
    /// Full `/`-joined hierarchical span path.
    pub path: String,
    /// Number of times the span closed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
    /// Total minus the summed totals of direct children, clamped at 0.
    pub self_ns: u64,
    /// Median call duration (log-linear histogram bound, ≤ 6.25% high).
    pub p50_ns: u64,
    /// 90th-percentile call duration.
    pub p90_ns: u64,
    /// 99th-percentile call duration.
    pub p99_ns: u64,
}

/// Hit/miss totals for one cache family (`cache.<family>.hit|miss`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when the family saw no traffic.
    pub fn ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Everything a registry aggregated, as plain data. Built only by
/// [`MetricsRegistry::report`](crate::MetricsRegistry::report).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Span rows sorted by path, so a parent precedes its children.
    pub spans: Vec<SpanSummary>,
    /// Counter name → total.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last sampled value.
    pub gauges: BTreeMap<String, f64>,
    /// Cache family → hit/miss totals, from the `cache.*` counters.
    pub caches: BTreeMap<String, CacheStats>,
    /// Optimizer iterations in arrival order.
    pub iterations: Vec<IterRecord>,
    /// Warnings `(origin, message)` in arrival order.
    pub warnings: Vec<(String, String)>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Report {
    /// The span rows by self time, descending (ties by path): the order
    /// of the profile table and the `--metrics` document.
    fn spans_by_self_time(&self) -> Vec<&SpanSummary> {
        let mut spans: Vec<&SpanSummary> = self.spans.iter().collect();
        spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        spans
    }

    /// Renders the flamegraph-style self/total table plus counter and
    /// gauge totals as plain text (the `lsopc profile` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let path_width = self
            .spans
            .iter()
            .map(|s| s.path.len())
            .chain(["span".len()])
            .max()
            .unwrap_or(4);
        let _ = writeln!(
            out,
            "{:<path_width$}  {:>8}  {:>12}  {:>12}  {:>12}",
            "span", "calls", "self (ms)", "total (ms)", "ms/call"
        );
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(path_width + 2 + 8 + 2 + 12 + 2 + 12 + 2 + 12)
        );
        for stat in self.spans_by_self_time() {
            let per_call = if stat.calls > 0 {
                ms(stat.total_ns) / stat.calls as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<path_width$}  {:>8}  {:>12.3}  {:>12.3}  {:>12.4}",
                stat.path,
                stat.calls,
                ms(stat.self_ns),
                ms(stat.total_ns),
                per_call
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, total) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {total:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\ngauges:");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {value:>12.3}");
            }
        }
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "\nwarnings:");
            for (origin, message) in &self.warnings {
                let _ = writeln!(out, "  [{origin}] {message}");
            }
        }
        out
    }

    /// Serializes the report as a single JSON object (the `--metrics`
    /// artifact). Hand-rolled: the workspace has no JSON dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"v\": {},", crate::SCHEMA_VERSION);
        out.push_str("  \"spans\": [\n");
        for (i, stat) in self.spans_by_self_time().into_iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                crate::jsonl::json_string(&stat.path),
                stat.calls,
                stat.total_ns,
                stat.self_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", crate::jsonl::json_string(name), total);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {}",
                crate::jsonl::json_string(name),
                crate::jsonl::json_f64(*value)
            );
        }
        out.push_str("\n  },\n  \"iterations\": [\n");
        for (i, rec) in self.iterations.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"iteration\": {}, \"cost_total\": {}, \"cost_nominal\": {}, \"cost_pvb\": {}, \"lambda_scale\": {}, \"beta\": {}, \"time_step\": {}, \"max_velocity\": {}, \"rolled_back\": {}}}",
                rec.iteration,
                crate::jsonl::json_f64(rec.cost_total),
                crate::jsonl::json_f64(rec.cost_nominal),
                crate::jsonl::json_f64(rec.cost_pvb),
                crate::jsonl::json_f64(rec.lambda_scale),
                crate::jsonl::json_f64(rec.beta),
                crate::jsonl::json_f64(rec.time_step),
                crate::jsonl::json_f64(rec.max_velocity),
                rec.rolled_back
            );
            out.push_str(if i + 1 < self.iterations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Event, MetricsRegistry, TraceSink};

    fn span_event(path: &str, dur_ns: u64) -> Event<'_> {
        Event::Span {
            name: "leaf",
            path,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sink = MetricsRegistry::new();
        sink.event(&span_event("a", 100));
        sink.event(&span_event("a/b", 30));
        sink.event(&span_event("a/b/c", 10));
        let report = sink.report();
        let get = |p: &str| report.spans.iter().find(|s| s.path == p).unwrap();
        assert_eq!(get("a").self_ns, 70); // 100 − 30, grandchild untouched
        assert_eq!(get("a/b").self_ns, 20);
        assert_eq!(get("a/b/c").self_ns, 10);
    }

    #[test]
    fn overlapping_children_clamp_self_time_at_zero() {
        // Parallel children can sum past the parent's wall clock.
        let sink = MetricsRegistry::new();
        sink.event(&span_event("p", 100));
        sink.event(&span_event("p/w", 80));
        sink.event(&span_event("p/w", 80));
        let report = sink.report();
        let parent = report.spans.iter().find(|s| s.path == "p").unwrap();
        assert_eq!(parent.self_ns, 0);
    }

    #[test]
    fn orphan_child_keeps_full_self_time() {
        // A child whose parent never closed must not be subtracted from
        // a nonexistent row (or panic).
        let sink = MetricsRegistry::new();
        sink.event(&span_event("lost/child", 40));
        let report = sink.report();
        assert_eq!(report.spans[0].self_ns, 40);
    }

    #[test]
    fn rows_in_path_order_renderings_by_self_time() {
        let sink = MetricsRegistry::new();
        sink.event(&span_event("a.small", 10));
        sink.event(&span_event("z.big", 500));
        sink.event(&span_event("m.mid", 50));
        let report = sink.report();
        let rows: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(rows, ["a.small", "m.mid", "z.big"]);
        let json = report.to_json();
        let text = report.render_text();
        for rendered in [&json, &text] {
            let at = |p: &str| rendered.find(p).unwrap();
            assert!(at("z.big") < at("m.mid") && at("m.mid") < at("a.small"));
        }
    }

    #[test]
    fn cache_families_pair_hits_and_misses() {
        let sink = MetricsRegistry::new();
        for (name, delta) in [
            ("cache.plan.hit", 3),
            ("cache.plan.miss", 1),
            ("cache.spectra.miss", 2),
            ("cache.hit", 9),
            ("pool.jobs", 4),
        ] {
            sink.event(&Event::Count { name, delta });
        }
        let caches = sink.report().caches;
        assert_eq!(caches.len(), 2, "{caches:?}");
        assert_eq!((caches["plan"].hits, caches["plan"].misses), (3, 1));
        assert_eq!(caches["plan"].ratio(), 0.75);
        assert_eq!((caches["spectra"].hits, caches["spectra"].misses), (0, 2));
        assert_eq!(caches["spectra"].ratio(), 0.0);
    }

    #[test]
    fn text_render_lists_spans_and_counters() {
        let sink = MetricsRegistry::new();
        sink.event(&span_event("fft2d.forward", 2_000_000));
        sink.event(&Event::Count {
            name: "cache.plan.hit",
            delta: 7,
        });
        let text = sink.report().render_text();
        assert!(text.contains("fft2d.forward"));
        assert!(text.contains("cache.plan.hit"));
        assert!(text.contains('7'));
    }

    #[test]
    fn json_report_is_balanced_and_contains_fields() {
        let sink = MetricsRegistry::new();
        sink.event(&span_event("a", 5));
        sink.event(&Event::Gauge {
            name: "pool.threads",
            value: 4.0,
        });
        let json = sink.report().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.contains("\"v\": 1"));
        assert!(json.contains("\"pool.threads\": 4"));
    }
}
