//! Offline analyzer for schema-v1 JSONL traces.
//!
//! Ingests the event stream a [`JsonlSink`](crate::JsonlSink) wrote
//! (`lsopc … --trace run.jsonl`) by replaying each line into a
//! [`MetricsRegistry`], so the span tree (self/total time, latency
//! percentiles), counter totals and cache hit ratios are the same
//! [`Report`] a live registry gives. On top of it the analyzer adds
//! only a convergence-curve summary, the stop reason and anomaly flags
//! — the report the `lsopc analyze` subcommand prints.
//!
//! Parsing is tolerant by design: the stream may be truncated mid-run
//! (that is precisely when post-mortem analysis matters), so malformed
//! or foreign lines are counted and skipped, never fatal. Only a stream
//! with *zero* recognizable events is an error.

use crate::{IterRecord, MetricsRegistry, Report};
use std::fmt::Write as _;

/// Convergence-curve summary built from the `iter` events.
#[derive(Clone, Debug)]
pub struct Convergence {
    /// Number of iteration records in the stream.
    pub iterations: usize,
    /// Cost of the first recorded iteration.
    pub first_cost: f64,
    /// Cost of the last recorded iteration.
    pub last_cost: f64,
    /// Largest single-iteration cost drop.
    pub best_delta: f64,
    /// Iterations the health guard rolled back.
    pub rollbacks: u64,
}

/// Everything `lsopc analyze` derives from one trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Recognized event lines.
    pub events: usize,
    /// Unparseable or foreign lines skipped.
    pub skipped: usize,
    /// The replayed events' aggregate: spans (sorted by path, parents
    /// before children), counters, gauges, caches, iterations, warnings.
    pub report: Report,
    /// Convergence summary, when the trace holds iteration events.
    pub convergence: Option<Convergence>,
    /// Early-stop reason derived from `run.stop.*` counters, if any.
    pub stop_reason: Option<String>,
    /// Human-readable anomaly flags (empty = nothing suspicious).
    pub anomalies: Vec<String>,
}

/// A span's p99 this many times above its median flags a latency-tail
/// anomaly (with at least [`TAIL_MIN_CALLS`] calls to damp noise).
pub const TAIL_RATIO: u64 = 8;
/// Minimum calls before the tail-latency rule applies.
pub const TAIL_MIN_CALLS: u64 = 8;
/// Cache families with at least this much traffic and a hit ratio below
/// [`CACHE_MIN_RATIO`] flag a hit-ratio collapse.
pub const CACHE_MIN_TRAFFIC: u64 = 16;
/// Hit-ratio floor for the cache anomaly rule.
pub const CACHE_MIN_RATIO: f64 = 0.5;

/// Analyzes the text of a schema-v1 JSONL trace. Tolerates truncated
/// and malformed lines (counted in [`TraceReport::skipped`]); errors
/// only when no recognizable event survives.
pub fn analyze(text: &str) -> Result<TraceReport, String> {
    let registry = MetricsRegistry::new();
    let (mut events, mut skipped) = (0, 0);
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match replay(&registry, line) {
            Some(()) => events += 1,
            None => skipped += 1,
        }
    }
    if events == 0 {
        return Err(format!(
            "no schema-v1 trace events found ({skipped} unrecognized lines)"
        ));
    }
    let report = registry.report();
    let iters = &report.iterations;
    let convergence = (!iters.is_empty()).then(|| Convergence {
        iterations: iters.len(),
        first_cost: iters[0].cost_total,
        last_cost: iters[iters.len() - 1].cost_total,
        best_delta: iters
            .windows(2)
            .map(|w| w[0].cost_total - w[1].cost_total)
            .fold(0.0f64, f64::max),
        rollbacks: iters.iter().filter(|r| r.rolled_back).count() as u64,
    });
    let stop_reason = report
        .counters
        .iter()
        .find(|(name, &total)| name.starts_with("run.stop.") && total > 0)
        .map(|(name, _)| name["run.stop.".len()..].to_string());
    let mut out = TraceReport {
        events,
        skipped,
        report,
        convergence,
        stop_reason,
        anomalies: Vec::new(),
    };
    out.anomalies = find_anomalies(&out);
    Ok(out)
}

/// Feeds one JSONL line to `registry` through the same recording calls
/// a live [`TraceSink::event`](crate::TraceSink::event) makes; `None`
/// when the line is not a complete schema-v1 event.
fn replay(registry: &MetricsRegistry, line: &str) -> Option<()> {
    match str_field(line, "kind")?.as_str() {
        "span" => registry.record_span(&str_field(line, "path")?, u64_field(line, "dur_ns")?),
        "count" => registry.add_count(&str_field(line, "name")?, u64_field(line, "delta")?),
        "gauge" => registry.set_gauge(&str_field(line, "name")?, f64_field(line, "value")?),
        "warn" => registry.push_warn(&str_field(line, "origin")?, &str_field(line, "message")?),
        "iter" => registry.push_iter(&IterRecord {
            iteration: u64_field(line, "iteration")? as usize,
            cost_total: f64_field(line, "cost_total")?,
            cost_nominal: f64_field(line, "cost_nominal")?,
            cost_pvb: f64_field(line, "cost_pvb")?,
            lambda_scale: f64_field(line, "lambda_scale")?,
            beta: f64_field(line, "beta")?,
            time_step: f64_field(line, "time_step")?,
            max_velocity: f64_field(line, "max_velocity")?,
            rolled_back: bool_field(line, "rolled_back")?,
        }),
        _ => return None,
    }
    Some(())
}

fn find_anomalies(trace: &TraceReport) -> Vec<String> {
    let report = &trace.report;
    let mut out = Vec::new();
    let rollbacks = report.counters.get("guard.rollback").copied().unwrap_or(0);
    if rollbacks > 0 {
        out.push(format!(
            "guard rolled back {rollbacks} iteration(s) — descent was unhealthy at least once"
        ));
    }
    if report.counters.get("guard.gave_up").copied().unwrap_or(0) > 0 {
        out.push("health guard gave up (strict-recovery budget exhausted)".to_string());
    }
    for span in &report.spans {
        if span.calls >= TAIL_MIN_CALLS && span.p50_ns > 0 && span.p99_ns > TAIL_RATIO * span.p50_ns
        {
            out.push(format!(
                "latency tail on `{}`: p99 {:.3} ms vs p50 {:.3} ms over {} calls",
                span.path,
                span.p99_ns as f64 / 1e6,
                span.p50_ns as f64 / 1e6,
                span.calls
            ));
        }
    }
    for (family, cache) in &report.caches {
        let traffic = cache.hits + cache.misses;
        if traffic >= CACHE_MIN_TRAFFIC && cache.ratio() < CACHE_MIN_RATIO {
            out.push(format!(
                "cache `{family}` hit ratio collapsed: {:.0}% over {traffic} accesses",
                cache.ratio() * 100.0
            ));
        }
    }
    if let Some(reason) = &trace.stop_reason {
        out.push(format!("run stopped early: {reason}"));
    }
    out
}

impl TraceReport {
    /// Renders the analysis as the plain-text report `lsopc analyze`
    /// prints: span tree with percentiles, counters, cache ratios,
    /// convergence summary, and anomaly flags.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events: {} parsed, {} skipped",
            self.events, self.skipped
        );
        let report = &self.report;
        if !report.spans.is_empty() {
            let width = report
                .spans
                .iter()
                .map(|s| s.path.len() + 2 * depth(&s.path))
                .chain(["span".len()])
                .max()
                .unwrap_or(4);
            let _ = writeln!(
                out,
                "\n{:<width$}  {:>7}  {:>11}  {:>11}  {:>10}  {:>10}  {:>10}",
                "span", "calls", "self (ms)", "total (ms)", "p50 (ms)", "p90 (ms)", "p99 (ms)"
            );
            for span in &report.spans {
                let indent = "  ".repeat(depth(&span.path));
                let label = format!("{indent}{}", span.path);
                let _ = writeln!(
                    out,
                    "{label:<width$}  {:>7}  {:>11.3}  {:>11.3}  {:>10.3}  {:>10.3}  {:>10.3}",
                    span.calls,
                    span.self_ns as f64 / 1e6,
                    span.total_ns as f64 / 1e6,
                    span.p50_ns as f64 / 1e6,
                    span.p90_ns as f64 / 1e6,
                    span.p99_ns as f64 / 1e6,
                );
            }
        }
        if !report.caches.is_empty() {
            let _ = writeln!(out, "\ncaches:");
            for (family, cache) in &report.caches {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>8} hits  {:>8} misses  {:>6.1}% hit",
                    family,
                    cache.hits,
                    cache.misses,
                    cache.ratio() * 100.0
                );
            }
        }
        if !report.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, total) in &report.counters {
                let _ = writeln!(out, "  {name:<40} {total:>12}");
            }
        }
        if let Some(c) = &self.convergence {
            let _ = writeln!(out, "\nconvergence:");
            let _ = writeln!(out, "  iterations      {:>12}", c.iterations);
            let _ = writeln!(out, "  first cost      {:>12.4}", c.first_cost);
            let _ = writeln!(out, "  last cost       {:>12.4}", c.last_cost);
            let _ = writeln!(
                out,
                "  total drop      {:>12.4}",
                c.first_cost - c.last_cost
            );
            let _ = writeln!(out, "  best drop/iter  {:>12.4}", c.best_delta);
            let _ = writeln!(out, "  rollbacks       {:>12}", c.rollbacks);
        }
        let _ = writeln!(
            out,
            "\nstop reason: {}",
            self.stop_reason
                .as_deref()
                .unwrap_or("none (ran to completion)")
        );
        if !report.warnings.is_empty() {
            let _ = writeln!(out, "\nwarnings:");
            for (origin, message) in &report.warnings {
                let _ = writeln!(out, "  [{origin}] {message}");
            }
        }
        if self.anomalies.is_empty() {
            let _ = writeln!(out, "\nanomalies: none");
        } else {
            let _ = writeln!(out, "\nanomalies:");
            for anomaly in &self.anomalies {
                let _ = writeln!(out, "  ! {anomaly}");
            }
        }
        out
    }
}

fn depth(path: &str) -> usize {
    path.matches('/').count()
}

/// Extracts the string value of `"key"` from one JSON line, decoding
/// the escapes [`JsonlSink`](crate::JsonlSink) emits.
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// The raw (unquoted) value token after `"key": `.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

fn f64_field(line: &str, key: &str) -> Option<f64> {
    let raw = raw_field(line, key)?;
    if raw == "null" {
        return Some(f64::NAN);
    }
    raw.parse().ok()
}

fn bool_field(line: &str, key: &str) -> Option<bool> {
    raw_field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_trace() -> String {
        let mut t = String::new();
        for i in 0..3 {
            t.push_str(&format!(
                "{{\"v\": 1, \"ts_ns\": {}, \"kind\": \"span\", \"name\": \"forward\", \"path\": \"optimize/litho/forward\", \"dur_ns\": {}}}\n",
                i * 100,
                1000 + i
            ));
        }
        t.push_str("{\"v\": 1, \"ts_ns\": 400, \"kind\": \"span\", \"name\": \"litho\", \"path\": \"optimize/litho\", \"dur_ns\": 5000}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 500, \"kind\": \"span\", \"name\": \"optimize\", \"path\": \"optimize\", \"dur_ns\": 9000}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 600, \"kind\": \"count\", \"name\": \"cache.spectra.hit\", \"delta\": 30}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 610, \"kind\": \"count\", \"name\": \"cache.spectra.miss\", \"delta\": 2}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 620, \"kind\": \"count\", \"name\": \"guard.rollback\", \"delta\": 1}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 630, \"kind\": \"gauge\", \"name\": \"pool.threads\", \"value\": 4.0}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 700, \"kind\": \"iter\", \"iteration\": 0, \"cost_total\": 10.0, \"cost_nominal\": 8.0, \"cost_pvb\": 2.0, \"lambda_scale\": 1.0, \"beta\": 0.0, \"time_step\": 0.1, \"max_velocity\": 1.0, \"rolled_back\": false}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 800, \"kind\": \"iter\", \"iteration\": 1, \"cost_total\": 7.5, \"cost_nominal\": 6.0, \"cost_pvb\": 1.5, \"lambda_scale\": 1.0, \"beta\": 0.2, \"time_step\": 0.1, \"max_velocity\": 1.0, \"rolled_back\": true}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 900, \"kind\": \"warn\", \"origin\": \"guard\", \"message\": \"cost rose \\\"sharply\\\"\"}\n");
        t
    }

    #[test]
    fn golden_trace_round_trips() {
        let report = analyze(&golden_trace()).unwrap();
        assert_eq!(report.events, 12);
        assert_eq!(report.skipped, 0);
        let forward = report
            .report
            .spans
            .iter()
            .find(|s| s.path == "optimize/litho/forward")
            .unwrap();
        assert_eq!(forward.calls, 3);
        assert_eq!(forward.total_ns, 3003);
        let litho = report
            .report
            .spans
            .iter()
            .find(|s| s.path == "optimize/litho")
            .unwrap();
        assert_eq!(litho.self_ns, 5000 - 3003);
        assert_eq!(report.report.counters.get("cache.spectra.hit"), Some(&30));
        let spectra = report.report.caches["spectra"];
        assert_eq!((spectra.hits, spectra.misses), (30, 2));
        // The registry synthesizes the same counters from iteration and
        // warning events as it does live.
        assert_eq!(report.report.counters.get("iter.count"), Some(&2));
        assert_eq!(report.report.counters.get("iter.rollbacks"), Some(&1));
        assert_eq!(report.report.counters.get("warnings"), Some(&1));
        assert_eq!(report.report.iterations[1].cost_nominal, 6.0);
        let conv = report.convergence.as_ref().unwrap();
        assert_eq!(conv.iterations, 2);
        assert_eq!(conv.first_cost, 10.0);
        assert_eq!(conv.last_cost, 7.5);
        assert_eq!(conv.rollbacks, 1);
        assert_eq!(report.report.warnings.len(), 1);
        assert_eq!(report.report.warnings[0].1, "cost rose \"sharply\"");
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.contains("guard rolled back 1")));
        let text = report.render_text();
        assert!(text.contains("optimize/litho/forward"));
        assert!(text.contains("spectra"));
        assert!(text.contains("anomalies:"));
    }

    #[test]
    fn truncated_and_foreign_lines_are_skipped_not_fatal() {
        let mut trace = golden_trace();
        trace.push_str("{\"v\": 1, \"ts_ns\": 950, \"kind\": \"span\", \"na"); // truncated tail
        trace.push_str("\nnot json at all\n");
        let report = analyze(&trace).unwrap();
        assert_eq!(report.events, 12);
        assert_eq!(report.skipped, 2);
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert!(analyze("").is_err());
        assert!(analyze("garbage\nmore garbage\n").is_err());
    }

    #[test]
    fn stop_reason_comes_from_run_stop_counters() {
        let mut trace = golden_trace();
        trace.push_str(
            "{\"v\": 1, \"ts_ns\": 960, \"kind\": \"count\", \"name\": \"run.stop.deadline\", \"delta\": 1}\n",
        );
        let report = analyze(&trace).unwrap();
        assert_eq!(report.stop_reason.as_deref(), Some("deadline"));
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.contains("stopped early: deadline")));
    }

    #[test]
    fn tail_latency_and_cache_collapse_flagged() {
        let mut t = String::new();
        for _ in 0..15 {
            t.push_str("{\"v\": 1, \"ts_ns\": 1, \"kind\": \"span\", \"name\": \"s\", \"path\": \"s\", \"dur_ns\": 1000}\n");
        }
        t.push_str("{\"v\": 1, \"ts_ns\": 2, \"kind\": \"span\", \"name\": \"s\", \"path\": \"s\", \"dur_ns\": 90000}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 3, \"kind\": \"count\", \"name\": \"cache.plan.hit\", \"delta\": 2}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 4, \"kind\": \"count\", \"name\": \"cache.plan.miss\", \"delta\": 30}\n");
        let report = analyze(&t).unwrap();
        assert!(
            report.anomalies.iter().any(|a| a.contains("latency tail")),
            "anomalies: {:?}",
            report.anomalies
        );
        assert!(
            report
                .anomalies
                .iter()
                .any(|a| a.contains("cache `plan` hit ratio collapsed")),
            "anomalies: {:?}",
            report.anomalies
        );
    }
}
