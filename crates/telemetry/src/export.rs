//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both renderings are fully deterministic — samples arrive
//! `(name, labels)`-sorted from the registry and are emitted in that
//! order, labels in sorted-key order — so goldens diff cleanly and
//! scrapes of an idle registry are byte-stable.

use std::fmt::Write as _;

use deepcontext_core::json::escape_into;

use crate::metrics::{bucket_upper_bound, HistogramSnapshot};
use crate::registry::{MetricValue, TelemetrySnapshot};

/// Rewrites `name` into the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`, not digit-leading): every illegal character
/// becomes `_`, and a leading digit gains a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Rewrites `name` into the Prometheus label-name alphabet
/// (`[a-zA-Z0-9_]`, not digit-leading).
pub fn sanitize_label_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphanumeric() || c == '_';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` (empty string when there are no labels).
/// `extra` appends one more pair after the sorted set (the histogram
/// `le` label).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn kind_of(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

fn push_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    // Cumulative buckets up to the highest non-empty bound keep the
    // exposition compact; `+Inf` always closes the series.
    let top = h
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, n) in h.buckets.iter().enumerate().take(top) {
        cumulative += n;
        let le = bucket_upper_bound(i).to_string();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_block(labels, Some(("le", &le)))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        label_block(labels, Some(("le", "+Inf"))),
        h.count
    );
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels, None), h.sum);
    let _ = writeln!(out, "{name}_count{} {}", label_block(labels, None), h.count);
}

/// Renders the snapshot in Prometheus text exposition format: one
/// `# TYPE` line per metric name, samples in `(name, labels)` order,
/// histograms as cumulative `_bucket{le=...}` series plus `_sum` /
/// `_count`.
pub fn to_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for sample in &snapshot.samples {
        let name = sanitize_metric_name(&sample.name);
        if last_name != Some(sample.name.as_str()) {
            let _ = writeln!(out, "# TYPE {name} {}", kind_of(&sample.value));
            last_name = Some(sample.name.as_str());
        }
        match &sample.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{} {v}", label_block(&sample.labels, None));
            }
            MetricValue::Histogram(h) => push_histogram(&mut out, &name, &sample.labels, h),
        }
    }
    out
}

/// Renders the snapshot as a self-contained JSON object:
/// `{"samples":[{"name":...,"labels":{...},"kind":...,...}]}`, with
/// histograms carrying `count`/`sum`/`p50`/`p99` plus sparse
/// `[upper_bound, count]` bucket pairs.
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::from("{\"samples\":[");
    for (i, sample) in snapshot.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\":\"");
        escape_into(&mut out, &sample.name);
        out.push_str("\",\"labels\":{");
        for (j, (k, v)) in sample.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\":\"");
            escape_into(&mut out, v);
            out.push('"');
        }
        out.push_str("},\"kind\":\"");
        out.push_str(kind_of(&sample.value));
        out.push('"');
        match &sample.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = write!(out, ",\"value\":{v}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                    h.count,
                    h.sum,
                    h.p50(),
                    h.p99()
                );
                let mut first = true;
                for (b, n) in h.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                    if !std::mem::take(&mut first) {
                        out.push(',');
                    }
                    let _ = write!(out, "[{},{n}]", bucket_upper_bound(b));
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Telemetry;

    #[test]
    fn sanitizers_rewrite_illegal_characters() {
        assert_eq!(sanitize_metric_name("a.b-c"), "a_b_c");
        assert_eq!(sanitize_metric_name("0abc"), "_0abc");
        assert_eq!(sanitize_metric_name("ns:total"), "ns:total");
        assert_eq!(sanitize_label_name("a:b"), "a_b");
        assert_eq!(sanitize_label_name("9x"), "_9x");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn counter_and_gauge_exposition() {
        let t = Telemetry::new();
        t.counter("events_total", &[("shard", "0")]).add(5);
        t.gauge("depth", &[]).set(3);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE events_total counter\n"));
        assert!(text.contains("events_total{shard=\"0\"} 5\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth 3\n"));
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_closed_by_inf() {
        let t = Telemetry::new();
        let h = t.histogram("lat_ns", &[]);
        h.record(1);
        h.record(3);
        h.record(3);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram\n"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_ns_sum 7\n"));
        assert!(text.contains("lat_ns_count 3\n"));
    }

    #[test]
    fn json_is_balanced_and_carries_percentiles() {
        let t = Telemetry::new();
        t.histogram("h", &[("k", "v\"q")]).record(100);
        t.counter("c_total", &[]).inc();
        let json = t.snapshot().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"kind\":\"histogram\""));
        assert!(json.contains("\"p99\":127"));
        assert!(json.contains("\\\"q"));
        assert!(json.contains("\"value\":1"));
    }
}
