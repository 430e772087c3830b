//! Regression gate over the committed benchmark scoreboards.
//!
//! Scans the working directory for `BENCH_*.json`, pairs every
//! top-level `target_<metric>` field with its recorded `<metric>`, and
//! fails (exit 1) when a recorded value misses its target. The
//! direction of "misses" is keyed off the metric name:
//!
//! * names containing `overhead` or `ratio` are *lower-is-better* —
//!   the recorded value must be `<=` the target (a ratio over a
//!   baseline measured in the same run, or — `*_overhead_ns` — an
//!   absolute ns/event cost, for bars whose baseline is itself a thing
//!   the tree keeps making cheaper);
//! * names containing `speedup` or `events_per_sec` are
//!   *higher-is-better* — the recorded value must be `>=` the target;
//! * anything else is an error: name the metric so the direction is
//!   self-evident, or the gate refuses to guess.
//!
//! The scoreboards are committed, so this runs against the numbers the
//! tree actually claims — CI re-checking them catches both a stale
//! scoreboard and a target edit that quietly loosens the bar.
//!
//! Run from the repo root: `cargo run --release -p deepcontext-bench
//! --bin bench_check`.

use std::process::ExitCode;

/// Extracts top-level `"key": <number>` fields. Nested containers
/// (`points` arrays and any objects inside them) are skipped by depth
/// tracking — targets live at the top level by convention. The scanner
/// tolerates everything else in the file (strings, booleans, arrays).
fn top_level_numbers(text: &str) -> Vec<(String, f64)> {
    let bytes = text.as_bytes();
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth -= 1;
                i += 1;
            }
            b'"' => {
                // A string: either a key (at depth 1, followed by ':')
                // or a value; scan it whole either way so braces inside
                // strings never confuse the depth counter.
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let key = &text[start..j.min(text.len())];
                i = j + 1;
                if depth != 1 {
                    continue;
                }
                // Key position: skip whitespace, expect ':'.
                let mut k = i;
                while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                    k += 1;
                }
                if bytes.get(k) != Some(&b':') {
                    continue;
                }
                k += 1;
                while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                    k += 1;
                }
                let num_start = k;
                while k < bytes.len()
                    && matches!(bytes[k], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    k += 1;
                }
                if k > num_start {
                    if let Ok(value) = text[num_start..k].parse::<f64>() {
                        fields.push((key.to_string(), value));
                        i = k;
                    }
                }
            }
            _ => i += 1,
        }
    }
    fields
}

/// Whether `value` satisfies the target for `metric`, or `None` when
/// the metric name encodes no direction.
fn satisfies(metric: &str, value: f64, target: f64) -> Option<bool> {
    if metric.contains("overhead") || metric.contains("ratio") {
        Some(value <= target)
    } else if metric.contains("speedup") || metric.contains("events_per_sec") {
        Some(value >= target)
    } else {
        None
    }
}

fn main() -> ExitCode {
    let mut scoreboards: Vec<std::path::PathBuf> = std::fs::read_dir(".")
        .expect("read working directory")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    scoreboards.sort();
    if scoreboards.is_empty() {
        eprintln!("bench-check: no BENCH_*.json in the working directory (run from the repo root)");
        return ExitCode::FAILURE;
    }

    let mut checked = 0usize;
    let mut failures = 0usize;
    for path in &scoreboards {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("FAIL {name}: unreadable ({err})");
                failures += 1;
                continue;
            }
        };
        let fields = top_level_numbers(&text);
        for (key, target) in &fields {
            let Some(metric) = key.strip_prefix("target_") else {
                continue;
            };
            let Some((_, value)) = fields.iter().find(|(k, _)| k == metric) else {
                eprintln!("FAIL {name}: {key} has no recorded \"{metric}\" to check");
                failures += 1;
                continue;
            };
            checked += 1;
            match satisfies(metric, *value, *target) {
                Some(true) => eprintln!("  ok {name}: {metric} {value} vs target {target}"),
                Some(false) => {
                    eprintln!("FAIL {name}: {metric} {value} misses target {target}");
                    failures += 1;
                }
                None => {
                    eprintln!(
                        "FAIL {name}: metric \"{metric}\" encodes no direction \
                         (expected overhead/ratio or speedup/events_per_sec in the name)"
                    );
                    failures += 1;
                }
            }
        }
    }
    if checked == 0 {
        eprintln!("bench-check: no target_* fields found in any scoreboard");
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        eprintln!("bench-check: {failures} failure(s) over {checked} checked target(s)");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench-check: {checked} target(s) satisfied across {} scoreboard(s)",
        scoreboards.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_reads_top_level_numbers_only() {
        let text = r#"{
  "bench": "timeline",
  "max_overhead": 1.171,
  "points": [
    {"scenario": "a", "producer_ns_per_event": 500}
  ],
  "target_max_overhead": 1.25
}"#;
        let fields = top_level_numbers(text);
        assert_eq!(
            fields,
            vec![
                ("max_overhead".to_string(), 1.171),
                ("target_max_overhead".to_string(), 1.25)
            ]
        );
    }

    #[test]
    fn direction_is_keyed_off_the_metric_name() {
        assert_eq!(satisfies("max_overhead", 1.1, 1.25), Some(true));
        assert_eq!(satisfies("max_overhead", 1.3, 1.25), Some(false));
        assert_eq!(
            satisfies("coarse_enqueue_overhead_ns", 160.0, 200.0),
            Some(true)
        );
        assert_eq!(satisfies("producer_speedup", 7.0, 5.0), Some(true));
        assert_eq!(satisfies("producer_speedup", 3.0, 5.0), Some(false));
        assert_eq!(satisfies("mystery_metric", 1.0, 1.0), None);
    }
}
