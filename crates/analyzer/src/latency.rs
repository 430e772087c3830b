//! Timeline-backed latency analyses.
//!
//! The five aggregate rules ([`rules`](crate::rules)) ask *where the
//! time went*; these two ask *why the device waited* — questions that
//! need the interval tracks the timeline subsystem records (the
//! serialization / idle-gap workflows behind the paper's §6 case
//! studies, which XSP-style across-stack timelines make first-class).
//! Both rules are silent on views without an attached timeline
//! ([`ProfileView::with_timeline`]), so they can sit in the default
//! rule set without affecting aggregate-only analyses. A timeline whose
//! rings overflowed is a trailing window of the run, and both rules say
//! so in what they report ([`window_note`]).

use std::collections::HashMap;

use deepcontext_core::NodeId;
use deepcontext_timeline::TimelineSnapshot;

use crate::issue::{Issue, Severity};
use crate::view::ProfileView;
use crate::Rule;

/// The label of a gap-bounding context, robust to unresolved ids.
fn context_label(view: &ProfileView<'_>, context: Option<NodeId>) -> String {
    match context.filter(|n| n.index() < view.cct().node_count()) {
        Some(node) => view.label(node),
        None => "<unknown context>".to_owned(),
    }
}

/// A context id usable as an [`Issue::node`] anchor (falls back to the
/// root for unresolved contexts).
fn anchor(view: &ProfileView<'_>, context: Option<NodeId>) -> NodeId {
    context
        .filter(|n| n.index() < view.cct().node_count())
        .unwrap_or_else(|| view.cct().root())
}

/// What a finding has to add when ring overflow evicted part of the
/// run: the figures describe the intervals still held, not the run.
/// Empty when nothing was dropped.
fn window_note(timeline: &TimelineSnapshot) -> String {
    if timeline.dropped() == 0 {
        return String::new();
    }
    format!(
        " (timeline holds the last {} of {} intervals)",
        timeline.interval_count(),
        timeline.recorded()
    )
}

/// ⑥ GPU Idle Analysis: flags devices that sit idle for a large share
/// of their active span, charging each idle gap to the CCT context of
/// the launch that *closed* it — the kernel that arrived late is where
/// the pipeline stalled.
///
/// ```text
/// for device in timeline.devices:
///     if device.utilization < utilization_threshold:
///         charge each gap to gap.after.context; flag top offenders
/// ```
#[derive(Debug, Clone)]
pub struct GpuIdleRule {
    /// Utilization (busy / active span) below which a device is flagged
    /// (default 0.90).
    pub utilization_threshold: f64,
    /// Minimum total idle nanoseconds inside the span for the device to
    /// matter (default 1µs — below that the gaps are launch jitter).
    pub min_idle_ns: f64,
    /// How many charged contexts to list per device.
    pub top_k: usize,
}

impl Default for GpuIdleRule {
    fn default() -> Self {
        GpuIdleRule {
            utilization_threshold: 0.90,
            min_idle_ns: 1_000.0,
            top_k: 3,
        }
    }
}

impl Rule for GpuIdleRule {
    fn name(&self) -> &str {
        "gpu-idle"
    }

    fn description(&self) -> &str {
        "finds devices idling between launches and the contexts whose launches arrived late"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let Some(timeline) = view.timeline() else {
            return Vec::new();
        };
        let mut issues = Vec::new();
        for device in &timeline.stats().devices {
            let idle = device.idle().as_nanos() as f64;
            if device.span().as_nanos() == 0
                || device.utilization() >= self.utilization_threshold
                || idle < self.min_idle_ns
            {
                continue;
            }
            // Charge every gap to the context that ended it.
            let mut charged: HashMap<Option<NodeId>, (f64, usize)> = HashMap::new();
            for gap in &device.gaps {
                let entry = charged.entry(gap.after).or_insert((0.0, 0));
                entry.0 += gap.duration().as_nanos() as f64;
                entry.1 += 1;
            }
            let mut ranked: Vec<(Option<NodeId>, (f64, usize))> = charged.into_iter().collect();
            ranked.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
            ranked.truncate(self.top_k.max(1));
            let worst = ranked.first().expect("a flagged device has gaps");
            let node = anchor(view, worst.0);
            let breakdown: Vec<String> = ranked
                .iter()
                .map(|(ctx, (ns, gaps))| {
                    format!(
                        "{} ({:.2}ms over {} gap{})",
                        context_label(view, *ctx),
                        ns / 1e6,
                        gaps,
                        if *gaps == 1 { "" } else { "s" }
                    )
                })
                .collect();
            issues.push(Issue {
                rule: self.name().to_owned(),
                severity: if device.utilization() < 0.5 {
                    Severity::Critical
                } else {
                    Severity::Warning
                },
                node,
                call_path: view.path_string(node),
                message: format!(
                    "device {} idle {:.1}% of its active span ({:.2}ms over {} gaps); \
                     late launches charged to {}{}",
                    device.device,
                    (1.0 - device.utilization()) * 100.0,
                    idle / 1e6,
                    device.gaps.len(),
                    breakdown.join(", "),
                    window_note(timeline)
                ),
                suggestion: "overlap the CPU work ahead of the charged launches with device \
                             execution (pipeline launches, prefetch inputs, or move host-side \
                             pre-processing off the critical path)"
                    .to_owned(),
                metrics: vec![
                    ("utilization".to_owned(), device.utilization()),
                    ("idle_ns".to_owned(), idle),
                    ("gaps".to_owned(), device.gaps.len() as f64),
                ],
                weight: idle,
            });
        }
        issues
    }
}

/// ⑦ Stream Serialization Analysis: flags devices whose streams never
/// execute concurrently — multi-stream code paying single-stream
/// latency.
///
/// ```text
/// for device in timeline.devices:
///     if device.streams >= 2 and device.summed / device.busy < overlap_threshold:
///         flag_issue(device, "Streams serialize")
/// ```
#[derive(Debug, Clone)]
pub struct StreamSerializationRule {
    /// Minimum active streams for the device to count as multi-stream
    /// (default 2).
    pub min_streams: usize,
    /// Overlap factor (summed / union busy; 1.0 = zero concurrency)
    /// below which the streams count as serialized (default 1.2).
    pub overlap_threshold: f64,
    /// Minimum device busy nanoseconds for the verdict to be meaningful
    /// (default 1µs).
    pub min_busy_ns: f64,
}

impl Default for StreamSerializationRule {
    fn default() -> Self {
        StreamSerializationRule {
            min_streams: 2,
            overlap_threshold: 1.2,
            min_busy_ns: 1_000.0,
        }
    }
}

impl Rule for StreamSerializationRule {
    fn name(&self) -> &str {
        "stream-serialization"
    }

    fn description(&self) -> &str {
        "detects multi-stream devices whose streams execute one after another"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let Some(timeline) = view.timeline() else {
            return Vec::new();
        };
        let mut issues = Vec::new();
        for device in &timeline.stats().devices {
            if device.streams < self.min_streams.max(2)
                || (device.busy.as_nanos() as f64) < self.min_busy_ns
                || device.overlap_factor() >= self.overlap_threshold
            {
                continue;
            }
            // Anchor at the context of the device's longest interval —
            // the work most affected by the serialization.
            let longest = timeline
                .tracks()
                .iter()
                .filter(|t| t.key().device == device.device)
                .flat_map(|t| t.intervals())
                .max_by_key(|iv| iv.duration().as_nanos());
            let node = anchor(view, longest.and_then(|iv| iv.context));
            issues.push(Issue {
                rule: self.name().to_owned(),
                severity: Severity::Warning,
                node,
                call_path: view.path_string(node),
                message: format!(
                    "device {} runs {} streams but they serialize: overlap factor {:.2} \
                     (1.0 = no concurrency, {} = perfect overlap){}",
                    device.device,
                    device.streams,
                    device.overlap_factor(),
                    device.streams,
                    window_note(timeline)
                ),
                suggestion: "look for implicit synchronization between the streams: \
                             default-stream work, synchronous memcpys or allocations, or \
                             kernels large enough to saturate the device on their own"
                    .to_owned(),
                metrics: vec![
                    ("streams".to_owned(), device.streams as f64),
                    ("overlap_factor".to_owned(), device.overlap_factor()),
                    ("busy_ns".to_owned(), device.busy.as_nanos() as f64),
                ],
                weight: device.busy.as_nanos() as f64,
            });
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{
        CallingContextTree, Frame, Interner, Interval, IntervalKind, MetricKind, ProfileDb,
        ProfileMeta, TimeNs, TrackKey,
    };
    use deepcontext_timeline::{TimelineConfig, TimelineCounters, TimelineSink};
    use std::sync::{Arc, OnceLock};

    fn interval(
        device: u32,
        stream: u32,
        start: u64,
        end: u64,
        corr: u64,
        context: Option<NodeId>,
    ) -> Interval {
        static INTERNER: OnceLock<Arc<Interner>> = OnceLock::new();
        Interval {
            track: TrackKey { device, stream },
            start: TimeNs(start),
            end: TimeNs(end),
            kind: IntervalKind::Kernel,
            name: INTERNER.get_or_init(Interner::new).intern("k"),
            correlation: corr,
            context,
        }
    }

    fn snapshot(intervals: Vec<Interval>) -> TimelineSnapshot {
        let counters = TimelineCounters {
            recorded: intervals.len() as u64,
            dropped: 0,
        };
        TimelineSnapshot::from_intervals(intervals, counters)
    }

    fn db_with_kernel() -> (ProfileDb, NodeId) {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let node = cct.insert_path(&[
            Frame::python("train.py", 3, "step", &i),
            Frame::operator("aten::relu", &i),
            Frame::gpu_kernel("relu_kernel", "m.so", 0x10, &i),
        ]);
        cct.attribute(node, MetricKind::GpuTime, 100.0);
        (ProfileDb::new(ProfileMeta::default(), cct), node)
    }

    #[test]
    fn rules_are_silent_without_a_timeline() {
        let (db, _) = db_with_kernel();
        let view = ProfileView::new(&db);
        assert!(GpuIdleRule::default().analyze(&view).is_empty());
        assert!(StreamSerializationRule::default().analyze(&view).is_empty());
    }

    #[test]
    fn idle_rule_charges_gaps_to_the_closing_context() {
        let (db, node) = db_with_kernel();
        // 10µs busy, then a 90µs gap closed by the same context: 10%
        // utilization — critical.
        let timeline = snapshot(vec![
            interval(0, 0, 0, 10_000, 1, Some(node)),
            interval(0, 0, 100_000, 110_000, 2, Some(node)),
        ]);
        let view = ProfileView::new(&db).with_timeline(&timeline);
        let issues = GpuIdleRule::default().analyze(&view);
        assert_eq!(issues.len(), 1);
        let issue = &issues[0];
        assert_eq!(issue.severity, Severity::Critical);
        assert_eq!(issue.node, node);
        assert!(issue.message.contains("device 0"), "{}", issue.message);
        assert!(issue.message.contains("relu_kernel"), "{}", issue.message);
        assert!(issue.call_path.contains("aten::relu"));
        assert!(issues[0]
            .metrics
            .iter()
            .any(|(k, v)| k == "idle_ns" && *v == 90_000.0));
    }

    #[test]
    fn idle_rule_ignores_busy_devices() {
        let (db, node) = db_with_kernel();
        let timeline = snapshot(vec![
            interval(0, 0, 0, 50_000, 1, Some(node)),
            interval(0, 0, 50_000, 100_000, 2, Some(node)),
        ]);
        let view = ProfileView::new(&db).with_timeline(&timeline);
        assert!(GpuIdleRule::default().analyze(&view).is_empty());
    }

    #[test]
    fn serialization_rule_flags_back_to_back_streams() {
        let (db, node) = db_with_kernel();
        // Two streams, zero overlap: factor exactly 1.0.
        let timeline = snapshot(vec![
            interval(0, 0, 0, 50_000, 1, Some(node)),
            interval(0, 1, 50_000, 100_000, 2, Some(node)),
        ]);
        let view = ProfileView::new(&db).with_timeline(&timeline);
        let issues = StreamSerializationRule::default().analyze(&view);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("2 streams"));
        assert!(issues[0].message.contains("1.00"));
        assert_eq!(issues[0].node, node);
    }

    #[test]
    fn serialization_rule_accepts_overlapping_streams() {
        let (db, node) = db_with_kernel();
        let timeline = snapshot(vec![
            interval(0, 0, 0, 80_000, 1, Some(node)),
            interval(0, 1, 10_000, 90_000, 2, Some(node)),
        ]);
        let view = ProfileView::new(&db).with_timeline(&timeline);
        assert!(StreamSerializationRule::default().analyze(&view).is_empty());
        // Single-stream devices are never "serialized".
        let single = snapshot(vec![interval(1, 0, 0, 10_000, 1, Some(node))]);
        let view = ProfileView::new(&db).with_timeline(&single);
        assert!(StreamSerializationRule::default().analyze(&view).is_empty());
    }

    #[test]
    fn findings_on_an_overflowed_timeline_say_it_is_a_window() {
        let (db, node) = db_with_kernel();
        // Two serialized streams with a long gap, through rings too small
        // to keep them: ten intervals recorded, four held.
        let record = |ring_capacity: usize| {
            let config = TimelineConfig {
                enabled: true,
                ring_capacity,
            };
            let sink = TimelineSink::new(1, &config);
            for n in 0..10u64 {
                let start = n * 100_000;
                sink.record(
                    0,
                    interval(0, (n % 2) as u32, start, start + 10_000, n, Some(node)),
                );
            }
            sink.snapshot_with(&[])
        };
        let analyze = |timeline: &TimelineSnapshot| {
            let view = ProfileView::new(&db).with_timeline(timeline);
            let mut issues = GpuIdleRule::default().analyze(&view);
            issues.extend(StreamSerializationRule::default().analyze(&view));
            issues
        };
        let (whole, window) = (record(16), record(4));
        assert_eq!((whole.dropped(), window.dropped()), (0, 6));
        let (on_whole, on_window) = (analyze(&whole), analyze(&window));
        assert_eq!(on_whole.len(), 2);
        assert_eq!(on_window.len(), 2, "the note adds no issue");
        for issue in &on_window {
            assert!(
                issue
                    .message
                    .ends_with("(timeline holds the last 4 of 10 intervals)"),
                "{}",
                issue.message
            );
        }
        for issue in &on_whole {
            assert!(
                !issue.message.contains("timeline holds"),
                "{}",
                issue.message
            );
        }
    }

    #[test]
    fn unresolved_contexts_fall_back_to_the_root() {
        let (db, _) = db_with_kernel();
        let timeline = snapshot(vec![
            interval(0, 0, 0, 1_000, 1, None),
            interval(0, 0, 100_000, 101_000, 2, None),
        ]);
        let view = ProfileView::new(&db).with_timeline(&timeline);
        let issues = GpuIdleRule::default().analyze(&view);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].node, db.cct().root());
        assert!(issues[0].message.contains("<unknown context>"));
    }
}
