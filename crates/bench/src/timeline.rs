//! Timeline-recording overhead harness.
//!
//! The timeline tap sits inside the attribution path (the interval is
//! recorded while the shard lock is already held), so its producer-side
//! cost is sharpest in synchronous inline mode, where attribution runs
//! on the monitored workload's thread. This harness measures exactly
//! that worst case: the same pre-built event stream driven through a
//! [`ShardedSink`] with recording off (the baseline every earlier bench
//! measured) and on, over two stream shapes:
//!
//! * **coarse** — one producer, one stream: every interval lands in one
//!   ring, the maximal per-ring pressure;
//! * **multi-stream** — the `MultiStream` workload's shape (2 devices ×
//!   3 streams, interleaved): intervals fan out across tracks the way
//!   the timeline's analyses consume them.
//!
//! The headline number is `overhead = on / off` per scenario; the
//! acceptance bar is ≤ 1.15x with zero ring overflows at the default
//! capacity.

use std::sync::Arc;
use std::time::Instant;

use deepcontext_core::{Frame, Interner, TimeNs};
use deepcontext_profiler::{EventSink, ShardedSink, SinkCounters, SinkOptions, TimelineConfig};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, CorrelationId, DeviceId, StreamId};

use crate::pipeline::{drive_producer, prepare, PipelineEvent};

/// Shards the sink uses (the profiler default).
pub const SHARDS: usize = 16;

/// One measured timeline configuration.
#[derive(Debug, Clone)]
pub struct TimelinePoint {
    /// Scenario label (report key), `*_off` or `*_on`.
    pub scenario: String,
    /// Producer-side nanoseconds per event (launch + its activities,
    /// attributed inline).
    pub producer_ns_per_event: f64,
    /// Sink counters after the run (interval/overflow accounting).
    pub counters: SinkCounters,
}

/// Builds the multi-stream event stream: `ops` kernel launches
/// interleaved round-robin over `devices × streams` placements from one
/// producer thread, with overlapping device windows per stream — the
/// `MultiStream` workload's shape, pre-built so the timed loop measures
/// only sink cost.
pub fn multi_stream_events(
    interner: &Arc<Interner>,
    ops: usize,
    devices: u32,
    streams: u32,
) -> Vec<PipelineEvent> {
    let branches = (devices * streams).max(1) as usize;
    (0..ops)
        .map(|k| {
            let branch = k % branches;
            let device = (branch as u32) % devices.max(1);
            let stream = (branch as u32) / devices.max(1);
            let kernel = format!("kernel_{}", k % 8);
            let corr = k as u64 + 1;
            let path = interner.paths().intern(&[
                Frame::python("multi_stream.py", 7, "forward", interner),
                Frame::operator(&format!("aten::op{}", k % 5), interner),
                Frame::gpu_kernel(&kernel, "module.so", 0x1000 + (k % 8) as u64, interner),
            ]);
            // Streams advance independently, so same-device streams
            // overlap in device time like real concurrent inference.
            let start = TimeNs((k / branches) as u64 * 300 + u64::from(stream) * 40);
            PipelineEvent {
                origin: EventOrigin {
                    tid: Some(1),
                    stream: Some(StreamId(stream)),
                    correlation: Some(CorrelationId(corr)),
                },
                path,
                activities: vec![Activity {
                    correlation_id: CorrelationId(corr),
                    device: DeviceId(device),
                    kind: ActivityKind::Kernel {
                        name: Arc::from(kernel.as_str()),
                        module: Arc::from("module.so"),
                        entry_pc: 0x1000 + (k % 8) as u64,
                        stream: StreamId(stream),
                        start,
                        end: start + TimeNs(250),
                        blocks: 16,
                        warps: 128,
                        occupancy: 0.6,
                        shared_mem_per_block: 0,
                        registers_per_thread: 32,
                    },
                }],
            }
        })
        .collect()
}

/// Measures inline synchronous ingestion of `events` with the given
/// timeline configuration, best of `repeats`.
pub fn measure_with_timeline(
    label: &str,
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    repeats: usize,
    timeline: &TimelineConfig,
) -> TimelinePoint {
    let mut best = f64::INFINITY;
    let mut counters = SinkCounters::default();
    for _ in 0..repeats.max(1) {
        let sink = ShardedSink::with(
            Arc::clone(interner),
            SinkOptions {
                shards: SHARDS,
                timeline: *timeline,
                ..SinkOptions::default()
            },
        );
        let inputs = prepare(events);
        let start = Instant::now();
        drive_producer(sink.as_ref(), events, inputs);
        let elapsed = start.elapsed().as_nanos() as f64;
        counters = sink.counters();
        best = best.min(elapsed / events.len() as f64);
    }
    TimelinePoint {
        scenario: format!("{label}_{}", if timeline.enabled { "on" } else { "off" }),
        producer_ns_per_event: best,
        counters,
    }
}

/// The full comparison: recording off vs on over the coarse and
/// multi-stream streams. Returns points in `(off, on)` pairs per shape.
pub fn timeline_matrix(ops: usize, repeats: usize) -> Vec<TimelinePoint> {
    let interner = Interner::new();
    let coarse = crate::pipeline::coarse_stream(&interner, ops);
    let multi = multi_stream_events(&interner, ops, 2, 3);
    let off = TimelineConfig::default();
    let on = TimelineConfig::enabled();
    vec![
        measure_with_timeline("coarse", &coarse, &interner, repeats, &off),
        measure_with_timeline("coarse", &coarse, &interner, repeats, &on),
        measure_with_timeline("multi_stream", &multi, &interner, repeats, &off),
        measure_with_timeline("multi_stream", &multi, &interner, repeats, &on),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::MetricKind;

    #[test]
    fn matrix_measures_all_scenarios_without_overflow() {
        let points = timeline_matrix(512, 1);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.producer_ns_per_event > 0.0, "{}", p.scenario);
            assert_eq!(p.counters.timeline_dropped, 0, "{}", p.scenario);
            if p.scenario.ends_with("_on") {
                assert_eq!(p.counters.timeline_intervals, 512, "{}", p.scenario);
            } else {
                assert_eq!(p.counters.timeline_intervals, 0, "{}", p.scenario);
            }
        }
    }

    #[test]
    fn multi_stream_events_cover_every_placement_and_profile_identically() {
        let interner = Interner::new();
        let events = multi_stream_events(&interner, 600, 2, 3);
        let on = ShardedSink::with(
            Arc::clone(&interner),
            SinkOptions {
                shards: SHARDS,
                timeline: TimelineConfig::enabled(),
                ..SinkOptions::default()
            },
        );
        drive_producer(on.as_ref(), &events, prepare(&events));
        let timeline = on.timeline_snapshot().expect("timeline on");
        assert_eq!(timeline.tracks().len(), 6, "2 devices × 3 streams");
        for device in timeline.stats().devices.iter() {
            assert!(device.overlap_factor() > 1.0, "streams overlap");
        }
        // Recording is a tap, not a fork: the profile itself is
        // unchanged by the timeline.
        let off = ShardedSink::new(Arc::clone(&interner), SHARDS);
        drive_producer(off.as_ref(), &events, prepare(&events));
        assert_eq!(on.snapshot().semantic_diff(&off.snapshot()), None);
        assert_eq!(
            on.snapshot().total(MetricKind::GpuTime),
            off.snapshot().total(MetricKind::GpuTime)
        );
    }
}
