//! Asynchronous-pipeline producer-cost harness.
//!
//! What does the monitored workload pay per event? Inline (synchronous)
//! ingestion pays routing + shard lock + tree mutation + metric folds on
//! the producer thread; asynchronous ingestion pays routing + a directory
//! bind + a bounded-channel push of the event's few words. The repo
//! benchmark runs `ingestion_mode Sync` only, so the enqueue path is
//! invisible to it: this harness is what gates it. The async sink is
//! given queue headroom for the whole measured window so the number
//! isolates the enqueue path (backpressure never engages — the regime the
//! pipeline is designed to run in). Launches carry their context's handle
//! and activity buffers are pre-cloned outside the timed loop and handed
//! over by value, as the profiler's callbacks do.
//!
//! Two stream shapes: **coarse** (kernel records only — the cheapest
//! possible attribution, where per-launch fixed costs dominate and the
//! gate is the absolute enqueue cost) and **fine-grained** (each kernel
//! preceded by a PC-sampling record, the paper's §6.7 instruction-level
//! mode — where inline attribution must extend call paths per sampled PC
//! and the gate is the producer-side speedup over inline).

use std::sync::Arc;
use std::time::Instant;

use deepcontext_core::{Interner, PathHandle, StallReason};
use deepcontext_profiler::{
    AsyncSink, BackpressurePolicy, EventSink, PipelineConfig, ShardedSink, SinkCounters,
};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, PcSample};

use crate::ingestion::{producer_stream, BATCH};

/// Shards both sinks use (the profiler default).
pub const SHARDS: usize = 16;

/// One pre-built launch with every activity record it produces.
pub struct PipelineEvent {
    /// Routing identity (thread, stream, correlation).
    pub origin: EventOrigin,
    /// The handle of the unified call path bound at the launch site.
    pub path: PathHandle,
    /// The activity records that later resolve through the correlation
    /// (sampling records first, terminal kernel record last).
    pub activities: Vec<Activity>,
}

/// Kernel-record-only stream: the cheapest attribution per event.
pub fn coarse_stream(interner: &Arc<Interner>, ops: usize) -> Vec<PipelineEvent> {
    producer_stream(interner, 0, ops)
        .into_iter()
        .map(|e| PipelineEvent {
            origin: e.origin,
            path: e.path,
            activities: vec![e.activity],
        })
        .collect()
}

/// Fine-grained stream: each kernel also delivers a PC-sampling record
/// with `samples_per_kernel` instruction samples (stall-reason rotation),
/// the §6.7 instruction-level profiling shape.
pub fn fine_grained_stream(
    interner: &Arc<Interner>,
    ops: usize,
    samples_per_kernel: usize,
) -> Vec<PipelineEvent> {
    const STALLS: [StallReason; 4] = [
        StallReason::MemoryDependency,
        StallReason::ExecutionDependency,
        StallReason::ConstantMemory,
        StallReason::None,
    ];
    producer_stream(interner, 0, ops)
        .into_iter()
        .map(|e| {
            let name = match &e.activity.kind {
                ActivityKind::Kernel { name, .. } => Arc::clone(name),
                _ => Arc::from("kernel"),
            };
            let samples: Vec<PcSample> = (0..samples_per_kernel)
                .map(|s| PcSample {
                    pc: 0x40 + (s as u64 % 16) * 8,
                    stall: STALLS[s % STALLS.len()],
                })
                .collect();
            let sampling = Activity {
                correlation_id: e.activity.correlation_id,
                device: e.activity.device,
                kind: ActivityKind::PcSampling { name, samples },
            };
            PipelineEvent {
                origin: e.origin,
                path: e.path,
                activities: vec![sampling, e.activity],
            }
        })
        .collect()
}

/// One measured pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Producer-side nanoseconds per event (launch + its activities).
    pub producer_ns_per_event: f64,
    /// Pipeline counters after the run (drops, queue depth, utilization).
    pub counters: SinkCounters,
}

/// One runtime-owned activity buffer per chunk — prepared outside the
/// timed region, exactly as the real collection path receives them (the
/// GPU runtime owns the buffers it flushes; contexts are handles and
/// need no preparing).
fn prepare(events: &[PipelineEvent]) -> Vec<Vec<Activity>> {
    events
        .chunks(BATCH)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|e| e.activities.iter().cloned())
                .collect()
        })
        .collect()
}

/// Drives one stream: launch bursts, then the chunk's activity buffer
/// by value — the shape the GPU runtime delivers them in.
fn drive_producer(sink: &dyn EventSink, events: &[PipelineEvent], batches: Vec<Vec<Activity>>) {
    for (chunk, batch) in events.chunks(BATCH).zip(batches) {
        for e in chunk {
            sink.gpu_launch(&e.origin, e.path, ApiKind::LaunchKernel);
        }
        sink.activity_batch(batch);
    }
}

/// Producer-side nanoseconds per event of one pass of `events`.
fn measure_once(sink: &dyn EventSink, events: &[PipelineEvent]) -> f64 {
    let batches = prepare(events);
    let start = Instant::now();
    drive_producer(sink, events, batches);
    start.elapsed().as_nanos() as f64 / events.len() as f64
}

/// Measures inline (synchronous) ingestion of `events`: the producer
/// loop *is* the whole pipeline. Best of `repeats`.
pub fn measure_sync(
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    repeats: usize,
) -> PipelinePoint {
    let mut best = f64::INFINITY;
    let mut counters = SinkCounters::default();
    for _ in 0..repeats.max(1) {
        let sink = ShardedSink::new(Arc::clone(interner), SHARDS);
        best = best.min(measure_once(sink.as_ref(), events));
        counters = sink.counters();
    }
    PipelinePoint {
        producer_ns_per_event: best,
        counters,
    }
}

/// Measures asynchronous ingestion of `events` at the default
/// `launch_batch` and worker count, under the default `Block` policy with
/// queue headroom for the entire stream and the worker pool **parked**
/// during the producer loop — so the number isolates the enqueue path
/// itself (no backpressure, and on few-core hosts no worker stealing the
/// producer's core mid-measurement) — then resumes the pool and drains,
/// untimed. Best of `repeats`.
pub fn measure_async(
    events: &[PipelineEvent],
    interner: &Arc<Interner>,
    repeats: usize,
) -> PipelinePoint {
    let mut best = f64::INFINITY;
    let mut counters = SinkCounters::default();
    for _ in 0..repeats.max(1) {
        let sink = AsyncSink::new(
            ShardedSink::new(Arc::clone(interner), SHARDS),
            PipelineConfig {
                // Headroom for every message of the stream: backpressure
                // never engages inside the measured window.
                queue_capacity: events.len() + events.len() / BATCH + SHARDS + 1,
                backpressure: BackpressurePolicy::Block,
                ..PipelineConfig::default()
            },
        );
        sink.pause();
        best = best.min(measure_once(sink.as_ref(), events));
        sink.resume();
        sink.drain();
        counters = sink.counters();
        assert_eq!(
            counters.dropped_events, 0,
            "Block policy must never drop events"
        );
    }
    PipelinePoint {
        producer_ns_per_event: best,
        counters,
    }
}

/// The three scenarios the two gated numbers need, in this order:
/// fine-grained sync inline, coarse async enqueue, fine-grained async
/// enqueue — one producer, `ops` events, best of `repeats`.
pub fn pipeline_matrix(
    ops: usize,
    samples_per_kernel: usize,
    repeats: usize,
) -> [PipelinePoint; 3] {
    let interner = Interner::new();
    let coarse = coarse_stream(&interner, ops);
    let fine = fine_grained_stream(&interner, ops, samples_per_kernel);
    [
        measure_sync(&fine, &interner, repeats),
        measure_async(&coarse, &interner, repeats),
        measure_async(&fine, &interner, repeats),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::MetricKind;
    use deepcontext_profiler::DEFAULT_LAUNCH_BATCH;

    #[test]
    fn matrix_produces_all_scenarios_with_zero_drops() {
        let [fine_sync, coarse_async, fine_async] = pipeline_matrix(256, 4, 1);
        for p in [&fine_sync, &coarse_async, &fine_async] {
            assert!(p.producer_ns_per_event > 0.0, "{p:?}");
            assert_eq!(p.counters.dropped_events, 0, "{p:?}");
        }
        // Fine-grained streams attribute instruction samples too.
        assert!(fine_sync.counters.instruction_samples > 0);
        assert!(fine_async.counters.instruction_samples > 0);
        assert_eq!(coarse_async.counters.instruction_samples, 0);
        // Async scenarios travel through the batcher; sync never does.
        assert!(coarse_async.counters.producer_flushes > 0);
        assert!(coarse_async.counters.batched_events > 0);
        assert_eq!(fine_sync.counters.batched_events, 0);
    }

    #[test]
    fn async_and_batched_profiles_match_the_sync_profile() {
        let interner = Interner::new();
        for events in [
            coarse_stream(&interner, 192),
            fine_grained_stream(&interner, 192, 4),
        ] {
            let sync = ShardedSink::new(Arc::clone(&interner), SHARDS);
            drive_producer(sync.as_ref(), &events, prepare(&events));
            let s = sync.snapshot();
            for launch_batch in [1, DEFAULT_LAUNCH_BATCH] {
                let async_sink = AsyncSink::new(
                    ShardedSink::new(Arc::clone(&interner), SHARDS),
                    PipelineConfig {
                        launch_batch,
                        ..PipelineConfig::default()
                    },
                );
                drive_producer(async_sink.as_ref(), &events, prepare(&events));
                let a = async_sink.snapshot();
                assert_eq!(s.semantic_diff(&a), None, "launch_batch {launch_batch}");
                assert_eq!(s.total(MetricKind::GpuTime), a.total(MetricKind::GpuTime));
            }
        }
    }
}
