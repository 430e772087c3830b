//! Synthetic launch/record streams: launch bindings plus the
//! asynchronous activity records that resolve through them, the exact
//! hot path of §4.2 online aggregation, pre-built so `bench_check` times
//! the profiler's [`EventSink`](deepcontext_profiler::EventSink) alone.

use std::sync::Arc;

use deepcontext_core::{Frame, Interner, PathHandle, TimeNs};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, CorrelationId, DeviceId, StreamId};

/// Activity records per delivered batch: the profiler's default
/// `activity_buffer_capacity` is 4096, so real flushes arrive in batches
/// of this order.
pub const BATCH: usize = 2_048;

/// One pre-built launch event: routing identity, calling context,
/// matching asynchronous activity record.
#[derive(Clone)]
pub struct IngestionEvent {
    /// Routing identity (producer thread id, stream, correlation).
    pub origin: EventOrigin,
    /// The handle of the unified call path bound at the launch site.
    pub path: PathHandle,
    /// The activity record that later resolves through the correlation.
    pub activity: Activity,
}

/// Builds one producer's event stream: `ops` launches over a handful of
/// repeating contexts (a training loop's shape), with unique correlation
/// ids per event.
pub fn producer_stream(
    interner: &Arc<Interner>,
    producer: usize,
    ops: usize,
) -> Vec<IngestionEvent> {
    (0..ops)
        .map(|k| {
            let kernel = format!("kernel_{}", k % 8);
            let corr = (producer as u64) << 32 | k as u64;
            let path = interner.paths().intern(&[
                Frame::python(&format!("worker{producer}.py"), 7, "train_step", interner),
                Frame::operator(&format!("aten::op{}", k % 5), interner),
                Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x10, interner),
                Frame::gpu_kernel(&kernel, "module.so", 0x1000 + (k % 8) as u64, interner),
            ]);
            let start = TimeNs(k as u64 * 300);
            IngestionEvent {
                origin: EventOrigin {
                    tid: Some(producer as u64 + 1),
                    stream: Some(StreamId(producer as u32)),
                    correlation: Some(CorrelationId(corr)),
                },
                path,
                activity: Activity {
                    correlation_id: CorrelationId(corr),
                    device: DeviceId(0),
                    kind: ActivityKind::Kernel {
                        name: Arc::from(kernel.as_str()),
                        module: Arc::from("module.so"),
                        entry_pc: 0x1000 + (k % 8) as u64,
                        stream: StreamId(producer as u32),
                        start,
                        end: start + TimeNs(250),
                        blocks: 16,
                        warps: 128,
                        occupancy: 0.6,
                        shared_mem_per_block: 0,
                        registers_per_thread: 32,
                    },
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::MetricKind;
    use deepcontext_profiler::{EventSink, ShardedSink};
    use sim_gpu::ApiKind;

    #[test]
    fn streams_have_unique_correlations() {
        let interner = Interner::new();
        let a = producer_stream(&interner, 0, 100);
        let b = producer_stream(&interner, 1, 100);
        let mut ids: Vec<u64> = a
            .iter()
            .chain(&b)
            .map(|e| e.activity.correlation_id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn ingestion_attributes_every_event() {
        let interner = Interner::new();
        let sink = ShardedSink::new(Arc::clone(&interner), 4);
        let events = producer_stream(&interner, 0, 128);
        for e in &events {
            sink.gpu_launch(&e.origin, e.path, ApiKind::LaunchKernel);
        }
        sink.activity_batch(events.into_iter().map(|e| e.activity).collect());
        assert_eq!(sink.counters().activities, 128);
        let cct = sink.snapshot();
        assert_eq!(cct.total(MetricKind::KernelLaunches), 128.0);
        assert_eq!(cct.total(MetricKind::GpuTime), 128.0 * 250.0);
    }
}
