//! Multi-threaded ingestion throughput harness.
//!
//! Drives the profiler's [`EventSink`] directly — launch bindings plus
//! asynchronous activity batches, the exact hot path of §4.2 online
//! aggregation — from N producer threads, comparing the sharded pipeline
//! against [`SingleLockSink`], a faithful reproduction of the pipeline
//! this refactor replaced (one global tree mutex, one correlation-map
//! mutex, and the `Vec::contains`-based two-phase prune, all taken per
//! record). Used by `benches/ingestion.rs` and the `bench_ingestion`
//! snapshot binary.
//!
//! Two effects separate the pipelines: per-record global locking
//! serializes producers (visible on multi-core hosts), and the baseline's
//! O(batch²) prune scan burns time proportional to the activity-buffer
//! capacity on *any* host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use deepcontext_core::{CallPath, CallingContextTree, Frame, Interner, MetricKind, NodeId, TimeNs};
use deepcontext_profiler::{attribute_activity_metrics, EventSink, ShardedSink, SinkCounters};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, StreamId};

/// Activity records per delivered batch: the profiler's default
/// `activity_buffer_capacity` is 4096, so real flushes arrive in batches
/// of this order.
pub const BATCH: usize = 2_048;

/// One pre-built launch event: routing identity, call path, matching
/// asynchronous activity record.
#[derive(Clone)]
pub struct IngestionEvent {
    /// Routing identity (producer thread id, stream, correlation).
    pub origin: EventOrigin,
    /// The unified call path bound at the launch site.
    pub path: CallPath,
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
            let mut path = CallPath::new();
            path.push(Frame::python(
                &format!("worker{producer}.py"),
                7,
                "train_step",
                interner,
            ));
            path.push(Frame::operator(&format!("aten::op{}", k % 5), interner));
            path.push(Frame::gpu_api(
                "cuLaunchKernel",
                "libcuda.so",
                0x10,
                interner,
            ));
            path.push(Frame::gpu_kernel(
                &kernel,
                "module.so",
                0x1000 + (k % 8) as u64,
                interner,
            ));
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

/// The pre-refactor ingestion pipeline, kept as the benchmark baseline:
/// one `Mutex<CallingContextTree>`, one correlation-map mutex and one
/// prune-queue mutex, taken in sequence per record, with the original
/// `Vec`-scan two-phase prune and per-orphan re-interning.
pub struct SingleLockSink {
    cct: Mutex<CallingContextTree>,
    corr: Mutex<HashMap<CorrelationId, NodeId>>,
    prune_queue: Mutex<Vec<CorrelationId>>,
    activities: AtomicU64,
    instruction_samples: AtomicU64,
}

impl SingleLockSink {
    /// Creates the baseline sink over a shared interner.
    pub fn new(interner: Arc<Interner>) -> Arc<Self> {
        Arc::new(SingleLockSink {
            cct: Mutex::new(CallingContextTree::with_interner(interner)),
            corr: Mutex::new(HashMap::new()),
            prune_queue: Mutex::new(Vec::new()),
            activities: AtomicU64::new(0),
            instruction_samples: AtomicU64::new(0),
        })
    }

    fn attribute_activity(&self, activity: &Activity) {
        let node = {
            let corr = self.corr.lock();
            corr.get(&activity.correlation_id).copied()
        };
        let mut cct = self.cct.lock();
        let node = match node {
            Some(n) => n,
            None => {
                // The seed's orphan path: re-intern and re-insert the
                // catch-all per orphaned record.
                let interner = cct.interner();
                let frame = Frame::gpu_kernel("<unattributed>", "<none>", 0, &interner);
                cct.insert_path(std::slice::from_ref(&frame))
            }
        };
        self.activities.fetch_add(1, Ordering::Relaxed);
        // Same metric mapping as the sharded sink — only the locking and
        // prune structure differ between the two pipelines.
        let samples = attribute_activity_metrics(&mut *cct, node, activity);
        drop(cct);
        if matches!(activity.kind, ActivityKind::PcSampling { .. }) {
            self.instruction_samples
                .fetch_add(samples, Ordering::Relaxed);
        } else {
            self.prune_queue.lock().push(activity.correlation_id);
        }
    }
}

impl EventSink for SingleLockSink {
    fn gpu_launch(&self, origin: &EventOrigin, path: CallPath, api: ApiKind) {
        let mut cct = self.cct.lock();
        let node = cct.insert_call_path(&path);
        if api == ApiKind::LaunchKernel {
            cct.attribute(node, MetricKind::KernelLaunches, 1.0);
        }
        drop(cct);
        if let Some(corr) = origin.correlation {
            self.corr.lock().insert(corr, node);
        }
    }

    fn activity_batch(&self, batch: Vec<Activity>) {
        for activity in &batch {
            self.attribute_activity(activity);
        }
        // The seed's two-phase prune: O(queue × batch) Vec scans.
        let mut queue = self.prune_queue.lock();
        let keep: Vec<CorrelationId> = queue.iter().rev().take(batch.len()).copied().collect();
        let mut corr = self.corr.lock();
        for id in queue.drain(..) {
            if !keep.contains(&id) {
                corr.remove(&id);
            }
        }
        *queue = keep;
    }

    fn cpu_sample(&self, _origin: &EventOrigin, path: CallPath, metric: MetricKind, value: f64) {
        let mut cct = self.cct.lock();
        let node = cct.insert_call_path(&path);
        cct.attribute(node, metric, value);
    }

    fn snapshot(&self) -> CallingContextTree {
        self.cct.lock().clone()
    }

    fn counters(&self) -> SinkCounters {
        SinkCounters {
            activities: self.activities.load(Ordering::Relaxed),
            instruction_samples: self.instruction_samples.load(Ordering::Relaxed),
            ..SinkCounters::default()
        }
    }

    fn approx_bytes(&self) -> usize {
        self.cct.lock().approx_bytes()
    }
}

/// Which pipeline a measurement drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// The pre-refactor global-lock pipeline.
    SingleLock,
    /// The sharded pipeline with this many shards.
    Sharded(usize),
}

impl SinkKind {
    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            SinkKind::SingleLock => "single-lock".into(),
            SinkKind::Sharded(n) => format!("sharded-{n}"),
        }
    }

    /// Builds a fresh sink of this kind.
    pub fn build(self, interner: &Arc<Interner>) -> Arc<dyn EventSink> {
        match self {
            SinkKind::SingleLock => SingleLockSink::new(Arc::clone(interner)),
            SinkKind::Sharded(n) => ShardedSink::new(Arc::clone(interner), n),
        }
    }
}

/// Ingests one stream into `sink`: interleaves launches with activity
/// batches the way a runtime delivers them (launch burst, buffer flush).
/// The stream is consumed — paths and records are handed over by value,
/// so callers timing this clone their streams beforehand.
pub fn ingest_stream(sink: &dyn EventSink, events: Vec<IngestionEvent>) {
    let mut batch = Vec::with_capacity(BATCH.min(events.len()));
    for e in events {
        sink.gpu_launch(&e.origin, e.path, ApiKind::LaunchKernel);
        batch.push(e.activity);
        if batch.len() == BATCH {
            sink.activity_batch(std::mem::replace(&mut batch, Vec::with_capacity(BATCH)));
        }
    }
    sink.activity_batch(batch);
}

/// Runs `threads` producers over pre-built `streams` (one per producer)
/// into a fresh sink of `kind`. Returns elapsed seconds.
pub fn run_ingestion(
    interner: &Arc<Interner>,
    streams: &[Vec<IngestionEvent>],
    threads: usize,
    kind: SinkKind,
) -> f64 {
    assert!(threads <= streams.len());
    let sink = kind.build(interner);
    // Cloned outside the timed region: the measurement is the sinks'.
    let owned: Vec<Vec<IngestionEvent>> = streams.iter().take(threads).cloned().collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in owned {
            let sink = Arc::clone(&sink);
            scope.spawn(move || ingest_stream(sink.as_ref(), stream));
        }
    });
    let secs = start.elapsed().as_secs_f64();
    // Sanity: nothing was dropped on the floor.
    let expected: u64 = streams.iter().take(threads).map(|s| s.len() as u64).sum();
    assert_eq!(sink.counters().activities, expected);
    secs
}

/// One measured configuration of the throughput comparison.
#[derive(Debug, Clone, Copy)]
pub struct IngestionPoint {
    /// Producer threads.
    pub threads: usize,
    /// Pipeline measured.
    pub kind: SinkKind,
    /// Events ingested per second (launch + activity pairs).
    pub events_per_sec: f64,
}

/// Measures events/sec for each `(threads, kind)` combination, best of
/// `repeats` runs, `ops` events per producer thread.
pub fn throughput_matrix(
    thread_counts: &[usize],
    kinds: &[SinkKind],
    ops: usize,
    repeats: usize,
) -> Vec<IngestionPoint> {
    let interner = Interner::new();
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let streams: Vec<Vec<IngestionEvent>> = (0..max_threads)
        .map(|p| producer_stream(&interner, p, ops))
        .collect();
    let mut points = Vec::new();
    for &threads in thread_counts {
        for &kind in kinds {
            let events = (threads * ops) as f64;
            let best = (0..repeats.max(1))
                .map(|_| run_ingestion(&interner, &streams, threads, kind))
                .fold(f64::INFINITY, f64::min);
            points.push(IngestionPoint {
                threads,
                kind,
                events_per_sec: events / best,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::MetricKind;

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
        let streams = vec![producer_stream(&interner, 0, 128)];
        let secs = run_ingestion(&interner, &streams, 1, SinkKind::Sharded(4));
        assert!(secs >= 0.0);
        // Totals check through a fresh sink (run_ingestion consumes its own).
        let sink = ShardedSink::new(Arc::clone(&interner), 4);
        ingest_stream(sink.as_ref(), streams[0].clone());
        let cct = sink.snapshot();
        assert_eq!(cct.total(MetricKind::KernelLaunches), 128.0);
        assert_eq!(cct.total(MetricKind::GpuTime), 128.0 * 250.0);
    }

    #[test]
    fn baseline_and_sharded_pipelines_agree_on_totals() {
        let interner = Interner::new();
        let streams = [producer_stream(&interner, 0, 256)];
        let baseline = SinkKind::SingleLock.build(&interner);
        let sharded = SinkKind::Sharded(8).build(&interner);
        ingest_stream(baseline.as_ref(), streams[0].clone());
        ingest_stream(sharded.as_ref(), streams[0].clone());
        let (b, s) = (baseline.snapshot(), sharded.snapshot());
        assert_eq!(b.node_count(), s.node_count());
        assert_eq!(b.total(MetricKind::GpuTime), s.total(MetricKind::GpuTime));
        assert_eq!(
            b.total(MetricKind::KernelLaunches),
            s.total(MetricKind::KernelLaunches)
        );
    }

    #[test]
    fn throughput_matrix_covers_requested_grid() {
        let points = throughput_matrix(
            &[1, 2],
            &[SinkKind::SingleLock, SinkKind::Sharded(4)],
            64,
            1,
        );
        assert_eq!(points.len(), 4);
        for p in points {
            assert!(p.events_per_sec > 0.0);
        }
    }
}
