//! Concurrent-ingestion correctness: attributing the same event set from
//! 8 producer threads through the sharded sink must yield exactly the
//! totals of a single-threaded run through one shard (the historical
//! single-lock pipeline).

use std::sync::Arc;

use deepcontext_core::{Frame, FrameKind, Interner, MetricKind, PathHandle, TimeNs};
use deepcontext_profiler::ShardedSink;
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, StreamId};

const PRODUCERS: usize = 8;
const OPS_PER_PRODUCER: usize = 200;

/// One producer's event stream: a launch (call path + correlation id) and
/// the matching asynchronous kernel activity.
struct LaunchEvent {
    origin: EventOrigin,
    path: PathHandle,
    activity: Activity,
}

fn producer_events(interner: &Arc<Interner>, producer: usize) -> Vec<LaunchEvent> {
    (0..OPS_PER_PRODUCER)
        .map(|k| {
            // A few distinct contexts per producer so trees have shape;
            // kernels repeat so contexts collapse like a real training loop.
            let kernel = format!("kernel_{}", k % 4);
            let corr = (producer * 1_000_000 + k) as u64;
            let path = interner.paths().intern(&[
                Frame::python(&format!("worker{producer}.py"), 10, "step", interner),
                Frame::operator(&format!("aten::op{}", k % 3), interner),
                Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x10, interner),
                Frame::gpu_kernel(&kernel, "module.so", 0x100 + (k % 4) as u64, interner),
            ]);
            let start = TimeNs((k as u64) * 100);
            LaunchEvent {
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
                        entry_pc: 0x100 + (k % 4) as u64,
                        stream: StreamId(producer as u32),
                        start,
                        end: start + TimeNs(250),
                        blocks: 8,
                        warps: 64,
                        occupancy: 0.5,
                        shared_mem_per_block: 0,
                        registers_per_thread: 32,
                    },
                },
            }
        })
        .collect()
}

/// Ingests one producer's stream: launches first, then activities in
/// buffer-sized batches, like the GPU runtime delivers them.
fn ingest(sink: &ShardedSink, events: &[LaunchEvent]) {
    for e in events {
        sink.gpu_launch(&e.origin, e.path, ApiKind::LaunchKernel);
    }
    for chunk in events.chunks(64) {
        sink.activity_batch(chunk.iter().map(|e| e.activity.clone()).collect());
    }
}

fn fingerprint(sink: &ShardedSink) -> (usize, f64, f64, u64, f64) {
    let cct = sink.snapshot();
    let gpu_time = cct.total(MetricKind::GpuTime);
    let launches = cct.total(MetricKind::KernelLaunches);
    let count = cct
        .root_metric(MetricKind::GpuTime)
        .map(|s| s.count)
        .unwrap_or(0);
    // Exclusive metrics: summed across all kernel nodes.
    let warps: f64 = cct
        .nodes_of_kind(FrameKind::GpuKernel)
        .iter()
        .map(|n| cct.node(*n).metrics().sum(MetricKind::Warps))
        .sum();
    (cct.node_count(), gpu_time, launches, count, warps)
}

#[test]
fn eight_threads_match_single_thread_totals() {
    let interner = Interner::new();
    let streams: Vec<Vec<LaunchEvent>> = (0..PRODUCERS)
        .map(|p| producer_events(&interner, p))
        .collect();

    // Baseline: everything through one shard, one thread.
    let single = ShardedSink::new(Arc::clone(&interner), 1);
    for events in &streams {
        ingest(&single, events);
    }

    // Concurrent: 8 OS threads into a 16-way sharded sink.
    let sharded = ShardedSink::new(Arc::clone(&interner), 16);
    let streams = Arc::new(streams);
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let sink = Arc::clone(&sharded);
            let streams = Arc::clone(&streams);
            scope.spawn(move || ingest(&sink, &streams[p]));
        }
    });

    let base = fingerprint(&single);
    let conc = fingerprint(&sharded);
    assert_eq!(
        base, conc,
        "sharded concurrent ingestion must match the single-lock run"
    );

    // Nothing fell through to the catch-all and every record arrived.
    let expected = (PRODUCERS * OPS_PER_PRODUCER) as u64;
    assert_eq!(sharded.counters().activities, expected);
    assert_eq!(sharded.counters().orphans, 0);
    assert_eq!(base.3, expected, "every kernel sample aggregated");
}

#[test]
fn cached_snapshots_stay_consistent_under_eight_producers() {
    // 8 producer threads ingest while a reader loops over the *cached*
    // snapshot path: every intermediate snapshot must be internally
    // consistent, the final totals must be exact, and the cache must
    // demonstrably skip clean shards.
    let interner = Interner::new();
    let sharded = ShardedSink::new(Arc::clone(&interner), 16);
    let streams: Vec<Vec<LaunchEvent>> = (0..PRODUCERS)
        .map(|p| producer_events(&interner, p))
        .collect();
    let streams = Arc::new(streams);
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let sink = Arc::clone(&sharded);
            let streams = Arc::clone(&streams);
            scope.spawn(move || ingest(&sink, &streams[p]));
        }
        // Reader: repeated cached snapshots while producers are live.
        let sink = Arc::clone(&sharded);
        scope.spawn(move || {
            let mut last_time = 0.0;
            for _ in 0..30 {
                sink.with_snapshot(|cct| {
                    let root = cct.total(MetricKind::GpuTime);
                    // Inclusive-metric invariant at every node.
                    for id in cct.dfs() {
                        assert!(root >= cct.node(id).metrics().sum(MetricKind::GpuTime) - 1e-6);
                    }
                    // Aggregates only grow while producers run.
                    assert!(root >= last_time, "snapshot went backwards");
                    last_time = root;
                });
            }
        });
    });

    // Producers are done: totals are exact and match an uncached fold.
    let expected_time = (PRODUCERS * OPS_PER_PRODUCER) as f64 * 250.0;
    let final_cached = sharded.snapshot();
    assert_eq!(final_cached.total(MetricKind::GpuTime), expected_time);
    assert_eq!(
        final_cached.total(MetricKind::KernelLaunches),
        (PRODUCERS * OPS_PER_PRODUCER) as f64
    );
    assert_eq!(
        sharded.snapshot_uncached().semantic_diff(&final_cached),
        None
    );

    // A second quiescent snapshot folds nothing: all 16 shards skip —
    // proof the reader was hitting the cache, not re-folding.
    let merges_before = sharded.counters().snapshot_merges;
    let skipped_before = sharded.counters().shards_skipped;
    let again = sharded.snapshot();
    assert_eq!(again.total(MetricKind::GpuTime), expected_time);
    let counters = sharded.counters();
    assert_eq!(counters.snapshot_merges, merges_before);
    assert_eq!(counters.shards_skipped, skipped_before + 16);
    assert!(counters.shards_skipped > 0);
}

#[test]
fn snapshot_is_stable_while_producers_run() {
    // Folding shards must not disturb ongoing ingestion: interleave
    // snapshots with producer threads and verify the final totals.
    let interner = Interner::new();
    let sharded = ShardedSink::new(Arc::clone(&interner), 8);
    let streams: Vec<Vec<LaunchEvent>> = (0..4).map(|p| producer_events(&interner, p)).collect();
    let streams = Arc::new(streams);
    std::thread::scope(|scope| {
        for p in 0..4 {
            let sink = Arc::clone(&sharded);
            let streams = Arc::clone(&streams);
            scope.spawn(move || ingest(&sink, &streams[p]));
        }
        // Reader thread: snapshots must always be internally consistent
        // (inclusive root >= any child) even mid-ingestion.
        let sink = Arc::clone(&sharded);
        scope.spawn(move || {
            for _ in 0..20 {
                let cct = sink.snapshot();
                let root = cct.total(MetricKind::GpuTime);
                for id in cct.dfs() {
                    assert!(root >= cct.node(id).metrics().sum(MetricKind::GpuTime) - 1e-6);
                }
            }
        });
    });
    let final_time = sharded.snapshot().total(MetricKind::GpuTime);
    assert_eq!(final_time, (4 * OPS_PER_PRODUCER) as f64 * 250.0);
}
