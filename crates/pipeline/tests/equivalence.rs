//! Pipeline correctness: the sink against itself and against a count.
//!
//! For arbitrary interleavings of launches (kernels and memcpys, from
//! full contexts and strict prefixes of them), activity flushes (kernel,
//! memcpy and PC-sampling records), CPU samples, epoch boundaries and
//! snapshot requests, at every snapshot request:
//!
//! * **`cached == fresh`**: the incrementally cached fold and
//!   [`ShardedSink::snapshot_uncached`] are semantically identical (via
//!   `CallingContextTree::semantic_diff`), mid-stream, at 16 shards and
//!   at 1;
//! * **`16 shards == 1 shard`**: the layout changes nothing either;
//! * **nothing waits**: every launch and CPU sample driven so far is in
//!   the snapshot, whether or not a batch or boundary followed it.
//!
//! And once the stream closes: the correlation directory is empty, every
//! kernel/memcpy record produced one timeline interval, and the journal
//! holds one `pipeline.epoch` event per boundary driven.

use std::sync::Arc;

use deepcontext_core::{Frame, Interner, MetricKind, PathHandle, StallReason, TimeNs};
use deepcontext_pipeline::{
    journal_sites, EventSink, Failpoints, JournalConfig, ShardedSink, SinkOptions, TimelineConfig,
};
use dlmonitor::EventOrigin;
use proptest::prelude::*;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, PcSample, StreamId};

/// Joins a thread and, on panic, surfaces the panic payload text in the
/// failure message instead of the opaque `Any` a bare `expect` prints.
fn join_reporting<T>(handle: std::thread::JoinHandle<T>, what: &str) -> T {
    handle.join().unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        panic!("{what} panicked: {msg}");
    })
}

fn context_path(interner: &Arc<Interner>, tid: u64, ctx: u8) -> PathHandle {
    context_prefix(interner, tid, ctx, 3)
}

/// The first `depth` frames of [`context_path`]: below 3, a strict
/// prefix of it.
fn context_prefix(interner: &Arc<Interner>, tid: u64, ctx: u8, depth: usize) -> PathHandle {
    let (kernel, pc) = (format!("kernel_{ctx}"), 0x100 + u64::from(ctx));
    let frames = [
        Frame::python(&format!("worker{tid}.py"), 10, "step", interner),
        Frame::operator(&format!("aten::op{ctx}"), interner),
        Frame::gpu_kernel(&kernel, "module.so", pc, interner),
    ];
    interner.paths().intern(&frames[..depth])
}

fn kernel_activity(corr: u64, ctx: u8) -> Activity {
    let start = TimeNs(corr * 10);
    Activity {
        correlation_id: CorrelationId(corr),
        device: DeviceId(0),
        kind: ActivityKind::Kernel {
            name: Arc::from(format!("kernel_{ctx}").as_str()),
            module: Arc::from("module.so"),
            entry_pc: 0x100 + u64::from(ctx),
            stream: StreamId(u32::from(ctx)),
            start,
            end: start + TimeNs(100 + u64::from(ctx)),
            blocks: 8,
            warps: 64,
            occupancy: 0.5,
            shared_mem_per_block: 0,
            registers_per_thread: 32,
        },
    }
}

/// What an outstanding launch completes as: kernels whose correlation
/// divides by three deliver a PC-sampling record ahead of the kernel
/// record, memcpys a memcpy record.
fn completion_records(corr: u64, ctx: u8, api: ApiKind) -> Vec<Activity> {
    let activity = |kind| Activity {
        correlation_id: CorrelationId(corr),
        device: DeviceId(0),
        kind,
    };
    let stall = StallReason::MemoryDependency;
    match api {
        ApiKind::MemcpyAsync => vec![activity(ActivityKind::Memcpy {
            bytes: 1024 + corr,
            stream: StreamId(u32::from(ctx)),
            start: TimeNs(corr * 10),
            end: TimeNs(corr * 10 + 50),
        })],
        _ if !corr.is_multiple_of(3) => vec![kernel_activity(corr, ctx)],
        _ => {
            let pc = |s| 0x8 * (s + corr % 2);
            let samples = (0..2 + corr % 3).map(|s| PcSample { pc: pc(s), stall });
            let name = Arc::from(format!("kernel_{ctx}").as_str());
            let samples = samples.collect();
            let sampling = activity(ActivityKind::PcSampling { name, samples });
            vec![sampling, kernel_activity(corr, ctx)]
        }
    }
}

fn launch_origin(tid: u64, ctx: u8, corr: u64) -> EventOrigin {
    EventOrigin {
        tid: Some(tid),
        stream: Some(StreamId(u32::from(ctx))),
        correlation: Some(CorrelationId(corr)),
    }
}

/// One step of a randomly interleaved profiling session.
#[derive(Debug, Clone)]
enum Step {
    /// A launch on `(tid, stream=ctx)`: binds a fresh correlation to the
    /// first `depth` frames of one of a few repeating contexts (below 3:
    /// a strict prefix of the full path), as a kernel launch or a memcpy.
    Launch {
        tid: u64,
        ctx: u8,
        depth: usize,
        api: ApiKind,
    },
    /// Delivers all outstanding activities as one batch.
    Flush,
    /// A CPU sample attributing an integer value on a thread's context.
    Sample { tid: u64, ctx: u8, value: u16 },
    /// A flush boundary (`Profiler::flush` tail).
    Epoch,
    /// A snapshot request — the point where the folds must agree.
    Snapshot,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..6, 0u8..5, 0usize..8).prop_map(|(tid, ctx, shape)| Step::Launch {
            tid: tid + 1,
            ctx,
            // Mostly full paths; one launch in four a strict prefix, one
            // in four a memcpy.
            depth: if shape % 4 == 3 { 1 + shape / 4 } else { 3 },
            api: if shape % 4 == 2 {
                ApiKind::MemcpyAsync
            } else {
                ApiKind::LaunchKernel
            },
        }),
        Just(Step::Flush).boxed(),
        (0u64..6, 0u8..5, 1u16..500).prop_map(|(tid, ctx, value)| Step::Sample {
            tid: tid + 1,
            ctx,
            value,
        }),
        Just(Step::Epoch).boxed(),
        Just(Step::Snapshot).boxed(),
    ]
}

/// Drives one interleaving into a 16-shard and a 1-shard sink, checking
/// the module's invariants at every snapshot point and once more after
/// the stream closes.
fn check_interleaving(steps: &[Step]) {
    let interner = Interner::new();
    let sink = |shards| {
        ShardedSink::with(
            Arc::clone(&interner),
            SinkOptions {
                shards,
                timeline: TimelineConfig::enabled(),
                journal: JournalConfig::enabled(),
                failpoints: Failpoints::disabled(),
                ..SinkOptions::default()
            },
        )
    };
    let sinks = [sink(16), sink(1)];

    let mut next_corr = 1u64;
    let mut outstanding: Vec<(u64, u8, ApiKind)> = Vec::new();
    let mut snapshots = 0u32;
    // What a snapshot must hold whatever followed: kernel launches and
    // CPU time driven so far.
    let (mut kernel_launches, mut cpu_time) = (0.0, 0.0);
    // Activity records with a device-time window delivered so far —
    // exactly the records that must each produce one timeline interval
    // (sampling records carry none).
    let mut intervals_delivered = 0u64;
    let mut flush = |outstanding: &mut Vec<(u64, u8, ApiKind)>| {
        let batch: Vec<Activity> = outstanding
            .drain(..)
            .flat_map(|(corr, ctx, api)| completion_records(corr, ctx, api))
            .collect();
        let windowed = |a: &&Activity| !matches!(a.kind, ActivityKind::PcSampling { .. });
        intervals_delivered += batch.iter().filter(windowed).count() as u64;
        for sink in &sinks {
            sink.activity_batch(batch.clone());
        }
    };

    for step in steps {
        match step {
            Step::Launch {
                tid,
                ctx,
                depth,
                api,
            } => {
                let corr = next_corr;
                next_corr += 1;
                let origin = launch_origin(*tid, *ctx, corr);
                let path = context_prefix(&interner, *tid, *ctx, *depth);
                for sink in &sinks {
                    sink.gpu_launch(&origin, path, *api);
                }
                kernel_launches += f64::from(u8::from(*api == ApiKind::LaunchKernel));
                outstanding.push((corr, *ctx, *api));
            }
            Step::Flush => flush(&mut outstanding),
            Step::Sample { tid, ctx, value } => {
                let origin = EventOrigin {
                    tid: Some(*tid),
                    ..EventOrigin::default()
                };
                let path = context_path(&interner, *tid, *ctx);
                for sink in &sinks {
                    sink.cpu_sample(&origin, path, MetricKind::CpuTime, f64::from(*value));
                }
                cpu_time += f64::from(*value);
            }
            Step::Epoch => sinks.iter().for_each(|sink| sink.epoch_complete()),
            Step::Snapshot => {
                snapshots += 1;
                let [wide, narrow] = sinks.each_ref().map(|sink| {
                    let cached = sink.snapshot();
                    let fresh = sink.snapshot_uncached();
                    (sink.shard_count(), cached, fresh)
                });
                for (shards, cached, fresh) in [&wide, &narrow] {
                    prop_assert_eq!(
                        cached.semantic_diff(fresh),
                        None,
                        "cached != fresh at {} shards, snapshot #{}",
                        shards,
                        snapshots
                    );
                    prop_assert_eq!(
                        (
                            cached.total(MetricKind::KernelLaunches),
                            cached.total(MetricKind::CpuTime)
                        ),
                        (kernel_launches, cpu_time),
                        "a launch or sample waited at {} shards, snapshot #{}",
                        shards,
                        snapshots
                    );
                }
                prop_assert_eq!(
                    wide.1.semantic_diff(&narrow.1),
                    None,
                    "16 shards != 1 shard, snapshot #{}",
                    snapshots
                );
            }
        }
    }

    // Close the stream: deliver what is outstanding, then one boundary.
    flush(&mut outstanding);
    let mut finished = Vec::new();
    for sink in &sinks {
        sink.epoch_complete();
        let shards = sink.shard_count();
        prop_assert_eq!(sink.correlation_entries(), 0, "{} shards", shards);
        let timeline = sink.timeline_snapshot().expect("timeline on");
        prop_assert_eq!(
            timeline.recorded(),
            intervals_delivered,
            "every kernel/memcpy record produced exactly one interval ({} shards)",
            shards
        );
        // Each interval's `Sym` resolves through the snapshot's captured
        // symbol table back to the launched kernel's name.
        for interval in timeline.tracks().iter().flat_map(|t| t.intervals()) {
            let name = timeline.name_of(interval.name);
            prop_assert!(
                name.is_some_and(|n| n.starts_with("kernel_") || n == "memcpy"),
                "interval corr {} resolved to {:?} ({} shards)",
                interval.correlation,
                name,
                shards
            );
        }
        let epochs = 1 + steps.iter().filter(|s| matches!(s, Step::Epoch)).count();
        let journal = sink.journal().expect("journal on").snapshot();
        prop_assert_eq!(
            journal.events_at(journal_sites::PIPELINE_EPOCH).count(),
            epochs,
            "one journal event per boundary ({} shards)",
            shards
        );
        prop_assert_eq!(sink.counters().orphans, 0);
        finished.push(sink.finish_snapshot());
    }
    prop_assert_eq!(finished[0].semantic_diff(&finished[1]), None, "finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_fresh_and_single_shard_folds_agree_and_nothing_waits(
        steps in prop::collection::vec(arb_step(), 1..80),
    ) {
        check_interleaving(&steps);
    }
}

#[test]
fn epoch_complete_retires_correlation_state_without_changing_the_profile() {
    // A boundary shrinks resident state while the profile and its
    // snapshot-cache generations stay untouched.
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let mut batch = Vec::new();
    for corr in 1..=2000u64 {
        let ctx = (corr % 5) as u8;
        let tid = corr % 7 + 1;
        sink.gpu_launch(
            &launch_origin(tid, ctx, corr),
            context_path(&interner, tid, ctx),
            ApiKind::LaunchKernel,
        );
        batch.push(kernel_activity(corr, ctx));
    }
    sink.activity_batch(batch);

    let before = sink.snapshot();
    let before_bytes = sink.approx_bytes();
    sink.epoch_complete();

    assert!(
        sink.approx_bytes() < before_bytes,
        "epoch_complete must shrink resident state: {} !< {before_bytes}",
        sink.approx_bytes()
    );
    let merges = sink.counters().snapshot_merges;
    let after = sink.snapshot();
    assert_eq!(before.semantic_diff(&after), None);
    assert_eq!(sink.counters().snapshot_merges, merges, "all shards clean");
}

#[test]
fn snapshot_readers_share_the_cached_master_without_queueing() {
    // Two `with_snapshot` callbacks rendezvous on a barrier *inside*
    // their closures: that can only succeed if readers run concurrently
    // on a shared snapshot. The pre-Arc design held the cache mutex for
    // the length of each callback, so this exact shape deadlocked.
    use std::sync::Barrier;
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 4);
    let origin = EventOrigin {
        tid: Some(1),
        ..EventOrigin::default()
    };
    let path = context_path(&interner, 1, 0);
    sink.cpu_sample(&origin, path, MetricKind::CpuTime, 5.0);

    let barrier = Arc::new(Barrier::new(2));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let sink = Arc::clone(&sink);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut total = 0.0;
                sink.with_snapshot(&mut |cct| {
                    barrier.wait();
                    total = cct.total(MetricKind::CpuTime);
                });
                total
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while readers.iter().any(|r| !r.is_finished()) && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert!(
        readers.iter().all(|r| r.is_finished()),
        "concurrent with_snapshot readers deadlocked on the cache lock"
    );
    for reader in readers {
        assert_eq!(join_reporting(reader, "snapshot reader"), 5.0);
    }

    // A long-lived reader must keep observing its own consistent
    // snapshot while ingestion refreshes the cache underneath it
    // (copy-on-write), and re-entering the snapshot APIs from inside a
    // callback is safe now that no lock is held around `f`.
    sink.with_snapshot(&mut |before| {
        sink.cpu_sample(&origin, path, MetricKind::CpuTime, 7.0);
        let refreshed = sink.snapshot();
        assert_eq!(before.total(MetricKind::CpuTime), 5.0, "reader view frozen");
        assert_eq!(refreshed.total(MetricKind::CpuTime), 12.0);
    });
}

#[test]
fn single_thread_multi_stream_launches_spread_across_shards() {
    // Stream-aware routing: one producer thread fanning launches over
    // six streams must occupy several shards (the seed keyed launches by
    // thread alone, serializing this workload on one shard), and the
    // directory must still resolve every activity to the right context.
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let mut batch = Vec::new();
    for corr in 1..=120u64 {
        let stream = (corr % 6) as u8;
        sink.gpu_launch(
            &launch_origin(1, stream, corr),
            context_path(&interner, 1, stream),
            ApiKind::LaunchKernel,
        );
        batch.push(kernel_activity(corr, stream));
    }
    sink.activity_batch(batch);
    assert!(
        sink.shards_occupied() > 1,
        "six streams on one thread must not serialize on one shard"
    );
    assert_eq!(sink.counters().orphans, 0, "directory routed every record");
    assert_eq!(sink.snapshot().total(MetricKind::KernelLaunches), 120.0);
}
