//! Incremental-snapshot correctness: for arbitrary interleavings of
//! ingestion and snapshot requests, the generation-tracked cached fold
//! must be semantically identical to a fresh full fold of all shards
//! (`cached == fresh`), under both the historical single-lock layout
//! (1 shard) and the sharded layout (16 shards).

use std::sync::Arc;

use deepcontext_core::{Frame, Interner, MetricKind, PathHandle, TimeNs};
use deepcontext_profiler::ShardedSink;
use dlmonitor::EventOrigin;
use proptest::prelude::*;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, StreamId};

/// One step of a randomly interleaved profiling session.
#[derive(Debug, Clone)]
enum Step {
    /// A kernel launch on a thread: binds a fresh correlation id to one
    /// of a few repeating contexts.
    Launch { tid: u64, ctx: u8 },
    /// Delivers all outstanding activities as one batch (exercises
    /// resolution, two-phase pruning, and batch-boundary accounting).
    Flush,
    /// A CPU sample attributing an integer value on a thread's context.
    Sample { tid: u64, ctx: u8, value: u16 },
    /// A snapshot request — the point where cached and fresh must agree.
    Snapshot,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..6, 0u8..5).prop_map(|(tid, ctx)| Step::Launch { tid: tid + 1, ctx }),
        Just(Step::Flush).boxed(),
        (0u64..6, 0u8..5, 1u16..500).prop_map(|(tid, ctx, value)| Step::Sample {
            tid: tid + 1,
            ctx,
            value,
        }),
        Just(Step::Snapshot).boxed(),
    ]
}

fn context_path(interner: &Arc<Interner>, tid: u64, ctx: u8) -> PathHandle {
    interner.paths().intern(&[
        Frame::python(&format!("worker{tid}.py"), 10, "step", interner),
        Frame::operator(&format!("aten::op{ctx}"), interner),
        Frame::gpu_kernel(
            &format!("kernel_{ctx}"),
            "module.so",
            0x100 + u64::from(ctx),
            interner,
        ),
    ])
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
        },
    }
}

/// Drives one interleaving against a sink with `shards` shards, checking
/// `cached == fresh` at every snapshot point and once more at the end.
fn check_interleaving(steps: &[Step], shards: usize) {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), shards);
    let mut next_corr = 1u64;
    let mut outstanding: Vec<(u64, u8)> = Vec::new();
    let mut snapshots = 0u32;

    for step in steps {
        match step {
            Step::Launch { tid, ctx } => {
                let corr = next_corr;
                next_corr += 1;
                let origin = EventOrigin {
                    tid: Some(*tid),
                    stream: Some(StreamId(u32::from(*ctx))),
                    correlation: Some(CorrelationId(corr)),
                };
                sink.gpu_launch(
                    &origin,
                    context_path(&interner, *tid, *ctx),
                    ApiKind::LaunchKernel,
                );
                outstanding.push((corr, *ctx));
            }
            Step::Flush => {
                let batch: Vec<Activity> = outstanding
                    .drain(..)
                    .map(|(corr, ctx)| kernel_activity(corr, ctx))
                    .collect();
                sink.activity_batch(batch);
            }
            Step::Sample { tid, ctx, value } => {
                let origin = EventOrigin {
                    tid: Some(*tid),
                    ..EventOrigin::default()
                };
                sink.cpu_sample(
                    &origin,
                    context_path(&interner, *tid, *ctx),
                    MetricKind::CpuTime,
                    f64::from(*value),
                );
            }
            Step::Snapshot => {
                snapshots += 1;
                let cached = sink.snapshot();
                let fresh = sink.snapshot_uncached();
                prop_assert_eq!(
                    fresh.semantic_diff(&cached),
                    None,
                    "{} shards, snapshot #{}",
                    shards,
                    snapshots
                );
            }
        }
    }

    // Whatever the interleaving ended on, the consumed final snapshot
    // also matches a full fold.
    let fresh = sink.snapshot_uncached();
    let finished = sink.finish_snapshot();
    prop_assert_eq!(
        fresh.semantic_diff(&finished),
        None,
        "{} shards, finish",
        shards
    );
}

#[test]
fn epoch_complete_retires_correlation_state_without_changing_the_profile() {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    // One big launch+activity wave, like a flush after many iterations.
    let mut batch = Vec::new();
    for corr in 1..=2000u64 {
        let ctx = (corr % 5) as u8;
        let origin = EventOrigin {
            tid: Some(corr % 7 + 1),
            stream: Some(StreamId(u32::from(ctx))),
            correlation: Some(CorrelationId(corr)),
        };
        sink.gpu_launch(
            &origin,
            context_path(&interner, corr % 7 + 1, ctx),
            ApiKind::LaunchKernel,
        );
        batch.push(kernel_activity(corr, ctx));
    }
    sink.activity_batch(batch);

    let before = sink.snapshot();
    let before_bytes = sink.approx_bytes();
    sink.epoch_complete();

    // Deferred correlations retired and scratch released...
    assert!(
        sink.approx_bytes() < before_bytes,
        "epoch_complete must shrink resident state: {} !< {before_bytes}",
        sink.approx_bytes()
    );
    // ...while the profile itself is untouched (and still cached: the
    // retirement does not dirty any shard's snapshot generation).
    let merges = sink.counters().snapshot_merges;
    let after = sink.snapshot();
    assert_eq!(before.semantic_diff(&after), None);
    assert_eq!(sink.counters().snapshot_merges, merges, "all shards clean");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_snapshot_equals_fresh_fold(steps in prop::collection::vec(arb_step(), 1..80)) {
        for shards in [1, 16] {
            check_interleaving(&steps, shards);
        }
    }
}
