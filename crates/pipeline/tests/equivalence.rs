//! Pipeline correctness: the asynchronous pipeline, at every producer
//! batch size, against the synchronous oracle.
//!
//! * **`async == sync` equivalence**: for
//!   arbitrary interleavings of launches (kernels and memcpys, from full
//!   contexts and strict prefixes of them), activity flushes (kernel,
//!   memcpy and PC-sampling records), CPU samples, epoch boundaries and
//!   snapshot requests, the [`AsyncSink`]'s
//!   profiles must be semantically identical (via
//!   `CallingContextTree::semantic_diff`) to a bare [`ShardedSink`] fed
//!   the same events inline — at `launch_batch` 1, 7 and 64, under both
//!   the single-shard and the 16-shard layout. Interleavings include
//!   epoch barriers and snapshots landing mid-batch, so partial-batch
//!   flushes are exercised constantly.
//! * **Drain barriers**: every snapshot observes every event enqueued
//!   (or still sitting in a thread-local batch) before it, with no
//!   explicit flush.
//! * **Backpressure**: `Block` never drops; `DropOldest` drops, counts
//!   what it dropped — including partially-flushed thread-local batches
//!   evicted whole — discards the dropped correlations' bindings, and
//!   surfaces the damage as the synthetic `<dropped>` CCT context.

use std::sync::Arc;

use deepcontext_core::{
    Frame, FrameKind, Interner, MetricKind, PathHandle, StallReason, StoredJournal, TimeNs,
};
use deepcontext_pipeline::{
    journal_sites, AsyncSink, BackpressurePolicy, EventSink, Failpoints, JournalConfig,
    PipelineConfig, ShardedSink, SinkOptions, TimelineConfig,
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
    /// A flush boundary (`Profiler::flush` tail): epoch markers flow
    /// through the queues and the pipeline drains.
    Epoch,
    /// A snapshot request — the point where async and sync must agree.
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

/// Drives one interleaving into the synchronous oracle and the
/// asynchronous pipeline at a given `launch_batch` over the same shard
/// layout, checking `candidate == oracle` at every snapshot point and
/// once more at the end.
fn check_interleaving(steps: &[Step], shards: usize, launch_batch: usize) {
    // Timeline recording on: every snapshot point also asserts that the
    // candidate's interval tracks — including remapped context ids —
    // are identical to the synchronous oracle's.
    let interner = Interner::new();
    let with_timeline = || {
        ShardedSink::with(
            Arc::clone(&interner),
            SinkOptions {
                shards,
                timeline: TimelineConfig::enabled(),
                ..SinkOptions::default()
            },
        )
    };
    let oracle = with_timeline();
    let candidate = AsyncSink::new(
        with_timeline(),
        PipelineConfig {
            launch_batch,
            ..PipelineConfig::default()
        },
    );
    let label = || format!("{shards} shards, launch_batch {launch_batch}");

    let mut next_corr = 1u64;
    let mut outstanding: Vec<(u64, u8, ApiKind)> = Vec::new();
    let mut snapshots = 0u32;
    // Activity records with a device-time window delivered so far —
    // exactly the records that must each produce one timeline interval
    // (sampling records carry none).
    let mut intervals_delivered = 0u64;

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
                oracle.gpu_launch(&origin, path, *api);
                candidate.gpu_launch(&origin, path, *api);
                outstanding.push((corr, *ctx, *api));
            }
            Step::Flush => {
                let batch: Vec<Activity> = outstanding
                    .drain(..)
                    .flat_map(|(corr, ctx, api)| completion_records(corr, ctx, api))
                    .collect();
                intervals_delivered += batch
                    .iter()
                    .filter(|a| {
                        matches!(
                            a.kind,
                            ActivityKind::Kernel { .. } | ActivityKind::Memcpy { .. }
                        )
                    })
                    .count() as u64;
                oracle.activity_batch(batch.clone());
                candidate.activity_batch(batch);
            }
            Step::Sample { tid, ctx, value } => {
                let origin = EventOrigin {
                    tid: Some(*tid),
                    ..EventOrigin::default()
                };
                let path = context_path(&interner, *tid, *ctx);
                let value = f64::from(*value);
                oracle.cpu_sample(&origin, path, MetricKind::CpuTime, value);
                candidate.cpu_sample(&origin, path, MetricKind::CpuTime, value);
            }
            Step::Epoch => {
                oracle.epoch_complete();
                candidate.epoch_complete();
            }
            Step::Snapshot => {
                snapshots += 1;
                let s = oracle.snapshot();
                let c = candidate.snapshot();
                prop_assert_eq!(
                    s.semantic_diff(&c),
                    None,
                    "{}, snapshot #{}",
                    label(),
                    snapshots
                );
                // Timeline equivalence at the same barrier: identical
                // tracks, intervals, context ids and overflow counters.
                let st = oracle.timeline_snapshot().expect("oracle timeline on");
                let ct = candidate
                    .timeline_snapshot()
                    .expect("candidate timeline on");
                prop_assert_eq!(&st, &ct, "{}, timeline at snapshot #{}", label(), snapshots);
            }
        }
    }

    // Whatever the interleaving ended on: final folds and timelines
    // agree, and the Block policy lost nothing.
    let st = oracle.timeline_snapshot().expect("oracle timeline on");
    let ct = candidate
        .timeline_snapshot()
        .expect("candidate timeline on");
    prop_assert_eq!(&st, &ct, "{}, timeline at finish", label());
    prop_assert_eq!(
        st.recorded(),
        intervals_delivered,
        "every kernel/memcpy record produced exactly one interval"
    );
    // Interned names round-trip: each interval's `Sym` resolves through
    // its own snapshot's captured symbol table back to the launched
    // kernel's name. The comparison is over *resolved strings*, not raw
    // `Sym` ids, so it pins the contract even where the two sinks
    // interned in different orders.
    for (ot, kt) in st.tracks().iter().zip(ct.tracks().iter()) {
        for (oi, ki) in ot.intervals().iter().zip(kt.intervals().iter()) {
            let name = st.name_of(oi.name);
            prop_assert!(
                name.is_some_and(|n| n.starts_with("kernel_") || n == "memcpy"),
                "{}, oracle interval corr {} resolved to {:?}",
                label(),
                oi.correlation,
                name
            );
            prop_assert_eq!(
                name,
                ct.name_of(ki.name),
                "{}, resolved names at corr {}",
                label(),
                oi.correlation
            );
        }
    }
    // The Chrome exports resolve through those captured tables and must
    // come out byte-identical.
    prop_assert_eq!(
        st.to_chrome_trace(None),
        ct.to_chrome_trace(None),
        "{}, chrome export",
        label()
    );
    let s = oracle.finish_snapshot();
    let c = candidate.finish_snapshot();
    prop_assert_eq!(s.semantic_diff(&c), None, "{}, finish", label());
    let counters = candidate.counters();
    prop_assert_eq!(counters.dropped_events, 0);
    prop_assert_eq!(counters.worker_events, counters.enqueued_events);
    prop_assert_eq!(counters.activities, oracle.counters().activities);
}

/// Reduces a journal snapshot to its barrier-anchored record: the
/// severity/field tuples of the `pipeline.epoch` events, in seq order.
/// Epoch barriers are the deterministic anchors both ingestion modes
/// share — the sync oracle journals the site inline in
/// `epoch_complete`, the async pipeline after its own drain barrier —
/// so however the pipeline interleaved around them, these subsequences
/// must come out identical.
fn epoch_record(journal: &StoredJournal) -> Vec<(u8, Vec<(String, String)>)> {
    journal
        .events_at(journal_sites::PIPELINE_EPOCH)
        .map(|e| (e.severity, e.fields.clone()))
        .collect()
}

/// The incident-journal arm of the equivalence suite: the same
/// interleaving drives a journal-bearing synchronous oracle and a
/// journal-bearing asynchronous candidate, and at every snapshot point
/// (a drain barrier) the journal must behave deterministically — two
/// reads at the same barrier are identical, event seqs are strictly
/// increasing, conservation (`recorded == kept + evicted`) holds — and
/// the barrier-anchored `pipeline.epoch` record must be identical
/// between the two modes.
fn check_journal_interleaving(steps: &[Step], shards: usize, launch_batch: usize) {
    let interner = Interner::new();
    let with_journal = |interner: &Arc<Interner>| {
        ShardedSink::with(
            Arc::clone(interner),
            SinkOptions {
                shards,
                journal: JournalConfig::enabled(),
                failpoints: Failpoints::disabled(),
                ..SinkOptions::default()
            },
        )
    };
    let oracle = with_journal(&interner);
    let oracle_journal = Arc::clone(oracle.journal().expect("journal enabled"));
    let inner = with_journal(&interner);
    let candidate_journal = Arc::clone(inner.journal().expect("journal enabled"));
    let candidate = AsyncSink::new(
        inner,
        PipelineConfig {
            launch_batch,
            ..PipelineConfig::default()
        },
    );
    let label = || format!("{shards} shards, launch_batch {launch_batch}");

    let mut next_corr = 1u64;
    let mut outstanding: Vec<(u64, u8)> = Vec::new();
    let mut snapshots = 0u32;
    for step in steps {
        match step {
            Step::Launch { tid, ctx, .. } => {
                let corr = next_corr;
                next_corr += 1;
                let origin = launch_origin(*tid, *ctx, corr);
                let path = context_path(&interner, *tid, *ctx);
                oracle.gpu_launch(&origin, path, ApiKind::LaunchKernel);
                candidate.gpu_launch(&origin, path, ApiKind::LaunchKernel);
                outstanding.push((corr, *ctx));
            }
            Step::Flush => {
                let batch: Vec<Activity> = outstanding
                    .drain(..)
                    .map(|(corr, ctx)| kernel_activity(corr, ctx))
                    .collect();
                oracle.activity_batch(batch.clone());
                candidate.activity_batch(batch);
            }
            Step::Sample { tid, ctx, value } => {
                let origin = EventOrigin {
                    tid: Some(*tid),
                    ..EventOrigin::default()
                };
                let path = context_path(&interner, *tid, *ctx);
                let value = f64::from(*value);
                oracle.cpu_sample(&origin, path, MetricKind::CpuTime, value);
                candidate.cpu_sample(&origin, path, MetricKind::CpuTime, value);
            }
            Step::Epoch => {
                oracle.epoch_complete();
                candidate.epoch_complete();
            }
            Step::Snapshot => {
                snapshots += 1;
                // The snapshots themselves are the drain barriers.
                let s = oracle.snapshot();
                let c = candidate.snapshot();
                prop_assert_eq!(s.semantic_diff(&c), None, "{}, profile", label());
                for (journal, side) in [(&oracle_journal, "oracle"), (&candidate_journal, "async")]
                {
                    let first = journal.snapshot();
                    let again = journal.snapshot();
                    prop_assert_eq!(
                        &first,
                        &again,
                        "{} journal re-read at a quiesced barrier diverged ({}, snapshot #{})",
                        side,
                        label(),
                        snapshots
                    );
                    prop_assert!(
                        first.events.windows(2).all(|w| w[0].seq < w[1].seq),
                        "{} journal seqs not strictly increasing ({}, snapshot #{})",
                        side,
                        label(),
                        snapshots
                    );
                    prop_assert_eq!(
                        first.recorded,
                        first.events.len() as u64 + first.evicted,
                        "{} journal conservation ({}, snapshot #{})",
                        side,
                        label(),
                        snapshots
                    );
                }
                prop_assert_eq!(
                    epoch_record(&oracle_journal.snapshot()),
                    epoch_record(&candidate_journal.snapshot()),
                    "barrier-anchored epoch records must match sync vs async ({}, snapshot #{})",
                    label(),
                    snapshots
                );
            }
        }
    }

    let s = oracle.finish_snapshot();
    let c = candidate.finish_snapshot();
    prop_assert_eq!(s.semantic_diff(&c), None, "{}, finish", label());
    let oj = oracle_journal.snapshot();
    let cj = candidate_journal.snapshot();
    let epochs = steps
        .iter()
        .filter(|step| matches!(step, Step::Epoch))
        .count();
    prop_assert_eq!(
        oj.events_at(journal_sites::PIPELINE_EPOCH).count(),
        epochs,
        "every epoch barrier journals exactly one event ({})",
        label()
    );
    prop_assert_eq!(
        epoch_record(&oj),
        epoch_record(&cj),
        "barrier-anchored epoch records must match sync vs async at finish ({})",
        label()
    );
}

/// Drives one interleaving into the asynchronous pipeline with a
/// `worker_panic` failpoint pinned to one shard, against a synchronous
/// oracle fed only the events routing to the *other* shards. The
/// failpoint fires on every apply at the pinned shard, so the poisoned
/// set is exactly the quarantined shard's traffic and fully
/// deterministic; after injecting that tally into the oracle (the same
/// synthetic `<poisoned>` merge the quarantine drain performs), the two
/// profiles must be semantically identical at every snapshot barrier.
/// Quarantine is thereby proven perfectly contained: healthy shards
/// attribute exactly as if the poisoned shard never existed, and every
/// produced event is accounted as attributed, `<poisoned>` or dropped.
fn check_panic_interleaving(steps: &[Step], shards: usize, quarantined: usize) {
    let interner = Interner::new();
    let oracle = ShardedSink::new(Arc::clone(&interner), shards);
    let inner = ShardedSink::new(Arc::clone(&interner), shards);
    let candidate = AsyncSink::new(
        Arc::clone(&inner),
        PipelineConfig {
            // Unbatched: each launch is one queue message, so the
            // poisoned tally below is exact per event.
            launch_batch: 1,
            failpoints: Failpoints::parse(&format!("worker_panic@shard{quarantined}"))
                .expect("valid failpoint spec"),
            ..PipelineConfig::default()
        },
    );

    let mut next_corr = 1u64;
    // (correlation, ctx, launch survived — i.e. routed off the
    // quarantined shard).
    let mut outstanding: Vec<(u64, u8, bool)> = Vec::new();
    let mut expected_poisoned = 0u64;
    let mut injected = 0u64;
    let mut snapshots = 0u32;

    for step in steps {
        match step {
            Step::Launch { tid, ctx, .. } => {
                let corr = next_corr;
                next_corr += 1;
                let origin = launch_origin(*tid, *ctx, corr);
                let path = context_path(&interner, *tid, *ctx);
                let healthy = inner.route(&origin) != quarantined;
                candidate.gpu_launch(&origin, path, ApiKind::LaunchKernel);
                if healthy {
                    oracle.gpu_launch(&origin, path, ApiKind::LaunchKernel);
                } else {
                    expected_poisoned += 1;
                }
                outstanding.push((corr, *ctx, healthy));
            }
            Step::Flush => {
                // Retire all pending launch messages first, so poisoned
                // launches have discarded their directory bindings and
                // every activity's route below is deterministic.
                candidate.drain();
                let mut batch = Vec::new();
                let mut kept = Vec::new();
                for (corr, ctx, _healthy) in outstanding.drain(..) {
                    let activity = kernel_activity(corr, ctx);
                    if inner.route_activity(corr) == quarantined {
                        // Routes into the quarantined queue: poisoned.
                        expected_poisoned += 1;
                    } else {
                        // Routes to a healthy shard. A poisoned
                        // launch's record arrives with its binding
                        // discarded and orphans there; feeding the
                        // oracle the same record (whose launch it never
                        // saw) orphans identically, so `<orphan>`
                        // attribution stays equivalent too.
                        kept.push(activity.clone());
                    }
                    batch.push(activity);
                }
                candidate.activity_batch(batch);
                oracle.activity_batch(kept);
            }
            Step::Sample { tid, ctx, value } => {
                let origin = EventOrigin {
                    tid: Some(*tid),
                    ..EventOrigin::default()
                };
                let path = context_path(&interner, *tid, *ctx);
                let value = f64::from(*value);
                candidate.cpu_sample(&origin, path, MetricKind::CpuTime, value);
                if inner.route(&origin) == quarantined {
                    expected_poisoned += 1;
                } else {
                    oracle.cpu_sample(&origin, path, MetricKind::CpuTime, value);
                }
            }
            Step::Epoch => {
                // Flush boundaries are control flow: the quarantine
                // drain still retires them on the poisoned shard.
                oracle.epoch_complete();
                candidate.epoch_complete();
            }
            Step::Snapshot => {
                snapshots += 1;
                if expected_poisoned > injected {
                    oracle.apply_poisoned(0, expected_poisoned - injected);
                    injected = expected_poisoned;
                }
                let s = oracle.snapshot();
                let c = candidate.snapshot();
                prop_assert_eq!(
                    s.semantic_diff(&c),
                    None,
                    "shard {} quarantined, snapshot #{}",
                    quarantined,
                    snapshots
                );
            }
        }
    }

    if expected_poisoned > injected {
        oracle.apply_poisoned(0, expected_poisoned - injected);
    }
    let s = oracle.finish_snapshot();
    let c = candidate.finish_snapshot();
    prop_assert_eq!(
        s.semantic_diff(&c),
        None,
        "shard {} quarantined, finish",
        quarantined
    );

    let counters = candidate.counters();
    // Epoch markers broadcast to every shard and apply behind the same
    // fault boundary, so any data *or* epoch reaching the failpointed
    // shard trips its quarantine.
    let tripped = expected_poisoned > 0 || steps.iter().any(|step| matches!(step, Step::Epoch));
    if tripped {
        prop_assert!(
            counters.worker_panics >= 1,
            "traffic reached the failpointed shard, so a worker unwound"
        );
        prop_assert_eq!(candidate.quarantined_shards(), vec![quarantined]);
    } else {
        prop_assert_eq!(counters.worker_panics, 0);
        prop_assert!(candidate.quarantined_shards().is_empty());
    }
    prop_assert_eq!(counters.poisoned_events, expected_poisoned);
    prop_assert_eq!(counters.dropped_events, 0, "Block policy never drops");
    prop_assert_eq!(
        counters.worker_events + counters.poisoned_events + counters.dropped_events,
        counters.enqueued_events,
        "event conservation: attributed + <poisoned> + dropped == produced"
    );
    // Orphaned records (bindings discarded by the quarantine, or retired
    // by epochs) attribute under `<orphan>` on both sides identically.
    prop_assert_eq!(counters.orphans, oracle.counters().orphans);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_and_async_pipelines_equal_the_unbatched_sync_oracle(
        steps in prop::collection::vec(arb_step(), 1..80),
    ) {
        // launch_batch 1 flushes the batcher after every event; 7
        // forces frequent partial-batch flushes at barriers; 64 exceeds
        // most interleaving lengths so barriers and activity deliveries
        // do all the flushing.
        for launch_batch in [1usize, 7, 64] {
            // 16 shards (the default layout) and 1 shard (everything
            // serializes through one shard queue/lock).
            check_interleaving(&steps, 16, launch_batch);
            check_interleaving(&steps, 1, launch_batch);
        }
    }

    #[test]
    fn journal_barrier_events_are_deterministic_and_mode_independent(
        steps in prop::collection::vec(arb_step(), 1..80),
    ) {
        // launch_batch 1 flushes the batcher after every event; 7 forces
        // partial-batch flushes right at the journal's drain barriers.
        for launch_batch in [1usize, 7] {
            check_journal_interleaving(&steps, 16, launch_batch);
            check_journal_interleaving(&steps, 1, launch_batch);
        }
    }

    #[test]
    fn worker_panics_leave_healthy_shards_equivalent_to_the_sync_oracle(
        steps in prop::collection::vec(arb_step(), 1..60),
        quarantined in 0usize..4,
    ) {
        check_panic_interleaving(&steps, 4, quarantined);
    }
}

#[test]
fn snapshots_are_drain_barriers_without_explicit_flush() {
    // 8 producer threads enqueue; the reader takes a snapshot with no
    // flush in between. Every event enqueued before the snapshot call
    // must be visible in it — `with_cct` determinism under AsyncSink.
    const PRODUCERS: u64 = 8;
    const SAMPLES: u64 = 200;
    let interner = Interner::new();
    let inner = ShardedSink::new(Arc::clone(&interner), 16);
    let sink = AsyncSink::new(inner, PipelineConfig::default());

    std::thread::scope(|scope| {
        for tid in 1..=PRODUCERS {
            let sink = Arc::clone(&sink);
            let interner = Arc::clone(&interner);
            scope.spawn(move || {
                let origin = EventOrigin {
                    tid: Some(tid),
                    ..EventOrigin::default()
                };
                let path = context_path(&interner, tid, 0);
                for _ in 0..SAMPLES {
                    sink.cpu_sample(&origin, path, MetricKind::CpuTime, 1.0);
                }
            });
        }
    });
    // All producers returned ⇒ everything is enqueued; the snapshot
    // barrier must surface every sample despite no flush having run.
    let mut total = 0.0;
    sink.with_snapshot(&mut |cct| total = cct.total(MetricKind::CpuTime));
    assert_eq!(total, (PRODUCERS * SAMPLES) as f64);
    let counters = sink.counters();
    assert_eq!(counters.dropped_events, 0, "Block policy loses nothing");
    assert_eq!(counters.enqueued_events, PRODUCERS * SAMPLES);
}

#[test]
fn epoch_complete_retires_correlation_state_without_changing_the_profile() {
    // The async analogue of the sharded sink's epoch test: trims must
    // propagate through the queues and shrink resident state while the
    // profile and its snapshot-cache generations stay untouched.
    let interner = Interner::new();
    let inner = ShardedSink::new(Arc::clone(&interner), 16);
    let sink = AsyncSink::new(Arc::clone(&inner), PipelineConfig::default());
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
fn drop_oldest_counts_drops_and_attributes_the_rest() {
    // 8 producers against a paused worker pool and tiny queues: the
    // DropOldest policy must engage, count every discarded event, and
    // the attributed remainder must account for exactly
    // `enqueued - dropped`.
    const PRODUCERS: u64 = 8;
    const SAMPLES: u64 = 100;
    const CAPACITY: usize = 4;
    let interner = Interner::new();
    let inner = ShardedSink::new(Arc::clone(&interner), 16);
    let sink = AsyncSink::new(
        inner,
        PipelineConfig {
            workers: 2,
            queue_capacity: CAPACITY,
            backpressure: BackpressurePolicy::DropOldest,
            // Unbatched: each sample is one queue message, so eviction
            // accounting below is exact per event.
            launch_batch: 1,
            ..PipelineConfig::default()
        },
    );

    // Paused workers make the overflow deterministic: every queue fills
    // to capacity and everything beyond it must evict.
    sink.pause();
    std::thread::scope(|scope| {
        for tid in 1..=PRODUCERS {
            let sink = Arc::clone(&sink);
            let interner = Arc::clone(&interner);
            scope.spawn(move || {
                let origin = EventOrigin {
                    tid: Some(tid),
                    ..EventOrigin::default()
                };
                let path = context_path(&interner, tid, 0);
                for _ in 0..SAMPLES {
                    sink.cpu_sample(&origin, path, MetricKind::CpuTime, 1.0);
                }
            });
        }
    });
    sink.resume();

    let counters = sink.counters();
    assert_eq!(counters.enqueued_events, PRODUCERS * SAMPLES);
    // 8 producers over at most 8 distinct tid-keyed shards with 4 slots
    // each: the overwhelming majority must have been evicted.
    assert!(
        counters.dropped_events >= PRODUCERS * SAMPLES - (16 * CAPACITY) as u64,
        "expected heavy eviction, got {} drops",
        counters.dropped_events
    );
    assert!(
        counters.dropped_events < PRODUCERS * SAMPLES,
        "some survive"
    );
    // Exact bookkeeping: survivors and drops partition the enqueued set.
    let cct = sink.snapshot();
    let attributed = cct
        .root_metric(MetricKind::CpuTime)
        .map(|stat| stat.count)
        .unwrap_or(0);
    assert_eq!(
        attributed + counters.dropped_events,
        counters.enqueued_events
    );
    // Drop-policy attribution telemetry: the overload is visible in the
    // profile itself, as a synthetic `<dropped>` context carrying every
    // discarded event.
    assert_eq!(
        cct.total(MetricKind::DroppedEvents),
        counters.dropped_events as f64,
        "snapshot must carry the dropped-event telemetry"
    );
    assert!(cct.nodes_of_kind(FrameKind::Operator).iter().any(|n| cct
        .node(*n)
        .frame()
        .label(&interner)
        .contains("<dropped>")));
    // Depth high-water: the queues filled to capacity (the counter is
    // derived from racing enqueue/evict counters, so concurrent
    // producers on one shard can over-read by at most their number).
    assert!(counters.max_queue_depth >= CAPACITY as u64);
    assert!(counters.max_queue_depth <= (CAPACITY as u64) + PRODUCERS);
}

#[test]
fn drop_oldest_evicts_partially_flushed_batches_without_leaks() {
    // A thread-local batch flushed *before* reaching `launch_batch` (here
    // by thread quiesce) travels as one queue message; when DropOldest
    // evicts it, every contained launch must take its directory binding
    // with it, its events must be counted, and the loss must surface as
    // the synthetic `<dropped>` context.
    const PARTIAL: u64 = 5;
    let interner = Interner::new();
    let inner = ShardedSink::new(Arc::clone(&interner), 1);
    let sink = AsyncSink::new(
        Arc::clone(&inner),
        PipelineConfig {
            workers: 1,
            queue_capacity: 2,
            backpressure: BackpressurePolicy::DropOldest,
            launch_batch: 64,
            ..PipelineConfig::default()
        },
    );

    // Paused workers make the overflow deterministic.
    sink.pause();
    // A producer thread buffers a partial batch (5 < 64 events) and
    // exits: thread quiesce binds + flushes it as one batch message.
    // Explicit spawn + join (not thread::scope): JoinHandle::join waits
    // for full thread termination, which includes the thread-local
    // destructor that performs the quiesce flush.
    {
        let sink = Arc::clone(&sink);
        let interner = Arc::clone(&interner);
        let producer = std::thread::spawn(move || {
            for corr in 1..=PARTIAL {
                sink.gpu_launch(
                    &launch_origin(1, 0, corr),
                    context_path(&interner, 1, 0),
                    ApiKind::LaunchKernel,
                );
            }
        });
        join_reporting(producer, "partial-batch producer");
    }
    assert_eq!(
        inner.correlation_entries(),
        PARTIAL as usize,
        "quiesce flush must have bound the whole partial batch"
    );

    // Two full sample batches from this thread overflow the 2-slot queue:
    // the second delivery evicts the partial launch batch.
    let origin = EventOrigin {
        tid: Some(1),
        ..EventOrigin::default()
    };
    let path = context_path(&interner, 1, 0);
    for _ in 0..128 {
        sink.cpu_sample(&origin, path, MetricKind::CpuTime, 1.0);
    }
    sink.resume();

    let counters = sink.counters();
    assert_eq!(
        counters.dropped_events, PARTIAL,
        "exactly the partial batch was evicted"
    );
    assert_eq!(counters.enqueued_events, PARTIAL + 128);
    assert!(counters.producer_flushes >= 3, "quiesce + two capacity");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while inner.correlation_entries() != 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(inner.correlation_entries(), 0, "evicted batch leaked binds");
    let cct = sink.snapshot();
    assert_eq!(cct.total(MetricKind::DroppedEvents), PARTIAL as f64);
    assert_eq!(
        cct.root_metric(MetricKind::CpuTime).map(|s| s.count),
        Some(128),
        "both surviving sample batches were attributed"
    );
    assert_eq!(
        cct.total(MetricKind::KernelLaunches),
        0.0,
        "the evicted launches never reached the tree"
    );
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

#[test]
fn async_sink_spreads_multi_stream_launches_too() {
    // The same property through the asynchronous pipeline, where bucket
    // routing happens at enqueue time.
    let interner = Interner::new();
    let inner = ShardedSink::new(Arc::clone(&interner), 16);
    let sink = AsyncSink::new(Arc::clone(&inner), PipelineConfig::default());
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
    let cct = sink.snapshot();
    assert!(inner.shards_occupied() > 1);
    assert_eq!(sink.counters().orphans, 0);
    assert_eq!(cct.total(MetricKind::KernelLaunches), 120.0);
    assert!(cct.total(MetricKind::GpuTime) > 0.0);
}
