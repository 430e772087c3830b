//! By-handle ingestion against an eager reference.
//!
//! Random streams — launches of three API kinds from several threads and
//! streams (the same context landing on several shards, strict prefixes
//! of other contexts included), CPU samples, kernel / memcpy / malloc /
//! PC-sampling records arriving in order, one batch late or two, records
//! nobody launched — go into a [`ShardedSink`] as path handles at 1, 3
//! and 16 shards.
//! The reference is one [`CallingContextTree`] driven with `insert_path`
//! and eager `attribute` on the frames themselves, plus a plain map for
//! the correlation lifecycle (bind at launch, two-phase retirement per
//! shard batch). The folded profile must be the same tree
//! (`semantic_diff == None`), and the one correlation table must hold
//! exactly the reference's in-flight set at every flush.

use std::collections::HashMap;
use std::sync::Arc;

use deepcontext::core::{
    CallingContextTree, Frame, Interner, MetricKind, NodeId, PathHandle, StallReason, TimeNs,
};
use deepcontext::gpu::{
    Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, PcSample, StreamId,
};
use deepcontext::monitor::EventOrigin;
use deepcontext::pipeline::{EventSink, ShardedSink};
use proptest::prelude::*;

const APIS: [ApiKind; 3] = [
    ApiKind::LaunchKernel,
    ApiKind::MemcpyAsync,
    ApiKind::MemAlloc,
];

#[derive(Debug, Clone)]
enum Step {
    /// A launch on `(tid, stream)` from the first `depth` frames of
    /// context `ctx`.
    Launch {
        tid: u64,
        stream: u32,
        ctx: u8,
        depth: usize,
        api: usize,
    },
    /// A CPU sample on `tid` in the first `depth` frames of `ctx`.
    Sample {
        tid: u64,
        ctx: u8,
        depth: usize,
        value: u16,
    },
    /// Completes the `nth` pending launch: its terminal record joins the
    /// open batch and — for kernels with `samples > 0` — a PC-sampling
    /// record joins the batch `sampling_late` flushes later (0: ahead of
    /// the kernel record, 1: still resolves, 2: retired by then).
    Complete {
        nth: usize,
        samples: usize,
        sampling_late: u8,
    },
    /// A kernel record for a correlation nobody launched.
    Stray,
    /// Delivers the open batch.
    Flush,
    /// A flush boundary.
    Epoch,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let launch = || {
        (1u64..4, 0u32..3, 0u8..4, 1usize..6, 0usize..3).prop_map(
            |(tid, stream, ctx, depth, api)| Step::Launch {
                tid,
                stream,
                ctx,
                depth,
                api,
            },
        )
    };
    let complete = || {
        (0usize..8, 0usize..12, 0u8..3).prop_map(|(nth, samples, sampling_late)| Step::Complete {
            nth,
            samples,
            sampling_late,
        })
    };
    // Launches, completions and flushes are twice as likely as the rest.
    prop_oneof![
        launch(),
        launch(),
        (1u64..4, 0u8..4, 0usize..6, 1u16..500).prop_map(|(tid, ctx, depth, value)| {
            Step::Sample {
                tid,
                ctx,
                depth,
                value,
            }
        }),
        complete(),
        complete(),
        Just(Step::Stray).boxed(),
        Just(Step::Flush).boxed(),
        Just(Step::Flush).boxed(),
        Just(Step::Epoch).boxed(),
    ]
}

/// Context `ctx`, cut to its first `depth` frames: contexts share their
/// Python frame pairwise, and every cut is a strict prefix of the full
/// path.
fn context(interner: &Interner, ctx: u8, depth: usize) -> Vec<Frame> {
    let mut frames = vec![
        Frame::python("train.py", 10 + u32::from(ctx % 2), "step", interner),
        Frame::operator(&format!("aten::op{ctx}"), interner),
        Frame::native("libtorch.so", 0x40 + u64::from(ctx), "impl", interner),
        Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x10, interner),
        Frame::gpu_kernel(
            &format!("kernel_{ctx}"),
            "module.so",
            0x100 + u64::from(ctx),
            interner,
        ),
    ];
    frames.truncate(depth);
    frames
}

fn terminal_record(corr: u64, api: ApiKind, stream: u32) -> Activity {
    let start = TimeNs(corr * 10);
    let kind = match api {
        ApiKind::LaunchKernel => ActivityKind::Kernel {
            name: Arc::from("kernel"),
            module: Arc::from("module.so"),
            entry_pc: 0x100,
            stream: StreamId(stream),
            start,
            end: start + TimeNs(100 + corr % 7),
            blocks: 8,
            warps: 64,
            occupancy: 0.5,
            shared_mem_per_block: 1024,
            registers_per_thread: 32,
        },
        ApiKind::MemcpyAsync => ActivityKind::Memcpy {
            bytes: 4096 + corr,
            stream: StreamId(stream),
            start,
            end: start + TimeNs(40),
        },
        _ => ActivityKind::Malloc {
            bytes: 256 * (1 + corr % 3),
            at: start,
        },
    };
    Activity {
        correlation_id: CorrelationId(corr),
        device: DeviceId(0),
        kind,
    }
}

/// More PCs than the sink's per-record memo holds, revisited out of
/// order, and one no sentinel may stand in for.
const PCS: [u64; 7] = [0x0, 0x8, 0x10, u64::MAX, 0x18, 0x20, 0x28];

fn sampling_record(corr: u64, samples: usize) -> Activity {
    let pcs = (0..samples).map(|s| PCS[(corr as usize + s * s) % PCS.len()]);
    sampling_record_at(corr, pcs)
}

fn sampling_record_at(corr: u64, pcs: impl IntoIterator<Item = u64>) -> Activity {
    const STALLS: [StallReason; 3] = [
        StallReason::MemoryDependency,
        StallReason::ExecutionDependency,
        StallReason::None,
    ];
    let sample = |(s, pc)| PcSample {
        pc,
        stall: STALLS[s % STALLS.len()],
    };
    Activity {
        correlation_id: CorrelationId(corr),
        device: DeviceId(0),
        kind: ActivityKind::PcSampling {
            name: Arc::from("kernel"),
            samples: pcs.into_iter().enumerate().map(sample).collect(),
        },
    }
}

/// The eager reference: one tree, one map, per-shard prune queues.
struct Reference {
    tree: CallingContextTree,
    /// In-flight correlations: home shard and launch context.
    bound: HashMap<u64, (usize, Vec<Frame>)>,
    /// Per shard: terminal correlations of its previous / current batch.
    deferred: Vec<(Vec<u64>, Vec<u64>)>,
    orphans: u64,
}

impl Reference {
    fn new(interner: &Arc<Interner>, shards: usize) -> Self {
        Reference {
            tree: CallingContextTree::with_interner(Arc::clone(interner)),
            bound: HashMap::new(),
            deferred: vec![(Vec::new(), Vec::new()); shards],
            orphans: 0,
        }
    }

    fn orphan_node(&mut self) -> NodeId {
        let interner = self.tree.interner();
        self.orphans += 1;
        self.tree
            .insert_path(&[Frame::gpu_kernel("<unattributed>", "<none>", 0, &interner)])
    }

    /// The activity-kind → metric mapping, propagated sample by sample.
    fn attribute(&mut self, node: NodeId, activity: &Activity) {
        let tree = &mut self.tree;
        match &activity.kind {
            ActivityKind::Kernel {
                start,
                end,
                blocks,
                warps,
                occupancy,
                shared_mem_per_block,
                registers_per_thread,
                ..
            } => {
                tree.attribute(node, MetricKind::GpuTime, (*end - *start).as_nanos() as f64);
                for (kind, value) in [
                    (MetricKind::Blocks, f64::from(*blocks)),
                    (MetricKind::Warps, *warps as f64),
                    (MetricKind::Occupancy, *occupancy),
                    (MetricKind::SharedMemPerBlock, *shared_mem_per_block as f64),
                    (
                        MetricKind::RegistersPerThread,
                        f64::from(*registers_per_thread),
                    ),
                ] {
                    tree.attribute_exclusive(node, kind, value);
                }
            }
            ActivityKind::Memcpy {
                bytes, start, end, ..
            } => {
                tree.attribute(node, MetricKind::MemcpyBytes, *bytes as f64);
                tree.attribute(
                    node,
                    MetricKind::MemcpyTime,
                    (*end - *start).as_nanos() as f64,
                );
            }
            ActivityKind::Malloc { bytes, .. } => {
                tree.attribute(node, MetricKind::GpuAllocBytes, *bytes as f64);
            }
            ActivityKind::Free { .. } => {}
            ActivityKind::PcSampling { samples, .. } => {
                for sample in samples {
                    let child = tree.insert_child(node, &Frame::instruction(sample.pc));
                    tree.attribute(child, MetricKind::InstructionSamples, 1.0);
                    tree.attribute(child, MetricKind::Stall(sample.stall), 1.0);
                }
            }
        }
    }

    /// One delivered batch; `homes[k]` is the shard record `k` went to.
    fn activity_batch(&mut self, batch: &[Activity], homes: &[usize]) {
        // Every record resolves against the table as the batch found it.
        let resolved: Vec<Option<Vec<Frame>>> = batch
            .iter()
            .map(|a| self.bound.get(&a.correlation_id.0).map(|(_, f)| f.clone()))
            .collect();
        for ((activity, frames), home) in batch.iter().zip(resolved).zip(homes) {
            let node = match frames {
                Some(frames) => self.tree.insert_path(&frames),
                None => self.orphan_node(),
            };
            self.attribute(node, activity);
            if !matches!(activity.kind, ActivityKind::PcSampling { .. }) {
                self.deferred[*home].1.push(activity.correlation_id.0);
            }
        }
        let mut touched = homes.to_vec();
        touched.sort_unstable();
        touched.dedup();
        for shard in touched {
            self.end_batch(shard);
        }
    }

    /// Two-phase retirement: what the shard's previous batch deferred and
    /// this one did not renew leaves the table.
    fn end_batch(&mut self, shard: usize) {
        let (prev, curr) = &mut self.deferred[shard];
        for corr in prev.drain(..) {
            if !curr.contains(&corr) {
                self.bound.remove(&corr);
            }
        }
        std::mem::swap(prev, curr);
    }
}

fn check(steps: &[Step], shards: usize) {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), shards);
    let mut reference = Reference::new(&interner, shards);
    let mut next_corr = 1u64;
    // (correlation, api, stream) of launches not yet completed.
    let mut pending: Vec<(u64, ApiKind, u32)> = Vec::new();
    let mut open: Vec<Activity> = Vec::new();
    // Records due in a later batch, with the flushes they still wait.
    let mut late: Vec<(u8, Activity)> = Vec::new();
    let handle_of = |frames: &[Frame]| -> PathHandle {
        let handle = interner.paths().intern(frames);
        assert_eq!(handle.len(), frames.len());
        assert_eq!(handle.to_call_path(&interner).frames(), frames);
        handle
    };

    for step in steps {
        match *step {
            Step::Launch {
                tid,
                stream,
                ctx,
                depth,
                api,
            } => {
                let corr = next_corr;
                next_corr += 1;
                let origin = EventOrigin {
                    tid: Some(tid),
                    stream: Some(StreamId(stream)),
                    correlation: Some(CorrelationId(corr)),
                };
                let frames = context(&interner, ctx, depth);
                sink.gpu_launch(&origin, handle_of(&frames), APIS[api]);
                let node = reference.tree.insert_path(&frames);
                if APIS[api] == ApiKind::LaunchKernel {
                    reference
                        .tree
                        .attribute(node, MetricKind::KernelLaunches, 1.0);
                }
                reference.bound.insert(corr, (sink.route(&origin), frames));
                pending.push((corr, APIS[api], stream));
            }
            Step::Sample {
                tid,
                ctx,
                depth,
                value,
            } => {
                let origin = EventOrigin {
                    tid: Some(tid),
                    ..EventOrigin::default()
                };
                let frames = context(&interner, ctx, depth);
                let value = f64::from(value);
                sink.cpu_sample(&origin, handle_of(&frames), MetricKind::CpuTime, value);
                let node = reference.tree.insert_path(&frames);
                reference.tree.attribute(node, MetricKind::CpuTime, value);
            }
            Step::Complete {
                nth,
                samples,
                sampling_late,
            } => {
                if pending.is_empty() {
                    continue;
                }
                let (corr, api, stream) = pending.remove(nth % pending.len());
                if api == ApiKind::LaunchKernel && samples > 0 {
                    let record = sampling_record(corr, samples);
                    match sampling_late {
                        0 => open.push(record),
                        n => late.push((n, record)),
                    }
                }
                open.push(terminal_record(corr, api, stream));
            }
            Step::Stray => {
                let corr = 1_000_000 + next_corr;
                next_corr += 1;
                open.push(terminal_record(corr, ApiKind::LaunchKernel, 0));
            }
            Step::Flush => {
                let mut batch = std::mem::take(&mut open);
                for (wait, _) in &mut late {
                    *wait -= 1;
                }
                let (due, waiting) = late.into_iter().partition(|(wait, _)| *wait == 0);
                late = waiting;
                batch.extend(due.into_iter().map(|(_, record): (u8, Activity)| record));
                if batch.is_empty() {
                    continue;
                }
                let homes: Vec<usize> = batch
                    .iter()
                    .map(|a| sink.route_activity(a.correlation_id.0))
                    .collect();
                reference.activity_batch(&batch, &homes);
                sink.activity_batch(batch);
                prop_assert_eq!(
                    sink.correlation_entries(),
                    reference.bound.len(),
                    "{} shards: in-flight correlations after a flush",
                    shards
                );
            }
            Step::Epoch => {
                sink.epoch_complete();
                for shard in 0..shards {
                    reference.end_batch(shard);
                }
                prop_assert_eq!(sink.correlation_entries(), reference.bound.len());
            }
        }
    }

    let folded = sink.snapshot();
    prop_assert_eq!(
        folded.semantic_diff(&reference.tree),
        None,
        "{} shards",
        shards
    );
    prop_assert_eq!(sink.counters().orphans, reference.orphans);
    prop_assert_eq!(sink.snapshot_uncached().semantic_diff(&folded), None);
}

/// What the sink's per-record `pc → child` memo must not change: a pc
/// equal to any would-be "empty" marker, more distinct PCs than it holds
/// (eviction, then the evicted pc again) and A,B,A each yield the tree
/// the per-sample `insert_child` loop builds — `NodeId` for `NodeId`,
/// aggregate for aggregate, counts being exact.
#[test]
fn a_sampling_records_pc_memo_changes_no_node_and_no_count() {
    let records: [&[u64]; 4] = [
        &[u64::MAX, 0x8, u64::MAX, 0x0],
        &[0x0, 0x8, 0x10, 0x18, 0x20, 0x0, 0x28, 0x8, 0x0],
        &[0x30, 0x38, 0x30],
        &[],
    ];
    let interner = Interner::new();
    // One shard: the uncached fold inserts its nodes in id order.
    let sink = ShardedSink::new(Arc::clone(&interner), 1);
    let mut reference = Reference::new(&interner, 1);
    let frames = context(&interner, 0, 5);
    let mut batch = Vec::new();
    for (corr, pcs) in (1u64..).zip(records) {
        let origin = EventOrigin {
            tid: Some(1),
            stream: Some(StreamId(0)),
            correlation: Some(CorrelationId(corr)),
        };
        let path = interner.paths().intern(&frames);
        sink.gpu_launch(&origin, path, ApiKind::LaunchKernel);
        let node = reference.tree.insert_path(&frames);
        let launches = MetricKind::KernelLaunches;
        reference.tree.attribute(node, launches, 1.0);
        reference.bound.insert(corr, (0, frames.clone()));
        batch.push(sampling_record_at(corr, pcs.iter().copied()));
        batch.push(terminal_record(corr, ApiKind::LaunchKernel, 0));
    }
    reference.activity_batch(&batch, &vec![0; batch.len()]);
    sink.activity_batch(batch);
    let folded = sink.snapshot_uncached();
    assert_eq!(folded.node_count(), reference.tree.node_count());
    for id in reference.tree.dfs() {
        let (got, want) = (folded.node(id), reference.tree.node(id));
        assert_eq!(got.frame(), want.frame(), "{id}");
        assert_eq!(got.parent(), want.parent(), "{id}");
        for (kind, want) in want.metrics().iter() {
            let got = got.metrics().get(kind).expect("kind present");
            assert_eq!(got.count, want.count, "{id}: {kind}");
            if kind != MetricKind::GpuTime {
                assert_eq!(got, want, "{id}: {kind}");
            }
        }
    }
    assert_eq!(sink.counters().instruction_samples, 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn handles_fold_to_the_tree_eager_attribution_builds(
        steps in prop::collection::vec(arb_step(), 1..120),
    ) {
        for shards in [1usize, 3, 16] {
            check(&steps, shards);
        }
    }
}
