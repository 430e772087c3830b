//! Property-based tests for the core invariants the rest of DeepContext
//! relies on: CCT structural consistency, inclusive-metric propagation,
//! Welford aggregation accuracy, merge correctness, and database
//! round-tripping.

use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, CctShard, Frame, Interner, Interval, IntervalKind, MetricKind, MetricStat,
    MetricStore, NodeId, OpPhase, ProfileDb, ProfileMeta, StallReason, StoredTimeline, TimeNs,
    TrackKey,
};
use proptest::prelude::*;

/// A compact generator language for frames: small alphabets force collisions
/// so collapse rules actually get exercised.
fn arb_frame(interner: Arc<Interner>) -> impl Strategy<Value = Frame> {
    let i2 = Arc::clone(&interner);
    let i3 = Arc::clone(&interner);
    let i4 = Arc::clone(&interner);
    prop_oneof![
        (0u8..4, 1u32..5, 0u8..3).prop_map(move |(f, line, func)| Frame::python(
            &format!("file{f}.py"),
            line,
            &format!("fn{func}"),
            &interner
        )),
        (0u8..5, prop::bool::ANY).prop_map(move |(n, bwd)| Frame::operator_with(
            &format!("aten::op{n}"),
            if bwd {
                OpPhase::Backward
            } else {
                OpPhase::Forward
            },
            None,
            &i2
        )),
        (0u8..3, 0u64..6).prop_map(move |(lib, pc)| Frame::native(
            &format!("lib{lib}.so"),
            pc * 0x10,
            &format!("sym{pc}"),
            &i3
        )),
        (0u8..4, 0u64..4).prop_map(move |(k, pc)| Frame::gpu_kernel(
            &format!("kernel{k}"),
            "module.so",
            pc * 0x100,
            &i4
        )),
    ]
}

fn arb_paths() -> impl Strategy<Value = (Arc<Interner>, Vec<Vec<Frame>>)> {
    let interner = Interner::new();
    let frames = arb_frame(Arc::clone(&interner));
    prop::collection::vec(prop::collection::vec(frames, 1..8), 1..40)
        .prop_map(move |paths| (Arc::clone(&interner), paths))
}

/// One step of a shard's life, for the deferred-vs-eager differential
/// test. `node` picks among the nodes earlier steps returned.
#[derive(Debug, Clone)]
enum ShardOp {
    Insert(Vec<Frame>),
    /// Re-inserts a strict prefix of the previously inserted path (it
    /// must resolve to the inner node, not the old leaf).
    InsertPrefix(usize),
    Attribute {
        node: usize,
        kind: MetricKind,
        value: u16,
    },
    /// `n` occurrences through `count` — or, `by_sample`, as that many
    /// `attribute(.., 1.0)` calls, which must settle to the same bits.
    Count {
        node: usize,
        kind: MetricKind,
        n: u8,
        by_sample: bool,
    },
    /// Another shard's unsettled counts and samples, folded in.
    MergeFrom(Vec<(Vec<Frame>, MetricKind, u8)>),
    /// A context inserted behind the path vector's back through `tree_mut`.
    InsertChild {
        node: usize,
        frame: Frame,
    },
    Settle,
}

fn arb_shard_ops() -> impl Strategy<Value = (Arc<Interner>, Vec<ShardOp>)> {
    let interner = Interner::new();
    let path = || prop::collection::vec(arb_frame(Arc::clone(&interner)), 0..8);
    let kind = prop::sample::select(vec![
        MetricKind::GpuTime,
        MetricKind::KernelLaunches,
        MetricKind::CpuTime,
        MetricKind::Stall(StallReason::MemoryDependency),
    ]);
    // `KernelLaunches` is both counted and attributed arbitrary values;
    // `DroppedEvents` has no column; `UNIT_ONLY` never see anything but 1.0.
    let counted = || {
        prop::sample::select(vec![
            MetricKind::KernelLaunches,
            MetricKind::DroppedEvents,
            UNIT_ONLY[0],
            UNIT_ONLY[1],
        ])
    };
    let op = prop_oneof![
        (0usize..64, counted(), 1u8..5, prop::bool::ANY).prop_map(|(node, kind, n, by_sample)| {
            ShardOp::Count {
                node,
                kind,
                n,
                by_sample,
            }
        }),
        prop::collection::vec((path(), counted(), 1u8..5), 1..4).prop_map(ShardOp::MergeFrom),
        path().prop_map(ShardOp::Insert),
        path().prop_map(ShardOp::Insert),
        (0usize..8).prop_map(ShardOp::InsertPrefix),
        (0usize..64, kind, 1u16..1000).prop_map(|(node, kind, value)| ShardOp::Attribute {
            node,
            kind,
            value
        }),
        (0usize..64, arb_frame(Arc::clone(&interner)))
            .prop_map(|(node, frame)| ShardOp::InsertChild { node, frame }),
        Just(ShardOp::Settle),
    ];
    prop::collection::vec(op, 1..80).prop_map(move |ops| (Arc::clone(&interner), ops))
}

/// A `u64` at either end of its range as often as anywhere between.
fn arb_u64() -> BoxedStrategy<u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1_000, 0u64..u64::MAX].boxed()
}

/// A device or stream: a few small ones, so same-track runs form and
/// interleave, and the largest.
fn arb_u32() -> BoxedStrategy<u32> {
    prop_oneof![0u32..3, Just(u32::MAX)].boxed()
}

/// Any stored timeline: tracks interleaved in any order, `end < start`,
/// starts and correlations of 0 and `u64::MAX`, no context and the
/// largest one, names up to the table's last index.
fn arb_stored_timeline() -> impl Strategy<Value = StoredTimeline> {
    let context = prop_oneof![
        Just(None),
        Just(Some(NodeId::from_index(u32::MAX))),
        (0u32..100).prop_map(|index| Some(NodeId::from_index(index))),
    ];
    let interval = (
        (arb_u32(), arb_u32()),
        (arb_u64(), arb_u64()),
        prop::bool::ANY,
        // Past the table: clamped to its last index.
        prop_oneof![0usize..6, Just(usize::MAX)],
        arb_u64(),
        context,
    );
    let window = prop_oneof![
        Just(None),
        (arb_u64(), arb_u64()).prop_map(|(start, end)| Some((TimeNs(start), TimeNs(end)))),
    ];
    (
        1usize..6,
        prop::collection::vec(interval, 0..40),
        (arb_u64(), arb_u64()),
        window,
    )
        .prop_map(|(names, intervals, (recorded, dropped), window)| {
            let interner = Interner::new();
            let syms: Vec<_> = (0..names)
                .map(|i| interner.intern(&format!("kernel{i}")))
                .collect();
            let intervals = intervals
                .into_iter()
                .map(
                    |((device, stream), (start, end), memcpy, name, correlation, context)| {
                        Interval {
                            track: TrackKey { device, stream },
                            start: TimeNs(start),
                            end: TimeNs(end),
                            kind: if memcpy {
                                IntervalKind::Memcpy
                            } else {
                                IntervalKind::Kernel
                            },
                            name: syms[name.min(names - 1)],
                            correlation,
                            context,
                        }
                    },
                )
                .collect();
            StoredTimeline {
                intervals,
                names: interner.snapshot(),
                recorded,
                dropped,
                window,
            }
        })
}

/// Kinds the shard differential test only ever feeds the value `1.0`.
const UNIT_ONLY: [MetricKind; 2] = [
    MetricKind::InstructionSamples,
    MetricKind::Stall(StallReason::NotSelected),
];

/// The launch-shape kinds a kernel record adds as one run, with a
/// neighbour on either side and one far away, in `MetricKind` order.
const RUN_KINDS: [MetricKind; 8] = [
    MetricKind::GpuAllocBytes,
    MetricKind::SharedMemPerBlock,
    MetricKind::RegistersPerThread,
    MetricKind::Occupancy,
    MetricKind::Warps,
    MetricKind::Blocks,
    MetricKind::CpuTime,
    MetricKind::Stall(StallReason::Other),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cct_structure_is_consistent((interner, paths) in arb_paths()) {
        let mut cct = CallingContextTree::with_interner(interner);
        for p in &paths {
            cct.insert_path(p);
        }
        // Every node except root has a parent that lists it as a child.
        for id in cct.dfs() {
            let node = cct.node(id);
            match node.parent() {
                None => prop_assert_eq!(id, cct.root()),
                Some(parent) => {
                    prop_assert!(cct.node(parent).children().contains(&id));
                }
            }
            // Children of one node never share a collapse key.
            let keys: Vec<_> = node.children().iter().map(|c| cct.node(*c).frame().key()).collect();
            let mut dedup = keys.clone();
            dedup.sort_by_key(|k| format!("{k:?}"));
            dedup.dedup();
            prop_assert_eq!(keys.len(), dedup.len());
        }
        // DFS visits every node exactly once.
        prop_assert_eq!(cct.dfs().count(), cct.node_count());
    }

    #[test]
    fn reinsertion_is_idempotent((interner, paths) in arb_paths()) {
        let mut cct = CallingContextTree::with_interner(interner);
        let leaves: Vec<_> = paths.iter().map(|p| cct.insert_path(p)).collect();
        let count = cct.node_count();
        for (p, leaf) in paths.iter().zip(&leaves) {
            prop_assert_eq!(cct.insert_path(p), *leaf);
        }
        prop_assert_eq!(cct.node_count(), count);
    }

    #[test]
    fn node_count_bounded_by_total_frames((interner, paths) in arb_paths()) {
        let mut cct = CallingContextTree::with_interner(interner);
        for p in &paths {
            cct.insert_path(p);
        }
        let total_frames: usize = paths.iter().map(Vec::len).sum();
        prop_assert!(cct.node_count() <= 1 + total_frames);
    }

    #[test]
    fn propagation_keeps_root_equal_to_sample_total(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
    ) {
        let mut cct = CallingContextTree::with_interner(interner);
        let mut expected_sum = 0.0;
        let mut expected_count = 0u64;
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
            expected_sum += *v;
            expected_count += 1;
        }
        let root = cct.root_metric(MetricKind::GpuTime).unwrap();
        prop_assert!((root.sum - expected_sum).abs() < 1e-6 * expected_sum.max(1.0));
        prop_assert_eq!(root.count, expected_count);
    }

    #[test]
    fn parent_inclusive_metric_dominates_children(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
    ) {
        let mut cct = CallingContextTree::with_interner(interner);
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
        }
        for id in cct.dfs() {
            let parent_sum = cct.node(id).metrics().sum(MetricKind::GpuTime);
            let child_total: f64 = cct
                .node(id)
                .children()
                .iter()
                .map(|c| cct.node(*c).metrics().sum(MetricKind::GpuTime))
                .sum();
            prop_assert!(parent_sum + 1e-9 >= child_total - 1e-6 * child_total.abs());
        }
    }

    #[test]
    fn welford_matches_naive(values in prop::collection::vec(-1e7f64..1e7, 1..200)) {
        let mut stat = MetricStat::new();
        for v in &values {
            stat.add(*v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        prop_assert!((stat.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((stat.stddev() - var.sqrt()).abs() <= 1e-5 * var.sqrt().max(1.0));
        prop_assert_eq!(stat.min, values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(stat.max, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn add_run_equals_sample_by_sample_add(
        held in prop::collection::vec((0usize..RUN_KINDS.len(), -1e6f64..1e6), 0..24),
        mask in 0usize..(1 << RUN_KINDS.len()),
        values in prop::collection::vec(-1e6f64..1e6, RUN_KINDS.len()..RUN_KINDS.len() + 1),
        repeats in 1usize..4,
    ) {
        prop_assert!(RUN_KINDS.windows(2).all(|w| w[0] < w[1]));
        let mut batched = MetricStore::new();
        for (kind, value) in &held {
            batched.add(RUN_KINDS[*kind], *value);
        }
        let mut one_by_one = batched.clone();
        // Any ascending run: kinds the store holds side by side, holds
        // with another between them, or lacks; no kind at all. Repeated,
        // so what the fallback inserted is found adjacent the next time.
        let run: Vec<(MetricKind, f64)> = RUN_KINDS
            .iter()
            .zip(&values)
            .enumerate()
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, (kind, value))| (*kind, *value))
            .collect();
        for _ in 0..repeats {
            batched.add_run(&run);
            for (kind, value) in &run {
                one_by_one.add(*kind, *value);
            }
        }
        // `==` on every field of every aggregate, floats included.
        prop_assert_eq!(batched, one_by_one);
    }

    #[test]
    fn stat_merge_is_equivalent_to_concatenation(
        a in prop::collection::vec(-1e6f64..1e6, 0..100),
        b in prop::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut merged = MetricStat::new();
        for v in &a {
            merged.add(*v);
        }
        let mut other = MetricStat::new();
        for v in &b {
            other.add(*v);
        }
        merged.merge(&other);

        let mut whole = MetricStat::new();
        for v in a.iter().chain(&b) {
            whole.add(*v);
        }
        prop_assert_eq!(merged.count, whole.count);
        prop_assert!((merged.sum - whole.sum).abs() <= 1e-6 * whole.sum.abs().max(1.0));
        prop_assert!((merged.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((merged.stddev() - whole.stddev()).abs() <= 1e-5 * whole.stddev().max(1.0));
    }

    #[test]
    fn tree_merge_preserves_totals(
        (interner, paths) in arb_paths(),
        split in 0usize..40,
    ) {
        let mut whole = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        for (idx, p) in paths.iter().enumerate() {
            let lw = whole.insert_path(p);
            whole.attribute(lw, MetricKind::GpuTime, 1.0);
            let target = if idx < split % paths.len().max(1) { &mut left } else { &mut right };
            let l = target.insert_path(p);
            target.attribute(l, MetricKind::GpuTime, 1.0);
        }
        left.merge(&right);
        prop_assert_eq!(left.node_count(), whole.node_count());
        prop_assert_eq!(
            left.total(MetricKind::GpuTime),
            whole.total(MetricKind::GpuTime)
        );
    }

    #[test]
    fn tree_merge_commutes_on_metric_sums(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        split in 0usize..40,
    ) {
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        for (idx, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let target = if idx < split % paths.len().max(1) { &mut left } else { &mut right };
            let leaf = target.insert_path(p);
            target.attribute(leaf, MetricKind::GpuTime, *v);
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        prop_assert_eq!(ab.node_count(), ba.node_count());
        let sa = ab.total(MetricKind::GpuTime);
        let sb = ba.total(MetricKind::GpuTime);
        prop_assert!((sa - sb).abs() <= 1e-9 * sa.abs().max(1.0));
        let ra = ab.root_metric(MetricKind::GpuTime).map(|s| s.count).unwrap_or(0);
        let rb = ba.root_metric(MetricKind::GpuTime).map(|s| s.count).unwrap_or(0);
        prop_assert_eq!(ra, rb);
    }

    #[test]
    fn merge_preserves_frame_collapse_rules((interner, paths) in arb_paths(), split in 0usize..40) {
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        for (idx, p) in paths.iter().enumerate() {
            let target = if idx < split % paths.len().max(1) { &mut left } else { &mut right };
            target.insert_path(p);
        }
        left.merge(&right);
        // No parent ends up with two children sharing a collapse key, and
        // re-inserting every path finds existing nodes (no duplicates).
        for id in left.dfs() {
            let keys: Vec<_> = left
                .node(id)
                .children()
                .iter()
                .map(|c| left.node(*c).frame().key())
                .collect();
            let mut dedup = keys.clone();
            dedup.sort_by_key(|k| format!("{k:?}"));
            dedup.dedup();
            prop_assert_eq!(keys.len(), dedup.len());
        }
        let count = left.node_count();
        for p in &paths {
            left.insert_path(p);
        }
        prop_assert_eq!(left.node_count(), count);
    }

    #[test]
    fn merge_never_propagates_exclusive_metrics_rootward(
        (interner, paths) in arb_paths(),
        warps in prop::collection::vec(1.0f64..64.0, 1..40),
    ) {
        let mut left = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut right = CallingContextTree::with_interner(interner);
        let mut expected = 0.0;
        for (idx, (p, w)) in paths.iter().zip(warps.iter().cycle()).enumerate() {
            let target = if idx % 2 == 0 { &mut left } else { &mut right };
            let leaf = target.insert_path(p);
            target.attribute_exclusive(leaf, MetricKind::Warps, *w);
            expected += *w;
        }
        left.merge(&right);
        // Exclusive metrics live only where they were attributed: the sum
        // over all nodes equals the sum of samples, and any node carrying
        // Warps either was a leaf-attribution target or absorbed one —
        // never the root unless a path was empty (arb paths are non-empty).
        let mut total = 0.0;
        for id in left.dfs() {
            total += left.node(id).metrics().sum(MetricKind::Warps);
        }
        prop_assert!((total - expected).abs() <= 1e-9 * expected.max(1.0));
        prop_assert!(left.root_metric(MetricKind::Warps).is_none());
    }

    #[test]
    fn merge_mapping_points_at_equivalent_contexts((interner, paths) in arb_paths()) {
        let mut target = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut other = CallingContextTree::with_interner(interner);
        for (idx, p) in paths.iter().enumerate() {
            if idx % 2 == 0 {
                target.insert_path(p);
            } else {
                other.insert_path(p);
            }
        }
        let mapping = target.merge(&other);
        prop_assert_eq!(mapping.len(), other.node_count());
        for id in other.dfs() {
            let mapped = mapping[id.index()];
            // Same collapse key, and the parent relationship survives.
            prop_assert_eq!(
                format!("{:?}", target.node(mapped).frame().key()),
                format!("{:?}", other.node(id).frame().key())
            );
            if let Some(parent) = other.node(id).parent() {
                prop_assert_eq!(target.node(mapped).parent(), Some(mapping[parent.index()]));
            }
        }
    }

    #[test]
    fn shard_fold_equals_direct_ingestion(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        shard_count in 1usize..9,
    ) {
        // Ingesting through round-robin shards then folding must agree
        // with one tree ingesting everything (the sharded pipeline's
        // correctness core).
        let mut whole = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut shards: Vec<CctShard> = (0..shard_count)
            .map(|_| CctShard::new(Arc::clone(&interner)))
            .collect();
        for (idx, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let leaf = whole.insert_path(p);
            whole.attribute(leaf, MetricKind::GpuTime, *v);
            let shard = &mut shards[idx % shard_count];
            let leaf = shard.node_for(interner.paths().intern(p).id());
            shard.attribute(leaf, MetricKind::GpuTime, *v);
        }
        // Every other shard is folded with its samples still unsettled:
        // the fold carries them over.
        for shard in shards.iter_mut().step_by(2) {
            shard.settle();
        }
        let mut master = CctShard::new(interner);
        for shard in &shards {
            master.merge_from(shard);
        }
        master.settle();
        let folded = master.tree();
        prop_assert_eq!(folded.node_count(), whole.node_count());
        let fs = folded.total(MetricKind::GpuTime);
        let ws = whole.total(MetricKind::GpuTime);
        prop_assert!((fs - ws).abs() <= 1e-9 * ws.abs().max(1.0));
        prop_assert_eq!(
            folded.root_metric(MetricKind::GpuTime).unwrap().count,
            whole.root_metric(MetricKind::GpuTime).unwrap().count
        );
    }

    #[test]
    fn deferred_attribution_equals_eager_propagation((interner, ops) in arb_shard_ops()) {
        // The shard under test, fed path handles, against an oracle tree
        // driven through plain `insert_path` + eager `attribute`. Both
        // perform the same insertions in the same order, so node ids
        // must agree at every step (which is what holds the shard's
        // `PathId → node` vector to account), and after the final settle
        // the trees must be the same tree.
        let mut shard = CctShard::new(Arc::clone(&interner));
        let mut oracle = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut nodes = vec![NodeId::ROOT];
        let mut last: Vec<Frame> = Vec::new();
        for op in ops {
            match op {
                ShardOp::Insert(frames) => {
                    let got = shard.node_for(interner.paths().intern(&frames).id());
                    prop_assert_eq!(got, oracle.insert_path(&frames));
                    nodes.push(got);
                    last = frames;
                }
                ShardOp::InsertPrefix(len) => {
                    last.truncate(len.min(last.len().saturating_sub(1)));
                    let got = shard.node_for(interner.paths().intern(&last).id());
                    prop_assert_eq!(got, oracle.insert_path(&last));
                }
                ShardOp::Attribute { node, kind, value } => {
                    let node = nodes[node % nodes.len()];
                    let generation = shard.generation();
                    shard.attribute(node, kind, f64::from(value));
                    prop_assert!(shard.generation() > generation);
                    oracle.attribute(node, kind, f64::from(value));
                }
                ShardOp::Count { node, kind, n, by_sample } => {
                    let node = nodes[node % nodes.len()];
                    let generation = shard.generation();
                    if by_sample {
                        (0..n).for_each(|_| shard.attribute(node, kind, 1.0));
                    } else {
                        shard.count(node, kind, u64::from(n));
                    }
                    prop_assert!(shard.generation() > generation);
                    (0..n).for_each(|_| oracle.attribute(node, kind, 1.0));
                }
                ShardOp::MergeFrom(samples) => {
                    // The fold inserts the other shard's contexts in its
                    // id order, which is the order it met them in.
                    let mut other = CctShard::new(Arc::clone(&interner));
                    for (frames, kind, n) in &samples {
                        let node = other.node_for(interner.paths().intern(frames).id());
                        other.count(node, *kind, u64::from(*n));
                        other.attribute(node, MetricKind::GpuTime, f64::from(*n));
                        let node = oracle.insert_path(frames);
                        (0..*n).for_each(|_| oracle.attribute(node, *kind, 1.0));
                        oracle.attribute(node, MetricKind::GpuTime, f64::from(*n));
                        nodes.push(node);
                    }
                    shard.merge_from(&other);
                    for (frames, ..) in &samples {
                        let got = shard.node_for(interner.paths().intern(frames).id());
                        prop_assert_eq!(got, oracle.insert_path(frames));
                    }
                }
                ShardOp::InsertChild { node, frame } => {
                    // Mid-batch: the scratch must grow to reach the node.
                    let node = nodes[node % nodes.len()];
                    let got = shard.tree_mut().insert_child(node, &frame);
                    prop_assert_eq!(got, oracle.insert_child(node, &frame));
                    nodes.push(got);
                }
                ShardOp::Settle => {
                    shard.settle();
                    prop_assert_eq!(shard.tree().semantic_diff(&oracle), None);
                }
            }
        }
        shard.settle();
        prop_assert_eq!(shard.tree().semantic_diff(&oracle), None);
        // Beyond `semantic_diff`'s tolerance: integer-valued samples make
        // counts, sums and extrema exact, and a kind that only counts
        // occurrences has no rounding to tolerate at all.
        for id in oracle.dfs() {
            for (kind, want) in oracle.node(id).metrics().iter() {
                let got = shard.tree().metric(id, kind).expect("kind present");
                prop_assert_eq!(
                    (got.count, got.sum, got.min, got.max),
                    (want.count, want.sum, want.min, want.max)
                );
                if UNIT_ONLY.contains(&kind) {
                    prop_assert_eq!(got, want, "{}: {}", id, kind);
                }
            }
        }
    }

    #[test]
    fn profile_db_round_trips(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        iterations in 0u64..1000,
    ) {
        let mut cct = CallingContextTree::with_interner(interner);
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
            cct.attribute_exclusive(leaf, MetricKind::Warps, 32.0);
        }
        let db = ProfileDb::new(
            ProfileMeta {
                workload: "prop".into(),
                framework: "eager".into(),
                platform: "nvidia-a100".into(),
                iterations,
                ..Default::default()
            },
            cct,
        );
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        prop_assert_eq!(back.meta(), db.meta());
        prop_assert_eq!(back.cct().node_count(), db.cct().node_count());
        prop_assert_eq!(
            back.cct().render(MetricKind::GpuTime),
            db.cct().render(MetricKind::GpuTime)
        );
        prop_assert_eq!(
            back.cct().render(MetricKind::Warps),
            db.cct().render(MetricKind::Warps)
        );
    }

    #[test]
    fn profile_db_round_trips_any_stored_timeline(timeline in arb_stored_timeline()) {
        let db = ProfileDb::new(ProfileMeta::default(), CallingContextTree::new())
            .with_timeline(timeline.clone());
        let mut saved = Vec::new();
        db.save(&mut saved).unwrap();
        let back = ProfileDb::load(&saved[..]).unwrap();
        prop_assert_eq!(back.timeline(), Some(&timeline));
        let mut again = Vec::new();
        back.save(&mut again).unwrap();
        prop_assert!(again == saved, "save → load → save changed the container");
    }

    #[test]
    fn incremental_fold_of_a_growing_tree_matches_one_shot_merge(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(1u32..1000, 1..40),
        fold_every in 1usize..6,
    ) {
        // Grow a source tree path by path, folding it into a master
        // every few steps through one resumed FoldState; the master
        // must always equal a one-shot merge of the source's current
        // state (the shard-level guarantee behind snapshot caching).
        let mut source = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut master = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut state = deepcontext_core::FoldState::new();
        for (step, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let leaf = source.insert_path(p);
            source.attribute(leaf, MetricKind::GpuTime, f64::from(*v));
            source.attribute_exclusive(leaf, MetricKind::Warps, 32.0);
            if step % fold_every == 0 {
                master.merge_incremental(&source, &mut state);
                let mut fresh = CallingContextTree::with_interner(Arc::clone(&interner));
                fresh.merge(&source);
                prop_assert_eq!(master.semantic_diff(&fresh), None);
            }
        }
        master.merge_incremental(&source, &mut state);
        let mut fresh = CallingContextTree::with_interner(Arc::clone(&interner));
        fresh.merge(&source);
        prop_assert_eq!(master.semantic_diff(&fresh), None);
        prop_assert_eq!(state.folded_nodes(), source.node_count());
    }
}
