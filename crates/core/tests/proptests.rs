//! Property-based tests for the core invariants the rest of DeepContext
//! relies on: CCT structural consistency, inclusive-metric propagation,
//! exact aggregation, merge correctness, and database round-tripping.

use std::collections::BTreeMap;
use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, CctShard, Frame, Interner, IntervalKind, MetricKind, MetricStat,
    MetricStore, NodeId, OpPhase, PathHandle, PathId, ProfileDb, ProfileMeta, StallReason,
    StoredTimeline, TimeNs, TrackKey, TrackSlot,
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
    /// A context one frame below an earlier one, by extending its
    /// handle in the table.
    InsertChild {
        node: usize,
        frame: Frame,
    },
    /// Settles, then compares master + rows with the oracle and drains
    /// the rows into the master.
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
    // `HwInstructions` has no column.
    let counted = || {
        prop::sample::select(vec![
            MetricKind::KernelLaunches,
            MetricKind::HwInstructions,
            MetricKind::InstructionSamples,
            MetricKind::Stall(StallReason::NotSelected),
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

/// One step of a shard's correlation lifecycle (`correlation_sweep_*`).
#[derive(Debug, Clone)]
enum CorrOp {
    /// The runtime issues the next correlation id to `stream`, launched
    /// from context `path`; the shard binds it if it owns the stream.
    Launch {
        stream: u8,
        path: u8,
    },
    /// A record of a correlation, sampling or terminal. `from` picks
    /// which: 0 the `k`-th latest id issued (bound here or not, retired
    /// or not), 1 an id the previous batch's terminal records attributed
    /// (a re-attribution), 2 one this batch's did.
    Record {
        from: u8,
        k: usize,
        terminal: bool,
    },
    EndBatch,
    /// The counter skips `gap` ids: past the window's 64 Ki span, the
    /// next bind slides the ids before it into the straggler map.
    Jump {
        gap: u64,
    },
}

/// The streams issuing ids (1–4), which of them the shard owns (a bit
/// each; stream 0 always) and the steps.
fn arb_corr_script() -> impl Strategy<Value = (u8, u8, Vec<CorrOp>)> {
    let launch = || (0u8..4, 0u8..6).prop_map(|(stream, path)| CorrOp::Launch { stream, path });
    let record = || {
        (0u8..3, 0usize..16, prop::bool::ANY).prop_map(|(from, k, terminal)| CorrOp::Record {
            from,
            k,
            terminal,
        })
    };
    let op = prop_oneof![
        launch(),
        launch(),
        launch(),
        record(),
        record(),
        record(),
        Just(CorrOp::EndBatch),
        Just(CorrOp::EndBatch),
        prop_oneof![1u64..64, 65_530u64..65_600].prop_map(|gap| CorrOp::Jump { gap }),
    ];
    (1u8..5, 0u8..16, prop::collection::vec(op, 1..160))
}

/// The two-phase prune as two id queues: the rule `CctShard` keeps.
/// A terminal record's id joins the current batch's queue; a batch's end
/// sorts that queue, merge-walks the previous batch's (sorted at its own
/// end) against it, removes every id found only in the previous one,
/// and makes the current queue the previous.
#[derive(Default)]
struct TwoQueuePrune {
    bound: BTreeMap<u64, PathId>,
    prev_batch: Vec<u64>,
    curr_batch: Vec<u64>,
}

impl TwoQueuePrune {
    fn end_batch(&mut self) {
        self.curr_batch.sort_unstable();
        let mut renewed = self.curr_batch.iter().copied().peekable();
        for id in self.prev_batch.drain(..) {
            while renewed.next_if(|&r| r < id).is_some() {}
            if renewed.peek() != Some(&id) {
                self.bound.remove(&id);
            }
        }
        std::mem::swap(&mut self.prev_batch, &mut self.curr_batch);
    }
}

/// A `u64` at either end of its range as often as anywhere between.
fn arb_u64() -> BoxedStrategy<u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1_000, 0u64..u64::MAX].boxed()
}

/// A device or a stream: a few small ones, so same-track runs form and
/// interleave, and the largest.
fn arb_track_id() -> BoxedStrategy<u32> {
    prop_oneof![0u32..3, Just(u32::MAX)].boxed()
}

/// Any stored timeline: intervals on any of the tracks, `end < start`,
/// starts and correlations of 0 and `u64::MAX`, no context and the
/// largest one, names up to the table's last index — grouped into
/// key-ordered tracks, each sorted, which is the order a stored
/// timeline keeps.
fn arb_stored_timeline() -> impl Strategy<Value = StoredTimeline> {
    let context = prop_oneof![
        Just(None),
        Just(Some(NodeId::from_index(TrackSlot::MAX_CONTEXT))),
        (0u32..100).prop_map(|index| Some(NodeId::from_index(index))),
    ];
    let interval = (
        (arb_track_id(), arb_track_id()),
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
            let mut tracks: BTreeMap<TrackKey, Vec<TrackSlot>> = BTreeMap::new();
            for ((device, stream), (start, end), memcpy, name, correlation, context) in intervals {
                let kind = if memcpy {
                    IntervalKind::Memcpy
                } else {
                    IntervalKind::Kernel
                };
                let slot = TrackSlot::new(
                    TimeNs(start),
                    TimeNs(end),
                    correlation,
                    syms[name.min(names - 1)],
                    context,
                    kind,
                );
                tracks
                    .entry(TrackKey { device, stream })
                    .or_default()
                    .push(slot);
            }
            let tracks = tracks.into_iter().map(|(key, mut slots)| {
                slots.sort_by_key(TrackSlot::key);
                (key, slots.into())
            });
            StoredTimeline {
                tracks: tracks.collect(),
                names: interner.snapshot(),
                recorded,
                dropped,
                window,
            }
        })
}

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
    fn stat_matches_naive(values in prop::collection::vec(-1e7f64..1e7, 1..200)) {
        let mut stat = MetricStat::new();
        for v in &values {
            stat.add(*v);
        }
        let sum = values.iter().fold(0.0, |sum, v| sum + v);
        prop_assert_eq!(stat.count, values.len() as u64);
        prop_assert_eq!(stat.sum, sum);
        prop_assert_eq!(stat.min, values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(stat.max, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
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
        prop_assert_eq!((merged.min, merged.max), (whole.min, whole.max));
    }

    #[test]
    fn exact_samples_aggregate_alike_in_any_split_and_merge_order(
        samples in prop::collection::vec(
            prop_oneof![
                // ns, bytes and counts: integers; occupancy: `k/64`.
                (0u64..1 << 36).prop_map(|n| n as f64),
                (0u32..65).prop_map(|k| f64::from(k) / 64.0),
            ],
            0..120,
        ),
        part_of in prop::collection::vec(0usize..5, 120..121),
        rank in prop::collection::vec(0u32..1000, 5..6),
        folds in prop::collection::vec(0usize..121, 0..6),
    ) {
        let mut whole = MetricStat::new();
        samples.iter().for_each(|v| whole.add(*v));

        // Any split, its parts merged in any order.
        let mut parts = [MetricStat::new(); 5];
        for (v, part) in samples.iter().zip(&part_of) {
            parts[*part].add(*v);
        }
        let mut order: Vec<usize> = (0..parts.len()).collect();
        order.sort_by_key(|p| rank[*p]);
        let mut merged = MetricStat::new();
        order.iter().for_each(|p| merged.merge(&parts[*p]));
        prop_assert_eq!(merged, whole);

        // A store drained into another at any points, as a shard's row
        // is into the master.
        let mut cuts: Vec<usize> = folds.iter().map(|f| (*f).min(samples.len())).collect();
        cuts.push(samples.len());
        cuts.sort_unstable();
        let (mut live, mut folded) = (MetricStore::new(), MetricStore::new());
        let mut at = 0;
        for cut in cuts {
            for v in &samples[at..cut] {
                let mut sample = MetricStat::new();
                sample.add(*v);
                live.merge_stat(MetricKind::GpuTime, &sample);
            }
            at = cut;
            folded.merge(&std::mem::take(&mut live));
        }
        prop_assert_eq!(folded.get(MetricKind::GpuTime).copied().unwrap_or_default(), whole);
    }

    #[test]
    fn tree_merge_preserves_totals(
        (interner, paths) in arb_paths(),
        split in 0usize..40,
    ) {
        // Two shards' rows folded into one tree hold what one tree fed
        // everything holds.
        let mut whole = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut halves = [0, 1].map(|_| CctShard::new(Arc::clone(&interner)));
        for (idx, p) in paths.iter().enumerate() {
            let lw = whole.insert_path(p);
            whole.attribute(lw, MetricKind::GpuTime, 1.0);
            let half = &mut halves[usize::from(idx >= split % paths.len().max(1))];
            let row = half.node_for(interner.paths().intern(p).id());
            half.attribute(row, MetricKind::GpuTime, 1.0);
        }
        let folded = fold(&interner, &mut halves, &[0, 1]);
        prop_assert_eq!(folded.node_count(), whole.node_count());
        prop_assert_eq!(
            folded.total(MetricKind::GpuTime),
            whole.total(MetricKind::GpuTime)
        );
    }

    #[test]
    fn tree_merge_commutes_on_metric_sums(
        (interner, paths) in arb_paths(),
        values in prop::collection::vec(0.0f64..1e6, 1..40),
        split in 0usize..40,
    ) {
        let mut halves = [0, 1].map(|_| CctShard::new(Arc::clone(&interner)));
        for (idx, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let half = &mut halves[usize::from(idx >= split % paths.len().max(1))];
            let row = half.node_for(interner.paths().intern(p).id());
            half.attribute(row, MetricKind::GpuTime, *v);
        }
        let ab = fold(&interner, &mut halves, &[0, 1]);
        let ba = fold(&interner, &mut halves, &[1, 0]);
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
        let mut halves = [0, 1].map(|_| CctShard::new(Arc::clone(&interner)));
        for (idx, p) in paths.iter().enumerate() {
            let half = &mut halves[usize::from(idx >= split % paths.len().max(1))];
            half.node_for(interner.paths().intern(p).id());
        }
        let mut left = fold(&interner, &mut halves, &[0, 1]);
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
    fn merge_mapping_points_at_equivalent_contexts((interner, paths) in arb_paths()) {
        // Every path placed by either shard's drain names a node that
        // spells it, under the node of the path it extends.
        let mut target = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut halves = [0, 1].map(|_| CctShard::new(Arc::clone(&interner)));
        let mut handles = Vec::new();
        for (idx, p) in paths.iter().enumerate() {
            let handle = interner.paths().intern(p);
            halves[idx % 2].node_for(handle.id());
            handles.push((handle, p));
        }
        for half in &mut halves {
            half.drain_into(&mut target);
        }
        let count = target.node_count();
        for (handle, p) in handles {
            let node = target.path_node(handle.id());
            let keys = |frames: &[Frame]| frames.iter().map(|f| format!("{:?}", f.key())).collect::<Vec<_>>();
            prop_assert_eq!(keys(target.frames_to_root(node).frames()), keys(p));
            if let Some(up) = interner.paths().entries().leaf_to_root(handle.id()).nth(1) {
                prop_assert_eq!(target.node(node).parent(), Some(target.path_node(up)));
            }
        }
        prop_assert_eq!(target.node_count(), count, "every path was placed by the drains");
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
        // Settle each shard, then drain its rows, as `ShardedSink` does.
        let mut folded = CallingContextTree::with_interner(interner);
        for shard in &mut shards {
            shard.settle();
            shard.drain_into(&mut folded);
        }
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
        // perform the same insertions in the same order, so row and node
        // ids must agree at every step (which is what holds the shard's
        // `PathId → row` vector to account), and at every settle the
        // master the rows drain into, plus the rows, must be the oracle.
        let mut shard = CctShard::new(Arc::clone(&interner));
        let mut oracle = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut master = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut nodes = vec![(NodeId::ROOT, PathHandle::ROOT)];
        let mut last: Vec<Frame> = Vec::new();
        for op in ops {
            match op {
                ShardOp::Insert(frames) => {
                    let handle = interner.paths().intern(&frames);
                    let got = shard.node_for(handle.id());
                    prop_assert_eq!(got, oracle.insert_path(&frames));
                    nodes.push((got, handle));
                    last = frames;
                }
                ShardOp::InsertPrefix(len) => {
                    last.truncate(len.min(last.len().saturating_sub(1)));
                    let got = shard.node_for(interner.paths().intern(&last).id());
                    prop_assert_eq!(got, oracle.insert_path(&last));
                }
                ShardOp::Attribute { node, kind, value } => {
                    let (node, _) = nodes[node % nodes.len()];
                    let generation = shard.generation();
                    shard.attribute(node, kind, f64::from(value));
                    prop_assert!(shard.generation() > generation);
                    oracle.attribute(node, kind, f64::from(value));
                }
                ShardOp::Count { node, kind, n, by_sample } => {
                    let (node, _) = nodes[node % nodes.len()];
                    let generation = shard.generation();
                    if by_sample {
                        (0..n).for_each(|_| shard.attribute(node, kind, 1.0));
                    } else {
                        shard.count(node, kind, u64::from(n));
                    }
                    prop_assert!(shard.generation() > generation);
                    (0..n).for_each(|_| oracle.attribute(node, kind, 1.0));
                }
                ShardOp::InsertChild { node, frame } => {
                    // Mid-batch: the scratch must grow to reach the row.
                    let (node, handle) = nodes[node % nodes.len()];
                    let child = interner.paths().extend(handle, &frame);
                    let got = shard.node_for(child.id());
                    prop_assert_eq!(got, oracle.insert_child(node, &frame));
                    nodes.push((got, child));
                }
                ShardOp::Settle => {
                    shard.settle();
                    let mut copy = master.clone();
                    shard.clone().drain_into(&mut copy);
                    prop_assert_eq!(copy.semantic_diff(&oracle), None);
                    shard.drain_into(&mut master);
                }
            }
        }
        shard.settle();
        shard.drain_into(&mut master);
        prop_assert_eq!(master.semantic_diff(&oracle), None);
    }

    #[test]
    fn correlation_sweep_retires_what_two_queues_retire(
        (streams, owned, ops) in arb_corr_script()
    ) {
        // A shard's stamped window against the two-queue prune it
        // replaced, driven as the sink drives it: a record looks its id
        // up, and a terminal one defers it. After every step both hold
        // the same ids, bound to the same contexts.
        let interner = Interner::new();
        let paths: Vec<PathId> = (0..6)
            .map(|pc| interner.paths().intern(&[Frame::instruction(pc)]).id())
            .collect();
        let mut shard = CctShard::new(Arc::clone(&interner));
        let mut oracle = TwoQueuePrune::default();
        let (mut next, mut issued) = (1u64, Vec::new());
        for op in ops {
            match op {
                CorrOp::Launch { stream, path } => {
                    let stream = stream % streams;
                    if stream == 0 || owned & (1 << stream) != 0 {
                        shard.bind(next, paths[usize::from(path)]);
                        oracle.bound.insert(next, paths[usize::from(path)]);
                    }
                    issued.push(next);
                    next += 1;
                }
                CorrOp::Record { from, k, terminal } => {
                    let queue = match from {
                        0 => &issued,
                        1 => &oracle.prev_batch,
                        _ => &oracle.curr_batch,
                    };
                    let Some(&id) = queue.iter().rev().nth(k % queue.len().max(1)) else {
                        continue;
                    };
                    prop_assert_eq!(shard.correlation(id), oracle.bound.get(&id).copied());
                    if terminal {
                        shard.defer_prune(id);
                        oracle.curr_batch.push(id);
                    }
                }
                CorrOp::EndBatch => {
                    shard.end_batch();
                    oracle.end_batch();
                }
                CorrOp::Jump { gap } => next += gap,
            }
            prop_assert_eq!(shard.correlations().len(), oracle.bound.len());
            for id in &issued {
                prop_assert_eq!(
                    shard.correlation(*id),
                    oracle.bound.get(id).copied(),
                    "id {}",
                    id
                );
            }
        }
        // Two batches with no records retire every stamp.
        shard.end_batch();
        shard.end_batch();
        oracle.end_batch();
        oracle.end_batch();
        prop_assert_eq!(shard.correlations().len(), oracle.bound.len());
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
            cct.attribute(leaf, MetricKind::MemcpyBytes, 32.0);
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
            back.cct().render(MetricKind::MemcpyBytes),
            db.cct().render(MetricKind::MemcpyBytes)
        );
    }

    #[test]
    fn profile_db_round_trips_any_stored_timeline(timeline in arb_stored_timeline()) {
        let mut db = ProfileDb::new(ProfileMeta::default(), CallingContextTree::new());
        db.set_timeline(Some(timeline.clone()));
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
        // Grow a shard path by path, draining it into a master every few
        // steps; the master must always equal one tree fed everything so
        // far (the shard-level guarantee behind snapshot caching), and
        // a drain leaves nothing behind in the rows.
        let mut shard = CctShard::new(Arc::clone(&interner));
        let mut whole = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut master = CallingContextTree::with_interner(Arc::clone(&interner));
        for (step, (p, v)) in paths.iter().zip(values.iter().cycle()).enumerate() {
            let row = shard.node_for(interner.paths().intern(p).id());
            let leaf = whole.insert_path(p);
            for (kind, value) in [(MetricKind::GpuTime, f64::from(*v)), (MetricKind::MemcpyBytes, 32.0)] {
                shard.attribute(row, kind, value);
                whole.attribute(leaf, kind, value);
            }
            if step % fold_every == 0 {
                shard.settle();
                shard.drain_into(&mut master);
                prop_assert_eq!(master.semantic_diff(&whole), None);
                prop_assert_eq!(shard.to_tree().total(MetricKind::GpuTime), 0.0);
            }
        }
        shard.settle();
        shard.drain_into(&mut master);
        prop_assert_eq!(master.semantic_diff(&whole), None);
    }
}

/// `shards` folded, without emptying them, into a fresh tree in `order`.
fn fold(interner: &Arc<Interner>, shards: &mut [CctShard], order: &[usize]) -> CallingContextTree {
    let mut tree = CallingContextTree::with_interner(Arc::clone(interner));
    for &idx in order {
        shards[idx].settle();
        shards[idx].clone().drain_into(&mut tree);
    }
    tree
}
