//! Sort-free assembly against the sorting constructor.
//!
//! `IntervalRing::snapshot` shares a ring's chunks and
//! `TimelineSnapshot::join` puts several rings' snapshots together by
//! track; `TimelineSnapshot::from_intervals` groups and stable-sorts
//! whatever it is given. Over random pushes — several rings and tracks,
//! each track in one ring as a shard keeps it, rings small enough to
//! evict (down to tracks evicted empty), runs of equal `(start, end)`
//! and equal whole keys, arrivals that jump back in time — the two must
//! build the same snapshot, statistics included, and the stored form
//! must reassemble to it.

use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, Frame, Interner, Interval, IntervalKind, NodeId, TimeNs, TrackKey,
};
use deepcontext_timeline::{IntervalRing, TimelineCounters, TimelineSnapshot};
use proptest::prelude::*;

/// Rings. Track `(device, stream)` records into ring
/// `(2 * device + stream) % SHARDS`: one ring holds two of the four
/// tracks, the others one each.
const SHARDS: usize = 3;

/// One push: which track, how far the track's clock moves first
/// (`None`: back to its start — a late arrival), and the rest of the
/// interval.
#[derive(Debug, Clone)]
struct Push {
    device: u32,
    stream: u32,
    advance: Option<u64>,
    duration: u64,
    correlation: u64,
    context: Option<usize>,
}

fn arb_push() -> impl Strategy<Value = Push> {
    (
        0u32..2,
        0u32..2,
        // Mostly small steps (0 repeats the start), one in three jumps back.
        prop_oneof![
            (0u64..3).prop_map(Some),
            (0u64..3).prop_map(Some),
            Just(None)
        ],
        0u64..3,
        0u64..2,
        prop_oneof![(0usize..4).prop_map(Some), Just(None)],
    )
        .prop_map(
            |(device, stream, advance, duration, correlation, context)| Push {
                device,
                stream,
                advance,
                duration,
                correlation,
                context,
            },
        )
}

/// Recorded ids to "master" ids, one table for every ring: each id maps
/// to another node, and the table is too short to resolve the last id.
fn table(nodes: &[NodeId]) -> Arc<[NodeId]> {
    (0..nodes.len() - 1)
        .map(|id| nodes[(id + 1) % nodes.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merged_snapshot_equals_the_sorted_one(
        pushes in prop::collection::vec(arb_push(), 0..120),
        capacity in 1usize..7,
        window in prop::bool::ANY,
    ) {
        let interner = Interner::new();
        let mut tree = CallingContextTree::with_interner(Arc::clone(&interner));
        let nodes: Vec<NodeId> = (0..4)
            .map(|i| tree.insert_path(&[Frame::python("m.py", i, "f", &interner)]))
            .collect();
        let names = ["k0", "k1", "memcpy"].map(|n| interner.intern(n));

        let mut rings: Vec<IntervalRing> = (0..SHARDS).map(|_| IntervalRing::new(capacity)).collect();
        let mut clocks = [[10u64; 2]; 2];
        for (n, push) in pushes.iter().enumerate() {
            let clock = &mut clocks[push.device as usize][push.stream as usize];
            *clock = match push.advance {
                Some(step) => *clock + step,
                None => 10,
            };
            let interval = Interval {
                track: TrackKey { device: push.device, stream: push.stream },
                start: TimeNs(*clock),
                end: TimeNs(*clock + push.duration),
                kind: if n.is_multiple_of(3) { IntervalKind::Memcpy } else { IntervalKind::Kernel },
                name: names[n % names.len()],
                correlation: push.correlation,
                context: push.context.map(|c| nodes[c]),
            };
            rings[(2 * push.device + push.stream) as usize % SHARDS].push(interval);
        }

        let table = table(&nodes);
        let live: Vec<Interval> = rings
            .iter()
            .flat_map(|ring| {
                ring.iter().map(|iv| Interval {
                    context: iv.context.and_then(|node| table.get(node.index()).copied()),
                    ..iv
                })
            })
            .collect();
        let counters = TimelineCounters {
            recorded: rings.iter().map(IntervalRing::recorded).sum(),
            dropped: rings.iter().map(IntervalRing::dropped).sum(),
        };
        prop_assert_eq!(live.len() as u64 + counters.dropped, counters.recorded);
        prop_assert_eq!(counters.recorded, pushes.len() as u64);

        let finish = |snapshot: TimelineSnapshot| {
            let snapshot = snapshot.with_names(interner.snapshot());
            if window { snapshot.with_window(TimeNs(3), TimeNs(40)) } else { snapshot }
        };
        let parts = rings.iter().map(IntervalRing::snapshot);
        let merged = finish(TimelineSnapshot::join(parts).with_contexts(Arc::clone(&table)));
        let sorted = finish(TimelineSnapshot::from_intervals(live, counters));
        prop_assert_eq!(&merged, &sorted);
        prop_assert_eq!(merged.stats(), sorted.stats());
        prop_assert!(merged.tracks().iter().all(|t| !t.is_empty() && t.intervals().count() == t.len()));
        prop_assert_eq!(merged.interval_count() as u64 + merged.dropped(), merged.recorded());

        // The stored form reassembles, sharing each stored track.
        let back = TimelineSnapshot::from_stored(&merged.to_stored());
        prop_assert_eq!(&back, &merged);
        prop_assert_eq!(back.stats(), merged.stats());
    }
}
