//! Sort-free assembly against the sorting constructor.
//!
//! `TimelineSink::snapshot_with` shares the rings' chunks and merges the
//! per-shard runs of each track as it is read;
//! `TimelineSnapshot::from_intervals` groups and stable-sorts whatever it
//! is given. Over random pushes — several shards and tracks, rings small
//! enough to evict (down to tracks evicted empty), runs of equal
//! `(start, end)` and equal whole keys, arrivals that jump back in time —
//! the two must build the same snapshot, statistics included, and the
//! stored form must reassemble to it on both `from_stored` paths.

use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, Frame, Interner, Interval, IntervalKind, NodeId, TimeNs, TrackKey,
};
use deepcontext_timeline::{
    IntervalRing, TimelineConfig, TimelineCounters, TimelineSink, TimelineSnapshot,
};
use proptest::prelude::*;

const SHARDS: usize = 3;

/// One push: which ring, which track, how far the track's clock moves
/// first (`None`: back to its start — a late arrival), and the rest of
/// the interval.
#[derive(Debug, Clone)]
struct Push {
    shard: usize,
    device: u32,
    stream: u32,
    advance: Option<u64>,
    duration: u64,
    correlation: u64,
    context: Option<usize>,
}

fn arb_push() -> impl Strategy<Value = Push> {
    (
        0usize..SHARDS,
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
            |(shard, device, stream, advance, duration, correlation, context)| Push {
                shard,
                device,
                stream,
                advance,
                duration,
                correlation,
                context,
            },
        )
}

/// Shard-local ids to "master" ids, one table per shard: each shard maps
/// differently, and the later ones are too short to resolve every id.
fn tables(nodes: &[NodeId]) -> Vec<Arc<[NodeId]>> {
    (0..SHARDS)
        .map(|shard| {
            (0..=nodes.len() - shard)
                .map(|local| nodes[(local + shard) % nodes.len()])
                .collect()
        })
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

        let sink = TimelineSink::new(SHARDS, &TimelineConfig { enabled: true, ring_capacity: capacity });
        // The same pushes into rings the test can read back.
        let mut mirror: Vec<IntervalRing> = (0..SHARDS).map(|_| IntervalRing::new(capacity)).collect();
        let mut clocks = [[[10u64; 2]; 2]; SHARDS];
        for (n, push) in pushes.iter().enumerate() {
            let clock = &mut clocks[push.shard][push.device as usize][push.stream as usize];
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
            sink.record(push.shard, interval);
            mirror[push.shard].push(interval);
        }

        let counters = sink.counters();
        let tables = tables(&nodes);
        let live: Vec<Interval> = mirror
            .iter()
            .zip(&tables)
            .flat_map(|(ring, table)| {
                ring.iter().map(move |iv| Interval {
                    context: iv.context.and_then(|node| table.get(node.index()).copied()),
                    ..iv
                })
            })
            .collect();
        prop_assert_eq!(live.len() as u64 + counters.dropped, counters.recorded);
        prop_assert_eq!(counters.recorded, pushes.len() as u64);
        prop_assert_eq!(
            counters,
            TimelineCounters {
                recorded: mirror.iter().map(IntervalRing::recorded).sum(),
                dropped: mirror.iter().map(IntervalRing::dropped).sum(),
            }
        );

        let finish = |snapshot: TimelineSnapshot| {
            let snapshot = snapshot.with_names(interner.snapshot());
            if window { snapshot.with_window(TimeNs(3), TimeNs(40)) } else { snapshot }
        };
        let merged = finish(sink.snapshot_with(&tables));
        let sorted = finish(TimelineSnapshot::from_intervals(live, counters));
        prop_assert_eq!(&merged, &sorted);
        prop_assert_eq!(merged.stats(), sorted.stats());
        prop_assert!(merged.tracks().iter().all(|t| !t.is_empty() && t.intervals().count() == t.len()));
        prop_assert_eq!(merged.interval_count() as u64 + merged.dropped(), merged.recorded());

        // The stored form reassembles: as written (cut at track
        // boundaries) and with its tracks rotated out of key order
        // (regrouped and sorted).
        let stored = merged.to_stored();
        let back = TimelineSnapshot::from_stored(&stored);
        prop_assert_eq!(&back, &merged);
        prop_assert_eq!(back.stats(), merged.stats());
        let mut rotated = stored.clone();
        let first_track = merged.tracks().first().map_or(0, |t| t.len());
        rotated.intervals.rotate_left(first_track);
        prop_assert_eq!(&TimelineSnapshot::from_stored(&rotated), &merged);
    }
}
