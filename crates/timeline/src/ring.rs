//! Bounded interval storage: one ring buffer per ingestion shard.
//!
//! The ingestion pipeline records an interval at the moment the
//! corresponding activity record is attributed inside its home shard,
//! and a stream's records all reach one shard, so the timeline mirrors
//! that layout: one [`IntervalRing`] per shard, kept under the shard's
//! own lock, and each `(device, stream)` track held by exactly one
//! ring. A full ring evicts under its global capacity from whichever
//! *track* holds the largest retained share, so one hot stream degrades
//! to a bounded trailing window of itself without erasing a quiet
//! stream's history (the CCT keeps the lossless aggregate view either
//! way).
//!
//! Each ring keeps one run per track in track order — activity records
//! arrive in completion order per stream, so [`IntervalRing::push`]
//! pays one compare against the newest entry for it. A run is a list of
//! **sealed chunks** — immutable, reference-counted slices of 32-byte
//! [`TrackSlot`]s, the record a stored timeline keeps too — plus a
//! small open tail. Nothing ever writes into a sealed chunk: eviction
//! advances an offset into the oldest one (and frees it when the offset
//! reaches its end), a late arrival replaces the one chunk it lands in
//! with a rewritten copy. That is what lets [`IntervalRing::snapshot`]
//! *share* the ring instead of copying it: a snapshot clones the chunk
//! handles, copies each open tail (at most one chunk) and is a
//! consistent view from then on, whatever the ring does next. There is
//! no second copy of the intervals for `ProfilerStats::peak_bytes` to
//! count, and a shard is held for microseconds per read, not for the
//! length of a 9 MB copy.
//! A ring keeps context ids as recorded: the ingestion pipeline records
//! path ids, one id space for every ring.

use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

use deepcontext_core::{Interval, TrackKey, TrackSlot};

use crate::snapshot::{Run, TimelineSnapshot, Track};

/// Slots per sealed chunk. Small enough that a read copies little (one
/// open tail per run) and a late arrival rewrites little, large enough
/// that the chunk header and its handle are noise beside the payload
/// (32 bytes per 10 KiB).
const CHUNK_LEN: usize = 256;

/// What an `Arc<[TrackSlot]>` allocation carries in front of its payload:
/// the strong and the weak count.
const ARC_HEADER_BYTES: usize = 2 * size_of::<usize>();

/// The live slots of a chunk list whose oldest chunk has lost its first
/// `front` slots to eviction.
pub(crate) fn live_slots<'a>(
    chunks: impl Iterator<Item = &'a Arc<[TrackSlot]>>,
    front: usize,
) -> impl Iterator<Item = &'a TrackSlot> {
    chunks.flat_map(|chunk| chunk.iter()).skip(front)
}

/// A fixed-capacity interval buffer with per-track eviction fairness:
/// intervals are retained per `(device, stream)` track, each track in
/// `(start, end, correlation)` order, under one global capacity, and
/// overflow evicts the earliest entry of the *largest* track. A single
/// hot stream therefore cannibalizes only its own history; a quiet
/// stream's intervals survive as long as its share stays below the hot
/// track's.
///
/// The counters live here — plain integers updated under the lock the
/// recording path already holds — instead of as shared atomics: the tap
/// sits inside inline attribution, and a per-interval atomic RMW is
/// measurable against the ~tens-of-nanoseconds budget the recording
/// overhead bar allows. Reads sum them over the rings on the cold stats
/// path.
#[derive(Debug, Clone)]
pub struct IntervalRing {
    /// Per-track runs, sorted by [`TrackKey`]. Shards see a handful
    /// of tracks (device × stream), so a sorted vec beats a map.
    tracks: Vec<TrackRing>,
    /// Total live intervals across all tracks.
    len: usize,
    capacity: usize,
    /// [`CHUNK_LEN`], except in this module's tests.
    chunk_len: usize,
    recorded: u64,
    dropped: u64,
}

/// One track's run: sealed chunks oldest first, then the open tail.
#[derive(Debug, Clone)]
struct TrackRing {
    key: TrackKey,
    /// Immutable once sealed, none empty; a snapshot holds handles to
    /// the same allocations.
    sealed: VecDeque<Arc<[TrackSlot]>>,
    /// Slots of `sealed[0]` already evicted.
    front: usize,
    /// The newest slots, at most a chunk of them.
    tail: Vec<TrackSlot>,
    /// Live slots: the sealed chunks' past `front`, plus the tail.
    len: usize,
}

impl TrackRing {
    /// A track holding nothing and owning no allocation — what a track
    /// evicted empty goes back to.
    fn new(key: TrackKey) -> Self {
        TrackRing {
            key,
            sealed: VecDeque::new(),
            front: 0,
            tail: Vec::new(),
            len: 0,
        }
    }

    fn slots(&self) -> impl Iterator<Item = &TrackSlot> {
        live_slots(self.sealed.iter(), self.front).chain(&self.tail)
    }

    /// Moves the tail's slots into a sealed chunk of their own.
    fn seal(&mut self) {
        self.sealed.push_back(Arc::from(&self.tail[..]));
        self.tail.clear();
    }

    /// Keeps the run in track order. In-order arrival — the only kind a
    /// stream's completion-ordered records produce — is one compare and
    /// an append; a late arrival goes after every entry it does not
    /// precede, where a stable sort would leave it.
    fn push(&mut self, slot: TrackSlot, chunk_len: usize) {
        if self.tail.len() >= chunk_len {
            self.seal();
        }
        let key = slot.key();
        let newest_sealed = self.sealed.back().and_then(|chunk| chunk.last());
        if (self.tail.last().or(newest_sealed)).is_none_or(|newest| newest.key() <= key) {
            self.tail.push(slot);
        } else if newest_sealed.is_none_or(|newest| newest.key() <= key) {
            let at = self.tail.partition_point(|s| s.key() <= key);
            self.tail.insert(at, slot);
        } else {
            self.insert_sealed(slot, chunk_len);
        }
        self.len += 1;
    }

    /// A late arrival that precedes a sealed slot: the chunk it lands in
    /// is replaced by a rewritten copy (snapshots keep the old one), cut
    /// in two once it reaches twice the chunk length so that the slots a
    /// chunk holds past their eviction stay bounded.
    fn insert_sealed(&mut self, slot: TrackSlot, chunk_len: usize) {
        let key = slot.key();
        // The last chunk whose first slot it does not precede, the
        // oldest when it precedes them all. An evicted first slot can
        // only argue for the oldest chunk, which is the fallback anyway.
        let idx = self
            .sealed
            .partition_point(|chunk| chunk[0].key() <= key)
            .saturating_sub(1);
        let evicted = if idx == 0 {
            std::mem::take(&mut self.front)
        } else {
            0
        };
        let live = &self.sealed[idx][evicted..];
        let at = live.partition_point(|s| s.key() <= key);
        let mut slots = Vec::with_capacity(live.len() + 1);
        slots.extend_from_slice(&live[..at]);
        slots.push(slot);
        slots.extend_from_slice(&live[at..]);
        if slots.len() >= 2 * chunk_len {
            let (older, newer) = slots.split_at(slots.len() / 2);
            self.sealed[idx] = Arc::from(older);
            self.sealed.insert(idx + 1, Arc::from(newer));
        } else {
            self.sealed[idx] = Arc::from(slots);
        }
    }

    /// Drops the earliest live slot. A chunk is released when its last
    /// slot goes, the track's every allocation when the track's does.
    fn evict_oldest(&mut self) {
        if self.sealed.is_empty() {
            // Only a ring smaller than a chunk per track evicts from a
            // tail: seal it early, so eviction is always an offset.
            self.seal();
        }
        self.front += 1;
        self.len -= 1;
        if self.front == self.sealed[0].len() {
            self.sealed.pop_front();
            self.front = 0;
        }
        if self.len == 0 {
            *self = TrackRing::new(self.key);
        }
    }

    /// This track's share of a snapshot: handles to the sealed chunks
    /// and a copy of the tail. `None` when it holds nothing.
    fn run(&self) -> Option<Run> {
        if self.len == 0 {
            return None;
        }
        let mut chunks = Vec::with_capacity(self.sealed.len() + 1);
        chunks.extend(self.sealed.iter().cloned());
        if !self.tail.is_empty() {
            chunks.push(Arc::from(&self.tail[..]));
        }
        Some(Run {
            table: None,
            chunks,
            front: self.front,
        })
    }

    /// Heap bytes this track owns: every chunk allocation, the chunk
    /// list and the tail at their capacities.
    fn heap_bytes(&self) -> usize {
        let chunks: usize = self
            .sealed
            .iter()
            .map(|chunk| ARC_HEADER_BYTES + chunk.len() * size_of::<TrackSlot>())
            .sum();
        chunks
            + self.sealed.capacity() * size_of::<Arc<[TrackSlot]>>()
            + self.tail.capacity() * size_of::<TrackSlot>()
    }
}

impl IntervalRing {
    /// An empty ring holding at most `capacity` intervals (clamped to at
    /// least one). Storage is allocated lazily as intervals arrive.
    pub fn new(capacity: usize) -> Self {
        IntervalRing::with_chunk_len(capacity, CHUNK_LEN)
    }

    fn with_chunk_len(capacity: usize, chunk_len: usize) -> Self {
        IntervalRing {
            tracks: Vec::new(),
            len: 0,
            capacity: capacity.max(1),
            chunk_len,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Adds `interval` to its track, evicting (and counting) the
    /// earliest entry of the largest track when the ring is at its
    /// global capacity.
    pub fn push(&mut self, interval: Interval) {
        self.recorded += 1;
        if self.len == self.capacity {
            // Evict from the track holding the most intervals. Ties
            // prefer the incoming interval's own track (so balanced
            // loads self-evict and stay balanced), then the smallest
            // key — deterministic either way. Another track only loses
            // history once it holds a strictly larger share.
            let victim = self
                .tracks
                .iter_mut()
                .max_by_key(|t| (t.len, t.key == interval.track, std::cmp::Reverse(t.key)))
                .expect("capacity >= 1 and ring is full");
            victim.evict_oldest();
            self.len -= 1;
            self.dropped += 1;
        }
        let idx = match self.tracks.binary_search_by_key(&interval.track, |t| t.key) {
            Ok(idx) => idx,
            Err(idx) => {
                self.tracks.insert(idx, TrackRing::new(interval.track));
                idx
            }
        };
        self.tracks[idx].push(TrackSlot::of(&interval), self.chunk_len);
        self.len += 1;
    }

    /// Live intervals: tracks in `(device, stream)` order, each track in
    /// `(start, end, correlation)` order, contexts as recorded.
    pub fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
        self.tracks
            .iter()
            .flat_map(|t| t.slots().map(|slot| slot.expand(t.key, None)))
    }

    fn track(&self, key: TrackKey) -> Option<&TrackRing> {
        let idx = self.tracks.binary_search_by_key(&key, |t| t.key).ok()?;
        Some(&self.tracks[idx])
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct tracks seen. A track evicted empty stays in
    /// the count — its entry remembers the key — but owns no storage.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Live intervals retained for one track.
    pub fn track_len(&self, key: TrackKey) -> usize {
        self.track(key).map_or(0, |t| t.len)
    }

    /// Intervals ever pushed (including any later evicted by overflow).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Intervals evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap bytes the ring owns: the track list at its capacity and, per
    /// track, every chunk allocation (payload and reference counts), the
    /// chunk list and the open tail at theirs. Chunks a snapshot still
    /// holds after the ring let go of them are the snapshot's.
    pub fn approx_bytes(&self) -> usize {
        self.tracks.capacity() * size_of::<TrackRing>()
            + self.tracks.iter().map(TrackRing::heap_bytes).sum::<usize>()
    }

    /// A view of the ring's current contents as per-track sorted
    /// intervals, with its counters and its context ids as recorded.
    /// [`TimelineSnapshot::join`] puts the snapshots of several rings
    /// together, [`TimelineSnapshot::with_contexts`] maps their ids.
    ///
    /// The snapshot shares the ring's sealed chunks and copies only the
    /// open tails, so the work here is per chunk, not per interval, and
    /// what the ring does afterwards — pushes, evictions, late arrivals —
    /// never shows in it. Intervals are expanded and remapped when a
    /// [`Track`] is iterated.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let tracks = self.tracks.iter().filter_map(|track| {
            let run = track.run()?;
            Some(Track::new(track.key, run))
        });
        let counters = TimelineCounters {
            recorded: self.recorded,
            dropped: self.dropped,
        };
        TimelineSnapshot::from_tracks(tracks.collect(), counters)
    }
}

/// Monotonic timeline-recording counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineCounters {
    /// Intervals recorded (including any later evicted by overflow).
    pub recorded: u64,
    /// Intervals evicted by ring overflow; surfaced through
    /// `ProfilerStats` and on every [`TimelineSnapshot`].
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallingContextTree, Frame, Interner, IntervalKind, NodeId, TimeNs};
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, OnceLock};

    fn interval(corr: u64, start: u64, end: u64) -> Interval {
        on_track(0, 0, corr, start, end)
    }

    fn on_track(device: u32, stream: u32, corr: u64, start: u64, end: u64) -> Interval {
        static INTERNER: OnceLock<Arc<Interner>> = OnceLock::new();
        Interval {
            track: TrackKey { device, stream },
            start: TimeNs(start),
            end: TimeNs(end),
            kind: IntervalKind::Kernel,
            name: INTERNER.get_or_init(Interner::new).intern("k"),
            correlation: corr,
            context: None,
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_counts_evictions() {
        let mut ring = IntervalRing::new(4);
        for corr in 1..=10u64 {
            ring.push(interval(corr, corr * 10, corr * 10 + 5));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let corrs: Vec<u64> = ring.iter().map(|iv| iv.correlation).collect();
        assert_eq!(corrs, vec![7, 8, 9, 10], "oldest-first, newest kept");
    }

    #[test]
    fn joined_counters_partition_recorded_into_kept_plus_dropped() {
        let mut rings = [IntervalRing::new(3), IntervalRing::new(3)];
        for corr in 1..=5u64 {
            rings[0].push(interval(corr, corr, corr + 1));
        }
        rings[1].push(on_track(0, 1, 99, 1, 2));
        let snap = TimelineSnapshot::join(rings.iter().map(IntervalRing::snapshot));
        assert_eq!((snap.recorded(), snap.dropped()), (6, 2));
        assert_eq!(
            snap.interval_count() as u64 + snap.dropped(),
            snap.recorded(),
            "kept + dropped == recorded"
        );
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = IntervalRing::new(0);
        ring.push(interval(1, 0, 1));
        ring.push(interval(2, 1, 2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn hot_track_cannot_evict_a_quiet_tracks_history() {
        let mut ring = IntervalRing::new(8);
        // A quiet stream records 3 intervals early...
        for corr in 1..=3u64 {
            ring.push(on_track(0, 1, corr, corr, corr + 1));
        }
        // ...then a hot stream floods the ring.
        for corr in 100..200u64 {
            ring.push(on_track(0, 0, corr, corr, corr + 1));
        }
        let quiet = TrackKey {
            device: 0,
            stream: 1,
        };
        let hot = TrackKey {
            device: 0,
            stream: 0,
        };
        // The quiet stream keeps its full history; the hot stream holds
        // the remainder of the budget as a trailing window of itself.
        assert_eq!(ring.track_len(quiet), 3);
        assert_eq!(ring.track_len(hot), 5);
        let quiet_corrs: Vec<u64> = ring
            .iter()
            .filter(|iv| iv.track == quiet)
            .map(|iv| iv.correlation)
            .collect();
        assert_eq!(quiet_corrs, vec![1, 2, 3]);
        let hot_corrs: Vec<u64> = ring
            .iter()
            .filter(|iv| iv.track == hot)
            .map(|iv| iv.correlation)
            .collect();
        assert_eq!(hot_corrs, vec![195, 196, 197, 198, 199]);
        // Exact accounting: kept + dropped == recorded.
        assert_eq!(ring.len() as u64 + ring.dropped(), ring.recorded());
        assert_eq!(ring.recorded(), 103);
    }

    #[test]
    fn balanced_tracks_converge_to_equal_shares() {
        let mut ring = IntervalRing::new(6);
        // Interleaved pushes on three tracks, far past capacity.
        for corr in 0..300u64 {
            ring.push(on_track(0, (corr % 3) as u32, corr, corr, corr + 1));
        }
        for stream in 0..3 {
            assert_eq!(ring.track_len(TrackKey { device: 0, stream }), 2);
        }
        assert_eq!(ring.len() as u64 + ring.dropped(), ring.recorded());
    }

    #[test]
    fn a_track_evicted_empty_owns_no_storage() {
        // A stream records, goes quiet and is cannibalised by two others
        // (ties evict the smallest key, which is the quiet one).
        let mut ring = IntervalRing::with_chunk_len(2, 4);
        ring.push(on_track(0, 0, 1, 10, 20));
        ring.push(on_track(0, 1, 2, 10, 20));
        ring.push(on_track(0, 2, 3, 10, 20));
        let quiet = &ring.tracks[0];
        assert_eq!((quiet.len, ring.track_count()), (0, 3));
        assert_eq!(quiet.heap_bytes(), 0);
        assert_eq!((quiet.sealed.capacity(), quiet.tail.capacity()), (0, 0));
        let others: usize = ring.tracks[1..].iter().map(TrackRing::heap_bytes).sum();
        assert_eq!(
            ring.approx_bytes(),
            ring.tracks.capacity() * size_of::<TrackRing>() + others,
            "the emptied track counts for its entry only"
        );
        // It records again like a track never seen.
        ring.push(on_track(0, 0, 4, 30, 40));
        assert_eq!(
            ring.track_len(TrackKey {
                device: 0,
                stream: 0
            }),
            1
        );
    }

    /// What the chunked ring must behave like: a deque of whole
    /// intervals per track, the same eviction rule, a late arrival after
    /// every entry it does not precede.
    struct Model {
        tracks: BTreeMap<TrackKey, VecDeque<Interval>>,
        capacity: usize,
        recorded: u64,
        dropped: u64,
    }

    impl Model {
        fn new(capacity: usize) -> Self {
            Model {
                tracks: BTreeMap::new(),
                capacity,
                recorded: 0,
                dropped: 0,
            }
        }

        fn push(&mut self, interval: Interval) {
            self.recorded += 1;
            if self.tracks.values().map(VecDeque::len).sum::<usize>() == self.capacity {
                let (_, victim) = self
                    .tracks
                    .iter_mut()
                    .max_by_key(|(key, buf)| (buf.len(), **key == interval.track, Reverse(**key)))
                    .expect("full");
                victim.pop_front();
                self.dropped += 1;
            }
            let key = |iv: &Interval| (iv.start, iv.end, iv.correlation);
            let buf = self.tracks.entry(interval.track).or_default();
            let at = buf.partition_point(|held| key(held) <= key(&interval));
            buf.insert(at, interval);
        }

        fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
            self.tracks.values().flatten().copied()
        }
    }

    /// Rings: stream `s` records into ring `s % SHARDS`, so a ring holds
    /// one or two tracks and no track is in two rings.
    const SHARDS: usize = 2;

    /// One push — which stream, how far the stream's clock moves first (`None`: back to its start, a late arrival that lands
    /// in whatever the track holds there, sealed or open), then
    /// duration, correlation and context — after a snapshot or not.
    #[derive(Debug, Clone)]
    struct Step {
        snapshot_first: bool,
        stream: u32,
        advance: Option<u64>,
        duration: u64,
        correlation: u64,
        context: Option<usize>,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (
            0u32..6,
            0u32..3,
            // One in four jumps back.
            (0u64..4, 0u64..3).prop_map(|(late, step)| (late > 0).then_some(step)),
            0u64..3,
            0u64..2,
            prop_oneof![(0usize..3).prop_map(Some), Just(None)],
        )
            .prop_map(
                |(snapshot, stream, advance, duration, correlation, context)| Step {
                    snapshot_first: snapshot == 0,
                    stream,
                    advance,
                    duration,
                    correlation,
                    context,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn chunked_ring_matches_the_deque_model_and_snapshots_stay_put(
            steps in prop::collection::vec(arb_step(), 0..160),
            capacity in 1usize..9,
            chunk_len in 1usize..5,
        ) {
            let interner = Interner::new();
            let mut tree = CallingContextTree::with_interner(Arc::clone(&interner));
            let nodes: Vec<NodeId> = (0..3)
                .map(|i| tree.insert_path(&[Frame::python("m.py", i, "f", &interner)]))
                .collect();
            // Every ring's ids map to other nodes, and the table is one
            // entry short.
            let table: Arc<[NodeId]> = (0..nodes.len() - 1).map(|n| nodes[(n + 1) % 3]).collect();
            let name = interner.intern("k");

            let mut rings: Vec<IntervalRing> = (0..SHARDS)
                .map(|_| IntervalRing::with_chunk_len(capacity, chunk_len))
                .collect();
            let snapshot = |rings: &[IntervalRing]| {
                TimelineSnapshot::join(rings.iter().map(IntervalRing::snapshot))
                    .with_contexts(Arc::clone(&table))
            };
            let mut models: Vec<Model> = (0..SHARDS).map(|_| Model::new(capacity)).collect();
            // What a snapshot of the models would hold right now.
            let expected = |models: &[Model]| {
                let live = models.iter().flat_map(|model| {
                    model.iter().map(|iv| Interval {
                        context: iv.context.and_then(|node| table.get(node.index()).copied()),
                        ..iv
                    })
                });
                let counters = TimelineCounters {
                    recorded: models.iter().map(|m| m.recorded).sum(),
                    dropped: models.iter().map(|m| m.dropped).sum(),
                };
                TimelineSnapshot::from_intervals(live.collect(), counters)
            };
            let mut held: Vec<(TimelineSnapshot, TimelineSnapshot)> = Vec::new();
            let mut clocks = [10u64; 3];
            for step in &steps {
                if step.snapshot_first {
                    held.push((snapshot(&rings), expected(&models)));
                }
                let shard = step.stream as usize % SHARDS;
                let clock = &mut clocks[step.stream as usize];
                *clock = step.advance.map_or(10, |by| *clock + by);
                let interval = Interval {
                    track: TrackKey { device: 0, stream: step.stream },
                    start: TimeNs(*clock),
                    end: TimeNs(*clock + step.duration),
                    kind: if step.correlation == 0 { IntervalKind::Memcpy } else { IntervalKind::Kernel },
                    name,
                    correlation: step.correlation,
                    context: step.context.map(|c| nodes[c]),
                };
                rings[shard].push(interval);
                models[shard].push(interval);

                let (ring, model) = (&rings[shard], &models[shard]);
                prop_assert!(ring.iter().eq(model.iter()), "{:?} != {:?}", ring, model.tracks);
                prop_assert_eq!((ring.recorded(), ring.dropped()), (model.recorded, model.dropped));
                prop_assert_eq!(ring.len() as u64 + ring.dropped(), ring.recorded());
                for (key, buf) in &model.tracks {
                    prop_assert_eq!(ring.track_len(*key), buf.len());
                    if buf.is_empty() {
                        prop_assert_eq!(ring.track(*key).map(TrackRing::heap_bytes), Some(0));
                    }
                }
                // A chunk outlives its slots by less than two chunks'
                // worth, so the ring's memory follows its capacity.
                for track in &ring.tracks {
                    let sealed: usize = track.sealed.iter().map(|chunk| chunk.len()).sum();
                    prop_assert!(track.front < 2 * chunk_len);
                    prop_assert_eq!(sealed - track.front + track.tail.len(), track.len);
                }
                // Every snapshot taken so far still shows its own step.
                for (snapshot, then) in &held {
                    prop_assert_eq!(snapshot, then);
                }
            }
            prop_assert_eq!(&snapshot(&rings), &expected(&models));
            for (snapshot, then) in &held {
                prop_assert_eq!(snapshot.stats(), then.stats());
            }
        }
    }

    #[test]
    fn a_held_snapshot_is_unchanged_by_ten_capacities_of_pushes() {
        const CAPACITY: u64 = 600;
        // Behind a lock, as a shard keeps it.
        let ring = Mutex::new(IntervalRing::with_chunk_len(CAPACITY as usize, 16));
        let push = |corr: u64| {
            ring.lock()
                .push(on_track(0, (corr % 2) as u32, corr, corr, corr + 1))
        };
        // Met twice: when the ring is full and evicting, and when the
        // reader holds its snapshot of that.
        let rendezvous = Barrier::new(2);
        let writing = AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                (0..CAPACITY + 100).for_each(push);
                rendezvous.wait();
                rendezvous.wait();
                for corr in CAPACITY + 100..11 * CAPACITY + 100 {
                    push(corr);
                    if corr % 7 == 0 {
                        // A late arrival, into a sealed chunk the
                        // snapshot shares while there still is one.
                        ring.lock().push(on_track(0, 0, corr, corr - 300, corr));
                    }
                }
                writing.store(false, Ordering::Release);
            });
            rendezvous.wait();
            let snapshot = ring.lock().snapshot();
            let read = || -> Vec<Interval> {
                let tracks = snapshot.tracks().iter();
                tracks.flat_map(|track| track.intervals()).collect()
            };
            let then = read();
            // Nothing between the two waits may panic: the writer would
            // wait for this thread forever.
            rendezvous.wait();
            assert_eq!(then.len(), CAPACITY as usize);
            while writing.load(Ordering::Acquire) {
                assert_eq!(read(), then, "a held snapshot moved under the writer");
            }
            assert_eq!(read(), then, "a held snapshot moved");
        });
        // The writer did evict everything the snapshot shares.
        let oldest_live = ring.lock().iter().map(|iv| iv.correlation).min();
        assert!(oldest_live > Some(CAPACITY + 100));
    }
}
