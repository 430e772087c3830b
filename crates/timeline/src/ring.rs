//! Bounded interval storage: per-shard ring buffers behind one
//! recording facade.
//!
//! The ingestion pipeline records an interval at the moment the
//! corresponding activity record is attributed inside its home shard —
//! already serialized per shard — so the timeline mirrors that layout:
//! one [`IntervalRing`] per shard, each behind its own mutex that is
//! only ever contended by that shard's applier and by snapshots. A full
//! ring evicts under its global capacity from whichever *track* holds
//! the largest retained share, so one hot stream degrades to a bounded
//! trailing window of itself without erasing a quiet stream's history
//! (the CCT keeps the lossless aggregate view either way).
//!
//! Each ring keeps one run per track in track order — activity records
//! arrive in completion order per stream, so [`IntervalRing::push`]
//! pays one compare against the newest entry for it. A run is a list of
//! **sealed chunks** — immutable, reference-counted slices of compact
//! [`Slot`]s — plus a small open tail. Nothing ever writes into a sealed
//! chunk: eviction advances an offset into the oldest one (and frees it
//! when the offset reaches its end), a late arrival replaces the one
//! chunk it lands in with a rewritten copy. That is what lets
//! [`TimelineSink::snapshot_with`] *share* the rings instead of copying
//! them: a snapshot clones the chunk handles, copies each open tail (at
//! most one chunk) and is a consistent view from then on, whatever the
//! ring does next. There is no second copy of the intervals for
//! `ProfilerStats::peak_bytes` to count, and the rings are locked for
//! microseconds per read, not for the length of a 9 MB copy.

use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

use parking_lot::Mutex;

use deepcontext_core::{Interval, IntervalKind, NodeId, Sym, TimeNs, TrackKey};

use crate::snapshot::{Run, TimelineSnapshot, Track};
use crate::TimelineConfig;

/// Slots per sealed chunk. Small enough that a read copies little (one
/// open tail per run) and a late arrival rewrites little, large enough
/// that the chunk header and its handle are noise beside the payload
/// (32 bytes per 10 KiB).
const CHUNK_LEN: usize = 256;

/// What an `Arc<[Slot]>` allocation carries in front of its payload:
/// the strong and the weak count.
const ARC_HEADER_BYTES: usize = 2 * size_of::<usize>();

/// The ring's record of one interval: an [`Interval`] without its track
/// key, which is the run's. 40 bytes against `Interval`'s 48.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    start: TimeNs,
    end: TimeNs,
    correlation: u64,
    name: Sym,
    context: Option<NodeId>,
    kind: IntervalKind,
}

impl Slot {
    pub(crate) fn of(interval: &Interval) -> Slot {
        Slot {
            start: interval.start,
            end: interval.end,
            correlation: interval.correlation,
            name: interval.name,
            context: interval.context,
            kind: interval.kind,
        }
    }

    /// The order of slots within a run (`snapshot::sort_key` of the
    /// interval it came from).
    pub(crate) fn key(&self) -> (TimeNs, TimeNs, u64) {
        (self.start, self.end, self.correlation)
    }

    /// The interval this slot records on `track`, its context looked up
    /// in `table` (no table: the context is kept as recorded; no entry:
    /// unresolved).
    pub(crate) fn expand(&self, track: TrackKey, table: Option<&[NodeId]>) -> Interval {
        Interval {
            track,
            start: self.start,
            end: self.end,
            kind: self.kind,
            name: self.name,
            correlation: self.correlation,
            context: match table {
                Some(table) => self
                    .context
                    .and_then(|node| table.get(node.index()).copied()),
                None => self.context,
            },
        }
    }
}

/// The live slots of a chunk list whose oldest chunk has lost its first
/// `front` slots to eviction.
pub(crate) fn live_slots<'a>(
    chunks: impl Iterator<Item = &'a Arc<[Slot]>>,
    front: usize,
) -> impl Iterator<Item = &'a Slot> {
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
/// The counters live here — plain integers updated under the ring's
/// lock, which the recording path already holds — instead of as shared
/// atomics: the tap sits inside inline attribution, and a per-interval
/// atomic RMW is measurable against the ~tens-of-nanoseconds budget the
/// recording overhead bar allows. Reads ([`TimelineSink::counters`])
/// sum over the rings on the cold stats path.
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
    sealed: VecDeque<Arc<[Slot]>>,
    /// Slots of `sealed[0]` already evicted.
    front: usize,
    /// The newest slots, at most a chunk of them.
    tail: Vec<Slot>,
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

    fn slots(&self) -> impl Iterator<Item = &Slot> {
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
    fn push(&mut self, slot: Slot, chunk_len: usize) {
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
    fn insert_sealed(&mut self, slot: Slot, chunk_len: usize) {
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
    fn run(&self, table: Option<Arc<[NodeId]>>) -> Option<Run> {
        if self.len == 0 {
            return None;
        }
        let mut chunks = Vec::with_capacity(self.sealed.len() + 1);
        chunks.extend(self.sealed.iter().cloned());
        if !self.tail.is_empty() {
            chunks.push(Arc::from(&self.tail[..]));
        }
        Some(Run {
            table,
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
            .map(|chunk| ARC_HEADER_BYTES + chunk.len() * size_of::<Slot>())
            .sum();
        chunks
            + self.sealed.capacity() * size_of::<Arc<[Slot]>>()
            + self.tail.capacity() * size_of::<Slot>()
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
        self.tracks[idx].push(Slot::of(&interval), self.chunk_len);
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

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes the ring owns: the track list at its capacity and, per
    /// track, every chunk allocation (payload and reference counts), the
    /// chunk list and the open tail at theirs. Chunks a snapshot still
    /// holds after the ring let go of them are the snapshot's.
    pub fn approx_bytes(&self) -> usize {
        self.tracks.capacity() * size_of::<TrackRing>()
            + self.tracks.iter().map(TrackRing::heap_bytes).sum::<usize>()
    }
}

/// Monotonic timeline-recording counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineCounters {
    /// Intervals recorded (including any later evicted by overflow).
    pub recorded: u64,
    /// Intervals evicted by ring overflow — the timeline analogue of the
    /// pipeline's dropped-event telemetry; surfaced through
    /// `ProfilerStats` and on every [`TimelineSnapshot`].
    pub dropped: u64,
}

/// The recording facade the ingestion pipeline writes into: one bounded
/// ring per ingestion shard; counters live inside the rings (see
/// [`IntervalRing`]) and are summed on read.
pub struct TimelineSink {
    rings: Vec<Mutex<IntervalRing>>,
    ring_capacity: usize,
}

impl TimelineSink {
    /// A sink with one ring (of `config.ring_capacity`) per shard.
    pub fn new(shards: usize, config: &TimelineConfig) -> Self {
        TimelineSink::with_chunk_len(shards, config.ring_capacity, CHUNK_LEN)
    }

    fn with_chunk_len(shards: usize, capacity: usize, chunk_len: usize) -> Self {
        let capacity = capacity.max(1);
        TimelineSink {
            rings: (0..shards.max(1))
                .map(|_| Mutex::new(IntervalRing::with_chunk_len(capacity, chunk_len)))
                .collect(),
            ring_capacity: capacity,
        }
    }

    /// Number of shard rings.
    pub fn shard_count(&self) -> usize {
        self.rings.len()
    }

    /// Per-ring interval capacity.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Records one interval into shard `idx`'s ring. Callers serialize
    /// per shard already (the pipeline records while holding the shard's
    /// lock), so this lock is effectively uncontended outside snapshots
    /// — and the ring's own counters make this one lock acquisition the
    /// tap's entire bookkeeping (no shared atomics).
    pub fn record(&self, idx: usize, interval: Interval) {
        self.rings[idx].lock().push(interval);
    }

    /// Current counters, summed over the rings.
    pub fn counters(&self) -> TimelineCounters {
        let mut counters = TimelineCounters::default();
        for ring in &self.rings {
            let ring = ring.lock();
            counters.recorded += ring.recorded();
            counters.dropped += ring.dropped();
        }
        counters
    }

    /// A view of the current ring contents as per-track sorted
    /// intervals. `tables[shard]` maps that shard's local context ids
    /// into the caller's master-tree id space (an id past its end is
    /// left unresolved; a shard past the end of `tables` keeps its
    /// contexts as recorded). Each track is the merge of its per-shard
    /// runs, equal keys in shard order —
    /// [`TimelineSnapshot::from_intervals`] over the same intervals
    /// builds the same snapshot by sorting.
    ///
    /// The snapshot shares the rings' sealed chunks and copies only the
    /// open tails, so the work here is per chunk, not per interval: all
    /// rings are locked while the handles are cloned, no other lock is
    /// taken under them, and what the rings do afterwards — pushes,
    /// evictions, late arrivals — never shows in the snapshot. Intervals
    /// are expanded, remapped and merged when a [`Track`] is iterated.
    pub fn snapshot_with(&self, tables: &[Arc<[NodeId]>]) -> TimelineSnapshot {
        let rings: Vec<_> = self.rings.iter().map(|ring| ring.lock()).collect();
        let mut counters = TimelineCounters::default();
        for ring in &rings {
            counters.recorded += ring.recorded();
            counters.dropped += ring.dropped();
        }
        let mut keys: Vec<TrackKey> = rings
            .iter()
            .flat_map(|ring| ring.tracks.iter())
            .filter(|track| track.len > 0)
            .map(|track| track.key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let tracks = keys
            .into_iter()
            .map(|key| {
                let runs = rings
                    .iter()
                    .enumerate()
                    .filter_map(|(shard, ring)| ring.track(key)?.run(tables.get(shard).cloned()))
                    .collect();
                Track::new(key, runs)
            })
            .collect();
        TimelineSnapshot::from_tracks(tracks, counters)
    }

    /// Approximate resident bytes of all rings.
    pub fn approx_bytes(&self) -> usize {
        self.rings
            .iter()
            .map(|r| size_of::<Mutex<IntervalRing>>() + r.lock().approx_bytes())
            .sum()
    }
}

impl std::fmt::Debug for TimelineSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimelineSink")
            .field("shards", &self.rings.len())
            .field("ring_capacity", &self.ring_capacity)
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallingContextTree, Frame, Interner};
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
    fn a_slot_is_at_most_40_bytes() {
        assert!(size_of::<Slot>() <= 40, "{} bytes", size_of::<Slot>());
        assert!(size_of::<Slot>() < size_of::<Interval>());
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
    fn sink_counters_partition_recorded_into_kept_plus_dropped() {
        let sink = TimelineSink::new(
            2,
            &TimelineConfig {
                enabled: true,
                ring_capacity: 3,
            },
        );
        for corr in 1..=5u64 {
            sink.record(0, interval(corr, corr, corr + 1));
        }
        sink.record(1, interval(99, 1, 2));
        let counters = sink.counters();
        assert_eq!(counters.recorded, 6);
        assert_eq!(counters.dropped, 2);
        let snap = sink.snapshot_with(&[]);
        assert_eq!(
            snap.interval_count() as u64 + counters.dropped,
            counters.recorded,
            "kept + dropped == recorded"
        );
        assert_eq!(snap.dropped(), counters.dropped);
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

    const SHARDS: usize = 2;

    /// One push — which ring, which stream, how far the stream's clock
    /// moves first (`None`: back to its start, a late arrival that lands
    /// in whatever the track holds there, sealed or open), then
    /// duration, correlation and context — after a snapshot or not.
    #[derive(Debug, Clone)]
    struct Step {
        snapshot_first: bool,
        shard: usize,
        stream: u32,
        advance: Option<u64>,
        duration: u64,
        correlation: u64,
        context: Option<usize>,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (
            0u32..6,
            0usize..SHARDS,
            0u32..3,
            // One in four jumps back.
            (0u64..4, 0u64..3).prop_map(|(late, step)| (late > 0).then_some(step)),
            0u64..3,
            0u64..2,
            prop_oneof![(0usize..3).prop_map(Some), Just(None)],
        )
            .prop_map(
                |(snapshot, shard, stream, advance, duration, correlation, context)| Step {
                    snapshot_first: snapshot == 0,
                    shard,
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
            // Shard 0 resolves every context (to another node), shard 1
            // is one entry short.
            let tables: Vec<Arc<[NodeId]>> = (0..SHARDS)
                .map(|shard| (0..=nodes.len() - shard).map(|n| nodes[(n + shard) % 3]).collect())
                .collect();
            let name = interner.intern("k");

            let sink = TimelineSink::with_chunk_len(SHARDS, capacity, chunk_len);
            let mut models: Vec<Model> = (0..SHARDS).map(|_| Model::new(capacity)).collect();
            // What a snapshot of the models would hold right now.
            let expected = |models: &[Model]| {
                let live = models.iter().zip(&tables).flat_map(|(model, table)| {
                    model.iter().map(move |iv| Interval {
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
            let mut clocks = [[10u64; 3]; SHARDS];
            for step in &steps {
                if step.snapshot_first {
                    held.push((sink.snapshot_with(&tables), expected(&models)));
                }
                let clock = &mut clocks[step.shard][step.stream as usize];
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
                sink.record(step.shard, interval);
                models[step.shard].push(interval);

                let ring = sink.rings[step.shard].lock();
                let model = &models[step.shard];
                prop_assert!(ring.iter().eq(model.iter()), "{:?} != {:?}", *ring, model.tracks);
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
                drop(ring);
                // Every snapshot taken so far still shows its own step.
                for (snapshot, then) in &held {
                    prop_assert_eq!(snapshot, then);
                }
            }
            prop_assert_eq!(&sink.snapshot_with(&tables), &expected(&models));
            for (snapshot, then) in &held {
                prop_assert_eq!(snapshot.stats(), then.stats());
            }
        }
    }

    #[test]
    fn a_held_snapshot_is_unchanged_by_ten_capacities_of_pushes() {
        const CAPACITY: u64 = 600;
        let sink = TimelineSink::with_chunk_len(1, CAPACITY as usize, 16);
        let push = |corr: u64| sink.record(0, on_track(0, (corr % 2) as u32, corr, corr, corr + 1));
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
                        sink.record(0, on_track(0, 0, corr, corr - 300, corr));
                    }
                }
                writing.store(false, Ordering::Release);
            });
            rendezvous.wait();
            let snapshot = sink.snapshot_with(&[]);
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
        let oldest_live = sink.rings[0].lock().iter().map(|iv| iv.correlation).min();
        assert!(oldest_live > Some(CAPACITY + 100));
    }
}
