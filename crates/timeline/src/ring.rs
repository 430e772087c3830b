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
//! pays one compare against the newest entry for it — which is what lets
//! [`TimelineSink::snapshot_with`] assemble a track by merging the at
//! most one run per shard into a vector sized for it, with no sort and
//! no second copy. The merge is stateless on purpose: a cached assembled
//! timeline would be a second copy of the rings that
//! `ProfilerStats::peak_bytes` has to count.

use std::collections::VecDeque;

use parking_lot::Mutex;

use deepcontext_core::{Interval, NodeId, TrackKey};

use crate::snapshot::{merge_runs, sort_key, TimelineSnapshot, Track};
use crate::TimelineConfig;

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
    /// Per-track buffers, sorted by [`TrackKey`]. Shards see a handful
    /// of tracks (device × stream), so a sorted vec beats a map.
    tracks: Vec<TrackRing>,
    /// Total live intervals across all tracks.
    len: usize,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

#[derive(Debug, Clone)]
struct TrackRing {
    key: TrackKey,
    buf: VecDeque<Interval>,
}

impl IntervalRing {
    /// An empty ring holding at most `capacity` intervals (clamped to at
    /// least one). Storage is allocated lazily as intervals arrive.
    pub fn new(capacity: usize) -> Self {
        IntervalRing {
            tracks: Vec::new(),
            len: 0,
            capacity: capacity.max(1),
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
                .max_by_key(|t| {
                    (
                        t.buf.len(),
                        t.key == interval.track,
                        std::cmp::Reverse(t.key),
                    )
                })
                .expect("capacity >= 1 and ring is full");
            victim.buf.pop_front();
            self.len -= 1;
            self.dropped += 1;
        }
        let idx = match self.tracks.binary_search_by_key(&interval.track, |t| t.key) {
            Ok(idx) => idx,
            Err(idx) => {
                self.tracks.insert(
                    idx,
                    TrackRing {
                        key: interval.track,
                        buf: VecDeque::new(),
                    },
                );
                idx
            }
        };
        // Keep the run in track order. In-order arrival — the only kind
        // a stream's completion-ordered records produce — is one compare
        // and an append; a late arrival goes after every entry it does
        // not precede, where the stable sort this replaces left it.
        let buf = &mut self.tracks[idx].buf;
        let key = sort_key(&interval);
        if buf.back().is_none_or(|newest| sort_key(newest) <= key) {
            buf.push_back(interval);
        } else {
            let at = buf.partition_point(|iv| sort_key(iv) <= key);
            buf.insert(at, interval);
        }
        self.len += 1;
    }

    /// Live intervals: tracks in `(device, stream)` order, each track in
    /// `(start, end, correlation)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.tracks.iter().flat_map(|t| t.buf.iter())
    }

    /// The live run of one track; `None` when it holds nothing (never
    /// seen, or evicted empty).
    fn run(&self, key: TrackKey) -> Option<&VecDeque<Interval>> {
        let idx = self.tracks.binary_search_by_key(&key, |t| t.key).ok()?;
        Some(&self.tracks[idx].buf).filter(|buf| !buf.is_empty())
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct tracks seen (including any evicted empty).
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Live intervals retained for one track.
    pub fn track_len(&self, key: TrackKey) -> usize {
        self.tracks
            .binary_search_by_key(&key, |t| t.key)
            .map(|idx| self.tracks[idx].buf.len())
            .unwrap_or(0)
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

    /// Approximate resident bytes (allocated storage, not capacity).
    pub fn approx_bytes(&self) -> usize {
        self.tracks
            .iter()
            .map(|t| {
                std::mem::size_of::<TrackRing>()
                    + t.buf.capacity() * std::mem::size_of::<Interval>()
            })
            .sum()
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
        let capacity = config.ring_capacity.max(1);
        TimelineSink {
            rings: (0..shards.max(1))
                .map(|_| Mutex::new(IntervalRing::new(capacity)))
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

    /// Assembles the current ring contents into per-track sorted
    /// intervals, remapping each interval's shard-local context id
    /// through `remap(shard, node)` into the caller's master-tree id
    /// space (return `None` to leave the context unresolved). Each track
    /// is the merge of its per-shard runs, equal keys in shard order —
    /// [`TimelineSnapshot::from_intervals`] over the same intervals
    /// builds the same snapshot by sorting. All rings are locked for the
    /// duration; no other lock is taken under them.
    ///
    /// Callers are responsible for quiescing ingestion first (the
    /// pipeline's snapshot paths run this behind their drain barriers),
    /// which is what makes asynchronous-mode timelines deterministic at
    /// every flush.
    pub fn snapshot_with(
        &self,
        mut remap: impl FnMut(usize, NodeId) -> Option<NodeId>,
    ) -> TimelineSnapshot {
        let rings: Vec<_> = self.rings.iter().map(|ring| ring.lock()).collect();
        let mut counters = TimelineCounters::default();
        for ring in &rings {
            counters.recorded += ring.recorded();
            counters.dropped += ring.dropped();
        }
        let mut keys: Vec<TrackKey> = rings
            .iter()
            .flat_map(|ring| ring.tracks.iter())
            .filter(|track| !track.buf.is_empty())
            .map(|track| track.key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let tracks = keys
            .into_iter()
            .map(|key| {
                let runs: Vec<(usize, &VecDeque<Interval>)> = rings
                    .iter()
                    .enumerate()
                    .filter_map(|(shard, ring)| Some((shard, ring.run(key)?)))
                    .collect();
                let mut intervals = Vec::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
                merge_runs(runs.iter().map(|(_, run)| run.iter()), |run, interval| {
                    let shard = runs[run].0;
                    intervals.push(Interval {
                        context: interval.context.and_then(|node| remap(shard, node)),
                        ..*interval
                    });
                });
                Track::new(key, intervals)
            })
            .collect();
        TimelineSnapshot::from_tracks(tracks, counters)
    }

    /// Approximate resident bytes of all rings.
    pub fn approx_bytes(&self) -> usize {
        self.rings
            .iter()
            .map(|r| std::mem::size_of::<Mutex<IntervalRing>>() + r.lock().approx_bytes())
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
    use deepcontext_core::{Interner, IntervalKind, TimeNs, TrackKey};
    use std::sync::{Arc, OnceLock};

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
        let snap = sink.snapshot_with(|_, node| Some(node));
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
}
