//! Assembled timelines and the analyses over them.
//!
//! A [`TimelineSnapshot`] is the read-side view of the recorded rings:
//! intervals grouped into per-`(device, stream)` [`Track`]s, each track
//! sorted by start time, with context ids remapped into the folded
//! master CCT. [`TimelineStats`] derives the latency metrics the
//! aggregate profile cannot express: per-device utilization over the
//! active span, the cross-stream overlap factor, and the idle gaps
//! between device work — each gap attributed to the CCT contexts of its
//! bounding launches, so an analyzer rule can point at the call path
//! that left the device idle.
//!
//! A snapshot is a view, not a copy: a track is one `Run` — handles to
//! its ring's own sealed chunks, a copy of the open tail and the table
//! its context ids map through ([`with_contexts`](TimelineSnapshot::with_contexts))
//! — and [`Track::intervals`]
//! expands and remaps it as it is iterated, so taking a snapshot costs
//! per chunk and sorts nothing. Every track lives in one ring, so
//! [`join`](TimelineSnapshot::join) puts the rings' snapshots together
//! by sorting their tracks, never their intervals. A stored timeline is
//! shared the same way: its tracks are already the slices a run is made
//! of, in order, and [`from_stored`](TimelineSnapshot::from_stored)
//! adopts each one as a one-chunk run by handle — per track, not per
//! interval. [`to_stored`](TimelineSnapshot::to_stored) is the one copy:
//! it expands each track once into a slice of master-tree contexts.
//! [`from_intervals`](TimelineSnapshot::from_intervals), for intervals in
//! no particular order, sorts them into that stored form: it is the
//! oracle the ring is tested against.
//! Statistics are computed on the first [`stats`](TimelineSnapshot::stats)
//! call — a live preview that only wants the tracks never pays the sweep.
//!
//! [`IntervalRing::snapshot`]: crate::IntervalRing::snapshot

use std::collections::BTreeMap;
use std::fmt;
use std::iter::Peekable;
use std::sync::{Arc, OnceLock};

use deepcontext_core::{
    CallingContextTree, Interval, NodeId, StoredTimeline, Sym, TimeNs, TrackKey, TrackSlot,
};

use crate::ring::{live_slots, TimelineCounters};

/// Every interval of `runs` in [`TrackSlot::key`] order; equal keys go
/// to the earlier run. Each run must itself be in that order, which
/// makes this the stable sort of the runs' concatenation without the
/// sort. The next interval is found by scanning the run heads: a device
/// has one run per stream, a handful — and a lone run, a device with
/// one stream, is passed through.
fn merge_runs<I>(runs: impl IntoIterator<Item = I>) -> impl Iterator<Item = Interval>
where
    I: Iterator<Item = Interval>,
{
    let mut runs: Vec<Peekable<I>> = runs.into_iter().map(Iterator::peekable).collect();
    std::iter::from_fn(move || {
        if let [only] = &mut runs[..] {
            return only.next();
        }
        let mut next = None;
        for (idx, run) in runs.iter_mut().enumerate() {
            if let Some(head) = run.peek() {
                let key = (head.start, head.end, head.correlation);
                if next.is_none_or(|(_, least)| key < least) {
                    next = Some((idx, key));
                }
            }
        }
        runs[next?.0].next()
    })
}

/// A track's intervals: its ring's sealed chunks by handle, the open
/// tail as one more chunk, and the table that takes the recorded
/// context ids to the master tree's.
#[derive(Clone)]
pub(crate) struct Run {
    /// `None`: the slots hold master ids already.
    pub(crate) table: Option<Arc<[NodeId]>>,
    pub(crate) chunks: Vec<Arc<[TrackSlot]>>,
    /// Slots of `chunks[0]` evicted before the snapshot was taken.
    pub(crate) front: usize,
}

impl Run {
    fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.len()).sum::<usize>() - self.front
    }

    fn intervals(&self, track: TrackKey) -> impl Iterator<Item = Interval> + '_ {
        live_slots(self.chunks.iter(), self.front)
            .map(move |slot| slot.expand(track, self.table.as_deref()))
    }
}

/// One `(device, stream)` swim-lane: its intervals sorted by
/// `(start, end, correlation)`.
#[derive(Clone)]
pub struct Track {
    key: TrackKey,
    /// Not empty, in [`TrackSlot::key`] order.
    run: Run,
    len: usize,
}

impl Track {
    pub(crate) fn new(key: TrackKey, run: Run) -> Self {
        let track = Track {
            key,
            len: run.len(),
            run,
        };
        debug_assert!(track
            .intervals()
            .is_sorted_by_key(|iv| (iv.start, iv.end, iv.correlation)));
        track
    }

    /// The `(device, stream)` placement.
    pub fn key(&self) -> TrackKey {
        self.key
    }

    /// Intervals, start-sorted, each slot expanded to an [`Interval`] on
    /// this track with its context remapped as the iterator advances.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        self.run.intervals(self.key)
    }

    /// Number of intervals on the track.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the track holds nothing (a snapshot keeps no such track).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Two tracks are equal when they hold the same intervals in the same
/// order; how those are cut into chunks does not enter into it.
impl PartialEq for Track {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.len == other.len && self.intervals().eq(other.intervals())
    }
}

impl fmt::Debug for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Track")
            .field("key", &self.key)
            .field("intervals", &self.intervals().collect::<Vec<_>>())
            .finish()
    }
}

/// An assembled timeline: every track recorded, plus the recording
/// counters at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    tracks: Vec<Track>,
    counters: TimelineCounters,
    /// Computed by the first [`stats`](Self::stats) call and kept:
    /// snapshots are immutable, so both latency rules and the reports
    /// share one sweep, and readers that only want the tracks (a live
    /// preview, the Chrome export) pay for none.
    stats: OnceLock<TimelineStats>,
    /// The captured symbol table ([`Interner::snapshot`] of the interner
    /// the intervals were recorded through): interval names are interned
    /// [`Sym`] handles, and a snapshot with its names attached resolves
    /// them standalone — exporters index this table instead of holding
    /// the live interner. Empty when the producer attached none (names
    /// then resolve through the CCT's interner, or render as `sym#N`).
    ///
    /// [`Interner::snapshot`]: deepcontext_core::Interner::snapshot
    names: Vec<Arc<str>>,
    /// The run's wall-clock window `[start, end)`, when the producer
    /// attached one. Without it, idle analysis sees only
    /// `[first_start, last_end)` — device idle before the first launch
    /// and after the last completion is invisible. With it, those edges
    /// become measurable gaps.
    window: Option<(TimeNs, TimeNs)>,
}

/// Two snapshots are equal when they hold the same timeline; whether
/// either has computed its statistics yet does not enter into it.
impl PartialEq for TimelineSnapshot {
    fn eq(&self, other: &Self) -> bool {
        (&self.tracks, self.counters, &self.names, self.window)
            == (&other.tracks, other.counters, &other.names, other.window)
    }
}

impl TimelineSnapshot {
    /// A snapshot of `tracks` in `(device, stream)` order, none empty.
    pub(crate) fn from_tracks(tracks: Vec<Track>, counters: TimelineCounters) -> Self {
        debug_assert!(tracks.is_sorted_by_key(Track::key));
        TimelineSnapshot {
            tracks,
            counters,
            ..TimelineSnapshot::default()
        }
    }

    /// One snapshot of several rings' ([`IntervalRing::snapshot`]): their
    /// tracks in `(device, stream)` order and their counters summed. The
    /// parts' names and windows are not kept; attach them to the result.
    ///
    /// # Panics
    ///
    /// If two parts hold the same track: a track lives in one ring.
    ///
    /// [`IntervalRing::snapshot`]: crate::IntervalRing::snapshot
    pub fn join(parts: impl IntoIterator<Item = TimelineSnapshot>) -> Self {
        let mut tracks = Vec::new();
        let mut counters = TimelineCounters::default();
        for part in parts {
            tracks.extend(part.tracks);
            counters.recorded += part.counters.recorded;
            counters.dropped += part.counters.dropped;
        }
        tracks.sort_unstable_by_key(Track::key);
        if let Some(pair) = tracks.windows(2).find(|pair| pair[0].key == pair[1].key) {
            panic!("track {:?} is held by two rings", pair[0].key);
        }
        TimelineSnapshot::from_tracks(tracks, counters)
    }

    /// Groups `intervals`, in any order, into start-sorted tracks:
    /// tracks sort by `(start, end, correlation)`, intervals equal under
    /// that key keep their input order: the stored form, sorted and then
    /// shared. The oracle the ring's merge is tested against.
    pub fn from_intervals(intervals: Vec<Interval>, counters: TimelineCounters) -> Self {
        let mut by_track: BTreeMap<TrackKey, Vec<TrackSlot>> = BTreeMap::new();
        for interval in &intervals {
            by_track
                .entry(interval.track)
                .or_default()
                .push(TrackSlot::of(interval));
        }
        let tracks = by_track.into_iter().map(|(key, mut slots)| {
            slots.sort_by_key(TrackSlot::key);
            (key, slots.into())
        });
        TimelineSnapshot::from_stored(&StoredTimeline {
            tracks: tracks.collect(),
            recorded: counters.recorded,
            dropped: counters.dropped,
            ..StoredTimeline::default()
        })
    }

    /// Attaches the run's wall-clock window `[start, end)`, under which
    /// statistics are computed: leading device idle
    /// (`[start, first launch)`) and trailing idle
    /// (`[last completion, end)`) become explicit [`Gap`]s, and
    /// [`DeviceStats::span`] extends to cover the window.
    pub fn with_window(mut self, start: TimeNs, end: TimeNs) -> Self {
        self.window = Some((start, end));
        self.stats = OnceLock::new();
        self
    }

    /// The attached wall-clock window, if any.
    pub fn window(&self) -> Option<(TimeNs, TimeNs)> {
        self.window
    }

    /// The snapshot in its persistent form: each track expanded once into
    /// one slice, contexts as master ids, plus the captured symbol
    /// table, the counters and the window — the shape `ProfileDb`
    /// stores on disk.
    pub fn to_stored(&self) -> StoredTimeline {
        let tracks = self.tracks.iter().map(|track| {
            // Counted, so the slice is allocated once at its length.
            let mut intervals = track.intervals();
            let slots = (0..track.len())
                .map(|_| TrackSlot::of(&intervals.next().expect("a track yields its length")));
            (track.key, slots.collect())
        });
        StoredTimeline {
            tracks: tracks.collect(),
            names: self.names.clone(),
            recorded: self.counters.recorded,
            dropped: self.counters.dropped,
            window: self.window,
        }
    }

    /// Reassembles a snapshot from its persistent form, sharing it: each
    /// stored track becomes a one-chunk run by handle (it is in order
    /// already — `ProfileDb::load` refuses one that is not), with the
    /// symbol table and the window.
    pub fn from_stored(stored: &StoredTimeline) -> Self {
        let tracks = stored.tracks.iter().map(|(key, slots)| {
            let run = Run {
                table: None,
                chunks: vec![Arc::clone(slots)],
                front: 0,
            };
            Track::new(*key, run)
        });
        let counters = TimelineCounters {
            recorded: stored.recorded,
            dropped: stored.dropped,
        };
        let mut snapshot = TimelineSnapshot::from_tracks(tracks.collect(), counters);
        snapshot.names = stored.names.clone();
        snapshot.window = stored.window;
        snapshot
    }

    /// Maps every track's recorded context ids through `table`: one table
    /// for rings whose ids share one space, as the pipeline's path ids do.
    pub fn with_contexts(mut self, table: Arc<[NodeId]>) -> Self {
        for track in &mut self.tracks {
            track.run.table = Some(Arc::clone(&table));
        }
        self.stats = OnceLock::new();
        self
    }

    /// Attaches the symbol table interval names resolve against —
    /// [`Interner::snapshot`] of the recording session's interner, taken
    /// once per timeline snapshot (not per interval).
    ///
    /// [`Interner::snapshot`]: deepcontext_core::Interner::snapshot
    pub fn with_names(mut self, names: Vec<Arc<str>>) -> Self {
        self.names = names;
        self
    }

    /// The captured symbol table, in [`Sym`] index order (empty when none
    /// was attached).
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Resolves an interval name against the captured symbol table.
    /// `None` when no table was attached or the symbol is out of range
    /// (a foreign interner's handle).
    pub fn name_of(&self, sym: Sym) -> Option<&str> {
        self.names.get(sym.index() as usize).map(|s| s.as_ref())
    }

    /// All tracks, ordered by `(device, stream)`.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// The track for one placement, if anything ran there.
    pub fn track(&self, device: u32, stream: u32) -> Option<&Track> {
        self.tracks
            .iter()
            .find(|t| t.key.device == device && t.key.stream == stream)
    }

    /// Devices with at least one recorded interval, ascending.
    pub fn devices(&self) -> Vec<u32> {
        let mut devices: Vec<u32> = self.tracks.iter().map(|t| t.key.device).collect();
        devices.dedup();
        devices
    }

    /// Total live intervals across all tracks.
    pub fn interval_count(&self) -> usize {
        self.tracks.iter().map(Track::len).sum()
    }

    /// Intervals recorded over the sink's lifetime (kept + evicted).
    pub fn recorded(&self) -> u64 {
        self.counters.recorded
    }

    /// Intervals evicted by ring overflow — when non-zero, the timeline
    /// is a trailing window of the run, not the whole run.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Per-device utilization / overlap / idle-gap statistics (computed
    /// by the first call; repeated calls are free).
    pub fn stats(&self) -> &TimelineStats {
        self.stats.get_or_init(|| TimelineStats::compute(self))
    }

    /// Renders the snapshot as Chrome Trace Format JSON (see
    /// [`chrome`](crate::chrome)). Pass the CCT the snapshot's context
    /// ids were resolved against to label every slice with its full call
    /// path; `None` still emits valid, loadable JSON without the paths.
    pub fn to_chrome_trace(&self, cct: Option<&CallingContextTree>) -> String {
        crate::chrome::to_chrome_trace(self, cct)
    }
}

/// One idle gap on a device: no stream of the device was executing in
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gap {
    /// Gap start (the last prior interval's end).
    pub start: TimeNs,
    /// Gap end (the next interval's start).
    pub end: TimeNs,
    /// Context of the interval that finished last before the gap.
    pub before: Option<NodeId>,
    /// Context of the interval whose start closed the gap — the launch
    /// that arrived late, which is where idle-gap analysis points.
    pub after: Option<NodeId>,
}

impl Gap {
    /// Gap length.
    pub fn duration(&self) -> TimeNs {
        self.end.saturating_sub(self.start)
    }
}

/// Per-device timeline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Device index.
    pub device: u32,
    /// Tracks (streams) with at least one interval.
    pub streams: usize,
    /// Earliest interval start on the device.
    pub first_start: TimeNs,
    /// Latest interval end on the device.
    pub last_end: TimeNs,
    /// Busy time: the union of all intervals across the device's
    /// streams (overlapping work counts once).
    pub busy: TimeNs,
    /// Summed time: interval durations added up (overlapping work counts
    /// per stream).
    pub summed: TimeNs,
    /// Idle gaps inside the active span, in time order. When a run
    /// window is attached, leading idle (`before: None`) and trailing
    /// idle (`after: None`) inside the window are included.
    pub gaps: Vec<Gap>,
    /// The run's wall-clock window, when the snapshot carried one.
    pub window: Option<(TimeNs, TimeNs)>,
}

impl DeviceStats {
    /// The active span: `[first_start, last_end)` without a window, the
    /// union of that and the run window with one — so utilization
    /// accounts for device idle at the run's edges.
    pub fn span(&self) -> TimeNs {
        match self.window {
            Some((ws, we)) => we
                .max(self.last_end)
                .saturating_sub(ws.min(self.first_start)),
            None => self.last_end.saturating_sub(self.first_start),
        }
    }

    /// Fraction of the active span the device was executing (0..=1).
    pub fn utilization(&self) -> f64 {
        let span = self.span().as_nanos();
        if span == 0 {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / span as f64
    }

    /// Cross-stream overlap factor: `summed / busy`. Exactly 1.0 when
    /// the device's streams never execute concurrently (serialized);
    /// approaches the stream count under perfect overlap.
    pub fn overlap_factor(&self) -> f64 {
        let busy = self.busy.as_nanos();
        if busy == 0 {
            return 0.0;
        }
        self.summed.as_nanos() as f64 / busy as f64
    }

    /// Total idle time inside the active span (the sum of all gaps).
    pub fn idle(&self) -> TimeNs {
        TimeNs(self.gaps.iter().map(|g| g.duration().0).sum())
    }
}

/// Per-device statistics over one snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineStats {
    /// One entry per device with recorded work, ascending device order.
    pub devices: Vec<DeviceStats>,
}

impl TimelineStats {
    /// Computes statistics with a line sweep per device over the
    /// `merge_runs` of its streams' tracks: maximal covered segments
    /// accumulate `busy`, and the spaces between them become [`Gap`]s
    /// bounded by the interval that finished last and the one that
    /// started next.
    pub fn compute(snapshot: &TimelineSnapshot) -> TimelineStats {
        let mut devices = Vec::new();
        for tracks in snapshot
            .tracks()
            .chunk_by(|a, b| a.key.device == b.key.device)
        {
            let device = tracks[0].key.device;
            let mut first_start = None;
            let mut summed = 0u64;
            let mut busy = 0u64;
            let mut gaps = Vec::new();
            // The running covered segment and the context of the interval
            // whose end currently bounds it (the "last to finish" before
            // any gap).
            let mut cover_end = TimeNs::default();
            let mut closer: Option<NodeId> = None;
            for iv in merge_runs(tracks.iter().map(Track::intervals)) {
                if first_start.is_none() {
                    first_start = Some(iv.start);
                    cover_end = iv.start;
                    // Leading idle: the device sat unused from the run's
                    // start until its first launch. `before: None` marks
                    // the run edge.
                    if let Some((ws, _)) = snapshot.window.filter(|(ws, _)| iv.start > *ws) {
                        gaps.push(Gap {
                            start: ws,
                            end: iv.start,
                            before: None,
                            after: iv.context,
                        });
                    }
                }
                summed += iv.duration().0;
                if iv.start > cover_end {
                    gaps.push(Gap {
                        start: cover_end,
                        end: iv.start,
                        before: closer,
                        after: iv.context,
                    });
                    busy += iv.duration().0;
                    cover_end = iv.end.max(cover_end);
                    closer = iv.context;
                } else if iv.end > cover_end {
                    busy += (iv.end - cover_end).0;
                    cover_end = iv.end;
                    closer = iv.context;
                }
            }
            // Trailing idle: from the device's last completion to the
            // run's end. `after: None` marks the run edge.
            if let Some((_, we)) = snapshot.window {
                if we > cover_end && first_start.is_some() {
                    gaps.push(Gap {
                        start: cover_end,
                        end: we,
                        before: closer,
                        after: None,
                    });
                }
            }
            devices.push(DeviceStats {
                device,
                streams: tracks.iter().filter(|t| !t.is_empty()).count(),
                first_start: first_start.unwrap_or_default(),
                last_end: cover_end,
                busy: TimeNs(busy),
                summed: TimeNs(summed),
                gaps,
                window: snapshot.window,
            });
        }
        TimelineStats { devices }
    }

    /// The statistics for one device, if it recorded anything.
    pub fn device(&self, device: u32) -> Option<&DeviceStats> {
        self.devices.iter().find(|d| d.device == device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{Interner, IntervalKind};
    use std::sync::OnceLock;

    fn iv(device: u32, stream: u32, start: u64, end: u64, corr: u64) -> Interval {
        static INTERNER: OnceLock<Arc<Interner>> = OnceLock::new();
        let interner = INTERNER.get_or_init(Interner::new);
        Interval {
            track: TrackKey { device, stream },
            start: TimeNs(start),
            end: TimeNs(end),
            kind: IntervalKind::Kernel,
            name: interner.intern(&format!("k{corr}")),
            correlation: corr,
            context: Some(NodeId::ROOT),
        }
    }

    fn snapshot(intervals: Vec<Interval>) -> TimelineSnapshot {
        let counters = TimelineCounters {
            recorded: intervals.len() as u64,
            dropped: 0,
        };
        TimelineSnapshot::from_intervals(intervals, counters)
    }

    #[test]
    fn tracks_are_grouped_and_start_sorted() {
        let snap = snapshot(vec![
            iv(0, 1, 50, 60, 3),
            iv(0, 0, 0, 10, 1),
            iv(0, 1, 5, 15, 2),
            iv(1, 0, 0, 5, 4),
        ]);
        assert_eq!(snap.tracks().len(), 3);
        assert_eq!(snap.devices(), vec![0, 1]);
        let t01 = snap.track(0, 1).expect("track (0,1)");
        let starts: Vec<u64> = t01.intervals().map(|i| i.start.0).collect();
        assert_eq!(starts, vec![5, 50]);
        let busy: u64 = t01.intervals().map(|iv| iv.duration().0).sum();
        assert_eq!(busy, 20);
        assert_eq!(snap.interval_count(), 4);
    }

    #[test]
    fn join_sorts_disjoint_tracks_and_sums_counters() {
        let parts = [
            snapshot(vec![iv(1, 0, 0, 5, 3), iv(0, 1, 5, 15, 2)]),
            snapshot(vec![iv(0, 0, 0, 10, 1)]),
        ];
        let joined = TimelineSnapshot::join(parts);
        let all = vec![iv(0, 0, 0, 10, 1), iv(0, 1, 5, 15, 2), iv(1, 0, 0, 5, 3)];
        assert_eq!(joined, snapshot(all));
    }

    #[test]
    #[should_panic(expected = "is held by two rings")]
    fn join_refuses_a_track_held_by_two_parts() {
        TimelineSnapshot::join([
            snapshot(vec![iv(0, 0, 0, 10, 1), iv(0, 1, 5, 15, 2)]),
            snapshot(vec![iv(0, 1, 20, 30, 3)]),
        ]);
    }

    #[test]
    fn stats_union_overlap_and_gaps() {
        // Device 0: stream 0 runs [0,10), stream 1 runs [5,15) — overlap
        // [5,10) — then a gap [15,20) before stream 0 runs [20,30).
        let snap = snapshot(vec![
            iv(0, 0, 0, 10, 1),
            iv(0, 1, 5, 15, 2),
            iv(0, 0, 20, 30, 3),
        ]);
        let stats = snap.stats();
        let d = stats.device(0).expect("device 0");
        assert_eq!(d.streams, 2);
        assert_eq!(d.span(), TimeNs(30));
        assert_eq!(d.busy, TimeNs(25));
        assert_eq!(d.summed, TimeNs(30));
        assert!((d.utilization() - 25.0 / 30.0).abs() < 1e-12);
        assert!((d.overlap_factor() - 30.0 / 25.0).abs() < 1e-12);
        assert_eq!(d.gaps.len(), 1);
        let gap = d.gaps[0];
        assert_eq!((gap.start, gap.end), (TimeNs(15), TimeNs(20)));
        assert_eq!(d.idle(), TimeNs(5));
        // The gap is bounded by interval 2 (last to finish) and 3 (next
        // to start).
        assert_eq!(gap.before, Some(NodeId::ROOT));
        assert_eq!(gap.after, Some(NodeId::ROOT));
    }

    #[test]
    fn serialized_streams_have_overlap_factor_one() {
        let snap = snapshot(vec![
            iv(0, 0, 0, 10, 1),
            iv(0, 1, 10, 20, 2),
            iv(0, 0, 20, 30, 3),
        ]);
        let stats = snap.stats();
        let d = stats.device(0).expect("device 0");
        assert_eq!(d.overlap_factor(), 1.0);
        assert_eq!(d.utilization(), 1.0);
        assert!(d.gaps.is_empty());
    }

    #[test]
    fn nested_interval_does_not_double_count_busy() {
        // [0,100) fully contains [10,20): busy is 100, summed 110.
        let snap = snapshot(vec![iv(0, 0, 0, 100, 1), iv(0, 1, 10, 20, 2)]);
        let d = snap.stats().device(0).cloned().expect("device 0");
        assert_eq!(d.busy, TimeNs(100));
        assert_eq!(d.summed, TimeNs(110));
        assert!(d.gaps.is_empty());
    }

    #[test]
    fn empty_snapshot_has_no_stats() {
        let snap = snapshot(Vec::new());
        assert!(snap.is_empty());
        assert!(snap.stats().devices.is_empty());
    }

    #[test]
    fn window_exposes_leading_and_trailing_idle() {
        // Without a window only the interior gap [15,20) is visible.
        let intervals = vec![iv(0, 0, 10, 15, 1), iv(0, 0, 20, 30, 2)];
        let bare = snapshot(intervals.clone());
        assert_eq!(bare.stats().device(0).unwrap().gaps.len(), 1);
        assert_eq!(bare.stats().device(0).unwrap().span(), TimeNs(20));

        let snap = snapshot(intervals).with_window(TimeNs(0), TimeNs(50));
        assert_eq!(snap.window(), Some((TimeNs(0), TimeNs(50))));
        let d = snap.stats().device(0).unwrap();
        assert_eq!(d.gaps.len(), 3);
        let (lead, tail) = (d.gaps[0], d.gaps[2]);
        assert_eq!((lead.start, lead.end), (TimeNs(0), TimeNs(10)));
        assert_eq!(lead.before, None);
        assert_eq!(lead.after, Some(NodeId::ROOT));
        assert_eq!((tail.start, tail.end), (TimeNs(30), TimeNs(50)));
        assert_eq!(tail.before, Some(NodeId::ROOT));
        assert_eq!(tail.after, None);
        // Span and utilization stretch over the run window.
        assert_eq!(d.span(), TimeNs(50));
        assert_eq!(d.idle(), TimeNs(35));
        assert!((d.utilization() - 15.0 / 50.0).abs() < 1e-12);
        // first_start/last_end still report the interval extremes.
        assert_eq!((d.first_start, d.last_end), (TimeNs(10), TimeNs(30)));
    }

    #[test]
    fn window_flush_with_run_edges_adds_no_gaps() {
        let snap = snapshot(vec![iv(0, 0, 0, 10, 1)]).with_window(TimeNs(0), TimeNs(10));
        let d = snap.stats().device(0).unwrap();
        assert!(d.gaps.is_empty());
        assert_eq!(d.utilization(), 1.0);
    }

    #[test]
    fn stored_round_trip_preserves_tracks_names_and_window() {
        let names: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        let snap = TimelineSnapshot::from_intervals(
            vec![iv(0, 0, 0, 10, 1), iv(1, 2, 5, 25, 2), iv(0, 1, 3, 7, 3)],
            TimelineCounters {
                recorded: 9,
                dropped: 6,
            },
        )
        .with_names(names)
        .with_window(TimeNs(0), TimeNs(40));
        let stored = snap.to_stored();
        assert_eq!(stored.interval_count(), 3);
        assert_eq!((stored.recorded, stored.dropped), (9, 6));
        let back = TimelineSnapshot::from_stored(&stored);
        assert_eq!(back, snap);
    }
}
