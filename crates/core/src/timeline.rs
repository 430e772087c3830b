//! Timeline interval primitives.
//!
//! The calling context tree aggregates *how much* time each context
//! consumed; a timeline records *when* — the `[start, end)` device
//! intervals that aggregation would otherwise discard. [`Interval`] is
//! the unit of that record: one kernel or memcpy execution on one
//! `(device, stream)` placement, tagged with the CCT context it was
//! attributed to (a track keeps it as a [`TrackSlot`], which drops the
//! placement), so latency analyses (utilization, cross-stream
//! overlap, idle-gap attribution) can point back into the same tree the
//! aggregate analyses run over. The bounded ring buffers, track
//! assembly and analysis live in the `deepcontext-timeline` crate; the
//! plain data types live here so every layer (ingestion pipeline,
//! analyzer, exporters) shares one vocabulary without depending on the
//! timeline machinery.

use std::fmt;
use std::sync::Arc;

use crate::cct::NodeId;
use crate::clock::TimeNs;
use crate::interner::Sym;

/// What kind of device work an [`Interval`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntervalKind {
    /// A kernel execution.
    Kernel,
    /// An asynchronous memcpy.
    Memcpy,
}

impl IntervalKind {
    /// Stable short name (Chrome-trace category, report keys).
    pub fn name(self) -> &'static str {
        match self {
            IntervalKind::Kernel => "kernel",
            IntervalKind::Memcpy => "memcpy",
        }
    }
}

/// The `(device, stream)` placement an interval executed on — one track
/// of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackKey {
    /// Device index.
    pub device: u32,
    /// Stream index on that device.
    pub stream: u32,
}

/// One recorded device interval: a kernel or memcpy execution with its
/// placement, its `[start, end)` device-time window, and the CCT context
/// it was attributed to.
///
/// `Interval` is plain `Copy` data: the display name is an interned
/// [`Sym`], not a string — the ingestion tap records the handle and only
/// export/analysis time resolves it (through the session interner or a
/// snapshot's captured symbol table), so recording an interval performs
/// zero heap allocation and zero refcount traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Where it ran.
    pub track: TrackKey,
    /// Device-side start time.
    pub start: TimeNs,
    /// Device-side end time.
    pub end: TimeNs,
    /// Kernel or memcpy.
    pub kind: IntervalKind,
    /// Interned display name (kernel name; `"memcpy"` for copies).
    /// Resolve through the interner that ingested the interval.
    pub name: Sym,
    /// Correlation id linking back to the launching API call.
    pub correlation: u64,
    /// The CCT context the interval's metrics were attributed to.
    ///
    /// While buffered inside the ingestion pipeline this is the context's
    /// [`PathId`](crate::PathId) index, the same in every shard;
    /// snapshots map it into the folded master tree (`None` when the
    /// context cannot be resolved).
    pub context: Option<NodeId>,
}

impl Interval {
    /// Interval duration (zero-width intervals are allowed but carry no
    /// busy time).
    pub fn duration(&self) -> TimeNs {
        self.end.saturating_sub(self.start)
    }
}

/// An [`Interval`] without its track key, which is the track's: 32 bytes
/// against 48. It is an interval's one record from the ring it is
/// recorded into to the [`StoredTimeline`] a profile saves and loads; a
/// track's `Arc<[TrackSlot]>` slices are shared, not copied, on the way.
///
/// The context and the kind share one word, `(context + 1) << 1 | kind`
/// (no context is 0, a memcpy sets the low bit) — the word the profile
/// database stores. So a slot holds a context id up to
/// [`TrackSlot::MAX_CONTEXT`], 2³¹ − 2: [`TrackSlot::new`] asserts it,
/// and `ProfileDb::load` refuses a stored id above it.
#[derive(Clone, Copy, PartialEq)]
pub struct TrackSlot {
    /// Device-side start time.
    pub start: TimeNs,
    /// Device-side end time.
    pub end: TimeNs,
    /// Correlation id linking back to the launching API call.
    pub correlation: u64,
    /// Interned display name.
    pub name: Sym,
    /// The CCT context and the kind, `(context + 1) << 1 | kind`; the
    /// container stores it as it is.
    pub(crate) word: u32,
}

impl TrackSlot {
    /// The largest context id a slot holds: its word must fit in 32 bits.
    pub const MAX_CONTEXT: u32 = (1 << 31) - 2;

    /// A slot of `[start, end)` recorded for `context`.
    ///
    /// # Panics
    /// If `context` is above [`TrackSlot::MAX_CONTEXT`].
    pub fn new(
        start: TimeNs,
        end: TimeNs,
        correlation: u64,
        name: Sym,
        context: Option<NodeId>,
        kind: IntervalKind,
    ) -> TrackSlot {
        let context = context.map_or(0, |node| {
            assert!(
                node.0 <= Self::MAX_CONTEXT,
                "context {} above a slot's limit {}",
                node.0,
                Self::MAX_CONTEXT
            );
            node.0 + 1
        });
        let kind = match kind {
            IntervalKind::Kernel => 0,
            IntervalKind::Memcpy => 1,
        };
        TrackSlot {
            start,
            end,
            correlation,
            name,
            word: context << 1 | kind,
        }
    }

    /// `interval` without its track key.
    pub fn of(interval: &Interval) -> TrackSlot {
        TrackSlot::new(
            interval.start,
            interval.end,
            interval.correlation,
            interval.name,
            interval.context,
            interval.kind,
        )
    }

    /// The CCT context the interval was attributed to.
    pub fn context(&self) -> Option<NodeId> {
        match self.word >> 1 {
            0 => None,
            context => Some(NodeId(context - 1)),
        }
    }

    /// Kernel or memcpy.
    pub fn kind(&self) -> IntervalKind {
        match self.word & 1 {
            0 => IntervalKind::Kernel,
            _ => IntervalKind::Memcpy,
        }
    }

    /// The order of slots within a track: `(start, end, correlation)`.
    pub fn key(&self) -> (TimeNs, TimeNs, u64) {
        (self.start, self.end, self.correlation)
    }

    /// The interval this slot records on `track`, its context looked up
    /// in `table` (no table: the context is kept as recorded; no entry:
    /// unresolved).
    pub fn expand(&self, track: TrackKey, table: Option<&[NodeId]>) -> Interval {
        Interval {
            track,
            start: self.start,
            end: self.end,
            kind: self.kind(),
            name: self.name,
            correlation: self.correlation,
            context: match table {
                Some(table) => self
                    .context()
                    .and_then(|node| table.get(node.index()).copied()),
                None => self.context(),
            },
        }
    }
}

/// The fields, the context and the kind among them, not the word.
impl fmt::Debug for TrackSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackSlot")
            .field("start", &self.start)
            .field("end", &self.end)
            .field("correlation", &self.correlation)
            .field("name", &self.name)
            .field("context", &self.context())
            .field("kind", &self.kind())
            .finish()
    }
}

/// A timeline in its persistent form: each track's slots, the captured
/// symbol table their names resolve against, the recording counters,
/// and the run's wall-clock window.
///
/// This is the shape `ProfileDb` stores on disk so a run's timeline
/// survives the profiler. It lives in core (next to [`Interval`]) rather
/// than in the timeline crate so the database can hold one without a
/// dependency cycle; `TimelineSnapshot::to_stored` writes each track
/// once, and `TimelineSnapshot::from_stored` shares the slices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoredTimeline {
    /// Every live interval at snapshot time: tracks in [`TrackKey`]
    /// order, none empty, each in [`TrackSlot::key`] order (which
    /// `ProfileDb::load` enforces and `ProfileDb::save` checks before
    /// writing); contexts are master-tree ids.
    pub tracks: Vec<(TrackKey, Arc<[TrackSlot]>)>,
    /// The captured symbol table: `TrackSlot::name` handles index into
    /// this vector. An out-of-range handle fails to resolve here, and
    /// `ProfileDb::save` refuses to store it.
    pub names: Vec<Arc<str>>,
    /// Intervals recorded over the run (kept + evicted).
    pub recorded: u64,
    /// Intervals evicted by ring overflow — when non-zero the stored
    /// timeline is a trailing window of the run, not the whole run.
    pub dropped: u64,
    /// The run's wall-clock window `[start, end)`, when known. Bounds
    /// idle-gap analysis at the run's edges: device idle before the
    /// first launch and after the last completion is measurable instead
    /// of invisible.
    pub window: Option<(TimeNs, TimeNs)>,
}

impl StoredTimeline {
    /// Total live intervals.
    pub fn interval_count(&self) -> usize {
        self.tracks.iter().map(|(_, slots)| slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    #[test]
    fn duration_saturates_and_names_are_stable() {
        let interner = Interner::new();
        let iv = Interval {
            track: TrackKey {
                device: 0,
                stream: 2,
            },
            start: TimeNs(100),
            end: TimeNs(250),
            kind: IntervalKind::Kernel,
            name: interner.intern("sgemm"),
            correlation: 7,
            context: None,
        };
        assert_eq!(interner.resolve(iv.name).as_ref(), "sgemm");
        assert_eq!(iv.duration(), TimeNs(150));
        assert_eq!(IntervalKind::Kernel.name(), "kernel");
        assert_eq!(IntervalKind::Memcpy.name(), "memcpy");
        let backwards = Interval {
            start: TimeNs(10),
            end: TimeNs(5),
            ..iv
        };
        assert_eq!(backwards.duration(), TimeNs::ZERO);
    }

    #[test]
    fn a_slot_is_32_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<TrackSlot>(), 32);
        assert_eq!(size_of::<Interval>(), 48);
    }

    #[test]
    fn a_slot_round_trips_its_context_and_kind() {
        let largest = NodeId(TrackSlot::MAX_CONTEXT);
        for context in [None, Some(NodeId::ROOT), Some(largest)] {
            for kind in [IntervalKind::Kernel, IntervalKind::Memcpy] {
                let slot = TrackSlot::new(TimeNs(3), TimeNs(5), 9, Sym(2), context, kind);
                assert_eq!((slot.context(), slot.kind()), (context, kind));
                assert_eq!(slot.key(), (TimeNs(3), TimeNs(5), 9));
                assert_eq!(slot.name, Sym(2));
            }
        }
        assert_eq!(TrackSlot::MAX_CONTEXT, (1 << 31) - 2);
        let word = TrackSlot::new(
            TimeNs(0),
            TimeNs(0),
            0,
            Sym(0),
            Some(largest),
            IntervalKind::Memcpy,
        )
        .word;
        assert_eq!(word, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "above a slot's limit")]
    fn a_slot_past_the_largest_context_panics() {
        let past = NodeId(TrackSlot::MAX_CONTEXT + 1);
        TrackSlot::new(
            TimeNs(0),
            TimeNs(0),
            0,
            Sym(0),
            Some(past),
            IntervalKind::Kernel,
        );
    }
}
