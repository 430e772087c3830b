//! Timeline interval primitives.
//!
//! The calling context tree aggregates *how much* time each context
//! consumed; a timeline records *when* — the `[start, end)` device
//! intervals that aggregation would otherwise discard. [`Interval`] is
//! the unit of that record: one kernel or memcpy execution on one
//! `(device, stream)` placement, tagged with the CCT context it was
//! attributed to, so latency analyses (utilization, cross-stream
//! overlap, idle-gap attribution) can point back into the same tree the
//! aggregate analyses run over. The bounded ring buffers, track
//! assembly and analysis live in the `deepcontext-timeline` crate; the
//! plain data types live here so every layer (ingestion pipeline,
//! analyzer, exporters) shares one vocabulary without depending on the
//! timeline machinery.

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

impl TrackKey {
    /// The device id reserved for the profiler's *self-timeline*: when
    /// self-telemetry is on, snapshot folds are recorded as intervals on
    /// this device (timelines stored by older builds also carry worker
    /// batches and producer flushes there) so
    /// exporters can render the profiler's own execution next to the
    /// workload it profiled. No simulated GPU can claim it (real device
    /// ids count up from zero), and because it sorts last the self
    /// track always renders below the workload tracks.
    ///
    /// Self-interval timestamps are wall-clock nanoseconds since the
    /// telemetry session's epoch — a different time domain from the
    /// workload's virtual clock, which is acceptable precisely because
    /// the tracks never interleave.
    pub const SELF_DEVICE: u32 = u32::MAX;

    /// Self-timeline stream of producer batch-flush intervals in
    /// timelines stored while ingestion batched (nothing records it
    /// now; streams below it were one per ingestion worker). The Chrome
    /// exporter still names those lanes.
    pub const SELF_STREAM_FLUSH: u32 = 1_000;
    /// Self-timeline stream carrying incremental snapshot-fold
    /// intervals.
    pub const SELF_STREAM_FOLD: u32 = 1_001;

    /// A track on the reserved self-telemetry device.
    pub fn self_track(stream: u32) -> TrackKey {
        TrackKey {
            device: TrackKey::SELF_DEVICE,
            stream,
        }
    }

    /// Whether this track is the profiler's own (reserved device).
    pub fn is_self(&self) -> bool {
        self.device == TrackKey::SELF_DEVICE
    }
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
    /// While buffered inside the ingestion pipeline this is a
    /// *shard-local* node id; snapshots remap it into the folded master
    /// tree (`None` when the context cannot be resolved — e.g. the
    /// orphaned-record fallback of a pruned correlation).
    pub context: Option<NodeId>,
}

impl Interval {
    /// Interval duration (zero-width intervals are allowed but carry no
    /// busy time).
    pub fn duration(&self) -> TimeNs {
        self.end.saturating_sub(self.start)
    }
}

/// A timeline in its persistent form: the flattened interval set of an
/// assembled snapshot, the captured symbol table its interval names
/// resolve against, the recording counters, and the run's wall-clock
/// window.
///
/// This is the shape `ProfileDb` stores on disk so a run's timeline
/// survives the profiler. It lives in core (next to [`Interval`]) rather
/// than in the timeline crate so the database can hold one without a
/// dependency cycle; the timeline crate converts to and from its
/// assembled `TimelineSnapshot` view (`TimelineSnapshot::to_stored` /
/// `TimelineSnapshot::from_stored`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoredTimeline {
    /// Every live interval at snapshot time, in no particular order
    /// (consumers re-group into per-track, start-sorted views).
    /// `Interval::context` ids index into the profile's master tree.
    pub intervals: Vec<Interval>,
    /// The captured symbol table: `Interval::name` handles index into
    /// this vector. Out-of-range handles simply fail to resolve.
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
    /// Resolves an interval name against the captured symbol table.
    pub fn name_of(&self, sym: Sym) -> Option<&str> {
        self.names.get(sym.index() as usize).map(|s| s.as_ref())
    }

    /// Total live intervals.
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
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
}
