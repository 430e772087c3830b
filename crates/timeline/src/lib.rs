//! The context-aware timeline subsystem.
//!
//! The profiler's calling context tree answers *where did the time go*;
//! it folds every activity's `start`/`end` into aggregates and discards
//! the intervals, so latency questions — device utilization, cross-stream
//! kernel overlap, idle gaps between launches — cannot be asked of it.
//! This crate keeps the intervals: per-`(device, stream)` **tracks**
//! recorded from the same event flow that feeds the CCT, each interval
//! tagged with its resolved CCT context id, stored in bounded per-shard
//! ring buffers so timeline memory is capped regardless of run length
//! (overflow evicts the oldest intervals and is counted, like the
//! pipeline's `<dropped>` telemetry).
//!
//! Layers:
//!
//! * [`TimelineSink`] — the recording side: lock-striped (one ring per
//!   ingestion shard, locked only under that shard's existing
//!   serialization) bounded interval storage, written by the ingestion
//!   pipeline while it attributes kernel/memcpy records;
//! * [`TimelineSnapshot`] — the analysis side: a view that shares the
//!   rings' storage and reads as per-track, start-sorted intervals with
//!   shard-local context ids remapped into the folded master CCT;
//! * [`TimelineStats`] — per-device utilization, cross-stream overlap
//!   factor, and idle gaps attributed to the contexts of their bounding
//!   launches;
//! * [`chrome`] — a Chrome Trace Format exporter
//!   ([`TimelineSnapshot::to_chrome_trace`]): load the JSON in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) to see
//!   one swim-lane per `(device, stream)` track.
//!
//! Recording is wired behind `ProfilerConfig::timeline` (default off;
//! the `DEEPCONTEXT_TIMELINE` environment variable CI uses flips the
//! default — see [`default_timeline_config`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod ring;
pub mod snapshot;

pub use ring::{IntervalRing, TimelineCounters, TimelineSink};
pub use snapshot::{DeviceStats, Gap, TimelineSnapshot, TimelineStats, Track};

// The shared vocabulary lives in core; re-export it so timeline users
// need no direct core import for the data types.
pub use deepcontext_core::{Interval, IntervalKind, TrackKey};

/// Default per-shard ring capacity, in intervals. Large enough that the
/// benchmark workloads (and an iteration window of a real training loop)
/// fit without eviction, small enough that a full ring stays a bounded
/// slice of profile memory (a ring slot is 40 bytes; a full default ring
/// is 2.5 MiB plus under 1 % of chunk headers and handles, allocated a
/// 10 KiB chunk at a time).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Timeline recording knobs (the `ProfilerConfig::timeline` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Whether kernel/memcpy intervals are recorded at all. Off by
    /// default: aggregate-only profiling pays nothing for the timeline.
    pub enabled: bool,
    /// Bounded capacity of each ingestion shard's interval ring. When a
    /// ring is full the oldest interval is evicted and counted
    /// ([`TimelineCounters::dropped`]), so the timeline becomes a
    /// trailing window rather than growing without bound.
    pub ring_capacity: usize,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            enabled: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TimelineConfig {
    /// An enabled configuration at the default ring capacity.
    pub fn enabled() -> Self {
        TimelineConfig {
            enabled: true,
            ..TimelineConfig::default()
        }
    }
}

/// Whether the `DEEPCONTEXT_TIMELINE` environment override asks for
/// timeline recording (`1` / `true` / `on`, case-insensitive). Unset or
/// anything else means off — the timeline is strictly opt-in.
pub fn default_timeline_enabled() -> bool {
    std::env::var("DEEPCONTEXT_TIMELINE")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false)
}

/// The default timeline configuration, honouring the
/// `DEEPCONTEXT_TIMELINE` environment override CI uses to run the whole
/// suite with recording off (`=0`, the default) and on (`=1`).
pub fn default_timeline_config() -> TimelineConfig {
    TimelineConfig {
        enabled: default_timeline_enabled(),
        ..TimelineConfig::default()
    }
}
