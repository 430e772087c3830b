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
//! (overflow evicts the oldest intervals and is counted).
//!
//! Layers:
//!
//! * [`IntervalRing`] — the recording side: bounded interval storage.
//!   The ingestion pipeline keeps one ring inside each shard, under the
//!   shard's own lock, and pushes into it while it attributes
//!   kernel/memcpy records; a stream's records all reach one shard, so
//!   each track is held by one ring;
//! * [`TimelineSnapshot`] — the analysis side: a view that shares the
//!   rings' storage ([`IntervalRing::snapshot`], put together by
//!   [`TimelineSnapshot::join`]) and reads as per-track, start-sorted
//!   intervals with shard-local context ids remapped into the folded
//!   master CCT;
//! * [`TimelineStats`] — per-device utilization, cross-stream overlap
//!   factor, and idle gaps attributed to the contexts of their bounding
//!   launches;
//! * [`chrome`] — a Chrome Trace Format exporter
//!   ([`TimelineSnapshot::to_chrome_trace`]): load the JSON in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) to see
//!   one swim-lane per `(device, stream)` track.
//!
//! Recording is wired behind `ProfilerConfig::timeline`, off unless the
//! caller enables it ([`TimelineConfig::enabled`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod ring;
pub mod snapshot;

pub use ring::{IntervalRing, TimelineCounters};
pub use snapshot::{DeviceStats, Gap, TimelineSnapshot, TimelineStats, Track};

// The shared vocabulary lives in core; re-export it so timeline users
// need no direct core import for the data types.
pub use deepcontext_core::{Interval, IntervalKind, TrackKey};

/// Default per-shard ring capacity, in intervals. Large enough that the
/// benchmark workloads (and an iteration window of a real training loop)
/// fit without eviction, small enough that a full ring stays a bounded
/// slice of profile memory (a ring slot is 32 bytes; a full default ring
/// is 2 MiB plus under 1 % of chunk headers and handles, allocated an
/// 8 KiB chunk at a time).
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
