//! The DeepContext event-ingestion pipeline.
//!
//! Every collection path of the profiler terminates in the one sink this
//! crate provides, [`ShardedSink`]: producers route each event to one of
//! N [`CctShard`]s and attribute it inline under that shard's lock — the
//! paper's design (§4.2: aggregation happens online, inside the launch
//! callback and the activity-buffer handler). The profiler calls it
//! directly.
//!
//! Contexts travel **by handle**: a launch or sample carries the
//! `PathHandle` DLMonitor assembled, and shards resolve its `PathId`
//! through a dense vector to a metric row — a shard holds rows, not a
//! tree, since the session's path table is the tree's skeleton.
//! Correlations travel **by stream**: a launch and every asynchronous
//! activity record of it — which carries neither
//! thread identity nor context, but does name its stream — go to the
//! shard of that stream, whose own [`deepcontext_core::IdWindow`] (the
//! window DLMonitor keeps its forward/backward association in) maps
//! `corr → PathId` under the shard lock. A launch takes that one lock and
//! is one insert, a record one lookup; retirement (the two-phase prune)
//! stamps a record's id in its slot and sweeps the previous batch's
//! stamped range at the batch's end. No lock spans every stream, but all
//! producers on one stream share its shard's lock, for the row append as
//! well.
//!
//! ```text
//!  producers (launch cb / activity flush / CPU sampler)
//!      │  route (stream for launches and records / thread for samples)
//!      ▼  apply inline under the home shard's lock
//!  shards: CctShard rows + timeline ring (bounded), one lock each
//!      └──settle, sweep rows root-ward, drain by PathId──▶ cached master CCT (Arc-shared)
//! ```
//!
//! When `ProfilerConfig::timeline` is on, attributing a kernel/memcpy
//! record also pushes its `[start, end)` interval — tagged with its
//! context's `PathId` — into a bounded ring (`deepcontext-timeline`)
//! that sits in the shard, so a record still takes its shard's lock and
//! no other. [`ShardedSink::timeline_snapshot`] drains each shard and
//! shares its ring in one critical section, and maps every interval
//! through the master's one `PathId → NodeId` vector, so every interval
//! it returns resolves in the master tree the profile snapshots serve.
//!
//! [`CctShard`]: deepcontext_core::CctShard

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sharded;
mod sink;

pub use sharded::{ShardedSink, SinkOptions};
pub use sink::SinkCounters;

// The timeline types the sink speaks (see `ShardedSink::timeline_snapshot`
// and `SinkOptions::timeline`), re-exported so embedders need no
// direct `deepcontext-timeline` dependency.
pub use deepcontext_timeline::{TimelineConfig, TimelineSnapshot, TimelineStats};

/// The default ingestion shard count: what [`SinkOptions::default`] and
/// the profiler's default configuration both build.
pub const DEFAULT_SHARDS: usize = 16;

/// Vestigial: nothing batches. The constant is what
/// [`PipelineConfig::launch_batch`] defaults to, so the frozen repo
/// benchmark's `resolved:` header keeps reading `launch_batch 64`; it
/// goes with the benchmark-archetype issue that re-cuts that header.
pub const DEFAULT_LAUNCH_BATCH: usize = 64;

/// Vestigial: attribution runs inline on producers, the only mode there
/// is. The one-variant enum survives because the frozen repo benchmark
/// (`benchmark/src/workloads.rs`) formats
/// `ProfilerConfig::ingestion_mode` with `{:?}` in its `resolved:`
/// header line; it goes with the benchmark-archetype issue that re-cuts
/// that header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestionMode {
    /// Producers attribute inline under per-shard locks ([`ShardedSink`]).
    #[default]
    Sync,
}

/// Vestigial: names a correlation-table layout the sink no longer has
/// (each shard keeps its own streams' correlations). One variant:
/// nothing branches on it. It survives only because the frozen repo
/// benchmark (`benchmark/src/workloads.rs`) formats
/// [`PipelineConfig::directory_map`] with `{:?}` in its `resolved:`
/// header line; it goes with the next benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryMapKind {
    /// The only value.
    #[default]
    Striped,
}

/// Two fields only the frozen repo benchmark reads, in its `resolved:`
/// header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Vestigial: see [`DEFAULT_LAUNCH_BATCH`].
    pub launch_batch: usize,
    /// Vestigial: see [`DirectoryMapKind`]; read only by the benchmark's
    /// header and removed with it.
    pub directory_map: DirectoryMapKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            launch_batch: DEFAULT_LAUNCH_BATCH,
            directory_map: DirectoryMapKind::Striped,
        }
    }
}
