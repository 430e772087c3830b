//! The DeepContext event-ingestion pipeline.
//!
//! Every collection path of the profiler terminates in an [`EventSink`].
//! This crate owns that contract and the one sink that implements it,
//! [`ShardedSink`]: producers route each event to one of N [`CctShard`]s
//! and attribute it inline under that shard's lock (see [`sharded`]) —
//! the paper's design (§4.2: aggregation happens online, inside the
//! launch callback and the activity-buffer handler).
//!
//! Contexts travel **by handle**: a launch or sample carries the
//! `PathHandle` DLMonitor assembled, shards resolve its `PathId` through
//! a dense vector, and the correlation [`directory`] — the one
//! correlation table — maps `corr → (shard, PathId)`.
//!
//! ```text
//!  producers (launch cb / activity flush / CPU sampler)
//!      │  route (thread+stream / correlation directory)
//!      ▼  apply inline under the home shard's lock
//!  CctShards ──settle, merge_incremental──▶ cached master CCT (Arc-shared)
//!      └── kernel/memcpy records ──▶ timeline rings (per-shard, bounded)
//! ```
//!
//! When `ProfilerConfig::timeline` is on, the per-shard attribution
//! entry point additionally records each kernel/memcpy record's
//! `[start, end)` interval — tagged with its resolved CCT context — into
//! bounded per-shard timeline rings (`deepcontext-timeline`);
//! [`EventSink::timeline_snapshot`] assembles them at the same quiesce
//! point as the profile snapshots.
//!
//! [`CctShard`]: deepcontext_core::CctShard

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod failpoint;
pub mod self_telemetry;
pub mod sharded;
pub mod sink;

pub use directory::{Binding, DirectoryMapKind, StripedHashDirectory};
pub use failpoint::Failpoints;
pub use self_telemetry::PipelineTelemetry;
pub use sharded::{ShardedSink, SinkOptions};
pub use sink::{attribute_activity_metrics, EventSink, SinkCounters};

// The self-telemetry types the profiler speaks (see
// `SinkOptions::telemetry`), re-exported for the same reason.
pub use deepcontext_telemetry::{
    default_journal_config, default_journal_enabled, default_telemetry_config,
    default_telemetry_enabled, journal_sites, HealthReport, Journal, JournalConfig,
    JournalSeverity, Telemetry, TelemetryConfig, TelemetrySnapshot,
};

// The timeline types every sink speaks (see `EventSink::timeline_snapshot`
// and `SinkOptions::timeline`), re-exported so embedders need no
// direct `deepcontext-timeline` dependency.
pub use deepcontext_timeline::{
    default_timeline_config, default_timeline_enabled, TimelineConfig, TimelineSnapshot,
    TimelineStats,
};

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

/// The fault-injection registry, plus two fields nothing reads but the
/// frozen repo benchmark's `resolved:` header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Vestigial: see [`DEFAULT_LAUNCH_BATCH`].
    pub launch_batch: usize,
    /// Vestigial: the directory has one layout (see
    /// [`DirectoryMapKind`]); read only by the benchmark's header and
    /// removed with it.
    pub directory_map: DirectoryMapKind,
    /// Deterministic fault-injection registry for the pipeline's sites
    /// (see [`failpoint`]). The default parses the
    /// `DEEPCONTEXT_FAILPOINTS` environment spec into a registry of its
    /// own; when no spec is set every site check is one branch on an
    /// empty registry.
    pub failpoints: Failpoints,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            launch_batch: DEFAULT_LAUNCH_BATCH,
            directory_map: DirectoryMapKind::Striped,
            failpoints: Failpoints::from_env(),
        }
    }
}
