//! The DeepContext event-ingestion pipeline.
//!
//! Every collection path of the profiler terminates in an [`EventSink`].
//! This crate owns that contract and both sinks that implement it:
//!
//! * [`ShardedSink`] — the synchronous pipeline: producers route each
//!   event to one of N [`CctShard`]s and attribute it inline under that
//!   shard's lock (see [`sharded`]);
//! * [`AsyncSink`] — the asynchronous pipeline: producers enqueue
//!   events into per-shard **bounded channels** and a worker pool
//!   performs correlation resolution, CCT mutation and metric folds off
//!   the producer's critical path, with explicit
//!   [backpressure](BackpressurePolicy) and deterministic drain barriers
//!   (see [`async_sink`]).
//!
//! Asynchronous producers reach the queues one way, through
//! **thread-local producer batching** ([`batch`]): launches and CPU
//! samples are appended to a per-thread, per-shard `LaunchBatch` buffer;
//! a flush — every [`PipelineConfig::launch_batch`] events (`1` = after
//! every event), at every barrier, before any activity delivery, and on
//! thread exit — binds the whole batch's correlations in one
//! striped-directory pass and pushes each shard's run through its
//! channel in one delivery, amortizing the per-launch fixed costs that
//! dominate coarse kernel-only streams. Workers drive the *same*
//! per-shard attribution code as the synchronous mode, so the modes
//! produce semantically identical profiles — an equivalence this crate's
//! proptests assert tree-by-tree via
//! `CallingContextTree::semantic_diff` at `launch_batch` 1, 7 and 64.
//!
//! Contexts travel **by handle**: a launch or sample carries the
//! `PathHandle` DLMonitor assembled, shards resolve its `PathId` through
//! a dense vector, and the correlation [`directory`] — the one
//! correlation table — maps `corr → (shard, PathId)`.
//!
//! ```text
//!  producers (launch cb / activity flush / CPU sampler)
//!      │  route (thread+stream / correlation directory)
//!      │
//!      ├── sync:  apply inline under the home shard's lock
//!      │
//!      └── async: per-thread LaunchBatch          (no locks shared)
//!            │  flush: batch ≥ launch_batch │ barrier │ activity │ thread exit
//!            ▼  bind_batch corr→(shard, path) (one striped directory pass)
//!          per-shard bounded channels  ──ᴮˡᵒᶜᵏ/ᴰʳᵒᵖᴼˡᵈᵉˢᵗ──  backpressure
//!            │  FIFO per shard, send_batch single-notify push
//!            ▼
//!          worker pool (shard i → worker i mod W)
//!            │  apply_producer_batch / apply_activity_bucket / epoch
//!            ▼
//!  CctShards ──settle, merge_incremental──▶ cached master CCT (Arc-shared)
//!      ├── kernel/memcpy records ──▶ timeline rings (per-shard, bounded)
//!      └── per-shard DropOldest drops ──▶ synthetic `<dropped>` context
//! ```
//!
//! When `ProfilerConfig::timeline` is on, the per-shard attribution
//! entry points additionally record each kernel/memcpy record's
//! `[start, end)` interval — tagged with its resolved CCT context — into
//! bounded per-shard timeline rings (`deepcontext-timeline`). Both
//! ingestion modes flow through the same tap, and
//! [`EventSink::timeline_snapshot`] runs the same drain barriers as the
//! profile snapshots, so async-mode timelines are deterministic at every
//! flush.
//!
//! [`CctShard`]: deepcontext_core::CctShard

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_sink;
pub mod batch;
pub mod directory;
pub mod failpoint;
pub mod self_telemetry;
pub mod sharded;
pub mod sink;
pub mod supervisor;

pub use async_sink::{AsyncSink, BackpressurePolicy, PipelineConfig};
pub use directory::{Binding, DirectoryMapKind, StripedHashDirectory};
pub use failpoint::Failpoints;
pub use self_telemetry::PipelineTelemetry;
pub use sharded::{ShardedSink, SinkOptions};
pub use sink::{attribute_activity_metrics, EventSink, SinkCounters};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorSink, SupervisorState};

// The self-telemetry types the profiler speaks (see
// `SinkOptions::telemetry`), re-exported for the same reason.
pub use deepcontext_telemetry::{
    default_journal_config, default_journal_enabled, default_telemetry_config,
    default_telemetry_enabled, journal_sites, HealthReport, HealthThresholds, Journal,
    JournalConfig, JournalSeverity, Telemetry, TelemetryConfig, TelemetrySnapshot,
};

// The timeline types every sink speaks (see `EventSink::timeline_snapshot`
// and `SinkOptions::timeline`), re-exported so embedders need no
// direct `deepcontext-timeline` dependency.
pub use deepcontext_timeline::{
    default_timeline_config, default_timeline_enabled, TimelineConfig, TimelineSnapshot,
    TimelineStats,
};

/// The default producer-batching threshold
/// ([`PipelineConfig::launch_batch`]): large enough to amortize the
/// directory bind and channel push (a sweep over {1, 8, 64, 256} read
/// 290 / 161 / 136 / 127 ns per coarse event at PR 19), small enough
/// that a barrier flushing a partial batch wastes little work.
/// `bench_check` gates the enqueue cost at this value.
pub const DEFAULT_LAUNCH_BATCH: usize = 64;

/// Whether attribution runs inline on producers or on the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestionMode {
    /// Producers attribute inline under per-shard locks ([`ShardedSink`]).
    #[default]
    Sync,
    /// Producers enqueue into bounded channels; a worker pool attributes
    /// ([`AsyncSink`]).
    Async,
}

/// The default ingestion mode, honouring the
/// `DEEPCONTEXT_INGESTION_MODE` environment override (`sync` / `async`)
/// CI uses to run the whole suite under both pipelines. Falls back to
/// [`IngestionMode::Sync`] when unset or invalid, so the asynchronous
/// path is strictly opt-in.
pub fn default_ingestion_mode() -> IngestionMode {
    match std::env::var("DEEPCONTEXT_INGESTION_MODE") {
        Ok(v) if v.trim().eq_ignore_ascii_case("async") => IngestionMode::Async,
        _ => IngestionMode::Sync,
    }
}
