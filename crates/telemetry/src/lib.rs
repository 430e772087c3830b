//! Self-telemetry: the profiler watching its own pipeline.
//!
//! DeepContext's pitch is low-overhead always-on profiling, but the
//! profiler's own behavior — lock hold times, fold latencies, interner
//! and ring occupancy — is invisible in end-of-run aggregates. This crate is the introspection layer the rest of the
//! workspace instruments itself with:
//!
//! * [`Telemetry`] / [`Registry`] — a lock-striped registry of atomic
//!   [`Counter`]s, [`Gauge`]s, and log₂-bucketed [`Histogram`]s.
//!   Instrumented code registers once (taking a stripe lock) and holds
//!   `Arc` handles; per-event observations are a single relaxed atomic
//!   add. Disabled telemetry is the absence of the handle — an
//!   `Option<Telemetry>` branch is the entire cost.
//! * [`TelemetrySnapshot`] — a sorted, immutable copy of every metric,
//!   with [Prometheus text exposition](TelemetrySnapshot::to_prometheus)
//!   and [JSON](TelemetrySnapshot::to_json) exporters.
//! * [`HealthReport`] — the snapshot rolled into the window length and
//!   the fold-latency summary.
//! * [`Journal`] — the incident journal: a bounded, lock-striped ring
//!   of structured lifecycle events (flush boundaries, store retries,
//!   failpoint fires) that persists with the profile and is cited by
//!   the analyzer.
//! * [`names`] — the well-known metric names shared between the
//!   instrumentation sites and the report.
//!
//! Recording is wired behind `ProfilerConfig::telemetry` (default off;
//! the `DEEPCONTEXT_TELEMETRY` environment variable flips the default —
//! see [`default_telemetry_config`]). The *self-timeline* — snapshot
//! folds as intervals on a reserved timeline track — rides on the same
//! config's
//! [`self_timeline`](TelemetryConfig::self_timeline) switch and the
//! existing `crates/timeline` ring machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod health;
pub mod journal;
pub mod metrics;
pub mod registry;

pub use export::{escape_label_value, sanitize_label_name, sanitize_metric_name};
pub use health::{DistributionSummary, HealthReport};
pub use journal::{
    default_journal_config, default_journal_enabled, journal_sites, Journal, JournalConfig,
    JournalSeverity, DEFAULT_JOURNAL_CAPACITY,
};
pub use metrics::{
    bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
};
pub use registry::{MetricSample, MetricValue, Registry, Telemetry, TelemetrySnapshot};

/// Well-known metric names: the vocabulary shared by the pipeline /
/// profiler / analyzer instrumentation sites and [`HealthReport`]. All
/// names use the `deepcontext_` prefix so a
/// Prometheus scrape of a co-hosted process stays collision-free.
pub mod names {
    /// Histogram: shard-lock hold time on the attribution paths,
    /// nanoseconds.
    pub const SHARD_LOCK_HOLD_NS: &str = "deepcontext_pipeline_shard_lock_hold_ns";
    /// Histogram: incremental snapshot fold latency, nanoseconds.
    pub const FOLD_LATENCY_NS: &str = "deepcontext_snapshot_fold_latency_ns";
    /// Gauge: approximate interner footprint, bytes.
    pub const INTERNER_BYTES: &str = "deepcontext_interner_bytes";
    /// Gauge: approximate timeline ring footprint, bytes.
    pub const TIMELINE_RING_BYTES: &str = "deepcontext_timeline_ring_bytes";
    /// Histogram: `ProfileStore::save` latency, nanoseconds.
    pub const STORE_SAVE_LATENCY_NS: &str = "deepcontext_store_save_latency_ns";
    /// Histogram: `ProfileStore::load` latency, nanoseconds.
    pub const STORE_LOAD_LATENCY_NS: &str = "deepcontext_store_load_latency_ns";
    /// Counter: lifecycle events recorded by the incident journal
    /// (kept + evicted — the conservation total).
    pub const JOURNAL_RECORDED: &str = "deepcontext_journal_recorded_total";
    /// Counter: journal events evicted by ring overflow.
    pub const JOURNAL_EVICTED: &str = "deepcontext_journal_evicted_total";
}

/// Self-telemetry knobs (the `ProfilerConfig::telemetry` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether the profiler records metrics about itself at all. Off by
    /// default: the disabled path is an `Option` branch per
    /// instrumentation site.
    pub enabled: bool,
    /// Whether snapshot folds are additionally recorded as intervals on
    /// the reserved self-timeline track (requires the timeline itself to be enabled; on by default
    /// *when* telemetry is on).
    pub self_timeline: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            self_timeline: true,
        }
    }
}

impl TelemetryConfig {
    /// An enabled configuration with the self-timeline on.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// Whether the `DEEPCONTEXT_TELEMETRY` environment override asks for
/// self-telemetry (`1` / `true` / `on`, case-insensitive). Unset or
/// anything else means off — telemetry is strictly opt-in.
pub fn default_telemetry_enabled() -> bool {
    std::env::var("DEEPCONTEXT_TELEMETRY")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false)
}

/// The default telemetry configuration, honouring the
/// `DEEPCONTEXT_TELEMETRY` environment override CI uses to run the
/// whole suite with self-telemetry off (unset, the default) and on
/// (`=1`).
pub fn default_telemetry_config() -> TelemetryConfig {
    TelemetryConfig {
        enabled: default_telemetry_enabled(),
        ..TelemetryConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off_with_self_timeline_armed() {
        let config = TelemetryConfig::default();
        assert!(!config.enabled);
        assert!(config.self_timeline);
        assert!(TelemetryConfig::enabled().enabled);
    }

    #[test]
    fn from_config_gates_construction() {
        assert!(Telemetry::from_config(&TelemetryConfig::default()).is_none());
        assert!(Telemetry::from_config(&TelemetryConfig::enabled()).is_some());
    }
}
