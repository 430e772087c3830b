//! The pipeline's pre-registered self-telemetry instruments.
//!
//! Registration against the metrics registry takes a stripe lock, so it
//! happens exactly once — here, at sink construction — and the
//! instrumentation sites hold the returned `Arc` handles for the run.
//! A hot path observes a metric with one relaxed atomic add; the
//! disabled path is the absence of this whole struct (an `Option`
//! branch per site).

use std::sync::Arc;

use deepcontext_core::{Interner, Sym};
use deepcontext_telemetry::{names, Gauge, Histogram, Telemetry, TelemetryConfig};

/// The sink's instruments, plus the interned display name the
/// *self-timeline* intervals (snapshot folds on the reserved
/// `TrackKey::SELF_DEVICE` track) carry.
pub struct PipelineTelemetry {
    telemetry: Telemetry,
    self_timeline: bool,
    /// Shard-lock hold time on the attribution paths, nanoseconds.
    pub(crate) shard_lock_hold: Arc<Histogram>,
    /// Incremental snapshot fold latency, nanoseconds.
    pub(crate) fold_latency: Arc<Histogram>,
    /// Approximate interner footprint, bytes.
    pub(crate) interner_bytes: Arc<Gauge>,
    /// Approximate timeline-ring footprint, bytes.
    pub(crate) ring_bytes: Arc<Gauge>,
    /// Display name of snapshot-fold self-intervals.
    pub(crate) fold_sym: Sym,
}

impl PipelineTelemetry {
    /// Builds the instrument bundle when `config` enables telemetry
    /// (`None` otherwise — the sink then stores no handle and every
    /// site's branch folds to the disabled path). The interval display
    /// name is interned through `interner` so self-intervals resolve
    /// through the same symbol table as workload intervals.
    pub fn from_config(
        config: &TelemetryConfig,
        interner: &Arc<Interner>,
    ) -> Option<Arc<PipelineTelemetry>> {
        let telemetry = Telemetry::from_config(config)?;
        Some(Arc::new(PipelineTelemetry {
            shard_lock_hold: telemetry.histogram(names::SHARD_LOCK_HOLD_NS, &[]),
            fold_latency: telemetry.histogram(names::FOLD_LATENCY_NS, &[]),
            interner_bytes: telemetry.gauge(names::INTERNER_BYTES, &[]),
            ring_bytes: telemetry.gauge(names::TIMELINE_RING_BYTES, &[]),
            fold_sym: interner.intern("profiler snapshot fold"),
            self_timeline: config.self_timeline,
            telemetry,
        }))
    }

    /// The underlying registry handle (snapshot it for exports and
    /// health reports).
    pub fn handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Nanoseconds since the telemetry epoch — the time domain of every
    /// self-recorded latency and self-timeline interval.
    pub fn now_ns(&self) -> u64 {
        self.telemetry.now_ns()
    }

    /// Whether self-intervals should be recorded onto the reserved
    /// timeline track (in addition to the metrics).
    pub fn self_timeline_enabled(&self) -> bool {
        self.self_timeline
    }
}

impl std::fmt::Debug for PipelineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineTelemetry")
            .field("self_timeline", &self.self_timeline)
            .finish()
    }
}
