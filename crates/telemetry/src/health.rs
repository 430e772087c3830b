//! [`HealthReport`]: the snapshot rolled into the numbers a caller would
//! act on.
//!
//! The raw registry answers "what happened"; the health report answers
//! "is the profiler keeping up". Inline attribution has no queue to
//! saturate and no worker to starve, so today that is the one operation
//! that stalls readers: the snapshot fold. (ROADMAP direction 3 — an
//! always-on overhead budget — grows the report from here.)

use crate::metrics::HistogramSnapshot;
use crate::names;
use crate::registry::TelemetrySnapshot;

/// A distribution reduced to the four numbers rate decisions need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistributionSummary {
    /// Observations in the window.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Median (log₂-bucket upper bound).
    pub p50: u64,
    /// 99th percentile (log₂-bucket upper bound).
    pub p99: u64,
}

impl DistributionSummary {
    /// Reduces a histogram snapshot.
    pub fn from_histogram(h: &HistogramSnapshot) -> DistributionSummary {
        DistributionSummary {
            count: h.count,
            sum: h.sum,
            p50: h.p50(),
            p99: h.p99(),
        }
    }

    /// Exact arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The profiler's own vital signs over one telemetry window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Window length: nanoseconds from the telemetry epoch (session
    /// start) to the moment the report was taken.
    pub window_ns: u64,
    /// Incremental snapshot fold latency, nanoseconds.
    pub fold_latency: DistributionSummary,
}

impl HealthReport {
    /// Rolls a registry snapshot into the report. `window_ns` is the
    /// caller's measurement window (typically
    /// [`Telemetry::now_ns`](crate::Telemetry::now_ns) at report time).
    pub fn from_snapshot(snapshot: &TelemetrySnapshot, window_ns: u64) -> HealthReport {
        HealthReport {
            window_ns,
            fold_latency: DistributionSummary::from_histogram(
                &snapshot.histogram_merged(names::FOLD_LATENCY_NS),
            ),
        }
    }

    /// Whether the report carries no signal at all (telemetry was on
    /// but nothing instrumented ran).
    pub fn is_empty(&self) -> bool {
        self.fold_latency.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Telemetry;

    #[test]
    fn empty_snapshot_rolls_into_an_empty_report() {
        let report = HealthReport::from_snapshot(&Telemetry::new().snapshot(), 0);
        assert!(report.is_empty());
        assert_eq!(report.fold_latency.mean(), 0.0);
    }

    #[test]
    fn fold_latency_rolls_up_from_its_well_known_name() {
        let t = Telemetry::new();
        t.histogram(names::FOLD_LATENCY_NS, &[]).record(1_000);
        t.histogram(names::FOLD_LATENCY_NS, &[]).record(3_000);
        let report = HealthReport::from_snapshot(&t.snapshot(), 2_000_000_000);
        assert!(!report.is_empty());
        assert_eq!(report.window_ns, 2_000_000_000);
        assert_eq!(report.fold_latency.count, 2);
        assert_eq!(report.fold_latency.p50, 1_023);
        assert_eq!(report.fold_latency.p99, 4_095);
        assert!((report.fold_latency.mean() - 2_000.0).abs() < 1e-9);
    }
}
