//! The lock-striped metrics registry and the [`Telemetry`] handle.
//!
//! Registration (name + label set → `Arc` handle) goes through a small
//! striped map and takes a lock; instrumented code does it **once**, at
//! construction time, and holds the returned `Arc<Counter>` /
//! `Arc<Gauge>` / `Arc<Histogram>` for the run. The hot paths then
//! touch only the atomics inside those handles — the registry's locks
//! never appear on a per-event path. Snapshots walk the stripes and
//! copy every metric into a sorted, immutable [`TelemetrySnapshot`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

const STRIPES: usize = 8;

/// FNV-1a over the metric name selects the stripe: stable, cheap, and
/// registration-time only.
fn stripe_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h as usize) % STRIPES
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The striped name → metric map. Usually reached through
/// [`Telemetry`], which adds the shared epoch clock.
#[derive(Debug)]
pub struct Registry {
    stripes: Vec<Mutex<HashMap<MetricKey, MetricHandle>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let key = MetricKey::new(name, labels);
        let mut stripe = self.stripes[stripe_of(name)].lock();
        stripe.entry(key).or_insert_with(make).clone()
    }

    /// Gets or registers the counter `name{labels}`.
    ///
    /// # Panics
    /// If the same name + label set was already registered as a
    /// different metric kind (an instrumentation bug).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, labels, || {
            MetricHandle::Counter(Arc::new(Counter::default()))
        }) {
            MetricHandle::Counter(c) => c,
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Gets or registers the gauge `name{labels}` (panics on a kind
    /// mismatch, like [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, labels, || {
            MetricHandle::Gauge(Arc::new(Gauge::default()))
        }) {
            MetricHandle::Gauge(g) => g,
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Gets or registers the histogram `name{labels}` (panics on a kind
    /// mismatch, like [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, labels, || {
            MetricHandle::Histogram(Arc::new(Histogram::default()))
        }) {
            MetricHandle::Histogram(h) => h,
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Copies every registered metric into a sorted snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut samples = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            for (key, handle) in stripe.iter() {
                let value = match handle {
                    MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
                    MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
                    MetricHandle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                samples.push(MetricSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value,
                });
            }
        }
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        TelemetrySnapshot { samples }
    }
}

/// One metric's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One registered metric at snapshot time: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// The metric name (see [`names`](crate::names) for the well-known
    /// set).
    pub name: String,
    /// Label pairs, sorted by key at registration time.
    pub labels: Vec<(String, String)>,
    /// The value observed at snapshot time.
    pub value: MetricValue,
}

/// An immutable, name-sorted copy of every metric in a registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// All samples, sorted by `(name, labels)` — the deterministic order
    /// the exporters rely on.
    pub samples: Vec<MetricSample>,
}

impl TelemetrySnapshot {
    /// Whether no metric was registered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of every counter sample named `name` across its label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Maximum gauge reading named `name` across its label sets (zero
    /// when absent).
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// All histogram samples named `name` merged into one distribution
    /// (empty when absent).
    pub fn histogram_merged(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for s in self.samples.iter().filter(|s| s.name == name) {
            if let MetricValue::Histogram(h) = &s.value {
                merged.merge(h);
            }
        }
        merged
    }

    /// Renders the snapshot in Prometheus text exposition format (see
    /// [`export`](crate::export)).
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }

    /// Renders the snapshot as a JSON object (see
    /// [`export`](crate::export)).
    pub fn to_json(&self) -> String {
        crate::export::to_json(self)
    }
}

#[derive(Debug)]
struct TelemetryInner {
    registry: Registry,
    epoch: Instant,
}

/// The cheap-to-clone handle instrumented subsystems hold: a shared
/// [`Registry`] plus the epoch all self-time measurements are relative
/// to. Constructed once per profiler session (when telemetry is
/// enabled); disabled telemetry is the *absence* of a `Telemetry` — an
/// `Option<Telemetry>` branch is the entire disabled-path cost.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh registry with its epoch set to now.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                registry: Registry::new(),
                epoch: Instant::now(),
            }),
        }
    }

    /// Builds a handle from a config: `Some` when enabled, `None`
    /// otherwise — callers store the `Option` and branch on it.
    pub fn from_config(config: &crate::TelemetryConfig) -> Option<Telemetry> {
        config.enabled.then(Telemetry::new)
    }

    /// Nanoseconds since this telemetry session's epoch — the time
    /// domain of every self-recorded latency and self-timeline interval.
    /// (Wall-clock, deliberately distinct from the workload's virtual
    /// clock: self-intervals land on a reserved track, not interleaved
    /// with workload tracks.)
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Gets or registers a counter (see [`Registry::counter`]).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.inner.registry.counter(name, labels)
    }

    /// The one home of an always-maintained count: the unlabelled
    /// counter `name` of `telemetry`'s registry when a session is
    /// attached, a free-standing counter otherwise. Either way the owner
    /// bumps it unconditionally and its stats surface reads it back, so
    /// a scrape and the stats struct are reads of the same atomic.
    pub fn counter_or_detached(telemetry: Option<&Telemetry>, name: &str) -> Arc<Counter> {
        telemetry.map_or_else(Arc::default, |t| t.counter(name, &[]))
    }

    /// [`counter_or_detached`](Self::counter_or_detached) for gauges.
    pub fn gauge_or_detached(telemetry: Option<&Telemetry>, name: &str) -> Arc<Gauge> {
        telemetry.map_or_else(Arc::default, |t| t.gauge(name, &[]))
    }

    /// Gets or registers a gauge (see [`Registry::gauge`]).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.inner.registry.gauge(name, labels)
    }

    /// Gets or registers a histogram (see [`Registry::histogram`]).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.inner.registry.histogram(name, labels)
    }

    /// Copies every registered metric into a sorted snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.inner.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let t = Telemetry::new();
        let a = t.counter("x_total", &[("shard", "0")]);
        let b = t.counter("x_total", &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // A different label set is a different series.
        let c = t.counter("x_total", &[("shard", "1")]);
        c.add(5);
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("x_total"), 7);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let t = Telemetry::new();
        let a = t.gauge("g", &[("a", "1"), ("b", "2")]);
        let b = t.gauge("g", &[("b", "2"), ("a", "1")]);
        a.set(9);
        assert_eq!(b.get(), 9);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let t = Telemetry::new();
        let _c = t.counter("m", &[]);
        let _g = t.gauge("m", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let t = Telemetry::new();
        t.histogram("zz_hist", &[]).record(100);
        t.histogram("zz_hist", &[("shard", "1")]).record(50);
        t.counter("aa_total", &[]).add(3);
        t.gauge("mm_gauge", &[("w", "0")]).record_max(17);
        let snap = t.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter_total("aa_total"), 3);
        assert_eq!(snap.gauge_max("mm_gauge"), 17);
        let merged = snap.histogram_merged("zz_hist");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 150);
        assert_eq!(snap.counter_total("absent"), 0);
        assert!(snap.histogram_merged("absent").is_empty());
    }

    #[test]
    fn now_ns_is_monotonic() {
        let t = Telemetry::new();
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }
}
