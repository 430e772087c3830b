//! Health-driven graceful degradation: the [`Supervisor`] state machine
//! and the [`SupervisorSink`] admission wrapper.
//!
//! The pipeline's `DropOldest` backpressure keeps producers unblocked,
//! but blind eviction biases the profile: whichever contexts happen to
//! be enqueued when a queue fills lose events, and nothing records how
//! many. The supervisor replaces that failure mode with *deterministic
//! sampled ingestion*: when the [`HealthReport`] window shows the
//! pipeline falling behind, the sink stops admitting every event and
//! admits exactly one in [`SupervisorConfig::sample_stride`], recording
//! the stride so consumers can rescale (an unbiased estimate, unlike
//! eviction); when the pipeline is drowning outright it turns the tap
//! off entirely and lets the workload run untouched.
//!
//! ```text
//!            degrade edge breached          bypass edge breached
//!            trip_streak windows            trip_streak windows
//!   Healthy ────────────────────▶ Degraded ────────────────────▶ Bypass
//!      ▲                             │  ▲                           │
//!      └─────────────────────────────┘  └───────────────────────────┘
//!        calm (signals < recover_fraction × edge)
//!        for recover_streak windows
//! ```
//!
//! Both directions have hysteresis: escalation needs
//! [`trip_streak`](SupervisorConfig::trip_streak) *consecutive* breached
//! windows, and recovery needs
//! [`recover_streak`](SupervisorConfig::recover_streak) consecutive
//! windows with every signal below
//! [`recover_fraction`](SupervisorConfig::recover_fraction) of the edge
//! it tripped on — a window hovering at the threshold flaps neither way.
//!
//! # Sampling coherence
//!
//! Degraded-mode admission is keyed on the GPU correlation id:
//! a launch is admitted iff `correlation % sample_stride == 0`, and
//! activity records are filtered by the *same* predicate — so every
//! admitted activity's correlation was bound by an admitted launch and
//! the sampled profile contains no sampling-induced orphans. Events
//! without a correlation (CPU samples) are sampled 1-in-N off a shared
//! counter. Admitted events are **not** scaled inline; the profiler
//! stamps the stride into `ProfileMeta::extra` (`supervisor.sample_rate`)
//! and estimate consumers multiply by it.
//!
//! Barriers are never sampled: `epoch_complete`, snapshots, timelines
//! and counters pass straight through in every state, so drain semantics
//! and determinism are untouched by degradation.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use deepcontext_core::{CallingContextTree, MetricKind, PathHandle};
use deepcontext_telemetry::{
    journal_sites, names, Counter, Gauge, HealthReport, HealthThresholds, Journal, JournalSeverity,
    Telemetry,
};
use deepcontext_timeline::TimelineSnapshot;
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ApiKind};

use crate::sink::{EventSink, SinkCounters};

/// The supervisor's ingestion posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SupervisorState {
    /// Every event is admitted; the fast path is one relaxed atomic
    /// load.
    Healthy = 0,
    /// Deterministic 1-in-N admission with the stride recorded for
    /// rescaling.
    Degraded = 1,
    /// Data events are discarded outright; barriers still flow.
    Bypass = 2,
}

impl SupervisorState {
    fn from_u8(v: u8) -> SupervisorState {
        match v {
            1 => SupervisorState::Degraded,
            2 => SupervisorState::Bypass,
            _ => SupervisorState::Healthy,
        }
    }

    /// The state's display name, as journaled transition events spell it.
    pub fn name(self) -> &'static str {
        match self {
            SupervisorState::Healthy => "Healthy",
            SupervisorState::Degraded => "Degraded",
            SupervisorState::Bypass => "Bypass",
        }
    }
}

/// Knobs of the [`Supervisor`] state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// The `Healthy → Degraded` edge, judged against each health window.
    pub degrade: HealthThresholds,
    /// The `Degraded → Bypass` edge. The default judges drop rate alone
    /// (its `queue_saturation` is `+∞` — a saturated queue that is *not*
    /// dropping much is what `Degraded` is for).
    pub bypass: HealthThresholds,
    /// Consecutive breached windows required to escalate one state.
    pub trip_streak: u32,
    /// Consecutive calm windows required to recover one state.
    pub recover_streak: u32,
    /// Recovery demands every signal below this fraction of the edge it
    /// tripped on, so a run hovering at the threshold cannot flap.
    pub recover_fraction: f64,
    /// Degraded-mode admission stride: one event in `sample_stride` is
    /// ingested (clamped to at least 1; 1 admits everything).
    pub sample_stride: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            degrade: HealthThresholds::default(),
            bypass: HealthThresholds {
                drop_rate: 0.25,
                queue_saturation: f64::INFINITY,
            },
            trip_streak: 2,
            recover_streak: 3,
            recover_fraction: 0.5,
            sample_stride: 8,
        }
    }
}

impl SupervisorConfig {
    /// Whether every signal of `report` sits below `fraction` of this
    /// edge — the calm test recovery requires.
    fn calm(edge: &HealthThresholds, fraction: f64, report: &HealthReport) -> bool {
        report.drop_rate < edge.drop_rate * fraction
            && report.queue_saturation < edge.queue_saturation * fraction
    }
}

/// A point-in-time copy of the supervisor's counters, for stats
/// surfaces and the profiler's `ProfileMeta::extra` stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorStatus {
    /// Current state as its `u8` code (0 = Healthy, 1 = Degraded,
    /// 2 = Bypass).
    pub state: u8,
    /// State transitions taken (every edge counts, both directions).
    pub transitions: u64,
    /// Health windows observed while not `Healthy`.
    pub degraded_windows: u64,
    /// The configured degraded-mode admission stride.
    pub sample_stride: u64,
    /// Events admitted by the 1-in-N sampler while `Degraded`.
    pub sampled_events: u64,
    /// Events rejected by the sampler while `Degraded`.
    pub rejected_events: u64,
    /// Events discarded while `Bypass`.
    pub bypassed_events: u64,
}

/// The `Healthy → Degraded → Bypass` state machine. Feed it one
/// [`HealthReport`] per telemetry window via [`observe`](Self::observe);
/// read the posture with [`state`](Self::state). All methods take
/// `&self` — the machine is shared between the profiler (observing) and
/// the [`SupervisorSink`] (admitting) as an `Arc`.
pub struct Supervisor {
    config: SupervisorConfig,
    /// Control state, read on the admission fast path; `state_gauge`
    /// publishes it and is written on transitions only.
    state: AtomicU8,
    state_gauge: Arc<Gauge>,
    /// Consecutive breached windows toward the next escalation.
    trip_run: AtomicU32,
    /// Consecutive calm windows toward the next recovery.
    recover_run: AtomicU32,
    // The `deepcontext_supervisor_*` series themselves when a telemetry
    // session is attached, free-standing otherwise.
    transitions: Arc<Counter>,
    sampled: Arc<Counter>,
    rejected: Arc<Counter>,
    bypassed: Arc<Counter>,
    degraded_windows: AtomicU64,
    /// Round-robin counter sampling correlation-less events.
    uncorrelated: AtomicU64,
    /// Incident journal (`None` = journaling off). Transitions are
    /// recorded with the `HealthReport` evidence that tripped them.
    journal: Option<Arc<Journal>>,
    /// Journal-clock timestamp of the first departure from `Healthy`
    /// (0 = never left, or journaling off). Stamped into
    /// `ProfileMeta::extra` so header-only listings can spot when a run
    /// first degraded without loading the journal.
    first_degraded_ns: AtomicU64,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("status", &self.status())
            .finish()
    }
}

impl Supervisor {
    /// Builds the state machine. With a `telemetry` session its
    /// transition and admission counters and its state gauge are that
    /// session's `deepcontext_supervisor_*` series. With a `journal`
    /// every state transition is recorded as a `supervisor.transition`
    /// event carrying the `HealthReport` evidence that tripped it (or
    /// `forced`, for operator overrides), and the first departure from
    /// `Healthy` stamps [`first_degraded_ns`](Self::first_degraded_ns).
    pub fn new(
        config: SupervisorConfig,
        telemetry: Option<&Telemetry>,
        journal: Option<Arc<Journal>>,
    ) -> Arc<Supervisor> {
        let config = SupervisorConfig {
            sample_stride: config.sample_stride.max(1),
            trip_streak: config.trip_streak.max(1),
            recover_streak: config.recover_streak.max(1),
            ..config
        };
        let counter = |name| Telemetry::counter_or_detached(telemetry, name);
        Arc::new(Supervisor {
            config,
            state: AtomicU8::new(SupervisorState::Healthy as u8),
            state_gauge: Telemetry::gauge_or_detached(telemetry, names::SUPERVISOR_STATE),
            trip_run: AtomicU32::new(0),
            recover_run: AtomicU32::new(0),
            transitions: counter(names::SUPERVISOR_TRANSITIONS),
            sampled: counter(names::SUPERVISOR_SAMPLED_EVENTS),
            rejected: counter(names::SUPERVISOR_REJECTED_EVENTS),
            bypassed: counter(names::SUPERVISOR_BYPASSED_EVENTS),
            degraded_windows: AtomicU64::new(0),
            uncorrelated: AtomicU64::new(0),
            journal,
            first_degraded_ns: AtomicU64::new(0),
        })
    }

    /// Journal-clock timestamp of the run's first departure from
    /// `Healthy` — `None` while the run never degraded (or journaling is
    /// off, which leaves the supervisor without a clock to stamp from).
    pub fn first_degraded_ns(&self) -> Option<u64> {
        match self.first_degraded_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// The configuration the supervisor was built with (strides and
    /// streaks clamped to at least 1).
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Current posture. One relaxed load — this is the admission fast
    /// path.
    pub fn state(&self) -> SupervisorState {
        SupervisorState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Counter snapshot.
    pub fn status(&self) -> SupervisorStatus {
        SupervisorStatus {
            state: self.state.load(Ordering::Relaxed),
            transitions: self.transitions.get(),
            degraded_windows: self.degraded_windows.load(Ordering::Relaxed),
            sample_stride: self.config.sample_stride,
            sampled_events: self.sampled.get(),
            rejected_events: self.rejected.get(),
            bypassed_events: self.bypassed.get(),
        }
    }

    /// Feeds one health window into the state machine, escalating or
    /// recovering at most one state per call. Returns the state after
    /// the observation.
    pub fn observe(&self, report: &HealthReport) -> SupervisorState {
        let state = self.state();
        if state != SupervisorState::Healthy {
            self.degraded_windows.fetch_add(1, Ordering::Relaxed);
        }
        let (trip_edge, next_up) = match state {
            SupervisorState::Healthy => (Some(&self.config.degrade), SupervisorState::Degraded),
            SupervisorState::Degraded => (Some(&self.config.bypass), SupervisorState::Bypass),
            SupervisorState::Bypass => (None, SupervisorState::Bypass),
        };
        // The edge a state recovers across is the edge it escalated
        // over, scaled by recover_fraction.
        let (recover_edge, next_down) = match state {
            SupervisorState::Healthy => (None, SupervisorState::Healthy),
            SupervisorState::Degraded => (Some(&self.config.degrade), SupervisorState::Healthy),
            SupervisorState::Bypass => (Some(&self.config.bypass), SupervisorState::Degraded),
        };
        if let Some(edge) = trip_edge {
            if edge.breached(report) {
                let run = self.trip_run.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= self.config.trip_streak {
                    self.transition_to(state, next_up, Some(report));
                    return next_up;
                }
            } else {
                self.trip_run.store(0, Ordering::Relaxed);
            }
        }
        if let Some(edge) = recover_edge {
            if SupervisorConfig::calm(edge, self.config.recover_fraction, report) {
                let run = self.recover_run.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= self.config.recover_streak {
                    self.transition_to(state, next_down, Some(report));
                    return next_down;
                }
            } else {
                self.recover_run.store(0, Ordering::Relaxed);
            }
        }
        state
    }

    /// Jams the machine into `state` (tests, benches, operator
    /// overrides). Counts as a transition when the state changes.
    pub fn force_state(&self, state: SupervisorState) {
        let from = self.state();
        if from != state {
            self.transition_to(from, state, None);
        }
    }

    fn transition_to(
        &self,
        from: SupervisorState,
        state: SupervisorState,
        evidence: Option<&HealthReport>,
    ) {
        self.state.store(state as u8, Ordering::Relaxed);
        self.state_gauge.set(state as u8 as u64);
        self.trip_run.store(0, Ordering::Relaxed);
        self.recover_run.store(0, Ordering::Relaxed);
        self.transitions.inc();
        if let Some(journal) = &self.journal {
            if state != SupervisorState::Healthy {
                // First departure from Healthy, in the journal's clock
                // domain (shared with telemetry when both are on).
                let _ = self.first_degraded_ns.compare_exchange(
                    0,
                    journal.now_ns().max(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
            // Escalations warn; recoveries (and operator overrides back
            // toward Healthy) are expected lifecycle.
            let severity = if state as u8 > from as u8 {
                JournalSeverity::Warn
            } else {
                JournalSeverity::Info
            };
            match evidence {
                Some(report) => journal.record(
                    severity,
                    journal_sites::SUPERVISOR_TRANSITION,
                    &[
                        ("from", from.name()),
                        ("to", state.name()),
                        ("drop_rate", &format!("{:.6}", report.drop_rate)),
                        (
                            "queue_saturation",
                            &format!("{:.6}", report.queue_saturation),
                        ),
                    ],
                ),
                None => journal.record(
                    severity,
                    journal_sites::SUPERVISOR_TRANSITION,
                    &[
                        ("from", from.name()),
                        ("to", state.name()),
                        ("forced", "true"),
                    ],
                ),
            }
        }
    }

    /// Whether an event carrying `correlation` is admitted in the
    /// current state. Also maintains the admission counters.
    fn admit_correlated(&self, correlation: u64) -> bool {
        match self.state() {
            SupervisorState::Healthy => true,
            SupervisorState::Degraded => {
                self.note_sampled(correlation.is_multiple_of(self.config.sample_stride), 1)
            }
            SupervisorState::Bypass => self.note_bypassed(1),
        }
    }

    /// Whether a correlation-less event is admitted, sampling off the
    /// shared round-robin counter.
    fn admit_uncorrelated(&self) -> bool {
        match self.state() {
            SupervisorState::Healthy => true,
            SupervisorState::Degraded => {
                let n = self.uncorrelated.fetch_add(1, Ordering::Relaxed);
                self.note_sampled(n.is_multiple_of(self.config.sample_stride), 1)
            }
            SupervisorState::Bypass => self.note_bypassed(1),
        }
    }

    fn note_sampled(&self, admitted: bool, weight: u64) -> bool {
        if admitted {
            self.sampled.add(weight);
        } else {
            self.rejected.add(weight);
        }
        admitted
    }

    fn note_bypassed(&self, weight: u64) -> bool {
        self.bypassed.add(weight);
        false
    }
}

/// An [`EventSink`] decorator that enforces the supervisor's posture in
/// front of any inner sink. Data events are admitted per the state
/// machine; barriers, snapshots, timelines and counters always delegate.
pub struct SupervisorSink {
    inner: Arc<dyn EventSink>,
    supervisor: Arc<Supervisor>,
}

impl SupervisorSink {
    /// Wraps `inner` under `supervisor`'s admission control.
    pub fn new(inner: Arc<dyn EventSink>, supervisor: Arc<Supervisor>) -> Arc<SupervisorSink> {
        Arc::new(SupervisorSink { inner, supervisor })
    }

    /// The shared state machine (feed it health windows, read its
    /// status).
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &Arc<dyn EventSink> {
        &self.inner
    }

    fn admit_origin(&self, origin: &EventOrigin) -> bool {
        match origin.correlation {
            Some(corr) => self.supervisor.admit_correlated(corr.0),
            None => self.supervisor.admit_uncorrelated(),
        }
    }

    /// Filters an activity batch by the same correlation predicate the
    /// launch path used, so sampled batches resolve against sampled
    /// bindings with zero sampling-induced orphans. `Healthy` hands the
    /// batch back untouched.
    fn filter_batch(&self, mut batch: Vec<Activity>) -> Vec<Activity> {
        match self.supervisor.state() {
            SupervisorState::Healthy => {}
            SupervisorState::Degraded => {
                let stride = self.supervisor.config.sample_stride;
                let offered = batch.len();
                batch.retain(|a| a.correlation_id.0 % stride == 0);
                self.supervisor.note_sampled(true, batch.len() as u64);
                self.supervisor
                    .note_sampled(false, (offered - batch.len()) as u64);
            }
            SupervisorState::Bypass => {
                self.supervisor.note_bypassed(batch.len() as u64);
                batch.clear();
            }
        }
        batch
    }
}

impl EventSink for SupervisorSink {
    fn gpu_launch(&self, origin: &EventOrigin, path: PathHandle, api: ApiKind) {
        if self.admit_origin(origin) {
            self.inner.gpu_launch(origin, path, api);
        }
    }

    fn activity_batch(&self, batch: Vec<Activity>) {
        let kept = self.filter_batch(batch);
        if !kept.is_empty() {
            self.inner.activity_batch(kept);
        }
    }

    fn epoch_complete(&self) {
        self.inner.epoch_complete();
    }

    fn cpu_sample(&self, origin: &EventOrigin, path: PathHandle, metric: MetricKind, value: f64) {
        if self.supervisor.admit_uncorrelated() {
            self.inner.cpu_sample(origin, path, metric, value);
        }
    }

    fn snapshot(&self) -> CallingContextTree {
        self.inner.snapshot()
    }

    fn with_snapshot(&self, f: &mut dyn FnMut(&CallingContextTree)) {
        self.inner.with_snapshot(f);
    }

    fn finish_snapshot(&self) -> CallingContextTree {
        self.inner.finish_snapshot()
    }

    fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        self.inner.timeline_snapshot()
    }

    fn counters(&self) -> SinkCounters {
        self.inner.counters()
    }

    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedSink;
    use deepcontext_core::{Frame, Interner, TimeNs};
    use sim_gpu::{ActivityKind, CorrelationId, DeviceId, StreamId};

    fn breached_report() -> HealthReport {
        HealthReport {
            drop_rate: 0.5,
            queue_saturation: 1.0,
            ..HealthReport::default()
        }
    }

    fn calm_report() -> HealthReport {
        HealthReport::default()
    }

    #[test]
    fn escalation_and_recovery_both_require_streaks() {
        let sup = Supervisor::new(
            SupervisorConfig {
                trip_streak: 2,
                recover_streak: 2,
                ..SupervisorConfig::default()
            },
            None,
            None,
        );
        assert_eq!(sup.state(), SupervisorState::Healthy);
        // One breached window is not enough...
        sup.observe(&breached_report());
        assert_eq!(sup.state(), SupervisorState::Healthy);
        // ...and a calm window resets the streak.
        sup.observe(&calm_report());
        sup.observe(&breached_report());
        assert_eq!(sup.state(), SupervisorState::Healthy);
        // Two consecutive breaches trip the edge.
        sup.observe(&breached_report());
        assert_eq!(sup.state(), SupervisorState::Degraded);
        // Recovery needs its own streak of calm windows.
        sup.observe(&calm_report());
        assert_eq!(sup.state(), SupervisorState::Degraded);
        sup.observe(&calm_report());
        assert_eq!(sup.state(), SupervisorState::Healthy);
        assert_eq!(sup.status().transitions, 2);
        assert_eq!(sup.status().degraded_windows, 2);
    }

    #[test]
    fn bypass_trips_on_the_stricter_edge_and_recovers_one_state() {
        let sup = Supervisor::new(
            SupervisorConfig {
                trip_streak: 1,
                recover_streak: 1,
                ..SupervisorConfig::default()
            },
            None,
            None,
        );
        // Heavy drops escalate twice: Healthy → Degraded → Bypass.
        sup.observe(&breached_report());
        assert_eq!(sup.state(), SupervisorState::Degraded);
        sup.observe(&breached_report());
        assert_eq!(sup.state(), SupervisorState::Bypass);
        // Recovery is stepwise, never Bypass → Healthy directly.
        sup.observe(&calm_report());
        assert_eq!(sup.state(), SupervisorState::Degraded);
        sup.observe(&calm_report());
        assert_eq!(sup.state(), SupervisorState::Healthy);
    }

    #[test]
    fn hovering_below_the_trip_edge_but_above_recovery_flaps_neither_way() {
        let sup = Supervisor::new(
            SupervisorConfig {
                trip_streak: 1,
                recover_streak: 1,
                ..SupervisorConfig::default()
            },
            None,
            None,
        );
        sup.force_state(SupervisorState::Degraded);
        // drop_rate 0.008 is below the 0.01 degrade edge but above the
        // 0.005 recovery edge (fraction 0.5): the state must hold.
        let hover = HealthReport {
            drop_rate: 0.008,
            ..HealthReport::default()
        };
        for _ in 0..5 {
            sup.observe(&hover);
        }
        assert_eq!(sup.state(), SupervisorState::Degraded);
    }

    fn kernel_launch(sink: &dyn EventSink, interner: &Arc<Interner>, corr: u64, name: &str) {
        let origin = EventOrigin {
            tid: Some(1),
            stream: Some(StreamId(0)),
            correlation: Some(CorrelationId(corr)),
        };
        let path = interner
            .paths()
            .intern(&[Frame::gpu_kernel(name, "m.so", 0x1, interner)]);
        sink.gpu_launch(&origin, path, ApiKind::LaunchKernel);
    }

    fn kernel_activity(corr: u64) -> Activity {
        Activity {
            correlation_id: CorrelationId(corr),
            device: DeviceId(0),
            kind: ActivityKind::Kernel {
                name: "k".into(),
                module: "m.so".into(),
                entry_pc: 0x1,
                start: TimeNs(0),
                end: TimeNs(100),
                stream: StreamId(0),
                blocks: 1,
                warps: 1,
                occupancy: 1.0,
                shared_mem_per_block: 0,
                registers_per_thread: 1,
            },
        }
    }

    #[test]
    fn degraded_admission_is_correlation_coherent_with_zero_orphans() {
        let interner = Interner::new();
        let inner = ShardedSink::new(interner.clone(), 2);
        let sup = Supervisor::new(
            SupervisorConfig {
                sample_stride: 4,
                ..SupervisorConfig::default()
            },
            None,
            None,
        );
        let sink = SupervisorSink::new(inner.clone(), sup.clone());
        sup.force_state(SupervisorState::Degraded);

        for corr in 0..40u64 {
            kernel_launch(sink.as_ref(), &interner, corr, "k");
        }
        let batch: Vec<Activity> = (0..40u64).map(kernel_activity).collect();
        sink.activity_batch(batch);
        sink.epoch_complete();

        let counters = sink.counters();
        // Exactly the corr % 4 == 0 records survive, every one resolved
        // against a binding the launch path also admitted.
        assert_eq!(counters.activities, 10);
        assert_eq!(counters.orphans, 0);
        let status = sup.status();
        // 10 launches + 10 activities admitted; 30 + 30 rejected.
        assert_eq!(status.sampled_events, 20);
        assert_eq!(status.rejected_events, 60);
        // The estimate consumers rescale by is the configured stride.
        assert_eq!(status.sample_stride, 4);
    }

    /// Overload phased the way it really arrives: twelve cold contexts'
    /// launches first (epoch-start setup kernels), then one hot stream
    /// floods in. Blind `DropOldest` keeps whatever fits the queue — the
    /// hot tail — so no scale factor can bring a cold context back;
    /// `Degraded` admits 1-in-stride of *every* stream and records the
    /// stride, so `admitted × stride` tracks each context's true count.
    #[test]
    fn degraded_sampling_keeps_the_cold_contexts_blind_eviction_loses() {
        use crate::async_sink::{AsyncSink, BackpressurePolicy, PipelineConfig};
        const COLD: usize = 12;
        const COLD_LAUNCHES: u64 = 12 * 1_600;
        const LAUNCHES: u64 = COLD_LAUNCHES + 40_800;
        const STRIDE: u64 = 8;

        let interner = Interner::new();
        // Context `COLD` is the hot one; kernels are told apart by PC.
        let frames: Vec<Frame> = (0..=COLD)
            .map(|ctx| Frame::gpu_kernel(&format!("k{ctx:02}"), "m.so", ctx as u64, &interner))
            .collect();
        let paths: Vec<PathHandle> = frames
            .iter()
            .map(|frame| interner.paths().intern(std::slice::from_ref(frame)))
            .collect();
        // A cold launch picks its context by a multiplicative hash of its
        // correlation id: round-robin would alias with `corr % stride`
        // and starve some contexts of admitted samples entirely.
        let context_of = |corr: u64| {
            if corr <= COLD_LAUNCHES {
                ((corr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % COLD as u64) as usize
            } else {
                COLD
            }
        };
        let mut truth = [0.0f64; COLD + 1];
        (1..=LAUNCHES).for_each(|corr| truth[context_of(corr)] += 1.0);
        let drive = |sink: &dyn EventSink| {
            for corr in 1..=LAUNCHES {
                let origin = EventOrigin {
                    tid: Some(1),
                    stream: None,
                    correlation: Some(CorrelationId(corr)),
                };
                sink.gpu_launch(&origin, paths[context_of(corr)], ApiKind::LaunchKernel);
            }
        };
        let kept = |cct: &CallingContextTree| -> Vec<f64> {
            frames
                .iter()
                .map(|frame| {
                    cct.dfs()
                        .filter(|n| cct.node(*n).frame() == frame)
                        .filter_map(|n| cct.metric(n, MetricKind::KernelLaunches))
                        .map(|stat| stat.sum)
                        .sum()
                })
                .collect()
        };

        // Paused workers make the backlog deterministic: the queue holds
        // the newest 64 launches and everything older is evicted.
        let blind = AsyncSink::new(
            ShardedSink::new(interner.clone(), 4),
            PipelineConfig {
                workers: 1,
                queue_capacity: 64,
                backpressure: BackpressurePolicy::DropOldest,
                launch_batch: 1,
                ..PipelineConfig::default()
            },
        );
        blind.pause();
        drive(blind.as_ref());
        blind.resume();
        let blind_kept = kept(&blind.finish_snapshot());
        assert_eq!(blind_kept[..COLD], [0.0; COLD], "a cold context survived");
        assert_eq!(blind_kept[COLD], 64.0);
        assert_eq!(blind.counters().dropped_events, LAUNCHES - 64);

        let sup = Supervisor::new(
            SupervisorConfig {
                sample_stride: STRIDE,
                ..SupervisorConfig::default()
            },
            None,
            None,
        );
        sup.force_state(SupervisorState::Degraded);
        let sampled = SupervisorSink::new(ShardedSink::new(interner.clone(), 4), sup.clone());
        drive(sampled.as_ref());
        let status = sup.status();
        assert_eq!(status.sampled_events, LAUNCHES / STRIDE);
        assert_eq!(status.rejected_events, LAUNCHES - LAUNCHES / STRIDE);
        for (ctx, admitted) in kept(&sampled.finish_snapshot()).iter().enumerate() {
            let error = (admitted * STRIDE as f64 - truth[ctx]).abs() / truth[ctx];
            assert!(error <= 0.25, "context {ctx}: relative error {error:.3}");
        }
    }

    #[test]
    fn bypass_discards_data_but_barriers_and_snapshots_still_flow() {
        let interner = Interner::new();
        let inner = ShardedSink::new(interner.clone(), 2);
        let sup = Supervisor::new(SupervisorConfig::default(), None, None);
        let sink = SupervisorSink::new(inner, sup.clone());

        kernel_launch(sink.as_ref(), &interner, 0, "before");
        sink.activity_batch(vec![kernel_activity(0)]);
        sup.force_state(SupervisorState::Bypass);
        kernel_launch(sink.as_ref(), &interner, 4, "during");
        sink.activity_batch(vec![kernel_activity(4)]);
        sink.epoch_complete();

        let counters = sink.counters();
        assert_eq!(counters.activities, 1, "bypassed activity was ingested");
        assert_eq!(sup.status().bypassed_events, 2);
        let cct = sink.snapshot();
        let has = |name: &str| {
            cct.dfs()
                .any(|n| cct.node(n).frame() == &Frame::gpu_kernel(name, "m.so", 0x1, &interner))
        };
        assert!(has("before"), "pre-bypass context missing from snapshot");
        assert!(!has("during"), "bypassed launch leaked into the profile");
    }

    #[test]
    fn healthy_passes_everything_through() {
        let interner = Interner::new();
        let inner = ShardedSink::new(interner.clone(), 2);
        let sup = Supervisor::new(SupervisorConfig::default(), None, None);
        let sink = SupervisorSink::new(inner, sup.clone());
        for corr in 0..10u64 {
            kernel_launch(sink.as_ref(), &interner, corr, "k");
        }
        sink.activity_batch((0..10u64).map(kernel_activity).collect());
        let origin = EventOrigin {
            tid: Some(1),
            ..EventOrigin::default()
        };
        let path = interner
            .paths()
            .intern(&[Frame::operator("cpu", &interner)]);
        sink.cpu_sample(&origin, path, MetricKind::CpuTime, 1.0);
        let counters = sink.counters();
        assert_eq!(counters.activities, 10);
        let status = sup.status();
        assert_eq!(status.sampled_events, 0);
        assert_eq!(status.rejected_events, 0);
        assert_eq!(status.bypassed_events, 0);
        assert_eq!(sink.snapshot().total(MetricKind::CpuTime), 1.0);
    }
}
