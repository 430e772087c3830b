//! The DeepContext profiler (paper §4.2).
//!
//! The profiler registers callbacks through DLMonitor, collects GPU and
//! CPU metrics, attributes them to unified call paths, and aggregates
//! them **online** into a [`CallingContextTree`] — the design that keeps
//! DeepContext's profiles small and iteration-count-independent
//! (Figure 6c/6d), in contrast to trace-based profilers.
//!
//! Collection paths:
//!
//! * **GPU kernel launches** — at each `DLMONITOR_GPU` launch callback the
//!   profiler takes the handle of the unified call path from DLMonitor
//!   and binds the correlation id to it; asynchronous activity records
//!   later resolve through that one correlation table and add `GpuTime`
//!   / occupancy / launch-shape metrics;
//! * **Instruction samples** — PC-sampling records extend the kernel's
//!   call path with [`Frame::Instruction`] nodes carrying stall-reason
//!   metrics (fine-grained analysis, §6.7);
//! * **CPU samples** — `CPU_TIME` / `REAL_TIME` interval samples and
//!   perf-style hardware-counter overflow samples attribute to the
//!   sampled thread's unified call path (§6.4).
//!
//! All of those paths terminate in an [`EventSink`]. The default sink is
//! the [`ShardedSink`]: per-thread/per-stream [`CctShard`]s (private
//! trees behind independent locks, resolving path handles through a
//! dense vector) that fold into one master tree on [`Profiler::with_cct`] / [`Profiler::finish`]. The
//! fold is cached and tracked by per-shard dirty generations, so a warm
//! snapshot re-folds only the shards that changed — and concurrent
//! producers never serialize on a global profile lock. See the
//! `deepcontext_pipeline::sharded` module docs for the routing rules and
//! the cache mechanics.
//!
//! [`CctShard`]: deepcontext_core::CctShard
//! [`Frame::Instruction`]: deepcontext_core::Frame
//! [`CallingContextTree`]: deepcontext_core::CallingContextTree

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepcontext_core::{CallingContextTree, MetricKind, ProfileDb, ProfileMeta, TimeNs};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain, EventOrigin, RegistrationId};
use sim_gpu::{ApiKind, CallbackSite, GpuRuntime, SamplingConfig};
use sim_runtime::{RuntimeEnv, SampleKind, SamplerId};

// The ingestion pipeline lives in its own crate so the profiler, the
// benchmarks and external embedders share one implementation.
pub use deepcontext_pipeline::{
    attribute_activity_metrics, default_journal_config, default_journal_enabled,
    default_telemetry_config, default_telemetry_enabled, default_timeline_config,
    default_timeline_enabled, journal_sites, DirectoryMapKind, EventSink, Failpoints, HealthReport,
    IngestionMode, Journal, JournalConfig, JournalSeverity, PipelineConfig, PipelineTelemetry,
    ShardedSink, SinkCounters, SinkOptions, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TimelineConfig, TimelineSnapshot, TimelineStats, DEFAULT_LAUNCH_BATCH,
};

/// The default ingestion shard count, honouring the
/// `DEEPCONTEXT_TEST_SHARDS` environment override CI uses to run the
/// whole suite under both the historical single-lock layout (`=1`) and
/// the sharded layout (`=16`). Falls back to 16 when unset or invalid.
pub fn default_ingestion_shards() -> usize {
    std::env::var("DEEPCONTEXT_TEST_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(16)
}

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Which call-path sources to integrate (paper's "DeepContext" vs
    /// "DeepContext Native" configurations).
    pub sources: CallPathSources,
    /// Whether DLMonitor's call-path cache is enabled.
    pub cache_enabled: bool,
    /// Collect coarse GPU metrics (time, launch shapes, occupancy).
    pub gpu_metrics: bool,
    /// Collect fine-grained instruction samples.
    pub instruction_sampling: Option<SamplingConfig>,
    /// CPU_TIME sampling interval (None = off).
    pub cpu_time_interval: Option<TimeNs>,
    /// REAL_TIME sampling interval (None = off).
    pub real_time_interval: Option<TimeNs>,
    /// Hardware-counter overflow sampling period in events (None = off).
    pub hw_counter_period: Option<u64>,
    /// GPU activity buffer capacity before auto-flush.
    pub activity_buffer_capacity: usize,
    /// Number of ingestion shards (parallel CCT shards events are routed
    /// to before any lock is taken). `1` reproduces the historical
    /// single-lock pipeline.
    pub ingestion_shards: usize,
    /// Vestigial: attribution runs inline on producers, the one mode
    /// there is. Read only by the frozen repo benchmark's `resolved:`
    /// header (see [`IngestionMode`]) and removed with it.
    pub ingestion_mode: IngestionMode,
    /// The fault-injection registry (`failpoints`), plus two vestigial
    /// fields only the benchmark's header reads (see
    /// [`PipelineConfig`]).
    pub pipeline: PipelineConfig,
    /// Whether snapshots are served from the incremental generation-
    /// tracked cache. Disabling trades warm `with_cct` latency for not
    /// holding a merged second copy of the profile — for memory-tight
    /// deployments.
    pub snapshot_cache: bool,
    /// Timeline recording: keep each kernel/memcpy record's
    /// `[start, end)` interval — tagged with its resolved CCT context —
    /// in bounded per-shard rings, for utilization / overlap / idle-gap
    /// analysis and Chrome-trace export ([`Profiler::timeline`]).
    /// Off by default (aggregate-only profiling pays nothing); the
    /// `DEEPCONTEXT_TIMELINE` environment override CI uses flips the
    /// default on.
    pub timeline: TimelineConfig,
    /// Self-telemetry: the profiler recording metrics about its own
    /// pipeline (shard-lock hold times, fold latencies, interner and
    /// ring occupancy — see [`Profiler::health_report`]) and, when the
    /// timeline is also on, its own execution as intervals on a reserved
    /// self-timeline track. Off by default; the `DEEPCONTEXT_TELEMETRY`
    /// environment override flips the default on.
    pub telemetry: TelemetryConfig,
    /// Incident journal: a bounded ring of structured lifecycle events
    /// (flush boundaries, store retries, failpoint fires) kept alongside
    /// the profile and persisted with it
    /// ([`Profiler::journal`] for the live handle). Off by default —
    /// disabled, ingestion pays nothing; the `DEEPCONTEXT_JOURNAL`
    /// environment override flips the default on.
    pub journal: JournalConfig,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sources: CallPathSources::all(),
            cache_enabled: true,
            gpu_metrics: true,
            instruction_sampling: None,
            cpu_time_interval: Some(TimeNs::from_us(100)),
            real_time_interval: None,
            hw_counter_period: None,
            activity_buffer_capacity: 4096,
            ingestion_shards: default_ingestion_shards(),
            ingestion_mode: IngestionMode::Sync,
            pipeline: PipelineConfig::default(),
            snapshot_cache: true,
            timeline: default_timeline_config(),
            telemetry: default_telemetry_config(),
            journal: default_journal_config(),
        }
    }
}

impl ProfilerConfig {
    /// The paper's default "DeepContext" configuration: Python + framework
    /// call paths, no native unwinding.
    pub fn deepcontext() -> Self {
        ProfilerConfig {
            sources: CallPathSources::without_native(),
            ..Default::default()
        }
    }

    /// The paper's "DeepContext Native" configuration: full native
    /// unwinding included.
    pub fn deepcontext_native() -> Self {
        ProfilerConfig {
            sources: CallPathSources::all(),
            ..Default::default()
        }
    }
}

/// Profiler activity counters: the sink's [`SinkCounters`] with
/// `launches` and `cpu_samples` filled in by [`Profiler::stats`].
pub type ProfilerStats = SinkCounters;

struct Inner {
    monitor: Arc<DlMonitor>,
    sink: Arc<dyn EventSink>,
    launches: AtomicU64,
    cpu_samples: AtomicU64,
}

/// The DeepContext profiler.
///
/// Construction attaches every collection path; [`Profiler::finish`]
/// detaches them and yields the profile database.
pub struct Profiler {
    inner: Arc<Inner>,
    env: RuntimeEnv,
    gpu: Arc<GpuRuntime>,
    monitor_regs: Vec<RegistrationId>,
    sampler_ids: Vec<SamplerId>,
    /// Wall-clock attach time: the start of the run's window. Timeline
    /// snapshots and [`Profiler::finish`] bound idle analysis with it.
    started: TimeNs,
    /// The pipeline's self-telemetry instruments — set by
    /// [`Profiler::attach`] when `config.telemetry` is enabled (a
    /// caller-provided sink carries its own, so
    /// [`attach_with_sink`](Profiler::attach_with_sink) leaves this
    /// `None`).
    telemetry: Option<Arc<PipelineTelemetry>>,
    /// The incident journal — set by [`Profiler::attach`] when
    /// [`ProfilerConfig::journal`] is enabled. Every pipeline layer
    /// appends to this one handle; [`Profiler::finish`] persists its
    /// snapshot into the profile.
    journal: Option<Arc<Journal>>,
}

impl Profiler {
    /// Attaches a profiler to a monitored process.
    ///
    /// `monitor` must already be attached to the framework(s) and GPU
    /// runtime (see [`DlMonitor::attach_framework`] /
    /// [`DlMonitor::attach_gpu`]).
    pub fn attach(
        config: ProfilerConfig,
        env: &RuntimeEnv,
        monitor: &Arc<DlMonitor>,
        gpu: &Arc<GpuRuntime>,
    ) -> Profiler {
        // One fault-injection registry per profiler: the sink's sites and
        // the journal's fire observer share it, and nobody else does.
        let sink = ShardedSink::with(
            monitor.interner(),
            SinkOptions {
                shards: config.ingestion_shards,
                snapshot_cache: config.snapshot_cache,
                timeline: config.timeline,
                telemetry: config.telemetry,
                journal: config.journal,
                failpoints: config.pipeline.failpoints.clone(),
            },
        );
        let telemetry = sink.telemetry().cloned();
        let journal = sink.journal().cloned();
        // Injected faults belong in the causal record next to the
        // symptoms they provoke: route every failpoint fire into the
        // journal.
        if let Some(journal) = journal.clone() {
            sink.failpoints().observe_fires(Box::new(move |name, site| {
                let at = site.map(|at| at.to_string());
                let mut fields = vec![("name", name)];
                fields.extend(at.as_deref().map(|at| ("at", at)));
                journal.record(
                    JournalSeverity::Error,
                    journal_sites::FAILPOINT_FIRE,
                    &fields,
                );
            }));
        }
        let mut profiler = Profiler::attach_with_sink(config, env, monitor, gpu, sink);
        profiler.telemetry = telemetry;
        profiler.journal = journal;
        profiler
    }

    /// Attaches a profiler delivering events to a caller-provided sink
    /// (custom aggregation pipelines, instrumented sinks in tests).
    pub fn attach_with_sink(
        config: ProfilerConfig,
        env: &RuntimeEnv,
        monitor: &Arc<DlMonitor>,
        gpu: &Arc<GpuRuntime>,
        sink: Arc<dyn EventSink>,
    ) -> Profiler {
        monitor.set_sources(config.sources);
        monitor.set_cache_enabled(config.cache_enabled);

        let inner = Arc::new(Inner {
            monitor: Arc::clone(monitor),
            sink,
            launches: AtomicU64::new(0),
            cpu_samples: AtomicU64::new(0),
        });

        let mut monitor_regs = Vec::new();

        if config.gpu_metrics {
            gpu.set_buffer_capacity(config.activity_buffer_capacity);
            gpu.set_sampling(config.instruction_sampling);

            // Launch-site interception: bind correlation ids to contexts.
            // Held weakly: a thread that delivered an event keeps the
            // monitor's subscriber list until its next one, and the sink
            // must not wait for a thread that has gone idle.
            let me = Arc::downgrade(&inner);
            monitor_regs.push(monitor.callback_register(Domain::Gpu, move |event| {
                if let DlEvent::Gpu(gpu_event) = event {
                    if gpu_event.data.site != CallbackSite::Enter {
                        return;
                    }
                    match gpu_event.data.api {
                        ApiKind::LaunchKernel | ApiKind::MemcpyAsync | ApiKind::MemAlloc => {}
                        _ => return,
                    }
                    let Some(me) = me.upgrade() else { return };
                    let path = me.monitor.callpath_for_gpu(gpu_event).handle();
                    me.sink
                        .gpu_launch(&gpu_event.origin(), path, gpu_event.data.api);
                    if gpu_event.data.api == ApiKind::LaunchKernel {
                        me.launches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));

            // Asynchronous activity delivery (buffer-completed handler).
            let me = Arc::clone(&inner);
            gpu.set_activity_handler(move |batch| {
                me.sink.activity_batch(batch);
            });
        }

        // CPU sampling (sigaction / perf-event substitutes).
        let mut sampler_ids = Vec::new();
        let cpu_sampler = |kind: SampleKind, metric: MetricKind, interval: u64| {
            let me = Arc::clone(&inner);
            env.samplers()
                .register(kind, interval, move |thread, event| {
                    let path = me.monitor.callpath_get(thread).handle();
                    let origin = EventOrigin {
                        tid: Some(thread.tid()),
                        ..EventOrigin::default()
                    };
                    me.sink.cpu_sample(
                        &origin,
                        path,
                        metric,
                        (event.count * event.interval) as f64,
                    );
                    me.cpu_samples.fetch_add(event.count, Ordering::Relaxed);
                })
        };
        if let Some(interval) = config.cpu_time_interval {
            sampler_ids.push(cpu_sampler(
                SampleKind::CpuTime,
                MetricKind::CpuTime,
                interval.as_nanos(),
            ));
        }
        if let Some(interval) = config.real_time_interval {
            sampler_ids.push(cpu_sampler(
                SampleKind::RealTime,
                MetricKind::RealTime,
                interval.as_nanos(),
            ));
        }
        if let Some(period) = config.hw_counter_period {
            sampler_ids.push(cpu_sampler(
                SampleKind::HwInstructions,
                MetricKind::HwInstructions,
                period,
            ));
            sampler_ids.push(cpu_sampler(
                SampleKind::HwCacheMisses,
                MetricKind::HwCacheMisses,
                period / 10,
            ));
        }

        Profiler {
            inner,
            env: env.clone(),
            gpu: Arc::clone(gpu),
            monitor_regs,
            sampler_ids,
            started: env.clock().now(),
            telemetry: None,
            journal: None,
        }
    }

    /// Wall-clock time the profiler attached (the run window's start).
    pub fn started(&self) -> TimeNs {
        self.started
    }

    /// Flushes completed GPU activities into the tree (call at
    /// synchronisation points / iteration boundaries). Since this drains
    /// the runtime's whole completed backlog, the sink is told the epoch
    /// is complete so deferred correlation state can retire eagerly.
    pub fn flush(&self) {
        let batch = self.gpu.flush_completed();
        if !batch.is_empty() {
            self.inner.sink.activity_batch(batch);
        }
        self.inner.sink.epoch_complete();
    }

    /// The live incident journal (`None` when
    /// [`ProfilerConfig::journal`] is off or the sink was
    /// caller-provided). Snapshot it at any point for a causally
    /// ordered record of what the pipeline went through:
    /// `profiler.journal().map(|j| j.snapshot().to_jsonl())` exports
    /// one JSON object per event for log shippers.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// A point-in-time flattening of the incident journal (`None` when
    /// journaling is off): kept events in order plus the conservation
    /// counters. [`finish`](Self::finish) persists exactly this into
    /// the profile database.
    pub fn journal_snapshot(&self) -> Option<deepcontext_core::StoredJournal> {
        self.journal.as_ref().map(|j| j.snapshot())
    }

    /// Current approximate profile memory (shards + correlation state).
    pub fn approx_bytes(&self) -> usize {
        self.inner.sink.approx_bytes()
    }

    /// The self-telemetry handle (`None` when
    /// [`ProfilerConfig::telemetry`] is off or the sink was
    /// caller-provided). Exposes the registry for exports:
    /// `profiler.telemetry().map(|t| t.handle().snapshot().to_prometheus())`.
    pub fn telemetry(&self) -> Option<&Arc<PipelineTelemetry>> {
        self.telemetry.as_ref()
    }

    /// A point-in-time copy of every self-telemetry metric (`None` when
    /// telemetry is off). Feed it to
    /// [`TelemetrySnapshot::to_prometheus`] /
    /// [`TelemetrySnapshot::to_json`] for scraping, or to
    /// [`HealthReport::from_snapshot`] for programmatic decisions.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.handle().snapshot())
    }

    /// The profiler's own vital signs — today the fold-latency summary —
    /// over the window from attach to now (`None` when telemetry is
    /// off).
    pub fn health_report(&self) -> Option<HealthReport> {
        self.telemetry
            .as_ref()
            .map(|t| HealthReport::from_snapshot(&t.handle().snapshot(), t.now_ns()))
    }

    /// Activity counters.
    pub fn stats(&self) -> ProfilerStats {
        let counters = self.inner.sink.counters();
        ProfilerStats {
            launches: self.inner.launches.load(Ordering::Relaxed),
            cpu_samples: self.inner.cpu_samples.load(Ordering::Relaxed),
            peak_bytes: counters.peak_bytes.max(self.inner.sink.approx_bytes()),
            ..counters
        }
    }

    /// Read access to the in-progress tree (analysis previews, tests).
    ///
    /// Served from the sink's incremental snapshot cache: only shards
    /// dirtied since the previous call are re-folded, and the merged tree
    /// is shared with `f` rather than cloned — repeated preview queries
    /// on a large, mostly idle profile cost O(dirty shards), not
    /// O(shards × tree). The cached master lives behind an `Arc` whose
    /// handle is taken under the cache lock and released before `f`
    /// runs, so concurrent `with_cct` readers proceed in parallel on one
    /// shared snapshot (a refresh racing a long-lived reader
    /// copies-on-write and never disturbs the reader's view). The
    /// per-shard trees stay live and keep ingesting throughout.
    pub fn with_cct<R>(&self, f: impl FnOnce(&CallingContextTree) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.inner.sink.with_snapshot(&mut |cct| {
            if let Some(f) = f.take() {
                out = Some(f(cct));
            }
        });
        out.expect("sink ran the snapshot closure")
    }

    /// The recorded timeline as of this call (`None` when
    /// [`ProfilerConfig::timeline`] is off). The snapshot shares the
    /// rings' storage — chunk handles, the open tails and the per-shard
    /// context tables, a few KiB whatever the rings hold — so a live read
    /// beside the writes is cheap to take and to drop, and it keeps
    /// showing this moment while recording goes on (chunks the rings have
    /// since evicted live as long as the snapshot does). Intervals are
    /// expanded and merged as a track is iterated. Their context ids
    /// index into the tree served by [`with_cct`](Self::with_cct) at the
    /// same quiesce point — pair the two for context-aware latency
    /// analysis:
    ///
    /// ```ignore
    /// profiler.flush();
    /// let timeline = profiler.timeline().expect("timeline enabled");
    /// let report = profiler.with_cct(|cct| {
    ///     analyzer.preview_with_timeline(cct, &timeline)
    /// });
    /// let trace = profiler.with_cct(|cct| timeline.to_chrome_trace(Some(cct)));
    /// ```
    ///
    /// Call before [`finish`](Self::finish) (which consumes the sink's
    /// state); typically right after a [`flush`](Self::flush), so the
    /// timeline covers every completed activity.
    pub fn timeline(&self) -> Option<TimelineSnapshot> {
        self.inner
            .sink
            .timeline_snapshot()
            .map(|snap| snap.with_window(self.started, self.env.clock().now()))
    }

    /// Detaches all collection and returns the finished profile.
    ///
    /// Consumes the sink's cached snapshot (after folding in any shards
    /// still dirty) instead of performing a final full fold. The run's
    /// wall-clock window is stamped into `meta.started` / `meta.ended`,
    /// and the recorded timeline (when enabled) is captured into the
    /// database — so the profile that reaches disk carries everything
    /// needed for postmortem latency analysis.
    pub fn finish(mut self, mut meta: ProfileMeta) -> ProfileDb {
        // Drain anything still buffered.
        let batch = self.gpu.flush_all();
        if !batch.is_empty() {
            self.inner.sink.activity_batch(batch);
        }
        self.inner.sink.epoch_complete();
        let ended = self.env.clock().now();
        // Capture the timeline before finish_snapshot consumes the
        // sink's cached fold state (its context tables come from it).
        // The snapshot shares the rings; `to_stored` is the one pass
        // that merges and flattens them.
        let timeline = self
            .inner
            .sink
            .timeline_snapshot()
            .map(|snap| snap.with_window(self.started, ended).to_stored());
        self.detach();
        meta.started = self.started;
        meta.ended = ended;
        // Embed the run's self-telemetry roll-up into the metadata's
        // free-form pairs: the on-disk format is untouched, header-only
        // `ProfileStore` listings still see the values, and trend queries
        // can track profiler overhead across runs.
        if let Some(telemetry) = &self.telemetry {
            let report =
                HealthReport::from_snapshot(&telemetry.handle().snapshot(), telemetry.now_ns());
            for (key, value) in [
                ("telemetry.window_ns", report.window_ns.to_string()),
                ("telemetry.fold_p99_ns", report.fold_latency.p99.to_string()),
            ] {
                meta.extra.push((key.to_string(), value));
            }
        }
        // Flatten the incident journal into the database and summarize
        // it in the header: `journal.sites` lets `ProfileStore` listings
        // filter runs by incident kind from metadata alone.
        let journal = self.journal.as_ref().map(|j| j.snapshot());
        if let Some(journal) = &journal {
            for (key, value) in [
                ("journal.events", journal.event_count().to_string()),
                ("journal.evicted", journal.evicted.to_string()),
                ("journal.sites", journal.site_summary().join(",")),
            ] {
                meta.extra.push((key.to_string(), value));
            }
        }
        let mut db = ProfileDb::new(meta, self.inner.sink.finish_snapshot());
        db.set_timeline(timeline);
        db.set_journal(journal);
        db
    }

    fn detach(&mut self) {
        for id in self.monitor_regs.drain(..) {
            self.inner.monitor.callback_unregister(id);
        }
        for id in self.sampler_ids.drain(..) {
            self.env.samplers().unregister(id);
        }
        self.gpu.set_sampling(None);
        self.gpu.set_activity_handler(|_| {});
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.detach();
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{FrameKind, StallReason, ThreadRole};
    use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
    use sim_gpu::{Activity, ActivityKind, CorrelationId, DeviceId, DeviceSpec};
    use sim_runtime::ThreadRegistry;

    struct Rig {
        env: RuntimeEnv,
        gpu: Arc<GpuRuntime>,
        engine: Arc<EagerEngine>,
        monitor: Arc<DlMonitor>,
    }

    fn rig() -> Rig {
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
        let core = FrameworkCore::new(
            env.clone(),
            Arc::clone(&gpu),
            DeviceId(0),
            "/lib/libtorch_cpu.so",
            "libtorch_cuda.so",
            TimeNs(3_000),
        );
        let engine = EagerEngine::new(Arc::clone(&core));
        let monitor = DlMonitor::init(&env, deepcontext_core::Interner::new());
        monitor.attach_framework(core.callbacks());
        monitor.attach_gpu(&gpu);
        Rig {
            env,
            gpu,
            engine,
            monitor,
        }
    }

    fn run_relu(rig: &Rig, n: usize) {
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let core = Arc::clone(rig.engine.core());
        let _py = core.python().frame(&main, "train.py", 7, "step");
        for _ in 0..n {
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 18])])
                .unwrap();
        }
        rig.gpu.synchronize(DeviceId(0)).unwrap();
    }

    #[test]
    fn gpu_time_attributes_to_kernel_context() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 5);
        profiler.flush();

        let stats = profiler.stats();
        assert_eq!(stats.launches, 5);
        assert_eq!(stats.activities, 5);

        profiler.with_cct(|cct| {
            assert!(cct.total(MetricKind::GpuTime) > 0.0);
            assert_eq!(
                cct.root_metric(MetricKind::KernelLaunches).unwrap().sum,
                5.0
            );
            // All five launches collapsed into one kernel context.
            let kernels = cct.nodes_of_kind(FrameKind::GpuKernel);
            assert_eq!(kernels.len(), 1);
            let k = kernels[0];
            assert_eq!(cct.metric(k, MetricKind::GpuTime).unwrap().count, 5);
            // Exclusive launch-shape metrics present on the kernel node only.
            assert!(cct.metric(k, MetricKind::Warps).is_some());
            assert!(cct.root_metric(MetricKind::Warps).is_none());
        });
    }

    #[test]
    fn profile_size_is_iteration_independent() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        let nodes_small = profiler.with_cct(|c| c.node_count());
        run_relu(&rig, 50);
        profiler.flush();
        let nodes_large = profiler.with_cct(|c| c.node_count());
        assert_eq!(
            nodes_small, nodes_large,
            "CCT must not grow with iterations"
        );
    }

    #[test]
    fn cpu_sampling_attributes_cpu_time() {
        let rig = rig();
        let config = ProfilerConfig {
            cpu_time_interval: Some(TimeNs::from_us(1)),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        let stats = profiler.stats();
        assert!(stats.cpu_samples > 0);
        profiler.with_cct(|cct| {
            assert!(cct.total(MetricKind::CpuTime) > 0.0);
            // CPU time lands under the Python frame.
            let py_nodes = cct.nodes_of_kind(FrameKind::Python);
            assert!(py_nodes
                .iter()
                .any(|n| cct.metric(*n, MetricKind::CpuTime).is_some()));
        });
    }

    #[test]
    fn instruction_sampling_extends_paths_with_pc_frames() {
        let rig = rig();
        let config = ProfilerConfig {
            instruction_sampling: Some(SamplingConfig {
                period: TimeNs(500),
                max_samples_per_kernel: 512,
            }),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);

        // Cast kernels carry the constant-memory-stall profile.
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let core = Arc::clone(rig.engine.core());
        let _py = core.python().frame(&main, "llama.py", 69, "rms_norm");
        rig.engine
            .op(
                Op::new(OpKind::Cast).with_target_dtype(dl_framework::DType::F16),
                &[TensorMeta::new([1 << 20])],
            )
            .unwrap();
        rig.gpu.synchronize(DeviceId(0)).unwrap();
        profiler.flush();

        let stats = profiler.stats();
        assert!(stats.instruction_samples > 0);
        profiler.with_cct(|cct| {
            let instrs = cct.nodes_of_kind(FrameKind::Instruction);
            assert!(!instrs.is_empty());
            // Instruction frames hang off the kernel frame.
            for i in &instrs {
                let parent = cct.node(*i).parent().unwrap();
                assert_eq!(cct.node(parent).frame().kind(), FrameKind::GpuKernel);
            }
            let const_stalls = cct.total(MetricKind::Stall(StallReason::ConstantMemory));
            assert!(
                const_stalls > 0.0,
                "cast kernel must show constant-memory stalls"
            );
        });
    }

    #[test]
    fn finish_produces_loadable_profile() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 4);
        let db = profiler.finish(ProfileMeta {
            workload: "relu-micro".into(),
            framework: "eager".into(),
            platform: "nvidia-a100".into(),
            iterations: 4,
            ..Default::default()
        });
        assert!(db.cct().total(MetricKind::GpuTime) > 0.0);
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.meta().workload, "relu-micro");
    }

    #[test]
    fn reads_between_a_launch_and_its_activity_batch_see_the_launch() {
        // A launch's `KernelLaunches` sample waits at its node until the
        // shard is settled, normally by the activity batch that follows.
        // Every read surface must settle first, in every layout.
        let launches = |cct: &CallingContextTree| cct.total(MetricKind::KernelLaunches);
        for (ingestion_shards, snapshot_cache) in [(1, true), (1, false), (16, true), (16, false)] {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards,
                snapshot_cache,
                timeline: TimelineConfig {
                    enabled: true,
                    ring_capacity: 1024,
                },
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            // No flush: the records stay in the runtime's buffer.
            run_relu(&rig, 3);
            assert_eq!(profiler.with_cct(launches), 3.0);
            assert_eq!(launches(&profiler.inner.sink.snapshot()), 3.0);
            run_relu(&rig, 2);
            profiler.timeline().expect("timeline enabled");
            assert_eq!(profiler.with_cct(launches), 5.0);
            assert_eq!(profiler.stats().activities, 0, "nothing was flushed");
            run_relu(&rig, 1);
            let db = profiler.finish(ProfileMeta::default());
            assert_eq!(launches(db.cct()), 6.0);
        }
    }

    #[test]
    fn peak_bytes_is_tracked_and_bounded() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 2);
        profiler.flush();
        let after_two = profiler.stats().peak_bytes;
        assert!(after_two > 0);
        run_relu(&rig, 40);
        profiler.flush();
        let after_many = profiler.stats().peak_bytes;
        // Same contexts: peak grows marginally (correlation churn), not
        // linearly with events.
        assert!(after_many < after_two * 3, "{after_many} vs {after_two}");
    }

    #[test]
    fn memcpy_and_malloc_metrics_attribute() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.gpu.malloc(DeviceId(0), 4096).unwrap();
        rig.gpu
            .memcpy_async(DeviceId(0), sim_gpu::StreamId(0), 1 << 20)
            .unwrap();
        rig.gpu.synchronize(DeviceId(0)).unwrap();
        profiler.flush();
        profiler.with_cct(|cct| {
            assert_eq!(cct.total(MetricKind::GpuAllocBytes), 4096.0);
            assert_eq!(cct.total(MetricKind::MemcpyBytes), (1 << 20) as f64);
            assert!(cct.total(MetricKind::MemcpyTime) > 0.0);
        });
    }

    #[test]
    fn detach_on_drop_stops_collection() {
        let rig = rig();
        {
            let _profiler =
                Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        }
        // After drop, launches must not reach a dead profiler (no panic,
        // no stale callbacks firing into freed state).
        run_relu(&rig, 2);
        assert!(rig.env.samplers().is_empty());
    }

    #[test]
    fn finish_releases_the_sink_while_an_idle_thread_still_holds_the_subscriber_list() {
        // DLMonitor lets a thread keep the subscriber list it last
        // delivered through until its next event; a thread that goes idle
        // after the run (the autograd thread) must not keep the sink.
        let rig = rig();
        let sink = ShardedSink::new(rig.monitor.interner(), 2);
        let released = Arc::downgrade(&sink);
        let profiler = Profiler::attach_with_sink(
            ProfilerConfig::default(),
            &rig.env,
            &rig.monitor,
            &rig.gpu,
            sink,
        );
        let (idle, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                run_relu(&rig, 2);
                idle.wait();
                done.wait();
            });
            idle.wait();
            assert_eq!(profiler.stats().launches, 2);
            drop(profiler.finish(ProfileMeta::default()));
            let held = released.upgrade().is_some();
            done.wait();
            assert!(!held, "the sink outlived finish");
        });
    }

    #[test]
    fn single_shard_config_matches_default() {
        // The sharded pipeline is an API-compatible refactor: one shard
        // (the historical single-lock design) and many shards must agree
        // on every aggregate.
        let totals = |shards: usize| {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards: shards,
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            profiler.flush();
            profiler.with_cct(|cct| {
                (
                    cct.node_count(),
                    cct.total(MetricKind::GpuTime),
                    cct.total(MetricKind::KernelLaunches),
                )
            })
        };
        assert_eq!(totals(1), totals(16));
    }

    #[test]
    fn snapshot_cache_knob_trades_memory_for_snapshot_cost() {
        let run = |snapshot_cache: bool| {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards: 16,
                snapshot_cache,
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            profiler.flush();
            // Open an "analysis session": repeated snapshot reads.
            let totals = profiler.with_cct(|c| (c.node_count(), c.total(MetricKind::GpuTime)));
            assert_eq!(
                totals,
                profiler.with_cct(|c| (c.node_count(), c.total(MetricKind::GpuTime)))
            );
            (totals, profiler.approx_bytes(), profiler.stats())
        };
        let (on_totals, on_bytes, on_stats) = run(true);
        let (off_totals, off_bytes, off_stats) = run(false);
        // Same profile either way.
        assert_eq!(on_totals, off_totals);
        // With the cache on, snapshots hold a merged second copy; off, the
        // resident footprint drops.
        assert!(
            off_bytes < on_bytes,
            "cache-off bytes {off_bytes} must undercut cache-on bytes {on_bytes}"
        );
        assert!(on_stats.snapshot_merges > 0);
        assert_eq!(
            off_stats.snapshot_merges, 0,
            "cache disabled: no incremental folds happen"
        );
    }

    #[test]
    fn warm_snapshots_skip_clean_shards_and_match_a_fresh_fold() {
        let rig = rig();
        let config = ProfilerConfig {
            ingestion_shards: 16,
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 4);
        profiler.flush();

        // Cold snapshot: every shard folded, nothing skipped yet.
        let nodes = profiler.with_cct(|c| c.node_count());
        let cold = profiler.stats();
        assert_eq!(cold.snapshot_merges, 16);
        assert_eq!(cold.shards_skipped, 0);

        // Warm snapshot with no ingestion in between: all shards skipped.
        assert_eq!(profiler.with_cct(|c| c.node_count()), nodes);
        let warm = profiler.stats();
        assert_eq!(warm.snapshot_merges, 16, "no shard re-folded");
        assert_eq!(warm.shards_skipped, 16);

        // More ingestion dirties the touched shards; the cached view keeps
        // aggregating correctly (same contexts, doubled-ish samples).
        run_relu(&rig, 4);
        profiler.flush();
        profiler.with_cct(|cached| {
            assert_eq!(cached.node_count(), nodes);
            assert_eq!(cached.root_metric(MetricKind::GpuTime).unwrap().count, 8);
        });
        let after = profiler.stats();
        assert!(after.snapshot_merges > warm.snapshot_merges);
        assert!(after.shards_skipped > warm.shards_skipped);
    }

    #[test]
    fn finish_consumes_the_cache_with_all_data_present() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        // Prime the cache mid-run, then keep ingesting before finish.
        let mid_total = profiler.with_cct(|c| c.total(MetricKind::GpuTime));
        assert!(mid_total > 0.0);
        run_relu(&rig, 2);
        let db = profiler.finish(ProfileMeta {
            workload: "relu-micro".into(),
            framework: "eager".into(),
            platform: "nvidia-a100".into(),
            iterations: 5,
            ..Default::default()
        });
        // The consumed cache reflects everything, including activities
        // flushed by finish itself after the last with_cct.
        assert_eq!(
            db.cct()
                .root_metric(MetricKind::KernelLaunches)
                .unwrap()
                .sum,
            5.0
        );
        assert_eq!(
            db.cct()
                .metric(db.cct().root(), MetricKind::GpuTime)
                .unwrap()
                .count,
            5
        );
    }

    #[test]
    fn finish_stamps_window_and_persists_the_timeline() {
        let rig = rig();
        let config = ProfilerConfig {
            timeline: TimelineConfig {
                enabled: true,
                ring_capacity: 1024,
            },
            // Pinned off regardless of the DEEPCONTEXT_TELEMETRY matrix:
            // this test counts exact workload intervals, which the
            // self-timeline tracks would add to.
            telemetry: TelemetryConfig::default(),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        let started = profiler.started();
        run_relu(&rig, 4);
        profiler.flush();

        // Live snapshots carry the run window, so leading idle between
        // attach and the first launch is measurable.
        let live = profiler.timeline().expect("timeline enabled");
        let (ws, we) = live.window().expect("window attached");
        assert_eq!(ws, started);
        assert!(we >= ws);

        let db = profiler.finish(ProfileMeta {
            workload: "relu-timeline".into(),
            ..Default::default()
        });
        assert_eq!(db.meta().started, started);
        assert!(db.meta().ended >= db.meta().started);
        let stored = db.timeline().expect("timeline persisted");
        assert_eq!(stored.interval_count(), 4);
        assert_eq!(stored.window, Some((db.meta().started, db.meta().ended)));
        // Interval names resolve from the captured table, and contexts
        // point into the master tree the db carries.
        for iv in &stored.intervals {
            assert!(stored.name_of(iv.name).is_some());
            let ctx = iv.context.expect("context resolved");
            assert!(ctx.index() < db.cct().node_count());
        }

        // The whole container round-trips through the on-disk format.
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.timeline(), db.timeline());
        assert_eq!(back.meta(), db.meta());
    }

    #[test]
    fn orphaned_activities_are_counted_and_kept() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 1);
        profiler.flush();
        assert_eq!(profiler.stats().orphans, 0);

        // Fabricate a record whose correlation the profiler never saw.
        let orphan = Activity {
            correlation_id: CorrelationId(u64::MAX),
            device: DeviceId(0),
            kind: ActivityKind::Malloc {
                bytes: 512,
                at: TimeNs(1),
            },
        };
        profiler.inner.sink.activity_batch(vec![orphan]);
        let stats = profiler.stats();
        assert_eq!(stats.orphans, 1);
        // The data is attributed under the catch-all, not dropped.
        profiler.with_cct(|cct| {
            assert_eq!(cct.total(MetricKind::GpuAllocBytes), 512.0);
        });
    }
}
