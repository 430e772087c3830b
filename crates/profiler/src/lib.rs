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
//!   later resolve through that one correlation table and add their
//!   metrics (`GpuTime` for a kernel, bytes and time for a memcpy);
//! * **Instruction samples** — PC-sampling records extend the kernel's
//!   call path with [`Frame::Instruction`] nodes carrying stall-reason
//!   metrics (fine-grained analysis, §6.7);
//! * **CPU samples** — `CPU_TIME` / `REAL_TIME` interval samples and
//!   perf-style hardware-counter overflow samples attribute to the
//!   sampled thread's unified call path (§6.4).
//!
//! All of those paths call one [`ShardedSink`] directly:
//! per-stream (launches, records) and per-thread (CPU samples)
//! [`CctShard`]s (private trees behind independent locks, resolving path
//! handles through a dense vector, each holding its streams'
//! correlations) that fold into
//! one master tree on [`Profiler::with_cct`] / [`Profiler::finish`]. The
//! fold is cached and tracked by per-shard dirty generations, so a warm
//! snapshot re-folds only the shards that changed — and concurrent
//! producers never serialize on a global profile lock. See
//! [`ShardedSink`]'s docs for the routing rules and the cache mechanics.
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
use sim_gpu::{ApiKind, GpuRuntime, SamplingConfig};
use sim_runtime::{RuntimeEnv, SampleKind, SamplerId};

// The ingestion pipeline lives in its own crate so the profiler, the
// benchmarks and external embedders share one implementation.
pub use deepcontext_pipeline::{
    DirectoryMapKind, IngestionMode, PipelineConfig, ShardedSink, SinkCounters, SinkOptions,
    TimelineConfig, TimelineSnapshot, TimelineStats, DEFAULT_LAUNCH_BATCH, DEFAULT_SHARDS,
};

/// GPU activity records the runtime buffers before it auto-flushes them
/// to the profiler.
const ACTIVITY_BUFFER_CAPACITY: usize = 4096;

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Which call-path sources to integrate (paper's "DeepContext" vs
    /// "DeepContext Native" configurations).
    pub sources: CallPathSources,
    /// Collect fine-grained instruction samples. Both fields of the
    /// [`SamplingConfig`] must be non-zero ([`Profiler::attach`] panics
    /// otherwise): either at zero would sample nothing.
    pub instruction_sampling: Option<SamplingConfig>,
    /// CPU_TIME sampling interval (None = off).
    pub cpu_time_interval: Option<TimeNs>,
    /// REAL_TIME sampling interval (None = off).
    pub real_time_interval: Option<TimeNs>,
    /// Hardware-counter overflow sampling period in events (None = off):
    /// retired instructions sample every `period` events, cache misses
    /// every `period / 10` (at least 1).
    pub hw_counter_period: Option<u64>,
    /// Number of ingestion shards (parallel CCT shards events are routed
    /// to before any lock is taken), [`DEFAULT_SHARDS`] by default. `1`
    /// reproduces the historical single-lock pipeline.
    pub ingestion_shards: usize,
    /// Vestigial: attribution runs inline on producers, the one mode
    /// there is. Read only by the frozen repo benchmark's `resolved:`
    /// header (see [`IngestionMode`]) and removed with it.
    pub ingestion_mode: IngestionMode,
    /// Two vestigial fields only the benchmark's header reads (see
    /// [`PipelineConfig`]).
    pub pipeline: PipelineConfig,
    /// Timeline recording: keep each kernel/memcpy record's
    /// `[start, end)` interval — tagged with its resolved CCT context —
    /// in bounded per-shard rings, for utilization / overlap / idle-gap
    /// analysis and Chrome-trace export ([`Profiler::timeline`]).
    /// Off by default: aggregate-only profiling pays nothing for it.
    pub timeline: TimelineConfig,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sources: CallPathSources::all(),
            instruction_sampling: None,
            cpu_time_interval: Some(TimeNs::from_us(100)),
            real_time_interval: None,
            hw_counter_period: None,
            ingestion_shards: DEFAULT_SHARDS,
            ingestion_mode: IngestionMode::Sync,
            pipeline: PipelineConfig::default(),
            timeline: TimelineConfig::default(),
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
/// `cpu_samples` filled in by [`Profiler::stats`].
pub type ProfilerStats = SinkCounters;

struct Inner {
    monitor: Arc<DlMonitor>,
    sink: Arc<ShardedSink>,
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
    /// The launch-site callback; `None` once detached.
    launch_callback: Option<RegistrationId>,
    sampler_ids: Vec<SamplerId>,
    /// Wall-clock attach time: the start of the run's window. Timeline
    /// snapshots and [`Profiler::finish`] bound idle analysis with it.
    started: TimeNs,
}

impl Profiler {
    /// Attaches a profiler to a monitored process.
    ///
    /// `monitor` must already be attached to the framework(s) and GPU
    /// runtime (see [`DlMonitor::attach_framework`] /
    /// [`DlMonitor::attach_gpu`]).
    ///
    /// # Panics
    ///
    /// When [`ProfilerConfig::instruction_sampling`] asks for sampling
    /// with a zero `period` or `max_samples_per_kernel`, naming the
    /// field: such a run would collect no instruction sample, silently.
    pub fn attach(
        config: ProfilerConfig,
        env: &RuntimeEnv,
        monitor: &Arc<DlMonitor>,
        gpu: &Arc<GpuRuntime>,
    ) -> Profiler {
        if let Some(sampling) = &config.instruction_sampling {
            assert!(
                sampling.period.as_nanos() > 0,
                "ProfilerConfig::instruction_sampling: `period` is 0, so no kernel would be sampled"
            );
            assert!(
                sampling.max_samples_per_kernel > 0,
                "ProfilerConfig::instruction_sampling: `max_samples_per_kernel` is 0, \
                 so no kernel would keep a sample"
            );
        }
        monitor.set_sources(config.sources);

        let inner = Arc::new(Inner {
            monitor: Arc::clone(monitor),
            sink: ShardedSink::with(
                monitor.interner(),
                SinkOptions {
                    shards: config.ingestion_shards,
                    timeline: config.timeline,
                },
            ),
            cpu_samples: AtomicU64::new(0),
        });

        gpu.set_buffer_capacity(ACTIVITY_BUFFER_CAPACITY);
        gpu.set_sampling(config.instruction_sampling);

        // Launch-site interception: bind correlation ids to contexts.
        // Held weakly: a thread that delivered an event keeps the
        // monitor's subscriber list until its next one, and the sink
        // must not wait for a thread that has gone idle.
        let me = Arc::downgrade(&inner);
        let launch_callback = monitor.callback_register(Domain::Gpu, move |event| {
            let DlEvent::Gpu(call) = event else { return };
            match call.data.api {
                ApiKind::LaunchKernel | ApiKind::MemcpyAsync | ApiKind::MemAlloc => {}
                _ => return,
            }
            let Some(me) = me.upgrade() else { return };
            let path = me.monitor.callpath_for_gpu(call).handle();
            me.sink.gpu_launch(&call.origin(), path, call.data.api);
        });

        // Asynchronous activity delivery (buffer-completed handler).
        let me = Arc::clone(&inner);
        gpu.set_activity_handler(move |batch| {
            me.sink.activity_batch(batch);
        });

        // CPU sampling (sigaction / perf-event substitutes).
        let cpu_sampler = |(kind, metric, interval): (SampleKind, MetricKind, Option<u64>)| {
            // Held weakly, like the launch callback.
            let me = Arc::downgrade(&inner);
            let id = env
                .samplers()
                .register(kind, interval?, move |thread, event| {
                    let Some(me) = me.upgrade() else { return };
                    let path = me.monitor.callpath_get(thread).handle();
                    let origin = EventOrigin {
                        tid: Some(thread.tid()),
                        ..EventOrigin::default()
                    };
                    let value = (event.count * event.interval) as f64;
                    me.sink.cpu_sample(&origin, path, metric, value);
                    me.cpu_samples.fetch_add(event.count, Ordering::Relaxed);
                });
            Some(id)
        };
        let cpu_time = config.cpu_time_interval.map(TimeNs::as_nanos);
        let real_time = config.real_time_interval.map(TimeNs::as_nanos);
        let hw = config.hw_counter_period;
        let misses = hw.map(|period| (period / 10).max(1));
        let samplers = [
            (SampleKind::CpuTime, MetricKind::CpuTime, cpu_time),
            (SampleKind::RealTime, MetricKind::RealTime, real_time),
            (SampleKind::HwInstructions, MetricKind::HwInstructions, hw),
            (SampleKind::HwCacheMisses, MetricKind::HwCacheMisses, misses),
        ];
        let sampler_ids = samplers.into_iter().filter_map(cpu_sampler).collect();

        Profiler {
            inner,
            env: env.clone(),
            gpu: Arc::clone(gpu),
            launch_callback: Some(launch_callback),
            sampler_ids,
            started: env.clock().now(),
        }
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

    /// Activity counters — the profiler's one report about itself: what
    /// it ingested, what it holds (`peak_bytes`) and what its reads cost
    /// (`fold_ns`, `snapshot_merges`, `shards_skipped`). Every counter is
    /// always on. `launches` is the sink's: the `KernelLaunches` total
    /// of its trees.
    pub fn stats(&self) -> ProfilerStats {
        let counters = self.inner.sink.counters();
        ProfilerStats {
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
        self.inner.sink.with_snapshot(f)
    }

    /// The recorded timeline as of this call (`None` when
    /// [`ProfilerConfig::timeline`] is off). The snapshot shares the
    /// rings' storage — chunk handles, the open tails and one `PathId →
    /// NodeId` table, a few KiB whatever the rings hold — so a live read
    /// beside the writes is cheap to take and to drop, and it keeps
    /// showing this moment while recording goes on (chunks the rings have
    /// since evicted live as long as the snapshot does). Intervals are
    /// expanded as a track is iterated.
    ///
    /// Every interval's context resolves, however the read interleaves
    /// with recording: each shard is folded and has its ring shared under
    /// one acquisition of its lock, so the context of every interval the
    /// snapshot holds is `Some` and indexes into the tree served by
    /// [`with_cct`](Self::with_cct) from then on — pair the two for
    /// context-aware latency analysis, as `examples/timeline_trace.rs`
    /// does with `preview_with_timeline` and `to_chrome_trace`.
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
        // sink's cached fold (its context table comes from it).
        // The snapshot shares the rings; `to_stored` copies each track
        // once into the slice the profile keeps.
        let timeline = self
            .inner
            .sink
            .timeline_snapshot()
            .map(|snap| snap.with_window(self.started, ended).to_stored());
        self.detach();
        meta.started = self.started;
        meta.ended = ended;
        let mut db = ProfileDb::new(meta, self.inner.sink.finish_snapshot());
        db.set_timeline(timeline);
        db
    }

    fn detach(&mut self) {
        if let Some(id) = self.launch_callback.take() {
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
            // Inclusive: the root holds the kernel node's samples.
            assert_eq!(cct.root_metric(MetricKind::GpuTime).unwrap().count, 5);
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
    fn real_time_and_hw_counter_samplers_attribute_their_kinds() {
        let rig = rig();
        let config = ProfilerConfig {
            cpu_time_interval: None,
            real_time_interval: Some(TimeNs::from_us(1)),
            hw_counter_period: Some(100),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        // A sample attributes `interval` of its kind, so each kind's root
        // total over its interval is the samples it took.
        let samples = profiler.with_cct(|cct| {
            [
                (MetricKind::RealTime, 1_000.0),
                (MetricKind::HwInstructions, 100.0),
                (MetricKind::HwCacheMisses, 10.0),
            ]
            .into_iter()
            .map(|(kind, interval)| {
                let total = cct.total(kind);
                assert!(total > 0.0, "{kind}");
                total / interval
            })
            .sum::<f64>()
        });
        assert_eq!(profiler.stats().cpu_samples as f64, samples);
    }

    #[test]
    fn a_hw_counter_period_below_ten_samples_cache_misses_every_event() {
        let rig = rig();
        let config = ProfilerConfig {
            hw_counter_period: Some(5),
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 1);
        profiler.with_cct(|cct| assert!(cct.total(MetricKind::HwCacheMisses) > 0.0));
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
        // Every read surface must settle first, in every layout, and
        // `stats()` counts what the tree holds.
        let launches = |cct: &CallingContextTree| cct.total(MetricKind::KernelLaunches);
        let read = |profiler: &Profiler| {
            let total = profiler.with_cct(launches);
            assert_eq!(profiler.stats().launches as f64, total);
            total
        };
        for ingestion_shards in [1, 16] {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards,
                timeline: TimelineConfig {
                    enabled: true,
                    ring_capacity: 1024,
                },
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            // No flush: the records stay in the runtime's buffer.
            run_relu(&rig, 3);
            assert_eq!(read(&profiler), 3.0);
            assert_eq!(launches(&profiler.inner.sink.snapshot()), 3.0);
            run_relu(&rig, 2);
            profiler.timeline().expect("timeline enabled");
            assert_eq!(read(&profiler), 5.0);
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
        // A thread keeps each subscriber list it last delivered through
        // (DLMonitor's, the CPU samplers') until its next delivery; a
        // thread that goes idle after the run (the autograd thread) must
        // not keep the sink through either.
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        let released = Arc::downgrade(&profiler.inner.sink);
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
        // Neither the layout nor the timeline tap changes the profile:
        // one shard (the historical single-lock design) or many,
        // recording intervals or not, every cell finishes the same tree.
        let run = |ingestion_shards: usize, enabled: bool| {
            let rig = rig();
            let config = ProfilerConfig {
                ingestion_shards,
                timeline: TimelineConfig {
                    enabled,
                    ..TimelineConfig::default()
                },
                ..ProfilerConfig::default()
            };
            let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
            run_relu(&rig, 6);
            let main = rig.env.threads().spawn(ThreadRole::Main);
            let _bind = ThreadRegistry::bind_current(&main);
            rig.gpu.malloc(DeviceId(0), 4096).unwrap();
            for _ in 0..2 {
                rig.gpu
                    .memcpy_async(DeviceId(0), sim_gpu::StreamId(0), 1 << 20)
                    .unwrap();
            }
            rig.gpu.synchronize(DeviceId(0)).unwrap();
            profiler.flush();
            let stats = profiler.stats();
            let db = profiler.finish(ProfileMeta::default());
            (stats, db)
        };
        let (_, default) = run(DEFAULT_SHARDS, false);
        for shards in [1, 16] {
            for enabled in [false, true] {
                let (stats, db) = run(shards, enabled);
                let cell = format!("{shards} shards, timeline {enabled}");
                assert_eq!(db.cct().semantic_diff(default.cct()), None, "{cell}");
                // Six kernels, two memcpys and one malloc.
                assert_eq!((stats.launches, stats.activities), (6, 9), "{cell}");
                let intervals = if enabled { 6 + 2 } else { 0 };
                assert_eq!(stats.timeline_intervals, intervals, "{cell}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "instruction_sampling: `period` is 0")]
    fn instruction_sampling_with_a_zero_period_panics_at_attach() {
        let rig = rig();
        let config = ProfilerConfig {
            instruction_sampling: Some(SamplingConfig {
                period: TimeNs(0),
                ..SamplingConfig::default()
            }),
            ..ProfilerConfig::default()
        };
        Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    }

    #[test]
    #[should_panic(expected = "instruction_sampling: `max_samples_per_kernel` is 0")]
    fn instruction_sampling_keeping_no_sample_panics_at_attach() {
        let rig = rig();
        let config = ProfilerConfig {
            instruction_sampling: Some(SamplingConfig {
                max_samples_per_kernel: 0,
                ..SamplingConfig::default()
            }),
            ..ProfilerConfig::default()
        };
        Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
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
    fn fold_ns_counts_reads_that_fold_and_only_those() {
        let rig = rig();
        let profiler =
            Profiler::attach(ProfilerConfig::default(), &rig.env, &rig.monitor, &rig.gpu);
        run_relu(&rig, 3);
        profiler.flush();
        assert_eq!(profiler.stats().fold_ns, 0, "nothing read yet");

        profiler.with_cct(|c| c.node_count());
        let folded = profiler.stats().fold_ns;
        assert!(folded > 0, "a cold read folds every shard");

        profiler.with_cct(|c| c.node_count());
        assert_eq!(
            profiler.stats().fold_ns,
            folded,
            "a clean read folds nothing"
        );

        run_relu(&rig, 2);
        profiler.flush();
        profiler.with_cct(|c| c.node_count());
        assert!(
            profiler.stats().fold_ns > folded,
            "new data dirtied a shard"
        );
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
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
        let started = profiler.started;
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
        for iv in stored.tracks.iter().flat_map(|(_, slots)| slots.iter()) {
            assert!(stored.names.get(iv.name.index() as usize).is_some());
            let ctx = iv.context().expect("context resolved");
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
