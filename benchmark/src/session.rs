//! One session: a fresh `TestBed`, one rung's configuration, warm-up,
//! the timed iterations, and — for rungs that attach the profiler — the
//! path from the last iteration to a rendered report, with the output
//! checks.
//!
//! The system is driven only through public functions of its crates; in
//! particular nothing here implements `EventSink` or constructs a
//! pipeline sink, so a PR that reshapes the ingestion layer can still
//! be judged by this file.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use deepcontext_analyzer::{Analyzer, ProfileStore};
use deepcontext_baselines::{TraceProfiler, TraceStyle};
use deepcontext_core::{Interner, MetricKind, ProfileDb, ProfileMeta, TimeNs};
use deepcontext_flamegraph::{FlameGraph, SvgOptions};
use deepcontext_profiler::{Profiler, ProfilerStats};
use deepcontext_timeline::TimelineSnapshot;
use dl_models::{RunStats, TestBed, Workload, WorkloadOptions};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain, MonitorStats};
use sim_gpu::{ApiKind, CallbackSite, DeviceSpec};

use crate::spans::Recorder;
use crate::workloads::{Engine, Rung, WorkloadSpec};

/// `r2` times one `callpath_for_gpu` call in this many: timing every
/// call would add two clock reads and a lock to each launch — about a
/// tenth of what the rung measures — and charge it to call-path
/// assembly.
const CALLPATH_TIMED_EVERY: u64 = 16;

/// What the `r2` subscriber saw.
#[derive(Debug, Default, Clone)]
pub struct CallPathSamples {
    /// Duration of each timed `callpath_for_gpu` call.
    pub ns: Vec<f64>,
    /// Frames in each timed call's path.
    pub frames: Vec<f64>,
}

/// Facts about the rendered report, for the count-valued layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportFacts {
    pub cct_nodes: usize,
    pub issues: usize,
    pub flame_nodes: usize,
    pub previews: u32,
}

/// Everything one session measured.
pub struct Outcome {
    pub rung: Rung,
    /// The recorder's identifier for this session's spans.
    pub session: u32,
    /// Test bed + attach + warm-up.
    pub setup_ns: u64,
    /// Wall time of each chunk of the timed iterations, in run order
    /// (a chunk's live read, on rungs that take them, included).
    pub chunk_ns: Vec<u64>,
    /// Last timed iteration → rendered report; zero on rungs without one.
    pub report_ns: u64,
    /// Kernels launched by the timed iterations.
    pub kernels: u64,
    /// Kernels launched since attach (warm-up + timed): what
    /// `ProfilerStats::launches` must equal.
    pub kernels_since_attach: u64,
    /// Virtual wall time of the timed iterations.
    pub virtual_wall: TimeNs,
    pub profiler: Option<ProfilerStats>,
    pub monitor: Option<MonitorStats>,
    pub callpath: Option<CallPathSamples>,
    /// `TraceProfiler::approx_bytes` on `rT`.
    pub trace_bytes: usize,
    pub facts: ReportFacts,
    /// The profile as loaded back from the store (kept on request, for
    /// the cross-session diff).
    pub loaded: Option<ProfileDb>,
    /// Operations attempted: activity records delivered plus output
    /// checks made.
    pub attempted: u64,
    /// Operations failed: orphans, drops, poisoned events, launches the
    /// profiler missed, and output checks that did not hold.
    pub failed: u64,
}

/// What the simulated platform did during the timed iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulated {
    pub kernels: u64,
    pub virtual_wall: TimeNs,
}

impl Outcome {
    pub fn simulated(&self) -> Simulated {
        Simulated {
            kernels: self.kernels,
            virtual_wall: self.virtual_wall,
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

struct Bed<'a> {
    spec: &'a WorkloadSpec,
    bed: TestBed,
    model: Box<dyn Workload>,
    opts: WorkloadOptions,
}

impl<'a> Bed<'a> {
    fn new(spec: &'a WorkloadSpec) -> Self {
        Bed {
            spec,
            bed: TestBed::with_devices(vec![DeviceSpec::a100_sxm(); spec.devices]),
            model: (spec.model)(),
            opts: WorkloadOptions::default(),
        }
    }

    fn run(&self, iterations: u32) -> RunStats {
        match self.spec.engine {
            Engine::Eager => self
                .bed
                .run_eager(self.model.as_ref(), &self.opts, iterations),
            Engine::Jit => self
                .bed
                .run_jit(self.model.as_ref(), &self.opts, iterations),
        }
        .expect("benchmark workloads never fail to run")
    }

    fn monitor(&self) -> Arc<DlMonitor> {
        let monitor = DlMonitor::init(self.bed.env(), Interner::new());
        let callbacks = match self.spec.engine {
            Engine::Eager => self.bed.eager().core().callbacks(),
            Engine::Jit => self.bed.jit().core().callbacks(),
        };
        monitor.attach_framework(callbacks);
        monitor.attach_gpu(self.bed.gpu());
        monitor
    }
}

/// Records one failed output check.
fn check(outcome: &mut Outcome, spec: &WorkloadSpec, holds: bool, what: impl FnOnce() -> String) {
    outcome.attempted += 1;
    if !holds {
        outcome.failed += 1;
        eprintln!(
            "CHECK FAILED [{} {}]: {}",
            spec.name,
            outcome.rung.label(),
            what()
        );
    }
}

/// One session in flight: a fresh test bed under one rung's
/// configuration. The sessions of a round are set up together, advance
/// chunk by chunk in turn, and are finished together (see `round.rs`).
pub struct Session<'a> {
    bed: Bed<'a>,
    monitor: Option<Arc<DlMonitor>>,
    probe: Option<CallPathProbe>,
    trace: Option<TraceProfiler>,
    profiler: Option<Profiler>,
    warmup_kernels: u64,
    outcome: Outcome,
}

impl<'a> Session<'a> {
    /// Set-up: test bed, whatever the rung attaches, warm-up iterations.
    pub fn setup(spec: &'a WorkloadSpec, rung: Rung, rec: &Recorder) -> Self {
        let id = rec.new_session();
        let setup_start = Instant::now();
        let bed = rec.time(id, "substrate.testbed", || Bed::new(spec));
        let monitor = (rung != Rung::Bare && rung != Rung::Trace)
            .then(|| rec.time(id, "dlmonitor.attach", || bed.monitor()));
        let mut probe = None;
        let mut trace = None;
        let mut profiler = None;
        if rung.has_profiler() {
            let monitor = monitor.as_ref().expect("rung attaches the monitor");
            profiler = Some(rec.time(id, "profiler.attach", || {
                Profiler::attach(spec.config(rung), bed.bed.env(), monitor, bed.bed.gpu())
            }));
        } else if rung == Rung::Trace {
            let (style, callbacks) = match spec.engine {
                Engine::Eager => (TraceStyle::Torch, bed.bed.eager().core().callbacks()),
                Engine::Jit => (TraceStyle::Jax, bed.bed.jit().core().callbacks()),
            };
            let mut t = TraceProfiler::new(style);
            t.attach_framework(callbacks, bed.bed.env().clock().clone());
            t.attach_gpu(bed.bed.gpu());
            trace = Some(t);
        } else if let Some(monitor) = &monitor {
            // `r1`/`r2`: what `Profiler::attach` will select from `r3` on.
            monitor.set_sources(CallPathSources::without_native());
            if rung == Rung::CallPath {
                probe = Some(CallPathProbe::register(monitor));
            }
        }
        let warmup = rec.time(id, "substrate.warmup", || bed.run(spec.warmup()));
        Session {
            bed,
            monitor,
            probe,
            trace,
            profiler,
            warmup_kernels: warmup.kernels,
            outcome: Outcome {
                rung,
                session: id,
                setup_ns: elapsed_ns(setup_start),
                chunk_ns: Vec::new(),
                report_ns: 0,
                kernels: 0,
                kernels_since_attach: 0,
                virtual_wall: TimeNs::ZERO,
                profiler: None,
                monitor: None,
                callpath: None,
                trace_bytes: 0,
                facts: ReportFacts::default(),
                loaded: None,
                attempted: 0,
                failed: 0,
            },
        }
    }

    pub fn rung(&self) -> Rung {
        self.outcome.rung
    }

    /// Runs and times the next `iterations` timed iterations, followed
    /// — when `live_read` is set and this rung takes them — by a live
    /// read, which is part of what the chunk cost.
    pub fn run_chunk(&mut self, iterations: u32, live_read: bool, rec: &Recorder) {
        let id = self.outcome.session;
        let start = Instant::now();
        let stats = rec.time(id, "substrate.run", || self.bed.run(iterations));
        if live_read && self.bed.spec.live_reads(self.outcome.rung) {
            let profiler = self
                .profiler
                .as_ref()
                .expect("live rungs attach the profiler");
            rec.time(id, "profiler.preview", || read_live(profiler, id, rec));
            self.outcome.facts.previews += 1;
        }
        self.outcome.chunk_ns.push(elapsed_ns(start));
        self.outcome.kernels += stats.kernels;
        self.outcome.virtual_wall += stats.wall;
    }

    /// After the last iteration: detach, and for profiler rungs flush,
    /// finish and check the profile. `report` selects the full report
    /// path; `keep_loaded` hands the loaded profile back to the caller.
    pub fn finish(
        self,
        rec: &Recorder,
        store_dir: &Path,
        report: bool,
        keep_loaded: bool,
    ) -> Outcome {
        let spec = self.bed.spec;
        let mut outcome = self.outcome;
        let id = outcome.session;
        outcome.kernels_since_attach = self.warmup_kernels + outcome.kernels;
        if let Some(probe) = self.probe {
            let monitor = self.monitor.as_ref().expect("rung attaches the monitor");
            outcome.callpath = Some(probe.finish(monitor));
        }
        if let Some(mut trace) = self.trace {
            trace.flush();
            outcome.trace_bytes = trace.approx_bytes();
            trace.detach();
        }
        if let Some(profiler) = self.profiler {
            let monitor = self.monitor.as_ref().expect("rung attaches the monitor");
            let report_start = Instant::now();
            rec.time(id, "profiler.flush", || profiler.flush());
            // Peak profile bytes are read at this final flush (Fig. 6c/6d).
            let pstats = profiler.stats();
            outcome.monitor = Some(monitor.stats());
            let meta = ProfileMeta {
                workload: spec.name.into(),
                framework: spec.engine.tag().into(),
                platform: DeviceSpec::a100_sxm().platform_tag(),
                iterations: u64::from(spec.warmup() + spec.iterations),
                ..Default::default()
            };
            let db = rec.time(id, "profiler.finish", || profiler.finish(meta));
            if report {
                render_report(spec, &db, rec, store_dir, keep_loaded, &mut outcome);
                outcome.report_ns = elapsed_ns(report_start);
            }
            check_profile(spec, &pstats, &db, &mut outcome);
            outcome.profiler = Some(pstats);
        }
        if let Some(monitor) = &self.monitor {
            // Break the monitor ↔ framework/GPU callback cycles so the
            // test bed's memory is returned before the next round builds
            // its own (peak RSS must not depend on the round count).
            monitor.finalize();
        }
        outcome
    }
}

/// A live read beside the writes: quiesce, analyse the cached snapshot,
/// assemble the timeline.
fn read_live(profiler: &Profiler, id: u32, rec: &Recorder) {
    rec.time(id, "profiler.preview.flush", || profiler.flush());
    let issues = rec.time(id, "analyzer.preview", || {
        let analyzer = Analyzer::with_default_rules();
        profiler.with_cct(|cct| analyzer.preview(cct).len())
    });
    let timeline = rec.time(id, "timeline.live_snapshot", || profiler.timeline());
    black_box((issues, timeline));
}

/// finish → save → load → analyse → flame graphs → SVG (→ Chrome trace
/// when the profile carries a timeline), plus the round-trip checks.
fn render_report(
    spec: &WorkloadSpec,
    db: &ProfileDb,
    rec: &Recorder,
    store_dir: &Path,
    keep_loaded: bool,
    outcome: &mut Outcome,
) {
    let id = outcome.session;
    let store = ProfileStore::open(store_dir).expect("store directory is creatable");
    let run_id = rec.time(id, "analyzer.store_save", || {
        store.save(db).expect("store save")
    });
    let loaded = rec.time(id, "analyzer.store_load", || {
        store.load(&run_id).expect("store load")
    });
    let report = rec.time(id, "analyzer.analyze", || {
        Analyzer::with_default_rules().analyze(&loaded)
    });
    let top_down = rec.time(id, "flamegraph.top_down", || {
        FlameGraph::top_down(loaded.cct(), MetricKind::GpuTime)
    });
    let bottom_up = rec.time(id, "flamegraph.bottom_up", || {
        FlameGraph::bottom_up(loaded.cct(), MetricKind::GpuTime)
    });
    let svg = rec.time(id, "flamegraph.svg", || {
        let options = SvgOptions::default();
        (top_down.to_svg(&options), bottom_up.to_svg(&options))
    });
    let chrome = loaded.timeline().map(|stored| {
        let snapshot = rec.time(id, "timeline.snapshot", || {
            TimelineSnapshot::from_stored(stored)
        });
        rec.time(id, "timeline.chrome", || {
            snapshot.to_chrome_trace(Some(loaded.cct()))
        })
    });
    outcome.facts = ReportFacts {
        cct_nodes: loaded.cct().node_count(),
        issues: report.len(),
        flame_nodes: top_down.node_count() + bottom_up.node_count(),
        ..outcome.facts
    };

    check(
        outcome,
        spec,
        svg.0.starts_with("<svg") && svg.1.starts_with("<svg"),
        || "flame graph SVG is not an <svg> document".into(),
    );
    check(
        outcome,
        spec,
        chrome.as_ref().is_none_or(|c| c.len() > 2),
        || "Chrome trace is empty".into(),
    );
    let diff = loaded.cct().semantic_diff(db.cct());
    check(outcome, spec, diff.is_none(), || {
        format!(
            "store round trip changed the tree: {}",
            diff.unwrap_or_default()
        )
    });
    let (saved_gpu, loaded_gpu) = (
        db.cct().total(MetricKind::GpuTime),
        loaded.cct().total(MetricKind::GpuTime),
    );
    check(outcome, spec, saved_gpu == loaded_gpu, || {
        format!("GPU time {saved_gpu} saved, {loaded_gpu} loaded")
    });
    black_box((svg, chrome));

    // The store is scratch space: leave nothing behind per session.
    let _ = std::fs::remove_dir_all(store_dir);
    if keep_loaded {
        outcome.loaded = Some(loaded);
    }
}

/// The conservation checks every profiler rung must pass.
fn check_profile(
    spec: &WorkloadSpec,
    pstats: &ProfilerStats,
    db: &ProfileDb,
    outcome: &mut Outcome,
) {
    outcome.attempted += pstats.activities;
    let lost = pstats.orphans + pstats.dropped_events + pstats.poisoned_events;
    let missed = outcome.kernels_since_attach.abs_diff(pstats.launches);
    outcome.failed += lost + missed;
    check(outcome, spec, lost == 0, || {
        format!(
            "{} orphans, {} dropped, {} poisoned",
            pstats.orphans, pstats.dropped_events, pstats.poisoned_events
        )
    });
    let since_attach = outcome.kernels_since_attach;
    check(outcome, spec, missed == 0, || {
        format!(
            "profiler saw {} launches, the run made {since_attach}",
            pstats.launches
        )
    });
    let gpu_time = db.cct().total(MetricKind::GpuTime);
    check(outcome, spec, gpu_time > 0.0, || {
        format!("profile holds no GPU time ({gpu_time})")
    });
}

/// The benchmark-owned `Domain::Gpu` subscriber of `r2`: builds the
/// call path at the launch-API enter sites `Profiler::attach` filters
/// on, and drops it.
struct CallPathProbe {
    registration: dlmonitor::RegistrationId,
    state: Arc<ProbeState>,
}

#[derive(Default)]
struct ProbeState {
    calls: AtomicU64,
    samples: Mutex<CallPathSamples>,
}

impl CallPathProbe {
    fn register(monitor: &Arc<DlMonitor>) -> Self {
        let state = Arc::new(ProbeState::default());
        let (me, mon) = (Arc::clone(&state), Arc::clone(monitor));
        let registration = monitor.callback_register(Domain::Gpu, move |event| {
            let DlEvent::Gpu(gpu) = event else { return };
            if gpu.data.site != CallbackSite::Enter
                || !matches!(
                    gpu.data.api,
                    ApiKind::LaunchKernel | ApiKind::MemcpyAsync | ApiKind::MemAlloc
                )
            {
                return;
            }
            if me.calls.fetch_add(1, Ordering::Relaxed) % CALLPATH_TIMED_EVERY != 0 {
                black_box(mon.callpath_for_gpu(gpu));
                return;
            }
            let start = Instant::now();
            let path = black_box(mon.callpath_for_gpu(gpu));
            let ns = elapsed_ns(start);
            let mut samples = me
                .samples
                .lock()
                .expect("probe never panics under its lock");
            samples.ns.push(ns as f64);
            samples.frames.push(path.len() as f64);
        });
        CallPathProbe {
            registration,
            state,
        }
    }

    fn finish(self, monitor: &DlMonitor) -> CallPathSamples {
        monitor.callback_unregister(self.registration);
        std::mem::take(&mut *self.state.samples.lock().expect("probe lock"))
    }
}
