//! End-to-end pipeline test: workload → DLMonitor → profiler → profile
//! database → analyzer → flame graphs, all crates working together.

use deepcontext::prelude::*;
use deepcontext_flamegraph::{AsciiOptions, SvgOptions};

fn profile_dlrm(iterations: u32) -> ProfileDb {
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext_native(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(&DlrmSmall, &WorkloadOptions::default(), iterations)
        .expect("workload run");
    profiler.finish(ProfileMeta {
        workload: "dlrm-small".into(),
        framework: "eager".into(),
        platform: "nvidia-a100".into(),
        iterations: u64::from(iterations),
        ..Default::default()
    })
}

#[test]
fn profile_contains_all_five_stack_layers() {
    let db = profile_dlrm(2);
    let cct = db.cct();
    for kind in [
        FrameKind::Python,
        FrameKind::Operator,
        FrameKind::Native,
        FrameKind::GpuApi,
        FrameKind::GpuKernel,
    ] {
        assert!(
            !cct.nodes_of_kind(kind).is_empty(),
            "missing {kind} frames in the unified profile"
        );
    }
    assert!(cct.total(MetricKind::GpuTime) > 0.0);
    assert!(cct.total(MetricKind::CpuTime) > 0.0);
    assert!(cct.root_metric(MetricKind::KernelLaunches).unwrap().sum > 0.0);
}

#[test]
fn analyzer_finds_the_dlrm_index_abnormality() {
    let db = profile_dlrm(2);
    let report = Analyzer::with_default_rules().analyze(&db);
    let fwd_bwd = report.by_rule("fwd-bwd");
    assert!(
        fwd_bwd.iter().any(|i| i.message.contains("aten::index")),
        "expected an aten::index backward abnormality, got: {report}"
    );
    assert!(fwd_bwd
        .iter()
        .any(|i| i.suggestion.contains("index_select")));
    // The serialized backward kernel is also the hotspot.
    let hotspots = report.by_rule("hotspot");
    assert!(hotspots
        .iter()
        .any(|i| i.message.contains("indexing_backward_kernel")));
}

#[test]
fn backward_kernels_are_attributed_to_forward_python_context() {
    let db = profile_dlrm(2);
    let cct = db.cct();
    let interner = cct.interner();
    let bwd_kernel = cct
        .nodes_of_kind(FrameKind::GpuKernel)
        .into_iter()
        .find(|n| cct.node(*n).frame().short_label(&interner) == "indexing_backward_kernel")
        .expect("backward kernel present");
    let path = cct.frames_to_root(bwd_kernel);
    let kinds: Vec<FrameKind> = path.frames().iter().map(|f| f.kind()).collect();
    // Association: the path must START with Python frames even though the
    // kernel launched from the Python-less backward thread.
    assert_eq!(kinds[0], FrameKind::Python);
    let labels: Vec<String> = path
        .frames()
        .iter()
        .map(|f| f.short_label(&interner))
        .collect();
    assert!(labels.contains(&"dlrm.py:24".to_owned()), "{labels:?}");
    assert!(labels.contains(&"aten::index".to_owned()));
    assert!(labels.contains(&"aten::index~bwd".to_owned()));
}

#[test]
fn profile_database_round_trips_with_identical_analysis() {
    let db = profile_dlrm(2);
    let mut buf = Vec::new();
    db.save(&mut buf).unwrap();
    let restored = ProfileDb::load(&buf[..]).unwrap();
    assert_eq!(restored.meta(), db.meta());
    assert_eq!(restored.cct().node_count(), db.cct().node_count());

    let before = Analyzer::with_default_rules().analyze(&db);
    let after = Analyzer::with_default_rules().analyze(&restored);
    assert_eq!(before.len(), after.len());
    for (a, b) in before.issues().iter().zip(after.issues()) {
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.message, b.message);
    }
}

#[test]
fn flame_graph_exports_are_consistent() {
    let db = profile_dlrm(2);
    let mut top = FlameGraph::top_down(db.cct(), MetricKind::GpuTime);
    top.highlight_hotspots(0.25);
    let bottom = FlameGraph::bottom_up(db.cct(), MetricKind::GpuTime);

    // Both views conserve total GPU time.
    let total = db.cct().total(MetricKind::GpuTime);
    assert!((top.root().value - total).abs() < 1e-6 * total);
    assert!((bottom.root().value - total).abs() < 1e-6 * total);

    // Renderers produce non-trivial output.
    let ascii = top.to_ascii(&AsciiOptions::default());
    assert!(ascii.contains("indexing_backward_kernel"));
    let svg = top.to_svg(&SvgOptions::default());
    assert!(svg.contains("</svg>"));
    let json = top.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn multi_stream_routing_attributes_every_stream_to_its_call_path() {
    // Two devices, three streams each, with overlapping kernels — the
    // stream-keyed routing path end to end: launches carry stream
    // identity, activity records resolve through correlation, and every
    // branch's GPU time must land under that branch's own Python scope.
    const ITERATIONS: u32 = 3;
    let workload = MultiStream::default();
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    let stats = bed
        .run_eager(&workload, &WorkloadOptions::default(), ITERATIONS)
        .expect("workload run");
    assert_eq!(
        stats.kernels,
        u64::from(ITERATIONS) * workload.kernels_per_iteration()
    );
    profiler.flush();

    let pstats = profiler.stats();
    assert_eq!(pstats.orphans, 0, "every activity resolved its context");
    assert_eq!(
        pstats.launches,
        u64::from(ITERATIONS) * workload.kernels_per_iteration()
    );

    profiler.with_cct(|cct| {
        let interner = cct.interner();
        // Each (device, stream) branch owns a distinct Python scope; all
        // of its kernel activity must be attributed beneath it.
        for device in 0..workload.devices() {
            for stream in 0..workload.streams() {
                let label = format!(
                    "multi_stream.py:{}",
                    MultiStream::scope_line(device, stream)
                );
                let scope = cct
                    .dfs()
                    .find(|n| cct.node(*n).frame().short_label(&interner) == label)
                    .unwrap_or_else(|| panic!("missing scope {label}"));
                let gpu = cct
                    .metric(scope, MetricKind::GpuTime)
                    .unwrap_or_else(|| panic!("no GPU time under {label}"));
                assert_eq!(
                    gpu.count,
                    u64::from(ITERATIONS) * MultiStream::OPS_PER_BRANCH as u64,
                    "kernel records under {label}"
                );
                assert_eq!(
                    cct.metric(scope, MetricKind::KernelLaunches).unwrap().sum,
                    f64::from(ITERATIONS) * MultiStream::OPS_PER_BRANCH as f64,
                    "launches under {label}"
                );
            }
        }
        // The branch scopes partition the workload's activity: the whole
        // profile's GPU time equals the sum over branches (branch scope
        // lines are always >= 100, the model's own scopes are below).
        let branch_sum: f64 = cct
            .dfs()
            .filter(|n| {
                cct.node(*n)
                    .frame()
                    .short_label(&interner)
                    .strip_prefix("multi_stream.py:")
                    .and_then(|l| l.parse::<u32>().ok())
                    .is_some_and(|l| l >= 100)
            })
            .map(|n| cct.node(n).metrics().sum(MetricKind::GpuTime))
            .sum();
        assert_eq!(branch_sum, cct.total(MetricKind::GpuTime));
    });

    // Streams really overlapped *within each device*: a device's
    // accumulated kernel time can only exceed the run's wall-clock
    // window if its streams executed concurrently (serial execution on
    // one device is bounded by the wall window). Checking per device
    // also rules out plain device-level parallelism masquerading as
    // stream overlap.
    for d in 0..workload.devices() as u32 {
        let busy = bed.gpu().device_busy_time(DeviceId(d)).unwrap();
        assert!(
            busy > stats.wall,
            "no stream overlap on device {d}: busy {busy:?} vs wall {:?}",
            stats.wall
        );
    }
}

#[test]
fn analyzer_preview_runs_on_the_live_cached_snapshot() {
    // Preview queries over a *running* profiler: analysis runs inside
    // with_cct against the cached snapshot (no ProfileDb round-trip) and
    // must agree with the postmortem analysis of the finished profile.
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext_native(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(&DlrmSmall, &WorkloadOptions::default(), 2)
        .expect("workload run");
    profiler.flush();

    let analyzer = Analyzer::with_default_rules();
    let live = profiler.with_cct(|cct| analyzer.preview(cct));
    assert!(
        live.by_rule("fwd-bwd")
            .iter()
            .any(|i| i.message.contains("aten::index")),
        "live preview misses the dlrm abnormality: {live}"
    );
    // A second preview with no new events is served from the cache.
    let again = profiler.with_cct(|cct| analyzer.preview(cct));
    assert_eq!(live.len(), again.len());
    let stats = profiler.stats();
    assert!(stats.shards_skipped > 0, "cache was never hit");

    let db = profiler.finish(ProfileMeta {
        workload: "dlrm-small".into(),
        framework: "eager".into(),
        platform: "nvidia-a100".into(),
        iterations: 2,
        ..Default::default()
    });
    let post = analyzer.analyze(&db);
    assert_eq!(live.len(), post.len(), "live and postmortem reports agree");
    for (a, b) in live.issues().iter().zip(post.issues()) {
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.message, b.message);
    }
}

#[test]
fn cct_size_is_independent_of_iteration_count() {
    let small = profile_dlrm(1);
    let large = profile_dlrm(4);
    assert_eq!(
        small.cct().node_count(),
        large.cct().node_count(),
        "online aggregation must keep the tree size fixed across iterations"
    );
    // But the metrics keep accumulating.
    assert!(large.cct().total(MetricKind::GpuTime) > small.cct().total(MetricKind::GpuTime) * 2.0);
}
