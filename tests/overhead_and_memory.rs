//! Figure 6 shape invariants, tested with deterministic proxies rather
//! than wall-clock time: unwinding work ordering (DeepContext-Native >
//! DeepContext = 0 native steps) and profile-memory growth (trace linear,
//! CCT bounded).

use deepcontext::baselines::{TraceProfiler, TraceStyle};
use deepcontext::prelude::*;

struct Bed {
    bed: TestBed,
    monitor: std::sync::Arc<DlMonitor>,
}

fn monitored_bed() -> Bed {
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    Bed { bed, monitor }
}

#[test]
fn native_configuration_unwinds_and_default_does_not() {
    // DeepContext (no native): zero unwinder steps.
    let rig = monitored_bed();
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext(),
        rig.bed.env(),
        &rig.monitor,
        rig.bed.gpu(),
    );
    rig.bed
        .run_eager(&NanoGpt, &WorkloadOptions::default(), 1)
        .unwrap();
    drop(profiler);
    assert_eq!(
        rig.bed.env().unwinder().steps_taken(),
        0,
        "the no-native configuration must never unwind"
    );

    // DeepContext-Native: many steps.
    let rig = monitored_bed();
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext_native(),
        rig.bed.env(),
        &rig.monitor,
        rig.bed.gpu(),
    );
    rig.bed
        .run_eager(&NanoGpt, &WorkloadOptions::default(), 1)
        .unwrap();
    drop(profiler);
    assert!(rig.bed.env().unwinder().steps_taken() > 100);
}

#[test]
fn call_path_caching_reduces_unwinding_work() {
    let steps = |cache: bool| {
        let rig = monitored_bed();
        rig.monitor.set_cache_enabled(cache);
        let _profiler = Profiler::attach(
            ProfilerConfig::deepcontext_native(),
            rig.bed.env(),
            &rig.monitor,
            rig.bed.gpu(),
        );
        rig.bed
            .run_eager(&NanoGpt, &WorkloadOptions::default(), 1)
            .unwrap();
        rig.bed.env().unwinder().steps_taken()
    };
    let (steps_with_cache, steps_without_cache) = (steps(true), steps(false));
    assert!(
        steps_with_cache < steps_without_cache,
        "caching must reduce unw_step calls: {steps_with_cache} !< {steps_without_cache}"
    );
}

#[test]
fn trace_grows_linearly_while_cct_stays_bounded() {
    // Trace profiler: events scale with iterations.
    let bytes_for = |iters: u32| {
        let bed = TestBed::new(DeviceSpec::a100_sxm());
        let mut trace = TraceProfiler::new(TraceStyle::Torch);
        trace.attach_framework(bed.eager().core().callbacks(), bed.env().clock().clone());
        trace.attach_gpu(bed.gpu());
        bed.run_eager(&NanoGpt, &WorkloadOptions::default(), iters)
            .unwrap();
        trace.flush();
        trace.approx_bytes()
    };
    let trace_2 = bytes_for(2);
    let trace_8 = bytes_for(8);
    assert!(
        trace_8 as f64 > trace_2 as f64 * 2.5,
        "trace must grow with iterations: {trace_2} -> {trace_8}"
    );

    // DeepContext: the CCT converges after the first iteration. Timeline
    // recording stays off (the default): interval rings are bounded by
    // their capacity, not by the iteration count, so they would
    // legitimately grow inside the measured window — this test is about
    // the aggregate profile.
    let dc_bytes = |iters: u32| {
        let rig = monitored_bed();
        let profiler = Profiler::attach(
            ProfilerConfig::deepcontext_native(),
            rig.bed.env(),
            &rig.monitor,
            rig.bed.gpu(),
        );
        rig.bed
            .run_eager(&NanoGpt, &WorkloadOptions::default(), iters)
            .unwrap();
        profiler.flush();
        profiler.stats().peak_bytes
    };
    let dc_2 = dc_bytes(2);
    let dc_8 = dc_bytes(8);
    assert!(
        (dc_8 as f64) < dc_2 as f64 * 1.5,
        "CCT memory must not scale with iterations: {dc_2} -> {dc_8}"
    );
    // And the trace dwarfs the CCT at higher iteration counts.
    assert!(trace_8 > dc_8);
}

#[test]
fn trace_export_can_oom_where_deepcontext_profile_stays_small() {
    // The paper's Llama observation: the PyTorch profiler OOMs exporting
    // its database while DeepContext's stays compact.
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let mut trace = TraceProfiler::new(TraceStyle::Torch).with_memory_budget(256 << 10);
    trace.attach_framework(bed.eager().core().callbacks(), bed.env().clock().clone());
    trace.attach_gpu(bed.gpu());
    bed.run_eager(&Llama3, &WorkloadOptions::default(), 3)
        .unwrap();
    trace.flush();
    assert!(trace.export_chrome_trace(Vec::new()).is_err());

    let rig = monitored_bed();
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext_native(),
        rig.bed.env(),
        &rig.monitor,
        rig.bed.gpu(),
    );
    rig.bed
        .run_eager(&Llama3, &WorkloadOptions::default(), 3)
        .unwrap();
    let db = profiler.finish(ProfileMeta::default());
    let mut out = Vec::new();
    db.save(&mut out).unwrap();
    assert!(
        out.len() < (256 << 10),
        "CCT profile fits where the trace OOMed"
    );
}

#[test]
fn jit_profiles_work_cross_framework() {
    // The same monitor/profiler stack observes the JIT engine: fused
    // operators appear as contexts.
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.jit().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_jit(&NanoGpt, &WorkloadOptions::default(), 2)
        .unwrap();
    let db = profiler.finish(ProfileMeta {
        framework: "jit".into(),
        ..Default::default()
    });
    let cct = db.cct();
    let interner = cct.interner();
    let has_fusion = cct.nodes_of_kind(FrameKind::Operator).into_iter().any(|n| {
        cct.node(n)
            .frame()
            .short_label(&interner)
            .starts_with("fusion.")
    });
    assert!(
        has_fusion,
        "JIT profile must contain fused operator contexts"
    );
    assert!(cct.total(MetricKind::GpuTime) > 0.0);
}
