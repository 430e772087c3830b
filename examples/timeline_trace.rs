//! Timeline demo: record per-(device, stream) interval tracks alongside
//! the profile and export a Chrome trace.
//!
//! ```text
//! cargo run --release --example timeline_trace
//! ```
//!
//! Runs the multi-stream workload (2 devices × 3 streams) with timeline
//! recording on, prints per-device utilization / overlap / idle-gap
//! statistics and the timeline-backed analyzer findings, and writes
//! `artifacts/timeline_trace.json` — load it in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see one swim-lane per stream. Each slice
//! cites its calling context by `"sf"` id in the trace's `stackFrames`
//! dictionary, which names every context once; `chrome://tracing` shows
//! it as the selected slice's "Start Stack Trace".

use deepcontext::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-GPU platform; MultiStream fans overlapping kernels over
    // 2 devices × 3 streams.
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());

    // Timeline recording is off by default; flip it on for this run.
    let profiler = Profiler::attach(
        ProfilerConfig {
            timeline: TimelineConfig::enabled(),
            ..ProfilerConfig::deepcontext()
        },
        bed.env(),
        &monitor,
        bed.gpu(),
    );

    let workload = MultiStream::default();
    let stats = bed.run_eager(&workload, &WorkloadOptions::default(), 4)?;
    profiler.flush();
    println!(
        "ran {} iterations: {} kernels over {} devices x {} streams",
        stats.iterations,
        stats.kernels,
        workload.devices(),
        workload.streams()
    );

    // The assembled timeline: one track per (device, stream).
    let timeline = profiler.timeline().expect("timeline enabled");
    let pstats = profiler.stats();
    println!(
        "recorded {} intervals across {} tracks ({} evicted by ring overflow)",
        pstats.timeline_intervals,
        timeline.tracks().len(),
        pstats.timeline_dropped
    );
    println!("\n=== per-device latency statistics ===");
    for device in &timeline.stats().devices {
        println!(
            "GPU {}: {} streams, span {}, busy {} ({:.1}% utilized), \
             overlap factor {:.2}, idle {} over {} gaps",
            device.device,
            device.streams,
            device.span(),
            device.busy,
            device.utilization() * 100.0,
            device.overlap_factor(),
            device.idle(),
            device.gaps.len()
        );
    }

    // Timeline-backed analysis (idle gaps, stream serialization) runs
    // against the same snapshot the context ids were resolved with.
    let analyzer = Analyzer::with_default_rules();
    let report = profiler.with_cct(|cct| analyzer.preview_with_timeline(cct, &timeline));
    println!("\n=== timeline-backed analysis ===");
    let latency: Vec<_> = report
        .issues()
        .iter()
        .filter(|i| i.rule == "gpu-idle" || i.rule == "stream-serialization")
        .collect();
    if latency.is_empty() {
        println!("no latency issues: streams overlap and the devices stay busy");
    } else {
        for issue in latency {
            print!("{issue}");
        }
    }

    // Export the Chrome trace with each slice's calling context.
    let trace = profiler.with_cct(|cct| timeline.to_chrome_trace(Some(cct)));
    std::fs::create_dir_all("artifacts")?;
    std::fs::write("artifacts/timeline_trace.json", &trace)?;
    println!(
        "\nwrote artifacts/timeline_trace.json ({} bytes) — load it in chrome://tracing \
         or ui.perfetto.dev",
        trace.len()
    );
    Ok(())
}
