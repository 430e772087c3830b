//! Profile differencing: the §6.5/§6.6 comparison workflow as a
//! first-class API. Profiles U-Net on both Table 2 platforms and prints
//! the contexts with the largest GPU-time changes. The diff pairs
//! kernels across vendors (`cuLaunchKernel` on one side,
//! `hipModuleLaunchKernel` on the other), so the norm template
//! regression under `aten::instance_norm` surfaces among the kernels.
//!
//! ```text
//! cargo run --release --example profile_diff
//! ```

use std::collections::HashSet;

use deepcontext::analyzer::ProfileDiff;
use deepcontext::prelude::*;

fn profile(spec: DeviceSpec) -> Result<ProfileDb, Box<dyn std::error::Error>> {
    let platform = spec.platform_tag();
    let bed = TestBed::new(spec);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(&UNet, &WorkloadOptions::default(), 2)?;
    Ok(profiler.finish(ProfileMeta {
        workload: "unet".into(),
        platform,
        ..Default::default()
    }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nvidia = profile(DeviceSpec::a100_sxm())?;
    let amd = profile(DeviceSpec::mi250())?;

    let diff = ProfileDiff::compare(&nvidia, &amd, MetricKind::GpuTime);
    println!("U-Net GPU time, nvidia-a100 (baseline) vs amd-mi250 (candidate):\n");
    print!("{}", diff.render_top(8));

    // A path that ends in a kernel name is a kernel context.
    let (cct, interner) = (amd.cct(), amd.cct().interner());
    let kernels: HashSet<String> = cct
        .nodes_of_kind(FrameKind::GpuKernel)
        .into_iter()
        .map(|node| cct.node(node).frame().short_label(&interner))
        .collect();
    let is_kernel = |path: &str| kernels.contains(path.rsplit(" > ").next().unwrap_or(path));
    println!("\nlargest kernel regressions on MI250:");
    for entry in diff.regressions().filter(|e| is_kernel(&e.path)).take(3) {
        println!("  {:+.1}%  {}", (entry.ratio() - 1.0) * 100.0, entry.path);
    }
    println!("\nlargest improvements on MI250:");
    for entry in diff.improvements().take(3) {
        println!("  {:+.1}%  {}", (entry.ratio() - 1.0) * 100.0, entry.path);
    }
    Ok(())
}
