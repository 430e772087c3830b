//! Reproduces the §6.5 cross-platform comparison (paper Figure 10):
//! profile U-Net on both Table 2 platforms and export flame graphs. The
//! Nvidia hotspot is `aten::conv2d`; on the MI250 the shared 512-thread
//! norm template makes `aten::instance_norm` the abnormal hotspot.
//!
//! Writes `artifacts/flame_nvidia.svg` and `artifacts/flame_amd.svg`
//! under the working directory (the `artifacts/` convention keeps
//! generated renderings out of the repo root), each beside the JSON the
//! GUI's WebView reads (`flame_<vendor>.json`).
//!
//! ```text
//! cargo run --release --example amd_vs_nvidia
//! ```

use deepcontext::prelude::*;
use deepcontext_flamegraph::{AsciiOptions, SvgOptions};

fn profile_unet(spec: DeviceSpec) -> Result<ProfileDb, Box<dyn std::error::Error>> {
    let platform = spec.platform_tag();
    let bed = TestBed::new(spec);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext_native(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(&UNet, &WorkloadOptions::default(), 2)?;
    Ok(profiler.finish(ProfileMeta {
        workload: "unet".into(),
        framework: "eager".into(),
        platform,
        iterations: 2,
        ..Default::default()
    }))
}

fn top_operator(db: &ProfileDb) -> (String, f64) {
    let cct = db.cct();
    let interner = cct.interner();
    let mut best = (String::new(), 0.0);
    for node in cct.nodes_of_kind(FrameKind::Operator) {
        let frame = cct.node(node).frame();
        if let deepcontext::core::Frame::Operator { phase, .. } = frame {
            if *phase != OpPhase::Forward {
                continue;
            }
        }
        let t = cct.node(node).metrics().sum(MetricKind::GpuTime);
        if t > best.1 {
            best = (frame.short_label(&interner), t);
        }
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for spec in [DeviceSpec::a100_sxm(), DeviceSpec::mi250()] {
        let tag = spec.platform_tag();
        let db = profile_unet(spec)?;
        let (op, time) = top_operator(&db);
        println!(
            "{tag}: hotspot operator = {op} ({:.1}% of GPU time)",
            time / db.cct().total(MetricKind::GpuTime) * 100.0
        );

        let mut flame = FlameGraph::bottom_up(db.cct(), MetricKind::GpuTime);
        flame.highlight_hotspots(0.15);
        println!(
            "{}",
            flame.to_ascii(&AsciiOptions {
                min_share: 0.04,
                max_depth: 2,
                ..Default::default()
            })
        );
        std::fs::create_dir_all("artifacts")?;
        let stem = format!("artifacts/flame_{}", tag.split('-').next().unwrap_or("gpu"));
        std::fs::write(format!("{stem}.svg"), flame.to_svg(&SvgOptions::default()))?;
        let json = flame.to_json();
        // The WebView feed names the hotspot operator and stays balanced.
        assert!(json.contains(&format!("\"name\":\"{op}\"")), "{op} missing");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        std::fs::write(format!("{stem}.json"), json)?;
        println!("wrote {stem}.svg and {stem}.json\n");
    }
    Ok(())
}
