//! Regenerates **Figure 7**: the forward-backward association view of the
//! DLRM-small workload — backward kernels attributed to the forward
//! operator's Python context via sequence-id association.

use deepcontext_bench::{deepcontext_profile, EngineKind};
use deepcontext_core::{FrameKind, MetricKind};
use deepcontext_flamegraph::{AsciiOptions, FlameGraph};
use dl_models::{DlrmSmall, WorkloadOptions};
use sim_gpu::DeviceSpec;

fn main() {
    let db = deepcontext_profile(
        &DeviceSpec::a100_sxm(),
        &DlrmSmall,
        &WorkloadOptions::default(),
        EngineKind::Eager,
        3,
    );
    let cct = db.cct();
    let interner = cct.interner();

    println!("Figure 7: forward-backward association view (DLRM-small)\n");

    // Find the indexing_backward_kernel context and print its full call
    // path: it begins with the *forward* Python context.
    let total = cct.total(MetricKind::GpuTime);
    for node in cct.nodes_of_kind(FrameKind::GpuKernel) {
        let label = cct.node(node).frame().short_label(&interner);
        if label != "indexing_backward_kernel" {
            continue;
        }
        let time = cct.node(node).metrics().sum(MetricKind::GpuTime);
        println!(
            "hotspot: {label} — {:.1}% of total GPU time",
            time / total * 100.0
        );
        println!("associated call path (forward context + backward operator):");
        for (depth, frame) in cct.frames_to_root(node).iter().enumerate() {
            println!("{}{}", "  ".repeat(depth), frame.label(&interner));
        }
        break;
    }

    println!("\ntop-down flame graph (GPU time):\n");
    let mut graph = FlameGraph::top_down(cct, MetricKind::GpuTime);
    graph.highlight_hotspots(0.2);
    print!(
        "{}",
        graph.to_ascii(&AsciiOptions {
            min_share: 0.02,
            ..Default::default()
        })
    );
}
