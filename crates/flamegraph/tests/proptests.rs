//! Property tests for flame-graph construction and serialisation: value
//! conservation across views and balanced JSON for arbitrary trees.

use deepcontext_core::{CallingContextTree, Frame, MetricKind};
use deepcontext_flamegraph::FlameGraph;
use proptest::prelude::*;

fn arb_tree() -> impl Strategy<Value = CallingContextTree> {
    // Random (path, value) sets with small alphabets to force sharing.
    prop::collection::vec(
        (
            prop::collection::vec(0u8..5, 1..6), // frame choices per level
            1u32..10_000,                        // integer value
        ),
        1..30,
    )
    .prop_map(|paths| {
        let mut cct = CallingContextTree::new();
        let interner = cct.interner();
        for (levels, value) in paths {
            let frames: Vec<Frame> = levels
                .iter()
                .enumerate()
                .map(|(depth, c)| {
                    if depth + 1 == levels.len() {
                        Frame::gpu_kernel(
                            &format!("kernel{c}"),
                            "m.so",
                            0x100 + u64::from(*c) * 0x10,
                            &interner,
                        )
                    } else {
                        Frame::python("model.py", u32::from(*c), "layer", &interner)
                    }
                })
                .collect();
            let leaf = cct.insert_path(&frames);
            cct.attribute(leaf, MetricKind::GpuTime, f64::from(value));
        }
        cct
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn top_down_and_bottom_up_conserve_total(cct in arb_tree()) {
        let total = cct.total(MetricKind::GpuTime);
        let top = FlameGraph::top_down(&cct, MetricKind::GpuTime);
        let bottom = FlameGraph::bottom_up(&cct, MetricKind::GpuTime);
        prop_assert!((top.root().value - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!((bottom.root().value - total).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    fn children_never_exceed_parent(cct in arb_tree()) {
        fn check(node: &deepcontext_flamegraph::FlameNode) -> bool {
            let child_sum: f64 = node.children.iter().map(|c| c.value).sum();
            child_sum <= node.value * (1.0 + 1e-9)
                && node.children.iter().all(check)
        }
        let top = FlameGraph::top_down(&cct, MetricKind::GpuTime);
        prop_assert!(check(top.root()));
        let bottom = FlameGraph::bottom_up(&cct, MetricKind::GpuTime);
        prop_assert!(check(bottom.root()));
    }

    #[test]
    fn json_is_balanced_and_renderers_do_not_panic(cct in arb_tree()) {
        let mut graph = FlameGraph::top_down(&cct, MetricKind::GpuTime);
        graph.highlight_hotspots(0.25);
        let json = graph.to_json();
        prop_assert_eq!(json.matches('{').count(), json.matches('}').count());
        prop_assert_eq!(json.matches('[').count(), json.matches(']').count());
        let svg = graph.to_svg(&Default::default());
        prop_assert!(svg.trim_end().ends_with("</svg>"));
        let ascii = graph.to_ascii(&Default::default());
        prop_assert!(!ascii.is_empty());
    }
}
