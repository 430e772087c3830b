//! Standalone SVG renderer with frame-kind colour coding and issue
//! highlighting — the printable analogue of the WebGL view.

use deepcontext_analyzer::Severity;
use deepcontext_core::FrameKind;

use crate::graph::{FlameGraph, FlameNode};

/// SVG rendering options.
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Image width in pixels.
    pub width: f64,
    /// Row height per stack level.
    pub row_height: f64,
    /// Minimum box width to render.
    pub min_box_px: f64,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 1200.0,
            row_height: 18.0,
            min_box_px: 0.5,
        }
    }
}

/// Fill colour per frame kind (the GUI's colour-coded system).
fn kind_color(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Root => "#c8c8c8",
        FrameKind::Thread => "#b0bec5",
        FrameKind::Python => "#4f9d4f",
        FrameKind::Operator => "#d98f3d",
        FrameKind::Native => "#4a7fb5",
        FrameKind::GpuApi => "#8d6cab",
        FrameKind::GpuKernel => "#c14d4d",
        FrameKind::Instruction => "#7a5c3e",
    }
}

fn issue_stroke(issues: &[(Severity, String)]) -> Option<&'static str> {
    let max = issues.iter().map(|(s, _)| *s).max()?;
    Some(match max {
        Severity::Critical => "#ff0000",
        Severity::Warning => "#ff9800",
        Severity::Info => "#2196f3",
    })
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

impl FlameGraph {
    /// Renders a standalone SVG document.
    pub fn to_svg(&self, options: &SvgOptions) -> String {
        let depth = self.root().depth();
        let height = depth as f64 * options.row_height + 24.0;
        let mut out = String::new();
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             font-family=\"monospace\" font-size=\"11\">\n",
            options.width, height
        ));
        out.push_str(&format!(
            "<text x=\"4\" y=\"14\">flame graph — metric: {}</text>\n",
            escape(&self.metric().name())
        ));
        let total = self.root().value.max(f64::MIN_POSITIVE);
        render_node(self.root(), 0.0, 0, total, options, &mut out);
        out.push_str("</svg>\n");
        out
    }
}

fn render_node(
    node: &FlameNode,
    x: f64,
    depth: usize,
    total: f64,
    options: &SvgOptions,
    out: &mut String,
) {
    let w = node.value / total * options.width;
    if w < options.min_box_px {
        return;
    }
    let y = depth as f64 * options.row_height + 20.0;
    let stroke = issue_stroke(&node.issues)
        .map(|c| format!(" stroke=\"{c}\" stroke-width=\"2\""))
        .unwrap_or_else(|| " stroke=\"#ffffff\" stroke-width=\"0.5\"".to_owned());
    let opacity = if node.hot { 1.0 } else { 0.75 };
    out.push_str(&format!(
        "<g><title>{} ({:.1}%{})</title><rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" \
         height=\"{:.2}\" fill=\"{}\" fill-opacity=\"{opacity}\"{stroke}/>",
        escape(&node.label),
        node.value / total * 100.0,
        if node.issues.is_empty() {
            ""
        } else {
            ", flagged"
        },
        x,
        y,
        w,
        options.row_height - 1.0,
        kind_color(node.kind),
    ));
    if w > 40.0 {
        let shown: String = node.label.chars().take((w / 7.0) as usize).collect();
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\">{}</text>",
            x + 2.0,
            y + options.row_height - 5.0,
            escape(&shown)
        ));
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for child in &node.children {
        render_node(child, cx, depth + 1, total, options, out);
        cx += child.value / total * options.width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallingContextTree, Frame, MetricKind};

    fn graph() -> FlameGraph {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let a = cct.insert_path(&[
            Frame::python("a.py", 1, "main", &i),
            Frame::gpu_kernel("kernel<a&b>", "m.so", 0x10, &i),
        ]);
        cct.attribute(a, MetricKind::GpuTime, 10.0);
        FlameGraph::top_down(&cct, MetricKind::GpuTime)
    }

    #[test]
    fn svg_is_well_formed_and_labelled() {
        let svg = graph().to_svg(&SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 3); // root, python, kernel
        assert!(svg.contains("gpu_time"));
        // Angle brackets in kernel names are escaped.
        assert!(svg.contains("kernel&lt;a&amp;b&gt;"));
    }

    #[test]
    fn children_are_laid_out_side_by_side() {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let a = cct.insert_path(&[Frame::gpu_kernel("k1", "m.so", 0x10, &i)]);
        let b = cct.insert_path(&[Frame::gpu_kernel("k2", "m.so", 0x20, &i)]);
        cct.attribute(a, MetricKind::GpuTime, 50.0);
        cct.attribute(b, MetricKind::GpuTime, 50.0);
        let svg = FlameGraph::top_down(&cct, MetricKind::GpuTime).to_svg(&SvgOptions::default());
        // Two 600px boxes at x=0 and x=600.
        assert!(svg.contains("x=\"0.00\""));
        assert!(svg.contains("x=\"600.00\""));
    }

    #[test]
    fn kind_colors_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in [
            FrameKind::Root,
            FrameKind::Thread,
            FrameKind::Python,
            FrameKind::Operator,
            FrameKind::Native,
            FrameKind::GpuApi,
            FrameKind::GpuKernel,
            FrameKind::Instruction,
        ] {
            assert!(seen.insert(kind_color(kind)), "duplicate color for {kind}");
        }
    }
}
