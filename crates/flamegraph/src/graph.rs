//! The flame-graph model.

use std::collections::HashMap;

use deepcontext_analyzer::{AnalysisReport, Severity};
use deepcontext_core::{CallingContextTree, FrameKind, MetricKind, NodeId};

/// One box of a flame graph.
#[derive(Debug, Clone)]
pub struct FlameNode {
    /// Display label.
    pub label: String,
    /// Frame kind (drives colour coding).
    pub kind: FrameKind,
    /// Inclusive metric value.
    pub value: f64,
    /// Children, in insertion order.
    pub children: Vec<FlameNode>,
    /// Whether this box is on a hotspot path.
    pub hot: bool,
    /// Analyzer issues attached to this box (severity + message).
    pub issues: Vec<(Severity, String)>,
}

impl FlameNode {
    fn new(label: String, kind: FrameKind, value: f64) -> Self {
        FlameNode {
            label,
            kind,
            value,
            children: Vec::new(),
            hot: false,
            issues: Vec::new(),
        }
    }

    /// Total number of boxes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(FlameNode::node_count)
            .sum::<usize>()
    }

    /// Maximum depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }

    fn find_child_mut(&mut self, label: &str) -> Option<usize> {
        self.children.iter().position(|c| c.label == label)
    }
}

/// A flame graph over one metric of a profile.
///
/// # Examples
///
/// ```
/// use deepcontext_core::{CallingContextTree, Frame, MetricKind};
/// use deepcontext_flamegraph::FlameGraph;
///
/// let mut cct = CallingContextTree::new();
/// let i = cct.interner();
/// let leaf = cct.insert_path(&[
///     Frame::python("train.py", 1, "main", &i),
///     Frame::gpu_kernel("sgemm", "m.so", 0x10, &i),
/// ]);
/// cct.attribute(leaf, MetricKind::GpuTime, 10.0);
///
/// let fg = FlameGraph::top_down(&cct, MetricKind::GpuTime);
/// assert_eq!(fg.root().value, 10.0);
/// println!("{}", fg.to_ascii(&Default::default()));
/// ```
#[derive(Debug, Clone)]
pub struct FlameGraph {
    root: FlameNode,
    metric: MetricKind,
    /// Tree-node provenance for top-down graphs (used by `annotate`).
    provenance: HashMap<String, Vec<NodeId>>,
}

impl FlameGraph {
    /// Builds the top-down view: a direct representation of the calling
    /// context tree, pruned to nodes carrying the metric.
    pub fn top_down(cct: &CallingContextTree, metric: MetricKind) -> FlameGraph {
        let mut provenance: HashMap<String, Vec<NodeId>> = HashMap::new();
        let root = Self::build_top_down(cct, cct.root(), metric, &mut provenance, String::new());
        FlameGraph {
            root: root.unwrap_or_else(|| FlameNode::new("<root>".into(), FrameKind::Root, 0.0)),
            metric,
            provenance,
        }
    }

    fn build_top_down(
        cct: &CallingContextTree,
        id: NodeId,
        metric: MetricKind,
        provenance: &mut HashMap<String, Vec<NodeId>>,
        path: String,
    ) -> Option<FlameNode> {
        let node = cct.node(id);
        let value = node.metrics().sum(metric);
        if value <= 0.0 {
            return None;
        }
        let interner = cct.interner();
        let label = node.frame().short_label(&interner);
        let key = if path.is_empty() {
            label.clone()
        } else {
            format!("{path};{label}")
        };
        provenance.entry(key.clone()).or_default().push(id);
        let mut fnode = FlameNode::new(label, node.frame().kind(), value);
        for &child in node.children() {
            if let Some(c) = Self::build_top_down(cct, child, metric, provenance, key.clone()) {
                fnode.children.push(c);
            }
        }
        Some(fnode)
    }

    /// Builds the bottom-up (inverted) view: each context's *self* value
    /// is attributed to its reversed call path, so identical frames
    /// (e.g. one kernel called from many sites) aggregate at the top
    /// level — the view of paper Figure 8.
    pub fn bottom_up(cct: &CallingContextTree, metric: MetricKind) -> FlameGraph {
        let interner = cct.interner();
        let mut root = FlameNode::new("<all>".into(), FrameKind::Root, 0.0);
        for id in cct.dfs() {
            let node = cct.node(id);
            let inclusive = node.metrics().sum(metric);
            let child_sum: f64 = node
                .children()
                .iter()
                .map(|c| cct.node(*c).metrics().sum(metric))
                .sum();
            let self_value = inclusive - child_sum;
            if self_value <= 0.0 {
                continue;
            }
            // Reversed path: leaf frame first.
            let mut labels: Vec<(String, FrameKind)> = cct
                .frames_to_root(id)
                .frames()
                .iter()
                .map(|f| (f.short_label(&interner), f.kind()))
                .collect();
            labels.reverse();
            let mut cur = &mut root;
            cur.value += self_value;
            for (label, kind) in labels {
                let idx = match cur.find_child_mut(&label) {
                    Some(i) => i,
                    None => {
                        cur.children.push(FlameNode::new(label, kind, 0.0));
                        cur.children.len() - 1
                    }
                };
                cur = &mut cur.children[idx];
                cur.value += self_value;
            }
        }
        // Sort top level by value (biggest consumers first), as the GUI does.
        root.children.sort_by(|a, b| b.value.total_cmp(&a.value));
        FlameGraph {
            root,
            metric,
            provenance: HashMap::new(),
        }
    }

    /// The root box.
    pub fn root(&self) -> &FlameNode {
        &self.root
    }

    /// The metric this graph visualises.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// Marks hotspot paths: every box whose value exceeds
    /// `threshold × total` is flagged hot (the GUI's hotspot
    /// highlighting).
    pub fn highlight_hotspots(&mut self, threshold: f64) {
        let total = self.root.value;
        if total <= 0.0 {
            return;
        }
        fn mark(node: &mut FlameNode, threshold_value: f64) {
            node.hot = node.value >= threshold_value;
            for c in &mut node.children {
                mark(c, threshold_value);
            }
        }
        mark(&mut self.root, threshold * total);
    }

    /// Attaches analyzer issues to the boxes they point at (top-down
    /// graphs only — provenance is recorded during construction).
    pub fn annotate(&mut self, report: &AnalysisReport) {
        let mut by_node: HashMap<NodeId, Vec<(Severity, String)>> = HashMap::new();
        for issue in report.issues() {
            by_node
                .entry(issue.node)
                .or_default()
                .push((issue.severity, format!("{}: {}", issue.rule, issue.message)));
        }
        fn walk(
            node: &mut FlameNode,
            path: String,
            provenance: &HashMap<String, Vec<NodeId>>,
            by_node: &HashMap<NodeId, Vec<(Severity, String)>>,
        ) {
            let key = if path.is_empty() {
                node.label.clone()
            } else {
                format!("{path};{}", node.label)
            };
            if let Some(ids) = provenance.get(&key) {
                for id in ids {
                    if let Some(issues) = by_node.get(id) {
                        node.issues.extend(issues.iter().cloned());
                    }
                }
            }
            for c in &mut node.children {
                walk(c, key.clone(), provenance, by_node);
            }
        }
        let provenance = std::mem::take(&mut self.provenance);
        walk(&mut self.root, String::new(), &provenance, &by_node);
        self.provenance = provenance;
    }

    /// Total boxes.
    pub fn node_count(&self) -> usize {
        self.root.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::Frame;

    fn sample_cct() -> CallingContextTree {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let a = cct.insert_path(&[
            Frame::python("train.py", 1, "main", &i),
            Frame::operator("aten::conv2d", &i),
            Frame::gpu_kernel("implicit_gemm", "m.so", 0x10, &i),
        ]);
        let b = cct.insert_path(&[
            Frame::python("train.py", 9, "loss", &i),
            Frame::operator("aten::nll_loss", &i),
            Frame::gpu_kernel("nll_loss_kernel", "m.so", 0x20, &i),
        ]);
        // The same conversion kernel called from both sites.
        let conv1 = cct.insert_path(&[
            Frame::python("train.py", 1, "main", &i),
            Frame::operator("aten::conv2d", &i),
            Frame::gpu_kernel("nchwToNhwc", "m.so", 0x30, &i),
        ]);
        let conv2 = cct.insert_path(&[
            Frame::python("train.py", 9, "loss", &i),
            Frame::operator("aten::nll_loss", &i),
            Frame::gpu_kernel("nchwToNhwc", "m.so", 0x30, &i),
        ]);
        cct.attribute(a, MetricKind::GpuTime, 70.0);
        cct.attribute(b, MetricKind::GpuTime, 10.0);
        cct.attribute(conv1, MetricKind::GpuTime, 12.0);
        cct.attribute(conv2, MetricKind::GpuTime, 8.0);
        cct
    }

    #[test]
    fn top_down_mirrors_tree_values() {
        let cct = sample_cct();
        let fg = FlameGraph::top_down(&cct, MetricKind::GpuTime);
        assert_eq!(fg.root().value, 100.0);
        assert_eq!(fg.root().children.len(), 2);
        let main = &fg.root().children[0];
        assert_eq!(main.label, "train.py:1");
        assert_eq!(main.value, 82.0);
        // Depth: root, python, operator, kernel.
        assert_eq!(fg.root().depth(), 4);
    }

    #[test]
    fn top_down_prunes_zero_value_nodes() {
        let mut cct = sample_cct();
        let i = cct.interner();
        cct.insert_path(&[Frame::python("dead.py", 1, "unused", &i)]);
        let fg = FlameGraph::top_down(&cct, MetricKind::GpuTime);
        fn contains(node: &FlameNode, label: &str) -> bool {
            node.label == label || node.children.iter().any(|c| contains(c, label))
        }
        assert!(!contains(fg.root(), "dead.py:1"));
    }

    #[test]
    fn bottom_up_aggregates_shared_kernels() {
        let cct = sample_cct();
        let fg = FlameGraph::bottom_up(&cct, MetricKind::GpuTime);
        // Top-level children are leaf frames; nchwToNhwc appears once with
        // both call sites' contributions merged.
        let conv = fg
            .root()
            .children
            .iter()
            .find(|c| c.label == "nchwToNhwc")
            .expect("aggregated kernel");
        assert_eq!(conv.value, 20.0);
        // Its children are the distinct callers (reversed paths).
        assert_eq!(conv.children.len(), 2);
        // Biggest consumer sorts first.
        assert_eq!(fg.root().children[0].label, "implicit_gemm");
    }

    #[test]
    fn hotspot_highlighting_marks_heavy_paths() {
        let cct = sample_cct();
        let mut fg = FlameGraph::top_down(&cct, MetricKind::GpuTime);
        fg.highlight_hotspots(0.5);
        assert!(fg.root().hot);
        let main = &fg.root().children[0];
        assert!(main.hot, "82% path is hot");
        let loss = &fg.root().children[1];
        assert!(!loss.hot, "18% path is not hot");
    }

    #[test]
    fn annotate_attaches_issues_to_matching_boxes() {
        use deepcontext_analyzer::{Analyzer, HotspotRule};
        use deepcontext_core::{ProfileDb, ProfileMeta};
        let cct = sample_cct();
        let db = ProfileDb::new(ProfileMeta::default(), cct);
        let mut analyzer = Analyzer::new();
        analyzer.add_rule(HotspotRule { threshold: 0.5 });
        let report = analyzer.analyze(&db);
        assert_eq!(report.len(), 1);

        let mut fg = FlameGraph::top_down(db.cct(), MetricKind::GpuTime);
        fg.annotate(&report);
        fn flagged(node: &FlameNode) -> usize {
            (!node.issues.is_empty()) as usize + node.children.iter().map(flagged).sum::<usize>()
        }
        assert_eq!(flagged(fg.root()), 1);
        let gemm = &fg.root().children[0].children[0].children[0];
        assert_eq!(gemm.label, "implicit_gemm");
        assert!(!gemm.issues.is_empty());
    }
}
