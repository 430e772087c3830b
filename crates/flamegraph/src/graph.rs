//! The flame-graph model.

use std::collections::HashMap;

use deepcontext_analyzer::{AnalysisReport, Severity};
use deepcontext_core::{CallingContextTree, FrameKind, Interner, MetricKind, NodeId};

/// One box of a flame graph.
#[derive(Debug, Clone)]
pub struct FlameNode {
    /// Display label.
    pub label: String,
    /// The tree node a top-down box was built from (`None` in a
    /// bottom-up graph, whose boxes merge many nodes).
    pub(crate) node: Option<NodeId>,
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
            node: None,
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
}

impl FlameGraph {
    /// Builds the top-down view: a direct representation of the calling
    /// context tree, pruned to nodes carrying the metric. Each box keeps
    /// the node it was built from.
    pub fn top_down(cct: &CallingContextTree, metric: MetricKind) -> FlameGraph {
        let root = Self::build_top_down(cct, &cct.interner(), cct.root(), metric);
        FlameGraph {
            root: root.unwrap_or_else(|| FlameNode::new("<root>".into(), FrameKind::Root, 0.0)),
            metric,
        }
    }

    fn build_top_down(
        cct: &CallingContextTree,
        interner: &Interner,
        id: NodeId,
        metric: MetricKind,
    ) -> Option<FlameNode> {
        let node = cct.node(id);
        let value = node.metrics().sum(metric);
        if value <= 0.0 {
            return None;
        }
        let label = node.frame().short_label(interner);
        let mut fnode = FlameNode::new(label, node.frame().kind(), value);
        fnode.node = Some(id);
        fnode.children = node
            .children()
            .iter()
            .filter_map(|&child| Self::build_top_down(cct, interner, child, metric))
            .collect();
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
        FlameGraph { root, metric }
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

    /// Attaches analyzer issues to the boxes built from the nodes they
    /// point at (top-down graphs only: a bottom-up box names no node).
    pub fn annotate(&mut self, report: &AnalysisReport) {
        let mut by_node: HashMap<NodeId, Vec<(Severity, String)>> = HashMap::new();
        for issue in report.issues() {
            by_node
                .entry(issue.node)
                .or_default()
                .push((issue.severity, format!("{}: {}", issue.rule, issue.message)));
        }
        fn walk(node: &mut FlameNode, by_node: &HashMap<NodeId, Vec<(Severity, String)>>) {
            if let Some(issues) = node.node.and_then(|id| by_node.get(&id)) {
                node.issues.extend(issues.iter().cloned());
            }
            for c in &mut node.children {
                walk(c, by_node);
            }
        }
        walk(&mut self.root, &by_node);
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

    #[test]
    fn an_issue_marks_only_its_own_box_among_same_named_siblings() {
        use deepcontext_analyzer::{Analyzer, HotspotRule};
        use deepcontext_core::{ProfileDb, ProfileMeta};
        // One operator launches `sgemm` from two modules: two contexts,
        // two sibling boxes with one label.
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let op = cct.insert_path(&[Frame::operator("aten::matmul", &i)]);
        let torch = cct.insert_child(op, &Frame::gpu_kernel("sgemm", "libtorch.so", 0x10, &i));
        let cublas = cct.insert_child(op, &Frame::gpu_kernel("sgemm", "libcublas.so", 0x10, &i));
        cct.attribute(torch, MetricKind::GpuTime, 90.0);
        cct.attribute(cublas, MetricKind::GpuTime, 10.0);
        let db = ProfileDb::new(ProfileMeta::default(), cct);
        let mut analyzer = Analyzer::new();
        analyzer.add_rule(HotspotRule { threshold: 0.5 });
        let report = analyzer.analyze(&db);
        assert_eq!(
            report.issues().iter().map(|i| i.node).collect::<Vec<_>>(),
            [torch]
        );

        let mut fg = FlameGraph::top_down(db.cct(), MetricKind::GpuTime);
        fg.annotate(&report);
        let kernels = &fg.root().children[0].children;
        assert_eq!(kernels.len(), 2);
        for kernel in kernels {
            assert_eq!(kernel.label, "sgemm");
            // The 90-unit box is `torch`'s, the 10-unit one `cublas`'s.
            let flagged = kernel.value == 90.0;
            assert_eq!(!kernel.issues.is_empty(), flagged, "{}", kernel.value);
        }
    }
}
