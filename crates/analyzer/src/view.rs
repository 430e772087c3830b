//! Read-side helpers over a stored profile.

use std::sync::Arc;

use deepcontext_core::{
    CallingContextTree, Frame, FrameKind, Interner, MetricKind, NodeId, OpPhase,
};
use deepcontext_timeline::TimelineSnapshot;

/// A convenience view over a profile for rules: label rendering, semantic
/// lookups, and common metric projections.
///
/// Rules only ever need the calling context tree, so a view wraps a
/// borrowed tree ([`new`](Self::new)): a stored profile's, or a running
/// profiler's cached snapshot inside `Profiler::with_cct`, without
/// serializing a database first. Latency rules
/// additionally need the recorded timeline; attach one with
/// [`with_timeline`](Self::with_timeline) (views without one simply
/// yield no timeline issues).
#[derive(Debug, Clone, Copy)]
pub struct ProfileView<'a> {
    cct: &'a CallingContextTree,
    timeline: Option<&'a TimelineSnapshot>,
}

impl<'a> ProfileView<'a> {
    /// Wraps a calling context tree: a stored profile's
    /// ([`ProfileDb::cct`](deepcontext_core::ProfileDb::cct)) or the
    /// cached snapshot a running profiler exposes through `with_cct`.
    pub fn new(cct: &'a CallingContextTree) -> Self {
        ProfileView {
            cct,
            timeline: None,
        }
    }

    /// Attaches the timeline recorded alongside this profile, enabling
    /// the latency rules ([`GpuIdleRule`](crate::GpuIdleRule),
    /// [`StreamSerializationRule`](crate::StreamSerializationRule)).
    /// The timeline's interval context ids must have been resolved
    /// against this view's tree (`Profiler::timeline` paired with the
    /// same profiler's `with_cct`/`finish` snapshot).
    pub fn with_timeline(mut self, timeline: &'a TimelineSnapshot) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The attached timeline, if any.
    pub fn timeline(&self) -> Option<&'a TimelineSnapshot> {
        self.timeline
    }

    /// The calling context tree.
    pub fn cct(&self) -> &'a CallingContextTree {
        self.cct
    }

    /// The interner.
    pub fn interner(&self) -> Arc<Interner> {
        self.cct().interner()
    }

    /// All GPU kernel nodes (`call_tree.kernels` in the paper snippets).
    pub fn kernels(&self) -> Vec<NodeId> {
        self.cct().nodes_of_kind(FrameKind::GpuKernel)
    }

    /// All operator nodes (`call_tree.operators`).
    pub fn operators(&self) -> Vec<NodeId> {
        self.cct().nodes_of_kind(FrameKind::Operator)
    }

    /// Total (root-inclusive) value of a metric.
    pub fn total(&self, kind: MetricKind) -> f64 {
        self.cct().total(kind)
    }

    /// Inclusive metric sum at a node.
    pub fn sum(&self, node: NodeId, kind: MetricKind) -> f64 {
        self.cct().node(node).metrics().sum(kind)
    }

    /// Sample count of a metric at a node.
    pub fn count(&self, node: NodeId, kind: MetricKind) -> u64 {
        self.cct().node(node).metrics().count(kind)
    }

    /// Short label of a node's frame (flame-graph style).
    pub fn short_label(&self, node: NodeId) -> String {
        let interner = self.interner();
        self.cct().node(node).frame().short_label(&interner)
    }

    /// Full human-readable label of a node's frame (includes Python
    /// function names and native libraries).
    pub fn label(&self, node: NodeId) -> String {
        let interner = self.interner();
        self.cct().node(node).frame().label(&interner)
    }

    /// Renders the root→node call path as ` > `-joined full labels.
    pub fn path_string(&self, node: NodeId) -> String {
        let interner = self.interner();
        self.cct()
            .frames_to_root(node)
            .iter()
            .map(|f| f.label(&interner))
            .collect::<Vec<_>>()
            .join(" > ")
    }

    /// Operator name (resolved) if the node is an operator frame.
    pub fn operator_name(&self, node: NodeId) -> Option<String> {
        match self.cct().node(node).frame() {
            Frame::Operator { name, .. } => Some(self.interner().resolve(*name).to_string()),
            _ => None,
        }
    }

    /// Operator phase if the node is an operator frame.
    pub fn operator_phase(&self, node: NodeId) -> Option<OpPhase> {
        match self.cct().node(node).frame() {
            Frame::Operator { phase, .. } => Some(*phase),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{ProfileDb, ProfileMeta};

    fn sample_tree() -> CallingContextTree {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let leaf = cct.insert_path(&[
            Frame::python("a.py", 1, "f", &i),
            Frame::operator("aten::relu", &i),
            Frame::gpu_kernel("relu_kernel", "m.so", 0x10, &i),
        ]);
        cct.attribute(leaf, MetricKind::GpuTime, 42.0);
        cct
    }

    fn sample() -> ProfileDb {
        ProfileDb::new(ProfileMeta::default(), sample_tree())
    }

    #[test]
    fn live_view_answers_the_same_queries_without_a_db() {
        let db = sample();
        let tree = sample_tree();
        let stored = ProfileView::new(db.cct());
        let live = ProfileView::new(&tree);
        assert_eq!(live.kernels(), stored.kernels());
        assert_eq!(
            live.total(MetricKind::GpuTime),
            stored.total(MetricKind::GpuTime)
        );
        assert_eq!(
            live.path_string(live.kernels()[0]),
            stored.path_string(stored.kernels()[0])
        );
    }

    #[test]
    fn lookups_and_labels() {
        let db = sample();
        let v = ProfileView::new(db.cct());
        assert_eq!(v.kernels().len(), 1);
        assert_eq!(v.operators().len(), 1);
        assert_eq!(v.total(MetricKind::GpuTime), 42.0);
        let k = v.kernels()[0];
        assert_eq!(v.short_label(k), "relu_kernel");
        assert!(v.label(k).contains("relu_kernel"));
        let path = v.path_string(k);
        assert!(path.contains("a.py:1 (f)"));
        assert!(path.contains("aten::relu"));
        assert!(path.contains("relu_kernel"));
        let op = v.operators()[0];
        assert_eq!(v.operator_name(op).unwrap(), "aten::relu");
        assert_eq!(v.operator_phase(op).unwrap(), OpPhase::Forward);
        assert_eq!(v.operator_name(k), None);
    }
}
