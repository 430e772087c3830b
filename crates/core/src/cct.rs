//! The calling context tree (paper §4.2, Figure 5).
//!
//! Call paths obtained from DLMonitor are inserted into the tree; frames
//! that refer to the same location collapse into one node (see
//! [`Frame::key`]). Each node carries online metric aggregates; attributing
//! a sample at the bottom of a call path propagates it along the entire
//! path to the root, so every node holds *inclusive* metrics.
//!
//! That holds **always** for a tree driven through
//! [`CallingContextTree::attribute`] and for every folded tree
//! ([`merge`](CallingContextTree::merge) /
//! [`merge_incremental`](CallingContextTree::merge_incremental) outputs,
//! loaded profiles). The private tree inside a
//! [`CctShard`](crate::CctShard) is the one exception: the shard holds
//! samples at the attributed node and carries them root-ward itself at
//! its next [`settle`](crate::CctShard::settle) — node by node through
//! [`merge_stat_at`](CallingContextTree::merge_stat_at), by the rule
//! `shard.rs` states — so a shard's tree is inclusive *at settle points*,
//! which is the only time anything outside the shard reads it. The
//! root-ward walk of [`attribute`](CallingContextTree::attribute) and
//! [`merge_stat`](CallingContextTree::merge_stat) is for trees driven
//! directly: test oracles and loaded profiles.

use std::sync::Arc;

use crate::frame::{CallPath, Frame, FrameKey, FrameKind};
use crate::fx::FxHashMap;
use crate::interner::Interner;
use crate::metrics::{MetricKind, MetricStat, MetricStore};

/// Identifier of a node within one [`CallingContextTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node's id (always 0).
    pub const ROOT: NodeId = NodeId(0);

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id with raw index `index`, for data that carries ids outside
    /// a tree (a stored timeline's contexts); it names a node only in a
    /// tree that has one at that index.
    pub fn from_index(index: u32) -> NodeId {
        NodeId(index)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// One node of the calling context tree.
#[derive(Debug, Clone)]
pub struct CctNode {
    frame: Frame,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    metrics: MetricStore,
}

impl CctNode {
    /// The frame this node represents.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Parent node (`None` only for the root).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Children in first-insertion order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Inclusive metric aggregates at this context.
    pub fn metrics(&self) -> &MetricStore {
        &self.metrics
    }
}

/// A calling context tree with online metric aggregation.
///
/// See the [crate-level example](crate) for typical use. The tree owns (a
/// handle to) the [`Interner`] used by its frames, so labels can always be
/// resolved.
#[derive(Debug, Clone)]
pub struct CallingContextTree {
    interner: Arc<Interner>,
    nodes: Vec<CctNode>,
    // Fx-hashed: probed once per frame of every inserted call path, on
    // keys (node id + collapse key) that are small and attacker-free.
    child_index: FxHashMap<(NodeId, FrameKey), NodeId>,
}

impl CallingContextTree {
    /// Creates a tree with a fresh interner.
    pub fn new() -> Self {
        Self::with_interner(Interner::new())
    }

    /// Creates a tree sharing an existing interner (the normal case inside a
    /// profiling session, where DLMonitor and the profiler share symbols).
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        CallingContextTree {
            interner,
            nodes: vec![CctNode {
                frame: Frame::Root,
                parent: None,
                children: Vec::new(),
                metrics: MetricStore::new(),
            }],
            child_index: FxHashMap::default(),
        }
    }

    /// The interner shared by this tree's frames.
    pub fn interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &CctNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finds the child of `parent` matching `frame`'s collapse key, or
    /// creates it.
    pub fn insert_child(&mut self, parent: NodeId, frame: &Frame) -> NodeId {
        let key = (parent, frame.key());
        if let Some(&child) = self.child_index.get(&key) {
            return child;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(CctNode {
            frame: frame.clone(),
            parent: Some(parent),
            children: Vec::new(),
            metrics: MetricStore::new(),
        });
        self.nodes[parent.index()].children.push(id);
        self.child_index.insert(key, id);
        id
    }

    /// Inserts a root-to-leaf path, returning the leaf's node id
    /// ("Insert Call Path" in the paper's Figure 5).
    pub fn insert_path(&mut self, path: &[Frame]) -> NodeId {
        let mut cur = self.root();
        for frame in path {
            cur = self.insert_child(cur, frame);
        }
        cur
    }

    /// Adds a metric sample at `node` and propagates it to the root
    /// ("Propagate Metrics" in Figure 5). Every ancestor's aggregate —
    /// including the root — receives the sample, so each node holds
    /// inclusive metrics.
    pub fn attribute(&mut self, node: NodeId, kind: MetricKind, value: f64) {
        self.each_to_root(node, |metrics| metrics.add(kind, value));
    }

    /// Applies `f` to the metric store of `node` and of every ancestor.
    fn each_to_root(&mut self, node: NodeId, mut f: impl FnMut(&mut MetricStore)) {
        let mut cur = Some(node);
        while let Some(id) = cur {
            let n = &mut self.nodes[id.index()];
            f(&mut n.metrics);
            cur = n.parent;
        }
    }

    /// Merges a whole aggregate of `kind` into `node` and every ancestor:
    /// what [`attribute`](Self::attribute) does for one sample, done once
    /// for any number of samples aggregated elsewhere first. Counts, sums
    /// and extrema come out exactly as sample-by-sample propagation
    /// leaves them; mean and variance agree up to f64 rounding (parallel
    /// Welford merge).
    pub fn merge_stat(&mut self, node: NodeId, kind: MetricKind, stat: &MetricStat) {
        self.each_to_root(node, |metrics| metrics.merge_stat(kind, stat));
    }

    /// Merges a whole aggregate of `kind` into `node` alone — no walk.
    /// A [`CctShard`](crate::CctShard) settling bottom-up calls this once
    /// per node and kind and carries the aggregate to the parent itself.
    pub fn merge_stat_at(&mut self, node: NodeId, kind: MetricKind, stat: &MetricStat) {
        self.nodes[node.index()].metrics.merge_stat(kind, stat);
    }

    /// Adds a metric sample at `node` only, without propagation (used for
    /// exclusive bookkeeping such as per-node launch parameters).
    pub fn attribute_exclusive(&mut self, node: NodeId, kind: MetricKind, value: f64) {
        self.nodes[node.index()].metrics.add(kind, value);
    }

    /// [`attribute_exclusive`](Self::attribute_exclusive) for a run of
    /// samples in ascending kind order ([`MetricStore::add_run`]).
    pub fn attribute_exclusive_run(&mut self, node: NodeId, run: &[(MetricKind, f64)]) {
        self.nodes[node.index()].metrics.add_run(run);
    }

    /// The aggregate of `kind` at `node`.
    pub fn metric(&self, node: NodeId, kind: MetricKind) -> Option<&MetricStat> {
        self.nodes[node.index()].metrics.get(kind)
    }

    /// The aggregate of `kind` at the root (i.e. the whole-program total).
    pub fn root_metric(&self, kind: MetricKind) -> Option<&MetricStat> {
        self.metric(self.root(), kind)
    }

    /// Root-level inclusive sum of `kind` (0 when absent).
    pub fn total(&self, kind: MetricKind) -> f64 {
        self.nodes[0].metrics.sum(kind)
    }

    /// The path of node ids from the root to `node`, root first.
    pub fn path_to_root(&self, node: NodeId) -> Vec<NodeId> {
        let mut ids = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            ids.push(id);
            cur = self.nodes[id.index()].parent;
        }
        ids.reverse();
        ids
    }

    /// The frames from the root (exclusive) down to `node`, root-side first.
    pub fn frames_to_root(&self, node: NodeId) -> CallPath {
        self.path_to_root(node)
            .into_iter()
            .skip(1) // omit the synthetic root frame
            .map(|id| self.nodes[id.index()].frame.clone())
            .collect()
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.path_to_root(node).len() - 1
    }

    /// Iterates all node ids in depth-first (pre-order) order.
    pub fn dfs(&self) -> Dfs<'_> {
        Dfs {
            tree: self,
            stack: vec![self.root()],
        }
    }

    /// Iterates all node ids in breadth-first order (used by the analyzer's
    /// BFS-based rules).
    pub fn bfs(&self) -> Bfs<'_> {
        Bfs {
            tree: self,
            queue: std::collections::VecDeque::from([self.root()]),
        }
    }

    /// All node ids whose frame kind is `kind` (e.g. every GPU kernel node,
    /// the `call_tree.kernels` accessor of the paper's analysis snippets).
    pub fn nodes_of_kind(&self, kind: FrameKind) -> Vec<NodeId> {
        self.dfs()
            .filter(|id| self.node(*id).frame.kind() == kind)
            .collect()
    }

    /// All leaf node ids.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.dfs()
            .filter(|id| self.node(*id).children.is_empty())
            .collect()
    }

    /// Merges `other` into `self`: contexts are unified by collapse keys and
    /// metric aggregates (inclusive and exclusive alike — both live in the
    /// per-node [`MetricStore`]) are merged node-wise, so exclusive metrics
    /// stay on their node and never propagate root-ward.
    ///
    /// Returns the node mapping: entry `i` is the id in `self` that
    /// `other`'s node `i` collapsed into. Callers holding per-tree side
    /// state keyed by [`NodeId`] — unsettled samples in
    /// [`CctShard`](crate::CctShard), timeline interval contexts — remap
    /// it through this table. Used to fold per-thread/per-stream shards into a master
    /// tree.
    ///
    /// `other` may use a different interner (e.g. a tree loaded from a
    /// stored profile): its frames are re-interned into `self`'s
    /// interner on the way in, so contexts still unify by the strings
    /// they denote. Same-interner merges (the shard fold path) skip
    /// that work entirely.
    pub fn merge(&mut self, other: &CallingContextTree) -> Vec<NodeId> {
        let foreign = !Arc::ptr_eq(&self.interner, &other.interner);
        // Map other's node ids to ours, walking other's tree top-down
        // (parents always precede children in the node vector).
        let mut mapping: Vec<NodeId> = Vec::with_capacity(other.nodes.len());
        for (idx, node) in other.nodes.iter().enumerate() {
            let my_id = if idx == 0 {
                self.root()
            } else {
                let my_parent = mapping[node.parent.expect("non-root has parent").index()];
                if foreign {
                    self.insert_child(
                        my_parent,
                        &node.frame.reintern(&other.interner, &self.interner),
                    )
                } else {
                    self.insert_child(my_parent, &node.frame)
                }
            };
            mapping.push(my_id);
            self.nodes[my_id.index()].metrics.merge(&node.metrics);
        }
        mapping
    }

    /// Incrementally folds `other` into `self`, resuming from `state`.
    ///
    /// The first call with a fresh [`FoldState`] is equivalent to
    /// [`merge`](Self::merge). Subsequent calls against a *grown* `other`
    /// (CCT shards only ever gain nodes and samples during profiling)
    /// fold in only what changed since the previous call: new contexts
    /// are inserted, and per-node aggregates advance by their
    /// [`MetricStore::merge_delta`] — unchanged nodes cost one equality
    /// check and contribute nothing. This is what makes cached profile
    /// snapshots O(dirty shards) instead of O(shards × tree).
    ///
    /// `state` must only ever be used with the same `(self, other)` pair,
    /// and `other` must evolve append-only between calls (no node or
    /// sample removal); both are upheld by the profiler's snapshot cache.
    pub fn merge_incremental(&mut self, other: &CallingContextTree, state: &mut FoldState) {
        let foreign = !Arc::ptr_eq(&self.interner, &other.interner);
        for (idx, node) in other.nodes.iter().enumerate() {
            let my_id = if idx < state.mapping.len() {
                state.mapping[idx]
            } else if idx == 0 {
                state.mapping.push(self.root());
                self.root()
            } else {
                let my_parent = state.mapping[node.parent.expect("non-root has parent").index()];
                let id = if foreign {
                    self.insert_child(
                        my_parent,
                        &node.frame.reintern(&other.interner, &self.interner),
                    )
                } else {
                    self.insert_child(my_parent, &node.frame)
                };
                state.mapping.push(id);
                id
            };
            if let Some(folded) = state.folded.get_mut(idx) {
                if *folded == node.metrics {
                    continue;
                }
                self.nodes[my_id.index()]
                    .metrics
                    .merge_delta(&node.metrics, folded);
                folded.clone_from(&node.metrics);
            } else {
                self.nodes[my_id.index()].metrics.merge(&node.metrics);
                state.folded.push(node.metrics.clone());
            }
        }
    }

    /// Compares two trees for *semantic* equality: the same contexts
    /// (matched by collapse key, ignoring node ids and child insertion
    /// order) carrying the same aggregates. Counts compare exactly;
    /// sums, extrema, means and standard deviations compare within
    /// relative 1e-9. Only *measured* kinds (times, bytes, occupancy)
    /// need the tolerance — merge order perturbs their Welford state at
    /// f64 precision; kinds that count occurrences (launches,
    /// instruction samples, stalls) aggregate in integers and come out
    /// bit-equal under any order, which the shard differential tests
    /// check with `==`. Returns a description of the first difference found,
    /// or `None` when the trees are equivalent — the oracle behind the
    /// `cached == fresh` snapshot equivalence tests.
    pub fn semantic_diff(&self, other: &CallingContextTree) -> Option<String> {
        fn close(a: f64, b: f64) -> bool {
            let scale = a.abs().max(b.abs());
            (a - b).abs() <= 1e-9 * scale.max(1.0)
        }
        fn diff_nodes(
            a: &CallingContextTree,
            an: NodeId,
            b: &CallingContextTree,
            bn: NodeId,
        ) -> Option<String> {
            let (na, nb) = (a.node(an), b.node(bn));
            let at = format!("{} ({an})", na.frame.label(&a.interner));
            if na.metrics.len() != nb.metrics.len() {
                return Some(format!(
                    "{at}: {} metric kinds vs {}",
                    na.metrics.len(),
                    nb.metrics.len()
                ));
            }
            for (kind, sa) in na.metrics.iter() {
                let Some(sb) = nb.metrics.get(kind) else {
                    return Some(format!("{at}: metric {kind} missing on the right"));
                };
                if sa.count != sb.count {
                    return Some(format!("{at}: {kind} count {} vs {}", sa.count, sb.count));
                }
                if sa.count == 0 {
                    continue;
                }
                for (what, va, vb) in [
                    ("sum", sa.sum, sb.sum),
                    ("min", sa.min, sb.min),
                    ("max", sa.max, sb.max),
                    ("mean", sa.mean(), sb.mean()),
                    ("stddev", sa.stddev(), sb.stddev()),
                ] {
                    if !close(va, vb) {
                        return Some(format!("{at}: {kind} {what} {va} vs {vb}"));
                    }
                }
            }
            if na.children.len() != nb.children.len() {
                return Some(format!(
                    "{at}: {} children vs {}",
                    na.children.len(),
                    nb.children.len()
                ));
            }
            let index: FxHashMap<FrameKey, NodeId> = nb
                .children
                .iter()
                .map(|&c| (b.node(c).frame.key(), c))
                .collect();
            for &ca in &na.children {
                let Some(&cb) = index.get(&a.node(ca).frame.key()) else {
                    return Some(format!(
                        "{at}: child {} missing on the right",
                        a.node(ca).frame.label(&a.interner)
                    ));
                };
                if let Some(diff) = diff_nodes(a, ca, b, cb) {
                    return Some(diff);
                }
            }
            None
        }
        diff_nodes(self, self.root(), other, other.root())
    }

    /// Approximate resident bytes of the tree: nodes, child index, metric
    /// stores and interned strings. Drives the Figure 6c/6d memory
    /// comparison.
    pub fn approx_bytes(&self) -> usize {
        self.approx_tree_bytes() + self.interner.approx_bytes()
    }

    /// Like [`approx_bytes`](Self::approx_bytes) but without the interner,
    /// which is shared across trees in a profiling session — shard
    /// accounting sums this per shard and counts the interner once.
    pub fn approx_tree_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<CctNode>()
                    + n.children.capacity() * std::mem::size_of::<NodeId>()
                    + n.metrics.approx_bytes()
            })
            .sum();
        let index_bytes = self.child_index.capacity()
            * (std::mem::size_of::<(NodeId, FrameKey)>() + std::mem::size_of::<NodeId>() + 16);
        node_bytes + index_bytes
    }

    /// Renders the tree as an indented listing with one metric column,
    /// for debugging and golden tests.
    pub fn render(&self, kind: MetricKind) -> String {
        let mut out = String::new();
        self.render_into(self.root(), 0, kind, &mut out);
        out
    }

    fn render_into(&self, id: NodeId, depth: usize, kind: MetricKind, out: &mut String) {
        let node = self.node(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let value = node.metrics.sum(kind);
        out.push_str(&format!(
            "{} [{}={value}]\n",
            node.frame.label(&self.interner),
            kind.name()
        ));
        for &child in &node.children {
            self.render_into(child, depth + 1, kind, out);
        }
    }

    pub(crate) fn nodes_raw(&self) -> &[CctNode] {
        &self.nodes
    }

    pub(crate) fn from_raw(
        interner: Arc<Interner>,
        raw: Vec<(Option<NodeId>, Frame, MetricStore)>,
    ) -> Result<Self, crate::CoreError> {
        let mut tree = CallingContextTree::with_interner(interner);
        for (idx, (parent, frame, metrics)) in raw.into_iter().enumerate() {
            if idx == 0 {
                if parent.is_some() || !matches!(frame, Frame::Root) {
                    return Err(crate::CoreError::parse(
                        "first node must be the root".into(),
                    ));
                }
                tree.nodes[0].metrics = metrics;
                continue;
            }
            let parent = parent
                .ok_or_else(|| crate::CoreError::parse("non-root node without parent".into()))?;
            if parent.index() >= idx {
                return Err(crate::CoreError::parse("parent id out of order".into()));
            }
            let id = tree.insert_child(parent, &frame);
            if id.index() != idx {
                return Err(crate::CoreError::parse(
                    "duplicate collapse key in stored tree".into(),
                ));
            }
            tree.nodes[id.index()].metrics = metrics;
        }
        Ok(tree)
    }
}

impl Default for CallingContextTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Resumable state of one incremental fold (see
/// [`CallingContextTree::merge_incremental`]): the node mapping from the
/// source tree into the destination, plus each source node's aggregates
/// as of the last fold, so the next fold can compute deltas.
#[derive(Debug, Clone, Default)]
pub struct FoldState {
    mapping: Vec<NodeId>,
    folded: Vec<MetricStore>,
}

impl FoldState {
    /// A fresh state: the first fold through it behaves like a plain
    /// [`CallingContextTree::merge`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The destination id each source node folded into so far (entry `i`
    /// is source node `i`), mirroring [`CallingContextTree::merge`]'s
    /// return value.
    pub fn mapping(&self) -> &[NodeId] {
        &self.mapping
    }

    /// Number of source nodes folded so far.
    pub fn folded_nodes(&self) -> usize {
        self.mapping.len()
    }

    /// Approximate resident bytes of the fold state (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.mapping.capacity() * std::mem::size_of::<NodeId>()
            + self
                .folded
                .iter()
                .map(|s| std::mem::size_of::<MetricStore>() + s.approx_bytes())
                .sum::<usize>()
    }
}

/// Depth-first (pre-order) node iterator. See [`CallingContextTree::dfs`].
#[derive(Debug)]
pub struct Dfs<'a> {
    tree: &'a CallingContextTree,
    stack: Vec<NodeId>,
}

impl Iterator for Dfs<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let node = self.tree.node(id);
        self.stack.extend(node.children.iter().rev().copied());
        Some(id)
    }
}

/// Breadth-first node iterator. See [`CallingContextTree::bfs`].
#[derive(Debug)]
pub struct Bfs<'a> {
    tree: &'a CallingContextTree,
    queue: std::collections::VecDeque<NodeId>,
}

impl Iterator for Bfs<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.queue.pop_front()?;
        self.queue
            .extend(self.tree.node(id).children.iter().copied());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OpPhase;

    fn sample_path(tree: &CallingContextTree, op: &str, kernel: &str) -> Vec<Frame> {
        let i = tree.interner();
        // Give each kernel a distinct entry address, as a loader would.
        let pc = 0x100 + kernel.bytes().map(u64::from).sum::<u64>();
        vec![
            Frame::python("train.py", 10, "train", &i),
            Frame::operator(op, &i),
            Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x10, &i),
            Frame::gpu_kernel(kernel, "module.so", pc, &i),
        ]
    }

    #[test]
    fn inserting_same_path_twice_reuses_nodes() {
        let mut t = CallingContextTree::new();
        let path = sample_path(&t, "aten::matmul", "sgemm");
        let a = t.insert_path(&path);
        let count = t.node_count();
        let b = t.insert_path(&path);
        assert_eq!(a, b);
        assert_eq!(t.node_count(), count);
    }

    #[test]
    fn diverging_paths_share_prefix() {
        let mut t = CallingContextTree::new();
        let a = t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        let b = t.insert_path(&sample_path(&t, "aten::matmul", "hgemm"));
        assert_ne!(a, b);
        // Root + python + operator + api shared, two kernels.
        assert_eq!(t.node_count(), 1 + 3 + 2);
        assert_eq!(t.node(a).parent(), t.node(b).parent());
    }

    #[test]
    fn attribute_propagates_to_root() {
        let mut t = CallingContextTree::new();
        let leaf = t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        t.attribute(leaf, MetricKind::GpuTime, 100.0);
        t.attribute(leaf, MetricKind::GpuTime, 50.0);
        for id in t.path_to_root(leaf) {
            let stat = t.metric(id, MetricKind::GpuTime).unwrap();
            assert_eq!(stat.sum, 150.0);
            assert_eq!(stat.count, 2);
            assert_eq!(stat.min, 50.0);
            assert_eq!(stat.max, 100.0);
        }
    }

    #[test]
    fn merge_stat_is_attribute_for_a_whole_aggregate() {
        let mut eager = CallingContextTree::new();
        let path = sample_path(&eager, "aten::matmul", "sgemm");
        let leaf = eager.insert_path(&path);
        let mut batched = eager.clone();
        let mut stat = MetricStat::new();
        for v in [100.0, 50.0, 75.0] {
            eager.attribute(leaf, MetricKind::GpuTime, v);
            stat.add(v);
        }
        batched.merge_stat(leaf, MetricKind::GpuTime, &stat);
        for id in batched.path_to_root(leaf) {
            assert_eq!(batched.metric(id, MetricKind::GpuTime), Some(&stat));
        }
        assert_eq!(batched.semantic_diff(&eager), None);
    }

    #[test]
    fn attribute_exclusive_does_not_propagate() {
        let mut t = CallingContextTree::new();
        let leaf = t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        t.attribute_exclusive(leaf, MetricKind::Warps, 32.0);
        assert_eq!(t.metric(leaf, MetricKind::Warps).unwrap().sum, 32.0);
        assert!(t.root_metric(MetricKind::Warps).is_none());
    }

    #[test]
    fn root_sum_equals_sum_over_leaf_attributions() {
        let mut t = CallingContextTree::new();
        let mut expected = 0.0;
        for (op, kernel, v) in [
            ("aten::matmul", "sgemm", 10.0),
            ("aten::conv2d", "implicit_gemm", 20.0),
            ("aten::matmul", "sgemm", 30.0),
        ] {
            let leaf = t.insert_path(&sample_path(&t, op, kernel));
            t.attribute(leaf, MetricKind::GpuTime, v);
            expected += v;
        }
        assert_eq!(t.total(MetricKind::GpuTime), expected);
    }

    #[test]
    fn parent_inclusive_sum_bounds_child() {
        let mut t = CallingContextTree::new();
        let a = t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        let b = t.insert_path(&sample_path(&t, "aten::conv2d", "implicit_gemm"));
        t.attribute(a, MetricKind::GpuTime, 5.0);
        t.attribute(b, MetricKind::GpuTime, 7.0);
        for id in t.dfs() {
            let here = t.node(id).metrics().sum(MetricKind::GpuTime);
            if let Some(parent) = t.node(id).parent() {
                let up = t.node(parent).metrics().sum(MetricKind::GpuTime);
                assert!(up >= here, "parent {up} < child {here}");
            }
        }
    }

    #[test]
    fn merge_reinterns_frames_from_a_foreign_tree() {
        // Two trees built independently (distinct interners), same
        // logical contexts. A fresh union must unify them by string,
        // not by raw Sym value.
        let mut a = CallingContextTree::new();
        let la = a.insert_path(&sample_path(&a, "aten::matmul", "sgemm"));
        a.attribute(la, MetricKind::GpuTime, 10.0);
        let mut b = CallingContextTree::new();
        let lb = b.insert_path(&sample_path(&b, "aten::matmul", "sgemm"));
        b.attribute(lb, MetricKind::GpuTime, 5.0);

        let mut union = CallingContextTree::new();
        let map_a = union.merge(&a);
        let map_b = union.merge(&b);
        assert_eq!(union.node_count(), a.node_count());
        assert_eq!(map_a[la.index()], map_b[lb.index()]);
        assert_eq!(union.total(MetricKind::GpuTime), 15.0);
        let interner = union.interner();
        let leaf = map_a[la.index()];
        assert_eq!(union.node(leaf).frame().short_label(&interner), "sgemm");
    }

    #[test]
    fn nodes_of_kind_finds_kernels() {
        let mut t = CallingContextTree::new();
        t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        t.insert_path(&sample_path(&t, "aten::conv2d", "implicit_gemm"));
        let kernels = t.nodes_of_kind(FrameKind::GpuKernel);
        assert_eq!(kernels.len(), 2);
        for k in kernels {
            assert_eq!(t.node(k).frame().kind(), FrameKind::GpuKernel);
        }
    }

    #[test]
    fn dfs_and_bfs_visit_every_node_once() {
        let mut t = CallingContextTree::new();
        t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        t.insert_path(&sample_path(&t, "aten::conv2d", "implicit_gemm"));
        let dfs: Vec<_> = t.dfs().collect();
        let bfs: Vec<_> = t.bfs().collect();
        assert_eq!(dfs.len(), t.node_count());
        assert_eq!(bfs.len(), t.node_count());
        let mut sorted_dfs = dfs.clone();
        sorted_dfs.sort();
        sorted_dfs.dedup();
        assert_eq!(sorted_dfs.len(), t.node_count());
        assert_eq!(dfs[0], t.root());
        assert_eq!(bfs[0], t.root());
    }

    #[test]
    fn frames_to_root_round_trips_insert_path() {
        let mut t = CallingContextTree::new();
        let path = sample_path(&t, "aten::matmul", "sgemm");
        let leaf = t.insert_path(&path);
        let back = t.frames_to_root(leaf);
        assert_eq!(back.frames(), &path[..]);
        assert_eq!(t.depth(leaf), path.len());
    }

    #[test]
    fn merge_unifies_contexts_and_metrics() {
        let mut a = CallingContextTree::new();
        let interner = a.interner();
        let mut b = CallingContextTree::with_interner(Arc::clone(&interner));

        let path1 = vec![
            Frame::python("m.py", 1, "f", &interner),
            Frame::operator("aten::relu", &interner),
        ];
        let path2 = vec![
            Frame::python("m.py", 1, "f", &interner),
            Frame::operator("aten::gelu", &interner),
        ];
        let la = a.insert_path(&path1);
        a.attribute(la, MetricKind::GpuTime, 10.0);
        let lb1 = b.insert_path(&path1);
        b.attribute(lb1, MetricKind::GpuTime, 5.0);
        let lb2 = b.insert_path(&path2);
        b.attribute(lb2, MetricKind::GpuTime, 2.0);

        a.merge(&b);
        assert_eq!(a.total(MetricKind::GpuTime), 17.0);
        // Root + python + relu + gelu
        assert_eq!(a.node_count(), 4);
        let relu = a.insert_path(&path1);
        assert_eq!(a.metric(relu, MetricKind::GpuTime).unwrap().sum, 15.0);
    }

    #[test]
    fn merge_incremental_first_fold_matches_merge() {
        let mut fresh = CallingContextTree::new();
        let interner = fresh.interner();
        let mut source = CallingContextTree::with_interner(Arc::clone(&interner));
        for (op, kernel, v) in [
            ("aten::matmul", "sgemm", 4.0),
            ("aten::relu", "relu_k", 2.0),
        ] {
            let leaf = source.insert_path(&sample_path(&source, op, kernel));
            source.attribute(leaf, MetricKind::GpuTime, v);
        }
        let mut incr = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut state = FoldState::new();
        incr.merge_incremental(&source, &mut state);
        let mapping = fresh.merge(&source);
        assert_eq!(state.mapping(), &mapping[..]);
        assert_eq!(state.folded_nodes(), source.node_count());
        assert_eq!(incr.semantic_diff(&fresh), None);
    }

    #[test]
    fn merge_incremental_folds_only_the_delta() {
        let mut master = CallingContextTree::new();
        let interner = master.interner();
        let mut source = CallingContextTree::with_interner(Arc::clone(&interner));
        let mut state = FoldState::new();

        let a = source.insert_path(&sample_path(&source, "aten::matmul", "sgemm"));
        source.attribute(a, MetricKind::GpuTime, 10.0);
        master.merge_incremental(&source, &mut state);

        // Grow the source: more samples on an old node, plus a new context.
        source.attribute(a, MetricKind::GpuTime, 7.0);
        let b = source.insert_path(&sample_path(&source, "aten::conv2d", "implicit_gemm"));
        source.attribute(b, MetricKind::GpuTime, 5.0);
        master.merge_incremental(&source, &mut state);

        let mut fresh = CallingContextTree::with_interner(Arc::clone(&interner));
        fresh.merge(&source);
        assert_eq!(
            master.semantic_diff(&fresh),
            None,
            "\n{}",
            master.render(MetricKind::GpuTime)
        );

        // A third fold with nothing new is a no-op.
        let before = master.total(MetricKind::GpuTime);
        master.merge_incremental(&source, &mut state);
        assert_eq!(master.total(MetricKind::GpuTime), before);
    }

    #[test]
    fn semantic_diff_ignores_order_but_catches_differences() {
        let mut a = CallingContextTree::new();
        let interner = a.interner();
        let mut b = CallingContextTree::with_interner(Arc::clone(&interner));
        // Same contexts inserted in opposite orders.
        let pa = sample_path(&a, "aten::matmul", "sgemm");
        let pb = sample_path(&a, "aten::conv2d", "implicit_gemm");
        let la = a.insert_path(&pa);
        a.insert_path(&pb);
        let lb = b.insert_path(&pb);
        let lb2 = b.insert_path(&pa);
        a.attribute(la, MetricKind::GpuTime, 3.0);
        b.attribute(lb2, MetricKind::GpuTime, 3.0);
        assert_eq!(a.semantic_diff(&b), None);
        // Metric drift is caught.
        b.attribute(lb, MetricKind::GpuTime, 1.0);
        assert!(a.semantic_diff(&b).is_some());
    }

    #[test]
    fn backward_and_forward_operators_are_distinct_contexts() {
        let mut t = CallingContextTree::new();
        let i = t.interner();
        let fwd = vec![Frame::operator_with(
            "aten::index",
            OpPhase::Forward,
            Some(3),
            &i,
        )];
        let bwd = vec![Frame::operator_with(
            "aten::index",
            OpPhase::Backward,
            Some(3),
            &i,
        )];
        let f = t.insert_path(&fwd);
        let b = t.insert_path(&bwd);
        assert_ne!(f, b);
    }

    #[test]
    fn approx_bytes_grows_with_nodes() {
        let mut t = CallingContextTree::new();
        let before = t.approx_bytes();
        for n in 0..100 {
            let path = sample_path(&t, &format!("op{n}"), &format!("kernel{n}"));
            let leaf = t.insert_path(&path);
            t.attribute(leaf, MetricKind::GpuTime, 1.0);
        }
        assert!(t.approx_bytes() > before);
    }

    #[test]
    fn render_contains_labels_and_metric() {
        let mut t = CallingContextTree::new();
        let leaf = t.insert_path(&sample_path(&t, "aten::matmul", "sgemm"));
        t.attribute(leaf, MetricKind::GpuTime, 33.0);
        let rendered = t.render(MetricKind::GpuTime);
        assert!(rendered.contains("aten::matmul"));
        assert!(rendered.contains("sgemm"));
        assert!(rendered.contains("33"));
    }
}
