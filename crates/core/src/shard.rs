//! Per-thread/per-stream calling-context-tree shards.
//!
//! DeepContext aggregates metrics online (paper §4.2), which makes the
//! attribution path the ingestion bottleneck: one global tree behind one
//! lock serializes every kernel launch, activity record and CPU sample. A
//! [`CctShard`] is the unit of the sharded alternative — a private
//! [`CallingContextTree`] owned by one ingestion shard and locked
//! independently of its siblings. Shards share one [`Interner`], so
//! frames collapse identically everywhere and folding shards together is
//! pure [`CallingContextTree::merge`].
//!
//! **Contexts enter a shard by handle.** Events carry the [`PathId`] the
//! session's [path table](crate::PathTable) gave their calling context;
//! [`CctShard::node_for`] turns it into this shard's node with one read
//! of a dense vector indexed by `PathId`. The first time a shard meets a
//! path it walks the table's parent links up to the nearest ancestor it
//! already knows and inserts the missing frames below it — once per path
//! per shard, after which that context costs no hashing at all.
//!
//! **Samples enter a shard through [`CctShard::count`] and
//! [`CctShard::attribute`] and nowhere else**, and wait at the attributed
//! node until [`CctShard::settle`] carries them root-ward. The scratch
//! they wait in is a per-node index (4 bytes a node) into one slot per
//! *touched* node, and a slot has two parts, for the two kinds of data a
//! shard receives:
//!
//! * *Occurrences* — launches, instruction samples, one kind per stall
//!   reason; every sample is the value `1.0` — are `count`ed into the
//!   slot's `UNIT_COLUMNS` integer counters: an index read and one add,
//!   no hashing, no [`MetricStat`]. The counters are `u64`: a launch- or
//!   sample-only shard settles at flush boundaries only, so a column can
//!   outlive any number of batches, and `u32` would need a branch in
//!   `count` that settles the shard under its caller.
//! * *Measurements* — times, bytes, custom kinds, anything without a
//!   column — are `attribute`d into one aggregate per touched `(node,
//!   kind)`, chained off the slot (a node holds three or four at most).
//!
//! `settle` is one sweep over node ids **descending**. A child is always
//! inserted after its parent, so by the time a node is visited everything
//! below it has arrived: its counters merge into its own store as that
//! many samples of `1.0` and are added, as integers, to the parent's
//! slot; its aggregates merge into its own store and then into the
//! parent's list (a parent holding nothing adopts the child's list whole,
//! which is most of the single-child Python/operator spine). Every
//! ancestor is thus merged once per kind per settle, not once per
//! descendant, and in a **stated order**: *a node's own aggregate first,
//! then its children's by descending `NodeId`*. An aggregate is count,
//! sum, min and max, and only `sum` can depend on order: the stated order
//! fixes its low bits for samples that are neither integers nor
//! multiples of a power of two, and the runtime produces none. Every sum
//! it does produce — occurrences, ns, bytes, occupancy `k/64` or `k/32`
//! — is exact below 2^53 units, so the settled tree is bit-identical
//! whatever order its samples arrived or were folded in.
//!
//! **What this is built for, and what it costs elsewhere.** Slots, lists
//! and merges scale with the nodes touched since the last settle and
//! their ancestors; the index alone scales with the tree: every settle
//! that has work allocates, fills and sweeps 4 bytes per node of the
//! shard (room for a slot per node is reserved with it, but written only
//! where touched). That is the right trade where a batch touches most of
//! a small tree — every benchmark workload: 21–608 nodes a shard, at
//! least 99.5 % of them reached by every settle — and the wrong one for
//! a shard of ~10^5 nodes of which a batch touches a handful, where the
//! map this replaced cost O(touched × depth) and a scratch microbench
//! (102 558 nodes, 8–64 touched contexts per 4 096 records) reads about
//! twice its time per batch. No benchmark workload is on that side; the
//! readings are in CHANGES.md under PR 21.
//!
//! The shard's tree therefore holds inclusive metrics *at settle points*,
//! not always: whoever owns the shard settles it before the tree is
//! folded, read or measured (`ShardedSink` does so under the shard lock
//! at every batch boundary and before every fold). `settle` releases the
//! scratch, and [`CctShard::approx_bytes`] counts it while it is held.
//! Exclusive metrics (launch shapes, sampled drop victims) never
//! propagate and are written to the tree directly.
//!
//! **A shard owns the correlations launched into it.** Every launch and
//! every record of one GPU stream go to the same shard, so the shard's
//! own [`IdWindow`] maps `corr → PathId` under the lock its owner already
//! holds, and keeps the *retirement* cadence beside it:
//!
//! * [`bind`](CctShard::bind) maps a launch's correlation to its
//!   context; [`correlations`](CctShard::correlations) is the window a
//!   record looks its correlation up in;
//! * [`defer_prune`](CctShard::defer_prune) / [`end_batch`](CctShard::end_batch)
//!   implement two-phase pruning: ids attributed in the *previous* batch
//!   leave the window at the end of the current one, so records that
//!   straddle a buffer boundary (e.g. PC-sampling batches) still
//!   resolve;
//! * [`orphan_node`](CctShard::orphan_node) is the hoisted `<unattributed>`
//!   catch-all context, created once per shard instead of re-interned per
//!   orphaned record.

use std::sync::Arc;

use crate::cct::{CallingContextTree, NodeId};
use crate::frame::Frame;
use crate::interner::Interner;
use crate::metrics::{MetricKind, MetricStat, UNIT_COLUMNS};
use crate::path::PathId;
use crate::window::IdWindow;

/// A `by_path` slot this shard has not resolved yet.
const UNRESOLVED: NodeId = NodeId(u32::MAX);

/// "No entry": a node without a slot, the end of a list.
const NONE: u32 = u32::MAX;

/// One measured aggregate waiting at a node.
#[derive(Debug, Clone, Copy)]
struct Held {
    kind: MetricKind,
    stat: MetricStat,
    /// The node's next entry in [`Pending::held`], or [`NONE`].
    next: u32,
}

/// What one touched node holds.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Its occurrence counters, one per unit column.
    counts: [u64; UNIT_COLUMNS],
    /// Its first entry in [`Pending::held`], or [`NONE`].
    held: u32,
}

/// Inclusive samples not yet carried root-ward (see the
/// [module docs](self)): scratch that lives between two settles, not
/// profile state. `slot_of` is sized to the tree, and `slots` reserved
/// for it, on first touch, so neither grows with what arrives.
#[derive(Debug, Clone, Default)]
struct Pending {
    /// Per node, its entry in `slots`, or [`NONE`].
    slot_of: Vec<u32>,
    /// One entry per touched node.
    slots: Vec<Slot>,
    /// One entry per touched `(node, measured kind)`.
    held: Vec<Held>,
}

/// The entry for `kind` in the list that starts at `first`, or [`NONE`].
fn find(held: &[Held], first: u32, kind: MetricKind) -> u32 {
    let mut at = first;
    while at != NONE && held[at as usize].kind != kind {
        at = held[at as usize].next;
    }
    at
}

impl Pending {
    /// `node`'s slot, handed out empty on first touch, in a tree of
    /// `nodes` nodes.
    #[inline]
    fn slot(&mut self, node: NodeId, nodes: usize) -> &mut Slot {
        if node.index() >= self.slot_of.len() {
            self.slot_of.resize(nodes, NONE);
            self.slots.reserve(nodes - self.slots.len());
        }
        let mut at = self.slot_of[node.index()];
        if at == NONE {
            at = self.slots.len() as u32;
            self.slot_of[node.index()] = at;
            self.slots.push(Slot {
                counts: [0; UNIT_COLUMNS],
                held: NONE,
            });
        }
        &mut self.slots[at as usize]
    }

    /// `node`'s aggregate for `kind`, created empty if it holds none.
    fn stat(&mut self, node: NodeId, kind: MetricKind, nodes: usize) -> &mut MetricStat {
        let first = self.slot(node, nodes).held;
        let mut at = find(&self.held, first, kind);
        if at == NONE {
            at = self.held.len() as u32;
            self.held.push(Held {
                kind,
                stat: MetricStat::new(),
                next: first,
            });
            self.slot(node, nodes).held = at;
        }
        &mut self.held[at as usize].stat
    }
}

/// One shard of a sharded calling-context-tree ingestion pipeline: a
/// private tree, its `PathId → node` vector, its correlation window and
/// its prune queue.
///
/// Correlation keys are raw `u64`s so the core stays independent of any
/// particular GPU runtime's id type.
#[derive(Debug, Clone)]
pub struct CctShard {
    tree: CallingContextTree,
    /// This shard's node for each [`PathId`], dense by index, filled the
    /// first time the path is seen here. Node ids are append-only, so an
    /// entry stays valid whatever else is inserted into the tree.
    by_path: Vec<NodeId>,
    orphan: Option<NodeId>,
    /// The correlations launched into this shard and not yet retired.
    correlations: IdWindow<PathId>,
    // `prev_batch` is sorted (its own batch ended with the sort), so
    // `end_batch` sorts `curr_batch` and merge-walks the two.
    prev_batch: Vec<u64>,
    curr_batch: Vec<u64>,
    generation: u64,
    /// Samples waiting for the next [`settle`](Self::settle).
    pending: Pending,
}

impl CctShard {
    /// Creates an empty shard sharing `interner` with its siblings.
    pub fn new(interner: Arc<Interner>) -> Self {
        CctShard {
            tree: CallingContextTree::with_interner(interner),
            by_path: Vec::new(),
            orphan: None,
            correlations: IdWindow::default(),
            prev_batch: Vec::new(),
            curr_batch: Vec::new(),
            generation: 0,
            pending: Pending::default(),
        }
    }

    /// The shard's dirty generation: a counter advanced by every
    /// operation that may have changed the shard's *tree* (inserting
    /// contexts, attributing metrics).
    /// Snapshot caches remember the generation they folded and skip the
    /// shard entirely while it has not advanced. Prune bookkeeping
    /// (`defer_prune`, `end_batch`) and resolving a path the shard
    /// already knows do not bump it, because snapshots fold trees only.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Read access to the shard's tree. Its contexts are always
    /// current; its metrics are inclusive only once the shard has been
    /// [settled](Self::settle).
    pub fn tree(&self) -> &CallingContextTree {
        &self.tree
    }

    /// Mutable access to the shard's tree (inserting contexts, exclusive
    /// metrics). Conservatively bumps the dirty generation: callers take
    /// this to mutate, and a spurious bump only costs one no-op re-fold.
    pub fn tree_mut(&mut self) -> &mut CallingContextTree {
        self.generation += 1;
        &mut self.tree
    }

    /// This shard's node for `path`: one vector read for a path seen
    /// here before, the parent-link walk described in the `shard`
    /// module docs otherwise.
    pub fn node_for(&mut self, path: PathId) -> NodeId {
        match self.by_path.get(path.index()) {
            Some(&node) if node != UNRESOLVED => node,
            _ => self.resolve(path),
        }
    }

    #[cold]
    fn resolve(&mut self, path: PathId) -> NodeId {
        if path.index() >= self.by_path.len() {
            // Parents precede children in the table, so every ancestor's
            // slot is in range too.
            self.by_path.resize(path.index() + 1, UNRESOLVED);
            self.by_path[0] = NodeId::ROOT;
        }
        let interner = self.tree.interner();
        let entries = interner.paths().entries();
        // Slot 0 is the root, so the walk stops there at the latest.
        let missing: Vec<PathId> = entries
            .leaf_to_root(path)
            .take_while(|id| self.by_path[id.index()] == UNRESOLVED)
            .collect();
        let known = missing.last().map_or(path, |&id| entries.parent(id));
        let mut node = self.by_path[known.index()];
        if !missing.is_empty() {
            self.generation += 1;
        }
        for id in missing.into_iter().rev() {
            node = self.tree.insert_child(node, entries.frame(id));
            self.by_path[id.index()] = node;
        }
        node
    }

    /// Records `n` occurrences — `n` inclusive samples of the value `1.0`
    /// — of `kind` at `node`: one integer add for a kind that counts
    /// occurrences, the `n × 1.0` aggregate through
    /// [`attribute`](Self::attribute)'s list for any other. The node's
    /// ancestors receive them at the next [`settle`](Self::settle).
    #[inline]
    pub fn count(&mut self, node: NodeId, kind: MetricKind, n: u64) {
        self.generation += 1;
        let nodes = self.tree.node_count();
        match kind.unit_column() {
            Some(column) => self.pending.slot(node, nodes).counts[column] += n,
            None => self
                .pending
                .stat(node, kind, nodes)
                .merge(&MetricStat::units(n)),
        }
    }

    /// Records one inclusive sample of `kind` at `node`. The sample is
    /// aggregated at the node only; its ancestors receive it at the next
    /// [`settle`](Self::settle). Any kind may come this way — a `(node,
    /// kind)` both counted and attributed settles to the sum of the two.
    pub fn attribute(&mut self, node: NodeId, kind: MetricKind, value: f64) {
        self.generation += 1;
        let nodes = self.tree.node_count();
        self.pending.stat(node, kind, nodes).add(value);
    }

    /// Carries every unsettled sample root-ward — one descending sweep,
    /// each node merged once per kind, in the order the `shard` module
    /// docs state — and releases the scratch the samples
    /// were held in. Afterwards the tree is exactly what
    /// sample-by-sample propagation would have built. Does not bump the
    /// dirty generation: [`count`](Self::count) and
    /// [`attribute`](Self::attribute) already did.
    pub fn settle(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        let nodes = pending.slot_of.len();
        for at in (0..nodes).rev() {
            if pending.slot_of[at] == NONE {
                continue;
            }
            let Slot { counts, held: list } = pending.slots[pending.slot_of[at] as usize];
            let node = NodeId(at as u32);
            let parent = self.tree.node(node).parent();
            assert!(
                parent.is_none_or(|up| up.index() < at),
                "a child is inserted after its parent"
            );
            // The parent's slot; its id is lower, so `slot_of` covers it.
            let up = parent.map(|up| {
                pending.slot(up, nodes);
                pending.slot_of[up.index()] as usize
            });
            for (column, n) in counts.into_iter().enumerate().filter(|(_, n)| *n != 0) {
                let kind = MetricKind::from_unit_column(column).expect("a kind per column");
                self.tree.merge_stat_at(node, kind, &MetricStat::units(n));
                if let Some(up) = up {
                    pending.slots[up].counts[column] += n;
                }
            }
            // A parent holding nothing adopts the list whole; otherwise
            // each entry joins the parent's own of its kind, own first.
            let mut joins = None;
            if let (Some(up), true) = (up, list != NONE) {
                if pending.slots[up].held == NONE {
                    pending.slots[up].held = list;
                } else {
                    joins = Some(up);
                }
            }
            let mut entry = list;
            while entry != NONE {
                let Held { kind, stat, next } = pending.held[entry as usize];
                self.tree.merge_stat_at(node, kind, &stat);
                if let Some(up) = joins {
                    let own = find(&pending.held, pending.slots[up].held, kind);
                    if own == NONE {
                        pending.held[entry as usize].next = pending.slots[up].held;
                        pending.slots[up].held = entry;
                    } else {
                        pending.held[own as usize].stat.merge(&stat);
                    }
                }
                entry = next;
            }
        }
    }

    /// The hoisted catch-all context for records whose correlation was
    /// pruned or never seen. Created on first use and reused thereafter,
    /// so orphaned records cost nothing beyond the attribution itself.
    pub fn orphan_node(&mut self) -> NodeId {
        match self.orphan {
            Some(node) => node,
            None => {
                self.generation += 1;
                let interner = self.tree.interner();
                let frame = Frame::gpu_kernel("<unattributed>", "<none>", 0, &interner);
                let node = self.tree.insert_path(std::slice::from_ref(&frame));
                self.orphan = Some(node);
                node
            }
        }
    }

    /// The node a record whose correlation resolved to `path` attributes
    /// at, falling back to the hoisted catch-all when the correlation was
    /// unknown. Returns the node and whether it was the orphan fallback.
    pub fn node_or_orphan(&mut self, path: Option<PathId>) -> (NodeId, bool) {
        match path {
            Some(path) => (self.node_for(path), false),
            None => (self.orphan_node(), true),
        }
    }

    /// Binds `correlation` to the context `path` its launch was made
    /// from (a later bind wins).
    pub fn bind(&mut self, correlation: u64, path: PathId) {
        self.correlations.insert(correlation, path);
    }

    /// The correlations bound here and not yet retired.
    pub fn correlations(&self) -> &IdWindow<PathId> {
        &self.correlations
    }

    /// Marks `correlation` as attributed in the current batch; it becomes
    /// prunable once the *next* batch completes.
    pub fn defer_prune(&mut self, correlation: u64) {
        self.curr_batch.push(correlation);
    }

    /// Ends an activity batch: the correlations deferred in the previous
    /// batch and not re-attributed in this one leave the window.
    pub fn end_batch(&mut self) {
        // Correlation ids arrive nearly in order, so the sort is close
        // to a scan; `prev_batch` was sorted when its own batch ended.
        self.curr_batch.sort_unstable();
        let mut renewed = self.curr_batch.iter().copied().peekable();
        for id in self.prev_batch.drain(..) {
            while renewed.next_if(|&r| r < id).is_some() {}
            if renewed.peek() != Some(&id) {
                self.correlations.remove(id);
            }
        }
        std::mem::swap(&mut self.prev_batch, &mut self.curr_batch);
    }

    /// Releases the capacity a large batch left behind in the prune
    /// queues and the correlation window (both retain their high-water
    /// capacity after draining). Called at quiescent points — e.g. after
    /// a flush boundary has retired all deferred correlations — so
    /// resident profile memory tracks *live* state, not the largest
    /// batch ever seen. Does not touch the tree (and so does not dirty
    /// the shard's snapshot generation).
    pub fn trim(&mut self) {
        fn oversized(capacity: usize, len: usize) -> bool {
            capacity > 64 && capacity / 4 > len
        }
        if oversized(self.prev_batch.capacity(), self.prev_batch.len()) {
            self.prev_batch.shrink_to_fit();
        }
        if oversized(self.curr_batch.capacity(), self.curr_batch.len()) {
            self.curr_batch.shrink_to_fit();
        }
        self.correlations.trim();
    }

    /// Approximate resident bytes of tree (interner and its path table
    /// excluded), path vector, prune queues and whatever settle scratch
    /// is currently held. The correlation window is sized apart, through
    /// [`correlations`](Self::correlations): peak accounting charges it
    /// by its span, holes included ([`IdWindow::held_bytes`]), resident
    /// accounting by capacity.
    pub fn approx_bytes(&self) -> usize {
        let Pending {
            slot_of,
            slots,
            held,
        } = &self.pending;
        self.tree.approx_tree_bytes()
            + self.by_path.capacity() * std::mem::size_of::<NodeId>()
            + (self.prev_batch.capacity() + self.curr_batch.capacity()) * std::mem::size_of::<u64>()
            + slot_of.capacity() * std::mem::size_of::<u32>()
            + slots.capacity() * std::mem::size_of::<Slot>()
            + held.capacity() * std::mem::size_of::<Held>()
    }

    /// Whether the shard recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.tree.node_count() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKind;
    use crate::path::PathHandle;

    fn interner() -> Arc<Interner> {
        Interner::new()
    }

    fn path(i: &Arc<Interner>, op: &str) -> Vec<Frame> {
        vec![
            Frame::python("t.py", 1, "f", i),
            Frame::operator(op, i),
            Frame::gpu_kernel(&format!("k_{op}"), "m.so", 0x100, i),
        ]
    }

    fn handle(i: &Arc<Interner>, op: &str) -> PathHandle {
        i.paths().intern(&path(i, op))
    }

    #[test]
    fn orphan_node_is_created_once() {
        let i = interner();
        let mut shard = CctShard::new(i);
        let a = shard.orphan_node();
        let b = shard.orphan_node();
        assert_eq!(a, b);
        assert_eq!(shard.tree().node_count(), 2, "root + one catch-all");
        assert_eq!(shard.node_or_orphan(None), (a, true));
    }

    #[test]
    fn attribute_lands_at_the_node_until_settle_walks_it_up() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let leaf = shard.node_for(handle(&i, "aten::gelu").id());
        let mut eager = CallingContextTree::with_interner(Arc::clone(&i));
        let eager_leaf = eager.insert_path(&path(&i, "aten::gelu"));
        for v in [5.0, 3.0, 9.0] {
            shard.attribute(leaf, MetricKind::GpuTime, v);
            eager.attribute(eager_leaf, MetricKind::GpuTime, v);
        }
        assert_eq!(
            shard.tree().total(MetricKind::GpuTime),
            0.0,
            "nothing walks root-ward before settle"
        );
        shard.settle();
        for id in shard.tree().path_to_root(leaf) {
            let stat = shard.tree().metric(id, MetricKind::GpuTime).unwrap();
            assert_eq!(
                (stat.count, stat.sum, stat.min, stat.max),
                (3, 17.0, 3.0, 9.0)
            );
        }
        assert_eq!(shard.tree().semantic_diff(&eager), None);
        // Settling twice adds nothing.
        shard.settle();
        assert_eq!(shard.tree().total(MetricKind::GpuTime), 17.0);
    }

    #[test]
    fn settle_releases_its_scratch() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let gelu = handle(&i, "aten::gelu").id();
        let leaf = shard.node_for(gelu);
        shard.count(leaf, MetricKind::KernelLaunches, 1);
        shard.attribute(leaf, MetricKind::GpuTime, 250.0);
        shard.settle();
        let settled = shard.approx_bytes();
        // More samples of kinds every node on the path already carries
        // grow nothing but the scratch they wait in: the per-node index
        // and the slots reserved for it, then the aggregates, each
        // counted.
        assert_eq!(shard.node_for(gelu), leaf);
        shard.count(leaf, MetricKind::KernelLaunches, 1);
        let counted = shard.approx_bytes();
        let slot = std::mem::size_of::<Slot>();
        assert_eq!(counted, settled + 4 * 4 + 4 * slot, "sized to the tree");
        shard.attribute(leaf, MetricKind::GpuTime, 250.0);
        let held = std::mem::size_of::<Held>();
        assert_eq!(shard.approx_bytes(), counted + 4 * held);
        shard.settle();
        assert_eq!(shard.approx_bytes(), settled);
    }

    #[test]
    fn counts_are_unit_samples_and_a_column_outlives_u32() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let leaf = shard.node_for(handle(&i, "aten::gelu").id());
        let stall = MetricKind::Stall(crate::StallReason::Other);
        // A launch-only shard settles at flush boundaries only: nothing
        // bounds what a column holds in between.
        let big = u64::from(u32::MAX);
        shard.count(leaf, stall, big);
        shard.count(leaf, stall, big);
        shard.count(leaf, stall, 3);
        // Attributed as well as counted: it settles to the sum of both.
        shard.attribute(leaf, stall, 1.0);
        // A kind without a column waits as the `n × 1.0` aggregate.
        shard.count(leaf, MetricKind::CpuTime, 3);
        shard.attribute(leaf, MetricKind::CpuTime, 5.0);
        shard.settle();
        for id in shard.tree().path_to_root(leaf) {
            let got = shard.tree().metric(id, stall).unwrap();
            assert_eq!(*got, MetricStat::units(2 * big + 4), "{id}: no epsilon");
            let cpu = shard.tree().metric(id, MetricKind::CpuTime).unwrap();
            assert_eq!((cpu.count, cpu.sum, cpu.min, cpu.max), (4, 8.0, 1.0, 5.0));
        }
    }

    #[test]
    fn settle_merges_own_first_then_children_by_descending_id() {
        let i = interner();
        let stat = |values: &[f64]| {
            let mut stat = MetricStat::new();
            values.iter().for_each(|v| stat.add(*v));
            stat
        };
        // root → py → {relu → k_relu, gelu → k_gelu}; merge order shows
        // in the low digits of these.
        let samples: [(&str, usize, &[f64]); 4] = [
            ("aten::relu", 3, &[0.1, 1e6 + 0.3]),
            ("aten::gelu", 3, &[0.7, 3.3, 1e-3]),
            ("aten::relu", 1, &[2.2]),
            ("aten::gelu", 2, &[1e9 + 0.1]),
        ];
        let settle = |order: &[usize]| {
            let mut shard = CctShard::new(Arc::clone(&i));
            shard.node_for(handle(&i, "aten::relu").id());
            shard.node_for(handle(&i, "aten::gelu").id());
            for &k in order {
                let (op, depth, values) = samples[k];
                let node = shard.node_for(i.paths().intern(&path(&i, op)[..depth]).id());
                for v in values {
                    shard.attribute(node, MetricKind::GpuTime, *v);
                }
                shard.attribute(node, MetricKind::CpuTime, 1.5);
            }
            shard.settle();
            shard
        };
        // First touched in any order, the same tree to the bit.
        let shard = settle(&[0, 1, 2, 3]);
        for order in [[3, 2, 1, 0], [1, 3, 0, 2]] {
            let other = settle(&order);
            for id in shard.tree().dfs() {
                assert_eq!(
                    shard.tree().node(id).metrics(),
                    other.tree().node(id).metrics()
                );
            }
        }
        // And it is the stated order. Ids: py 1, relu 2, k_relu 3, gelu 4,
        // k_gelu 5. gelu is its own aggregate, then its kernel's; py is
        // its own (the relu-path cut), then gelu's (4), then relu's (2),
        // which holds nothing of its own and adopted its kernel's.
        let mut gelu = stat(samples[3].2);
        gelu.merge(&stat(samples[1].2));
        let mut py = stat(samples[2].2);
        py.merge(&gelu);
        py.merge(&stat(samples[0].2));
        let at = |n: u32| *shard.tree().metric(NodeId(n), MetricKind::GpuTime).unwrap();
        assert_eq!(at(4), gelu);
        assert_eq!(at(2), stat(samples[0].2));
        assert_eq!(at(1), py);
        assert_eq!(at(0), py, "the root adopts py's list");
    }

    #[test]
    fn a_path_resolves_by_inserting_only_its_unknown_suffix() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let mut oracle = CallingContextTree::with_interner(Arc::clone(&i));
        let relu = path(&i, "aten::relu");
        let gelu = path(&i, "aten::gelu");
        let other = [Frame::python("u.py", 9, "g", &i)];
        for frames in [
            &relu[..],
            &relu[..],  // identical
            &gelu[..],  // shares the Python frame
            &gelu[..1], // strict prefix of the previous path
            &gelu[..],  // extends the previous path
            &other[..], // shares nothing
            &[][..],    // empty path: the root
            &relu[..],
        ] {
            let known = shard.tree().node_count();
            let generation = shard.generation();
            let got = shard.node_for(i.paths().intern(frames).id());
            assert_eq!(got, oracle.insert_path(frames));
            assert_eq!(
                shard.generation() > generation,
                shard.tree().node_count() > known,
                "a known path leaves the shard clean"
            );
            // Insertions behind the vector's back cannot invalidate it.
            let extra = Frame::instruction(got.index() as u64);
            shard.tree_mut().insert_child(got, &extra);
            oracle.insert_child(got, &extra);
        }
        assert_eq!(shard.tree().semantic_diff(&oracle), None);
    }

    #[test]
    fn a_path_newer_than_the_vector_resolves_and_grows_it_once() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let first = handle(&i, "aten::relu").id();
        let relu = shard.node_for(first);
        // Another shard's contexts grow the table past this shard's vector.
        for n in 0..100 {
            handle(&i, &format!("aten::op{n}"));
        }
        let late = handle(&i, "aten::late").id();
        assert!(late.index() > 200);
        let before = shard.approx_bytes();
        let node = shard.node_for(late);
        assert_eq!(shard.tree().depth(node), 3);
        assert_eq!(shard.tree().node_count(), 1 + 3 + 2, "only its own frames");
        let grown = shard.approx_bytes();
        assert!(grown > before, "the vector is tool memory");
        // Warm: neither path grows anything again.
        assert_eq!(shard.node_for(late), node);
        assert_eq!(shard.node_for(first), relu);
        assert_eq!(shard.approx_bytes(), grown);
    }

    #[test]
    fn display_only_fields_are_first_seen_in_the_session_not_in_the_shard() {
        // The rule a fold used to decide by shard order: a context's
        // `seq_id` (likewise `function`, `symbol`) is the one of its
        // first sighting anywhere, even in a shard that only ever saw a
        // later one and even when that shard is folded first.
        use crate::frame::OpPhase;
        let i = interner();
        let seq = |n| {
            [Frame::operator_with(
                "aten::index",
                OpPhase::Forward,
                Some(n),
                &i,
            )]
        };
        let first = i.paths().intern(&seq(5));
        let later = i.paths().intern(&seq(9));
        assert_eq!(first, later);
        let mut late_shard = CctShard::new(Arc::clone(&i));
        let mut early_shard = CctShard::new(Arc::clone(&i));
        late_shard.node_for(later.id());
        early_shard.node_for(first.id());
        let mut master = CallingContextTree::with_interner(Arc::clone(&i));
        master.merge(late_shard.tree());
        master.merge(early_shard.tree());
        let node = master.node(NodeId::ROOT).children()[0];
        assert_eq!(master.node(node).frame(), &seq(5)[0]);
    }

    #[test]
    fn two_phase_prune_drops_only_previous_batch() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let relu = handle(&i, "aten::relu").id();
        for corr in 1..=3 {
            shard.bind(corr, relu);
        }
        let live = |shard: &CctShard| -> Vec<u64> {
            (1..=3)
                .filter(|&corr| shard.correlations().get(corr) == Some(relu))
                .collect()
        };
        // Batch 1 attributes correlations 1 and 2.
        shard.defer_prune(1);
        shard.defer_prune(2);
        shard.end_batch();
        assert_eq!(live(&shard), [1, 2, 3], "nothing deferred before batch 1");
        // Batch 2 re-attributes 2 (straddling record) and touches 3.
        shard.defer_prune(2);
        shard.defer_prune(3);
        shard.end_batch();
        assert_eq!(
            live(&shard),
            [2, 3],
            "1 was deferred last batch and not renewed"
        );
        // Batch 3: nothing new; 2 and 3 now age out.
        shard.end_batch();
        assert!(shard.correlations().is_empty());
    }

    #[test]
    fn trim_releases_the_window_a_retired_batch_left() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let relu = handle(&i, "aten::relu").id();
        // Every third id, as one of three interleaved streams binds them.
        for corr in (0..12_288).step_by(3) {
            shard.bind(corr, relu);
            shard.defer_prune(corr);
        }
        shard.end_batch();
        shard.end_batch();
        assert!(shard.correlations().is_empty());
        assert!(shard.correlations().approx_bytes() > 0, "capacity kept");
        shard.trim();
        assert_eq!(shard.correlations().approx_bytes(), 0);
    }

    #[test]
    fn generation_advances_on_tree_mutations_only() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        assert_eq!(shard.generation(), 0);
        let relu = handle(&i, "aten::relu").id();
        let node = shard.node_for(relu);
        let after_insert = shard.generation();
        assert!(after_insert > 0);
        // Correlation bookkeeping and a known path leave the tree
        // untouched.
        shard.bind(1, relu);
        shard.defer_prune(1);
        shard.end_batch();
        assert_eq!(shard.node_for(relu), node);
        assert_eq!(shard.generation(), after_insert);
        // Attribution dirties the shard at once — a snapshot cache must
        // not skip a shard whose only change is an unsettled sample —
        // and settling it is not a second change.
        shard.attribute(node, MetricKind::GpuTime, 1.0);
        assert!(shard.generation() > after_insert);
        let g = shard.generation();
        shard.settle();
        assert_eq!(shard.generation(), g);
    }

    #[test]
    fn approx_bytes_grows_with_state() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        assert!(shard.is_empty());
        let empty = shard.approx_bytes();
        shard.node_for(handle(&i, "aten::matmul").id());
        let with_context = shard.approx_bytes();
        assert!(with_context > empty);
        for c in 0..64 {
            shard.defer_prune(c);
        }
        assert!(shard.approx_bytes() > with_context);
        assert!(!shard.is_empty());
    }
}
