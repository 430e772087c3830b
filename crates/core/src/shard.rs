//! Per-thread/per-stream shards of a session's metrics.
//!
//! DeepContext aggregates metrics online (paper §4.2), which makes the
//! attribution path the ingestion bottleneck: one global tree behind one
//! lock serializes every kernel launch, activity record and CPU sample. A
//! [`CctShard`] is the unit of the sharded alternative, locked apart from
//! its siblings. It holds **metric rows, not a tree**: the session's
//! [path table](crate::PathTable), shared through one [`Interner`], is
//! the tree's skeleton, so a row is its parent's row, its [`PathId`] and
//! its [`MetricStore`]. Shards fold by moving rows by `PathId`
//! ([`CctShard::drain_into`]).
//!
//! **Contexts enter a shard by handle.** [`CctShard::node_for`] turns an
//! event's [`PathId`] into this shard's row with one read of a dense
//! vector. The first time a shard meets a path it walks the table's
//! parent links up to the nearest ancestor it has a row for and appends
//! rows for the rest, parent before child. A PC sample's instruction
//! frame is a table entry below its kernel's path, reached through the
//! shard's `(kernel path, pc) → PathId` memo ([`CctShard::instruction`]),
//! so a warm PC takes no table lock; `<unattributed>` is an entry below
//! the root.
//!
//! **Samples enter a shard through [`CctShard::count`] and
//! [`CctShard::attribute`] and nowhere else**, and wait at the attributed
//! row until [`CctShard::settle`] carries them root-ward. The scratch
//! they wait in is a per-row index (4 bytes a row) into one slot per
//! *touched* row, and a slot has two parts, for the two kinds of data a
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
//!   column — are `attribute`d into one aggregate per touched `(row,
//!   kind)`, chained off the slot (a row holds three or four at most).
//!
//! `settle` is one sweep over rows **descending**. A row is always
//! appended after its parent's, so by the time a row is visited
//! everything below it has arrived: its counters merge into its own
//! store as that many samples of `1.0` and are added, as integers, to
//! the parent's slot; its aggregates merge into its own store and then
//! into the parent's list (a parent holding nothing adopts the child's
//! list whole, which is most of the single-child Python/operator spine).
//! Every ancestor is thus merged once per kind per settle, not once per
//! descendant, and in a **stated order**: *a row's own aggregate first,
//! then its children's by descending row*. An aggregate is count, sum,
//! min and max, and only `sum` can depend on order: the stated order
//! fixes its low bits for samples that are neither integers nor
//! multiples of a power of two, and the runtime produces none. Every sum
//! it does produce — occurrences, ns, bytes — is exact below 2^53
//! units, so the settled rows are bit-identical whatever order their
//! samples arrived or were folded in.
//!
//! **What this is built for, and what it costs elsewhere.** Slots, lists
//! and merges scale with the rows touched since the last settle and
//! their ancestors; the index alone scales with the shard: every settle
//! that has work allocates, fills and sweeps 4 bytes per row (room for a
//! slot per row is reserved with it, but written only where touched).
//! That is the right trade where a batch touches most of a small shard —
//! every benchmark workload: 21–608 rows a shard, at least 99.5 % of
//! them reached by every settle — and the wrong one for a shard of ~10^5
//! rows of which a batch touches a handful, where the map this replaced
//! cost O(touched × depth) and a scratch microbench (102 558 nodes, 8–64
//! touched contexts per 4 096 records) reads about twice its time per
//! batch. No benchmark workload is on that side; the readings are in
//! the CHANGES.md entry that introduced the index.
//!
//! The rows therefore hold inclusive metrics *at settle points*, not
//! always: whoever owns the shard settles it before its rows are folded,
//! read or measured (`ShardedSink` does so under the shard lock at every
//! batch boundary and before every fold). `settle` releases the scratch,
//! and [`CctShard::approx_bytes`] counts it while it is held. A fold
//! empties each row it moves, keeping its room: a row holds what arrived
//! since.
//!
//! **A shard owns the correlations launched into it.** Every launch and
//! every record of one GPU stream go to the same shard, so the shard's
//! own [`IdWindow`] maps each correlation to a [`Bound`] — its context
//! and its *retirement* stamp in one 4-byte word — under the lock its
//! owner already holds:
//!
//! * [`bind`](CctShard::bind) maps a launch's correlation to its
//!   context; [`correlation`](CctShard::correlation) is where a record
//!   looks its correlation up;
//! * [`defer_prune`](CctShard::defer_prune) / [`end_batch`](CctShard::end_batch)
//!   implement two-phase pruning: ids attributed in the *previous* batch
//!   leave the window at the end of the current one, so records that
//!   straddle a buffer boundary (e.g. PC-sampling batches) still
//!   resolve. An attributed id's slot is stamped with its batch's parity,
//!   and a batch's end sweeps the previous batch's stamped id range;
//! * [`orphan_node`](CctShard::orphan_node) is the hoisted `<unattributed>`
//!   catch-all context, resolved once per shard instead of per orphaned
//!   record.

use std::collections::hash_map::Entry;
use std::num::NonZeroU32;
use std::sync::Arc;

use crate::cct::{CallingContextTree, NodeId};
use crate::frame::Frame;
use crate::fx::FxHashMap;
use crate::interner::{Interner, Sym};
use crate::metrics::{MetricKind, MetricStat, MetricStore, UNIT_COLUMNS};
use crate::path::{PathId, PathIndex};
use crate::window::IdWindow;

/// "No entry": a row without a slot, the end of a list, the root's
/// parent.
const NONE: u32 = u32::MAX;

/// One measured aggregate waiting at a row.
#[derive(Debug, Clone, Copy)]
struct Held {
    kind: MetricKind,
    stat: MetricStat,
    /// The row's next entry in [`Pending::held`], or [`NONE`].
    next: u32,
}

/// What one touched row holds.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Its occurrence counters, one per unit column.
    counts: [u64; UNIT_COLUMNS],
    /// Its first entry in [`Pending::held`], or [`NONE`].
    held: u32,
}

/// Inclusive samples not yet carried root-ward (see the
/// [module docs](self)): scratch that lives between two settles, not
/// profile state. `slot_of` is sized to the rows, and `slots` reserved
/// for them, on first touch, so neither grows with what arrives.
#[derive(Debug, Clone, Default)]
struct Pending {
    /// Per row, its entry in `slots`, or [`NONE`].
    slot_of: Vec<u32>,
    /// One entry per touched row.
    slots: Vec<Slot>,
    /// One entry per touched `(row, measured kind)`.
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
    /// `node`'s slot, handed out empty on first touch, in a shard of
    /// `nodes` rows.
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

/// A correlation's slot in a shard's window, one word: `(path + 1) << 2
/// | attributed << 1 | parity` — the context its launch was made from,
/// whether a terminal record attributed it, and the parity of the batch
/// that did. Every stamp is retired or renewed by the next batch's end,
/// so one bit tells the two batches apart. Nonzero, so `Option<Bound>`
/// is 4 bytes too; the path index is below 2³⁰ − 1, as
/// [`CctShard::bind`] asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound(NonZeroU32);

impl Bound {
    /// The largest path index a slot holds: `path + 1` fills 30 bits.
    const MAX_PATH: usize = (1 << 30) - 2;
    const ATTRIBUTED: u32 = 0b10;

    fn new(path: PathId) -> Bound {
        assert!(
            path.index() <= Self::MAX_PATH,
            "path index {} past a correlation slot's largest, {}",
            path.index(),
            Self::MAX_PATH
        );
        let word = (path.index() as u32 + 1) << 2;
        Bound(NonZeroU32::new(word).expect("path + 1 is nonzero"))
    }

    fn path(self) -> PathId {
        PathId::from_index((self.0.get() >> 2) - 1)
    }

    /// This binding, attributed in a batch of `parity`.
    fn stamped(self, parity: bool) -> Bound {
        let word = self.0.get() & !0b11 | Self::ATTRIBUTED | u32::from(parity);
        Bound(NonZeroU32::new(word).expect("the path keeps it nonzero"))
    }

    /// Whether a batch of `parity` attributed it.
    fn attributed_in(self, parity: bool) -> bool {
        self.0.get() & 0b11 == Self::ATTRIBUTED | u32::from(parity)
    }
}

/// No id stamped: an empty `(lo, hi)` range.
const UNSTAMPED: (u64, u64) = (u64::MAX, 0);

/// One context a shard has met, and what arrived at it since the last
/// fold: 16 bytes beside its store.
#[derive(Debug, Clone)]
struct Row {
    /// The parent's row, [`NONE`] for the root's; always a lower index.
    parent: u32,
    path: PathId,
    /// A kernel row's name: the timeline tap takes no table lock.
    name: Option<Sym>,
    metrics: MetricStore,
}

impl Row {
    fn new(parent: u32, path: PathId, frame: &Frame) -> Row {
        Row {
            parent,
            path,
            name: frame.gpu_kernel_name(),
            metrics: MetricStore::new(),
        }
    }
}

/// One shard of a sharded ingestion pipeline: metric rows, their
/// `PathId → row` vector and its correlation window. Row `i` is named
/// `NodeId(i)`, its node in [`to_tree`](Self::to_tree). Correlation keys
/// are raw `u64`s, independent of any GPU runtime's id type.
#[derive(Debug, Clone)]
pub struct CctShard {
    interner: Arc<Interner>,
    /// Parents before children; row 0 is the root.
    rows: Vec<Row>,
    /// This shard's row for each [`PathId`] it met.
    by_path: PathIndex,
    /// `(kernel path, pc) → instruction path`, as the table answered.
    instructions: FxHashMap<(PathId, u64), PathId>,
    orphan: Option<NodeId>,
    /// The correlations launched into this shard and not yet retired.
    correlations: IdWindow<Bound>,
    /// The parity [`defer_prune`](Self::defer_prune) stamps in the
    /// current batch.
    parity: bool,
    /// Per parity, the lowest and highest id stamped with it.
    stamped: [(u64, u64); 2],
    generation: u64,
    /// Samples waiting for the next [`settle`](Self::settle).
    pending: Pending,
}

/// Bytes per `instructions` slot: key, value and the map's control byte.
const MEMO_SLOT_BYTES: usize = std::mem::size_of::<((PathId, u64), PathId)>() + 1;

impl CctShard {
    /// Creates an empty shard sharing `interner` with its siblings.
    pub fn new(interner: Arc<Interner>) -> Self {
        CctShard {
            interner,
            rows: vec![Row::new(NONE, PathId::ROOT, &Frame::Root)],
            by_path: PathIndex::default(),
            instructions: FxHashMap::default(),
            orphan: None,
            correlations: IdWindow::default(),
            parity: false,
            stamped: [UNSTAMPED; 2],
            generation: 0,
            pending: Pending::default(),
        }
    }

    /// The shard's dirty generation: a counter advanced by every
    /// operation that may have changed the shard's *rows* (appending
    /// contexts, attributing metrics). Snapshot caches remember the
    /// generation they folded and skip the shard entirely while it has
    /// not advanced. Correlation bookkeeping, a known path and a fold do
    /// not bump it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This shard's row for `path`: one vector read for a path seen
    /// here before, the parent-link walk described in the `shard`
    /// module docs otherwise.
    pub fn node_for(&mut self, path: PathId) -> NodeId {
        match self.by_path.get(path) {
            Some(row) => NodeId(row),
            None => self.resolve(path),
        }
    }

    #[cold]
    fn resolve(&mut self, path: PathId) -> NodeId {
        let (rows, generation) = (&mut self.rows, &mut self.generation);
        let row = self
            .by_path
            .place(self.interner.paths(), path, |parent, path, frame| {
                *generation += 1;
                rows.push(Row::new(parent, path, frame));
                (rows.len() - 1) as u32
            });
        NodeId(row)
    }

    /// The row of instruction `pc` below the kernel row `kernel` (paper
    /// §4.2): the memo's answer, the table's — one lock — on first sight.
    pub fn instruction(&mut self, kernel: NodeId, pc: u64) -> NodeId {
        let parent = self.rows[kernel.index()].path;
        let path = match self.instructions.entry((parent, pc)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => {
                *slot.insert(self.interner.paths().child(parent, &Frame::instruction(pc)))
            }
        };
        self.node_for(path)
    }

    /// The path `node` is the row of.
    pub fn path(&self, node: NodeId) -> PathId {
        self.rows[node.index()].path
    }

    /// The kernel name of `node`, when its frame is a device kernel's.
    pub fn kernel_name(&self, node: NodeId) -> Option<Sym> {
        self.rows[node.index()].name
    }

    /// Records `n` occurrences — `n` inclusive samples of the value `1.0`
    /// — of `kind` at `node`: one integer add for a kind that counts
    /// occurrences, the `n × 1.0` aggregate through
    /// [`attribute`](Self::attribute)'s list for any other. The row's
    /// ancestors receive them at the next [`settle`](Self::settle).
    #[inline]
    pub fn count(&mut self, node: NodeId, kind: MetricKind, n: u64) {
        self.generation += 1;
        let nodes = self.rows.len();
        match kind.unit_column() {
            Some(column) => self.pending.slot(node, nodes).counts[column] += n,
            None => self
                .pending
                .stat(node, kind, nodes)
                .merge(&MetricStat::units(n)),
        }
    }

    /// Records one inclusive sample of `kind` at `node`. The sample is
    /// aggregated at the row only; its ancestors receive it at the next
    /// [`settle`](Self::settle). Any kind may come this way — a `(node,
    /// kind)` both counted and attributed settles to the sum of the two.
    pub fn attribute(&mut self, node: NodeId, kind: MetricKind, value: f64) {
        self.generation += 1;
        let nodes = self.rows.len();
        self.pending.stat(node, kind, nodes).add(value);
    }

    /// Carries every unsettled sample root-ward — one descending sweep,
    /// each row merged once per kind, in the order the `shard` module
    /// docs state — and releases the scratch the samples were held in.
    /// Afterwards the rows hold exactly what sample-by-sample
    /// propagation would have added to them. Does not bump the dirty
    /// generation: [`count`](Self::count) and
    /// [`attribute`](Self::attribute) already did.
    pub fn settle(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        let nodes = pending.slot_of.len();
        for at in (0..nodes).rev() {
            if pending.slot_of[at] == NONE {
                continue;
            }
            let Slot { counts, held: list } = pending.slots[pending.slot_of[at] as usize];
            let parent = self.rows[at].parent;
            assert!(
                parent == NONE || (parent as usize) < at,
                "a row is appended after its parent"
            );
            // The parent's slot; its row is lower, so `slot_of` covers it.
            let up = (parent != NONE).then(|| {
                pending.slot(NodeId(parent), nodes);
                pending.slot_of[parent as usize] as usize
            });
            let metrics = &mut self.rows[at].metrics;
            for (column, n) in counts.into_iter().enumerate().filter(|(_, n)| *n != 0) {
                let kind = MetricKind::from_unit_column(column).expect("a kind per column");
                metrics.merge_stat(kind, &MetricStat::units(n));
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
                metrics.merge_stat(kind, &stat);
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

    /// Moves every row into `tree` by its path
    /// ([`CallingContextTree::path_node`]): what the row holds is merged
    /// at the path's node and emptied from the row; a row holding nothing
    /// still places its path. Unsettled samples stay where they wait.
    /// Does not bump the dirty generation. Draining a clone is a copying
    /// fold.
    ///
    /// # Panics
    ///
    /// Unless `tree` shares this shard's interner: a `PathId` means
    /// nothing in another interner's table.
    pub fn drain_into(&mut self, tree: &mut CallingContextTree) {
        assert!(
            Arc::ptr_eq(&self.interner, &tree.interner()),
            "a shard drains only into a tree that shares its interner"
        );
        for row in &mut self.rows {
            let node = tree.path_node(row.path);
            if !row.metrics.is_empty() {
                tree.merge_at(node, &row.metrics);
                // Keeps the room: the next settle reallocates nothing.
                row.metrics.entries.clear();
            }
        }
    }

    /// A tree of this shard's rows alone, row `i` at `NodeId(i)`.
    pub fn to_tree(&self) -> CallingContextTree {
        let mut tree = CallingContextTree::with_interner(Arc::clone(&self.interner));
        self.clone().drain_into(&mut tree);
        tree
    }

    /// The root row's sum of `kind`: what arrived since the last drain,
    /// as of the last settle.
    pub fn total(&self, kind: MetricKind) -> f64 {
        self.rows[0].metrics.sum(kind)
    }

    /// The hoisted catch-all context for records whose correlation was
    /// pruned or never seen: a table entry below the root, resolved on
    /// first use and reused thereafter, so orphaned records cost nothing
    /// beyond the attribution itself.
    pub fn orphan_node(&mut self) -> NodeId {
        match self.orphan {
            Some(node) => node,
            None => {
                let frame = Frame::gpu_kernel("<unattributed>", "<none>", 0, &self.interner);
                let path = self.interner.paths().child(PathId::ROOT, &frame);
                let node = self.node_for(path);
                self.orphan = Some(node);
                node
            }
        }
    }

    /// Binds `correlation` to the context `path` its launch was made
    /// from (a later bind wins, unstamped: the runtime binds an id once).
    /// Panics if `path`'s index is past a slot's largest, 2³⁰ − 2.
    pub fn bind(&mut self, correlation: u64, path: PathId) {
        self.correlations.insert(correlation, Bound::new(path));
    }

    /// The context `correlation` is bound to, if it is bound here and
    /// not yet retired.
    pub fn correlation(&self, correlation: u64) -> Option<PathId> {
        self.correlations.get(correlation).map(Bound::path)
    }

    /// The correlations bound here and not yet retired.
    pub fn correlations(&self) -> &IdWindow<Bound> {
        &self.correlations
    }

    /// Marks `correlation` as attributed in the current batch; it becomes
    /// prunable once the *next* batch completes. An id not bound here is
    /// not stamped.
    pub fn defer_prune(&mut self, correlation: u64) {
        let parity = self.parity;
        if let Some(bound) = self.correlations.get_mut(correlation) {
            *bound = bound.stamped(parity);
            let (lo, hi) = &mut self.stamped[usize::from(parity)];
            (*lo, *hi) = ((*lo).min(correlation), (*hi).max(correlation));
        }
    }

    /// Ends an activity batch: the correlations stamped in the previous
    /// batch and not re-stamped in this one leave the window. One sweep
    /// of the previous batch's id range, never of the whole window.
    pub fn end_batch(&mut self) {
        let previous = !self.parity;
        let (lo, hi) = std::mem::replace(&mut self.stamped[usize::from(previous)], UNSTAMPED);
        if lo <= hi {
            self.correlations
                .retire_where(lo, hi, |bound| bound.attributed_in(previous));
        }
        self.parity = previous;
    }

    /// Releases the capacity a large batch left behind in the correlation
    /// window (it retains its high-water capacity after draining), and
    /// the growth room of the row and path vectors. Called at quiescent
    /// points — e.g. after a flush boundary has retired all deferred
    /// correlations — so resident profile memory tracks *live* state, not
    /// the largest batch ever seen. A shard that met no new context since
    /// the last trim reallocates nothing. Changes no row (and so does not
    /// dirty the shard's snapshot generation).
    pub fn trim(&mut self) {
        self.correlations.trim();
        self.rows.shrink_to_fit();
        self.by_path.0.shrink_to_fit();
    }

    /// Approximate resident bytes of the rows and their stores, the path
    /// vector, the instruction memo and whatever settle scratch is
    /// currently held (the interner and its path table excluded). The
    /// correlation window is sized apart, through
    /// [`correlations`](Self::correlations): peak accounting charges it
    /// by its span, holes included ([`IdWindow::held_bytes`]), resident
    /// accounting by capacity.
    pub fn approx_bytes(&self) -> usize {
        let Pending {
            slot_of,
            slots,
            held,
        } = &self.pending;
        let stores: usize = self.rows.iter().map(|row| row.metrics.approx_bytes()).sum();
        self.rows.capacity() * std::mem::size_of::<Row>()
            + stores
            + self.by_path.0.capacity() * std::mem::size_of::<u32>()
            + self.instructions.capacity() * MEMO_SLOT_BYTES
            + slot_of.capacity() * std::mem::size_of::<u32>()
            + slots.capacity() * std::mem::size_of::<Slot>()
            + held.capacity() * std::mem::size_of::<Held>()
    }

    /// Whether the shard met no context.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 1
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
        assert_eq!(shard.to_tree().node_count(), 2, "root + one catch-all");
        assert_eq!(shard.node_for(shard.path(a)), a, "a path like any other");
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
            shard.total(MetricKind::GpuTime),
            0.0,
            "nothing walks root-ward before settle"
        );
        shard.settle();
        let tree = shard.to_tree();
        for id in tree.path_to_root(leaf) {
            let stat = tree.metric(id, MetricKind::GpuTime).unwrap();
            assert_eq!(
                (stat.count, stat.sum, stat.min, stat.max),
                (3, 17.0, 3.0, 9.0)
            );
        }
        assert_eq!(tree.semantic_diff(&eager), None);
        // Settling twice adds nothing.
        shard.settle();
        assert_eq!(shard.total(MetricKind::GpuTime), 17.0);
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
        // More samples of kinds every row on the path already carries
        // grow nothing but the scratch they wait in: the per-row index
        // and the slots reserved for it, then the aggregates, each
        // counted.
        assert_eq!(shard.node_for(gelu), leaf);
        shard.count(leaf, MetricKind::KernelLaunches, 1);
        let counted = shard.approx_bytes();
        let slot = std::mem::size_of::<Slot>();
        assert_eq!(counted, settled + 4 * 4 + 4 * slot, "sized to the rows");
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
        let tree = shard.to_tree();
        for id in tree.path_to_root(leaf) {
            let got = tree.metric(id, stall).unwrap();
            assert_eq!(*got, MetricStat::units(2 * big + 4), "{id}: no epsilon");
            let cpu = tree.metric(id, MetricKind::CpuTime).unwrap();
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
            shard.to_tree()
        };
        // First touched in any order, the same rows to the bit.
        let tree = settle(&[0, 1, 2, 3]);
        for order in [[3, 2, 1, 0], [1, 3, 0, 2]] {
            let other = settle(&order);
            for id in tree.dfs() {
                assert_eq!(tree.node(id).metrics(), other.node(id).metrics());
            }
        }
        // And it is the stated order. Rows: py 1, relu 2, k_relu 3, gelu
        // 4, k_gelu 5. gelu is its own aggregate, then its kernel's; py is
        // its own (the relu-path cut), then gelu's (4), then relu's (2),
        // which holds nothing of its own and adopted its kernel's.
        let mut gelu = stat(samples[3].2);
        gelu.merge(&stat(samples[1].2));
        let mut py = stat(samples[2].2);
        py.merge(&gelu);
        py.merge(&stat(samples[0].2));
        let at = |n: u32| *tree.metric(NodeId(n), MetricKind::GpuTime).unwrap();
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
            let known = shard.rows.len();
            let generation = shard.generation();
            let got = shard.node_for(i.paths().intern(frames).id());
            assert_eq!(got, oracle.insert_path(frames));
            assert_eq!(
                shard.generation() > generation,
                shard.rows.len() > known,
                "a known path leaves the shard clean"
            );
            // Rows appended behind the vector's back cannot invalidate
            // it: an instruction below every context met.
            let pc = got.index() as u64;
            assert_eq!(
                shard.instruction(got, pc),
                oracle.insert_child(got, &Frame::instruction(pc))
            );
        }
        assert_eq!(shard.to_tree().semantic_diff(&oracle), None);
    }

    #[test]
    fn an_instruction_is_a_table_entry_the_memo_answers_warm() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let relu = handle(&i, "aten::relu");
        let kernel = shard.node_for(relu.id());
        let row = shard.instruction(kernel, 0x40);
        let entry = i.paths().extend(relu, &Frame::instruction(0x40));
        assert_eq!(shard.path(row), entry.id(), "a child of the kernel's path");
        assert_eq!(shard.kernel_name(row), None);
        assert_eq!(
            shard.kernel_name(kernel).map(|name| i.resolve(name)),
            Some("k_aten::relu".into())
        );
        // Another shard meeting the same PC finds the same entry.
        let mut other = CctShard::new(Arc::clone(&i));
        let elsewhere = other.node_for(relu.id());
        let there = other.instruction(elsewhere, 0x40);
        assert_eq!(other.path(there), entry.id());
        let table = i.paths().len();
        let bytes = shard.approx_bytes();
        assert_eq!(shard.instruction(kernel, 0x40), row);
        assert_eq!((i.paths().len(), shard.approx_bytes()), (table, bytes));
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
        let tree = shard.to_tree();
        assert_eq!(tree.depth(node), 3);
        assert_eq!(tree.node_count(), 1 + 3 + 2, "only its own frames");
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
        late_shard.drain_into(&mut master);
        early_shard.drain_into(&mut master);
        let node = master.node(NodeId::ROOT).children()[0];
        assert_eq!(master.node(node).frame(), &seq(5)[0]);
    }

    #[test]
    fn a_first_drain_matches_a_copying_fold() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let mut oracle = CallingContextTree::with_interner(Arc::clone(&i));
        for (op, v) in [("aten::matmul", 4.0), ("aten::relu", 2.0)] {
            let leaf = shard.node_for(handle(&i, op).id());
            shard.attribute(leaf, MetricKind::GpuTime, v);
            let eager = oracle.insert_path(&path(&i, op));
            oracle.attribute(eager, MetricKind::GpuTime, v);
        }
        shard.settle();
        let copy = shard.to_tree();
        let mut master = CallingContextTree::with_interner(Arc::clone(&i));
        shard.drain_into(&mut master);
        assert_eq!(master.semantic_diff(&copy), None);
        assert_eq!(master.semantic_diff(&oracle), None);
        assert_eq!(master.node_count(), oracle.node_count());
    }

    #[test]
    fn a_later_drain_adds_only_what_arrived_since() {
        let i = interner();
        let mut shard = CctShard::new(Arc::clone(&i));
        let mut oracle = CallingContextTree::with_interner(Arc::clone(&i));
        let mut master = oracle.clone();
        for (op, v) in [
            ("aten::relu", 4.0),
            ("aten::gelu", 2.0),
            ("aten::relu", 7.0),
        ] {
            let leaf = shard.node_for(handle(&i, op).id());
            shard.count(leaf, MetricKind::KernelLaunches, 1);
            shard.attribute(leaf, MetricKind::GpuTime, v);
            let eager = oracle.insert_path(&path(&i, op));
            oracle.attribute(eager, MetricKind::KernelLaunches, 1.0);
            oracle.attribute(eager, MetricKind::GpuTime, v);
            shard.settle();
            // The copying fold of master + rows is what the drain leaves.
            let mut copy = master.clone();
            shard.clone().drain_into(&mut copy);
            let generation = shard.generation();
            shard.drain_into(&mut master);
            assert_eq!(master.semantic_diff(&copy), None);
            assert_eq!(master.semantic_diff(&oracle), None);
            assert_eq!(shard.generation(), generation, "a fold is no change");
            assert_eq!(shard.total(MetricKind::GpuTime), 0.0, "rows emptied");
            assert_eq!(shard.to_tree().total(MetricKind::KernelLaunches), 0.0);
            assert!(
                shard.rows.iter().all(|row| row.metrics.is_empty()),
                "an emptied store holds no kind"
            );
        }
        // Nothing new: a drain is a no-op.
        shard.drain_into(&mut master);
        assert_eq!(master.semantic_diff(&oracle), None);
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
                .filter(|&corr| shard.correlation(corr) == Some(relu))
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
        // Correlation bookkeeping and a known path leave the rows
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
        let matmul = handle(&i, "aten::matmul").id();
        let node = shard.node_for(matmul);
        let with_context = shard.approx_bytes();
        assert!(with_context > empty);
        // The window is sized apart, 4 bytes a slot of its span, and a
        // retirement stamp lives in the slot: binding and deferring
        // grow nothing the shard counts.
        for c in 0..64 {
            shard.bind(c, matmul);
            shard.defer_prune(c);
        }
        assert_eq!(shard.approx_bytes(), with_context);
        assert_eq!(shard.correlations().held_bytes(), 64 * 4);
        shard.count(node, MetricKind::KernelLaunches, 1);
        assert!(shard.approx_bytes() > with_context, "settle scratch");
        assert!(!shard.is_empty());
        // A row is 40 bytes, its store's header included, and a settled
        // store holds exactly its kinds.
        assert_eq!(std::mem::size_of::<Row>(), 40);
        shard.settle();
        let entry = std::mem::size_of::<(MetricKind, MetricStat)>();
        assert_eq!(shard.approx_bytes(), with_context + 4 * entry);
    }

    #[test]
    fn a_bound_slot_is_4_bytes() {
        assert_eq!(std::mem::size_of::<Option<Bound>>(), 4);
        // A stamp, either parity, and its renewal leave the path as bound.
        for index in [0, 1, Bound::MAX_PATH as u32] {
            let path = PathId::from_index(index);
            let bound = Bound::new(path);
            assert_eq!(bound.path(), path);
            for parity in [false, true] {
                assert!(!bound.attributed_in(parity), "bound unstamped");
                let stamped = bound.stamped(parity);
                assert_eq!(stamped.path(), path);
                assert!(stamped.attributed_in(parity));
                assert!(!stamped.attributed_in(!parity));
                let renewed = stamped.stamped(!parity);
                assert_eq!(renewed.path(), path);
                assert!(renewed.attributed_in(!parity) && !renewed.attributed_in(parity));
            }
        }
    }

    #[test]
    #[should_panic(expected = "past a correlation slot's largest")]
    fn a_path_index_past_a_slots_largest_panics_at_bind() {
        let mut shard = CctShard::new(interner());
        shard.bind(1, PathId::from_index(Bound::MAX_PATH as u32 + 1));
    }
}
