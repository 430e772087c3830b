//! The path table: every calling context of a session, named by a handle.
//!
//! "This context has been seen before" is the one idea behind both of the
//! paper's write-path optimisations — call-path caching (§4.1) and online
//! aggregation into the calling context tree (§4.2). The path table is
//! where it is decided, once: an append-only trie of
//! `(parent PathId, FrameKey) → PathId`, i.e. the calling context tree's
//! skeleton without metrics, owned by the [`Interner`] every component of
//! a session already shares. DLMonitor extends a [`PathHandle`] frame by
//! frame (through a per-thread [`PathMemo`], so a context seen before
//! costs no shared lock) as a launch's context is assembled; the
//! ingestion pipeline moves
//! the 4-byte [`PathId`] through each shard's correlation window;
//! each [`CctShard`](crate::CctShard) resolves it to its own metric row
//! through a dense vector, and a fold places rows in the master tree by
//! `PathId` ([`CallingContextTree::path_node`](crate::CallingContextTree::path_node)). A PC sample's
//! instruction frame and the `<unattributed>` catch-all are entries too.
//! A [`CallPath`] is only materialised to *show* a context
//! ([`PathHandle::to_call_path`]).
//!
//! Frames collapse by [`FrameKey`], so an entry keeps the **first** frame
//! seen under its key: display-only fields (`function`, `seq_id`,
//! `symbol`) are the first sighting's, session-wide. The one of them that
//! belongs to a launch rather than to its context — the autograd sequence
//! id — travels beside the handle in a [`LivePath`].

use std::collections::hash_map::Entry as MapEntry;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{RwLock, RwLockReadGuard};

use crate::frame::{CallPath, Frame, FrameKey};
use crate::fx::FxHashMap;
use crate::interner::Interner;

/// Index of one calling context in a session's [`PathTable`]: what
/// queues, correlation tables and association records store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(u32);

impl PathId {
    /// The empty path (no frames below the root).
    pub const ROOT: PathId = PathId(0);

    /// Raw index; dense from 0 in first-seen order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id at raw `index`, for a store that packs ids into fewer bits.
    pub(crate) fn from_index(index: u32) -> PathId {
        PathId(index)
    }
}

/// A calling context by handle: its [`PathId`] plus its depth, so the
/// hot path never goes back to the table to learn how long a path is.
/// This is what `ShardedSink::gpu_launch` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PathHandle {
    id: PathId,
    depth: u32,
}

impl PathHandle {
    /// The empty path.
    pub const ROOT: PathHandle = PathHandle {
        id: PathId::ROOT,
        depth: 0,
    };

    /// The table index.
    pub fn id(self) -> PathId {
        self.id
    }

    /// Number of frames on the path.
    pub fn len(self) -> usize {
        self.depth as usize
    }

    /// Whether the path has no frames.
    pub fn is_empty(self) -> bool {
        self.depth == 0
    }

    /// The path's frames, root first, as first seen (cold: one table
    /// read lock and one vector).
    pub fn to_call_path(self, interner: &Interner) -> CallPath {
        LivePath::new(self, None).to_call_path(interner)
    }
}

/// A context as one launch or sample saw it: the [`PathHandle`] plus the
/// autograd sequence id current at that moment — the one display-only
/// field that belongs to the launch, not to the context (a training loop
/// revisits the same context under a new id every iteration). This is
/// what `DlMonitor::callpath_for_gpu` / `callpath_get` return; the
/// pipeline stores only [`handle`](Self::handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivePath {
    path: PathHandle,
    seq: Option<u64>,
}

impl LivePath {
    /// `path` as seen under sequence id `seq`.
    pub fn new(path: PathHandle, seq: Option<u64>) -> Self {
        LivePath { path, seq }
    }

    /// The context.
    pub fn handle(self) -> PathHandle {
        self.path
    }

    /// The sequence id this sighting was made under.
    pub fn seq(self) -> Option<u64> {
        self.seq
    }

    /// Number of frames on the path.
    pub fn len(self) -> usize {
        self.path.len()
    }

    /// Whether the path has no frames.
    pub fn is_empty(self) -> bool {
        self.path.is_empty()
    }

    /// The path's frames, root first (cold: one table read lock and one
    /// vector). Operator frames that carry a sequence id show this
    /// sighting's — a launch runs under one autograd node, so its forward
    /// and backward operator frames share it (an enclosing operator taped
    /// under an id of its own would show the inner one's; the engines
    /// here dispatch flat) — every other field is the table's, as first
    /// seen.
    pub fn to_call_path(self, interner: &Interner) -> CallPath {
        let entries = interner.paths().entries();
        let mut frames: Vec<Frame> = entries
            .leaf_to_root(self.path.id)
            .map(|id| match (entries.frame(id), self.seq) {
                (
                    &Frame::Operator {
                        name,
                        phase,
                        seq_id: Some(_),
                    },
                    Some(_),
                ) => Frame::Operator {
                    name,
                    phase,
                    seq_id: self.seq,
                },
                (frame, _) => frame.clone(),
            })
            .collect();
        frames.reverse();
        CallPath::from_frames(frames)
    }

    /// [`CallPath::render`] of [`to_call_path`](Self::to_call_path).
    pub fn render(self, interner: &Interner) -> String {
        self.to_call_path(interner).render(interner)
    }
}

struct Entry {
    parent: PathId,
    frame: Frame,
}

#[derive(Default)]
struct Inner {
    // Fx-hashed: keys are a table index plus interned symbols.
    index: FxHashMap<(PathId, FrameKey), PathId>,
    /// Entry of `PathId(n)` at `n - 1` (the root has none).
    entries: Vec<Entry>,
}

/// Bytes per index slot: key, value and the map's control byte.
const INDEX_SLOT_BYTES: usize = std::mem::size_of::<((PathId, FrameKey), PathId)>() + 1;

/// The session's path trie (see the `path` module docs). Append-only
/// and internally synchronised; reached through [`Interner::paths`].
#[derive(Default)]
pub struct PathTable {
    inner: RwLock<Inner>,
    // Mirrors of the table's size, so accounting never takes the lock.
    len: AtomicUsize,
    bytes: AtomicUsize,
}

impl PathTable {
    /// The handle of `parent` extended by `frame`, created if this is the
    /// first time `frame`'s collapse key is seen under `parent`.
    pub fn extend(&self, parent: PathHandle, frame: &Frame) -> PathHandle {
        PathHandle {
            id: self.child(parent.id, frame),
            depth: parent.depth + 1,
        }
    }

    /// [`extend`](Self::extend) by id alone: the path `parent` extended
    /// by `frame`, created on first sight of the pair.
    pub(crate) fn child(&self, parent: PathId, frame: &Frame) -> PathId {
        let key = (parent, frame.key());
        if let Some(&id) = self.inner.read().index.get(&key) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.index.get(&key) {
            return id;
        }
        inner.entries.push(Entry {
            parent,
            frame: frame.clone(),
        });
        let id = PathId(inner.entries.len() as u32);
        inner.index.insert(key, id);
        self.len.store(inner.entries.len(), Ordering::Release);
        self.bytes.store(
            inner.entries.capacity() * std::mem::size_of::<Entry>()
                + inner.index.capacity() * INDEX_SLOT_BYTES,
            Ordering::Relaxed,
        );
        id
    }

    /// The handle of a whole root-first path (cold: tests, benches and
    /// replay; DLMonitor extends handles frame by frame instead).
    pub fn intern(&self, frames: &[Frame]) -> PathHandle {
        frames
            .iter()
            .fold(PathHandle::ROOT, |path, frame| self.extend(path, frame))
    }

    /// Contexts in the table, the root excluded. Lock-free.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no context has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held (capacity-based). Lock-free.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Read access to the entries, for walking parent links.
    pub fn entries(&self) -> PathEntries<'_> {
        PathEntries(self.inner.read())
    }
}

impl std::fmt::Debug for PathTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathTable")
            .field("len", &self.len())
            .finish()
    }
}

/// A read guard over a [`PathTable`]'s entries.
///
/// # Panics
///
/// The accessors panic on [`PathId::ROOT`] (it has no entry) and on ids
/// from another table.
pub struct PathEntries<'a>(RwLockReadGuard<'a, Inner>);

impl PathEntries<'_> {
    /// The path `id` extends.
    pub fn parent(&self, id: PathId) -> PathId {
        self.0.entries[id.index() - 1].parent
    }

    /// The innermost frame of `id`, as first seen.
    pub fn frame(&self, id: PathId) -> &Frame {
        &self.0.entries[id.index() - 1].frame
    }

    /// `id`, the path it extends, and so on up to — not including — the
    /// root.
    pub fn leaf_to_root(&self, id: PathId) -> impl Iterator<Item = PathId> + '_ {
        let up = |&id: &PathId| (id != PathId::ROOT).then(|| self.parent(id));
        std::iter::successors(Some(id), up).take_while(|&id| id != PathId::ROOT)
    }
}

/// A dense `PathId → u32` map for a structure built from a path table,
/// parents first — a shard's rows, a folded tree's nodes. Index 0 is
/// the root's; [`UNPLACED`] marks a path not placed yet.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathIndex(pub(crate) Vec<u32>);

const UNPLACED: u32 = u32::MAX;

impl PathIndex {
    /// `path`'s index, if it is placed: one vector read.
    #[inline]
    pub(crate) fn get(&self, path: PathId) -> Option<u32> {
        self.0
            .get(path.index())
            .copied()
            .filter(|&at| at != UNPLACED)
    }

    /// `path`'s index, placing first whatever of it is missing: walking
    /// `table`'s parent links up to the nearest placed ancestor, then
    /// down again, `add(parent's index, path, frame)` appends each
    /// missing path and returns its index.
    #[cold]
    pub(crate) fn place(
        &mut self,
        table: &PathTable,
        path: PathId,
        mut add: impl FnMut(u32, PathId, &Frame) -> u32,
    ) -> u32 {
        if path.index() >= self.0.len() {
            // Parents precede children in the table: every ancestor's
            // slot is in range too.
            self.0.resize(path.index() + 1, UNPLACED);
            self.0[0] = 0;
        }
        let entries = table.entries();
        let missing: Vec<PathId> = entries
            .leaf_to_root(path)
            .take_while(|id| self.0[id.index()] == UNPLACED)
            .collect();
        let above = missing.last().map_or(path, |&id| entries.parent(id));
        let mut at = self.0[above.index()];
        for id in missing.into_iter().rev() {
            at = add(at, id, entries.frame(id));
            self.0[id.index()] = at;
        }
        at
    }
}

/// A caller-owned cache in front of [`PathTable::extend`] — the
/// [`Interner::intern_cached`] shape with the cache held by its user
/// (DLMonitor keeps one per monitored thread): a `(parent, collapse key)`
/// pair this memo has seen before costs one fx-hash probe, with no lock
/// shared between threads and without building the frame.
#[derive(Debug, Default)]
pub struct PathMemo(FxHashMap<(PathId, FrameKey), PathHandle>);

impl PathMemo {
    /// `parent` extended by the frame whose collapse key is `key`;
    /// `frame` builds that frame the first time this memo meets the pair.
    pub fn extend(
        &mut self,
        table: &PathTable,
        parent: PathHandle,
        key: FrameKey,
        frame: impl FnOnce() -> Frame,
    ) -> PathHandle {
        match self.0.entry((parent.id, key)) {
            MapEntry::Occupied(known) => *known.get(),
            MapEntry::Vacant(slot) => {
                let frame = frame();
                debug_assert_eq!(frame.key(), key);
                *slot.insert(table.extend(parent, &frame))
            }
        }
    }

    /// [`extend`](Self::extend) by a frame that already exists.
    pub fn extend_frame(
        &mut self,
        table: &PathTable,
        parent: PathHandle,
        frame: &Frame,
    ) -> PathHandle {
        self.extend(table, parent, frame.key(), || frame.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OpPhase;

    fn path(i: &Interner, op: &str) -> Vec<Frame> {
        vec![
            Frame::python("t.py", 1, "f", i),
            Frame::operator(op, i),
            Frame::gpu_kernel(&format!("k_{op}"), "m.so", 0x100, i),
        ]
    }

    #[test]
    fn equal_paths_share_a_handle_and_prefixes_share_entries() {
        let i = Interner::new();
        let relu = i.paths().intern(&path(&i, "aten::relu"));
        assert_eq!(relu, i.paths().intern(&path(&i, "aten::relu")));
        assert_eq!(relu.len(), 3);
        assert_eq!(i.paths().len(), 3);
        let gelu = i.paths().intern(&path(&i, "aten::gelu"));
        assert_ne!(relu.id(), gelu.id());
        assert_eq!(i.paths().len(), 5, "the Python frame is shared");
        assert_eq!(relu.to_call_path(&i).frames(), &path(&i, "aten::relu")[..]);
        assert!(PathHandle::ROOT.is_empty());
        assert!(PathHandle::ROOT.to_call_path(&i).is_empty());
    }

    #[test]
    fn display_only_fields_are_the_first_sighting() {
        let i = Interner::new();
        let first = Frame::operator_with("aten::index", OpPhase::Forward, Some(5), &i);
        let later = Frame::operator_with("aten::index", OpPhase::Forward, Some(9), &i);
        let a = i.paths().extend(PathHandle::ROOT, &first);
        let b = i.paths().extend(PathHandle::ROOT, &later);
        assert_eq!(a, b, "sequence ids are not part of the collapse key");
        assert_eq!(a.to_call_path(&i).frames(), &[first]);
        // A sighting shows its own id; frames without one are untouched.
        let shown = LivePath::new(b, Some(9)).to_call_path(&i);
        assert_eq!(shown.frames(), std::slice::from_ref(&later));
        let plain = i.paths().extend(b, &Frame::operator("aten::relu", &i));
        let shown = LivePath::new(plain, Some(9)).to_call_path(&i);
        assert_eq!(shown.frames(), &[later, Frame::operator("aten::relu", &i)]);
    }

    #[test]
    fn a_memo_hit_builds_no_frame_and_agrees_with_the_table() {
        let i = Interner::new();
        let relu = Frame::operator("aten::relu", &i);
        let mut memo = PathMemo::default();
        let first = memo.extend(i.paths(), PathHandle::ROOT, relu.key(), || relu.clone());
        assert_eq!(first, i.paths().extend(PathHandle::ROOT, &relu));
        let again = memo.extend(i.paths(), PathHandle::ROOT, relu.key(), || {
            unreachable!("a hit does not build the frame")
        });
        assert_eq!(again, first);
        assert_eq!(i.paths().len(), 1);
    }

    #[test]
    fn concurrent_extension_agrees_on_ids() {
        let i = Interner::new();
        let handles: Vec<Vec<PathHandle>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..50)
                            .map(|n| i.paths().intern(&path(&i, &format!("aten::op{n}"))))
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for pair in handles.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
        assert_eq!(i.paths().len(), 1 + 2 * 50);
    }

    #[test]
    fn bytes_are_zero_until_used_and_grow_with_contexts() {
        let i = Interner::new();
        assert_eq!(i.paths().approx_bytes(), 0);
        i.paths().intern(&path(&i, "aten::relu"));
        assert!(i.paths().approx_bytes() >= 3 * std::mem::size_of::<Entry>());
    }
}
