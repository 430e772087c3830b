//! [`IdWindow`]: a map keyed by ids from a counter that only grows — a
//! sink shard's correlation ids and the forward/backward association's
//! autograd sequence ids.

use std::collections::{HashMap, VecDeque};
use std::mem::size_of;

/// The widest the window gets, in ids: sixteen 4 096-record activity
/// buffers. A flush keeps two to three buffers' correlation ids live in
/// steady state — the buffer not yet delivered, the batch being
/// attributed and each shard's previous batch, which the sink's
/// two-phase prune retires only at the shard's next batch — so a shard
/// may sit out a dozen flushes before its ids are slid past. A full
/// window of a shard's 8-byte `Option<PathId>` slots is 64 Ki × 8 bytes
/// = 512 KiB.
const SPAN: u64 = 16 * 4096;

/// A `HashMap` that has shrunk below a quarter of its capacity (and holds
/// more than 64 slots) gives the rest back at [`IdWindow::trim`]; the
/// window's deque follows the same rule.
const TRIM_FLOOR: usize = 64;

/// An `id → V` map over ids from one growing counter. Ids are issued in
/// order and retire roughly in that order, so they index a deque of
/// slots by `id − base` instead of being hashed, and a small straggler
/// map holds the ids the window cannot. It counts its live entries
/// exactly, and every live id sits in exactly one place: its slot, or
/// the straggler map. It takes no lock; each owner puts it behind its
/// own.
///
/// The base advances past removed ids at the front, and empty slots at
/// the back are popped. The straggler map holds:
///
/// * an id below the base — inserted late, or inserted after the window
///   emptied and rebased on a higher id;
/// * a live id the window slid past. An insert at `base + SPAN` or above
///   slides the base up to keep the window `SPAN` ids wide (64 Ki), so an
///   id that is never removed (a correlation whose record never arrives)
///   cannot pin the base and grow the window without bound: it moves to
///   the map, once, and waits there for its remove.
///
/// An id far above the window slides it too, rather than going to the
/// map: after a jump in the counter (a long run of ids nobody inserts)
/// every later id would follow it there.
///
/// [`retire_below`](Self::retire_below) is the other way ids leave: it
/// advances the base to a floor, dropping every slot it passes, and
/// drops the stragglers below the floor.
#[derive(Debug, Clone, Default)]
pub struct IdWindow<V: Copy> {
    /// The id slot 0 holds. Meaningless while `slots` is empty: the next
    /// insert sets it.
    base: u64,
    /// Empty, or live at both ends: empty slots at either end are popped.
    slots: VecDeque<Option<V>>,
    stragglers: HashMap<u64, V>,
    /// No straggler key exceeds this, so a fresh id — above every
    /// straggler — never probes the map.
    straggler_max: u64,
    live: usize,
}

impl<V: Copy> IdWindow<V> {
    /// Bytes a straggler costs: a hash slot's key, value and control
    /// byte.
    const ENTRY_BYTES: usize = size_of::<(u64, V)>() + 1;

    /// Bytes per window slot.
    const SLOT_BYTES: usize = size_of::<Option<V>>();

    /// `id`'s slot index, if the window covers it.
    fn index(&self, id: u64) -> Option<usize> {
        let offset = id.checked_sub(self.base)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    fn may_straggle(&self, id: u64) -> bool {
        id <= self.straggler_max && !self.stragglers.is_empty()
    }

    fn straggle(&mut self, id: u64, value: V) {
        self.straggler_max = self.straggler_max.max(id);
        self.stragglers.insert(id, value);
    }

    /// Maps `id` to `value` (later inserts win).
    pub fn insert(&mut self, id: u64, value: V) {
        if self.may_straggle(id) {
            if let Some(held) = self.stragglers.get_mut(&id) {
                *held = value;
                return;
            }
        }
        if self.slots.is_empty() {
            self.base = id;
        }
        let Some(mut offset) = id.checked_sub(self.base) else {
            self.straggle(id, value);
            self.live += 1;
            return;
        };
        if offset >= SPAN {
            self.advance_to(id - (SPAN - 1), true);
            if self.slots.is_empty() {
                self.base = id;
            }
            offset = id - self.base;
        }
        let offset = offset as usize;
        if offset >= self.slots.len() {
            self.slots.resize(offset + 1, None);
        }
        if self.slots[offset].replace(value).is_none() {
            self.live += 1;
        }
    }

    /// Advances the base to `floor`, or until the window is empty, then
    /// pops empty ends. Each live id passed moves to the straggler map
    /// when `keep` is set and is dropped otherwise.
    fn advance_to(&mut self, floor: u64, keep: bool) {
        while self.base < floor {
            let Some(slot) = self.slots.pop_front() else {
                break;
            };
            match slot {
                Some(value) if keep => self.straggle(self.base, value),
                Some(_) => self.live -= 1,
                None => {}
            }
            self.base += 1;
        }
        self.pop_empty_ends();
    }

    /// Pops empty slots at both ends, the back first, so the base only
    /// advances while a live slot lies ahead of it.
    fn pop_empty_ends(&mut self) {
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// What `id` maps to, if it is live.
    pub fn get(&self, id: u64) -> Option<V> {
        let held = self.index(id).and_then(|i| self.slots[i]);
        if held.is_none() && self.may_straggle(id) {
            return self.stragglers.get(&id).copied();
        }
        held
    }

    /// Removes `id`, returning what it mapped to.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let removed = match self.index(id).and_then(|i| self.slots[i].take()) {
            Some(value) => {
                self.pop_empty_ends();
                Some(value)
            }
            None if self.may_straggle(id) => self.stragglers.remove(&id),
            None => None,
        };
        self.live -= usize::from(removed.is_some());
        removed
    }

    /// Removes every id below `floor`: the base advances to the first
    /// live id at or above it, and the stragglers below it are dropped.
    pub fn retire_below(&mut self, floor: u64) {
        self.advance_to(floor, false);
        let held = self.stragglers.len();
        self.stragglers.retain(|id, _| *id >= floor);
        self.live -= held - self.stragglers.len();
    }

    /// Live entries, in the window and among the stragglers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no id is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sheds high-water capacity: the deque and the straggler map each
    /// give back what they hold beyond four times their contents, once
    /// above 64 slots.
    pub fn trim(&mut self) {
        if self.slots.capacity() > TRIM_FLOOR && self.slots.capacity() / 4 > self.slots.len() {
            self.slots.shrink_to_fit();
        }
        let stragglers = &mut self.stragglers;
        if stragglers.capacity() > TRIM_FLOOR && stragglers.capacity() / 4 > stragglers.len() {
            stragglers.shrink_to_fit();
        }
    }

    /// Bytes the live contents occupy, holes included: every slot from
    /// the base to the last live id, and every straggler (for peak
    /// accounting). Ids bound elsewhere in a shared counter leave holes,
    /// so this follows the span, not [`len`](Self::len).
    pub fn held_bytes(&self) -> usize {
        self.slots.len() * Self::SLOT_BYTES + self.stragglers.len() * Self::ENTRY_BYTES
    }

    /// Heap bytes held, from the deque's and the map's capacity (for
    /// tool-memory accounting).
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * Self::SLOT_BYTES + self.stragglers.capacity() * Self::ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Frame, Interner, PathId};
    use parking_lot::Mutex;

    /// The value these tests store: a shard and a path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    struct Binding {
        shard: u32,
        path: PathId,
    }

    type Window = IdWindow<Binding>;

    const SLOT_BYTES: usize = Window::SLOT_BYTES;
    const DIR_ENTRY_BYTES: usize = Window::ENTRY_BYTES;
    const WINDOW_SPAN: u64 = SPAN;

    /// `n` distinct path ids (they only come out of a path table), cycled
    /// through by `k`.
    fn paths(n: u64) -> impl Fn(u64) -> PathId {
        let interner = Interner::new();
        let id = |pc| interner.paths().intern(&[Frame::instruction(pc)]).id();
        let ids: Vec<PathId> = (0..n).map(id).collect();
        move |k| ids[(k % n) as usize]
    }

    fn at(shard: u32, path: PathId) -> Binding {
        Binding { shard, path }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let path = paths(4);
        let mut dir = Window::default();
        assert!(dir.is_empty());
        dir.insert(7, at(3, path(0)));
        dir.insert(u64::MAX, at(1, path(1)));
        dir.insert(0, at(2, path(2)));
        assert_eq!(dir.get(7), Some(at(3, path(0))));
        assert_eq!(dir.get(u64::MAX), Some(at(1, path(1))));
        assert_eq!(dir.get(0), Some(at(2, path(2))));
        assert_eq!(dir.get(8), None);
        assert_eq!(dir.len(), 3);
        dir.insert(7, at(5, path(3)));
        assert_eq!(dir.get(7), Some(at(5, path(3))), "later inserts win");
        assert_eq!(dir.len(), 3, "reinsert is not a new entry");
        assert_eq!(dir.remove(7), Some(at(5, path(3))));
        assert_eq!(dir.remove(7), None);
        assert_eq!(dir.get(7), None);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn matches_a_std_hashmap_oracle_under_churn() {
        // Deterministic mixed workload: insert / remove / retire_below over
        // a small key space (collisions and reuse are common), with a
        // lookup every step, checked op-for-op against
        // std::collections::HashMap. Random keys land below the base as
        // often as in the window, so the straggler map and rebasing an
        // emptied window are exercised throughout; a random floor lands
        // below, inside and above the window and among the stragglers.
        let path = paths(5);
        let mut dir = Window::default();
        let mut oracle = HashMap::new();
        let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state >> 56;
            match step % 8 {
                0..=4 => {
                    let binding = at((step % 13) as u32, path(step));
                    dir.insert(key, binding);
                    oracle.insert(key, binding);
                }
                5 | 6 => {
                    assert_eq!(dir.remove(key), oracle.remove(&key), "step {step}");
                }
                _ => {
                    let floor = key;
                    dir.retire_below(floor);
                    oracle.retain(|id, _| *id >= floor);
                    for id in 0..=u64::from(u8::MAX) {
                        assert_eq!(dir.get(id), oracle.get(&id).copied(), "step {step}");
                    }
                }
            }
            assert_eq!(dir.get(key), oracle.get(&key).copied(), "step {step}");
            assert_eq!(dir.len(), oracle.len(), "step {step}");
        }
        for (key, binding) in &oracle {
            assert_eq!(dir.get(*key), Some(*binding), "final key {key}");
        }
    }

    #[test]
    fn a_pinned_id_moves_to_the_stragglers_and_the_window_stays_bounded() {
        // Id 1 is never removed; ids 2..=1 000 000 are inserted and
        // removed a 4 096-record flush at a time, with the flush's removes
        // taken in one batch as the sink takes them.
        let path = paths(3);
        let mut dir = Window::default();
        let pinned = at(7, path(0));
        dir.insert(1, pinned);
        // A full window and a map holding the pinned id, with the deque's
        // doubling headroom.
        let bound = 2 * WINDOW_SPAN as usize * SLOT_BYTES + TRIM_FLOOR * DIR_ENTRY_BYTES;
        let ids: Vec<u64> = (2..=1_000_000).collect();
        for flush in ids.chunks(4096) {
            for (n, corr) in flush.iter().enumerate() {
                dir.insert(*corr, at((corr % 16) as u32, path(*corr)));
                assert_eq!(dir.len(), 2 + n);
            }
            assert_eq!(
                dir.get(flush[0]),
                Some(at((flush[0] % 16) as u32, path(flush[0])))
            );
            for corr in flush {
                dir.remove(*corr);
            }
            assert_eq!(dir.len(), 1, "only the pinned id stays live");
            assert_eq!(dir.get(1), Some(pinned));
            assert!(
                dir.approx_bytes() <= bound,
                "{} > {bound} bytes after flush ending at {}",
                dir.approx_bytes(),
                flush[flush.len() - 1]
            );
        }
        assert!(
            dir.stragglers.contains_key(&1),
            "the window slid past the pinned id"
        );
        assert_eq!(dir.remove(1), Some(pinned));
        assert!(dir.is_empty());
        dir.trim();
        assert!(dir.approx_bytes() <= TRIM_FLOOR * (SLOT_BYTES + DIR_ENTRY_BYTES));
    }

    #[test]
    fn held_bytes_follow_the_span_and_the_stragglers() {
        let path = paths(2);
        let mut dir = Window::default();
        assert_eq!(dir.held_bytes(), 0);
        // Every third id of 100..=190: 31 live ids over a 91-slot span.
        for corr in (100..=190).step_by(3) {
            dir.insert(corr, at(0, path(corr)));
        }
        assert_eq!(dir.len(), 31);
        assert_eq!(dir.held_bytes(), 91 * SLOT_BYTES);
        // Two stragglers below the base.
        dir.insert(5, at(0, path(5)));
        dir.insert(6, at(0, path(6)));
        assert_eq!(dir.held_bytes(), 91 * SLOT_BYTES + 2 * DIR_ENTRY_BYTES);
        // Removing the front slides the base to the next live id.
        dir.remove(100);
        assert_eq!(dir.held_bytes(), 88 * SLOT_BYTES + 2 * DIR_ENTRY_BYTES);
        dir.retire_below(u64::MAX);
        assert_eq!(dir.held_bytes(), 0);
    }

    #[test]
    fn trim_sheds_capacity_and_preserves_entries() {
        let path = paths(4);
        let mut dir = Window::default();
        // A window of 4 096 ids, and a few stragglers below its base.
        for corr in 1000..5096 {
            dir.insert(corr, at(1, path(corr)));
        }
        for corr in 0..200 {
            dir.insert(corr, at(2, path(corr)));
        }
        let full = dir.approx_bytes();
        // Most are removed: the window keeps 16 ids at its front (the back
        // pops as it empties), the map 8.
        for corr in (1016..5096).chain(8..200) {
            dir.remove(corr);
        }
        dir.trim();
        assert!(
            dir.approx_bytes() < full / 8,
            "trim sheds high-water capacity"
        );
        for corr in (1000..1016).chain(0..8) {
            let shard = if corr < 1000 { 2 } else { 1 };
            assert_eq!(
                dir.get(corr),
                Some(at(shard, path(corr))),
                "survivor {corr}"
            );
        }
        assert_eq!(dir.len(), 24);
        for corr in (1000..1016).chain(0..8) {
            dir.remove(corr);
        }
        dir.trim();
        assert!(dir.is_empty());
        assert!(
            dir.approx_bytes() <= TRIM_FLOOR * (SLOT_BYTES + DIR_ENTRY_BYTES),
            "an empty window keeps at most the trim floor"
        );
    }

    #[test]
    fn concurrent_binds_and_lookups_agree() {
        let path = &paths(3);
        let dir = &Mutex::new(Window::default());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    let base = t * 10_000;
                    let batch: Vec<(u64, PathId)> =
                        (base..base + 500).map(|corr| (corr, path(corr))).collect();
                    for (corr, path) in &batch {
                        dir.lock().insert(*corr, at(t as u32, *path));
                        assert_eq!(dir.lock().get(*corr), Some(at(t as u32, *path)));
                    }
                    for (corr, path) in batch.iter().step_by(2) {
                        assert_eq!(dir.lock().remove(*corr), Some(at(t as u32, *path)));
                    }
                });
            }
        });
        assert_eq!(dir.lock().len(), 8 * 250);
    }
}
