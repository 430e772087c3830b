//! The correlation directory: the pipeline's one correlation table.
//!
//! It maps `correlation id → (home shard, PathId)`, so an asynchronous
//! activity record — which carries neither thread identity nor context —
//! finds both in one lookup. Nothing else remembers a correlation: a
//! launch is one `bind`, a record one `lookup`, retirement (the
//! two-phase prune) one `remove`.
//!
//! Correlation ids come from one counter and retire roughly in the order
//! they were issued, so they index a window instead of being hashed:
//! [`CorrelationWindow`] is one lock over a deque of slots, slot `i`
//! holding id `base + i`. A flush takes the lock once for its whole
//! batch of lookups and once for its whole list of removes. The lock is
//! a leaf: nobody holds it while taking another lock.

use std::collections::{HashMap, VecDeque};

use parking_lot::{Mutex, MutexGuard};

use deepcontext_core::PathId;

/// Mixes a routing key so sequential tids/correlation ids spread across
/// shards (splitmix64 finalizer). The sink's shard routing and the
/// fallback shard of an unbound correlation both derive from it.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the directory holds for one in-flight correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// The shard the launch was routed to.
    pub shard: u32,
    /// The calling context the launch was made from.
    pub path: PathId,
}

/// Bytes peak accounting charges per live correlation: a hash slot's
/// key, value and control byte, which is also what a straggler costs.
pub(crate) const DIR_ENTRY_BYTES: usize = std::mem::size_of::<(u64, Binding)>() + 1;

/// Bytes per window slot.
const SLOT_BYTES: usize = std::mem::size_of::<Option<Binding>>();

/// The widest the window gets, in ids: sixteen 4 096-record activity
/// buffers. A flush keeps two to three buffers' ids live in steady state
/// — the buffer not yet delivered, the batch being attributed and each
/// shard's previous batch, which the two-phase prune retires only at the
/// shard's next batch — so a shard may sit out a dozen flushes before
/// its ids are slid past. A full window is 64 Ki × 12 bytes = 768 KiB.
pub(crate) const WINDOW_SPAN: u64 = 16 * 4096;

/// A `HashMap` that has shrunk below a quarter of its capacity (and holds
/// more than 64 slots) gives the rest back at [`CorrelationWindow::trim`];
/// the window's deque follows the same rule.
const TRIM_FLOOR: usize = 64;

/// The window's state, behind [`CorrelationWindow`]'s one lock. Every
/// live id sits in exactly one place: its slot, or the straggler map.
#[derive(Default)]
pub(crate) struct Window {
    /// The id slot 0 holds. Meaningless while `slots` is empty: the next
    /// bind sets it.
    base: u64,
    /// Empty, or live at both ends: empty slots at either end are popped.
    slots: VecDeque<Option<Binding>>,
    stragglers: HashMap<u64, Binding>,
    /// No straggler key exceeds this, so a fresh id — above every
    /// straggler — never probes the map.
    straggler_max: u64,
    live: usize,
}

impl Window {
    /// `corr`'s slot index, if the window covers it.
    fn index(&self, corr: u64) -> Option<usize> {
        let offset = corr.checked_sub(self.base)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    fn may_straggle(&self, corr: u64) -> bool {
        corr <= self.straggler_max && !self.stragglers.is_empty()
    }

    fn straggle(&mut self, corr: u64, binding: Binding) {
        self.straggler_max = self.straggler_max.max(corr);
        self.stragglers.insert(corr, binding);
    }

    /// Registers `corr`'s home shard and context (later binds win).
    fn bind(&mut self, corr: u64, binding: Binding) {
        if self.may_straggle(corr) {
            if let Some(held) = self.stragglers.get_mut(&corr) {
                *held = binding;
                return;
            }
        }
        if self.slots.is_empty() {
            self.base = corr;
        }
        let Some(mut offset) = corr.checked_sub(self.base) else {
            self.straggle(corr, binding);
            self.live += 1;
            return;
        };
        if offset >= WINDOW_SPAN {
            self.slide_to(corr - (WINDOW_SPAN - 1));
            if self.slots.is_empty() {
                self.base = corr;
            }
            offset = corr - self.base;
        }
        let offset = offset as usize;
        if offset >= self.slots.len() {
            self.slots.resize(offset + 1, None);
        }
        if self.slots[offset].replace(binding).is_none() {
            self.live += 1;
        }
    }

    /// Moves every live id below `floor` to the straggler map and
    /// advances the base to the first live id at or above it.
    fn slide_to(&mut self, floor: u64) {
        while self.base < floor {
            let Some(slot) = self.slots.pop_front() else {
                return;
            };
            if let Some(binding) = slot {
                self.straggle(self.base, binding);
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

    /// What `corr` was bound to, if still in flight.
    pub(crate) fn lookup(&self, corr: u64) -> Option<Binding> {
        let held = self.index(corr).and_then(|i| self.slots[i]);
        if held.is_none() && self.may_straggle(corr) {
            return self.stragglers.get(&corr).copied();
        }
        held
    }

    /// Removes `corr`'s binding, returning it.
    fn remove(&mut self, corr: u64) -> Option<Binding> {
        let removed = match self.index(corr).and_then(|i| self.slots[i].take()) {
            Some(binding) => {
                self.pop_empty_ends();
                Some(binding)
            }
            None if self.may_straggle(corr) => self.stragglers.remove(&corr),
            None => None,
        };
        self.live -= usize::from(removed.is_some());
        removed
    }
}

/// The concurrent `correlation id → (home shard, path)` directory: one
/// lock over a deque of slots indexed by `corr − base`, and a small
/// straggler map for the ids the window cannot hold. It counts its live
/// entries exactly.
///
/// The base advances past retired ids at the front, and empty slots at
/// the back are popped. The straggler map holds:
///
/// * an id below the base — bound late, or bound after the window
///   emptied and rebased on a higher id;
/// * a live id the window slid past. A bind at `base + WINDOW_SPAN` or
///   above slides the base up to keep the window `WINDOW_SPAN` ids wide
///   (64 Ki: sixteen 4 096-record activity buffers), so an id whose
///   record never arrives (a malloc that failed after its launch
///   callback, a record lost with its buffer) cannot pin the base and
///   grow the window without bound: it moves to the map, once, and waits
///   there for its remove.
///
/// An id far above the window slides it too, rather than going to the
/// map: after a jump in the counter (a long run of API calls nobody
/// binds) every later id would follow it there.
pub struct CorrelationWindow {
    window: Mutex<Window>,
}

impl CorrelationWindow {
    /// An empty directory.
    pub fn new() -> Self {
        CorrelationWindow {
            window: Mutex::new(Window::default()),
        }
    }

    /// Locks the window, so a batch of lookups or removes pays for one
    /// acquisition.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Window> {
        self.window.lock()
    }

    /// Registers `corr`'s home shard and context (idempotent; later
    /// binds win).
    pub fn bind(&self, corr: u64, binding: Binding) {
        self.lock().bind(corr, binding);
    }

    /// What `corr` was bound to, if still in flight.
    pub fn lookup(&self, corr: u64) -> Option<Binding> {
        self.lock().lookup(corr)
    }

    /// Removes every id of `retired` under one acquisition.
    pub fn remove_all(&self, retired: &[u64]) {
        if retired.is_empty() {
            return;
        }
        let mut window = self.lock();
        for corr in retired {
            window.remove(*corr);
        }
    }

    /// Live entries, in the window and among the stragglers.
    pub fn len(&self) -> usize {
        self.lock().live
    }

    /// Sheds high-water capacity after a flush boundary: the deque and
    /// the straggler map each give back what they hold beyond four times
    /// their contents, once above 64 slots.
    pub fn trim(&self) {
        let mut window = self.lock();
        if window.slots.capacity() > TRIM_FLOOR && window.slots.capacity() / 4 > window.slots.len()
        {
            window.slots.shrink_to_fit();
        }
        let stragglers = &mut window.stragglers;
        if stragglers.capacity() > TRIM_FLOOR && stragglers.capacity() / 4 > stragglers.len() {
            stragglers.shrink_to_fit();
        }
    }

    /// Heap bytes held, from the deque's and the map's capacity (for
    /// tool-memory accounting).
    pub fn approx_bytes(&self) -> usize {
        let window = self.lock();
        window.slots.capacity() * SLOT_BYTES + window.stragglers.capacity() * DIR_ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{Frame, Interner};

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

    /// Single-id removal and emptiness: only the tests ask; the sink
    /// retires a flush's ids at once through `remove_all`.
    impl CorrelationWindow {
        fn remove(&self, corr: u64) -> Option<Binding> {
            self.lock().remove(corr)
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[test]
    fn bind_lookup_remove_round_trip() {
        let path = paths(4);
        let dir = CorrelationWindow::new();
        assert!(dir.is_empty());
        dir.bind(7, at(3, path(0)));
        dir.bind(u64::MAX, at(1, path(1)));
        dir.bind(0, at(2, path(2)));
        assert_eq!(dir.lookup(7), Some(at(3, path(0))));
        assert_eq!(dir.lookup(u64::MAX), Some(at(1, path(1))));
        assert_eq!(dir.lookup(0), Some(at(2, path(2))));
        assert_eq!(dir.lookup(8), None);
        assert_eq!(dir.len(), 3);
        dir.bind(7, at(5, path(3)));
        assert_eq!(dir.lookup(7), Some(at(5, path(3))), "later binds win");
        assert_eq!(dir.len(), 3, "rebind is not a new entry");
        assert_eq!(dir.remove(7), Some(at(5, path(3))));
        assert_eq!(dir.remove(7), None);
        assert_eq!(dir.lookup(7), None);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn matches_a_std_hashmap_oracle_under_churn() {
        // Deterministic mixed workload: insert / lookup / remove over a
        // small key space (collisions and reuse are common), checked
        // op-for-op against std::collections::HashMap. Random keys land
        // below the base as often as in the window, so the straggler map
        // and rebasing an emptied window are exercised throughout.
        let path = paths(5);
        let dir = CorrelationWindow::new();
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state >> 56;
            match step % 3 {
                0 | 1 => {
                    let binding = at((step % 13) as u32, path(step));
                    dir.bind(key, binding);
                    oracle.insert(key, binding);
                }
                _ => {
                    assert_eq!(dir.remove(key), oracle.remove(&key), "step {step}");
                }
            }
            assert_eq!(dir.lookup(key), oracle.get(&key).copied(), "step {step}");
            assert_eq!(dir.len(), oracle.len(), "step {step}");
        }
        for (key, binding) in &oracle {
            assert_eq!(dir.lookup(*key), Some(*binding), "final key {key}");
        }
    }

    #[test]
    fn a_pinned_id_moves_to_the_stragglers_and_the_window_stays_bounded() {
        // Id 1's record never arrives; ids 2..=1 000 000 are bound and
        // retired a 4 096-record flush at a time, with the flush's removes
        // taken in one batch as the sink takes them.
        let path = paths(3);
        let dir = CorrelationWindow::new();
        let pinned = at(7, path(0));
        dir.bind(1, pinned);
        // A full window and a map holding the pinned id, with the deque's
        // doubling headroom.
        let bound = 2 * WINDOW_SPAN as usize * SLOT_BYTES + TRIM_FLOOR * DIR_ENTRY_BYTES;
        let ids: Vec<u64> = (2..=1_000_000).collect();
        for flush in ids.chunks(4096) {
            for (n, corr) in flush.iter().enumerate() {
                dir.bind(*corr, at((corr % 16) as u32, path(*corr)));
                assert_eq!(dir.len(), 2 + n);
            }
            assert_eq!(
                dir.lookup(flush[0]),
                Some(at((flush[0] % 16) as u32, path(flush[0])))
            );
            dir.remove_all(flush);
            assert_eq!(dir.len(), 1, "only the pinned id stays live");
            assert_eq!(dir.lookup(1), Some(pinned));
            assert!(
                dir.approx_bytes() <= bound,
                "{} > {bound} bytes after flush ending at {}",
                dir.approx_bytes(),
                flush[flush.len() - 1]
            );
        }
        assert!(
            dir.lock().stragglers.contains_key(&1),
            "the window slid past the pinned id"
        );
        assert_eq!(dir.remove(1), Some(pinned));
        assert!(dir.is_empty());
        dir.trim();
        assert!(dir.approx_bytes() <= TRIM_FLOOR * (SLOT_BYTES + DIR_ENTRY_BYTES));
    }

    #[test]
    fn trim_sheds_capacity_and_preserves_entries() {
        let path = paths(4);
        let dir = CorrelationWindow::new();
        // A window of 4 096 ids, and a few stragglers below its base.
        for corr in 1000..5096 {
            dir.bind(corr, at(1, path(corr)));
        }
        for corr in 0..200 {
            dir.bind(corr, at(2, path(corr)));
        }
        let full = dir.approx_bytes();
        // Most retire: the window keeps 16 ids at its front (the back
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
                dir.lookup(corr),
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
            "an empty directory keeps at most the trim floor"
        );
    }

    #[test]
    fn concurrent_binds_and_lookups_agree() {
        let path = &paths(3);
        let dir = &CorrelationWindow::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    let base = t * 10_000;
                    let batch: Vec<(u64, PathId)> =
                        (base..base + 500).map(|corr| (corr, path(corr))).collect();
                    for (corr, path) in &batch {
                        dir.bind(*corr, at(t as u32, *path));
                        assert_eq!(dir.lookup(*corr), Some(at(t as u32, *path)));
                    }
                    for (corr, path) in batch.iter().step_by(2) {
                        assert_eq!(dir.remove(*corr), Some(at(t as u32, *path)));
                    }
                });
            }
        });
        assert_eq!(dir.len(), 8 * 250);
    }
}
