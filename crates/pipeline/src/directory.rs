//! The correlation directory: the pipeline's one correlation table.
//!
//! It maps `correlation id → (home shard, PathId)`, so an asynchronous
//! activity record — which carries neither thread identity nor context —
//! finds both in one lookup. Nothing else remembers a correlation: a
//! launch is one `bind`, a record one `lookup`, retirement (the
//! two-phase prune) one `remove`. It sits on the hot
//! path, so it is one concrete type: [`StripedHashDirectory`], lock
//! stripes of `std::collections::HashMap` keyed by one splitmix64 round.
//! Stripe locks are leaves: nobody holds one while taking another lock.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use deepcontext_core::PathId;

/// Mixes a routing key so sequential tids/correlation ids spread across
/// shards and stripes (splitmix64 finalizer). Shared with the sink's
/// shard routing so a correlation's directory stripe and fallback shard
/// derive from one well-mixed word.
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

/// Bytes per map slot — key, value and the table's control byte — shared
/// by peak accounting.
pub(crate) const DIR_ENTRY_BYTES: usize = std::mem::size_of::<(u64, Binding)>() + 1;

/// Hasher for the hash directory's `u64` keys: one splitmix64 round
/// instead of SipHash — the default hasher's setup cost is measurable on
/// the launch path.
#[derive(Default, Clone)]
struct CorrHasher(u64);

impl std::hash::Hasher for CorrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused for u64 keys): fold bytes then mix.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
        self.0 = mix(self.0);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(n);
    }
}

#[derive(Default, Clone)]
struct CorrHashBuilder;

impl std::hash::BuildHasher for CorrHashBuilder {
    type Hasher = CorrHasher;
    fn build_hasher(&self) -> CorrHasher {
        CorrHasher::default()
    }
}

type HashStripe = std::collections::HashMap<u64, Binding, CorrHashBuilder>;

/// A concurrent `correlation id → (home shard, path)` directory: lock
/// stripes of `HashMap` keyed by one splitmix64 round. Internally
/// synchronized, and tracks its own live-entry count so
/// [`len`](Self::len) never contends with binding.
pub struct StripedHashDirectory {
    stripes: Vec<Mutex<HashStripe>>,
    entries: AtomicUsize,
}

impl StripedHashDirectory {
    /// Creates a directory with `stripes` lock stripes (clamped to at
    /// least one).
    pub fn new(stripes: usize) -> Self {
        StripedHashDirectory {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(HashStripe::default()))
                .collect(),
            entries: AtomicUsize::new(0),
        }
    }

    fn stripe_of(&self, corr: u64) -> usize {
        (mix(corr) % self.stripes.len() as u64) as usize
    }

    /// Registers `corr`'s home shard and context (idempotent; later
    /// binds win).
    pub fn bind(&self, corr: u64, binding: Binding) {
        if self.stripes[self.stripe_of(corr)]
            .lock()
            .insert(corr, binding)
            .is_none()
        {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// What `corr` was bound to, if still in flight.
    pub fn lookup(&self, corr: u64) -> Option<Binding> {
        self.stripes[self.stripe_of(corr)]
            .lock()
            .get(&corr)
            .copied()
    }

    /// Removes `corr`'s binding, returning it.
    pub fn remove(&self, corr: u64) -> Option<Binding> {
        let removed = self.stripes[self.stripe_of(corr)].lock().remove(&corr);
        if removed.is_some() {
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Live entries across all stripes (lock-free).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the directory holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sheds high-water capacity after a flush boundary.
    pub fn trim(&self) {
        for stripe in &self.stripes {
            let mut map = stripe.lock();
            if map.capacity() > 64 && map.capacity() / 4 > map.len() {
                map.shrink_to_fit();
            }
        }
    }

    /// Approximate heap bytes held (capacity-based, for tool-memory
    /// accounting).
    pub fn approx_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().capacity() * DIR_ENTRY_BYTES)
            .sum()
    }
}

/// The correlation-directory layout. One variant: nothing branches on
/// it. It survives only because the frozen repo benchmark
/// (`benchmark/src/workloads.rs`) formats
/// [`PipelineConfig::directory_map`](crate::PipelineConfig::directory_map)
/// with `{:?}` in its `resolved:` header line; it goes with the next
/// benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryMapKind {
    /// [`StripedHashDirectory`] — lock stripes of `HashMap`.
    #[default]
    Striped,
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

    #[test]
    fn bind_lookup_remove_round_trip() {
        let path = paths(4);
        let dir = StripedHashDirectory::new(4);
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
        // op-for-op against std::collections::HashMap.
        let path = paths(5);
        let dir = StripedHashDirectory::new(4);
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
        }
        assert_eq!(dir.len(), oracle.len());
        for (key, binding) in &oracle {
            assert_eq!(dir.lookup(*key), Some(*binding), "final key {key}");
        }
    }

    #[test]
    fn trim_sheds_capacity_and_preserves_entries() {
        let only = at(1, paths(1)(0));
        let dir = StripedHashDirectory::new(4);
        for corr in 0..4096 {
            dir.bind(corr, only);
        }
        let full = dir.approx_bytes();
        for corr in 16..4096 {
            dir.remove(corr);
        }
        dir.trim();
        assert!(dir.approx_bytes() < full, "trim sheds high-water capacity");
        for corr in 0..16 {
            assert_eq!(dir.lookup(corr), Some(only), "survivors intact");
        }
        assert_eq!(dir.len(), 16);
        // Empty stripes shed down to (at most) the sub-trim-threshold
        // residue.
        for corr in 0..16 {
            dir.remove(corr);
        }
        dir.trim();
        assert!(dir.is_empty());
        assert!(
            dir.approx_bytes() <= 64 * DIR_ENTRY_BYTES,
            "empty directory keeps at most the trim threshold"
        );
    }

    #[test]
    fn concurrent_binds_and_lookups_agree() {
        let path = &paths(3);
        let dir = &StripedHashDirectory::new(4);
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
