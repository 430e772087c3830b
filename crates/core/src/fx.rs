//! Fx-style hashing: one multiply-rotate round per word instead of
//! SipHash.
//!
//! The profiler's hottest maps — the CCT `child_index` probed per frame
//! of every inserted call path, the path table and its per-thread memos,
//! the interner stripes hit per intern — all key on
//! small, attacker-free data (interned symbols, node ids, correlation
//! counters). SipHash's per-lookup setup cost is pure overhead there.
//! [`FxHasher`] is the Firefox/rustc "fx" function — fold each 8-byte
//! word into the state with one rotate, one xor and one multiply by a
//! mixing constant — plus a high-to-low xor-shift after the multiply:
//! plain fx keeps a difference in a word's top byte confined to the top
//! byte (multiplication only carries upward), which makes short-string
//! families like `kernel_19`/`kernel_92` collide outright. The extra
//! shift folds the well-mixed high half back down each round. It is not
//! DoS-resistant, which is exactly the trade these internal maps want.
//!
//! Use the [`FxHashMap`] / [`FxHashSet`] aliases; they drop into any
//! `HashMap`/`HashSet` signature via `FxHashMap::default()`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative mixing constant (64-bit golden-ratio fraction, the
/// same constant rustc's fx hasher uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The fx hash function: one rotate-xor-multiply round per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        let mixed = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        // Fold the high half down so upper-byte differences propagate
        // into the bits the next round (and the hash table) actually use.
        self.hash = mixed ^ (mixed >> 32);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // One round per aligned 8-byte word, then one round for the tail
        // (zero-padded). Length is folded in so prefixes hash apart.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, so map layouts are
/// deterministic across runs).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using fx hashing — the default map for the profiler's
/// internal hot paths. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using fx hashing. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_inputs_hash_equal_and_hashes_are_stable_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"aten::matmul"), hash_of(&"aten::matmul"));
        let a = FxBuildHasher::default().hash_one("sgemm_128x128");
        let b = FxBuildHasher::default().hash_one("sgemm_128x128");
        assert_eq!(a, b, "stateless builder: deterministic across instances");
    }

    #[test]
    fn distinct_inputs_spread() {
        // Not a statistical test — just catch a degenerate implementation
        // that maps everything (or sequential keys) to one value.
        let hashes: FxHashSet<u64> = (0..1000u64).map(|n| hash_of(&n)).collect();
        assert_eq!(hashes.len(), 1000);
        let strings: FxHashSet<u64> = (0..1000).map(|n| hash_of(&format!("kernel_{n}"))).collect();
        assert_eq!(strings.len(), 1000);
    }

    #[test]
    fn str_prefixes_hash_apart() {
        // The length fold keeps zero-padded tails from colliding with
        // their extensions.
        assert_ne!(hash_of(&"abc"), hash_of(&"abc\0"));
        assert_ne!(hash_of(&""), hash_of(&"\0"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        map.insert("a".into(), 1);
        map.insert("b".into(), 2);
        assert_eq!(map.get("a"), Some(&1));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
    }
}
