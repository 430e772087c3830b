//! String interning.
//!
//! Frames reference file paths, symbol names, operator names and library
//! paths. Interning keeps the calling context tree compact (the paper's
//! memory-overhead result depends on contexts, not strings, dominating
//! profile size) and makes frame comparison an integer compare.
//!
//! The intern map is **lock-striped**: `intern` hashes the string to one
//! of [`STRIPES`] independent `RwLock`ed maps, so concurrent producers
//! interning *different* strings — the common case once ingestion is
//! sharded — no longer serialize on one global lock. The hot path (interning an already-known string) is
//! one striped read lock. Symbol ids stay dense and stable: a shared
//! append-only symbol table assigns ids in insertion order, and a string
//! is only ever inserted once (the stripe's write lock makes the
//! check-then-append atomic per string).
//!
//! The interner also owns the session's [`PathTable`]: calling contexts
//! are built from its symbols, and it is the one object every producer
//! and every ingestion shard already shares.

use std::cell::RefCell;
use std::fmt;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::fx::FxHashMap;
use crate::path::PathTable;

/// Intern-map stripes. A power of two so the stripe pick is a mask; 16
/// matches the default ingestion shard count.
const STRIPES: usize = 16;

/// Identity source for [`Interner::intern_cached`]'s thread-local
/// caches: every interner instance ever constructed gets a distinct id,
/// so a stale cache can never alias a newer interner.
static NEXT_INTERNER_ID: AtomicU64 = AtomicU64::new(0);

/// Interners a thread keeps local caches for, most-recently-used first.
/// Sessions use one shared interner, so slot 0 hits in steady state;
/// tests constructing many interners rotate through and rebuild.
const LOCAL_CACHE_INTERNERS: usize = 4;

/// Entries per thread-local cache before it is cleared and rebuilt from
/// the hot set — a safety valve against unbounded name streams; a model
/// re-launching its ~dozens of hot kernels never comes close.
const LOCAL_CACHE_ENTRIES: usize = 4096;

/// One thread-local cache: `(interner id, str → Sym)`.
type LocalCache = (u64, FxHashMap<Arc<str>, Sym>);

thread_local! {
    /// Per-thread `str → Sym` caches, keyed by interner id (MRU order,
    /// mirroring the pipeline's thread-local producer batching). Values
    /// share the interner's canonical `Arc<str>`s, so a cache hit is one
    /// fx-hash lookup with no lock and no allocation.
    static LOCAL_SYMS: RefCell<Vec<LocalCache>> = const { RefCell::new(Vec::new()) };
}

/// An interned string handle.
///
/// `Sym` is a cheap, copyable index into an [`Interner`]. Two `Sym`s from the
/// same interner are equal iff the strings they denote are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// Raw index of this symbol within its interner.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A thread-safe, lock-striped string interner.
///
/// Shared (via [`Arc`]) between every component of a profiling session so
/// that frames produced by the framework shim, the GPU runtime and the CPU
/// sampler all agree on symbol identity.
///
/// # Examples
///
/// ```
/// use deepcontext_core::Interner;
///
/// let interner = Interner::new();
/// let a = interner.intern("aten::matmul");
/// let b = interner.intern("aten::matmul");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a).as_ref(), "aten::matmul");
/// ```
pub struct Interner {
    /// Identity for thread-local caches (unique per instance, ever).
    id: u64,
    /// string → symbol, striped by string hash (fx-hashed: interned
    /// strings are not attacker-controlled, and this map sits on the
    /// profiler's hottest path).
    stripes: Vec<RwLock<FxHashMap<Arc<str>, Sym>>>,
    /// symbol → string, append-only, ids dense in insertion order.
    strings: RwLock<Vec<Arc<str>>>,
    /// Distinct strings interned. Mirrors `strings.len()` so
    /// introspection ([`len`](Self::len), [`approx_bytes`](Self::approx_bytes),
    /// stats paths) never takes the `strings` lock and never contends
    /// with interning.
    count: AtomicUsize,
    /// Total interned string payload bytes.
    bytes: AtomicUsize,
    /// Every calling context built from this interner's symbols. It
    /// lives here because the interner is the one object DLMonitor and
    /// the ingestion shards already share.
    paths: PathTable,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            id: NEXT_INTERNER_ID.fetch_add(1, Ordering::Relaxed),
            stripes: (0..STRIPES)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            strings: RwLock::new(Vec::new()),
            count: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            paths: PathTable::default(),
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn stripe_of(&self, s: &str) -> &RwLock<FxHashMap<Arc<str>, Sym>> {
        // FNV-1a over the bytes: the stripe pick only needs a few
        // well-mixed bits, and the stripe's own map re-hashes the full
        // string anyway — a second SipHash pass here would double the
        // string-hashing cost of the profiler's hottest path.
        let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        &self.stripes[(h as usize) & (STRIPES - 1)]
    }

    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(&self, s: &str) -> Sym {
        let stripe = self.stripe_of(s);
        if let Some(&sym) = stripe.read().get(s) {
            return sym;
        }
        // The stripe write lock makes check-then-append atomic for every
        // string hashing here; strings on other stripes proceed in
        // parallel and only rendezvous on the symbol-table append.
        let mut map = stripe.write();
        if let Some(&sym) = map.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym = {
            let mut strings = self.strings.write();
            let sym = Sym(strings.len() as u32);
            strings.push(Arc::clone(&arc));
            // Published while the append lock is held, so `count` never
            // runs ahead of a resolvable id.
            self.count.fetch_add(1, Ordering::Release);
            sym
        };
        self.bytes.fetch_add(s.len(), Ordering::Relaxed);
        map.insert(arc, sym);
        sym
    }

    /// [`intern`](Self::intern) through this thread's local `str → Sym`
    /// cache: repeated hot names (the common case — a training step
    /// re-launches the same few dozen kernels every iteration) skip the
    /// striped locks entirely and cost one fx-hash lookup with no
    /// allocation. The shared interner stays the source of truth: a
    /// local miss interns through it and caches the canonical symbol, so
    /// cached answers always agree with [`intern`](Self::intern) on every thread.
    pub fn intern_cached(&self, s: &str) -> Sym {
        LOCAL_SYMS.with(|tls| {
            let mut caches = tls.borrow_mut();
            // MRU: slot 0 is the interner this thread used last. One
            // session shares one interner, so this is an id compare.
            match caches.iter().position(|(id, _)| *id == self.id) {
                Some(0) => {}
                Some(pos) => caches.swap(0, pos),
                None => {
                    caches.insert(0, (self.id, FxHashMap::default()));
                    caches.truncate(LOCAL_CACHE_INTERNERS);
                }
            }
            let cache = &mut caches[0].1;
            if let Some(&sym) = cache.get(s) {
                return sym;
            }
            let sym = self.intern(s);
            if cache.len() >= LOCAL_CACHE_ENTRIES {
                cache.clear();
            }
            // Key off the canonical Arc so the miss path allocates
            // nothing beyond what interning itself did.
            cache.insert(self.resolve(sym), sym);
            sym
        })
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.strings.read()[sym.0 as usize])
    }

    /// Number of distinct strings interned. Lock-free: reads the atomic
    /// mirror of the symbol table's length, so stats paths polling this
    /// (or [`approx_bytes`](Self::approx_bytes)) never contend with
    /// interning.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The session's [path table](crate::PathTable).
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Approximate heap bytes held by interned strings and the path
    /// table (for the memory-overhead accounting of Figure 6c/6d).
    pub fn approx_bytes(&self) -> usize {
        // String payload + one Arc pointer per map and vec slot + map entry.
        self.bytes.load(Ordering::Relaxed)
            + self.len() * (2 * std::mem::size_of::<Arc<str>>() + 16)
            + self.paths.approx_bytes()
    }

    /// All interned strings in symbol order (used by the profile database
    /// writer).
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.strings.read().clone()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("foo");
        let c = i.intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let i = Interner::new();
        let strings = ["train.py", "aten::conv2d", "libcudart.so", ""];
        let syms: Vec<_> = strings.iter().map(|s| i.intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym).as_ref(), *s);
        }
    }

    #[test]
    fn symbol_ids_are_dense_and_stable() {
        let i = Interner::new();
        let syms: Vec<Sym> = (0..100).map(|n| i.intern(&format!("sym{n}"))).collect();
        // Dense: every id in 0..len assigned exactly once.
        let mut indices: Vec<u32> = syms.iter().map(|s| s.index()).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..100).collect::<Vec<u32>>());
        // Stable: re-interning returns the original id, snapshot order
        // matches id order.
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.intern(&format!("sym{n}")), *sym);
        }
        let snap = i.snapshot();
        for sym in &syms {
            assert_eq!(i.resolve(*sym), snap[sym.index() as usize]);
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let i = Interner::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let i = Arc::clone(&i);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|n| i.intern(&format!("s{n}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(i.len(), 100);
    }

    #[test]
    fn contended_stripes_stay_consistent() {
        // Contention smoke test for the lock striping: 8 threads hammer a
        // mix of (a) the same hot strings — repeated read-path hits on
        // shared stripes — and (b) thread-private strings that race fresh
        // inserts on the shared symbol table. Every thread must observe
        // identical ids for shared strings, ids must stay dense, and every
        // resolve must round-trip.
        let i = Interner::new();
        let threads = 8;
        let hot = 32;
        let rounds = 50;
        let results: Vec<Vec<(String, Sym)>> = std::thread::scope(|scope| {
            (0..threads)
                .map(|t| {
                    let i = Arc::clone(&i);
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for round in 0..rounds {
                            for n in 0..hot {
                                let s = format!("hot{n}");
                                let sym = i.intern(&s);
                                if round == 0 {
                                    seen.push((s, sym));
                                }
                            }
                            let s = format!("private-{t}-{round}");
                            let sym = i.intern(&s);
                            seen.push((s, sym));
                        }
                        seen
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Shared strings agree across threads; all ids resolve back.
        let mut by_string: std::collections::HashMap<String, Sym> =
            std::collections::HashMap::new();
        for thread in &results {
            for (s, sym) in thread {
                assert_eq!(i.resolve(*sym).as_ref(), s.as_str());
                assert_eq!(*by_string.entry(s.clone()).or_insert(*sym), *sym);
            }
        }
        // Dense ids: exactly hot + threads×rounds distinct strings.
        assert_eq!(i.len(), hot + threads * rounds);
        let snap = i.snapshot();
        assert_eq!(snap.len(), i.len());
    }

    #[test]
    fn intern_cached_agrees_with_intern() {
        let i = Interner::new();
        let warm = i.intern("hot");
        assert_eq!(i.intern_cached("hot"), warm, "cache adopts shared id");
        let cold = i.intern_cached("cold");
        assert_eq!(i.intern("cold"), cold, "shared map adopts cached id");
        assert_eq!(i.intern_cached("cold"), cold, "hit path is stable");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn thread_local_caches_never_alias_across_interners() {
        // Two interners alive at once on one thread: the MRU cache must
        // key by interner identity, not just by string.
        let a = Interner::new();
        let b = Interner::new();
        let _pad = a.intern("padding"); // desynchronize id assignment
        let sa = a.intern_cached("name");
        let sb = b.intern_cached("name");
        assert_ne!(sa, sb);
        assert_eq!(a.resolve(sa).as_ref(), "name");
        assert_eq!(b.resolve(sb).as_ref(), "name");
        assert_eq!(a.intern("name"), sa);
        assert_eq!(b.intern("name"), sb);
    }

    #[test]
    fn cached_interning_is_consistent_across_eight_threads() {
        // The thread-local-cache consistency contract: 8 threads intern
        // a shared hot set through their private caches (racing the
        // first-intern of every name) and every cached Sym must agree
        // with the shared interner's answer on every thread.
        let i = Interner::new();
        let threads = 8;
        let hot = 48;
        let rounds = 64;
        let results: Vec<Vec<Sym>> = std::thread::scope(|scope| {
            (0..threads)
                .map(|_| {
                    let i = Arc::clone(&i);
                    scope.spawn(move || {
                        let mut last = Vec::new();
                        for _ in 0..rounds {
                            last = (0..hot)
                                .map(|n| i.intern_cached(&format!("hot_kernel_{n}")))
                                .collect();
                        }
                        last
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "all threads observe identical symbols");
        }
        for (n, sym) in results[0].iter().enumerate() {
            assert_eq!(
                i.intern(&format!("hot_kernel_{n}")),
                *sym,
                "cached ids match the shared interner"
            );
        }
        assert_eq!(i.len(), hot, "no duplicate interning through the caches");
    }

    #[test]
    fn len_is_visible_without_the_strings_lock() {
        let i = Interner::new();
        assert!(i.is_empty());
        // Hold the strings read path hostage? Not possible from safe
        // code; instead assert the atomic mirror tracks interning
        // exactly, including the resolve-visible boundary.
        for n in 0..100 {
            i.intern(&format!("s{n}"));
            assert_eq!(i.len(), n + 1);
        }
        assert_eq!(i.snapshot().len(), i.len());
    }

    #[test]
    fn approx_bytes_grows() {
        let i = Interner::new();
        let before = i.approx_bytes();
        i.intern("a fairly long interned string for accounting purposes");
        assert!(i.approx_bytes() > before);
    }
}
