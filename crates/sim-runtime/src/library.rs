//! `LD_AUDIT`-style library map.
//!
//! DeepContext records the address space of every loaded library using
//! `LD_AUDIT` (paper §4.1): this is how the call-path integrator recognises
//! that a native frame belongs to `libpython.so` and must be replaced by
//! the Python call path, and how user-configured custom driver libraries
//! are intercepted. The simulation keeps an explicit map with load
//! callbacks.

use std::sync::Arc;

use deepcontext_core::Subscribers;
use parking_lot::RwLock;

/// A loaded simulated shared library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryInfo {
    /// Library path, e.g. `/usr/lib/libpython3.11.so`.
    pub path: Arc<str>,
    /// Base load address.
    pub base: u64,
    /// Mapping size in bytes.
    pub size: u64,
}

impl LibraryInfo {
    /// Whether `pc` falls inside this library's mapping.
    pub fn contains(&self, pc: u64) -> bool {
        pc >= self.base && pc < self.base + self.size
    }

    /// Final path component, e.g. `libpython3.11.so`.
    pub fn basename(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Whether this is a `libpython*`: a native frame inside one is where
    /// the paper's integration cuts over to the Python call path.
    pub fn is_libpython(&self) -> bool {
        self.basename().starts_with("libpython")
    }
}

type LoadCallback = Arc<dyn Fn(&LibraryInfo) + Send + Sync>;

/// Registry of loaded libraries with PC lookup and load-time callbacks
/// (the `la_objopen` analogue).
#[derive(Default)]
pub struct LibraryMap {
    libs: RwLock<Vec<LibraryInfo>>,
    callbacks: Subscribers<LoadCallback>,
}

impl LibraryMap {
    /// Creates an empty map.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a library load, firing load callbacks. Returns the info.
    pub fn register(&self, path: &str, base: u64, size: u64) -> LibraryInfo {
        let info = LibraryInfo {
            path: Arc::from(path),
            base,
            size,
        };
        self.libs.write().push(info.clone());
        self.callbacks.deliver(|cb| cb(&info));
        info
    }

    /// Registers an audit callback invoked for every *future* library load.
    pub fn on_load(&self, cb: impl Fn(&LibraryInfo) + Send + Sync + 'static) {
        self.callbacks.push(Arc::new(cb));
    }

    /// Finds the library containing `pc`.
    pub fn find(&self, pc: u64) -> Option<LibraryInfo> {
        self.libs.read().iter().find(|l| l.contains(pc)).cloned()
    }

    /// Finds a library by exact path.
    pub fn by_path(&self, path: &str) -> Option<LibraryInfo> {
        self.libs
            .read()
            .iter()
            .find(|l| l.path.as_ref() == path)
            .cloned()
    }

    /// Finds a library whose basename matches, e.g. `libpython3.11.so`.
    pub fn by_basename(&self, basename: &str) -> Option<LibraryInfo> {
        self.libs
            .read()
            .iter()
            .find(|l| l.basename() == basename)
            .cloned()
    }

    /// Whether `pc` belongs to a library whose basename starts with
    /// `libpython` — the cutover test of the paper's integration algorithm.
    pub fn is_python_pc(&self, pc: u64) -> bool {
        self.libs
            .read()
            .iter()
            .any(|l| l.contains(pc) && l.is_libpython())
    }

    /// All registered libraries.
    pub fn snapshot(&self) -> Vec<LibraryInfo> {
        self.libs.read().clone()
    }

    /// Number of registered libraries.
    pub fn len(&self) -> usize {
        self.libs.read().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for LibraryMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LibraryMap")
            .field("libraries", &self.libs.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn register_and_find_by_pc() {
        let map = LibraryMap::new();
        map.register("/lib/libfoo.so", 0x1000, 0x100);
        map.register("/lib/libbar.so", 0x2000, 0x100);
        assert_eq!(map.find(0x1050).unwrap().basename(), "libfoo.so");
        assert_eq!(map.find(0x2000).unwrap().basename(), "libbar.so");
        assert!(map.find(0x20ff + 1).is_none());
        assert!(map.find(0xfff).is_none());
    }

    #[test]
    fn python_pc_detection() {
        let map = LibraryMap::new();
        map.register("/usr/lib/libpython3.11.so", 0x7000, 0x1000);
        map.register("/usr/lib/libtorch.so", 0x9000, 0x1000);
        assert!(map.is_python_pc(0x7123));
        assert!(!map.is_python_pc(0x9123));
        assert!(!map.is_python_pc(0x0));
    }

    #[test]
    fn load_callbacks_fire_for_future_loads() {
        let map = LibraryMap::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        map.on_load(move |info| {
            assert!(info.size > 0);
            c.fetch_add(1, Ordering::SeqCst);
        });
        map.register("/lib/a.so", 0x1, 0x10);
        map.register("/lib/b.so", 0x100, 0x10);
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_load_callback_may_subscribe_and_load() {
        // A callback added during a load sees the next load (here one the
        // same callback makes), not the one being delivered.
        let map = LibraryMap::new();
        let (tx, rx) = mpsc::channel();
        let (me, first) = (Arc::downgrade(&map), AtomicBool::new(true));
        map.on_load(move |_info| {
            if first.swap(false, Ordering::SeqCst) {
                let map = me.upgrade().expect("the map outlives its loads");
                let tx = tx.clone();
                map.on_load(move |info| tx.send(info.basename().to_owned()).unwrap());
                map.register("/lib/nested.so", 0x100, 0x10);
            }
        });
        map.register("/lib/a.so", 0x1, 0x10);
        map.register("/lib/c.so", 0x200, 0x10);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), ["nested.so", "c.so"]);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn lookup_by_path_and_basename() {
        let map = LibraryMap::new();
        map.register("/opt/cuda/libcudart.so", 0x5000, 0x500);
        assert!(map.by_path("/opt/cuda/libcudart.so").is_some());
        assert!(map.by_basename("libcudart.so").is_some());
        assert!(map.by_basename("libmissing.so").is_none());
    }
}
