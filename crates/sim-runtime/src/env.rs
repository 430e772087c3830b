//! The assembled simulated process environment.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::addr::AddressSpace;
use crate::cpu::{CpuSamplerRegistry, CpuWork};
use crate::library::{LibraryInfo, LibraryMap};
use crate::native::Unwinder;
use crate::symbols::{FunctionInfo, LineMap, SymbolTable};
use crate::thread::{ThreadCtx, ThreadRegistry};
use deepcontext_core::VirtualClock;

/// Everything a simulated process provides to frameworks and profilers:
/// virtual time, loaded libraries, symbols, threads, the unwinder and the
/// CPU sampler registry. Cheap to clone (all members are shared handles).
///
/// # Examples
///
/// ```
/// use sim_runtime::RuntimeEnv;
/// use deepcontext_core::ThreadRole;
///
/// let env = RuntimeEnv::new();
/// let lib = env.load_library("libtorch_cpu.so", 0x10_0000);
/// let f = env.define_function(&lib, "at::native::add", 0x40, Some(("BinaryOps.cpp", 120)));
/// assert_eq!(env.symbols().resolve(f.addr).unwrap().name.as_ref(), "at::native::add");
///
/// let thread = env.threads().spawn(ThreadRole::Main);
/// assert_eq!(thread.tid(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeEnv {
    clock: VirtualClock,
    addr_space: Arc<AddressSpace>,
    libraries: Arc<LibraryMap>,
    symbols: Arc<SymbolTable>,
    lines: Arc<LineMap>,
    threads: Arc<ThreadRegistry>,
    unwinder: Arc<Unwinder>,
    samplers: Arc<CpuSamplerRegistry>,
    lib_cursor: Arc<Mutex<HashMap<String, u64>>>,
}

impl RuntimeEnv {
    /// Creates a fresh simulated process.
    pub fn new() -> Self {
        RuntimeEnv {
            clock: VirtualClock::new(),
            addr_space: Arc::new(AddressSpace::new()),
            libraries: LibraryMap::new(),
            symbols: SymbolTable::new(),
            lines: LineMap::new(),
            threads: ThreadRegistry::new(),
            unwinder: Arc::new(Unwinder::new()),
            samplers: CpuSamplerRegistry::new(),
            lib_cursor: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The process virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The loaded-library map (`LD_AUDIT` substitute).
    pub fn libraries(&self) -> &Arc<LibraryMap> {
        &self.libraries
    }

    /// The function symbol table.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }

    /// The DWARF-like line map.
    pub fn lines(&self) -> &Arc<LineMap> {
        &self.lines
    }

    /// The simulated thread registry.
    pub fn threads(&self) -> &Arc<ThreadRegistry> {
        &self.threads
    }

    /// The libunwind substitute.
    pub fn unwinder(&self) -> &Arc<Unwinder> {
        &self.unwinder
    }

    /// The CPU sampler registry (`sigaction`/perf substitute).
    pub fn samplers(&self) -> &Arc<CpuSamplerRegistry> {
        &self.samplers
    }

    /// Loads a simulated library, allocating its address range.
    pub fn load_library(&self, path: &str, size: u64) -> LibraryInfo {
        let base = self.addr_space.alloc(size);
        self.libraries.register(path, base, size)
    }

    /// Defines a function inside `lib`, allocating a code range and
    /// registering symbol (and optionally line) information.
    ///
    /// # Panics
    ///
    /// Panics if the library's code space is exhausted.
    pub fn define_function(
        &self,
        lib: &LibraryInfo,
        name: &str,
        size: u64,
        source: Option<(&str, u32)>,
    ) -> FunctionInfo {
        let mut cursors = self.lib_cursor.lock();
        let cursor = cursors.entry(lib.path.to_string()).or_insert(0);
        assert!(
            *cursor + size <= lib.size,
            "library {} out of code space",
            lib.path
        );
        let addr = lib.base + *cursor;
        *cursor += size;
        drop(cursors);
        if let Some((file, line)) = source {
            self.lines.add(addr, size, file, line);
        }
        self.symbols.register(name, &lib.path, addr, size)
    }

    /// Performs a chunk of CPU work on `thread`: advances the virtual
    /// clock, accumulates per-thread counters, and fires interval
    /// samplers.
    pub fn do_cpu_work(&self, thread: &Arc<ThreadCtx>, work: CpuWork) {
        self.clock.advance(work.time);
        thread.account(&work);
        self.samplers.on_work(thread, &work);
    }

    /// Accounts CPU work on `thread` (counters + samplers) **without**
    /// advancing the virtual clock. Used for worker pools running in
    /// parallel, where the caller advances the clock once by the
    /// wall-clock span of the whole pool.
    pub fn account_cpu_work(&self, thread: &Arc<ThreadCtx>, work: CpuWork) {
        thread.account(&work);
        self.samplers.on_work(thread, &work);
    }
}

impl Default for RuntimeEnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{SampleEvent, SampleKind};
    use deepcontext_core::{ThreadRole, TimeNs};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn load_library_registers_range() {
        let env = RuntimeEnv::new();
        let lib = env.load_library("libcudart.so", 0x1000);
        assert!(env.libraries().find(lib.base).is_some());
        assert_eq!(
            env.libraries().find(lib.base).unwrap().basename(),
            "libcudart.so"
        );
    }

    #[test]
    fn define_function_allocates_disjoint_ranges() {
        let env = RuntimeEnv::new();
        let lib = env.load_library("libtorch.so", 0x1000);
        let f = env.define_function(&lib, "f", 0x10, Some(("f.cpp", 1)));
        let g = env.define_function(&lib, "g", 0x10, None);
        assert!(f.addr >= lib.base && g.addr >= f.addr + 0x10);
        assert_eq!(env.symbols().resolve(g.addr).unwrap().name.as_ref(), "g");
        assert_eq!(env.lines().resolve(f.addr).unwrap().0.as_ref(), "f.cpp");
        assert!(env.lines().resolve(g.addr).is_none());
    }

    #[test]
    #[should_panic(expected = "out of code space")]
    fn define_function_past_capacity_panics() {
        let env = RuntimeEnv::new();
        let lib = env.load_library("tiny.so", 0x10);
        env.define_function(&lib, "too_big", 0x20, None);
    }

    #[test]
    fn do_cpu_work_advances_clock_counters_and_samplers() {
        let env = RuntimeEnv::new();
        let t = env.threads().spawn(ThreadRole::Main);
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        env.samplers()
            .register(SampleKind::CpuTime, 1_000, move |_t, e: SampleEvent| {
                f.fetch_add(e.count, Ordering::SeqCst);
            });
        env.do_cpu_work(&t, CpuWork::compute(TimeNs(2_500)));
        assert_eq!(env.clock().now(), TimeNs(2_500));
        assert_eq!(t.cpu_time(), TimeNs(2_500));
        assert!(t.instructions() > 0);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn clones_share_state() {
        let env = RuntimeEnv::new();
        let env2 = env.clone();
        let lib = env.load_library("shared.so", 0x100);
        assert_eq!(env2.libraries().find(lib.base), Some(lib));
        let t = env.threads().spawn(ThreadRole::Main);
        assert!(env2.threads().get(t.tid()).is_some());
    }
}
