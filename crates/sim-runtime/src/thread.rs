//! Simulated OS threads.
//!
//! Each simulated thread owns a Python stack and a native stack (the two
//! sources DLMonitor unwinds), plus CPU-time and hardware-counter
//! accounting. A [`ThreadRegistry`] tracks all threads of the simulated
//! process and binds one as "current" per real OS thread — the analogue of
//! `gettid()` + thread-local state. The eager framework's backward thread
//! is a *real* `std::thread` bound to its own [`ThreadCtx`], faithfully
//! reproducing the paper's lost-context problem.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::cpu::CpuWork;
use crate::native::NativeStack;
use crate::python::PythonStack;
use deepcontext_core::{ThreadRole, TimeNs};

/// State of one simulated thread.
#[derive(Debug)]
pub struct ThreadCtx {
    tid: u64,
    role: ThreadRole,
    python: Arc<PythonStack>,
    native: Arc<NativeStack>,
    cpu_time_ns: AtomicU64,
    instructions: AtomicU64,
    cache_misses: AtomicU64,
    branch_misses: AtomicU64,
}

impl ThreadCtx {
    fn new(tid: u64, role: ThreadRole) -> Self {
        ThreadCtx {
            tid,
            role,
            python: Arc::new(PythonStack::new()),
            native: Arc::new(NativeStack::new()),
            cpu_time_ns: AtomicU64::new(0),
            instructions: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            branch_misses: AtomicU64::new(0),
        }
    }

    /// Simulated thread id.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The thread's role.
    pub fn role(&self) -> ThreadRole {
        self.role
    }

    /// The thread's Python interpreter stack.
    pub fn python(&self) -> &Arc<PythonStack> {
        &self.python
    }

    /// The thread's native stack.
    pub fn native(&self) -> &Arc<NativeStack> {
        &self.native
    }

    /// Accumulated CPU time.
    pub fn cpu_time(&self) -> TimeNs {
        TimeNs(self.cpu_time_ns.load(Ordering::SeqCst))
    }

    /// Accumulated retired instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions.load(Ordering::SeqCst)
    }

    /// Accumulated cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::SeqCst)
    }

    /// Accumulated branch misses.
    pub fn branch_misses(&self) -> u64 {
        self.branch_misses.load(Ordering::SeqCst)
    }

    /// Adds a chunk of work to the counters (called by
    /// [`RuntimeEnv::do_cpu_work`](crate::RuntimeEnv::do_cpu_work)).
    pub(crate) fn account(&self, work: &CpuWork) {
        self.cpu_time_ns
            .fetch_add(work.time.as_nanos(), Ordering::SeqCst);
        self.instructions
            .fetch_add(work.instructions, Ordering::SeqCst);
        self.cache_misses
            .fetch_add(work.cache_misses, Ordering::SeqCst);
        self.branch_misses
            .fetch_add(work.branch_misses, Ordering::SeqCst);
    }
}

/// A binding sits behind an `Rc` so [`ThreadRegistry::with_current`] can
/// keep it alive for a call without touching the shared (atomic) count:
/// the second allocation, once per `bind_current`, is the point.
#[allow(clippy::redundant_allocation)]
type Binding = Rc<Arc<ThreadCtx>>;

thread_local! {
    static CURRENT: RefCell<Option<Binding>> = const { RefCell::new(None) };
}

/// Registry of all simulated threads in a process.
#[derive(Default)]
pub struct ThreadRegistry {
    threads: RwLock<HashMap<u64, Arc<ThreadCtx>>>,
    next_tid: AtomicU64,
}

impl ThreadRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Creates a new simulated thread with the given role.
    pub fn spawn(&self, role: ThreadRole) -> Arc<ThreadCtx> {
        let tid = self.next_tid.fetch_add(1, Ordering::SeqCst) + 1;
        let ctx = Arc::new(ThreadCtx::new(tid, role));
        self.threads.write().insert(tid, Arc::clone(&ctx));
        ctx
    }

    /// Looks up a thread by id.
    pub fn get(&self, tid: u64) -> Option<Arc<ThreadCtx>> {
        self.threads.read().get(&tid).cloned()
    }

    /// All threads, in tid order.
    pub fn snapshot(&self) -> Vec<Arc<ThreadCtx>> {
        let mut v: Vec<_> = self.threads.read().values().cloned().collect();
        v.sort_by_key(|t| t.tid());
        v
    }

    /// Number of simulated threads.
    pub fn len(&self) -> usize {
        self.threads.read().len()
    }

    /// Whether no threads exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Binds `ctx` as the current simulated thread for this real OS
    /// thread, returning a guard that restores the previous binding.
    pub fn bind_current(ctx: &Arc<ThreadCtx>) -> CurrentThreadGuard {
        let previous = CURRENT.with(|c| c.replace(Some(Rc::new(Arc::clone(ctx)))));
        CurrentThreadGuard { previous }
    }

    /// The simulated thread bound to this real OS thread, if any.
    pub fn current() -> Option<Arc<ThreadCtx>> {
        CURRENT.with(|c| c.borrow().as_deref().cloned())
    }

    /// Runs `f` on the simulated thread bound to this real OS thread
    /// without taking a shared reference count: the hot-path form of
    /// [`current`](Self::current). The binding is not borrowed while `f`
    /// runs, so `f` may call `current` or `bind_current` itself; it keeps
    /// seeing the thread that was bound when it was called.
    pub fn with_current<R>(f: impl FnOnce(Option<&ThreadCtx>) -> R) -> R {
        let bound = CURRENT.with(|c| c.borrow().clone());
        f(bound.as_deref().map(|ctx| &**ctx))
    }
}

impl std::fmt::Debug for ThreadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRegistry")
            .field("threads", &self.len())
            .finish()
    }
}

/// Guard restoring the previous "current thread" binding on drop.
#[derive(Debug)]
pub struct CurrentThreadGuard {
    previous: Option<Binding>,
}

impl Drop for CurrentThreadGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_unique_tids() {
        let reg = ThreadRegistry::new();
        let a = reg.spawn(ThreadRole::Main);
        let b = reg.spawn(ThreadRole::Backward);
        assert_ne!(a.tid(), b.tid());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a.tid()).unwrap().role(), ThreadRole::Main);
        assert_eq!(reg.get(b.tid()).unwrap().role(), ThreadRole::Backward);
    }

    #[test]
    fn account_accumulates() {
        let reg = ThreadRegistry::new();
        let t = reg.spawn(ThreadRole::Main);
        t.account(&CpuWork {
            time: TimeNs(100),
            instructions: 300,
            cache_misses: 2,
            branch_misses: 1,
        });
        t.account(&CpuWork {
            time: TimeNs(50),
            instructions: 150,
            cache_misses: 1,
            branch_misses: 0,
        });
        assert_eq!(t.cpu_time(), TimeNs(150));
        assert_eq!(t.instructions(), 450);
        assert_eq!(t.cache_misses(), 3);
        assert_eq!(t.branch_misses(), 1);
    }

    #[test]
    fn bind_current_is_scoped_and_restores() {
        let reg = ThreadRegistry::new();
        let a = reg.spawn(ThreadRole::Main);
        let b = reg.spawn(ThreadRole::Worker);
        assert!(ThreadRegistry::current().is_none());
        {
            let _ga = ThreadRegistry::bind_current(&a);
            assert_eq!(ThreadRegistry::current().unwrap().tid(), a.tid());
            {
                let _gb = ThreadRegistry::bind_current(&b);
                assert_eq!(ThreadRegistry::current().unwrap().tid(), b.tid());
            }
            assert_eq!(ThreadRegistry::current().unwrap().tid(), a.tid());
        }
        assert!(ThreadRegistry::current().is_none());
    }

    #[test]
    fn with_current_lends_the_binding_and_allows_rebinding_inside() {
        let reg = ThreadRegistry::new();
        let a = reg.spawn(ThreadRole::Main);
        let b = reg.spawn(ThreadRole::Worker);
        ThreadRegistry::with_current(|t| assert!(t.is_none()));
        let _ga = ThreadRegistry::bind_current(&a);
        let shared = Arc::strong_count(&a);
        ThreadRegistry::with_current(|t| {
            assert_eq!(t.unwrap().tid(), a.tid());
            assert_eq!(Arc::strong_count(&a), shared, "no shared refcount taken");
            let _gb = ThreadRegistry::bind_current(&b);
            assert_eq!(ThreadRegistry::current().unwrap().tid(), b.tid());
            assert_eq!(t.unwrap().tid(), a.tid());
        });
        assert_eq!(ThreadRegistry::current().unwrap().tid(), a.tid());
    }

    #[test]
    fn bindings_are_per_real_thread() {
        let reg = ThreadRegistry::new();
        let main_ctx = reg.spawn(ThreadRole::Main);
        let _g = ThreadRegistry::bind_current(&main_ctx);
        let reg2 = Arc::clone(&reg);
        let handle = std::thread::spawn(move || {
            // Fresh OS thread: no binding inherited.
            assert!(ThreadRegistry::current().is_none());
            let bw = reg2.spawn(ThreadRole::Backward);
            let _g = ThreadRegistry::bind_current(&bw);
            ThreadRegistry::current().unwrap().tid()
        });
        let bw_tid = handle.join().unwrap();
        assert_ne!(bw_tid, main_ctx.tid());
        assert_eq!(ThreadRegistry::current().unwrap().tid(), main_ctx.tid());
    }

    #[test]
    fn snapshot_is_tid_ordered() {
        let reg = ThreadRegistry::new();
        for _ in 0..5 {
            reg.spawn(ThreadRole::Worker);
        }
        let tids: Vec<_> = reg.snapshot().iter().map(|t| t.tid()).collect();
        let mut sorted = tids.clone();
        sorted.sort();
        assert_eq!(tids, sorted);
    }
}
