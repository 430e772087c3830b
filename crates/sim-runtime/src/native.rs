//! Simulated native stacks and libunwind-style unwinding.
//!
//! The "native" call path, with C/C++ symbols, is captured in the paper
//! using libunwind, stepping frame by frame (`unw_step`) from the leaf
//! upward. Stepping is the expensive part — the paper's call-path caching
//! optimization exists precisely to bound the number of steps — so the
//! simulated [`Unwinder`] counts every step globally, letting benches and
//! tests quantify the optimization exactly. A profiler's hot path reads
//! the frames it steps over where they are ([`Unwinder::with_tail`]); the
//! copying [`UnwindCursor`] is the step-by-step form.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One simulated native frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeFrameInfo {
    /// Containing library path.
    pub library: Arc<str>,
    /// Program counter (call-site address).
    pub pc: u64,
    /// Resolved symbol name.
    pub symbol: Arc<str>,
}

impl NativeFrameInfo {
    /// Creates a frame description.
    pub fn new(library: &str, pc: u64, symbol: &str) -> Self {
        NativeFrameInfo {
            library: Arc::from(library),
            pc,
            symbol: Arc::from(symbol),
        }
    }
}

/// A per-thread simulated native call stack.
#[derive(Debug, Default)]
pub struct NativeStack {
    frames: Mutex<Vec<NativeFrameInfo>>,
    version: AtomicU64,
}

impl NativeStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a frame (function entry).
    pub fn push(&self, frame: NativeFrameInfo) {
        self.frames.lock().push(frame);
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Pops the innermost frame (function exit).
    pub fn pop(&self) -> Option<NativeFrameInfo> {
        let popped = self.frames.lock().pop();
        if popped.is_some() {
            self.version.fetch_add(1, Ordering::SeqCst);
        }
        popped
    }

    /// Snapshot, root-first.
    pub fn walk(&self) -> Vec<NativeFrameInfo> {
        self.frames.lock().clone()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.frames.lock().len()
    }

    /// Monotonic change counter.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }
}

/// RAII guard popping its native frame on drop.
#[derive(Debug)]
pub struct NativeFrameGuard {
    stack: Arc<NativeStack>,
}

impl NativeFrameGuard {
    /// Pushes `frame` onto `stack`, returning the popping guard.
    pub fn enter(stack: &Arc<NativeStack>, frame: NativeFrameInfo) -> Self {
        stack.push(frame);
        NativeFrameGuard {
            stack: Arc::clone(stack),
        }
    }
}

impl Drop for NativeFrameGuard {
    fn drop(&mut self) {
        self.stack.pop();
    }
}

/// The libunwind analogue: produces step-wise cursors over native stacks
/// and counts total steps taken process-wide.
///
/// # Examples
///
/// ```
/// use sim_runtime::{NativeFrameInfo, NativeStack, Unwinder};
///
/// let stack = NativeStack::new();
/// stack.push(NativeFrameInfo::new("libc.so", 0x10, "start"));
/// stack.push(NativeFrameInfo::new("libtorch.so", 0x20, "launch"));
///
/// let unwinder = Unwinder::new();
/// let mut cursor = unwinder.cursor(&stack);
/// // Leaf-first, like unw_step.
/// assert_eq!(cursor.step().unwrap().symbol.as_ref(), "launch");
/// assert_eq!(cursor.step().unwrap().symbol.as_ref(), "start");
/// assert!(cursor.step().is_none());
/// assert_eq!(unwinder.steps_taken(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Unwinder {
    steps: AtomicU64,
    unwinds: AtomicU64,
}

impl Unwinder {
    /// Creates an unwinder with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins unwinding `stack` from the leaf (`unw_getcontext` +
    /// `unw_init_local`).
    pub fn cursor(&self, stack: &NativeStack) -> UnwindCursor<'_> {
        self.unwinds.fetch_add(1, Ordering::Relaxed);
        UnwindCursor {
            unwinder: self,
            frames: stack.walk(),
        }
    }

    /// Unwinds `stack` from the leaf up to depth `from_depth` and lends
    /// `f` the frames visited, **root-first**, in place: the partial
    /// unwind of the paper's call-path caching (`from_depth` is the depth
    /// recorded at the cached operator; `0` is a full unwind) without a
    /// copy of any frame. Counts one unwind and one step per frame lent,
    /// as a [`cursor`](Self::cursor) stepped that far would. `f` runs
    /// under the stack's lock and must not push or pop it.
    pub fn with_tail<R>(
        &self,
        stack: &NativeStack,
        from_depth: usize,
        f: impl FnOnce(&[NativeFrameInfo]) -> R,
    ) -> R {
        self.unwinds.fetch_add(1, Ordering::Relaxed);
        let frames = stack.frames.lock();
        let tail = frames.get(from_depth..).unwrap_or_default();
        self.steps.fetch_add(tail.len() as u64, Ordering::Relaxed);
        f(tail)
    }

    /// Total `step()` calls ever taken through this unwinder.
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Total cursors created (unwind operations started).
    pub fn unwinds_started(&self) -> u64 {
        self.unwinds.load(Ordering::Relaxed)
    }

    /// Resets the counters (between bench phases).
    pub fn reset_counters(&self) {
        self.steps.store(0, Ordering::Relaxed);
        self.unwinds.store(0, Ordering::Relaxed);
    }
}

/// A step-wise unwind cursor, leaf-first like `unw_step`.
#[derive(Debug)]
pub struct UnwindCursor<'a> {
    unwinder: &'a Unwinder,
    frames: Vec<NativeFrameInfo>,
}

impl UnwindCursor<'_> {
    /// Steps to the next outer frame, returning it; `None` past the root.
    /// Each call increments the unwinder's global step counter.
    pub fn step(&mut self) -> Option<NativeFrameInfo> {
        let frame = self.frames.pop()?;
        self.unwinder.steps.fetch_add(1, Ordering::Relaxed);
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_of(symbols: &[&str]) -> NativeStack {
        let s = NativeStack::new();
        for (i, sym) in symbols.iter().enumerate() {
            s.push(NativeFrameInfo::new("lib.so", 0x100 + i as u64, sym));
        }
        s
    }

    #[test]
    fn with_tail_lends_the_frames_below_a_depth_and_counts_like_a_cursor() {
        let stack = stack_of(&["main", "op_entry", "helper", "launch"]);
        let u = Unwinder::new();
        let symbols = |frames: &[NativeFrameInfo]| -> Vec<String> {
            frames.iter().map(|f| f.symbol.to_string()).collect()
        };
        assert_eq!(u.with_tail(&stack, 2, symbols), ["helper", "launch"]);
        assert_eq!((u.unwinds_started(), u.steps_taken()), (1, 2));
        assert_eq!(u.with_tail(&stack, 0, symbols).len(), 4);
        assert_eq!((u.unwinds_started(), u.steps_taken()), (2, 6));
        // At or past the leaf: an unwind that steps over nothing.
        assert!(u.with_tail(&stack, 4, symbols).is_empty());
        assert!(u.with_tail(&stack, 9, symbols).is_empty());
        assert_eq!((u.unwinds_started(), u.steps_taken()), (4, 6));
    }

    #[test]
    fn guards_pop_on_drop() {
        let s = Arc::new(NativeStack::new());
        {
            let _g = NativeFrameGuard::enter(&s, NativeFrameInfo::new("lib.so", 1, "f"));
            assert_eq!(s.depth(), 1);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn reset_counters_zeroes() {
        let stack = stack_of(&["a"]);
        let u = Unwinder::new();
        u.cursor(&stack).step();
        assert!(u.steps_taken() > 0);
        u.reset_counters();
        assert_eq!(u.steps_taken(), 0);
        assert_eq!(u.unwinds_started(), 0);
    }
}
