//! Simulated native stacks and libunwind-style unwinding.
//!
//! The "native" call path, with C/C++ symbols, is captured in the paper
//! using libunwind, stepping frame by frame (`unw_step`) from the leaf
//! upward. Stepping is the expensive part — the paper's call-path caching
//! optimization exists precisely to bound the number of steps — so the
//! simulated [`Unwinder`] counts every step globally, letting benches and
//! tests quantify the optimization exactly. A profiler's hot path reads
//! the frames it steps over where they are ([`Unwinder::with_tail`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
///
/// The frames sit under a lock, which [`push`](Self::push),
/// [`pop`](Self::pop) and [`Unwinder::with_tail`] take; the depth is
/// kept beside them, written under that lock, so [`depth`](Self::depth)
/// is one load.
#[derive(Debug, Default)]
pub struct NativeStack {
    frames: Mutex<Vec<NativeFrameInfo>>,
    /// `frames.len()`, stored after every push and pop.
    depth: AtomicUsize,
}

impl NativeStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a frame (function entry).
    pub fn push(&self, frame: NativeFrameInfo) {
        let mut frames = self.frames.lock();
        frames.push(frame);
        self.depth.store(frames.len(), Ordering::Release);
    }

    /// Pops the innermost frame (function exit).
    pub fn pop(&self) -> Option<NativeFrameInfo> {
        let mut frames = self.frames.lock();
        let popped = frames.pop();
        self.depth.store(frames.len(), Ordering::Release);
        popped
    }

    /// Current depth: one load, no lock. Exact on the thread that pushes
    /// and pops; another thread sees the depth of the last push or pop it
    /// is ordered after.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
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

/// The libunwind analogue: unwinds native stacks and counts the steps
/// taken process-wide.
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
/// // The frames below depth 1, root-first: one step each.
/// let symbols = unwinder.with_tail(&stack, 1, |tail| tail[0].symbol.to_string());
/// assert_eq!(symbols, "launch");
/// assert_eq!(unwinder.steps_taken(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Unwinder {
    steps: AtomicU64,
}

impl Unwinder {
    /// Creates an unwinder with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unwinds `stack` from the leaf up to depth `from_depth` and lends
    /// `f` the frames visited, **root-first**, in place: the partial
    /// unwind of the paper's call-path caching (`from_depth` is the depth
    /// recorded at the cached operator; `0` is a full unwind) without a
    /// copy of any frame. Counts one step per frame lent, as
    /// `unw_step` would. `f` runs under the stack's lock and must not
    /// push or pop it; [`NativeStack::depth`] takes no lock and stays
    /// readable meanwhile. The one lock per unwind is the stack's own,
    /// which only its thread's pushes and pops contend for.
    pub fn with_tail<R>(
        &self,
        stack: &NativeStack,
        from_depth: usize,
        f: impl FnOnce(&[NativeFrameInfo]) -> R,
    ) -> R {
        let frames = stack.frames.lock();
        let tail = frames.get(from_depth..).unwrap_or_default();
        self.steps.fetch_add(tail.len() as u64, Ordering::Relaxed);
        f(tail)
    }

    /// Total frames ever stepped over through this unwinder.
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
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
        assert_eq!(u.steps_taken(), 2);
        assert_eq!(u.with_tail(&stack, 0, symbols).len(), 4);
        assert_eq!(u.steps_taken(), 6);
        // At or past the leaf: an unwind that steps over nothing.
        assert!(u.with_tail(&stack, 4, symbols).is_empty());
        assert!(u.with_tail(&stack, 9, symbols).is_empty());
        assert_eq!(u.steps_taken(), 6);
    }

    #[test]
    fn guards_pop_on_drop() {
        let s = Arc::new(NativeStack::new());
        {
            let _g = NativeFrameGuard::enter(&s, NativeFrameInfo::new("lib.so", 1, "f"));
            assert_eq!(s.depth(), 1);
        }
        assert_eq!(s.depth(), 0);
    }
}
