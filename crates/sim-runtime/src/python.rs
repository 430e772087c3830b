//! Simulated CPython interpreter frames.
//!
//! DeepContext obtains the Python call path "using CPython's
//! PyFrame-related APIs" (paper §4.1). The simulation keeps an explicit
//! per-thread frame stack that workload code pushes/pops via RAII guards,
//! and exposes the same bottom-up walk a profiler performs with
//! `PyEval_GetFrame` / `PyFrame_GetBack`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One simulated Python frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyFrameInfo {
    /// Source file, e.g. `train.py`.
    pub file: Arc<str>,
    /// Line number currently executing in this frame.
    pub line: u32,
    /// Function name.
    pub function: Arc<str>,
}

impl PyFrameInfo {
    /// Creates a frame description.
    pub fn new(file: &str, line: u32, function: &str) -> Self {
        PyFrameInfo {
            file: Arc::from(file),
            line,
            function: Arc::from(function),
        }
    }
}

/// A per-thread simulated interpreter stack.
///
/// The `version` counter increments on every push/pop so call-path caches
/// can cheaply detect staleness.
#[derive(Debug, Default)]
pub struct PythonStack {
    frames: Mutex<Vec<PyFrameInfo>>,
    version: AtomicU64,
}

impl PythonStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a frame (function call).
    pub fn push(&self, frame: PyFrameInfo) {
        self.frames.lock().push(frame);
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Pops the innermost frame (function return).
    pub fn pop(&self) -> Option<PyFrameInfo> {
        let popped = self.frames.lock().pop();
        if popped.is_some() {
            self.version.fetch_add(1, Ordering::SeqCst);
        }
        popped
    }

    /// Updates the line number of the innermost frame (the interpreter
    /// advancing within a function body).
    pub fn set_line(&self, line: u32) {
        if let Some(top) = self.frames.lock().last_mut() {
            top.line = line;
            self.version.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Snapshot of the stack, **root-first** (outermost caller first),
    /// which is the order the unified call path wants.
    pub fn walk(&self) -> Vec<PyFrameInfo> {
        self.frames.lock().clone()
    }

    /// Runs `f` over the stack, root-first, without copying it (the
    /// non-allocating form of [`walk`](Self::walk)). The stack is locked
    /// for the duration of `f`.
    pub fn with_frames<R>(&self, f: impl FnOnce(&[PyFrameInfo]) -> R) -> R {
        f(&self.frames.lock())
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.frames.lock().len()
    }

    /// Monotonic change counter (push/pop/set_line all bump it).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Whether no Python code is on the stack.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }
}

/// RAII guard that pops its pushed Python frame on drop.
///
/// # Examples
///
/// ```
/// use sim_runtime::{PyFrameGuard, PyFrameInfo, PythonStack};
/// use std::sync::Arc;
///
/// let stack = Arc::new(PythonStack::new());
/// {
///     let _frame = PyFrameGuard::enter(&stack, PyFrameInfo::new("train.py", 3, "main"));
///     assert_eq!(stack.depth(), 1);
/// }
/// assert_eq!(stack.depth(), 0);
/// ```
#[derive(Debug)]
pub struct PyFrameGuard {
    stack: Arc<PythonStack>,
}

impl PyFrameGuard {
    /// Pushes `frame` onto `stack`, returning the guard that pops it.
    pub fn enter(stack: &Arc<PythonStack>, frame: PyFrameInfo) -> Self {
        stack.push(frame);
        PyFrameGuard {
            stack: Arc::clone(stack),
        }
    }
}

impl Drop for PyFrameGuard {
    fn drop(&mut self) {
        self.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_root_first() {
        let s = PythonStack::new();
        s.push(PyFrameInfo::new("main.py", 1, "main"));
        s.push(PyFrameInfo::new("model.py", 20, "forward"));
        let frames = s.walk();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].function.as_ref(), "main");
        assert_eq!(frames[1].function.as_ref(), "forward");
    }

    #[test]
    fn version_changes_on_mutation() {
        let s = PythonStack::new();
        let v0 = s.version();
        s.push(PyFrameInfo::new("a.py", 1, "f"));
        let v1 = s.version();
        assert_ne!(v0, v1);
        s.set_line(2);
        let v2 = s.version();
        assert_ne!(v1, v2);
        s.pop();
        assert_ne!(v2, s.version());
        // Popping empty stack does not bump.
        let v3 = s.version();
        assert!(s.pop().is_none());
        assert_eq!(v3, s.version());
    }

    #[test]
    fn set_line_updates_top_frame() {
        let s = PythonStack::new();
        s.push(PyFrameInfo::new("a.py", 1, "f"));
        s.set_line(99);
        assert_eq!(s.walk()[0].line, 99);
    }

    #[test]
    fn guards_nest_correctly() {
        let s = Arc::new(PythonStack::new());
        let g1 = PyFrameGuard::enter(&s, PyFrameInfo::new("a.py", 1, "outer"));
        {
            let _g2 = PyFrameGuard::enter(&s, PyFrameInfo::new("b.py", 2, "inner"));
            assert_eq!(s.depth(), 2);
        }
        assert_eq!(s.depth(), 1);
        assert_eq!(s.walk()[0].function.as_ref(), "outer");
        drop(g1);
        assert!(s.is_empty());
    }
}
