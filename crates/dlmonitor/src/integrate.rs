//! The call-path integration algorithm (paper §4.1, "Call Path
//! Integration").
//!
//! DLMonitor "integrates these three call paths into a single
//! comprehensive call path. It traverses the native call path in a
//! bottom-up direction, matching the address of each frame with the
//! recorded addresses of deep learning operators. If a match is found,
//! DLMonitor inserts the operator name under the caller frame. If a
//! frame's address falls within the libpython.so address space, all
//! frames above it are replaced with the Python call path."
//!
//! This module implements that merge as a pure function over path
//! handles (the Python prefix and every operator's context arrive as
//! [`PathHandle`]s; only the freshly unwound native frames are still
//! strings — a slice the caller lends, in the monitor's case the thread's
//! own stack read in place), so it can be tested exhaustively without a
//! live runtime.

use deepcontext_core::{Frame, FrameKey, FrameKind, Interner, PathHandle, PathMemo};
use sim_runtime::NativeFrameInfo;

/// One shadow-stack operator, as captured at operator entry.
#[derive(Debug, Clone)]
pub struct ShadowOp {
    /// The operator's pre-interned [`Frame::Operator`].
    pub frame: Frame,
    /// Native stack depth when the operator was entered — the "memory
    /// location" marker used to place the operator among native frames.
    pub native_depth: usize,
    /// The thread's Python call path at entry (the caching optimisation),
    /// shared with every operator entered at the same
    /// `PythonStack::version`.
    pub python: PathHandle,
    /// `python` extended by every shadow operator up to and including
    /// this one: where a launch under this operator starts from.
    pub path: PathHandle,
}

impl ShadowOp {
    /// Captures an operator entered under `python` below `outer` (the
    /// shadow stack so far, outermost first).
    pub fn enter(
        frame: Frame,
        native_depth: usize,
        python: PathHandle,
        outer: &[ShadowOp],
        memo: &mut PathMemo,
        interner: &Interner,
    ) -> ShadowOp {
        let paths = interner.paths();
        let above = match outer.last() {
            Some(parent) if parent.python == python => parent.path,
            _ => outer
                .iter()
                .fold(python, |path, op| memo.extend_frame(paths, path, &op.frame)),
        };
        ShadowOp {
            path: memo.extend_frame(paths, above, &frame),
            frame,
            native_depth,
            python,
        }
    }
}

/// Merges the per-thread call-path sources into one unified path.
///
/// `python` is the root-side prefix (the root when the source is
/// disabled or the thread has no interpreter stack); `operators` is the
/// shadow stack, outermost first; `native` holds the freshly unwound
/// frames from absolute stack depth `native_base` down to the leaf,
/// root-first (empty when native collection is off), and `is_python_pc`
/// tells whether a native PC lies in libpython. Extensions go through
/// `memo`, so a context this thread has produced before costs one probe
/// per frame below the operators and builds no frame.
///
/// The result is root-first: Python frames, then operators interleaved
/// with the native frames below them, by the recorded native depths.
pub fn integrate_call_path(
    python: PathHandle,
    operators: &[ShadowOp],
    native: &[NativeFrameInfo],
    native_base: usize,
    is_python_pc: impl Fn(u64) -> bool,
    memo: &mut PathMemo,
    interner: &Interner,
) -> PathHandle {
    // Python replaces everything at and above (toward the root) the
    // deepest libpython frame. Without one (e.g. a backward thread) the
    // whole native path is kept.
    let tail_start = native
        .iter()
        .rposition(|f| is_python_pc(f.pc))
        .map_or(0, |idx| idx + 1);

    // When every operator sits above the first native frame kept (or none
    // is kept) the path starts `python ⊕ operators` — which the innermost
    // operator already holds if it was entered under this Python path.
    let leading = if tail_start == native.len() {
        operators.len()
    } else {
        operators
            .iter()
            .take_while(|op| op.native_depth <= native_base + tail_start)
            .count()
    };
    let (mut path, operators) = match operators.last() {
        Some(innermost) if leading == operators.len() && innermost.python == python => {
            (innermost.path, &operators[..0])
        }
        _ => (python, operators),
    };

    let paths = interner.paths();
    let mut ops = operators.iter().peekable();
    for (idx, frame) in native.iter().enumerate().skip(tail_start) {
        while let Some(op) = ops.next_if(|op| op.native_depth <= native_base + idx) {
            path = memo.extend_frame(paths, path, &op.frame);
        }
        let key = FrameKey::Code {
            library: interner.intern_cached(&frame.library),
            pc: frame.pc,
            kind: FrameKind::Native,
        };
        path = memo.extend(paths, path, key, || {
            Frame::native(&frame.library, frame.pc, &frame.symbol, interner)
        });
    }
    // Operators with no native frames below them (native collection off,
    // or the operator entered and no deeper native frame captured yet).
    for op in ops {
        path = memo.extend_frame(paths, path, &op.frame);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{FrameKind, LivePath, OpPhase};

    const LIBPYTHON: &str = "libpython3.11.so";

    fn py(file: &str, line: u32, f: &str, interner: &Interner) -> Frame {
        Frame::python(file, line, f, interner)
    }

    fn native(lib: &str, pc: u64, sym: &str) -> NativeFrameInfo {
        NativeFrameInfo::new(lib, pc, sym)
    }

    /// `(frame, native depth)` pairs entered in order under `python`.
    fn shadow(python: &[Frame], ops: &[(Frame, usize)], interner: &Interner) -> Vec<ShadowOp> {
        let python = interner.paths().intern(python);
        let mut stack: Vec<ShadowOp> = Vec::new();
        for (frame, depth) in ops {
            let op = ShadowOp::enter(
                frame.clone(),
                *depth,
                python,
                &stack,
                &mut PathMemo::default(),
                interner,
            );
            stack.push(op);
        }
        stack
    }

    fn op(name: &str, depth: usize, interner: &Interner) -> (Frame, usize) {
        (Frame::operator(name, interner), depth)
    }

    /// Integrates, from depth `native_base`, with libpython membership
    /// decided by library name.
    fn integrate_from(
        python: &[Frame],
        operators: &[(Frame, usize)],
        native: &[NativeFrameInfo],
        native_base: usize,
        interner: &Interner,
    ) -> Vec<Frame> {
        let is_python = |pc| {
            native
                .iter()
                .any(|f| f.pc == pc && f.library.as_ref() == LIBPYTHON)
        };
        let path = integrate_call_path(
            interner.paths().intern(python),
            &shadow(python, operators, interner),
            native,
            native_base,
            is_python,
            &mut PathMemo::default(),
            interner,
        );
        LivePath::new(path, None).frames(interner)
    }

    fn integrate(
        python: &[Frame],
        operators: &[(Frame, usize)],
        native: &[NativeFrameInfo],
        interner: &Interner,
    ) -> Vec<Frame> {
        integrate_from(python, operators, native, 0, interner)
    }

    fn labels(path: &[Frame], interner: &Interner) -> Vec<String> {
        path.iter().map(|f| f.short_label(interner)).collect()
    }

    fn kinds(path: &[Frame]) -> Vec<FrameKind> {
        path.iter().map(|f| f.kind()).collect()
    }

    #[test]
    fn python_replaces_frames_at_and_above_libpython() {
        let interner = Interner::new();
        let path = integrate(
            &[
                py("train.py", 3, "main", &interner),
                py("model.py", 9, "forward", &interner),
            ],
            &[op("aten::conv2d", 3, &interner)],
            &[
                native("libc.so", 0x1, "__libc_start_main"),
                native(LIBPYTHON, 0x2, "_PyEval_EvalFrameDefault"),
                native(LIBPYTHON, 0x3, "_PyEval_EvalFrameDefault"),
                native("libtorch_cpu.so", 0x4, "c10::Dispatcher::call"),
                native("libtorch_cpu.so", 0x5, "at::native::conv2d"),
            ],
            &interner,
        );
        assert_eq!(
            labels(&path, &interner),
            vec![
                "train.py:3",
                "model.py:9",
                "aten::conv2d",
                "c10::Dispatcher::call",
                "at::native::conv2d"
            ]
        );
        assert_eq!(
            kinds(&path),
            vec![
                FrameKind::Python,
                FrameKind::Python,
                FrameKind::Operator,
                FrameKind::Native,
                FrameKind::Native
            ]
        );
    }

    #[test]
    fn without_libpython_native_path_is_kept_whole() {
        // A backward thread: no Python frames anywhere.
        let interner = Interner::new();
        let path = integrate(
            &[],
            &[(
                Frame::operator_with("aten::index", OpPhase::Backward, Some(7), &interner),
                1,
            )],
            &[
                native(
                    "libtorch_cpu.so",
                    0x10,
                    "torch::autograd::Engine::thread_main",
                ),
                native("libtorch_cpu.so", 0x11, "c10::Dispatcher::call"),
            ],
            &interner,
        );
        assert_eq!(
            labels(&path, &interner),
            vec![
                "torch::autograd::Engine::thread_main",
                "aten::index~bwd",
                "c10::Dispatcher::call"
            ]
        );
    }

    #[test]
    fn nested_operators_interleave_by_depth() {
        let interner = Interner::new();
        let path = integrate(
            &[py("m.py", 1, "f", &interner)],
            &[
                op("aten::linear", 1, &interner),
                op("aten::matmul", 2, &interner),
            ],
            &[
                native(LIBPYTHON, 0x1, "_PyEval_EvalFrameDefault"),
                native("libtorch_cpu.so", 0x2, "at::native::linear"),
                native("libtorch_cpu.so", 0x3, "at::native::matmul"),
            ],
            &interner,
        );
        assert_eq!(
            labels(&path, &interner),
            vec![
                "m.py:1",
                "aten::linear",
                "at::native::linear",
                "aten::matmul",
                "at::native::matmul"
            ]
        );
    }

    #[test]
    fn partial_unwind_places_operators_by_absolute_depth() {
        // Only the frames from depth 2 down were unwound (the cached
        // mode's partial unwind): depths are still absolute.
        let interner = Interner::new();
        let out = integrate_from(
            &[py("m.py", 1, "f", &interner)],
            &[
                op("aten::linear", 1, &interner),
                op("aten::matmul", 3, &interner),
            ],
            &[
                native("libtorch_cpu.so", 0x3, "at::native::linear"),
                native("libtorch_cpu.so", 0x4, "at::native::matmul"),
            ],
            2,
            &interner,
        );
        assert_eq!(
            labels(&out, &interner),
            vec![
                "m.py:1",
                "aten::linear",
                "at::native::linear",
                "aten::matmul",
                "at::native::matmul"
            ]
        );
    }

    #[test]
    fn native_source_disabled_appends_operators_after_python() {
        let interner = Interner::new();
        let path = integrate(
            &[py("m.py", 1, "f", &interner)],
            &[op("aten::relu", 5, &interner)],
            &[],
            &interner,
        );
        assert_eq!(kinds(&path), vec![FrameKind::Python, FrameKind::Operator]);
    }

    #[test]
    fn an_operator_entered_under_another_python_path_is_not_a_shortcut() {
        // The innermost operator's cached context starts from the Python
        // path at *its* entry; a launch under a different prefix (the
        // forward context a backward operator recovers) must rebuild.
        let interner = Interner::new();
        let entered = [py("m.py", 1, "f", &interner)];
        let recovered = [py("train.py", 9, "step", &interner)];
        let path = integrate_call_path(
            interner.paths().intern(&recovered),
            &shadow(&entered, &[op("aten::relu", 0, &interner)], &interner),
            &[],
            0,
            |_| false,
            &mut PathMemo::default(),
            &interner,
        );
        assert_eq!(
            labels(&LivePath::new(path, None).frames(&interner), &interner),
            vec!["train.py:9", "aten::relu"]
        );
    }

    #[test]
    fn empty_input_yields_empty_path() {
        let interner = Interner::new();
        assert!(integrate(&[], &[], &[], &interner).is_empty());
    }
}
