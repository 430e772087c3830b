//! Simulated Python execution scopes.
//!
//! Workload "model code" is Rust, but it executes as if run by CPython:
//! entering a [`PyScope`] pushes a simulated interpreter frame *and* the
//! corresponding `_PyEval_EvalFrameDefault` native frame inside
//! `libpython.so` — the marker DLMonitor's integration algorithm uses to
//! cut over from the native call path to the Python call path (paper
//! §4.1, "Call Path Integration").

use std::sync::Arc;

use sim_runtime::{
    LibraryInfo, NativeFrameGuard, NativeFrameInfo, PyFrameGuard, PyFrameInfo, RuntimeEnv,
    ThreadCtx,
};

/// The simulated CPython runtime: owns `libpython.so` and its interpreter
/// entry symbol.
#[derive(Debug)]
pub struct PythonSim {
    lib: LibraryInfo,
    eval_pc: u64,
}

impl PythonSim {
    /// Loads `libpython3.11.so` into the environment and registers the
    /// frame-evaluation symbol.
    pub fn new(env: &RuntimeEnv) -> Self {
        let lib = env.load_library("/usr/lib/libpython3.11.so", 0x40_0000);
        let eval = env.define_function(&lib, "_PyEval_EvalFrameDefault", 0x4000, None);
        PythonSim {
            lib,
            eval_pc: eval.addr + 0x100,
        }
    }

    /// Enters a Python function on `thread`, pushing both the interpreter
    /// frame and the native eval frame. Dropping the returned scope exits
    /// the function.
    pub fn frame(&self, thread: &Arc<ThreadCtx>, file: &str, line: u32, function: &str) -> PyScope {
        let py = PyFrameGuard::enter(thread.python(), PyFrameInfo::new(file, line, function));
        let native = NativeFrameGuard::enter(
            thread.native(),
            NativeFrameInfo::new(&self.lib.path, self.eval_pc, "_PyEval_EvalFrameDefault"),
        );
        PyScope {
            _py: py,
            _native: native,
        }
    }
}

/// RAII scope representing one simulated Python call frame.
#[derive(Debug)]
pub struct PyScope {
    _py: PyFrameGuard,
    _native: NativeFrameGuard,
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::ThreadRole;

    #[test]
    fn frame_pushes_python_and_native_eval_frames() {
        let env = RuntimeEnv::new();
        let sim = PythonSim::new(&env);
        let t = env.threads().spawn(ThreadRole::Main);
        {
            let _main = sim.frame(&t, "train.py", 10, "main");
            let _inner = sim.frame(&t, "model.py", 42, "forward");
            assert_eq!(t.python().depth(), 2);
            assert_eq!(t.native().depth(), 2);
            let native = env.unwinder().with_tail(t.native(), 0, <[_]>::to_vec);
            assert!(env.libraries().is_python_pc(native[0].pc));
            assert_eq!(native[0].symbol.as_ref(), "_PyEval_EvalFrameDefault");
            let py = t.python().walk();
            assert_eq!(py[1].function.as_ref(), "forward");
        }
        assert!(t.python().is_empty());
        assert_eq!(t.native().depth(), 0);
    }

    #[test]
    fn eval_pc_is_inside_libpython() {
        let env = RuntimeEnv::new();
        let sim = PythonSim::new(&env);
        assert!(sim.lib.contains(sim.eval_pc));
        assert!(env.libraries().is_python_pc(sim.eval_pc));
    }
}
