//! The eager (PyTorch-like) engine.
//!
//! Operators execute immediately through the shared dispatcher. With grad
//! enabled, every differentiable operator is taped with a fresh
//! **sequence id**; `backward()` replays the tape in reverse **on a
//! dedicated real OS thread** whose simulated thread context has no
//! Python frames — exactly the situation that makes backward kernels
//! unattributable without DeepContext's sequence-id association
//! (paper §4.1 "Forward and backward operator association", Figure 7).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use deepcontext_core::{OpPhase, ThreadRole};
use sim_runtime::{NativeFrameGuard, NativeFrameInfo, ThreadRegistry};

use crate::callbacks::MemEvent;
use crate::core::FrameworkCore;
use crate::error::FrameworkError;
use crate::ops::{backward_ops, Op};
use crate::tensor::TensorMeta;

/// One taped forward operator.
#[derive(Debug, Clone)]
struct TapeEntry {
    op: Op,
    inputs: Vec<TensorMeta>,
    output: TensorMeta,
    seq_id: u64,
}

enum BackwardMsg {
    Run(Vec<TapeEntry>, Sender<Result<(), FrameworkError>>),
    Stop,
}

struct BackwardWorker {
    sender: Sender<BackwardMsg>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// The eager execution engine.
///
/// # Examples
///
/// ```
/// use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
/// use deepcontext_core::{ThreadRole, TimeNs};
/// use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
/// use sim_runtime::{RuntimeEnv, ThreadRegistry};
///
/// let env = RuntimeEnv::new();
/// let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
/// let core = FrameworkCore::new(env.clone(), gpu, DeviceId(0),
///     "/lib/libtorch_cpu.so", "libtorch_cuda.so", TimeNs(3_000));
/// let engine = EagerEngine::new(core);
///
/// let main = env.threads().spawn(ThreadRole::Main);
/// let _bind = ThreadRegistry::bind_current(&main);
///
/// engine.set_grad_enabled(true);
/// let x = TensorMeta::new([128, 64]);
/// let w = TensorMeta::new([64, 32]);
/// let y = engine.op(Op::new(OpKind::MatMul), &[x, w])?;
/// assert_eq!(y.shape, vec![128, 32]);
/// engine.backward()?;
/// # Ok::<(), dl_framework::FrameworkError>(())
/// ```
pub struct EagerEngine {
    core: Arc<FrameworkCore>,
    grad_enabled: AtomicBool,
    seq: AtomicU64,
    tape: Mutex<Vec<TapeEntry>>,
    backward: Mutex<Option<BackwardWorker>>,
}

impl EagerEngine {
    /// Creates an eager engine over the shared core.
    pub fn new(core: Arc<FrameworkCore>) -> Arc<Self> {
        Arc::new(EagerEngine {
            core,
            grad_enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            tape: Mutex::new(Vec::new()),
            backward: Mutex::new(None),
        })
    }

    /// The shared core (for profilers needing env/gpu access).
    pub fn core(&self) -> &Arc<FrameworkCore> {
        &self.core
    }

    /// Enables or disables autograd taping.
    pub fn set_grad_enabled(&self, enabled: bool) {
        self.grad_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether autograd taping is on.
    pub fn grad_enabled(&self) -> bool {
        self.grad_enabled.load(Ordering::SeqCst)
    }

    /// Executes one operator eagerly, returning its output tensor.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference and GPU failures; requires a bound
    /// simulated thread.
    pub fn op(&self, op: Op, inputs: &[TensorMeta]) -> Result<TensorMeta, FrameworkError> {
        let taping = self.grad_enabled() && op.kind.differentiable();
        let seq_id = taping.then(|| self.seq.fetch_add(1, Ordering::SeqCst) + 1);
        let output = self.core.dispatch(&op, inputs, OpPhase::Forward, seq_id)?;
        if let Some(seq_id) = seq_id {
            self.tape.lock().push(TapeEntry {
                op,
                inputs: inputs.to_vec(),
                output: output.clone(),
                seq_id,
            });
        }
        Ok(output)
    }

    /// Number of taped operators awaiting backward.
    pub fn tape_len(&self) -> usize {
        self.tape.lock().len()
    }

    /// Runs backward over the taped operators on the dedicated backward
    /// thread, blocking until complete (like `loss.backward()`).
    ///
    /// # Errors
    ///
    /// Propagates dispatch failures from the backward thread.
    pub fn backward(&self) -> Result<(), FrameworkError> {
        let entries: Vec<TapeEntry> = std::mem::take(&mut *self.tape.lock());
        if entries.is_empty() {
            return Ok(());
        }
        let sender = {
            let mut guard = self.backward.lock();
            if guard.is_none() {
                *guard = Some(self.spawn_backward_worker());
            }
            guard.as_ref().expect("just created").sender.clone()
        };
        let (reply_tx, reply_rx) = unbounded();
        sender
            .send(BackwardMsg::Run(entries, reply_tx))
            .map_err(|_| FrameworkError::BackwardEngineDown)?;
        reply_rx
            .recv()
            .map_err(|_| FrameworkError::BackwardEngineDown)?
    }

    fn spawn_backward_worker(&self) -> BackwardWorker {
        let core = Arc::clone(&self.core);
        let (tx, rx) = unbounded::<BackwardMsg>();
        let join = std::thread::Builder::new()
            .name("autograd-backward".into())
            .spawn(move || {
                // A fresh simulated thread: no Python frames, ever.
                let ctx = core.env().threads().spawn(ThreadRole::Backward);
                let _bind = ThreadRegistry::bind_current(&ctx);
                let engine_fn = core.native_fn("torch::autograd::Engine::thread_main");
                let _root = NativeFrameGuard::enter(
                    ctx.native(),
                    NativeFrameInfo::new(&engine_fn.library, engine_fn.addr, &engine_fn.name),
                );
                while let Ok(msg) = rx.recv() {
                    match msg {
                        BackwardMsg::Stop => break,
                        BackwardMsg::Run(entries, reply) => {
                            let mut result = Ok(());
                            'outer: for entry in entries.iter().rev() {
                                for (bop, binputs) in
                                    backward_ops(&entry.op, &entry.inputs, &entry.output)
                                {
                                    if let Err(e) = core.dispatch(
                                        &bop,
                                        &binputs,
                                        OpPhase::Backward,
                                        Some(entry.seq_id),
                                    ) {
                                        result = Err(e);
                                        break 'outer;
                                    }
                                }
                            }
                            let _ = reply.send(result);
                        }
                    }
                }
            })
            .expect("spawn backward thread");
        BackwardWorker {
            sender: tx,
            join: Some(join),
        }
    }

    /// Allocates device storage for a tensor, firing the framework memory
    /// event DLMonitor intercepts.
    ///
    /// # Errors
    ///
    /// Propagates device OOM.
    pub fn alloc_tensor(&self, meta: &TensorMeta) -> Result<sim_gpu::DevicePtr, FrameworkError> {
        let bytes = meta.bytes() as u64;
        let ptr = self.core.gpu().malloc(self.core.device(), bytes)?;
        self.core.callbacks().fire_mem(&MemEvent::Alloc {
            tensor: meta.clone(),
            bytes,
        });
        Ok(ptr)
    }

    /// Frees tensor storage.
    ///
    /// # Errors
    ///
    /// Propagates invalid frees.
    pub fn free_tensor(&self, ptr: sim_gpu::DevicePtr, bytes: u64) -> Result<(), FrameworkError> {
        self.core.gpu().free(self.core.device(), ptr)?;
        self.core.callbacks().fire_mem(&MemEvent::Free { bytes });
        Ok(())
    }
}

impl Drop for EagerEngine {
    fn drop(&mut self) {
        if let Some(mut worker) = self.backward.lock().take() {
            let _ = worker.sender.send(BackwardMsg::Stop);
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl std::fmt::Debug for EagerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EagerEngine")
            .field("grad_enabled", &self.grad_enabled())
            .field("tape_len", &self.tape_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;
    use deepcontext_core::TimeNs;
    use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
    use sim_runtime::RuntimeEnv;

    fn engine() -> (Arc<EagerEngine>, RuntimeEnv) {
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
        let core = FrameworkCore::new(
            env.clone(),
            gpu,
            DeviceId(0),
            "/lib/libtorch_cpu.so",
            "libtorch_cuda.so",
            TimeNs(3_000),
        );
        (EagerEngine::new(core), env)
    }

    #[test]
    fn ops_tape_only_with_grad_enabled() {
        let (e, env) = engine();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        e.op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        assert_eq!(e.tape_len(), 0);
        e.set_grad_enabled(true);
        e.op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        assert_eq!(e.tape_len(), 1);
        // Non-differentiable ops never tape.
        e.op(Op::new(OpKind::SgdStep), &[TensorMeta::new([64])])
            .unwrap();
        assert_eq!(e.tape_len(), 1);
    }

    #[test]
    fn backward_runs_on_dedicated_thread_with_matching_seq_ids() {
        let (e, env) = engine();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        e.set_grad_enabled(true);

        let events = Arc::new(Mutex::new(Vec::new()));
        let ev = Arc::clone(&events);
        e.core().callbacks().on_op(move |op_ev| {
            if op_ev.site == crate::callbacks::Site::Enter {
                ev.lock().push((
                    op_ev.name.to_string(),
                    op_ev.phase,
                    op_ev.seq_id,
                    op_ev.thread.role(),
                ));
            }
        });

        e.op(
            Op::new(OpKind::Index).with_duplicates(8.0),
            &[TensorMeta::new([1000, 16]), TensorMeta::new([64])],
        )
        .unwrap();
        e.backward().unwrap();

        let events = events.lock().clone();
        let fwd: Vec<_> = events.iter().filter(|e| e.1 == OpPhase::Forward).collect();
        let bwd: Vec<_> = events.iter().filter(|e| e.1 == OpPhase::Backward).collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(bwd.len(), 1);
        // Same operator name and sequence id; different thread role.
        assert_eq!(fwd[0].0, "aten::index");
        assert_eq!(bwd[0].0, "aten::index");
        assert_eq!(fwd[0].2, bwd[0].2);
        assert_eq!(fwd[0].3, ThreadRole::Main);
        assert_eq!(bwd[0].3, ThreadRole::Backward);
    }

    #[test]
    fn backward_drains_tape_and_is_reentrant() {
        let (e, env) = engine();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        e.set_grad_enabled(true);
        for _ in 0..3 {
            e.op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        assert_eq!(e.tape_len(), 3);
        e.backward().unwrap();
        assert_eq!(e.tape_len(), 0);
        // Second backward with empty tape is a no-op.
        e.backward().unwrap();
        // Tape again: the worker is reused.
        e.op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        e.backward().unwrap();
    }

    #[test]
    fn backward_thread_has_no_python_context() {
        let (e, env) = engine();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let _py = e.core().python().frame(&t, "train.py", 5, "step");
        e.set_grad_enabled(true);

        let bwd_py_depth = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&bwd_py_depth);
        e.core().callbacks().on_op(move |ev| {
            if ev.phase == OpPhase::Backward {
                d.lock().push(ev.thread.python().depth());
            }
        });

        e.op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        e.backward().unwrap();
        let depths = bwd_py_depth.lock().clone();
        assert!(!depths.is_empty());
        assert!(
            depths.iter().all(|d| *d == 0),
            "backward thread saw Python frames"
        );
    }

    #[test]
    fn alloc_and_free_fire_memory_events() {
        let (e, env) = engine();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let events = Arc::new(Mutex::new(0usize));
        let ev = Arc::clone(&events);
        e.core().callbacks().on_mem(move |_| {
            *ev.lock() += 1;
        });
        let meta = TensorMeta::new([1024]);
        let ptr = e.alloc_tensor(&meta).unwrap();
        e.free_tensor(ptr, meta.bytes() as u64).unwrap();
        assert_eq!(*events.lock(), 2);
    }
}
