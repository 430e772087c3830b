//! The monitored process the profiler's integration tests attach to: one
//! simulated A100, an eager engine, DLMonitor on both.

use std::sync::Arc;

use deepcontext_core::{Interner, ThreadRole, TimeNs};
use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
use dlmonitor::DlMonitor;
use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
use sim_runtime::{RuntimeEnv, ThreadRegistry};

pub struct Rig {
    pub env: RuntimeEnv,
    pub gpu: Arc<GpuRuntime>,
    engine: Arc<EagerEngine>,
    pub monitor: Arc<DlMonitor>,
}

pub fn rig() -> Rig {
    let env = RuntimeEnv::new();
    let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
    let core = FrameworkCore::new(
        env.clone(),
        Arc::clone(&gpu),
        DeviceId(0),
        "/lib/libtorch_cpu.so",
        "libtorch_cuda.so",
        TimeNs(3_000),
    );
    let engine = EagerEngine::new(Arc::clone(&core));
    let monitor = DlMonitor::init(&env, Interner::new());
    monitor.attach_framework(core.callbacks());
    monitor.attach_gpu(&gpu);
    Rig {
        env,
        gpu,
        engine,
        monitor,
    }
}

/// `n` ReLU launches from one Python frame, synchronized.
pub fn run_relu(rig: &Rig, n: usize) {
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    let core = Arc::clone(rig.engine.core());
    let _py = core.python().frame(&main, "train.py", 7, "step");
    for _ in 0..n {
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 18])])
            .unwrap();
    }
    rig.gpu.synchronize(DeviceId(0)).unwrap();
}
