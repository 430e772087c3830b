//! Shared engine infrastructure.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use deepcontext_core::{OpPhase, TimeNs};
use sim_gpu::{DeviceId, GpuRuntime, StreamId};
use sim_runtime::{
    CpuWork, FunctionInfo, LibraryInfo, NativeFrameGuard, NativeFrameInfo, RuntimeEnv, ThreadCtx,
    ThreadRegistry,
};

use crate::callbacks::{CallbackRegistry, OpEvent, Site};
use crate::error::FrameworkError;
use crate::ops::Op;
use crate::pyscope::PythonSim;
use crate::registry::KernelRegistry;
use crate::tensor::TensorMeta;

/// Everything both engines share: the process environment, the GPU
/// runtime, kernel/callback registries, the simulated CPython runtime and
/// the framework's own native libraries.
#[derive(Debug)]
pub struct FrameworkCore {
    env: RuntimeEnv,
    gpu: Arc<GpuRuntime>,
    device: DeviceId,
    stream: StreamId,
    kernels: Arc<KernelRegistry>,
    callbacks: Arc<CallbackRegistry>,
    python: Arc<PythonSim>,
    framework_lib: LibraryInfo,
    fn_cache: Mutex<HashMap<String, FunctionInfo>>,
    /// CPU cost of dispatching one operator.
    dispatch_cost: TimeNs,
    /// CPU cost of preparing one kernel launch.
    launch_prep_cost: TimeNs,
}

impl FrameworkCore {
    /// Builds the shared core.
    ///
    /// `cpu_lib` is the framework's host library (e.g. `libtorch_cpu.so`)
    /// and `gpu_module` the module kernels are attributed to (e.g.
    /// `libtorch_cuda.so` / `libxla.so`). `dispatch_cost` models the
    /// per-operator host overhead — eager dispatchers pay more than
    /// compiled executors.
    pub fn new(
        env: RuntimeEnv,
        gpu: Arc<GpuRuntime>,
        device: DeviceId,
        cpu_lib: &str,
        gpu_module: &str,
        dispatch_cost: TimeNs,
    ) -> Arc<Self> {
        let framework_lib = env.load_library(cpu_lib, 0x100_0000);
        let python = Arc::new(PythonSim::new(&env));
        Arc::new(FrameworkCore {
            env,
            gpu,
            device,
            stream: StreamId(0),
            kernels: Arc::new(KernelRegistry::new(gpu_module)),
            callbacks: CallbackRegistry::new(),
            python,
            framework_lib,
            fn_cache: Mutex::new(HashMap::new()),
            dispatch_cost,
            launch_prep_cost: TimeNs(1_000),
        })
    }

    /// The simulated process environment.
    pub fn env(&self) -> &RuntimeEnv {
        &self.env
    }

    /// The GPU runtime.
    pub fn gpu(&self) -> &Arc<GpuRuntime> {
        &self.gpu
    }

    /// The device this engine targets.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The stream used for launches.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The kernel registry.
    pub fn kernels(&self) -> &Arc<KernelRegistry> {
        &self.kernels
    }

    /// The framework callback registry.
    pub fn callbacks(&self) -> &Arc<CallbackRegistry> {
        &self.callbacks
    }

    /// The simulated CPython runtime.
    pub fn python(&self) -> &Arc<PythonSim> {
        &self.python
    }

    /// Resolves (defining on first use) a native function of the framework
    /// library.
    pub fn native_fn(&self, name: &str) -> FunctionInfo {
        let mut cache = self.fn_cache.lock();
        if let Some(f) = cache.get(name) {
            return f.clone();
        }
        let f = self
            .env
            .define_function(&self.framework_lib, name, 0x100, None);
        cache.insert(name.to_owned(), f.clone());
        f
    }

    /// The simulated thread bound to this OS thread.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::NoCurrentThread`] when the caller forgot
    /// to bind one (see [`ThreadRegistry::bind_current`]).
    pub fn current_thread(&self) -> Result<Arc<ThreadCtx>, FrameworkError> {
        ThreadRegistry::current().ok_or(FrameworkError::NoCurrentThread)
    }

    /// The shared operator execution path used by the eager dispatcher,
    /// the backward worker, and the compiled-graph executor: fires
    /// framework callbacks, maintains native dispatcher frames, spends
    /// simulated CPU time, and launches the lowered kernels.
    pub fn dispatch(
        &self,
        op: &Op,
        inputs: &[TensorMeta],
        phase: OpPhase,
        seq_id: Option<u64>,
    ) -> Result<TensorMeta, FrameworkError> {
        let thread = self.current_thread()?;
        let output = op.infer_shape(inputs)?;
        let name: Arc<str> = Arc::from(op.name());

        self.callbacks.fire_op(&OpEvent {
            name: Arc::clone(&name),
            phase,
            seq_id,
            site: Site::Enter,
            thread: Arc::clone(&thread),
            inputs: inputs.to_vec(),
        });

        // Native dispatcher frames a real unwind would see.
        let dispatcher = self.native_fn("c10::Dispatcher::call");
        let _g1 = NativeFrameGuard::enter(
            thread.native(),
            NativeFrameInfo::new(&dispatcher.library, dispatcher.addr, &dispatcher.name),
        );
        let impl_name = format!("at::native::{}", op.name().trim_start_matches("aten::"));
        let impl_fn = self.native_fn(&impl_name);
        let _g2 = NativeFrameGuard::enter(
            thread.native(),
            NativeFrameInfo::new(&impl_fn.library, impl_fn.addr, &impl_fn.name),
        );

        self.env
            .do_cpu_work(&thread, CpuWork::compute(self.dispatch_cost));

        // Honour explicit placement (multi-GPU / multi-stream workloads),
        // defaulting to the engine's device and stream.
        let device = op.attrs.device.unwrap_or(self.device);
        let stream = op.attrs.stream.unwrap_or(self.stream);
        for kernel in op.lower(inputs, &output, phase, &self.kernels) {
            self.env
                .do_cpu_work(&thread, CpuWork::compute(self.launch_prep_cost));
            self.gpu.launch_kernel(device, stream, Arc::new(kernel))?;
        }

        self.callbacks.fire_op(&OpEvent {
            name,
            phase,
            seq_id,
            site: Site::Exit,
            thread,
            inputs: Vec::new(),
        });
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;
    use deepcontext_core::ThreadRole;
    use sim_gpu::DeviceSpec;

    fn core() -> (Arc<FrameworkCore>, RuntimeEnv) {
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
        (core, env)
    }

    #[test]
    fn dispatch_requires_bound_thread() {
        let (core, _env) = core();
        let err = core
            .dispatch(
                &Op::new(OpKind::Relu),
                &[TensorMeta::new([8])],
                OpPhase::Forward,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, FrameworkError::NoCurrentThread));
    }

    #[test]
    fn dispatch_fires_callbacks_and_launches_kernels() {
        let (core, env) = core();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let events = Arc::new(Mutex::new(Vec::new()));
        let e = Arc::clone(&events);
        core.callbacks().on_op(move |ev| {
            e.lock().push((ev.name.to_string(), ev.site));
        });
        let out = core
            .dispatch(
                &Op::new(OpKind::Relu),
                &[TensorMeta::new([1 << 16])],
                OpPhase::Forward,
                Some(1),
            )
            .unwrap();
        assert_eq!(out.shape, vec![1 << 16]);
        let ev = events.lock().clone();
        assert_eq!(ev[0], ("aten::relu".to_owned(), Site::Enter));
        assert_eq!(ev[1], ("aten::relu".to_owned(), Site::Exit));
        assert_eq!(core.gpu().kernel_count(DeviceId(0)).unwrap(), 1);
        // CPU time was spent and the clock advanced.
        assert!(env.clock().now() > deepcontext_core::TimeNs::ZERO);
        // Native dispatcher frames were popped on exit.
        assert!(t.native().depth() == 0);
    }

    #[test]
    fn native_fn_is_cached() {
        let (core, _env) = core();
        let a = core.native_fn("c10::Dispatcher::call");
        let b = core.native_fn("c10::Dispatcher::call");
        assert_eq!(a.addr, b.addr);
    }

    #[test]
    fn clock_is_shared_between_env_and_gpu() {
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
        let config = sim_gpu::LaunchConfig::new(1, 32);
        let kernel = Arc::new(sim_gpu::KernelDesc::new("k", "m.so", 0x10, config));
        let (device, stream) = (sim_gpu::DeviceId(0), sim_gpu::StreamId(0));
        gpu.launch_kernel(device, stream, kernel).unwrap();
        gpu.synchronize(device).unwrap();
        let end = gpu.flush_all()[0].end_time().unwrap();
        assert_eq!(
            env.clock().now(),
            end,
            "the device advanced the env's clock"
        );
    }
}
