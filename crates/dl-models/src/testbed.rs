//! A complete simulated evaluation platform: one device, both engines.

use std::sync::Arc;

use deepcontext_core::{ThreadRole, TimeNs};
use dl_framework::{DataLoader, EagerEngine, FrameworkCore, FrameworkError, JitEngine};
use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
use sim_runtime::{RuntimeEnv, ThreadCtx, ThreadRegistry};

use crate::sink::{EagerSink, TraceSink};
use crate::{ModelCtx, Workload, WorkloadOptions};

/// Statistics from one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Virtual wall-clock time of the run.
    pub wall: TimeNs,
    /// Accumulated device busy time.
    pub gpu_busy: TimeNs,
    /// Kernels launched.
    pub kernels: u64,
    /// Iterations executed.
    pub iterations: u32,
}

/// One evaluation platform (paper Table 2 rows): a device plus the eager
/// and JIT engines wired to it.
pub struct TestBed {
    env: RuntimeEnv,
    gpu: Arc<GpuRuntime>,
    eager: Arc<EagerEngine>,
    jit: Arc<JitEngine>,
    main: Arc<ThreadCtx>,
    device: DeviceId,
}

impl TestBed {
    /// Builds a test bed on a device model.
    pub fn new(spec: DeviceSpec) -> TestBed {
        TestBed::with_devices(vec![spec])
    }

    /// Builds a test bed over several devices (multi-GPU workloads).
    /// Both engines default to device 0; workloads place ops on other
    /// devices explicitly via `Op::on_device`.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty.
    pub fn with_devices(specs: Vec<DeviceSpec>) -> TestBed {
        assert!(!specs.is_empty(), "a test bed needs at least one device");
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(env.clock().clone(), specs);
        let device = DeviceId(0);
        let eager_core = FrameworkCore::new(
            env.clone(),
            Arc::clone(&gpu),
            device,
            "/lib/libtorch_cpu.so",
            "libtorch_cuda.so",
            TimeNs(3_000),
        );
        let jit_core = FrameworkCore::new(
            env.clone(),
            Arc::clone(&gpu),
            device,
            "/lib/libjax.so",
            "libxla.so",
            TimeNs(1_000),
        );
        let eager = EagerEngine::new(Arc::clone(&eager_core));
        let jit = JitEngine::new(jit_core);
        let main = env.threads().spawn(ThreadRole::Main);
        TestBed {
            env,
            gpu,
            eager,
            jit,
            main,
            device,
        }
    }

    /// The process environment.
    pub fn env(&self) -> &RuntimeEnv {
        &self.env
    }

    /// The GPU runtime.
    pub fn gpu(&self) -> &Arc<GpuRuntime> {
        &self.gpu
    }

    /// The eager engine.
    pub fn eager(&self) -> &Arc<EagerEngine> {
        &self.eager
    }

    /// The JIT engine.
    pub fn jit(&self) -> &Arc<JitEngine> {
        &self.jit
    }

    /// The main simulated thread.
    pub fn main_thread(&self) -> &Arc<ThreadCtx> {
        &self.main
    }

    /// Runs `iterations` of `workload` on the eager engine.
    ///
    /// # Errors
    ///
    /// Propagates framework/GPU failures.
    pub fn run_eager(
        &self,
        workload: &dyn Workload,
        opts: &WorkloadOptions,
        iterations: u32,
    ) -> Result<RunStats, FrameworkError> {
        let _bind = ThreadRegistry::bind_current(&self.main);
        self.eager.set_grad_enabled(workload.training());
        self.prepare_streams(workload)?;
        let core = Arc::clone(self.eager.core());
        let loader = workload
            .dataloader(opts)
            .map(|config| DataLoader::new(&self.env, core.python(), config));

        let start_wall = self.env.clock().now();
        let start_busy = self.busy_all_devices()?;
        let start_kernels = self.kernels_all_devices()?;

        for _ in 0..iterations {
            let _step = core
                .python()
                .frame(&self.main, "train.py", 30, "train_step");
            if let Some(loader) = &loader {
                let _load = core
                    .python()
                    .frame(&self.main, "input_pipeline.py", 40, "next_batch");
                loader.load_batch();
            }
            let mut sink = EagerSink::new(Arc::clone(&self.eager));
            let mut ctx = ModelCtx::new(
                &mut sink,
                Arc::clone(core.python()),
                Arc::clone(&self.main),
                opts.clone(),
            );
            workload.iteration(&mut ctx)?;
            if workload.training() {
                ctx.backward()?;
            }
        }
        self.synchronize_all()?;

        Ok(RunStats {
            wall: self.env.clock().now() - start_wall,
            gpu_busy: self.busy_all_devices()? - start_busy,
            kernels: self.kernels_all_devices()? - start_kernels,
            iterations,
        })
    }

    /// Pre-creates the streams a workload declares, on every device.
    fn prepare_streams(&self, workload: &dyn Workload) -> Result<(), FrameworkError> {
        let streams = workload.streams_per_device();
        for d in 0..self.gpu.device_count() {
            self.gpu.ensure_streams(DeviceId(d as u32), streams)?;
        }
        Ok(())
    }

    /// Synchronizes every device (multi-GPU runs must drain them all).
    fn synchronize_all(&self) -> Result<(), FrameworkError> {
        for d in 0..self.gpu.device_count() {
            self.gpu.synchronize(DeviceId(d as u32))?;
        }
        Ok(())
    }

    fn busy_all_devices(&self) -> Result<TimeNs, FrameworkError> {
        let mut total = TimeNs::ZERO;
        for d in 0..self.gpu.device_count() {
            total += self.gpu.device_busy_time(DeviceId(d as u32))?;
        }
        Ok(total)
    }

    fn kernels_all_devices(&self) -> Result<u64, FrameworkError> {
        let mut total = 0;
        for d in 0..self.gpu.device_count() {
            total += self.gpu.kernel_count(DeviceId(d as u32))?;
        }
        Ok(total)
    }

    /// Runs `iterations` of `workload` on the JIT engine: trace + compile
    /// once, execute per iteration (the JAX execution model).
    ///
    /// # Errors
    ///
    /// Propagates framework/GPU failures.
    pub fn run_jit(
        &self,
        workload: &dyn Workload,
        opts: &WorkloadOptions,
        iterations: u32,
    ) -> Result<RunStats, FrameworkError> {
        let _bind = ThreadRegistry::bind_current(&self.main);
        self.prepare_streams(workload)?;
        let core = Arc::clone(self.jit.core());
        let loader = workload
            .dataloader(opts)
            .map(|config| DataLoader::new(&self.env, core.python(), config));

        let start_wall = self.env.clock().now();
        let start_busy = self.busy_all_devices()?;
        let start_kernels = self.kernels_all_devices()?;

        let graph = {
            let _trace_scope = core.python().frame(&self.main, "train.py", 22, "jit_step");
            self.jit.trace(workload.name(), |tracer| {
                let mut sink = TraceSink::new(tracer);
                let mut ctx = ModelCtx::new(
                    &mut sink,
                    Arc::clone(core.python()),
                    Arc::clone(&self.main),
                    opts.clone(),
                );
                workload.iteration(&mut ctx)?;
                if workload.training() {
                    ctx.backward()?;
                }
                Ok(())
            })?
        };
        let compiled = self.jit.compile(&graph)?;

        for _ in 0..iterations {
            let _step = core
                .python()
                .frame(&self.main, "train.py", 30, "train_step");
            if let Some(loader) = &loader {
                let _load = core
                    .python()
                    .frame(&self.main, "input_pipeline.py", 40, "next_batch");
                loader.load_batch();
            }
            compiled.execute()?;
        }
        self.synchronize_all()?;

        Ok(RunStats {
            wall: self.env.clock().now() - start_wall,
            gpu_busy: self.busy_all_devices()? - start_busy,
            kernels: self.kernels_all_devices()? - start_kernels,
            iterations,
        })
    }
}

impl std::fmt::Debug for TestBed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestBed")
            .field("device", &self.device)
            .finish()
    }
}
