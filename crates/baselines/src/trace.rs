//! Trace-based profiling (the framework-profiler model).

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use deepcontext_core::TimeNs;
use dl_framework::{CallbackRegistry, FrameworkCallbackId, Site};
use sim_gpu::{Activity, ActivityKind, GpuRuntime};

/// Which framework profiler is being modelled (affects per-event
/// metadata volume; the PyTorch profiler records input shapes and stack
/// strings per op, JAX's is leaner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStyle {
    /// PyTorch-profiler-like: rich per-event metadata.
    Torch,
    /// JAX-profiler-like: leaner events.
    Jax,
}

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Operator begin.
    OpBegin,
    /// Operator end.
    OpEnd,
    /// Kernel execution (with device timing).
    Kernel,
    /// Memory copy.
    Memcpy,
    /// Allocation.
    Malloc,
}

/// One recorded trace event. Every field is retained per event — this is
/// the storage model whose growth the paper measures.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceEventKind,
    /// Name (operator or kernel).
    pub name: Arc<str>,
    /// Timestamp.
    pub ts: TimeNs,
    /// Duration (kernels/memcpys).
    pub dur: Option<TimeNs>,
    /// Thread id.
    pub tid: u64,
    /// Correlation id for GPU events.
    pub correlation: Option<u64>,
    /// Framework metadata (input shapes, layouts, ...), retained verbatim.
    pub metadata: String,
}

impl TraceEvent {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<TraceEvent>() + self.name.len() + self.metadata.len()
    }
}

/// Error from exporting a trace.
#[derive(Debug)]
pub enum ExportError {
    /// The trace outgrew the configured memory budget — the paper's
    /// "PyTorch profiler encountered out-of-memory issues when exporting
    /// the profiling database to disk".
    OutOfMemory {
        /// Bytes the trace held.
        used: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Underlying write failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::OutOfMemory { used, budget } => {
                write!(
                    f,
                    "trace export out of memory: {used} bytes used, budget {budget}"
                )
            }
            ExportError::Io(e) => write!(f, "trace export failed: {e}"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> Self {
        ExportError::Io(e)
    }
}

/// A trace-recording profiler in the mould of the PyTorch/JAX profilers.
pub struct TraceProfiler {
    style: TraceStyle,
    events: Arc<Mutex<Vec<TraceEvent>>>,
    bytes: Arc<AtomicUsize>,
    memory_budget: Option<usize>,
    framework: Option<(Arc<CallbackRegistry>, FrameworkCallbackId)>,
    gpu: Option<Arc<GpuRuntime>>,
}

impl TraceProfiler {
    /// Creates an unattached trace profiler.
    pub fn new(style: TraceStyle) -> Self {
        TraceProfiler {
            style,
            events: Arc::new(Mutex::new(Vec::new())),
            bytes: Arc::new(AtomicUsize::new(0)),
            memory_budget: None,
            framework: None,
            gpu: None,
        }
    }

    /// Caps the trace's memory; exports past the cap fail with
    /// [`ExportError::OutOfMemory`].
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Attaches to a framework's operator callbacks: every op enter/exit
    /// becomes a trace event with metadata.
    pub fn attach_framework(
        &mut self,
        callbacks: &Arc<CallbackRegistry>,
        clock: deepcontext_core::VirtualClock,
    ) {
        let events = Arc::clone(&self.events);
        let bytes = Arc::clone(&self.bytes);
        let style = self.style;
        let id = callbacks.on_op(move |op| {
            let metadata = match style {
                TraceStyle::Torch => {
                    // Record per-op input shapes (what the PyTorch
                    // profiler's record_shapes does), built cheaply.
                    let mut m = String::with_capacity(64);
                    m.push_str(if op.phase == deepcontext_core::OpPhase::Forward {
                        "fwd seq="
                    } else {
                        "bwd seq="
                    });
                    m.push_str(&op.seq_id.unwrap_or(0).to_string());
                    for t in &op.inputs {
                        m.push_str(" [");
                        for d in &t.shape {
                            m.push_str(&d.to_string());
                            m.push(',');
                        }
                        m.push(']');
                    }
                    m
                }
                TraceStyle::Jax => format!("phase={}", op.phase),
            };
            let event = TraceEvent {
                kind: if op.site == Site::Enter {
                    TraceEventKind::OpBegin
                } else {
                    TraceEventKind::OpEnd
                },
                name: Arc::clone(&op.name),
                ts: clock.now(),
                dur: None,
                tid: op.thread.tid(),
                correlation: op.seq_id,
                metadata,
            };
            bytes.fetch_add(event.approx_bytes(), Ordering::Relaxed);
            events.lock().push(event);
        });
        self.framework = Some((Arc::clone(callbacks), id));
    }

    /// Attaches to a GPU runtime's activity stream: every kernel/memcpy/
    /// malloc becomes a trace event.
    pub fn attach_gpu(&mut self, gpu: &Arc<GpuRuntime>) {
        let events = Arc::clone(&self.events);
        let bytes = Arc::clone(&self.bytes);
        gpu.set_activity_handler(move |batch: Vec<Activity>| {
            for activity in batch {
                let (kind, name, ts, dur) = match &activity.kind {
                    ActivityKind::Kernel {
                        name, start, end, ..
                    } => (
                        TraceEventKind::Kernel,
                        Arc::clone(name),
                        *start,
                        Some(*end - *start),
                    ),
                    ActivityKind::Memcpy {
                        bytes: b,
                        start,
                        end,
                        ..
                    } => (
                        TraceEventKind::Memcpy,
                        Arc::from(format!("memcpy {b}B").as_str()),
                        *start,
                        Some(*end - *start),
                    ),
                    ActivityKind::Malloc { bytes: b, at } => (
                        TraceEventKind::Malloc,
                        Arc::from(format!("malloc {b}B").as_str()),
                        *at,
                        None,
                    ),
                    _ => continue,
                };
                let event = TraceEvent {
                    kind,
                    name,
                    ts,
                    dur,
                    tid: 0,
                    correlation: Some(activity.correlation_id.0),
                    metadata: String::new(),
                };
                bytes.fetch_add(event.approx_bytes(), Ordering::Relaxed);
                events.lock().push(event);
            }
        });
        self.gpu = Some(Arc::clone(gpu));
    }

    /// Drains completed GPU activities into the trace.
    pub fn flush(&self) {
        if let Some(gpu) = &self.gpu {
            // Delivery happens through the installed activity handler.
            let batch = gpu.flush_completed();
            if !batch.is_empty() {
                // Handler was replaced? Record directly as a fallback.
                self.record_batch(batch);
            }
        }
    }

    fn record_batch(&self, batch: Vec<Activity>) {
        for activity in batch {
            if let ActivityKind::Kernel {
                name, start, end, ..
            } = &activity.kind
            {
                let event = TraceEvent {
                    kind: TraceEventKind::Kernel,
                    name: Arc::clone(name),
                    ts: *start,
                    dur: Some(*end - *start),
                    tid: 0,
                    correlation: Some(activity.correlation_id.0),
                    metadata: String::new(),
                };
                self.bytes
                    .fetch_add(event.approx_bytes(), Ordering::Relaxed);
                self.events.lock().push(event);
            }
        }
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.events.lock().len()
    }

    /// Approximate trace memory (the Figure 6c/6d quantity).
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
            + self.events.lock().capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Exports a Chrome-trace-format JSON document.
    ///
    /// # Errors
    ///
    /// Fails with [`ExportError::OutOfMemory`] when the trace exceeded the
    /// configured budget (reproducing the paper's observed export OOMs),
    /// or [`ExportError::Io`] on write failure.
    pub fn export_chrome_trace<W: Write>(&self, mut w: W) -> Result<(), ExportError> {
        if let Some(budget) = self.memory_budget {
            let used = self.approx_bytes();
            if used > budget {
                return Err(ExportError::OutOfMemory { used, budget });
            }
        }
        writeln!(w, "{{\"traceEvents\":[")?;
        let events = self.events.lock();
        for (idx, e) in events.iter().enumerate() {
            let comma = if idx + 1 < events.len() { "," } else { "" };
            let ph = match e.kind {
                TraceEventKind::OpBegin => "B",
                TraceEventKind::OpEnd => "E",
                _ => "X",
            };
            let dur = e
                .dur
                .map(|d| format!(",\"dur\":{}", d.as_nanos() / 1000))
                .unwrap_or_default();
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"tid\":{}{dur}}}{comma}",
                e.name.replace('"', "'"),
                e.ts.as_nanos() / 1000,
                e.tid
            )?;
        }
        writeln!(w, "]}}")?;
        Ok(())
    }

    /// Detaches from the framework (GPU handlers are replaced by the next
    /// attachment).
    pub fn detach(&mut self) {
        if let Some((registry, id)) = self.framework.take() {
            registry.remove(id);
        }
        if let Some(gpu) = self.gpu.take() {
            gpu.set_activity_handler(|_| {});
        }
    }
}

impl Drop for TraceProfiler {
    fn drop(&mut self) {
        self.detach();
    }
}

impl std::fmt::Debug for TraceProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceProfiler")
            .field("style", &self.style)
            .field("events", &self.event_count())
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{ThreadRole, TimeNs};
    use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
    use sim_gpu::{DeviceId, DeviceSpec};
    use sim_runtime::{RuntimeEnv, ThreadRegistry};

    struct Rig {
        env: RuntimeEnv,
        gpu: Arc<GpuRuntime>,
        engine: Arc<EagerEngine>,
    }

    fn rig() -> Rig {
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
        let engine = EagerEngine::new(core);
        Rig { env, gpu, engine }
    }

    fn run(rig: &Rig, iters: usize) {
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        for _ in 0..iters {
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 16])])
                .unwrap();
        }
        rig.gpu.synchronize(DeviceId(0)).unwrap();
    }

    #[test]
    fn records_every_op_and_kernel_event() {
        let rig = rig();
        let mut profiler = TraceProfiler::new(TraceStyle::Torch);
        profiler.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        profiler.attach_gpu(&rig.gpu);
        run(&rig, 5);
        profiler.flush();
        // 5 ops x (begin+end) + 5 kernels.
        assert_eq!(profiler.event_count(), 15);
    }

    #[test]
    fn trace_memory_grows_linearly_with_iterations() {
        let rig = rig();
        let mut profiler = TraceProfiler::new(TraceStyle::Torch);
        profiler.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        profiler.attach_gpu(&rig.gpu);
        run(&rig, 10);
        profiler.flush();
        let b10 = profiler.approx_bytes();
        run(&rig, 90);
        profiler.flush();
        let b100 = profiler.approx_bytes();
        assert!(
            b100 as f64 > b10 as f64 * 5.0,
            "trace must grow ~linearly: {b10} -> {b100}"
        );
    }

    #[test]
    fn torch_style_records_fatter_events_than_jax_style() {
        let rig = rig();
        let mut torch = TraceProfiler::new(TraceStyle::Torch);
        torch.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        run(&rig, 10);
        let torch_bytes = torch.approx_bytes();
        torch.detach();

        let mut jax = TraceProfiler::new(TraceStyle::Jax);
        jax.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        run(&rig, 10);
        let jax_bytes = jax.approx_bytes();
        assert!(torch_bytes > jax_bytes);
    }

    #[test]
    fn export_produces_chrome_trace_and_respects_budget() {
        let rig = rig();
        let mut profiler = TraceProfiler::new(TraceStyle::Torch).with_memory_budget(64);
        profiler.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        profiler.attach_gpu(&rig.gpu);
        run(&rig, 3);
        profiler.flush();
        // Budget blown: the export OOMs like the paper's observation.
        let err = profiler.export_chrome_trace(Vec::new()).unwrap_err();
        assert!(matches!(err, ExportError::OutOfMemory { .. }));

        let mut unbudgeted = TraceProfiler::new(TraceStyle::Jax);
        unbudgeted.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        run(&rig, 2);
        let mut out = Vec::new();
        unbudgeted.export_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("aten::relu"));
        assert!(text.trim_end().ends_with("]}"));
    }

    #[test]
    fn detach_stops_recording() {
        let rig = rig();
        let mut profiler = TraceProfiler::new(TraceStyle::Torch);
        profiler.attach_framework(rig.engine.core().callbacks(), rig.env.clock().clone());
        run(&rig, 1);
        let before = profiler.event_count();
        profiler.detach();
        run(&rig, 5);
        assert_eq!(profiler.event_count(), before);
    }
}
