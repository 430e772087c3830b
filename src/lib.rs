//! # DeepContext
//!
//! A context-aware, cross-platform, cross-framework performance profiler
//! for deep learning workloads — a from-scratch Rust reproduction of the
//! ASPLOS 2025 paper *"DeepContext: A Context-aware, Cross-platform, and
//! Cross-framework Tool for Performance Profiling and Analysis of Deep
//! Learning Workloads"*.
//!
//! This facade crate re-exports the whole system:
//!
//! | Module | Crate | Paper component |
//! |---|---|---|
//! | [`core`] | `deepcontext-core` | unified frames, call paths, calling context tree, metrics |
//! | [`monitor`] | `dlmonitor` | the DLMonitor shim layer (§4.1) |
//! | [`pipeline`] | `deepcontext-pipeline` | event ingestion: the one sharded inline-attribution sink the profiler calls |
//! | [`timeline`] | `deepcontext-timeline` | per-(device, stream) interval tracks, latency analysis, Chrome-trace export |
//! | [`profiler`] | `deepcontext-profiler` | metric collection & online aggregation (§4.2); `Profiler::stats()` is its self-report |
//! | [`analyzer`] | `deepcontext-analyzer` | automated performance analyses (§4.3) |
//! | [`flamegraph`] | `deepcontext-flamegraph` | GUI views & renderers (§4.4) |
//! | [`runtime`] | `sim-runtime` | simulated CPython/native/unwinding substrate |
//! | [`gpu`] | `sim-gpu` | simulated GPU runtime with CUPTI/RocTracer contracts |
//! | [`framework`] | `dl-framework` | eager (PyTorch-like) and JIT (JAX-like) engines |
//! | [`workloads`] | `dl-models` | the ten evaluation workloads (§5) |
//! | [`baselines`] | `deepcontext-baselines` | trace-based comparison profilers |
//!
//! # Quickstart
//!
//! ```
//! use deepcontext::prelude::*;
//!
//! // A platform (paper Table 2) with both engines wired up.
//! let bed = TestBed::new(DeviceSpec::a100_sxm());
//!
//! // dlmonitor_init + interception of framework and GPU events.
//! let monitor = DlMonitor::init(bed.env(), Interner::new());
//! monitor.attach_framework(bed.eager().core().callbacks());
//! monitor.attach_gpu(bed.gpu());
//!
//! // Attach the profiler and run a workload.
//! let profiler = Profiler::attach(ProfilerConfig::default(), bed.env(), &monitor, bed.gpu());
//! bed.run_eager(&DlrmSmall, &WorkloadOptions::default(), 2)?;
//!
//! // Finish, analyze, visualise.
//! let db = profiler.finish(ProfileMeta { workload: "dlrm-small".into(), ..Default::default() });
//! let report = Analyzer::with_default_rules().analyze(&db);
//! let flame = FlameGraph::top_down(db.cct(), MetricKind::GpuTime);
//! assert!(db.cct().total(MetricKind::GpuTime) > 0.0);
//! # let _ = (report, flame);
//! # Ok::<(), dl_framework::FrameworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use deepcontext_analyzer as analyzer;
pub use deepcontext_baselines as baselines;
pub use deepcontext_core as core;
pub use deepcontext_flamegraph as flamegraph;
pub use deepcontext_pipeline as pipeline;
pub use deepcontext_profiler as profiler;
pub use deepcontext_timeline as timeline;
pub use dl_framework as framework;
pub use dl_models as workloads;
pub use dlmonitor as monitor;
pub use sim_gpu as gpu;
pub use sim_runtime as runtime;

/// Everything needed for typical profiling sessions.
pub mod prelude {
    pub use deepcontext_analyzer::{Analyzer, Issue, ProfileDiff, ProfileStore, Rule, Severity};
    pub use deepcontext_core::{
        CallPath, CallingContextTree, Frame, FrameKind, Interner, MetricKind, NodeId, OpPhase,
        PathHandle, ProfileDb, ProfileMeta, StallReason, TimeNs, VirtualClock,
    };
    pub use deepcontext_flamegraph::FlameGraph;
    pub use deepcontext_profiler::{Profiler, ProfilerConfig};
    pub use deepcontext_timeline::{TimelineConfig, TimelineSnapshot, TimelineStats};
    pub use dl_framework::{
        DType, EagerEngine, FrameworkCore, JitEngine, Layout, Op, OpKind, TensorMeta,
    };
    pub use dl_models::{
        all_workloads, workload_by_name, Conformer, DlrmSmall, Gemma, Gnn, Llama3, MultiStream,
        NanoGpt, ResNet, RunStats, TestBed, TransformerBig, UNet, ViT, Workload, WorkloadOptions,
    };
    pub use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain};
    pub use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime, SamplingConfig, StreamId, Vendor};
    pub use sim_runtime::{RuntimeEnv, ThreadRegistry};
}
