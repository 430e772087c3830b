//! Measurement harness shared by the table/figure regeneration binaries,
//! and the profile builder `bench_check` times ([`store`]).
//!
//! [`measure`] runs one workload on one platform/engine under one of four
//! profiler configurations — none, a trace-based framework profiler, and
//! the paper's two DeepContext configurations — returning both virtual-
//! time statistics and real (host) wall time plus profile memory. (The
//! paper's Figure 6 itself is the repo benchmark's job: `benchmark/`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod store;

use std::time::{Duration, Instant};

use deepcontext_baselines::{TraceProfiler, TraceStyle};
use deepcontext_core::{Interner, ProfileDb, ProfileMeta};
use deepcontext_profiler::{Profiler, ProfilerConfig};
use dl_models::{RunStats, TestBed, Workload, WorkloadOptions};
use dlmonitor::DlMonitor;
use sim_gpu::DeviceSpec;

/// Which engine executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Eager (PyTorch-like) execution.
    Eager,
    /// JIT (JAX-like) execution.
    Jit,
}

impl EngineKind {
    /// Framework tag used in profile metadata.
    pub fn tag(self) -> &'static str {
        match self {
            EngineKind::Eager => "eager",
            EngineKind::Jit => "jit",
        }
    }
}

/// Which profiler (if any) observes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilerKind {
    /// No profiling — the overhead baseline.
    None,
    /// The trace-based framework profiler (PyTorch/JAX profiler model).
    FrameworkTrace,
    /// DeepContext without native call paths (the paper's default).
    DeepContext,
    /// DeepContext with full native unwinding.
    DeepContextNative,
}

impl ProfilerKind {
    /// Display label (Figure 6 legend).
    pub fn label(self) -> &'static str {
        match self {
            ProfilerKind::None => "no-profiler",
            ProfilerKind::FrameworkTrace => "framework-profiler",
            ProfilerKind::DeepContext => "deepcontext",
            ProfilerKind::DeepContextNative => "deepcontext-native",
        }
    }
}

/// The outcome of one measured run.
#[derive(Debug)]
pub struct MeasuredRun {
    /// Virtual-time statistics from the workload run.
    pub stats: RunStats,
    /// Real (host) wall time of the run loop — the Figure 6a/6b quantity.
    pub real: Duration,
    /// Peak profile memory in bytes (0 when unprofiled) — Figure 6c/6d.
    pub profile_bytes: usize,
    /// The resulting profile (DeepContext configurations only).
    pub profile: Option<ProfileDb>,
}

/// Runs `workload` for `iterations` on a fresh platform under the given
/// configuration.
///
/// # Panics
///
/// Panics if the workload fails to run (benches treat that as fatal).
pub fn measure(
    platform: &DeviceSpec,
    workload: &dyn Workload,
    opts: &WorkloadOptions,
    engine: EngineKind,
    profiler: ProfilerKind,
    iterations: u32,
) -> MeasuredRun {
    let bed = TestBed::new(platform.clone());
    let callbacks = match engine {
        EngineKind::Eager => bed.eager().core().callbacks(),
        EngineKind::Jit => bed.jit().core().callbacks(),
    };

    let run = |bed: &TestBed| -> (RunStats, Duration) {
        let start = Instant::now();
        let stats = match engine {
            EngineKind::Eager => bed.run_eager(workload, opts, iterations),
            EngineKind::Jit => bed.run_jit(workload, opts, iterations),
        }
        .expect("workload run");
        (stats, start.elapsed())
    };

    match profiler {
        ProfilerKind::None => {
            let (stats, real) = run(&bed);
            MeasuredRun {
                stats,
                real,
                profile_bytes: 0,
                profile: None,
            }
        }
        ProfilerKind::FrameworkTrace => {
            let style = match engine {
                EngineKind::Eager => TraceStyle::Torch,
                EngineKind::Jit => TraceStyle::Jax,
            };
            let mut trace = TraceProfiler::new(style);
            trace.attach_framework(callbacks, bed.env().clock().clone());
            trace.attach_gpu(bed.gpu());
            let (stats, real) = run(&bed);
            trace.flush();
            MeasuredRun {
                stats,
                real,
                profile_bytes: trace.approx_bytes(),
                profile: None,
            }
        }
        ProfilerKind::DeepContext | ProfilerKind::DeepContextNative => {
            let monitor = DlMonitor::init(bed.env(), Interner::new());
            monitor.attach_framework(callbacks);
            monitor.attach_gpu(bed.gpu());
            let config = if profiler == ProfilerKind::DeepContext {
                ProfilerConfig::deepcontext()
            } else {
                ProfilerConfig::deepcontext_native()
            };
            let prof = Profiler::attach(config, bed.env(), &monitor, bed.gpu());
            let (stats, real) = run(&bed);
            prof.flush();
            let bytes = prof.stats().peak_bytes;
            let db = prof.finish(ProfileMeta {
                workload: workload.name().into(),
                framework: engine.tag().into(),
                platform: platform.platform_tag(),
                iterations: u64::from(iterations),
                extra: vec![("profiler".into(), profiler.label().into())],
                ..Default::default()
            });
            MeasuredRun {
                stats,
                real,
                profile_bytes: bytes,
                profile: Some(db),
            }
        }
    }
}

/// Convenience: a full DeepContext profile of a workload (used by the
/// view-regeneration binaries and examples).
pub fn deepcontext_profile(
    platform: &DeviceSpec,
    workload: &dyn Workload,
    opts: &WorkloadOptions,
    engine: EngineKind,
    iterations: u32,
) -> ProfileDb {
    measure(
        platform,
        workload,
        opts,
        engine,
        ProfilerKind::DeepContextNative,
        iterations,
    )
    .profile
    .expect("deepcontext run produces a profile")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_models::DlrmSmall;

    #[test]
    fn measure_runs_every_profiler_kind() {
        let opts = WorkloadOptions::default();
        for kind in [
            ProfilerKind::None,
            ProfilerKind::FrameworkTrace,
            ProfilerKind::DeepContext,
            ProfilerKind::DeepContextNative,
        ] {
            let run = measure(
                &DeviceSpec::a100_sxm(),
                &DlrmSmall,
                &opts,
                EngineKind::Eager,
                kind,
                1,
            );
            assert!(run.stats.kernels > 0, "{kind:?}");
            if kind == ProfilerKind::None {
                assert_eq!(run.profile_bytes, 0);
            } else {
                assert!(run.profile_bytes > 0, "{kind:?}");
            }
            assert_eq!(
                run.profile.is_some(),
                matches!(
                    kind,
                    ProfilerKind::DeepContext | ProfilerKind::DeepContextNative
                )
            );
        }
    }

    #[test]
    fn trace_memory_exceeds_deepcontext_memory_over_iterations() {
        let opts = WorkloadOptions::default();
        let iters = 8;
        let trace = measure(
            &DeviceSpec::a100_sxm(),
            &DlrmSmall,
            &opts,
            EngineKind::Eager,
            ProfilerKind::FrameworkTrace,
            iters,
        );
        let dc = measure(
            &DeviceSpec::a100_sxm(),
            &DlrmSmall,
            &opts,
            EngineKind::Eager,
            ProfilerKind::DeepContext,
            iters,
        );
        assert!(
            trace.profile_bytes > dc.profile_bytes,
            "trace {} !> dc {}",
            trace.profile_bytes,
            dc.profile_bytes
        );
    }

    #[test]
    fn jit_runs_measure_too() {
        let run = measure(
            &DeviceSpec::mi250(),
            &DlrmSmall,
            &WorkloadOptions::default(),
            EngineKind::Jit,
            ProfilerKind::DeepContext,
            2,
        );
        assert!(run.stats.kernels > 0);
        let db = measure(
            &DeviceSpec::mi250(),
            &DlrmSmall,
            &WorkloadOptions::default(),
            EngineKind::Jit,
            ProfilerKind::DeepContextNative,
            1,
        )
        .profile
        .unwrap();
        assert_eq!(db.meta().framework, "jit");
        assert_eq!(db.meta().platform, "amd-mi250");
    }
}
