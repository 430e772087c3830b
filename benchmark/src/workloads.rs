//! The four workloads and the ladder of configurations each is climbed
//! through.
//!
//! Each workload exists because it makes a different layer dominate
//! what the user pays; `why` is the one-line reason (`BENCHMARK.json`
//! repeats it, the README gives the long form). Iteration counts are
//! fixed so counts, `profile_kib` and the virtual clock repeat exactly;
//! `--seconds` decides how many whole sessions a run fits.

use deepcontext_core::TimeNs;
use deepcontext_profiler::{ProfilerConfig, TimelineConfig};
use dl_models::{Llama3, MultiStream, ResNet, UNet, Workload};
use dlmonitor::CallPathSources;
use sim_gpu::SamplingConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Eager,
    Jit,
}

impl Engine {
    pub fn tag(self) -> &'static str {
        match self {
            Engine::Eager => "eager",
            Engine::Jit => "jit",
        }
    }
}

/// One level of the leveled-experimentation ladder: each rung enables
/// one more piece of the stack than the rung before it, and the
/// difference in wall time per launch is charged to that piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// `r0` — the workload alone.
    Bare,
    /// `r1` — `DlMonitor` attached to framework and GPU, no subscriber:
    /// shadow-stack upkeep and association records.
    Monitor,
    /// `r2` — plus a benchmark-owned `Domain::Gpu` callback that builds
    /// the call path at the launch sites the profiler filters on and
    /// drops it.
    CallPath,
    /// `r3` — `Profiler::attach`, no CPU sampler, no native frames, no
    /// instruction sampling, no timeline: adds the sink and the
    /// activity path.
    Sink,
    /// `r4` — plus the CPU sampler at the default 100 µs.
    Sampler,
    /// `r5` — plus native call-path sources.
    Native,
    /// `r6` — plus instruction (PC) sampling.
    Fine,
    /// `r7` — `r4` plus timeline recording.
    Timeline,
    /// `r8` — plus the live reads.
    Live,
    /// `rT` — the trace-based framework profiler the paper compares
    /// against; not part of the sum.
    Trace,
    /// `rU` — the workload's full configuration with the benchmark's
    /// spans off: the untraced reference the ladder must add up to.
    Untraced,
}

impl Rung {
    pub fn label(self) -> &'static str {
        match self {
            Rung::Bare => "r0",
            Rung::Monitor => "r1",
            Rung::CallPath => "r2",
            Rung::Sink => "r3",
            Rung::Sampler => "r4",
            Rung::Native => "r5",
            Rung::Fine => "r6",
            Rung::Timeline => "r7",
            Rung::Live => "r8",
            Rung::Trace => "rT",
            Rung::Untraced => "rU",
        }
    }

    /// Whether the rung runs `Profiler::attach`.
    pub fn has_profiler(self) -> bool {
        !matches!(
            self,
            Rung::Bare | Rung::Monitor | Rung::CallPath | Rung::Trace
        )
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: Engine,
    /// A100 devices on the test bed.
    pub devices: usize,
    /// Timed iterations per session; warm-up is a tenth of it.
    pub iterations: u32,
    /// Iterations per chunk (≈ 10 ms of bare work): the granularity at
    /// which the sessions of a round interleave. `live_timeline` draws
    /// its chunks from the seed instead.
    pub chunk: u32,
    pub model: fn() -> Box<dyn Workload>,
    /// The additive rungs from `r0` up to the full configuration, in
    /// climbing order: each one's increment over its predecessor is one
    /// per-layer metric.
    pub ladder: &'static [Rung],
}

impl WorkloadSpec {
    pub fn warmup(&self) -> u32 {
        self.iterations / 10
    }

    /// The workload's full configuration: the top of its ladder.
    pub fn full_rung(&self) -> Rung {
        *self.ladder.last().expect("ladders are never empty")
    }

    /// Whether live reads interleave with the timed iterations.
    pub fn live_reads(&self, rung: Rung) -> bool {
        rung == Rung::Live || (rung == Rung::Untraced && self.full_rung() == Rung::Live)
    }

    /// The profiler configuration of a rung that attaches one. Fields
    /// not named here keep `ProfilerConfig`'s defaults, which — with
    /// every `DEEPCONTEXT_*` variable scrubbed from the environment —
    /// are the ones a user gets.
    pub fn config(&self, rung: Rung) -> ProfilerConfig {
        let rung = if rung == Rung::Untraced {
            self.full_rung()
        } else {
            rung
        };
        let mut config = ProfilerConfig::deepcontext();
        config.timeline = TimelineConfig::default();
        match rung {
            Rung::Sink => config.cpu_time_interval = None,
            Rung::Sampler => {}
            Rung::Native => config.sources = CallPathSources::all(),
            Rung::Fine => {
                config.sources = CallPathSources::all();
                config.instruction_sampling = Some(FINE_SAMPLING);
            }
            Rung::Timeline | Rung::Live => config.timeline = TimelineConfig::enabled(),
            Rung::Bare | Rung::Monitor | Rung::CallPath | Rung::Trace | Rung::Untraced => {
                unreachable!("{} attaches no profiler", rung.label())
            }
        }
        config
    }

    /// The defaults the full configuration resolved to and the CPUs the
    /// measuring process may run on, for a run's header: two results
    /// compare only when these agree.
    pub fn resolved(&self) -> String {
        let config = self.config(Rung::Untraced);
        format!(
            "ingestion_shards {}, ingestion_mode {:?}, launch_batch {}, directory_map {:?}, cpus_allowed {}",
            config.ingestion_shards,
            config.ingestion_mode,
            config.pipeline.launch_batch,
            config.pipeline.directory_map,
            crate::host::cpus_allowed()
        )
    }
}

/// `fine_native`'s PC sampling: dense enough (≈ 10 samples per launch)
/// that instruction attribution outweighs call-path assembly.
const FINE_SAMPLING: SamplingConfig = SamplingConfig {
    period: TimeNs(500),
    max_samples_per_kernel: 2048,
};

/// Live reads on `live_timeline`: one per `PREVIEW_CADENCE` iterations,
/// each moved by up to `PREVIEW_JITTER` (the seed's ±20 %).
pub const PREVIEW_CADENCE: u32 = 500;
pub const PREVIEW_JITTER: u32 = 100;

const COARSE: &[Rung] = &[
    Rung::Bare,
    Rung::Monitor,
    Rung::CallPath,
    Rung::Sink,
    Rung::Sampler,
];

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "eager_llm",
        why: "Many small kernels under deep Python and operator stacks: \
              shadow-stack upkeep and call-path assembly dominate, the sink is a third. \
              Fig. 6a headline.",
        engine: Engine::Eager,
        devices: 1,
        iterations: 400,
        chunk: 10,
        model: || Box::new(Llama3),
        ladder: COARSE,
    },
    WorkloadSpec {
        name: "jit_train",
        why: "Bare launches are 5x cheaper under graph replay, so the same per-launch \
              profiler cost is the Fig. 6b worst case; shadow-stack savings move it less.",
        engine: Engine::Jit,
        devices: 1,
        iterations: 4000,
        chunk: 200,
        model: || Box::new(ResNet),
        ladder: COARSE,
    },
    WorkloadSpec {
        name: "fine_native",
        why: "PC-sample attribution, CCT extension, native unwinding and the CPU sampler \
              do most of the work; call-path assembly is a minority.",
        engine: Engine::Eager,
        devices: 1,
        iterations: 500,
        chunk: 25,
        model: || Box::new(UNet),
        ladder: &[
            Rung::Bare,
            Rung::Monitor,
            Rung::CallPath,
            Rung::Sink,
            Rung::Sampler,
            Rung::Native,
            Rung::Fine,
        ],
    },
    WorkloadSpec {
        name: "live_timeline",
        why: "Reads beside writes: snapshot cache, incremental fold, timeline ring, Chrome \
              export and container round trip dominate; work deferred to read time shows here.",
        engine: Engine::Eager,
        devices: 2,
        iterations: 20_000,
        chunk: PREVIEW_CADENCE,
        model: || Box::new(MultiStream::default()),
        ladder: &[
            Rung::Bare,
            Rung::Monitor,
            Rung::CallPath,
            Rung::Sink,
            Rung::Sampler,
            Rung::Timeline,
            Rung::Live,
        ],
    },
];

pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(w.warmup() >= 1);
            assert_eq!(w.iterations % w.chunk, 0, "{}", w.name);
        }
    }

    #[test]
    fn every_ladder_starts_bare_and_ends_at_a_profiled_rung() {
        for w in &WORKLOADS {
            assert_eq!(w.ladder[0], Rung::Bare);
            assert!(w.full_rung().has_profiler(), "{}", w.name);
            assert!(w.ladder.starts_with(COARSE), "{}", w.name);
        }
    }

    #[test]
    fn full_configurations_match_their_definitions() {
        let full = |name: &str| {
            let w = by_name(name).unwrap();
            w.config(Rung::Untraced)
        };
        for name in ["eager_llm", "jit_train"] {
            let c = full(name);
            assert!(!c.sources.native && c.instruction_sampling.is_none());
            assert!(c.cpu_time_interval.is_some() && !c.timeline.enabled);
        }
        let c = full("fine_native");
        assert!(c.sources.native && c.instruction_sampling == Some(FINE_SAMPLING));
        let c = full("live_timeline");
        assert!(c.timeline.enabled && !c.sources.native);
        // The sink rung is the only one without the CPU sampler.
        let w = by_name("eager_llm").unwrap();
        assert!(w.config(Rung::Sink).cpu_time_interval.is_none());
        assert!(w.config(Rung::Sampler).cpu_time_interval.is_some());
    }
}
