//! The activity-kind → metric mapping and the sink's counters.

use deepcontext_core::{CctShard, MetricKind, NodeId};
use sim_gpu::{Activity, ActivityKind};

/// Attributes one activity record's metrics at its resolved context
/// `node` of `shard` — the activity-kind → metric mapping. Every sample
/// waits at the row for the shard's next settle, which carries it
/// root-ward (measurements as aggregates, PC samples as integer counts).
/// Returns the number of instruction samples attributed (0 for
/// non-sampling records).
pub(crate) fn attribute_activity_metrics(
    shard: &mut CctShard,
    node: NodeId,
    activity: &Activity,
) -> u64 {
    match &activity.kind {
        ActivityKind::Kernel { start, end, .. } => {
            shard.attribute(node, MetricKind::GpuTime, (*end - *start).as_nanos() as f64);
            0
        }
        ActivityKind::Memcpy {
            bytes, start, end, ..
        } => {
            shard.attribute(node, MetricKind::MemcpyBytes, *bytes as f64);
            shard.attribute(
                node,
                MetricKind::MemcpyTime,
                (*end - *start).as_nanos() as f64,
            );
            0
        }
        ActivityKind::Malloc { bytes, .. } => {
            shard.attribute(node, MetricKind::GpuAllocBytes, *bytes as f64);
            0
        }
        ActivityKind::Free { .. } => 0,
        ActivityKind::PcSampling { samples, .. } => {
            // Extend the kernel's call path with per-PC instruction frames
            // (paper §4.2: "we will extend the call path by inserting the
            // PC of each instruction collected"). A record's samples fall
            // on a handful of PCs, so the last four `pc → row` answers
            // are kept: `seen` misses so far, the newest overwriting the
            // oldest. A miss asks the shard, so rows are appended in
            // first-appearance order whatever the memo forgot.
            let mut memo = [(0u64, node); 4];
            let mut seen = 0usize;
            for sample in samples {
                let known = memo[..seen.min(memo.len())]
                    .iter()
                    .find(|(pc, _)| *pc == sample.pc);
                let child = match known {
                    Some(&(_, child)) => child,
                    None => {
                        let child = shard.instruction(node, sample.pc);
                        memo[seen % memo.len()] = (sample.pc, child);
                        seen += 1;
                        child
                    }
                };
                shard.count(child, MetricKind::InstructionSamples, 1);
                shard.count(child, MetricKind::Stall(sample.stall), 1);
            }
            samples.len() as u64
        }
    }
}

/// Monotonic counters a sink maintains while ingesting — and, with
/// [`cpu_samples`](Self::cpu_samples) filled in by the profiler's
/// samplers, the whole of `Profiler::stats()` (`ProfilerStats` is this
/// struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Kernel launches ingested: the cached master root's `KernelLaunches`
    /// total plus each shard's undrained root's, settled by the read.
    pub launches: u64,
    /// CPU samples observed by the profiler's samplers (zero when read
    /// straight from a sink).
    pub cpu_samples: u64,
    /// Activity records attributed.
    pub activities: u64,
    /// Instruction samples attributed.
    pub instruction_samples: u64,
    /// Records that fell back to the `<unattributed>` catch-all context.
    pub orphans: u64,
    /// Peak approximate profile bytes observed at batch boundaries (and,
    /// through `Profiler::stats()`, at the read itself).
    pub peak_bytes: usize,
    /// Shard folds performed while refreshing snapshots (a cold snapshot
    /// folds every shard; warm ones fold only dirty shards).
    pub snapshot_merges: u64,
    /// Shards skipped by snapshot refreshes because their dirty
    /// generation had not advanced — direct evidence the snapshot cache
    /// is being hit.
    pub shards_skipped: u64,
    /// Wall-clock nanoseconds snapshot reads spent refreshing the cache,
    /// counting only refreshes that folded at least one shard — what a
    /// live read costs the profiler.
    pub fold_ns: u64,
    /// Kernel/memcpy intervals recorded into the timeline rings (zero
    /// when `ProfilerConfig::timeline` is off).
    pub timeline_intervals: u64,
    /// Timeline intervals evicted by ring overflow — when non-zero, the
    /// timeline is a trailing window of the run, not the whole run.
    pub timeline_dropped: u64,
    /// Vestigial, always 0: inline attribution has no queue to drop
    /// from. Read only by the frozen repo benchmark
    /// (`benchmark/src/{session,ladder}.rs`); removed by the
    /// benchmark-archetype issue that re-cuts its checks.
    pub dropped_events: u64,
    /// Vestigial, always 0: there is no worker to quarantine. Read only
    /// by the frozen repo benchmark (`benchmark/src/session.rs`);
    /// removed with [`dropped_events`](Self::dropped_events).
    pub poisoned_events: u64,
}
