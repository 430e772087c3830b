//! The [`EventSink`] contract and the shared activity-metric mapping.
//!
//! Every collection path of the profiler — GPU launch callbacks, completed
//! activity buffers, CPU samples, PC-sampling records — terminates in an
//! [`EventSink`]. One implementation ships in this crate, the
//! [`ShardedSink`](crate::ShardedSink) (producers attribute inline under
//! per-shard locks); the trait stays so tests and embedders can
//! substitute their own through `Profiler::attach_with_sink`.

use deepcontext_core::{CallingContextTree, CctShard, Frame, MetricKind, NodeId, PathHandle};
use deepcontext_timeline::TimelineSnapshot;
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind};

/// Attributes one activity record's metrics at its resolved context
/// `node` of `shard` — the activity-kind → metric mapping. Inclusive
/// samples wait at the node for the shard's next settle (measurements as
/// aggregates, PC samples as integer counts); launch shapes are
/// exclusive and go to the tree directly. Returns the number of
/// instruction samples attributed (0 for non-sampling records).
pub fn attribute_activity_metrics(shard: &mut CctShard, node: NodeId, activity: &Activity) -> u64 {
    match &activity.kind {
        ActivityKind::Kernel {
            start,
            end,
            blocks,
            warps,
            occupancy,
            shared_mem_per_block,
            registers_per_thread,
            ..
        } => {
            shard.attribute(node, MetricKind::GpuTime, (*end - *start).as_nanos() as f64);
            // In `MetricKind` order: one search of the node's store.
            shard.tree_mut().attribute_exclusive_run(
                node,
                &[
                    (MetricKind::SharedMemPerBlock, *shared_mem_per_block as f64),
                    (
                        MetricKind::RegistersPerThread,
                        f64::from(*registers_per_thread),
                    ),
                    (MetricKind::Occupancy, *occupancy),
                    (MetricKind::Warps, *warps as f64),
                    (MetricKind::Blocks, f64::from(*blocks)),
                ],
            );
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
            // on a handful of PCs, so the last four `pc → child` answers
            // are kept: `seen` misses so far, the newest overwriting the
            // oldest. A miss asks the tree, so children are created in
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
                        let frame = Frame::instruction(sample.pc);
                        let child = shard.tree_mut().insert_child(node, &frame);
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
/// [`launches`](Self::launches) / [`cpu_samples`](Self::cpu_samples)
/// filled in by the profiler's collection callbacks, the whole of
/// `Profiler::stats()` (`ProfilerStats` is this struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Kernel launches observed by the profiler's launch callback (zero
    /// when read straight from a sink).
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

/// Where profiler collection paths deliver their events.
///
/// Implementations must be callable from any producer thread concurrently;
/// the profiler registers one sink and never wraps it in an outer lock.
pub trait EventSink: Send + Sync {
    /// A GPU API call was intercepted at its launch site: bind
    /// `origin.correlation` to the context `path` and (for kernel
    /// launches) count the launch. The context arrives as the handle
    /// DLMonitor assembled (`DlMonitor::callpath_for_gpu(..).handle()`);
    /// tests and replay tools get one from
    /// `Interner::paths().intern(frames)`.
    fn gpu_launch(&self, origin: &EventOrigin, path: PathHandle, api: ApiKind);

    /// A buffer of completed asynchronous activity records, by value:
    /// the GPU runtime's flush paths own the records they deliver.
    fn activity_batch(&self, batch: Vec<Activity>);

    /// A flush boundary completed: the runtime's entire completed-record
    /// backlog has been delivered, so no record referencing an
    /// already-attributed correlation can still be in flight (activity
    /// buffers deliver a kernel's trailing sampling records no later
    /// than the flush that drains the kernel). Sinks may use this to
    /// retire deferred correlation state eagerly and release batch-sized
    /// scratch, keeping resident memory proportional to live state.
    /// Default: no-op.
    fn epoch_complete(&self) {}

    /// A CPU sample (interval timer or hardware-counter overflow) on the
    /// thread identified by `origin`, in the context `path` (see
    /// [`gpu_launch`](Self::gpu_launch)).
    fn cpu_sample(&self, origin: &EventOrigin, path: PathHandle, metric: MetricKind, value: f64);

    /// Folds the sink's state into one calling context tree.
    fn snapshot(&self) -> CallingContextTree;

    /// Runs `f` against a folded snapshot without handing out ownership.
    /// Sinks that cache their fold (see [`ShardedSink`](crate::ShardedSink))
    /// serve this by sharing the cached tree behind an `Arc` refreshed
    /// under the cache lock and *released* before `f` runs, so repeated
    /// analysis previews skip both the re-fold and the clone that
    /// [`snapshot`](Self::snapshot) pays — and concurrent readers
    /// proceed in parallel on one shared snapshot instead of queueing
    /// on the cache lock for the length of every callback.
    fn with_snapshot(&self, f: &mut dyn FnMut(&CallingContextTree)) {
        f(&self.snapshot());
    }

    /// Final snapshot at detach time: like [`snapshot`](Self::snapshot),
    /// but the sink may yield its cached fold by value instead of
    /// cloning, since no further snapshots will be requested.
    fn finish_snapshot(&self) -> CallingContextTree {
        self.snapshot()
    }

    /// The assembled timeline, when the sink records one (`None` when
    /// timeline recording is off — the default — or the sink has no
    /// timeline at all).
    ///
    /// Interval context ids are remapped into the master tree the
    /// snapshot paths observe: the master served by
    /// [`with_snapshot`](Self::with_snapshot) (stable across refreshes —
    /// the fold is append-only).
    fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        None
    }

    /// Current ingestion counters.
    fn counters(&self) -> SinkCounters;

    /// Approximate resident bytes of all ingestion state.
    fn approx_bytes(&self) -> usize;
}
