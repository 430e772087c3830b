//! The sharded event-ingestion sink.
//!
//! One global tree behind one lock would cap ingestion at one core no
//! matter how many workload threads produce events. [`ShardedSink`]
//! removes that ceiling, and moves contexts **by handle** end to end:
//!
//! * a launch or CPU sample arrives with the [`PathHandle`] DLMonitor
//!   assembled for its calling context and is routed to one of N
//!   [`CctShard`]s **before** any lock is taken, keyed by the originating
//!   thread and stream ([`EventOrigin::route_key`]); the shard turns the
//!   handle into its own node with one read of a dense vector
//!   ([`CctShard::node_for`]);
//! * the correlation [directory](crate::directory) is the one
//!   correlation table: a launch binds `corr → (shard, PathId)`, an
//!   activity record finds both in one lookup, retirement (the two-phase
//!   prune) is one remove, and no lock is ever taken while another is
//!   held;
//! * snapshots fold the shards into one master tree and **cache** the
//!   result: every shard carries a dirty generation
//!   ([`CctShard::generation`]) advanced by each tree mutation, and a
//!   refresh re-folds only shards whose generation moved — via
//!   [`CallingContextTree::merge_incremental`], which resumes the
//!   per-shard node mapping and folds per-node metric deltas. Clean
//!   shards are skipped outright, so a warm snapshot costs O(dirty
//!   shards) instead of O(shards × tree).
//!   [`ShardedSink::snapshot_uncached`] keeps the historical full fold
//!   as baseline and test oracle. Memory-tight deployments can disable
//!   the cache entirely ([`SinkOptions::snapshot_cache`]): snapshots
//!   then re-fold every shard per request and the sink holds no second
//!   copy of the profile.
//!
//! Inclusive samples are **attributed at the node and settled at the
//! boundary**: every ingestion path hands its samples to
//! [`CctShard::count`] (a launch, a PC sample and its stall: one integer
//! add each) or [`CctShard::attribute`] (a measurement), and the shard is
//! [settled](CctShard::settle) — one bottom-up sweep, in the order
//! `core/src/shard.rs` states — under the shard lock wherever its tree is
//! about to be observed or its bytes measured: the end of every activity
//! batch, every flush boundary, every fold (cached, uncached, timeline)
//! and [`EventSink::approx_bytes`]. Nothing outside a shard lock ever
//! sees a tree that is not fully inclusive, so the folds, the cache and
//! the fold states are unaware of the deferral.
//!
//! [`EventOrigin::route_key`]: dlmonitor::EventOrigin::route_key

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use deepcontext_core::failpoint::sites as fp_sites;
use deepcontext_core::{
    CallingContextTree, CctShard, Failpoints, FoldState, Interner, Interval, IntervalKind,
    MetricKind, NodeId, PathHandle, PathId, Sym, TimeNs, TrackKey,
};
use deepcontext_telemetry::{
    journal_sites, Journal, JournalConfig, JournalSeverity, TelemetryConfig,
};
use deepcontext_timeline::{TimelineConfig, TimelineSink, TimelineSnapshot};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind};

use crate::directory::{mix, Binding, StripedHashDirectory, DIR_ENTRY_BYTES};
use crate::self_telemetry::PipelineTelemetry;
use crate::sink::{attribute_activity_metrics, EventSink, SinkCounters};

/// The memoized fold of all shards: the merged master tree, the
/// per-shard [`FoldState`] it was built through, and the shard dirty
/// generations it reflects. Refreshing re-folds **only** shards whose
/// generation advanced; the rest are skipped without touching their
/// trees, turning repeated snapshots from O(shards × tree) into
/// O(dirty shards).
///
/// The master lives behind an `Arc` so concurrent `with_snapshot`
/// readers *share* the refreshed tree: each reader clones the handle
/// under the cache mutex and runs its callback outside it, so many
/// analysis readers proceed in parallel instead of queueing on one lock
/// for the length of every callback. Refreshes mutate through
/// [`Arc::make_mut`]: while no reader holds the previous snapshot this
/// is in-place; a refresh racing a long-lived reader copies the tree
/// once and leaves the reader's view untouched (readers are never
/// blocked, and never observe a half-refreshed fold).
struct SnapshotCache {
    master: Arc<CallingContextTree>,
    folds: Vec<FoldState>,
    /// Generation folded per shard; `u64::MAX` = never folded (shard
    /// generations start at 0, so the first refresh folds everything).
    generations: Vec<u64>,
}

impl SnapshotCache {
    fn empty(interner: &Arc<Interner>, shards: usize) -> Self {
        SnapshotCache {
            master: Arc::new(CallingContextTree::with_interner(Arc::clone(interner))),
            folds: (0..shards).map(|_| FoldState::new()).collect(),
            generations: vec![u64::MAX; shards],
        }
    }
}

/// Everything [`ShardedSink::with`] can be told. The [`Default`] is what
/// [`ShardedSink::new`] builds (at 16 shards, the profiler's default
/// layout).
#[derive(Debug, Clone)]
pub struct SinkOptions {
    /// Shard count (clamped to at least one).
    pub shards: usize,
    /// Whether snapshots go through the incremental cache. `false`
    /// trades warm-snapshot latency for not holding a merged second copy
    /// of the profile.
    pub snapshot_cache: bool,
    /// Timeline recording: when enabled, every kernel/memcpy record
    /// attributed by the sink also appends a context-tagged interval to
    /// a bounded per-shard ring (see [`EventSink::timeline_snapshot`]).
    pub timeline: TimelineConfig,
    /// Self-telemetry: when enabled, the sink registers its instruments
    /// once and records shard-lock hold times, snapshot fold latencies,
    /// and interner/ring occupancy as it runs; when additionally
    /// `self_timeline` and the timeline are on, folds are recorded as
    /// intervals on the reserved [`TrackKey::SELF_DEVICE`] track so the
    /// exported trace shows the profiler's own execution.
    pub telemetry: TelemetryConfig,
    /// The incident journal: when enabled, the sink builds the ring —
    /// attached to the same telemetry session as its own instruments, so
    /// journal timestamps, self-timeline intervals and the
    /// `deepcontext_journal_*` counters share one clock/registry — and
    /// records the barrier-anchored flush-boundary event at every
    /// [`EventSink::epoch_complete`]. The profiler picks the handle up
    /// from [`ShardedSink::journal`] for failpoint fires and hands it to
    /// the profile store for retries — one causally ordered record per
    /// run.
    pub journal: JournalConfig,
    /// Fault-injection registry for the directory-bind and snapshot-fold
    /// stall sites. The default parses the `DEEPCONTEXT_FAILPOINTS`
    /// environment spec into a registry of this sink's own; tests pass
    /// an explicit one.
    pub failpoints: Failpoints,
}

impl Default for SinkOptions {
    fn default() -> Self {
        SinkOptions {
            shards: 16,
            snapshot_cache: true,
            timeline: TimelineConfig::default(),
            telemetry: TelemetryConfig::default(),
            journal: JournalConfig::default(),
            failpoints: Failpoints::from_env(),
        }
    }
}

/// The sharded [`EventSink`] (see the [module docs](self)).
pub struct ShardedSink {
    interner: Arc<Interner>,
    shards: Vec<Mutex<CctShard>>,
    /// Whether snapshots go through the incremental cache. Off for
    /// memory-tight deployments: every snapshot is then a full fold and
    /// the sink never holds a second copy of the profile.
    cache_enabled: bool,
    /// Cached incremental snapshot; `None` until the first snapshot is
    /// requested (and again after `finish_snapshot` consumes it).
    cache: Mutex<Option<SnapshotCache>>,
    /// Per-shard bounded interval rings, recorded while kernel/memcpy
    /// records are attributed (i.e. under the shard lock). `None` when
    /// timeline recording is off — the aggregate-only pipeline then pays
    /// nothing for it.
    timeline: Option<TimelineSink>,
    /// The one correlation table: correlation id -> the shard and
    /// context it was launched in. Lock-striped by correlation hash, so
    /// binding and resolving rarely contend.
    directory: StripedHashDirectory,
    /// The interned `"memcpy"` display name, so memcpy records skip even
    /// the thread-local intern cache on the timeline tap.
    memcpy_sym: Sym,
    /// Self-telemetry instruments (`None` = telemetry off, the default;
    /// every instrumentation site is then a single `Option` branch).
    telemetry: Option<Arc<PipelineTelemetry>>,
    /// Deterministic fault-injection registry (directory-bind and
    /// snapshot-fold stall sites live in this sink). Disabled unless the
    /// `DEEPCONTEXT_FAILPOINTS` spec names one of them; every check is
    /// then one branch on an empty list.
    failpoints: Failpoints,
    /// The incident journal (`None` = journaling off, the default). The
    /// sink itself records only the flush-boundary event.
    journal: Option<Arc<Journal>>,
    /// Last-known `CctShard::approx_bytes` per shard, refreshed while the
    /// shard lock is already held at batch boundaries, so peak tracking
    /// never sweeps every shard lock.
    shard_bytes: Vec<AtomicUsize>,
    activities: AtomicU64,
    instruction_samples: AtomicU64,
    orphans: AtomicU64,
    peak_bytes: AtomicUsize,
    snapshot_merges: AtomicU64,
    shards_skipped: AtomicU64,
}

impl ShardedSink {
    /// Creates a sink with `shard_count` shards (clamped to at least one)
    /// sharing `interner` and every other [`SinkOptions`] default.
    pub fn new(interner: Arc<Interner>, shard_count: usize) -> Arc<Self> {
        ShardedSink::with(
            interner,
            SinkOptions {
                shards: shard_count,
                ..SinkOptions::default()
            },
        )
    }

    /// Creates a sink from explicit [`SinkOptions`].
    pub fn with(interner: Arc<Interner>, options: SinkOptions) -> Arc<Self> {
        let n = options.shards.max(1);
        let telemetry = PipelineTelemetry::from_config(&options.telemetry, &interner);
        let journal = Journal::from_config(
            &options.journal,
            &interner,
            telemetry.as_deref().map(|t| t.handle()),
        );
        Arc::new(ShardedSink {
            telemetry,
            failpoints: options.failpoints,
            journal,
            timeline: options
                .timeline
                .enabled
                .then(|| TimelineSink::new(n, &options.timeline)),
            shards: (0..n)
                .map(|_| Mutex::new(CctShard::new(Arc::clone(&interner))))
                .collect(),
            directory: StripedHashDirectory::new(n),
            shard_bytes: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            cache_enabled: options.snapshot_cache,
            cache: Mutex::new(None),
            memcpy_sym: interner.intern("memcpy"),
            interner,
            activities: AtomicU64::new(0),
            instruction_samples: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
            peak_bytes: AtomicUsize::new(0),
            snapshot_merges: AtomicU64::new(0),
            shards_skipped: AtomicU64::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The interner shared by every shard.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Whether the incremental snapshot cache is enabled.
    pub fn snapshot_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Whether kernel/memcpy intervals are being recorded into timeline
    /// rings.
    pub fn timeline_enabled(&self) -> bool {
        self.timeline.is_some()
    }

    /// The self-telemetry instruments, when telemetry is enabled. The
    /// profiler snapshots [`PipelineTelemetry::handle`] for health
    /// reports and exports.
    pub fn telemetry(&self) -> Option<&Arc<PipelineTelemetry>> {
        self.telemetry.as_ref()
    }

    /// The incident journal, when journaling is enabled. The profiler
    /// picks the handle up from here so every layer appends to one
    /// causally ordered record.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The fault-injection registry this sink consults. The profiler
    /// installs its fire observer here so injected faults land in the
    /// incident journal.
    pub fn failpoints(&self) -> &Failpoints {
        &self.failpoints
    }

    /// Records one self-timeline interval (`[start_ns, end_ns)` in the
    /// telemetry clock domain) onto the reserved self track `stream`.
    /// A no-op unless telemetry, its self-timeline switch, *and* the
    /// timeline rings are all on.
    fn record_self_interval(&self, stream: u32, start_ns: u64, end_ns: u64, name: Sym) {
        let (Some(telemetry), Some(timeline)) = (&self.telemetry, &self.timeline) else {
            return;
        };
        if !telemetry.self_timeline_enabled() {
            return;
        }
        // Self intervals ride the ring of the shard the stream hashes
        // to, spreading the (tiny) self-traffic across rings instead of
        // hot-spotting shard 0.
        let idx = stream as usize % self.shards.len();
        timeline.record(
            idx,
            Interval {
                track: TrackKey::self_track(stream),
                start: TimeNs(start_ns),
                end: TimeNs(end_ns),
                kind: IntervalKind::Kernel,
                name,
                correlation: 0,
                context: None,
            },
        );
    }

    /// Starts a shard-lock hold-time measurement (`None` when telemetry
    /// is off). Pair with [`note_lock_hold`](Self::note_lock_hold)
    /// before the guard drops.
    fn lock_hold_start(&self) -> Option<u64> {
        self.telemetry.as_ref().map(|t| t.now_ns())
    }

    /// Completes a shard-lock hold-time measurement.
    fn note_lock_hold(&self, start: Option<u64>) {
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.shard_lock_hold.record(t.now_ns().saturating_sub(start));
        }
    }

    /// Refreshes the interner / timeline-ring occupancy gauges. Called
    /// from epoch boundaries (cold path — sizing the rings takes their
    /// locks).
    fn note_occupancy(&self) {
        if let Some(t) = &self.telemetry {
            t.interner_bytes.set(self.interner.approx_bytes() as u64);
            t.ring_bytes.set(
                self.timeline
                    .as_ref()
                    .map(TimelineSink::approx_bytes)
                    .unwrap_or(0) as u64,
            );
        }
    }

    /// Number of shards that have recorded anything — used by routing
    /// tests to assert that multi-stream workloads actually spread.
    pub fn shards_occupied(&self) -> usize {
        self.shards.iter().filter(|s| !s.lock().is_empty()).count()
    }

    /// Correlations in flight (bound by a launch and not yet retired) —
    /// introspection for retirement tests and leak diagnostics.
    pub fn correlation_entries(&self) -> usize {
        self.directory.len()
    }

    /// Locks shard `idx` and settles it: the only way a shard's tree is
    /// read for a fold or sized for the memory report.
    fn settled(&self, idx: usize) -> MutexGuard<'_, CctShard> {
        let mut shard = self.shards[idx].lock();
        shard.settle();
        shard
    }

    /// Closes a boundary on shard `idx` (held locked by the caller):
    /// everything attributed since the last one — records, and the
    /// launches and CPU samples before them — reaches its ancestors,
    /// and only then is the shard sized for peak accounting.
    fn close_boundary(&self, idx: usize, shard: &mut CctShard) {
        shard.settle();
        self.shard_bytes[idx].store(shard.approx_bytes(), Ordering::Relaxed);
    }

    fn index_for(&self, key: u64) -> usize {
        (mix(key) % self.shards.len() as u64) as usize
    }

    /// The shard an event from `origin` routes to, keyed by
    /// [`EventOrigin::route_key`]: thread **and** stream for launches (a
    /// single thread fanning work over many streams spreads across
    /// shards), thread alone for CPU samples, correlation id for
    /// identity-less events, shard 0 as the last resort.
    pub fn route(&self, origin: &EventOrigin) -> usize {
        match origin.route_key() {
            Some(key) => self.index_for(key),
            None => 0,
        }
    }

    /// Where each record of `batch` goes and the context it resolves to,
    /// in order: one directory lookup gives both. A kernel's sampling
    /// record sits next to its kernel record, so a record with its
    /// predecessor's correlation reuses the predecessor's answer.
    fn resolve(&self, batch: &[Activity]) -> Vec<(usize, Option<PathId>)> {
        let mut resolved: Vec<(usize, Option<PathId>)> = Vec::with_capacity(batch.len());
        for (k, activity) in batch.iter().enumerate() {
            let corr = activity.correlation_id.0;
            let answer = if k > 0 && batch[k - 1].correlation_id.0 == corr {
                resolved[k - 1]
            } else {
                let binding = self.directory.lookup(corr);
                (self.home_of(corr, binding), binding.map(|b| b.path))
            };
            resolved.push(answer);
        }
        resolved
    }

    /// Retires a shard's pruned correlations from the directory.
    fn retire(&self, pruned: &[u64]) {
        for corr in pruned {
            self.directory.remove(*corr);
        }
    }

    /// The shard a record goes to: the one its launch was bound in while
    /// that is still in flight, the correlation-hash shard otherwise.
    fn home_of(&self, correlation: u64, binding: Option<Binding>) -> usize {
        binding.map_or_else(|| self.index_for(correlation), |b| b.shard as usize)
    }

    /// The shard an activity record for `correlation` should be applied
    /// at.
    pub fn route_activity(&self, correlation: u64) -> usize {
        self.home_of(correlation, self.directory.lookup(correlation))
    }

    /// The interval a kernel/memcpy activity record contributes to the
    /// timeline, tagged with the context `node` it was attributed to
    /// (shard-local; snapshots remap it into the master tree). Other
    /// record kinds carry no device-time window and record nothing.
    ///
    /// This is the recording tap's only contact with the kernel name,
    /// and it avoids even a hash of it on the hot path: a resolved
    /// launch's leaf frame is the `GpuKernel` frame whose name `Sym`
    /// the launch path already interned, so the tap reuses that handle
    /// — one node read, no lock, no clone, no allocation. (Kernel
    /// frames collapse by `(module, pc)`, so the symbol is the code
    /// location's first-seen name — the same convention every CCT view
    /// renders.) Orphaned records, whose node is not a kernel frame,
    /// fall back to interning the record's own name through the calling
    /// thread's local cache ([`Interner::intern_cached`]); memcpys
    /// reuse the pre-interned symbol outright.
    fn interval_of(&self, shard: &CctShard, activity: &Activity, node: NodeId) -> Option<Interval> {
        match &activity.kind {
            ActivityKind::Kernel {
                name,
                stream,
                start,
                end,
                ..
            } => Some(Interval {
                track: TrackKey {
                    device: activity.device.0,
                    stream: stream.0,
                },
                start: *start,
                end: *end,
                kind: IntervalKind::Kernel,
                name: shard
                    .tree()
                    .node(node)
                    .frame()
                    .gpu_kernel_name()
                    .unwrap_or_else(|| self.interner.intern_cached(name)),
                correlation: activity.correlation_id.0,
                context: Some(node),
            }),
            ActivityKind::Memcpy {
                stream, start, end, ..
            } => Some(Interval {
                track: TrackKey {
                    device: activity.device.0,
                    stream: stream.0,
                },
                start: *start,
                end: *end,
                kind: IntervalKind::Memcpy,
                name: self.memcpy_sym,
                correlation: activity.correlation_id.0,
                context: Some(node),
            }),
            ActivityKind::Malloc { .. }
            | ActivityKind::Free { .. }
            | ActivityKind::PcSampling { .. } => None,
        }
    }

    /// Attributes one activity record inside its home shard (`idx`) at
    /// the context the directory resolved for it (`None`: the catch-all),
    /// recording the record's device interval into the shard's timeline
    /// ring when recording is on. Returns `(orphaned, instruction
    /// samples)`.
    fn attribute_activity(
        &self,
        idx: usize,
        shard: &mut CctShard,
        activity: &Activity,
        path: Option<PathId>,
    ) -> (bool, u64) {
        let (node, orphaned) = shard.node_or_orphan(path);
        if let Some(timeline) = &self.timeline {
            if let Some(interval) = self.interval_of(shard, activity, node) {
                timeline.record(idx, interval);
            }
        }
        let samples = attribute_activity_metrics(shard, node, activity);
        // Sampling records keep their correlation live for the kernel
        // record that follows them; terminal record kinds retire it.
        if !matches!(activity.kind, ActivityKind::PcSampling { .. }) {
            shard.defer_prune(activity.correlation_id.0);
        }
        (orphaned, samples)
    }

    /// The shard half of a CPU sample: one vector read for the node, one
    /// sample.
    fn attribute_at(shard: &mut CctShard, path: PathId, metric: MetricKind, value: f64) {
        let node = shard.node_for(path);
        shard.attribute(node, metric, value);
    }

    /// The shard half of a launch: the context exists from the launch on
    /// (whatever the API), and kernel launches are counted.
    fn insert_launch(shard: &mut CctShard, path: PathId, api: ApiKind) {
        let node = shard.node_for(path);
        if api == ApiKind::LaunchKernel {
            shard.count(node, MetricKind::KernelLaunches, 1);
        }
    }

    /// Applies one bucket of activity records — each with the context the
    /// directory resolved for it — at shard `idx` under one shard-lock
    /// acquisition, and ends one two-phase-prune batch: correlations
    /// attributed in the shard's *previous* batch are retired from the
    /// directory now, so sampling records straddling a buffer boundary
    /// still resolve. The directory is read before and written after the
    /// shard lock, never under it.
    fn apply_resolved<'a>(
        &self,
        idx: usize,
        records: impl Iterator<Item = (&'a Activity, Option<PathId>)>,
    ) {
        let (mut activities, mut orphans, mut samples) = (0u64, 0u64, 0u64);
        let pruned = {
            let mut shard = self.shards[idx].lock();
            let hold = self.lock_hold_start();
            for (activity, path) in records {
                let (orphaned, sampled) = self.attribute_activity(idx, &mut shard, activity, path);
                activities += 1;
                orphans += u64::from(orphaned);
                samples += sampled;
            }
            let pruned = shard.end_batch();
            self.close_boundary(idx, &mut shard);
            self.note_lock_hold(hold);
            pruned
        };
        self.retire(&pruned);
        // One update per bucket, not per record.
        self.activities.fetch_add(activities, Ordering::Relaxed);
        self.orphans.fetch_add(orphans, Ordering::Relaxed);
        self.instruction_samples
            .fetch_add(samples, Ordering::Relaxed);
    }

    /// The per-shard portion of [`EventSink::epoch_complete`]: retires the
    /// shard's deferred correlations (every straggler has been delivered
    /// by the flush boundary) and releases batch-sized scratch.
    fn epoch_complete_shard(&self, idx: usize) {
        let pruned = {
            let mut shard = self.shards[idx].lock();
            // Every deferred correlation's trailing records have been
            // delivered by now, so one extra epoch retires them all.
            let pruned = shard.end_batch();
            shard.trim();
            // Launch- and sample-only shards see no activity batch: the
            // flush boundary is where their samples walk root-ward.
            self.close_boundary(idx, &mut shard);
            pruned
        };
        self.retire(&pruned);
    }

    /// Sheds the directory stripes' high-water capacity — the cross-shard
    /// portion of a flush boundary, run after every shard's
    /// [`epoch_complete_shard`](Self::epoch_complete_shard) — and
    /// refreshes the occupancy gauges at the same cadence.
    fn trim_directory(&self) {
        self.directory.trim();
        self.note_occupancy();
    }

    /// Brings the snapshot cache up to date: folds every shard whose
    /// dirty generation advanced since the last refresh and skips the
    /// rest. Each shard lock is held only while that one shard is
    /// inspected/folded (cache → shard is the only lock order involving
    /// the cache, so ingestion never deadlocks against refreshes).
    fn refresh_cache(&self, cache: &mut Option<SnapshotCache>) {
        self.failpoints.stall_at(fp_sites::FOLD_STALL, 0);
        let cache =
            cache.get_or_insert_with(|| SnapshotCache::empty(&self.interner, self.shards.len()));
        let fold_start = self.telemetry.as_ref().map(|t| t.now_ns());
        let mut folded = 0u32;
        for idx in 0..self.shards.len() {
            let shard = self.settled(idx);
            let generation = shard.generation();
            if cache.generations[idx] == generation {
                self.shards_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Copy-on-write only when a reader still holds the previous
            // snapshot handle; clean refreshes never reach this line, so
            // an idle profile costs nothing.
            Arc::make_mut(&mut cache.master).merge_incremental(shard.tree(), &mut cache.folds[idx]);
            cache.generations[idx] = generation;
            self.snapshot_merges.fetch_add(1, Ordering::Relaxed);
            folded += 1;
        }
        if let (Some(t), Some(start)) = (&self.telemetry, fold_start) {
            // Clean refreshes (every shard skipped) stay out of the fold
            // histogram — they would drown the signal in near-zeros.
            if folded > 0 {
                let end = t.now_ns();
                t.fold_latency.record(end.saturating_sub(start));
                self.record_self_interval(TrackKey::SELF_STREAM_FOLD, start, end, t.fold_sym);
            }
        }
    }

    /// Folds all shards into a fresh master tree, bypassing the snapshot
    /// cache — the historical O(shards × tree) path, kept as the
    /// benchmark baseline, as the oracle the `cached == fresh`
    /// equivalence tests compare against, and as the only snapshot path
    /// when the cache is disabled.
    pub fn snapshot_uncached(&self) -> CallingContextTree {
        let mut master = CallingContextTree::with_interner(Arc::clone(&self.interner));
        for idx in 0..self.shards.len() {
            master.merge(self.settled(idx).tree());
        }
        master
    }

    /// Records the current approximate profile size into the peak, using
    /// the per-shard byte estimates refreshed at batch boundaries — no
    /// cross-shard locking on the ingestion hot path.
    fn note_peak(&self) {
        let shard_bytes: usize = self
            .shard_bytes
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        let bytes =
            shard_bytes + self.directory.len() * DIR_ENTRY_BYTES + self.interner.approx_bytes();
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }
}

impl EventSink for ShardedSink {
    fn gpu_launch(&self, origin: &EventOrigin, path: PathHandle, api: ApiKind) {
        let idx = self.route(origin);
        Self::insert_launch(&mut self.shards[idx].lock(), path.id(), api);
        if let Some(corr) = origin.correlation {
            self.failpoints
                .stall_at(fp_sites::DIR_BIND_STALL, idx as u64);
            let binding = Binding {
                shard: idx as u32,
                path: path.id(),
            };
            self.directory.bind(corr.0, binding);
        }
    }

    fn activity_batch(&self, batch: Vec<Activity>) {
        if batch.is_empty() {
            return;
        }
        // Resolve every record once — its home shard and its context come
        // out of the same directory lookup — then walk the batch once per
        // shard that appears in it, ascending, taking that shard's lock
        // once. Records are applied from the borrow: nothing is cloned or
        // moved on this path.
        let resolved = self.resolve(&batch);
        let homes = || resolved.iter().map(|(home, _)| *home);
        let mut next = homes().min();
        while let Some(idx) = next {
            let here = batch.iter().zip(&resolved).filter(|(_, r)| r.0 == idx);
            self.apply_resolved(idx, here.map(|(activity, r)| (activity, r.1)));
            next = homes().filter(|home| *home > idx).min();
        }
        self.note_peak();
    }

    fn cpu_sample(&self, origin: &EventOrigin, path: PathHandle, metric: MetricKind, value: f64) {
        // The shard's byte estimate is deliberately *not* refreshed here:
        // sample-only shards enter peak accounting at flush boundaries
        // (their `epoch_complete_shard`), keeping the per-sample hot path
        // O(1).
        let mut shard = self.shards[self.route(origin)].lock();
        Self::attribute_at(&mut shard, path.id(), metric, value);
    }

    fn epoch_complete(&self) {
        for idx in 0..self.shards.len() {
            self.epoch_complete_shard(idx);
        }
        // Directory stripes shed their high-water capacity too.
        self.trim_directory();
        // One journal event per flush boundary (the equivalence suite
        // counts them).
        if let Some(journal) = &self.journal {
            journal.record(JournalSeverity::Info, journal_sites::PIPELINE_EPOCH, &[]);
        }
    }

    fn snapshot(&self) -> CallingContextTree {
        if !self.cache_enabled {
            return self.snapshot_uncached();
        }
        // Trees only: prune queues stay behind in the shards, so the fold
        // skips `CctShard::merge_from`'s remapping work. The fold is
        // cached and refreshed incrementally: clean shards are skipped
        // outright.
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache);
        CallingContextTree::clone(&cache.as_ref().expect("cache refreshed").master)
    }

    fn with_snapshot(&self, f: &mut dyn FnMut(&CallingContextTree)) {
        if !self.cache_enabled {
            f(&self.snapshot_uncached());
            return;
        }
        // Clone the refreshed master's *handle* under the cache mutex,
        // then run the callback outside it: concurrent readers share one
        // snapshot instead of queueing on the cache lock for the length
        // of every callback, and a callback may safely re-enter this
        // sink's snapshot APIs.
        let master = {
            let mut cache = self.cache.lock();
            self.refresh_cache(&mut cache);
            Arc::clone(&cache.as_ref().expect("cache refreshed").master)
        };
        f(&master);
    }

    fn finish_snapshot(&self) -> CallingContextTree {
        if !self.cache_enabled {
            return self.snapshot_uncached();
        }
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache);
        let master = cache.take().expect("cache refreshed").master;
        // Unwrap the handle without copying unless a reader still holds
        // the final snapshot.
        Arc::try_unwrap(master).unwrap_or_else(|shared| CallingContextTree::clone(&shared))
    }

    fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        let timeline = self.timeline.as_ref()?;
        let tables: Vec<Arc<[NodeId]>> = if self.cache_enabled {
            // Refresh the cached master first: the fold is append-only,
            // so every interval context recorded so far has a slot in
            // the per-shard fold mappings, and the remapped ids index
            // into exactly the tree `snapshot`/`with_snapshot` serve.
            // The mappings are copied out (4 bytes per folded node) so
            // the snapshot keeps resolving against this fold after the
            // cache moves on, and the cache mutex is released before
            // the rings are locked.
            let mut cache = self.cache.lock();
            self.refresh_cache(&mut cache);
            let cache = cache.as_ref().expect("cache refreshed");
            cache.folds.iter().map(|f| f.mapping().into()).collect()
        } else {
            // No cache to borrow mappings from: run one deterministic
            // fold (same shard order as `snapshot_uncached`, so the ids
            // match an uncached snapshot taken at the same quiesce
            // point) purely to learn the shard → master node mappings.
            let mut master = CallingContextTree::with_interner(Arc::clone(&self.interner));
            (0..self.shards.len())
                .map(|idx| master.merge(self.settled(idx).tree()).into())
                .collect()
        };
        Some(
            timeline
                .snapshot_with(&tables)
                // One symbol-table capture per snapshot (not per
                // interval): exporters resolve `Sym` names by index.
                .with_names(self.interner.snapshot()),
        )
    }

    fn counters(&self) -> SinkCounters {
        let timeline = self
            .timeline
            .as_ref()
            .map(|t| t.counters())
            .unwrap_or_default();
        SinkCounters {
            activities: self.activities.load(Ordering::Relaxed),
            instruction_samples: self.instruction_samples.load(Ordering::Relaxed),
            orphans: self.orphans.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            snapshot_merges: self.snapshot_merges.load(Ordering::Relaxed),
            shards_skipped: self.shards_skipped.load(Ordering::Relaxed),
            timeline_intervals: timeline.recorded,
            timeline_dropped: timeline.dropped,
            ..SinkCounters::default()
        }
    }

    fn approx_bytes(&self) -> usize {
        // The snapshot cache (cached master tree + per-shard fold state)
        // is tool memory too — once an analysis session opens, it holds
        // roughly another copy of the profile.
        let cache_bytes: usize = self
            .cache
            .lock()
            .as_ref()
            .map(|c| {
                c.master.approx_tree_bytes()
                    + c.folds.iter().map(FoldState::approx_bytes).sum::<usize>()
            })
            .unwrap_or(0);
        let shard_bytes: usize = (0..self.shards.len())
            .map(|idx| self.settled(idx).approx_bytes())
            .sum();
        let dir_bytes = self.directory.approx_bytes();
        // Timeline rings are ingestion state too (bounded by
        // ring_capacity × shards, allocated lazily).
        let timeline_bytes = self
            .timeline
            .as_ref()
            .map(TimelineSink::approx_bytes)
            .unwrap_or(0);
        shard_bytes + dir_bytes + cache_bytes + timeline_bytes + self.interner.approx_bytes()
    }
}

impl std::fmt::Debug for ShardedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSink")
            .field("shards", &self.shards.len())
            .field("counters", &self.counters())
            .finish()
    }
}
