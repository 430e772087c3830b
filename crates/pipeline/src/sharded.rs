//! The sharded event-ingestion sink, [`ShardedSink`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use deepcontext_core::{
    CallingContextTree, CctShard, FoldState, IdWindow, Interner, Interval, IntervalKind,
    MetricKind, NodeId, PathHandle, PathId, Sym, TrackKey,
};
use deepcontext_timeline::{TimelineConfig, TimelineSink, TimelineSnapshot};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind};

use crate::sink::{attribute_activity_metrics, SinkCounters};
use crate::DEFAULT_SHARDS;

/// Mixes a routing key so sequential tids/correlation ids spread across
/// shards (splitmix64 finalizer). The sink's shard routing and the
/// fallback shard of an unbound correlation both derive from it.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the correlation directory holds for one in-flight correlation.
#[derive(Clone, Copy, Default)]
struct Binding {
    /// The shard the launch was routed to.
    shard: u32,
    /// The calling context the launch was made from.
    path: PathId,
}

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
/// [`ShardedSink::new`] builds (at [`DEFAULT_SHARDS`], the profiler's
/// default layout).
#[derive(Debug, Clone)]
pub struct SinkOptions {
    /// Shard count (clamped to at least one).
    pub shards: usize,
    /// Timeline recording: when enabled, every kernel/memcpy record
    /// attributed by the sink also appends a context-tagged interval to
    /// a bounded per-shard ring (see [`ShardedSink::timeline_snapshot`]).
    pub timeline: TimelineConfig,
}

impl Default for SinkOptions {
    fn default() -> Self {
        SinkOptions {
            shards: DEFAULT_SHARDS,
            timeline: TimelineConfig::default(),
        }
    }
}

/// The profiler's event sink: every collection path — GPU launch
/// callbacks, completed activity buffers, CPU samples, PC-sampling
/// records — calls it directly, from any producer thread, with no outer
/// lock.
///
/// One global tree behind one lock would cap ingestion at one core no
/// matter how many workload threads produce events. The sink removes
/// that ceiling, and moves contexts **by handle** end to end:
///
/// * a launch or CPU sample arrives with the [`PathHandle`] DLMonitor
///   assembled for its calling context and is routed to one of N
///   [`CctShard`]s **before** any lock is taken, keyed by the originating
///   thread and stream ([`EventOrigin::route_key`]); the shard turns the
///   handle into its own node with one read of a dense vector
///   ([`CctShard::node_for`]);
/// * the correlation directory is the one correlation table: a launch
///   binds `corr → (shard, PathId)`, an activity record finds both in one
///   lookup, retirement (the two-phase prune) is one remove, and no lock
///   is ever taken while another is held;
/// * snapshots fold the shards into one master tree and **cache** the
///   result: every shard carries a dirty generation
///   ([`CctShard::generation`]) advanced by each tree mutation, and a
///   refresh re-folds only shards whose generation moved — via
///   [`CallingContextTree::merge_incremental`], which resumes the
///   per-shard node mapping and folds per-node metric deltas. Clean
///   shards are skipped outright, so a warm snapshot costs O(dirty
///   shards) instead of O(shards × tree).
///   [`snapshot_uncached`](Self::snapshot_uncached) keeps the historical
///   full fold as baseline and test oracle.
///
/// Inclusive samples are **attributed at the node and settled at the
/// boundary**: every ingestion path hands its samples to
/// [`CctShard::count`] (a launch, a PC sample and its stall: one integer
/// add each) or [`CctShard::attribute`] (a measurement), and the shard is
/// [settled](CctShard::settle) — one bottom-up sweep, in the order
/// `core/src/shard.rs` states — under the shard lock wherever its tree is
/// about to be observed or its bytes measured: the end of every activity
/// batch, every flush boundary, every fold (cached, uncached, timeline)
/// and [`approx_bytes`](Self::approx_bytes). Nothing outside a shard
/// lock ever sees a tree that is not fully inclusive, so the folds, the
/// cache and the fold states are unaware of the deferral.
///
/// [`EventOrigin::route_key`]: dlmonitor::EventOrigin::route_key
pub struct ShardedSink {
    interner: Arc<Interner>,
    shards: Vec<Mutex<CctShard>>,
    /// Cached incremental snapshot; `None` until the first snapshot is
    /// requested (and again after `finish_snapshot` consumes it).
    cache: Mutex<Option<SnapshotCache>>,
    /// Per-shard bounded interval rings, recorded while kernel/memcpy
    /// records are attributed (i.e. under the shard lock). `None` when
    /// timeline recording is off — the aggregate-only pipeline then pays
    /// nothing for it.
    timeline: Option<TimelineSink>,
    /// The one correlation table: correlation id -> the shard and
    /// context it was launched in. One lock over a window indexed by
    /// correlation id, taken once per launch, once per activity batch's
    /// lookups and once per batch's retirements. The lock is a leaf:
    /// nobody holds it while taking another lock.
    directory: Mutex<IdWindow<Binding>>,
    /// The interned `"memcpy"` display name, so memcpy records skip even
    /// the thread-local intern cache on the timeline tap.
    memcpy_sym: Sym,
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
    fold_ns: AtomicU64,
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
        Arc::new(ShardedSink {
            timeline: options
                .timeline
                .enabled
                .then(|| TimelineSink::new(n, &options.timeline)),
            shards: (0..n)
                .map(|_| Mutex::new(CctShard::new(Arc::clone(&interner))))
                .collect(),
            directory: Mutex::default(),
            shard_bytes: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            cache: Mutex::new(None),
            memcpy_sym: interner.intern("memcpy"),
            interner,
            activities: AtomicU64::new(0),
            instruction_samples: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
            peak_bytes: AtomicUsize::new(0),
            snapshot_merges: AtomicU64::new(0),
            shards_skipped: AtomicU64::new(0),
            fold_ns: AtomicU64::new(0),
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

    /// Number of shards that have recorded anything — used by routing
    /// tests to assert that multi-stream workloads actually spread.
    pub fn shards_occupied(&self) -> usize {
        self.shards.iter().filter(|s| !s.lock().is_empty()).count()
    }

    /// Correlations in flight (bound by a launch and not yet retired) —
    /// introspection for retirement tests and leak diagnostics.
    pub fn correlation_entries(&self) -> usize {
        self.directory.lock().len()
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
    /// in order: one directory lookup gives both, all under one lock. A
    /// kernel's sampling record sits next to its kernel record, so a
    /// record with its predecessor's correlation reuses the predecessor's
    /// answer.
    fn resolve(&self, batch: &[Activity]) -> Vec<(usize, Option<PathId>)> {
        let mut resolved: Vec<(usize, Option<PathId>)> = Vec::with_capacity(batch.len());
        let directory = self.directory.lock();
        for (k, activity) in batch.iter().enumerate() {
            let corr = activity.correlation_id.0;
            let answer = if k > 0 && batch[k - 1].correlation_id.0 == corr {
                resolved[k - 1]
            } else {
                let binding = directory.get(corr);
                (self.home_of(corr, binding), binding.map(|b| b.path))
            };
            resolved.push(answer);
        }
        resolved
    }

    /// The shard a record goes to: the one its launch was bound in while
    /// that is still in flight, the correlation-hash shard otherwise.
    fn home_of(&self, correlation: u64, binding: Option<Binding>) -> usize {
        binding.map_or_else(|| self.index_for(correlation), |b| b.shard as usize)
    }

    /// The shard an activity record for `correlation` should be applied
    /// at.
    pub fn route_activity(&self, correlation: u64) -> usize {
        self.home_of(correlation, self.directory.lock().get(correlation))
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
            for (activity, path) in records {
                let (orphaned, sampled) = self.attribute_activity(idx, &mut shard, activity, path);
                activities += 1;
                orphans += u64::from(orphaned);
                samples += sampled;
            }
            let pruned = shard.end_batch();
            self.close_boundary(idx, &mut shard);
            pruned
        };
        self.retire(&pruned);
        // One update per bucket, not per record.
        self.activities.fetch_add(activities, Ordering::Relaxed);
        self.orphans.fetch_add(orphans, Ordering::Relaxed);
        self.instruction_samples
            .fetch_add(samples, Ordering::Relaxed);
    }

    /// The per-shard portion of [`epoch_complete`](Self::epoch_complete):
    /// retires the shard's deferred correlations (every straggler has
    /// been delivered by the flush boundary) and releases batch-sized
    /// scratch.
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

    /// Retires a shard's pruned correlations from the directory under
    /// one acquisition.
    fn retire(&self, pruned: &[u64]) {
        if pruned.is_empty() {
            return;
        }
        let mut directory = self.directory.lock();
        for corr in pruned {
            directory.remove(*corr);
        }
    }

    /// Brings the snapshot cache up to date: folds every shard whose
    /// dirty generation advanced since the last refresh and skips the
    /// rest. Each shard lock is held only while that one shard is
    /// inspected/folded (cache → shard is the only lock order involving
    /// the cache, so ingestion never deadlocks against refreshes). A
    /// refresh that folded at least one shard adds its wall time, from
    /// the first dirty shard on, to [`SinkCounters::fold_ns`]; a clean
    /// one reads no clock and adds nothing.
    fn refresh_cache(&self, cache: &mut Option<SnapshotCache>) {
        let cache =
            cache.get_or_insert_with(|| SnapshotCache::empty(&self.interner, self.shards.len()));
        let mut start = None;
        for idx in 0..self.shards.len() {
            let shard = self.settled(idx);
            let generation = shard.generation();
            if cache.generations[idx] == generation {
                self.shards_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            start.get_or_insert_with(Instant::now);
            // Copy-on-write only when a reader still holds the previous
            // snapshot handle; clean refreshes never reach this line, so
            // an idle profile costs nothing.
            Arc::make_mut(&mut cache.master).merge_incremental(shard.tree(), &mut cache.folds[idx]);
            cache.generations[idx] = generation;
            self.snapshot_merges.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.fold_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Folds all shards into a fresh master tree, bypassing the snapshot
    /// cache — the historical O(shards × tree) path, kept as the
    /// benchmark baseline, as the oracle the `cached == fresh`
    /// equivalence tests compare against.
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
        let bytes = shard_bytes
            + self.directory.lock().len() * IdWindow::<Binding>::ENTRY_BYTES
            + self.interner.approx_bytes();
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    /// A GPU API call was intercepted at its launch site: binds
    /// `origin.correlation` to the context `path` and (for kernel
    /// launches) counts the launch. The context arrives as the handle
    /// DLMonitor assembled (`DlMonitor::callpath_for_gpu(..).handle()`);
    /// tests and replay tools get one from
    /// `Interner::paths().intern(frames)`.
    pub fn gpu_launch(&self, origin: &EventOrigin, path: PathHandle, api: ApiKind) {
        let idx = self.route(origin);
        Self::insert_launch(&mut self.shards[idx].lock(), path.id(), api);
        if let Some(corr) = origin.correlation {
            let binding = Binding {
                shard: idx as u32,
                path: path.id(),
            };
            self.directory.lock().insert(corr.0, binding);
        }
    }

    /// A buffer of completed asynchronous activity records, by value:
    /// the GPU runtime's flush paths own the records they deliver. Every
    /// record is resolved once — its home shard and its context come out
    /// of the same directory lookup — then the batch is walked once per
    /// shard that appears in it, ascending, taking that shard's lock
    /// once. Records are applied from the borrow: nothing is cloned or
    /// moved on this path.
    pub fn activity_batch(&self, batch: Vec<Activity>) {
        if batch.is_empty() {
            return;
        }
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

    /// A CPU sample (interval timer or hardware-counter overflow) on the
    /// thread identified by `origin`, in the context `path` (see
    /// [`gpu_launch`](Self::gpu_launch)).
    pub fn cpu_sample(
        &self,
        origin: &EventOrigin,
        path: PathHandle,
        metric: MetricKind,
        value: f64,
    ) {
        // The shard's byte estimate is deliberately *not* refreshed here:
        // sample-only shards enter peak accounting at flush boundaries
        // (their `epoch_complete_shard`), keeping the per-sample hot path
        // O(1).
        let mut shard = self.shards[self.route(origin)].lock();
        Self::attribute_at(&mut shard, path.id(), metric, value);
    }

    /// A flush boundary completed: the runtime's entire completed-record
    /// backlog has been delivered, so no record referencing an
    /// already-attributed correlation can still be in flight (activity
    /// buffers deliver a kernel's trailing sampling records no later
    /// than the flush that drains the kernel). Every shard retires its
    /// deferred correlations and releases batch-sized scratch, and the
    /// directory sheds its high-water capacity, keeping resident memory
    /// proportional to live state.
    pub fn epoch_complete(&self) {
        for idx in 0..self.shards.len() {
            self.epoch_complete_shard(idx);
        }
        self.directory.lock().trim();
    }

    /// Folds the shards into one calling context tree, a copy of the
    /// cached master: clean shards are skipped outright.
    pub fn snapshot(&self) -> CallingContextTree {
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache);
        CallingContextTree::clone(&cache.as_ref().expect("cache refreshed").master)
    }

    /// Runs `f` against the folded snapshot without handing out
    /// ownership. The refreshed master's `Arc` handle is cloned under the
    /// cache lock and the lock is *released* before `f` runs, so repeated
    /// analysis previews skip both the re-fold and the clone that
    /// [`snapshot`](Self::snapshot) pays, concurrent readers proceed in
    /// parallel on one shared snapshot instead of queueing on the cache
    /// lock for the length of every callback, and `f` may safely re-enter
    /// this sink's snapshot APIs.
    pub fn with_snapshot<R>(&self, f: impl FnOnce(&CallingContextTree) -> R) -> R {
        let master = {
            let mut cache = self.cache.lock();
            self.refresh_cache(&mut cache);
            Arc::clone(&cache.as_ref().expect("cache refreshed").master)
        };
        f(&master)
    }

    /// Final snapshot at detach time: like [`snapshot`](Self::snapshot),
    /// but it yields the cached fold by value — copying only if a reader
    /// still holds it — since no further snapshot will be requested.
    pub fn finish_snapshot(&self) -> CallingContextTree {
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache);
        let master = cache.take().expect("cache refreshed").master;
        Arc::try_unwrap(master).unwrap_or_else(|shared| CallingContextTree::clone(&shared))
    }

    /// The assembled timeline (`None` when timeline recording is off —
    /// the default). Interval context ids are remapped into the master
    /// tree the snapshot paths observe: the master served by
    /// [`with_snapshot`](Self::with_snapshot), stable across refreshes
    /// because the fold is append-only.
    pub fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        let timeline = self.timeline.as_ref()?;
        // Refresh the cached master first, so every interval context
        // recorded so far has a slot in the per-shard fold mappings. The
        // mappings are copied out (4 bytes per folded node) so the
        // snapshot keeps resolving against this fold after the cache
        // moves on, and the cache mutex is released before the rings are
        // locked.
        let tables: Vec<Arc<[NodeId]>> = {
            let mut cache = self.cache.lock();
            self.refresh_cache(&mut cache);
            let cache = cache.as_ref().expect("cache refreshed");
            cache.folds.iter().map(|f| f.mapping().into()).collect()
        };
        Some(
            timeline
                .snapshot_with(&tables)
                // One symbol-table capture per snapshot (not per
                // interval): exporters resolve `Sym` names by index.
                .with_names(self.interner.snapshot()),
        )
    }

    /// Current ingestion counters (`launches` and `cpu_samples` read 0:
    /// the profiler counts those).
    pub fn counters(&self) -> SinkCounters {
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
            fold_ns: self.fold_ns.load(Ordering::Relaxed),
            timeline_intervals: timeline.recorded,
            timeline_dropped: timeline.dropped,
            ..SinkCounters::default()
        }
    }

    /// Approximate resident bytes of all ingestion state: the shards, the
    /// directory, the snapshot cache, the timeline rings and the
    /// interner.
    pub fn approx_bytes(&self) -> usize {
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
        let dir_bytes = self.directory.lock().approx_bytes();
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
