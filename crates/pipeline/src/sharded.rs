//! The sharded event-ingestion sink, [`ShardedSink`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use deepcontext_core::{
    CallingContextTree, CctShard, FoldState, Interner, Interval, IntervalKind, MetricKind, NodeId,
    PathHandle, PathId, Sym, TrackKey,
};
use deepcontext_timeline::{IntervalRing, TimelineConfig, TimelineSnapshot};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, StreamId};

use crate::sink::{attribute_activity_metrics, SinkCounters};
use crate::DEFAULT_SHARDS;

/// Mixes a routing key so sequential stream ids and tids spread across
/// shards (splitmix64 finalizer).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard the allocation APIs, which have no stream, launch into and
/// their records go to.
const ALLOCATION_SHARD: usize = 0;

/// One shard: its tree and correlation window and, when timeline
/// recording is on, its interval ring, all behind the shard's one lock.
/// A stream's launches and records all reach one shard, so each
/// `(device, stream)` track is held by one ring.
struct Shard {
    cct: CctShard,
    ring: Option<IntervalRing>,
}

/// What peak accounting reads of one shard without taking its lock.
#[derive(Default)]
struct Gauge {
    /// [`CctShard::approx_bytes`] at the shard's last batch boundary.
    bytes: AtomicUsize,
    /// What the shard's correlation window holds, holes included
    /// ([`IdWindow::held_bytes`](deepcontext_core::IdWindow::held_bytes)),
    /// as of its last launch or boundary.
    window: AtomicUsize,
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
    /// a bounded ring in its shard (see [`ShardedSink::timeline_snapshot`]).
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
///   [`CctShard`]s **before** any lock is taken: a launch by its GPU
///   stream alone, a CPU sample by its thread. The shard turns the handle
///   into its own node with one read of a dense vector
///   ([`CctShard::node_for`]);
/// * a stream's correlations live in its shard: a launch binds `corr →
///   PathId` in the shard's own window ([`CctShard::bind`]) under the
///   shard lock it already holds; an activity record names its stream,
///   so it reaches the same shard ([`route_activity`](Self::route_activity))
///   and finds its context there ([`CctShard::correlation`]); retirement
///   (the two-phase prune) stamps a terminal record's id in its window
///   slot and, at the batch's end, sweeps the previous batch's stamped
///   range. The allocation APIs, which have no stream, launch into one
///   fixed shard, and their records follow. A
///   launch takes one lock, an activity batch one per shard it touches —
///   recording an interval is a push into the ring inside the shard, under
///   that same lock — and no lock is ever taken while another is held.
///   Every producer on one stream shares that stream's shard lock, which
///   covers the tree insert as well as the bind;
/// * snapshots fold the shards into one master tree and **cache** the
///   result: every shard carries a dirty generation
///   ([`CctShard::generation`]) advanced by each tree mutation, and a
///   refresh re-folds only shards whose generation moved — via
///   [`CallingContextTree::merge_incremental`], which resumes the
///   per-shard node mapping and folds per-node metric deltas. Clean
///   shards are skipped outright, so a warm snapshot costs O(dirty
///   shards) instead of O(shards × tree).
///   [`snapshot_uncached`](Self::snapshot_uncached) keeps the historical
///   full fold as baseline and test oracle. A timeline read rides the same
///   refresh: each shard is settled, folded when dirty and has its ring's
///   chunks shared under one acquisition of its lock, so every interval's
///   context is in the fold it is mapped through.
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
pub struct ShardedSink {
    interner: Arc<Interner>,
    shards: Vec<Mutex<Shard>>,
    /// Cached incremental snapshot; `None` until the first snapshot is
    /// requested (and again after `finish_snapshot` consumes it).
    cache: Mutex<Option<SnapshotCache>>,
    /// Whether the shards record a timeline (each has its ring). When
    /// off, the aggregate-only pipeline pays nothing for it.
    timeline: bool,
    /// The interned `"memcpy"` display name, so memcpy records skip even
    /// the thread-local intern cache on the timeline tap.
    memcpy_sym: Sym,
    /// Per shard, what peak tracking reads, stored while the shard lock
    /// is already held, so peak tracking never sweeps every shard lock.
    gauges: Vec<Gauge>,
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
        let (n, timeline) = (options.shards.max(1), options.timeline);
        let shard = || Shard {
            cct: CctShard::new(Arc::clone(&interner)),
            ring: timeline
                .enabled
                .then(|| IntervalRing::new(timeline.ring_capacity)),
        };
        Arc::new(ShardedSink {
            timeline: timeline.enabled,
            shards: (0..n).map(|_| Mutex::new(shard())).collect(),
            gauges: (0..n).map(|_| Gauge::default()).collect(),
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

    /// Number of shards that have recorded anything — used by routing
    /// tests to assert that multi-stream workloads actually spread.
    pub fn shards_occupied(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !s.lock().cct.is_empty())
            .count()
    }

    /// Correlations in flight (bound by a launch and not yet retired),
    /// over all shards — introspection for retirement tests and leak
    /// diagnostics.
    pub fn correlation_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().cct.correlations().len())
            .sum()
    }

    /// Locks shard `idx` and settles it: the only way a shard's tree is
    /// read for a fold or sized for the memory report.
    fn settled(&self, idx: usize) -> MutexGuard<'_, Shard> {
        let mut shard = self.shards[idx].lock();
        shard.cct.settle();
        shard
    }

    /// Closes a boundary on shard `idx` (held locked by the caller):
    /// everything attributed since the last one — records, and the
    /// launches and CPU samples before them — reaches its ancestors,
    /// and only then is the shard sized for peak accounting.
    fn close_boundary(&self, idx: usize, shard: &mut CctShard) {
        shard.settle();
        self.gauges[idx]
            .bytes
            .store(shard.approx_bytes(), Ordering::Relaxed);
        self.note_window(idx, shard);
    }

    /// Publishes what shard `idx`'s correlation window holds (its lock
    /// held by the caller) to peak accounting.
    fn note_window(&self, idx: usize, shard: &CctShard) {
        self.gauges[idx]
            .window
            .store(shard.correlations().held_bytes(), Ordering::Relaxed);
    }

    fn index_for(&self, key: u64) -> usize {
        (mix(key) % self.shards.len() as u64) as usize
    }

    /// The shard a GPU stream's launches and records go to, the stream
    /// alone deciding (the device is ignored); the allocation APIs, which
    /// have no stream, go to one fixed shard. Stream ids and tids both
    /// count up from small numbers, so a stream's key is spread by the
    /// 64-bit golden ratio first: stream 0 and thread 1 are not the same
    /// key.
    fn stream_home(&self, stream: Option<StreamId>) -> usize {
        stream.map_or(ALLOCATION_SHARD, |stream| {
            self.index_for((u64::from(stream.0) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        })
    }

    /// The shard an activity record is applied at: its stream's, where
    /// its launch bound the correlation. [`activity_batch`](Self::activity_batch)
    /// groups its records by this rule.
    pub fn route_activity(&self, activity: &Activity) -> usize {
        self.stream_home(activity.stream())
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

    /// Attributes one activity record inside its home shard at the
    /// context the shard bound its correlation to (unbound: the
    /// catch-all), pushing the record's device interval into the shard's
    /// ring when recording is on. Returns `(orphaned, instruction
    /// samples)`.
    fn attribute_activity(&self, shard: &mut Shard, activity: &Activity) -> (bool, u64) {
        let Shard { cct, ring } = shard;
        let path = cct.correlation(activity.correlation_id.0);
        let (node, orphaned) = cct.node_or_orphan(path);
        if let Some(ring) = ring {
            if let Some(interval) = self.interval_of(cct, activity, node) {
                ring.push(interval);
            }
        }
        let samples = attribute_activity_metrics(cct, node, activity);
        // Sampling records keep their correlation live for the kernel
        // record that follows them; terminal record kinds retire it.
        if !matches!(activity.kind, ActivityKind::PcSampling { .. }) {
            cct.defer_prune(activity.correlation_id.0);
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

    /// Applies one bucket of activity records at shard `idx` under one
    /// shard-lock acquisition, each looked up in the shard's own
    /// correlation window, and ends one two-phase-prune batch:
    /// correlations attributed in the shard's *previous* batch leave the
    /// window now, so sampling records straddling a buffer boundary still
    /// resolve.
    fn apply_batch<'a>(&self, idx: usize, records: impl Iterator<Item = &'a Activity>) {
        let (mut activities, mut orphans, mut samples) = (0u64, 0u64, 0u64);
        {
            let mut shard = self.shards[idx].lock();
            for activity in records {
                let (orphaned, sampled) = self.attribute_activity(&mut shard, activity);
                activities += 1;
                orphans += u64::from(orphaned);
                samples += sampled;
            }
            shard.cct.end_batch();
            self.close_boundary(idx, &mut shard.cct);
        }
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
        let shard = &mut self.shards[idx].lock().cct;
        // Every deferred correlation's trailing records have been
        // delivered by now, so one extra epoch retires them all.
        shard.end_batch();
        shard.trim();
        // Launch- and sample-only shards see no activity batch: the
        // flush boundary is where their samples walk root-ward.
        self.close_boundary(idx, shard);
    }

    /// Brings the snapshot cache up to date: folds every shard whose
    /// dirty generation advanced since the last refresh and skips the
    /// rest, then hands the shard, still locked, and its fold state to
    /// `visit`. Each shard lock is held only while that one shard is
    /// settled, folded and visited (cache → shard is the only lock order
    /// involving the cache, so ingestion never deadlocks against
    /// refreshes). A refresh that folded at least one shard adds its wall
    /// time, from the first dirty shard on, to [`SinkCounters::fold_ns`];
    /// a clean one reads no clock and adds nothing.
    fn refresh_cache(
        &self,
        cache: &mut Option<SnapshotCache>,
        mut visit: impl FnMut(&Shard, &FoldState),
    ) {
        let cache =
            cache.get_or_insert_with(|| SnapshotCache::empty(&self.interner, self.shards.len()));
        let mut start = None;
        for idx in 0..self.shards.len() {
            let shard = self.settled(idx);
            let generation = shard.cct.generation();
            if cache.generations[idx] == generation {
                self.shards_skipped.fetch_add(1, Ordering::Relaxed);
            } else {
                start.get_or_insert_with(Instant::now);
                // Copy-on-write only when a reader still holds the
                // previous snapshot handle; clean refreshes never reach
                // this line, so an idle profile costs nothing.
                Arc::make_mut(&mut cache.master)
                    .merge_incremental(shard.cct.tree(), &mut cache.folds[idx]);
                cache.generations[idx] = generation;
                self.snapshot_merges.fetch_add(1, Ordering::Relaxed);
            }
            visit(&shard, &cache.folds[idx]);
        }
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.fold_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Folds all shards into a fresh master tree, bypassing the snapshot
    /// cache — the historical O(shards × tree) path, kept as the
    /// benchmark baseline, as the oracle the `cached == fresh`
    /// equivalence tests compare against.
    pub fn snapshot_uncached(&self) -> CallingContextTree {
        let mut master = CallingContextTree::with_interner(Arc::clone(&self.interner));
        for idx in 0..self.shards.len() {
            master.merge(self.settled(idx).cct.tree());
        }
        master
    }

    /// Records the current approximate profile size into the peak, using
    /// the per-shard gauges — each shard's bytes as of its last batch
    /// boundary, and its correlation window's span, holes included, as of
    /// its last launch or boundary — and no cross-shard locking on the
    /// ingestion hot path.
    fn note_peak(&self) {
        let shard_bytes: usize = self
            .gauges
            .iter()
            .map(|gauge| gauge.bytes.load(Ordering::Relaxed) + gauge.window.load(Ordering::Relaxed))
            .sum();
        let bytes = shard_bytes + self.interner.approx_bytes();
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    /// A GPU API call was intercepted at its launch site: in the shard of
    /// `origin.stream`, under one lock, binds `origin.correlation` to the
    /// context `path` and (for kernel launches) counts the launch. The
    /// context arrives as the handle DLMonitor assembled
    /// (`DlMonitor::callpath_for_gpu(..).handle()`); tests and replay
    /// tools get one from `Interner::paths().intern(frames)`.
    pub fn gpu_launch(&self, origin: &EventOrigin, path: PathHandle, api: ApiKind) {
        let idx = self.stream_home(origin.stream);
        let shard = &mut self.shards[idx].lock().cct;
        Self::insert_launch(shard, path.id(), api);
        if let Some(corr) = origin.correlation {
            shard.bind(corr.0, path.id());
            self.note_window(idx, shard);
        }
    }

    /// A buffer of completed asynchronous activity records, by value:
    /// the GPU runtime's flush paths own the records they deliver. Every
    /// record's shard is named by its stream
    /// ([`route_activity`](Self::route_activity)), computed once; then
    /// the batch is walked once per shard that appears in it, ascending,
    /// taking that shard's lock once. Records are applied from the
    /// borrow: nothing is cloned or moved on this path.
    pub fn activity_batch(&self, batch: Vec<Activity>) {
        if batch.is_empty() {
            return;
        }
        let homes: Vec<usize> = batch.iter().map(|a| self.route_activity(a)).collect();
        let mut next = homes.iter().copied().min();
        while let Some(idx) = next {
            let here = batch.iter().zip(&homes).filter(|(_, home)| **home == idx);
            self.apply_batch(idx, here.map(|(activity, _)| activity));
            next = homes.iter().copied().filter(|home| *home > idx).min();
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
        let idx = origin.tid.map_or(0, |tid| self.index_for(tid));
        Self::attribute_at(&mut self.shards[idx].lock().cct, path.id(), metric, value);
    }

    /// A flush boundary completed: the runtime's entire completed-record
    /// backlog has been delivered, so no record referencing an
    /// already-attributed correlation can still be in flight (activity
    /// buffers deliver a kernel's trailing sampling records no later
    /// than the flush that drains the kernel). Every shard retires its
    /// deferred correlations and sheds its correlation window's
    /// high-water capacity, keeping resident memory proportional to live
    /// state.
    pub fn epoch_complete(&self) {
        for idx in 0..self.shards.len() {
            self.epoch_complete_shard(idx);
        }
    }

    /// Folds the shards into one calling context tree, a copy of the
    /// cached master: clean shards are skipped outright.
    pub fn snapshot(&self) -> CallingContextTree {
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache, |_, _| ());
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
            self.refresh_cache(&mut cache, |_, _| ());
            Arc::clone(&cache.as_ref().expect("cache refreshed").master)
        };
        f(&master)
    }

    /// Final snapshot at detach time: like [`snapshot`](Self::snapshot),
    /// but it yields the cached fold by value — copying only if a reader
    /// still holds it — since no further snapshot will be requested.
    pub fn finish_snapshot(&self) -> CallingContextTree {
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache, |_, _| ());
        let master = cache.take().expect("cache refreshed").master;
        Arc::try_unwrap(master).unwrap_or_else(|shared| CallingContextTree::clone(&shared))
    }

    /// The assembled timeline (`None` when timeline recording is off —
    /// the default). Interval context ids are remapped into the master
    /// tree the snapshot paths observe: the master served by
    /// [`with_snapshot`](Self::with_snapshot), stable across refreshes
    /// because the fold is append-only. Every interval's context
    /// resolves: each shard is folded and has its ring shared under one
    /// acquisition of its lock, so no record can land between the fold
    /// and the read.
    pub fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        if !self.timeline {
            return None;
        }
        let mut parts = Vec::with_capacity(self.shards.len());
        {
            let mut cache = self.cache.lock();
            self.refresh_cache(&mut cache, |shard, fold| {
                // The mapping is copied out (4 bytes per folded node) so
                // the snapshot keeps resolving against this fold after
                // the cache moves on.
                if let Some(ring) = shard.ring.as_ref().filter(|ring| !ring.is_empty()) {
                    parts.push(ring.snapshot(Some(fold.mapping().into())));
                }
            });
        }
        // One symbol-table capture per snapshot (not per interval),
        // after the last ring was read: exporters resolve `Sym` names by
        // index.
        Some(TimelineSnapshot::join(parts).with_names(self.interner.snapshot()))
    }

    /// Current ingestion counters, each shard settled to count its
    /// launches (`cpu_samples` reads 0: the profiler counts those).
    pub fn counters(&self) -> SinkCounters {
        let (mut launches, mut timeline_intervals, mut timeline_dropped) = (0, 0, 0);
        for idx in 0..self.shards.len() {
            let shard = self.settled(idx);
            launches += shard.cct.tree().total(MetricKind::KernelLaunches) as u64;
            if let Some(ring) = &shard.ring {
                timeline_intervals += ring.recorded();
                timeline_dropped += ring.dropped();
            }
        }
        SinkCounters {
            launches,
            activities: self.activities.load(Ordering::Relaxed),
            instruction_samples: self.instruction_samples.load(Ordering::Relaxed),
            orphans: self.orphans.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            snapshot_merges: self.snapshot_merges.load(Ordering::Relaxed),
            shards_skipped: self.shards_skipped.load(Ordering::Relaxed),
            fold_ns: self.fold_ns.load(Ordering::Relaxed),
            timeline_intervals,
            timeline_dropped,
            ..SinkCounters::default()
        }
    }

    /// Approximate resident bytes of all ingestion state: the shards with
    /// their correlation windows and timeline rings, the snapshot cache
    /// and the interner.
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
            .map(|idx| {
                let shard = self.settled(idx);
                // A ring is bounded by its capacity and allocated lazily.
                let ring = shard.ring.as_ref().map_or(0, IntervalRing::approx_bytes);
                shard.cct.approx_bytes() + shard.cct.correlations().approx_bytes() + ring
            })
            .sum();
        shard_bytes + cache_bytes + self.interner.approx_bytes()
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
