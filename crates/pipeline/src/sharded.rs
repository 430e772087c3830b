//! The sharded event-ingestion sink, [`ShardedSink`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use deepcontext_core::{
    CallingContextTree, CctShard, Interner, Interval, IntervalKind, MetricKind, NodeId, PathHandle,
    Sym, TrackKey,
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

/// One shard: its rows and correlation window and, when timeline
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

/// The memoized fold of all shards: the master tree the shards' rows
/// were drained into — their only copy — and the shard dirty
/// generations it reflects. Refreshing drains **only** shards whose
/// generation advanced; the rest are skipped without touching their
/// rows: O(dirty shards), not O(shards × rows).
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
    /// Generation folded per shard; `u64::MAX` = never folded (shard
    /// generations start at 0, so the first refresh folds everything).
    generations: Vec<u64>,
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
///   into its own metric row with one read of a dense vector
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
///   covers the row append as well as the bind;
/// * snapshots fold the shards into one master tree and **cache** it: a
///   refresh drains only shards whose dirty generation
///   ([`CctShard::generation`]) moved: the shard's rows made inclusive
///   and each merged at its path's node through the master's `PathId →
///   NodeId` vector ([`CctShard::drain_into`]) — no frame is matched.
///   [`snapshot_uncached`](Self::snapshot_uncached), the master plus
///   every shard's undrained rows, is the test oracle. A timeline read
///   rides the same refresh: each shard is drained and has its ring
///   shared under one acquisition of its lock, so every interval's path
///   is in the vector it is mapped through.
///
/// Samples are **held at their row and made inclusive by the fold**:
/// every ingestion path hands its samples to [`CctShard::count`] (a
/// launch, a PC sample and its stall: one integer add each) or
/// [`CctShard::attribute`] (a measurement, merged into the row), and the
/// shard is [settled](CctShard::settle) — its counted rows' counters
/// added to those rows — under the shard lock wherever its rows are about
/// to be folded, read or measured: the end of every activity batch,
/// every flush boundary, every fold (cached, uncached, timeline) and
/// [`approx_bytes`](Self::approx_bytes). The fold carries each row's
/// samples root-ward, so every tree a read sees is inclusive.
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

    /// Locks shard `idx` and settles it: the only way a shard's rows are
    /// read for a fold or sized for the memory report.
    fn settled(&self, idx: usize) -> MutexGuard<'_, Shard> {
        let mut shard = self.shards[idx].lock();
        shard.cct.settle();
        shard
    }

    /// Closes a boundary on shard `idx` (held locked by the caller):
    /// everything counted since the last one — launches, PC samples and
    /// their stalls — reaches its row's store, and only then is the
    /// shard sized for peak accounting.
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
    /// timeline, tagged with the path of the row `node` it was attributed
    /// to (one id space for every shard; snapshots map it into the master
    /// tree). Other record kinds have no device-time window.
    ///
    /// The tap never hashes a kernel name on this path: a launch's row
    /// keeps its kernel frame's name `Sym` (kernel frames collapse by
    /// `(module, pc)`, so it is the code location's first-seen name, as
    /// every CCT view renders it) — one row read, no lock, no
    /// allocation. A record whose row is no kernel's interns its own name
    /// through the calling thread's cache ([`Interner::intern_cached`]);
    /// memcpys reuse the pre-interned symbol.
    fn interval_of(&self, shard: &CctShard, activity: &Activity, node: NodeId) -> Option<Interval> {
        let (stream, start, end, kind, name) = match &activity.kind {
            ActivityKind::Kernel {
                name,
                stream,
                start,
                end,
                ..
            } => {
                let known = shard.kernel_name(node);
                let name = known.unwrap_or_else(|| self.interner.intern_cached(name));
                (stream, start, end, IntervalKind::Kernel, name)
            }
            ActivityKind::Memcpy {
                stream, start, end, ..
            } => (stream, start, end, IntervalKind::Memcpy, self.memcpy_sym),
            _ => return None,
        };
        Some(Interval {
            track: TrackKey {
                device: activity.device.0,
                stream: stream.0,
            },
            start: *start,
            end: *end,
            kind,
            name,
            correlation: activity.correlation_id.0,
            context: Some(NodeId::from_index(shard.path(node).index() as u32)),
        })
    }

    /// Attributes one activity record inside its home shard at the
    /// context the shard bound its correlation to (unbound: the
    /// catch-all), pushing the record's device interval into the shard's
    /// ring when recording is on. Returns `(orphaned, instruction
    /// samples)`.
    fn attribute_activity(&self, shard: &mut Shard, activity: &Activity) -> (bool, u64) {
        let Shard { cct, ring } = shard;
        let path = cct.correlation(activity.correlation_id.0);
        let node = match path {
            Some(path) => cct.node_for(path),
            None => cct.orphan_node(),
        };
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
        (path.is_none(), samples)
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
        // flush boundary is where their counts reach their rows.
        self.close_boundary(idx, shard);
    }

    /// Brings the snapshot cache up to date: drains every shard whose
    /// dirty generation advanced since the last refresh into the master
    /// and skips the rest, handing each shard, still locked, to `visit`.
    /// Each shard lock is held only while that one shard is settled,
    /// drained and visited (cache → shard is the only lock order
    /// involving the cache, so ingestion never deadlocks against
    /// refreshes). A refresh that drained at least one shard adds its
    /// wall time, from the first dirty shard on, to
    /// [`SinkCounters::fold_ns`]; a clean one reads no clock and adds
    /// nothing.
    fn refresh_cache<'c>(
        &self,
        cache: &'c mut Option<SnapshotCache>,
        mut visit: impl FnMut(&Shard),
    ) -> &'c SnapshotCache {
        let cache = cache.get_or_insert_with(|| SnapshotCache {
            master: Arc::new(CallingContextTree::with_interner(Arc::clone(
                &self.interner,
            ))),
            generations: vec![u64::MAX; self.shards.len()],
        });
        let mut start = None;
        for idx in 0..self.shards.len() {
            let mut shard = self.settled(idx);
            let generation = shard.cct.generation();
            if cache.generations[idx] == generation {
                self.shards_skipped.fetch_add(1, Ordering::Relaxed);
            } else {
                start.get_or_insert_with(Instant::now);
                // Copy-on-write only when a reader still holds the
                // previous snapshot handle; clean refreshes never reach
                // this line, so an idle profile costs nothing.
                let master = Arc::make_mut(&mut cache.master);
                shard.cct.drain_into(master);
                cache.generations[idx] = generation;
                self.snapshot_merges.fetch_add(1, Ordering::Relaxed);
            }
            visit(&shard);
        }
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.fold_ns.fetch_add(ns, Ordering::Relaxed);
        }
        cache
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A fresh tree, bypassing the snapshot cache: a copy of the master —
    /// the only copy of what refreshes drained — plus every shard's
    /// undrained rows. The `cached == fresh` tests' oracle: a refresh
    /// that skips a dirty shard or loses a row differs from it.
    pub fn snapshot_uncached(&self) -> CallingContextTree {
        let cache = self.cache.lock();
        let mut tree = cache.as_ref().map_or_else(
            || CallingContextTree::with_interner(Arc::clone(&self.interner)),
            |cache| CallingContextTree::clone(&cache.master),
        );
        for idx in 0..self.shards.len() {
            self.settled(idx).cct.clone().drain_into(&mut tree);
        }
        tree
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
        // The context exists from the launch on, whatever the API.
        let node = shard.node_for(path.id());
        if api == ApiKind::LaunchKernel {
            shard.count(node, MetricKind::KernelLaunches, 1);
        }
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
        let shard = &mut self.shards[idx].lock().cct;
        let node = shard.node_for(path.id());
        shard.attribute(node, metric, value);
    }

    /// A flush boundary completed: the runtime's entire completed-record
    /// backlog has been delivered, so no record referencing an
    /// already-attributed correlation can still be in flight (activity
    /// buffers deliver a kernel's trailing sampling records no later
    /// than the flush that drains the kernel). Every shard retires its
    /// deferred correlations and sheds its correlation window's
    /// high-water capacity, keeping resident memory proportional to live
    /// state. Ends by noting the peak, so a shard that only CPU samples
    /// reached enters it at its size at the boundary.
    pub fn epoch_complete(&self) {
        for idx in 0..self.shards.len() {
            self.epoch_complete_shard(idx);
        }
        self.note_peak();
    }

    /// Folds the shards into one calling context tree, a copy of the
    /// cached master: clean shards are skipped outright.
    pub fn snapshot(&self) -> CallingContextTree {
        let mut cache = self.cache.lock();
        CallingContextTree::clone(&self.refresh_cache(&mut cache, |_| ()).master)
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
            Arc::clone(&self.refresh_cache(&mut cache, |_| ()).master)
        };
        f(&master)
    }

    /// Final snapshot at detach time: like [`snapshot`](Self::snapshot),
    /// but it yields the cached fold by value — copying only if a reader
    /// still holds it — since no further snapshot will be requested. The
    /// master is the only copy of the rows refreshes drained, so this is
    /// the sink's last read: a later one sees only what arrives after it.
    pub fn finish_snapshot(&self) -> CallingContextTree {
        let mut cache = self.cache.lock();
        self.refresh_cache(&mut cache, |_| ());
        let master = cache.take().expect("cache refreshed").master;
        Arc::try_unwrap(master).unwrap_or_else(|shared| CallingContextTree::clone(&shared))
    }

    /// The assembled timeline (`None` when timeline recording is off —
    /// the default). The rings record paths, mapped through the master's
    /// `PathId → NodeId` vector into the tree
    /// [`with_snapshot`](Self::with_snapshot) serves, stable across
    /// refreshes because the fold is append-only. Every interval's context
    /// resolves: each shard is drained and has its ring shared under one
    /// acquisition of its lock.
    pub fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        if !self.timeline {
            return None;
        }
        let mut parts = Vec::with_capacity(self.shards.len());
        let table = {
            let mut cache = self.cache.lock();
            let cache = self.refresh_cache(&mut cache, |shard| {
                if let Some(ring) = shard.ring.as_ref().filter(|ring| !ring.is_empty()) {
                    parts.push(ring.snapshot());
                }
            });
            // Copied out (4 bytes a path), once, after the last drain, so
            // the snapshot keeps resolving after the cache moves on.
            cache.master.path_nodes()
        };
        // One symbol-table capture per snapshot (not per interval),
        // after the last ring was read: exporters resolve `Sym` names by
        // index.
        let snapshot = TimelineSnapshot::join(parts).with_contexts(table);
        Some(snapshot.with_names(self.interner.snapshot()))
    }

    /// Current ingestion counters (`cpu_samples` reads 0: the profiler
    /// counts those). `launches` is the master root's plus every settled
    /// shard's undrained rows' ([`CctShard::total`]), under the cache
    /// lock: no refresh moves a launch between the two.
    pub fn counters(&self) -> SinkCounters {
        let cache = self.cache.lock();
        let drained = cache
            .as_ref()
            .map_or(0.0, |cache| cache.master.total(MetricKind::KernelLaunches));
        let (mut launches, mut timeline_intervals, mut timeline_dropped) = (drained as u64, 0, 0);
        for idx in 0..self.shards.len() {
            let shard = self.settled(idx);
            launches += shard.cct.total(MetricKind::KernelLaunches) as u64;
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

    /// Approximate resident bytes of all ingestion state: the shards'
    /// rows with their correlation windows and timeline rings, the
    /// snapshot cache and the interner with its path table.
    pub fn approx_bytes(&self) -> usize {
        // The snapshot cache's master holds what refreshes drained out
        // of the shards' rows.
        let cache_bytes: usize = self
            .cache
            .lock()
            .as_ref()
            .map(|c| c.master.approx_tree_bytes())
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
