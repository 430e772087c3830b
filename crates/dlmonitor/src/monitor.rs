//! The DLMonitor runtime.
//!
//! A calling context is a **handle** here: every piece of state the
//! monitor keeps per thread — the version-keyed Python snapshot, each
//! shadow-stack operator, each forward/backward association record —
//! holds the [`PathHandle`] of the context it stands for, and
//! [`DlMonitor::callpath_for_gpu`] / [`DlMonitor::callpath_get`] extend
//! one of them by whatever lies below it (native frames, the GPU API,
//! the kernel) through the thread's own [`PathMemo`]. A launch from a
//! context the thread has produced before is a handful of probes of that
//! memo: no allocation, no frame built, no lock shared between threads.
//! Both return a [`LivePath`] — the handle plus the autograd sequence id
//! the launch ran under, the one display field a context does not fix —
//! and frames are only materialised to show it
//! ([`LivePath::to_call_path`]).
//!
//! What a launch touches on the way there is borrowed, not copied:
//!
//! * **Events.** A [`DlEvent`] is a view of the runtime's own payload and
//!   of the thread bound to the calling OS thread
//!   ([`ThreadRegistry::with_current`]), valid for the length of the
//!   delivery. A domain nobody subscribed to costs one load.
//! * **The native tail.** The frames below the anchoring operator are
//!   read in place under the stack's own lock ([`Unwinder::with_tail`],
//!   which counts the unwind and its steps) and tested against libpython
//!   ranges learnt once at [`DlMonitor::init`] and kept current by the
//!   library map's load callback. In cached mode a tail seen before under
//!   the same operator is recognised frame by frame and interns nothing.
//! * **The subscriber list.** A [`Subscribers`] list, like the framework
//!   registry's and the GPU runtime's upstream of it: a delivery takes no
//!   lock, no reference count and no allocation, and that type's docs say
//!   how long a removed subscriber can stay alive.
//!
//! [`Unwinder::with_tail`]: sim_runtime::Unwinder::with_tail

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use deepcontext_core::{
    Frame, FrameKey, FxHashMap, Interner, LivePath, OpPhase, PathHandle, PathId, PathMemo,
    Subscribers,
};
use dl_framework::{CallbackRegistry, FrameworkCallbackId, GraphEvent, MemEvent, OpEvent, Site};
use sim_gpu::{ApiKind, CallbackData, GpuRuntime, SubscriberId, Vendor};
use sim_runtime::{
    LibraryInfo, NativeFrameInfo, PythonStack, RuntimeEnv, ThreadCtx, ThreadRegistry,
};

use crate::integrate::{integrate_call_path, ShadowOp};

/// Interception domains, mirroring `DLMONITOR_FRAMEWORK` /
/// `DLMONITOR_GPU`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Framework operators, graph compilation, tensor memory.
    Framework,
    /// GPU runtime APIs (launches, memcpys, mallocs, syncs).
    Gpu,
}

impl Domain {
    fn bit(self) -> u8 {
        match self {
            Domain::Framework => 1,
            Domain::Gpu => 2,
        }
    }
}

/// A GPU API interception, annotated with the intercepting vendor and the
/// thread it occurred on. Borrowed from the runtime for the length of the
/// delivery.
#[derive(Debug, Clone, Copy)]
pub struct GpuCallbackEvent<'a> {
    /// The raw callback payload (correlation id, API kind, kernel, ...).
    pub data: &'a CallbackData,
    /// Which vendor runtime produced it (CUPTI vs RocTracer naming).
    pub vendor: Vendor,
    /// The simulated thread the API call ran on, when bound.
    pub thread: Option<&'a ThreadCtx>,
}

impl GpuCallbackEvent<'_> {
    /// The originating thread's id, when the call site was bound to one.
    pub fn tid(&self) -> Option<u64> {
        self.thread.map(ThreadCtx::tid)
    }

    /// Routing identity of this interception.
    pub fn origin(&self) -> EventOrigin {
        EventOrigin {
            tid: self.tid(),
            stream: self.data.stream,
            correlation: Some(self.data.correlation_id),
        }
    }
}

/// Where an event came from: the identity an ingestion pipeline routes on.
///
/// Sharded profiler sinks (see `deepcontext-profiler`) pick an ingestion
/// shard from these fields *before* taking any lock, so concurrent
/// producers on different threads/streams never serialize on a global
/// mutex. All fields are optional — events raised outside any bound thread
/// (e.g. a runtime-internal callback) simply carry less identity, and the
/// consumer falls back to whatever field is present.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventOrigin {
    /// The originating simulated OS thread.
    pub tid: Option<u64>,
    /// The GPU stream targeted, for GPU API events that have one.
    pub stream: Option<sim_gpu::StreamId>,
    /// The GPU correlation id, for GPU API events.
    pub correlation: Option<sim_gpu::CorrelationId>,
}

impl EventOrigin {
    /// The routing key sharded ingestion pipelines hash a shard index
    /// from: `(tid, stream)` when both are known — so a *single* thread
    /// fanning kernels over many streams spreads across shards instead
    /// of serializing on one — `tid` alone for events without a stream
    /// (CPU samples), the correlation id for events raised outside any
    /// bound thread, and `None` when the event carries no identity at
    /// all. Events for the same `(tid, stream)` pair always share a key,
    /// which is what keeps one stream's launches in FIFO order through a
    /// per-shard queue.
    pub fn route_key(&self) -> Option<u64> {
        match (self.tid, self.stream) {
            (Some(tid), Some(stream)) => {
                Some(tid ^ (u64::from(stream.0) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            }
            (Some(tid), None) => Some(tid),
            (None, _) => self.correlation.map(|corr| corr.0),
        }
    }
}

/// Events delivered to registered profiler callbacks: views of the
/// framework's and the GPU runtime's own payloads, valid for the length
/// of the call. A subscriber that keeps one copies the fields it needs.
#[derive(Debug, Clone, Copy)]
pub enum DlEvent<'a> {
    /// A framework operator (enter/exit).
    Op(&'a OpEvent),
    /// A compute-graph compilation event.
    Graph(&'a GraphEvent),
    /// A tensor memory event.
    Mem(&'a MemEvent),
    /// A GPU API callback.
    Gpu(GpuCallbackEvent<'a>),
}

impl DlEvent<'_> {
    /// The event's routing identity. Operator events carry their executing
    /// thread; GPU events carry thread, stream and correlation id; graph
    /// and memory events have no stable origin (they are process-global).
    pub fn origin(&self) -> EventOrigin {
        match self {
            DlEvent::Op(op) => EventOrigin {
                tid: Some(op.thread.tid()),
                ..EventOrigin::default()
            },
            DlEvent::Graph(_) | DlEvent::Mem(_) => EventOrigin::default(),
            DlEvent::Gpu(gpu) => gpu.origin(),
        }
    }
}

/// Which call-path sources `dlmonitor_callpath_get` integrates — the
/// paper's "allows users to choose which specific call path source to
/// integrate or ignore to reduce overhead".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPathSources {
    /// Include Python interpreter frames.
    pub python: bool,
    /// Include framework operator frames (the shadow stack).
    pub framework: bool,
    /// Include native C/C++ frames (requires unwinding — the expensive
    /// source).
    pub native: bool,
}

impl CallPathSources {
    /// Everything on (the paper's "DeepContext Native" configuration).
    pub fn all() -> Self {
        CallPathSources {
            python: true,
            framework: true,
            native: true,
        }
    }

    /// Python + framework only (the paper's default "DeepContext"
    /// configuration, with cheaper call paths).
    pub fn without_native() -> Self {
        CallPathSources {
            python: true,
            framework: true,
            native: false,
        }
    }
}

impl Default for CallPathSources {
    fn default() -> Self {
        Self::all()
    }
}

/// Bits of [`DlMonitor::flags`]: the three [`CallPathSources`] and the
/// call-path cache switch, so a launch reads all four with one load.
const FLAG_PYTHON: u8 = 1;
const FLAG_FRAMEWORK: u8 = 2;
const FLAG_NATIVE: u8 = 4;
const FLAG_CACHE: u8 = 8;

impl CallPathSources {
    fn bits(self) -> u8 {
        (if self.python { FLAG_PYTHON } else { 0 })
            | (if self.framework { FLAG_FRAMEWORK } else { 0 })
            | (if self.native { FLAG_NATIVE } else { 0 })
    }

    fn from_bits(bits: u8) -> Self {
        CallPathSources {
            python: bits & FLAG_PYTHON != 0,
            framework: bits & FLAG_FRAMEWORK != 0,
            native: bits & FLAG_NATIVE != 0,
        }
    }
}

/// Identifier of a registered profiler callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegistrationId(u64);

/// Counters describing monitor activity (drives the caching ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Unified call paths built.
    pub callpaths_built: u64,
    /// Call paths that reused a cached Python path.
    pub cache_hits: u64,
    /// Backward call paths recovered through sequence-id association.
    pub assoc_hits: u64,
    /// Forward association records currently held: the tape being
    /// recorded and the last one a backward pass walked.
    pub assoc_live: u64,
}

type EventCb = Arc<dyn for<'a, 'b> Fn(&'a DlEvent<'b>) + Send + Sync>;
type Registration = (RegistrationId, Domain, EventCb);

/// Where every loaded `libpython*` is mapped: learnt from the library map
/// once at [`DlMonitor::init`] and kept current by its load callback, the
/// way the real tool walks `dl_iterate_phdr` once and then listens to
/// `LD_AUDIT`. Threads keep a copy and re-read it when `generation` moves.
#[derive(Default)]
struct PythonRanges {
    ranges: Mutex<Vec<Range<u64>>>,
    /// Bumped after every push.
    generation: AtomicU64,
}

impl PythonRanges {
    fn note(&self, library: &LibraryInfo) {
        if library.is_libpython() {
            self.ranges
                .lock()
                .push(library.base..library.base + library.size);
            self.generation.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The Python call path of one thread, valid for exactly the
/// [`PythonStack::version`] it was taken at.
#[derive(Default)]
struct PythonSnapshot(Option<(u64, PathHandle)>);

impl PythonSnapshot {
    /// The thread's current Python path, re-walked only when the stack's
    /// version has moved since the last call.
    fn current(
        &mut self,
        python: &PythonStack,
        memo: &mut PathMemo,
        interner: &Interner,
    ) -> PathHandle {
        // Read the version before walking: a racing mutation can then only
        // make the snapshot look stale, never fresh.
        let version = python.version();
        match self.0 {
            Some((taken_at, path)) if taken_at == version => path,
            _ => {
                let path = python.with_frames(|frames| {
                    frames.iter().fold(PathHandle::ROOT, |path, f| {
                        let key = FrameKey::Python {
                            file: interner.intern_cached(&f.file),
                            line: f.line,
                        };
                        memo.extend(interner.paths(), path, key, || {
                            Frame::python(&f.file, f.line, &f.function, interner)
                        })
                    })
                });
                self.0 = Some((version, path));
                path
            }
        }
    }
}

/// Kernel launches by `(calling context, API frame slot, entry PC)`: the
/// launch's whole leaf — API frame and kernel frame — in one probe, with
/// the module the slot was made for (PCs are unique within one module
/// only).
type KernelLeaves = FxHashMap<(PathId, u8, u64), (Arc<str>, PathHandle)>;

/// `(innermost operator's context, leaf PC, tail length)`.
type TailKey = (PathId, u64, usize);

/// A remembered tail: each frame's `(library, pc)` and the context the
/// tail extends the operator's to.
type Tail = (Box<[(Arc<str>, u64)]>, PathHandle);

/// Native tails seen under an operator. A hit is believed only after
/// every frame's `(library, pc)` was compared in place, so it can only be
/// what the integrator would have built.
#[derive(Default)]
struct NativeTails(FxHashMap<TailKey, Tail>);

impl NativeTails {
    fn get(&self, key: TailKey, native: &[NativeFrameInfo]) -> Option<PathHandle> {
        let (frames, path) = self.0.get(&key)?;
        let same = frames
            .iter()
            .zip(native)
            .all(|((library, pc), f)| *pc == f.pc && **library == *f.library);
        same.then_some(*path)
    }

    fn insert(&mut self, key: TailKey, native: &[NativeFrameInfo], path: PathHandle) {
        let frames = native.iter().map(|f| (Arc::clone(&f.library), f.pc));
        self.0.insert(key, (frames.collect(), path));
    }
}

/// Everything the monitor keeps for one simulated thread.
#[derive(Default)]
struct ThreadState {
    /// The shadow operator stack, outermost first.
    shadow: Vec<ShadowOp>,
    python: PythonSnapshot,
    /// This thread's sightings of the session's path table.
    memo: PathMemo,
    /// In front of `memo` for kernel launches: a hit interns nothing.
    kernels: KernelLeaves,
    /// This thread's copy of [`PythonRanges`] and the generation it was
    /// taken at: the libpython cut-over test takes no lock per frame.
    libpython: (u64, Vec<Range<u64>>),
    /// In front of the integrator in cached mode: a tail seen before
    /// under the same operator interns nothing. Valid for `libpython`'s
    /// generation (a load can turn a kept frame into a cut-over point).
    tails: NativeTails,
    /// This thread's share of [`MonitorStats`]: counted under the lock
    /// the path is built under anyway, summed by [`DlMonitor::stats`].
    built: u64,
    cache_hits: u64,
    assoc_hits: u64,
}

impl ThreadState {
    /// Forgets the thread's contexts; its counters are history and stay.
    fn reset(&mut self) {
        *self = ThreadState {
            built: self.built,
            cache_hits: self.cache_hits,
            assoc_hits: self.assoc_hits,
            ..ThreadState::default()
        };
    }
}

/// Every thread's [`ThreadState`], indexed by tid. Tids are dense from 1,
/// so slot `tid` lives in chunk `⌊log2(tid + 1)⌋` (chunk `k` holds `2^k`
/// slots, allocated on first touch and never moved): reaching a record is
/// one acquire load plus that thread's own mutex — no hashing and no lock
/// shared between threads.
struct ThreadSlab([OnceLock<Box<[Mutex<ThreadState>]>>; 64]);

impl Default for ThreadSlab {
    fn default() -> Self {
        ThreadSlab(std::array::from_fn(|_| OnceLock::new()))
    }
}

impl ThreadSlab {
    fn slot(&self, tid: u64) -> &Mutex<ThreadState> {
        let n = tid.saturating_add(1);
        let k = n.ilog2();
        let chunk =
            self.0[k as usize].get_or_init(|| (0..1u64 << k).map(|_| Mutex::default()).collect());
        &chunk[(n - (1 << k)) as usize]
    }

    /// Every record allocated so far.
    fn slots(&self) -> impl Iterator<Item = &Mutex<ThreadState>> {
        self.0
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|c| c.iter())
    }
}

/// Slots of the per-vendor GPU API frame table.
const API_KINDS: usize = 5;

/// The DLMonitor shim.
///
/// See the [crate-level docs](crate) for the API mapping to the paper.
pub struct DlMonitor {
    env: RuntimeEnv,
    interner: Arc<Interner>,
    threads: ThreadSlab,
    /// Forward context by autograd sequence id: the Python frames plus
    /// the forward operator frames, ready to prefix a backward path.
    assoc: Mutex<FxHashMap<u64, PathHandle>>,
    /// One past the highest sequence id a backward operator was entered
    /// under. A pass walks its tape from the highest id down, so an id at
    /// or above this opens a newer tape and retires every record below it:
    /// not an operator's own exit (one forward operator lowers to several
    /// backward ones under one id) nor the next taped forward operator
    /// (it may run beside a pass still under way).
    walked: AtomicU64,
    callbacks: Subscribers<Registration>,
    libpython: Arc<PythonRanges>,
    /// [`Domain::bit`]s of the domains `callbacks` has a subscriber for.
    subscribed: AtomicU8,
    /// The GPU API frames, `[vendor][api]`, interned on first use.
    api_frames: [[OnceLock<Frame>; API_KINDS]; 2],
    next_id: AtomicU64,
    /// `FLAG_*` bits.
    flags: AtomicU8,
    finalized: AtomicBool,
    attached_framework: Mutex<Vec<(Arc<CallbackRegistry>, Vec<FrameworkCallbackId>)>>,
    attached_gpu: Mutex<Vec<(Arc<GpuRuntime>, SubscriberId)>>,
}

impl DlMonitor {
    /// `dlmonitor_init`: creates the monitor against a process
    /// environment. The interner is shared with the profiler so frame
    /// symbols agree.
    pub fn init(env: &RuntimeEnv, interner: Arc<Interner>) -> Arc<Self> {
        // Subscribe before reading what is loaded already: a library that
        // loads in between is noted twice, never missed. The map keeps its
        // callbacks for good, so this one holds the ranges weakly.
        let libpython = Arc::new(PythonRanges::default());
        let ranges = Arc::downgrade(&libpython);
        env.libraries().on_load(move |library| {
            if let Some(ranges) = ranges.upgrade() {
                ranges.note(library);
            }
        });
        for library in env.libraries().snapshot() {
            libpython.note(&library);
        }
        Arc::new(DlMonitor {
            env: env.clone(),
            interner,
            threads: ThreadSlab::default(),
            assoc: Mutex::new(FxHashMap::default()),
            walked: AtomicU64::new(0),
            callbacks: Subscribers::default(),
            libpython,
            subscribed: AtomicU8::new(0),
            api_frames: Default::default(),
            next_id: AtomicU64::new(0),
            flags: AtomicU8::new(CallPathSources::default().bits() | FLAG_CACHE),
            finalized: AtomicBool::new(false),
            attached_framework: Mutex::new(Vec::new()),
            attached_gpu: Mutex::new(Vec::new()),
        })
    }

    /// The shared interner.
    pub fn interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// Selects which call-path sources to integrate.
    pub fn set_sources(&self, sources: CallPathSources) {
        let _ = self
            .flags
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |flags| {
                Some(flags & FLAG_CACHE | sources.bits())
            });
    }

    /// The current source selection.
    pub fn sources(&self) -> CallPathSources {
        CallPathSources::from_bits(self.flags.load(Ordering::SeqCst))
    }

    /// Enables/disables the call-path cache.
    pub fn set_cache_enabled(&self, enabled: bool) {
        if enabled {
            self.flags.fetch_or(FLAG_CACHE, Ordering::SeqCst);
        } else {
            self.flags.fetch_and(!FLAG_CACHE, Ordering::SeqCst);
        }
    }

    /// Whether the call-path cache is on.
    pub fn cache_enabled(&self) -> bool {
        self.flags.load(Ordering::SeqCst) & FLAG_CACHE != 0
    }

    /// Activity counters.
    pub fn stats(&self) -> MonitorStats {
        let mut stats = MonitorStats {
            assoc_live: self.assoc.lock().len() as u64,
            ..MonitorStats::default()
        };
        for slot in self.threads.slots() {
            let state = slot.lock();
            stats.callpaths_built += state.built;
            stats.cache_hits += state.cache_hits;
            stats.assoc_hits += state.assoc_hits;
        }
        stats
    }

    /// `dlmonitor_callback_register`: registers a profiler callback for a
    /// domain.
    pub fn callback_register(
        &self,
        domain: Domain,
        cb: impl for<'a, 'b> Fn(&'a DlEvent<'b>) + Send + Sync + 'static,
    ) -> RegistrationId {
        let id = RegistrationId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let cb: EventCb = Arc::new(cb);
        self.update_callbacks(|old| old.iter().cloned().chain([(id, domain, cb)]).collect());
        id
    }

    /// Removes a registered callback.
    pub fn callback_unregister(&self, id: RegistrationId) {
        self.update_callbacks(|old| old.iter().filter(|(i, _, _)| *i != id).cloned().collect());
    }

    /// Replaces the callback list and republishes which domains have a
    /// subscriber.
    fn update_callbacks(&self, f: impl FnOnce(&[Registration]) -> Vec<Registration>) {
        self.callbacks.update(|old| {
            let new = f(old);
            let subscribed = new.iter().fold(0, |mask, (_, d, _)| mask | d.bit());
            self.subscribed.store(subscribed, Ordering::SeqCst);
            new
        });
    }

    /// Whether `domain` has a subscriber: one load.
    fn listening(&self, domain: Domain) -> bool {
        self.subscribed.load(Ordering::SeqCst) & domain.bit() != 0
    }

    /// Delivers `event` to `domain`'s subscribers; a domain nobody
    /// listens to costs one load.
    fn fire(&self, domain: Domain, event: DlEvent<'_>) {
        if self.listening(domain) {
            self.callbacks.deliver(|(_, d, cb)| {
                if *d == domain {
                    cb(&event);
                }
            });
        }
    }

    /// Attaches to a framework's callback registry: maintains the shadow
    /// operator stack and forward/backward association, and forwards
    /// operator / graph / memory events to `Framework`-domain callbacks.
    ///
    /// Call this **before** registering profiler callbacks so the shadow
    /// stack is current when they fire.
    pub fn attach_framework(self: &Arc<Self>, callbacks: &Arc<CallbackRegistry>) {
        let mut ids = Vec::new();

        let me = Arc::clone(self);
        ids.push(callbacks.on_op(move |event| {
            me.on_op_event(event);
            me.fire(Domain::Framework, DlEvent::Op(event));
        }));

        let me = Arc::clone(self);
        ids.push(callbacks.on_graph(move |event| {
            me.fire(Domain::Framework, DlEvent::Graph(event));
        }));

        let me = Arc::clone(self);
        ids.push(callbacks.on_mem(move |event| {
            me.fire(Domain::Framework, DlEvent::Mem(event));
        }));

        self.attached_framework
            .lock()
            .push((Arc::clone(callbacks), ids));
    }

    /// Attaches to a GPU runtime (CUPTI/RocTracer substitute), forwarding
    /// API callbacks to `Gpu`-domain callbacks.
    pub fn attach_gpu(self: &Arc<Self>, gpu: &Arc<GpuRuntime>) {
        let vendor = gpu
            .device_spec(sim_gpu::DeviceId(0))
            .map(|s| s.vendor)
            .unwrap_or(Vendor::Nvidia);
        let me = Arc::clone(self);
        let sub = gpu.subscribe(move |data| {
            // Checked here too: nobody listening, no thread looked up.
            if me.listening(Domain::Gpu) {
                ThreadRegistry::with_current(|thread| {
                    let event = GpuCallbackEvent {
                        data,
                        vendor,
                        thread,
                    };
                    me.fire(Domain::Gpu, DlEvent::Gpu(event));
                });
            }
        });
        self.attached_gpu.lock().push((Arc::clone(gpu), sub));
    }

    fn on_op_event(&self, event: &OpEvent) {
        if self.finalized.load(Ordering::SeqCst) {
            return;
        }
        let thread = &event.thread;
        let mut state = self.threads.slot(thread.tid()).lock();
        let ThreadState {
            shadow,
            python,
            memo,
            ..
        } = &mut *state;
        match event.site {
            Site::Enter => {
                // Snapshot at every Enter, whatever the cache flag says
                // now: it may be switched on before the launch.
                let python = python.current(thread.python(), memo, &self.interner);
                let frame =
                    Frame::operator_with(&event.name, event.phase, event.seq_id, &self.interner);
                let op = ShadowOp::enter(
                    frame,
                    thread.native().depth(),
                    python,
                    shadow,
                    memo,
                    &self.interner,
                );
                match (event.phase, event.seq_id) {
                    (OpPhase::Forward, Some(seq)) => {
                        self.assoc.lock().insert(seq, op.path);
                    }
                    (OpPhase::Backward, Some(seq)) if seq >= self.walked.load(Ordering::SeqCst) => {
                        let walked = self.walked.swap(seq + 1, Ordering::SeqCst);
                        self.assoc.lock().retain(|id, _| *id >= walked);
                    }
                    _ => {}
                }
                shadow.push(op);
            }
            Site::Exit => {
                shadow.pop();
            }
        }
    }

    /// Drops recorded forward/backward associations (typically once per
    /// training iteration, after `backward()` completes, to bound memory).
    pub fn clear_associations(&self) {
        self.assoc.lock().clear();
    }

    /// `dlmonitor_callpath_get`: the unified multi-layer call path of
    /// `thread` under the configured sources and cache mode.
    pub fn callpath_get(&self, thread: &Arc<ThreadCtx>) -> LivePath {
        self.unified_path(&mut self.threads.slot(thread.tid()).lock(), thread)
    }

    /// The unified path of `thread`, whose record `state` is.
    fn unified_path(&self, state: &mut ThreadState, thread: &ThreadCtx) -> LivePath {
        state.built += 1;
        let flags = self.flags.load(Ordering::SeqCst);
        let cache_on = flags & FLAG_CACHE != 0;

        let ThreadState {
            shadow,
            python,
            memo,
            libpython,
            tails,
            cache_hits,
            assoc_hits,
            ..
        } = state;
        let shadow: &[ShadowOp] = if flags & FLAG_FRAMEWORK != 0 {
            shadow
        } else {
            &[]
        };

        // Forward/backward association: a backward operator on this
        // thread recovers the forward context recorded under its
        // sequence id.
        let assoc: Option<PathHandle> = match shadow.first().map(|op| &op.frame) {
            Some(Frame::Operator {
                phase: OpPhase::Backward,
                seq_id: Some(seq),
                ..
            }) => self.assoc.lock().get(seq).copied(),
            _ => None,
        };

        // `cached`: the context of the innermost operator when the path
        // starts from the Python snapshot it was entered under and no
        // operator was entered deeper in the native stack than it — then
        // the path is that context extended by the native tail, no more.
        let (prefix, cached) = if flags & FLAG_PYTHON == 0 {
            (PathHandle::ROOT, None)
        } else if let Some(forward) = assoc {
            *assoc_hits += 1;
            (forward, None)
        } else if let (true, Some(innermost)) = (cache_on, shadow.last()) {
            *cache_hits += 1;
            let nested = shadow
                .iter()
                .all(|op| op.native_depth <= innermost.native_depth);
            (innermost.python, nested.then(|| innermost.path.id()))
        } else {
            (python.current(thread.python(), memo, &self.interner), None)
        };

        let native_on = flags & FLAG_NATIVE != 0;
        if native_on {
            let generation = self.libpython.generation.load(Ordering::SeqCst);
            if libpython.0 != generation {
                *libpython = (generation, self.libpython.ranges.lock().clone());
                tails.0.clear();
            }
        }
        let libpython = &libpython.1;
        let mut integrate = |native: &[NativeFrameInfo], native_base| {
            integrate_call_path(
                prefix,
                shadow,
                native,
                native_base,
                |pc| libpython.iter().any(|range| range.contains(&pc)),
                memo,
                &self.interner,
            )
        };
        let path = if !native_on {
            integrate(&[], 0)
        } else {
            // Native frames, read in place. Cached mode (or association)
            // only needs the tail below the relevant operator: a partial
            // unwind.
            let anchor = if assoc.is_some() {
                shadow.first()
            } else if cache_on {
                shadow.last()
            } else {
                None
            }
            .map_or(0, |op| op.native_depth);
            self.env
                .unwinder()
                .with_tail(thread.native(), anchor, |native| {
                    let key = cached
                        .zip(native.last())
                        .map(|(op, leaf)| (op, leaf.pc, native.len()));
                    if let Some(path) = key.and_then(|key| tails.get(key, native)) {
                        return path;
                    }
                    let path = integrate(native, anchor);
                    if let Some(key) = key {
                        tails.insert(key, native, path);
                    }
                    path
                })
        };
        // The sequence id a rendering of this sighting shows: the
        // innermost operator's that has one.
        let seq = shadow.iter().rev().find_map(|op| match op.frame {
            Frame::Operator { seq_id, .. } => seq_id,
            _ => None,
        });
        LivePath::new(path, seq)
    }

    /// The call path of a GPU API callback: the thread's unified path
    /// plus the GPU API frame and (for launches) the kernel frame — the
    /// full Figure 3(b) shape.
    pub fn callpath_for_gpu(&self, event: &GpuCallbackEvent<'_>) -> LivePath {
        match event.thread {
            Some(thread) => {
                let mut state = self.threads.slot(thread.tid()).lock();
                let live = self.unified_path(&mut state, thread);
                let ThreadState { memo, kernels, .. } = &mut *state;
                LivePath::new(
                    self.gpu_leaf(live.handle(), event, memo, kernels),
                    live.seq(),
                )
            }
            // A runtime-internal callback: no thread, so nothing to keep.
            None => LivePath::new(
                self.gpu_leaf(
                    PathHandle::ROOT,
                    event,
                    &mut PathMemo::default(),
                    &mut KernelLeaves::default(),
                ),
                None,
            ),
        }
    }

    /// `path` extended by the event's GPU API frame and kernel frame.
    fn gpu_leaf(
        &self,
        path: PathHandle,
        event: &GpuCallbackEvent<'_>,
        memo: &mut PathMemo,
        kernels: &mut KernelLeaves,
    ) -> PathHandle {
        let (vendor, api) = (vendor_index(event.vendor), api_index(event.data.api));
        let launch = event.data.kernel.as_ref().map(|kernel| {
            let slot = (path.id(), (vendor * API_KINDS + api) as u8, kernel.entry_pc);
            (kernel, slot)
        });
        if let Some((kernel, slot)) = &launch {
            if let Some((module, leaf)) = kernels.get(slot) {
                if *module == kernel.module {
                    return *leaf;
                }
            }
        }
        let paths = self.interner.paths();
        let frame = self.api_frames[vendor][api].get_or_init(|| {
            Frame::gpu_api(
                event.data.api.api_name(event.vendor),
                event.data.api.api_library(event.vendor),
                (api as u64 + 1) * 0x10,
                &self.interner,
            )
        });
        let path = memo.extend_frame(paths, path, frame);
        let Some((kernel, slot)) = launch else {
            return path;
        };
        // First sighting, or a kernel of another module at the same PC:
        // the slot keeps whoever came first and the other lives in `memo`
        // — neither evicts the other.
        let frame = Frame::gpu_kernel(
            &kernel.name,
            &kernel.module,
            kernel.entry_pc,
            &self.interner,
        );
        let leaf = memo.extend_frame(paths, path, &frame);
        kernels
            .entry(slot)
            .or_insert_with(|| (Arc::clone(&kernel.module), leaf));
        leaf
    }

    /// `dlmonitor_finalize`: detaches every interception and clears
    /// monitor state. Further events are ignored.
    pub fn finalize(&self) {
        self.finalized.store(true, Ordering::SeqCst);
        for (registry, ids) in self.attached_framework.lock().drain(..) {
            for id in ids {
                registry.remove(id);
            }
        }
        for (gpu, sub) in self.attached_gpu.lock().drain(..) {
            gpu.unsubscribe(sub);
        }
        self.update_callbacks(|_| Vec::new());
        for slot in self.threads.slots() {
            slot.lock().reset();
        }
        self.assoc.lock().clear();
    }

    /// Depth of the shadow stack for a thread (test/diagnostic hook).
    pub fn shadow_depth(&self, tid: u64) -> usize {
        self.threads.slot(tid).lock().shadow.len()
    }
}

impl std::fmt::Debug for DlMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlMonitor")
            .field("stats", &self.stats())
            .field("sources", &self.sources())
            .field("cache_enabled", &self.cache_enabled())
            .finish()
    }
}

/// Slot of an API kind in the frame table; its stable pseudo-PC
/// (distinct per API kind) is `(slot + 1) * 0x10`.
fn api_index(api: ApiKind) -> usize {
    match api {
        ApiKind::LaunchKernel => 0,
        ApiKind::MemcpyAsync => 1,
        ApiKind::MemAlloc => 2,
        ApiKind::MemFree => 3,
        ApiKind::Synchronize => 4,
    }
}

fn vendor_index(vendor: Vendor) -> usize {
    match vendor {
        Vendor::Nvidia => 0,
        Vendor::Amd => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallPath, FrameKind, ThreadRole, TimeNs};
    use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
    use sim_gpu::{CallbackSite, DeviceId, DeviceSpec, GpuRuntime};

    struct Rig {
        env: RuntimeEnv,
        engine: Arc<EagerEngine>,
        monitor: Arc<DlMonitor>,
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
        let engine = EagerEngine::new(Arc::clone(&core));
        let monitor = DlMonitor::init(&env, Interner::new());
        monitor.attach_framework(core.callbacks());
        monitor.attach_gpu(&gpu);
        Rig {
            env,
            engine,
            monitor,
        }
    }

    fn launch_paths(rig: &Rig) -> Arc<Mutex<Vec<CallPath>>> {
        let paths = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::clone(&paths);
        let monitor = Arc::clone(&rig.monitor);
        rig.monitor.callback_register(Domain::Gpu, move |event| {
            if let DlEvent::Gpu(gpu_event) = event {
                if gpu_event.data.api == ApiKind::LaunchKernel
                    && gpu_event.data.site == CallbackSite::Enter
                {
                    let path = monitor.callpath_for_gpu(gpu_event);
                    p.lock().push(path.to_call_path(&monitor.interner));
                }
            }
        });
        paths
    }

    #[test]
    fn unified_path_spans_all_five_layers() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let paths = launch_paths(&rig);

        let core = Arc::clone(rig.engine.core());
        let _s1 = core.python().frame(&main, "train.py", 12, "main");
        let _s2 = core.python().frame(&main, "model.py", 34, "forward");
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 16])])
            .unwrap();

        let paths = paths.lock();
        assert_eq!(paths.len(), 1);
        let kinds: Vec<FrameKind> = paths[0].frames().iter().map(|f| f.kind()).collect();
        // Python, Python, Operator, Native(dispatcher), Native(impl), GpuApi, GpuKernel.
        assert_eq!(
            kinds,
            vec![
                FrameKind::Python,
                FrameKind::Python,
                FrameKind::Operator,
                FrameKind::Native,
                FrameKind::Native,
                FrameKind::GpuApi,
                FrameKind::GpuKernel
            ]
        );
        let interner = rig.monitor.interner();
        let labels: Vec<String> = paths[0]
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        assert_eq!(labels[0], "train.py:12");
        assert_eq!(labels[1], "model.py:34");
        assert_eq!(labels[2], "aten::relu");
        assert_eq!(labels[5], "cuLaunchKernel");
        assert_eq!(labels[6], "vectorized_elementwise_kernel<relu>");
    }

    #[test]
    fn without_monitor_attachment_path_has_no_framework_context() {
        // The Figure 3(a) contrast: native-only unwinding.
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.monitor.set_sources(CallPathSources {
            python: false,
            framework: false,
            native: true,
        });
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        let _s1 = core.python().frame(&main, "train.py", 12, "main");
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        let paths = paths.lock();
        let kinds: Vec<FrameKind> = paths[0].frames().iter().map(|f| f.kind()).collect();
        assert!(!kinds.contains(&FrameKind::Python));
        assert!(!kinds.contains(&FrameKind::Operator));
        assert!(kinds.contains(&FrameKind::Native));
    }

    #[test]
    fn backward_paths_recover_forward_context_via_sequence_ids() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.engine.set_grad_enabled(true);
        let paths = launch_paths(&rig);

        for _iteration in 0..2 {
            let core = Arc::clone(rig.engine.core());
            let scope = core.python().frame(&main, "train.py", 12, "train_step");
            rig.engine
                .op(
                    Op::new(OpKind::Index).with_duplicates(16.0),
                    &[TensorMeta::new([10_000, 64]), TensorMeta::new([512])],
                )
                .unwrap();
            drop(scope);
            rig.engine.backward().unwrap();
        }

        let paths = paths.lock();
        // One forward launch; backward lowers two kernels (zero + scatter).
        assert_eq!(paths.len(), 6, "per iteration: forward + two backward");
        let interner = rig.monitor.interner();
        // Each iteration's paths show its own sequence id, on the forward
        // operator recovered through the association as well.
        let ids = |path: &CallPath| -> Vec<Option<u64>> {
            let ops = path.frames().iter().filter_map(|f| match f {
                Frame::Operator { seq_id, .. } => Some(*seq_id),
                _ => None,
            });
            ops.collect()
        };
        assert_eq!(ids(&paths[0]), [Some(1)]);
        assert_eq!(ids(&paths[2]), [Some(1), Some(1)]);
        assert_eq!(ids(&paths[3]), [Some(2)]);
        assert_eq!(ids(&paths[5]), [Some(2), Some(2)]);
        let bwd_labels: Vec<String> = paths[2]
            .frames()
            .iter()
            .map(|f| f.short_label(&interner))
            .collect();
        // The backward path begins with the *forward* Python context.
        assert_eq!(bwd_labels[0], "train.py:12");
        assert_eq!(bwd_labels[1], "aten::index");
        assert!(bwd_labels.contains(&"aten::index~bwd".to_owned()));
        assert!(bwd_labels.contains(&"indexing_backward_kernel".to_owned()));
        assert!(rig.monitor.stats().assoc_hits >= 1);
    }

    #[test]
    fn backward_without_association_has_no_python_context() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.engine.set_grad_enabled(true);
        let paths = launch_paths(&rig);

        {
            let core = Arc::clone(rig.engine.core());
            let _s1 = core.python().frame(&main, "train.py", 12, "train_step");
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        rig.monitor.clear_associations(); // simulate a monitor without the feature
        rig.engine.backward().unwrap();

        let paths = paths.lock();
        let bwd = &paths[1];
        assert!(
            bwd.frames().iter().all(|f| f.kind() != FrameKind::Python),
            "orphaned backward path must lack Python frames"
        );
    }

    #[test]
    fn cached_and_uncached_paths_agree_for_flat_dispatch() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());

        rig.monitor.set_cache_enabled(true);
        {
            let _s = core.python().frame(&main, "a.py", 1, "f");
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        rig.monitor.set_cache_enabled(false);
        {
            let _s = core.python().frame(&main, "a.py", 1, "f");
            rig.engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();
        }
        let paths = paths.lock();
        assert_eq!(paths[0], paths[1]);
        assert!(rig.monitor.stats().cache_hits >= 1);
    }

    #[test]
    fn caching_reduces_unwind_steps() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let _paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        // Deep Python nesting makes full unwinds expensive.
        let _scopes: Vec<_> = (0..10)
            .map(|i| {
                core.python()
                    .frame(&main, "deep.py", i, &format!("level{i}"))
            })
            .collect();

        rig.monitor.set_cache_enabled(false);
        rig.env.unwinder().reset_counters();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        let uncached_steps = rig.env.unwinder().steps_taken();

        rig.monitor.set_cache_enabled(true);
        rig.env.unwinder().reset_counters();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        let cached_steps = rig.env.unwinder().steps_taken();

        assert!(
            cached_steps < uncached_steps,
            "cached {cached_steps} !< uncached {uncached_steps}"
        );
    }

    #[test]
    fn unwind_counts_are_what_a_stepped_cursor_took() {
        // One unwind per call path and one step per native frame below
        // the anchor (the whole stack when there is none), whichever way
        // the frames are read: the constants are `a00c88d`'s, which
        // stepped a cursor over a copy of the stack.
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let _paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        let _scopes: Vec<_> = (0..3)
            .map(|i| core.python().frame(&main, "deep.py", i, "level"))
            .collect();
        let unwinder = rig.env.unwinder();
        let counts = || (unwinder.unwinds_started(), unwinder.steps_taken());
        let index = || {
            rig.engine
                .op(
                    Op::new(OpKind::Index).with_duplicates(16.0),
                    &[TensorMeta::new([10_000, 64]), TensorMeta::new([512])],
                )
                .unwrap();
        };

        unwinder.reset_counters();
        index();
        assert_eq!(counts(), (1, 2), "cached: the frames below the operator");

        rig.monitor.set_cache_enabled(false);
        unwinder.reset_counters();
        index();
        assert_eq!(counts(), (1, 5), "uncached: the whole stack");

        rig.monitor.set_cache_enabled(true);
        rig.engine.set_grad_enabled(true);
        index();
        unwinder.reset_counters();
        rig.engine.backward().unwrap();
        assert_eq!(counts(), (2, 4), "association: two backward launches");
        assert_eq!(rig.monitor.stats().assoc_hits, 2);
    }

    #[test]
    fn disabling_native_source_skips_unwinding_entirely() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        rig.monitor.set_sources(CallPathSources::without_native());
        let paths = launch_paths(&rig);
        let core = Arc::clone(rig.engine.core());
        let _s = core.python().frame(&main, "a.py", 1, "f");

        rig.env.unwinder().reset_counters();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        assert_eq!(rig.env.unwinder().steps_taken(), 0);

        let paths = paths.lock();
        let kinds: Vec<FrameKind> = paths[0].frames().iter().map(|f| f.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                FrameKind::Python,
                FrameKind::Operator,
                FrameKind::GpuApi,
                FrameKind::GpuKernel
            ]
        );
    }

    #[test]
    fn finalize_detaches_everything() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let paths = launch_paths(&rig);
        rig.monitor.finalize();
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
            .unwrap();
        assert!(paths.lock().is_empty());
        assert_eq!(rig.monitor.shadow_depth(main.tid()), 0);
    }

    #[test]
    fn shadow_stack_tracks_nesting_and_unwinds_on_exit() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let depths = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&depths);
        let monitor = Arc::clone(&rig.monitor);
        let tid = main.tid();
        rig.monitor
            .callback_register(Domain::Framework, move |event| {
                if let DlEvent::Op(op) = event {
                    if op.site == Site::Enter {
                        d.lock().push(monitor.shadow_depth(tid));
                    }
                }
            });
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([8])])
            .unwrap();
        rig.engine
            .op(Op::new(OpKind::Gelu), &[TensorMeta::new([8])])
            .unwrap();
        // Depth observed at Enter is 1 for each (not nested; exits popped).
        assert_eq!(*depths.lock(), vec![1, 1]);
        assert_eq!(rig.monitor.shadow_depth(tid), 0);
    }

    #[test]
    fn mem_and_graph_events_are_forwarded() {
        let rig = rig();
        let main = rig.env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);
        let count = Arc::new(Mutex::new(0usize));
        let c = Arc::clone(&count);
        rig.monitor
            .callback_register(Domain::Framework, move |event| {
                if matches!(event, DlEvent::Mem(_)) {
                    *c.lock() += 1;
                }
            });
        let meta = TensorMeta::new([256]);
        let ptr = rig.engine.alloc_tensor(&meta).unwrap();
        rig.engine.free_tensor(ptr, meta.bytes() as u64).unwrap();
        assert_eq!(*count.lock(), 2);
    }
}
