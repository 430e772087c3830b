//! The allocation budget of the synchronous sink's steady state, held by
//! a counting global allocator (the `crates/dlmonitor/tests/alloc_budget.rs`
//! pattern): a launch on a context the current epoch has already seen
//! allocates nothing, producing its handle included; an activity batch
//! allocates a number of times that does not depend on its size; a fold
//! of warm rows into a warm master allocates nothing; warm iterations
//! grow no table, and a new context is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use deepcontext_core::{Frame, Interner, MetricKind, TimeNs};
use deepcontext_pipeline::ShardedSink;
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, StreamId};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// Repeating contexts of one training step.
const CONTEXTS: u64 = 8;

/// The frames of context `ctx`.
fn context(interner: &Interner, ctx: u64) -> Vec<Frame> {
    vec![
        Frame::python("train.py", 10, "train_step", interner),
        Frame::python("model.py", 20, "forward", interner),
        Frame::operator(&format!("aten::op{ctx}"), interner),
        Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x10, interner),
        Frame::gpu_kernel(&format!("kernel_{ctx}"), "module.so", 0x100 + ctx, interner),
    ]
}

/// One thread, one stream: every launch and record shares a home shard.
struct Rig {
    interner: Arc<Interner>,
    sink: Arc<ShardedSink>,
    contexts: Vec<Vec<Frame>>,
    next_corr: u64,
}

impl Rig {
    fn with_shards(shards: usize) -> Rig {
        let interner = Interner::new();
        Rig {
            contexts: (0..CONTEXTS).map(|ctx| context(&interner, ctx)).collect(),
            sink: ShardedSink::new(Arc::clone(&interner), shards),
            interner,
            next_corr: 1,
        }
    }

    /// `n` launches (built here, outside any measurement) with fresh
    /// correlation ids, cycling through the contexts.
    fn launches(&mut self, n: u64) -> Vec<EventOrigin> {
        let first = self.next_corr;
        self.next_corr += n;
        (first..first + n)
            .map(|corr| EventOrigin {
                tid: Some(1),
                stream: Some(StreamId(0)),
                correlation: Some(CorrelationId(corr)),
            })
            .collect()
    }

    /// Delivers each launch the way the profiler's callback does: the
    /// context's handle first, then the sink.
    fn deliver(&self, launches: Vec<EventOrigin>) {
        for origin in launches {
            let corr = origin.correlation.expect("launches carry one").0;
            let frames = &self.contexts[(corr % CONTEXTS) as usize];
            let path = self.interner.paths().intern(frames);
            self.sink.gpu_launch(&origin, path, ApiKind::LaunchKernel);
        }
    }

    /// Launches `n` kernels and returns their completed records.
    fn launch_and_complete(&mut self, n: u64) -> Vec<Activity> {
        let launches = self.launches(n);
        let records = launches
            .iter()
            .map(|origin| {
                let corr = origin.correlation.expect("launches carry one").0;
                let ctx = corr % CONTEXTS;
                Activity {
                    correlation_id: CorrelationId(corr),
                    device: DeviceId(0),
                    kind: ActivityKind::Kernel {
                        name: Arc::from(format!("kernel_{ctx}").as_str()),
                        module: Arc::from("module.so"),
                        entry_pc: 0x100 + ctx,
                        stream: StreamId(0),
                        start: TimeNs(corr * 300),
                        end: TimeNs(corr * 300 + 250),
                    },
                }
            })
            .collect();
        self.deliver(launches);
        records
    }

    /// Two full batch cycles: every context exists with every metric
    /// kind it will carry, and the prune queues and correlation window
    /// are at their working size.
    fn warm(&mut self, batch: u64) {
        for _ in 0..2 {
            let records = self.launch_and_complete(batch);
            self.sink.activity_batch(records);
        }
    }
}

#[test]
fn a_launch_on_a_context_seen_this_epoch_allocates_nothing() {
    let mut rig = Rig::with_shards(16);
    rig.warm(256);
    // The batch boundary released the launch counters; one launch per
    // context brings this epoch's back.
    let first = rig.launches(CONTEXTS);
    rig.deliver(first);

    let launches = rig.launches(64);
    assert_eq!(allocations(|| rig.deliver(launches)), 0);
    rig.sink.with_snapshot(|cct| {
        assert_eq!(
            cct.total(MetricKind::KernelLaunches),
            (2 * 256 + CONTEXTS + 64) as f64
        );
    });
}

#[test]
fn an_activity_batch_allocates_the_same_few_times_whatever_its_size() {
    /// The batch's list of record shards. A record's `GpuTime` merges
    /// into its row's store, which holds the kind since the warm-up; the
    /// batch's launches already brought the counters back, and the
    /// shard retires its correlations in place. None of it depends on
    /// how many records arrive.
    const PER_BATCH: u64 = 1;
    let per_batch = |batch: u64| {
        let mut rig = Rig::with_shards(16);
        rig.warm(batch);
        let records = rig.launch_and_complete(batch);
        let sink = Arc::clone(&rig.sink);
        allocations(move || sink.activity_batch(records))
    };
    assert_eq!(per_batch(4096), PER_BATCH);
    assert_eq!(per_batch(512), PER_BATCH);
}

#[test]
fn a_warm_fold_allocates_nothing() {
    let mut rig = Rig::with_shards(16);
    rig.warm(256);
    // The first fold grows each row's store to the kinds its subtree
    // carries, and the master's nodes to theirs.
    rig.sink.with_snapshot(|_| ());
    let records = rig.launch_and_complete(256);
    rig.sink.activity_batch(records);
    // The sweep merges into the rows' kept room, the master in place.
    let sink = Arc::clone(&rig.sink);
    assert_eq!(allocations(move || sink.with_snapshot(|_| ())), 0);
    rig.sink.with_snapshot(|cct| {
        assert_eq!(
            cct.total(MetricKind::KernelLaunches),
            (3 * 256) as f64,
            "the warm fold carried the batch"
        );
    });
}

#[test]
fn warm_iterations_grow_no_table_and_a_new_context_is_counted() {
    // One shard: its correlation window's capacity settles with the
    // in-flight ids instead of creeping with the luck of the hash.
    let mut rig = Rig::with_shards(1);
    let iteration = |rig: &mut Rig| {
        let records = rig.launch_and_complete(CONTEXTS);
        rig.sink.activity_batch(records);
    };
    for _ in 0..16 {
        iteration(&mut rig);
    }
    let contexts = rig.interner.paths().len();
    let table = rig.interner.paths().approx_bytes();
    let resident = rig.sink.approx_bytes();
    for _ in 0..1_000 {
        iteration(&mut rig);
    }
    assert_eq!(rig.interner.paths().len(), contexts);
    assert_eq!(
        rig.sink.approx_bytes(),
        resident,
        "no path vector, table or correlation window growth"
    );

    // New operators under the known Python frames: three table entries
    // and three tree nodes each, and the shard's vector grows to reach
    // them.
    rig.contexts = (CONTEXTS..2 * CONTEXTS)
        .map(|ctx| context(&rig.interner, ctx))
        .collect();
    iteration(&mut rig);
    assert_eq!(rig.interner.paths().len(), contexts + 3 * CONTEXTS as usize);
    let table_growth = rig.interner.paths().approx_bytes() - table;
    assert!(table_growth > 0);
    assert!(
        rig.sink.approx_bytes() >= resident + table_growth,
        "the table is tool memory"
    );
}
