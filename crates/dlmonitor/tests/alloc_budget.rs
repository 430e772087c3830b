//! The allocation budget of DLMonitor's steady-state hot path, held by a
//! counting global allocator so the interned-snapshot design cannot
//! quietly erode: with the thread's Python version unchanged, an operator
//! Enter/Exit, a taped forward Enter, a warm call path — native frames
//! included, cached, uncached or through a forward/backward association —
//! and the delivery of an event to a subscriber all allocate nothing —
//! through the framework registry and the GPU runtime too, whose lists
//! are `Subscribers` like the monitor's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepcontext_core::{Interner, OpPhase, ThreadRole, TimeNs};
use dl_framework::{CallbackRegistry, OpEvent, PyScope, PythonSim, Site, TensorMeta};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain, GpuCallbackEvent};
use sim_gpu::{
    ApiKind, CallbackData, CallbackSite, CorrelationId, DeviceId, DeviceSpec, GpuRuntime,
    KernelDesc, LaunchConfig, StreamId, Vendor,
};
use sim_runtime::{
    NativeFrameGuard, NativeFrameInfo, PyFrameGuard, PyFrameInfo, RuntimeEnv, ThreadCtx,
    ThreadRegistry,
};

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

struct Rig {
    registry: Arc<CallbackRegistry>,
    monitor: Arc<DlMonitor>,
    main: Arc<ThreadCtx>,
    _scopes: Vec<PyFrameGuard>,
}

/// A monitor attached to a bare callback registry, the default profiler's
/// sources, and a three-deep Python stack on the main thread.
fn rig() -> Rig {
    let env = RuntimeEnv::new();
    let registry = CallbackRegistry::new();
    let monitor = DlMonitor::init(&env, Interner::new());
    monitor.attach_framework(&registry);
    monitor.set_sources(CallPathSources::without_native());
    let main = env.threads().spawn(ThreadRole::Main);
    let scopes = [
        ("train.py", "train_step"),
        ("model.py", "forward"),
        ("layer.py", "attention"),
    ]
    .into_iter()
    .zip(10..)
    .map(|((file, function), line)| {
        PyFrameGuard::enter(main.python(), PyFrameInfo::new(file, line, function))
    })
    .collect();
    Rig {
        registry,
        monitor,
        main,
        _scopes: scopes,
    }
}

fn op_event(rig: &Rig, seq_id: Option<u64>, site: Site) -> OpEvent {
    op_event_on(&rig.main, OpPhase::Forward, seq_id, site)
}

fn op_event_on(
    thread: &Arc<ThreadCtx>,
    phase: OpPhase,
    seq_id: Option<u64>,
    site: Site,
) -> OpEvent {
    OpEvent {
        name: Arc::from("aten::matmul"),
        phase,
        seq_id,
        site,
        thread: Arc::clone(thread),
        inputs: Vec::new(),
    }
}

#[test]
fn steady_state_operator_events_allocate_nothing() {
    let rig = rig();
    let (enter, exit) = (
        op_event(&rig, None, Site::Enter),
        op_event(&rig, None, Site::Exit),
    );
    // Warm-up: the first operator takes the Python snapshot, interns the
    // operator name and sizes the shadow stack.
    rig.registry.fire_op(&enter);
    rig.registry.fire_op(&exit);

    let monitored = allocations(|| {
        for _ in 0..100 {
            rig.registry.fire_op(&enter);
            rig.registry.fire_op(&exit);
        }
    });
    assert_eq!(monitored, 0);
}

/// The payload of a kernel-launch callback.
fn launch_of(name: &str, module: &str, entry_pc: u64) -> CallbackData {
    CallbackData {
        site: CallbackSite::Enter,
        api: ApiKind::LaunchKernel,
        correlation_id: CorrelationId(1),
        device: DeviceId(0),
        stream: Some(StreamId(0)),
        kernel: Some(Arc::new(KernelDesc::new(
            name,
            module,
            entry_pc,
            LaunchConfig::new(64, 256),
        ))),
        bytes: None,
        timestamp: TimeNs(0),
    }
}

/// `data` as intercepted on `thread`.
fn intercepted<'a>(data: &'a CallbackData, thread: &'a ThreadCtx) -> GpuCallbackEvent<'a> {
    GpuCallbackEvent {
        data,
        vendor: Vendor::Nvidia,
        thread: Some(thread),
    }
}

#[test]
fn a_warm_call_path_allocates_nothing() {
    let rig = rig();
    let data = launch_of("sgemm_128x64", "libtorch_cuda.so", 0x1000);
    let launch = intercepted(&data, &rig.main);
    rig.registry.fire_op(&op_event(&rig, None, Site::Enter));
    // Warm-up: interns the GPU API and kernel frames and records the
    // context in the path table and the thread's memo.
    let warm = rig.monitor.callpath_for_gpu(&launch);
    assert_eq!(warm.len(), 6, "3 Python + operator + API + kernel");
    rig.monitor.callpath_get(&rig.main);

    assert_eq!(allocations(|| rig.monitor.callpath_for_gpu(&launch)), 0);
    assert_eq!(allocations(|| rig.monitor.callpath_get(&rig.main)), 0);
    assert_eq!(rig.monitor.callpath_for_gpu(&launch), warm);
    assert_eq!(rig.monitor.stats().cache_hits, 5);
}

#[test]
fn kernels_sharing_an_entry_pc_across_modules_both_stay_resident() {
    // Entry PCs are unique per module only (the eager and JIT kernel
    // registries both start at 0x1000). Alternating two such kernels
    // must not evict anything: after the first pair no launch interns,
    // allocates or adds a context.
    let rig = rig();
    let interner = rig.monitor.interner();
    let torch = launch_of("sgemm", "libtorch_cuda.so", 0x1000);
    let xla = launch_of("fusion_0", "libxla.so", 0x1000);
    let (torch, xla) = (intercepted(&torch, &rig.main), intercepted(&xla, &rig.main));
    rig.registry.fire_op(&op_event(&rig, None, Site::Enter));
    let first = (
        rig.monitor.callpath_for_gpu(&torch),
        rig.monitor.callpath_for_gpu(&xla),
    );
    assert_ne!(first.0, first.1);
    let (symbols, contexts) = (interner.len(), interner.paths().len());

    let alternating = allocations(|| {
        for _ in 0..50 {
            assert_eq!(rig.monitor.callpath_for_gpu(&torch), first.0);
            assert_eq!(rig.monitor.callpath_for_gpu(&xla), first.1);
        }
    });
    assert_eq!(alternating, 0);
    assert_eq!(interner.len(), symbols);
    assert_eq!(interner.paths().len(), contexts);
}

#[test]
fn a_taped_forward_enter_allocates_only_its_association_record() {
    const TAPED: u64 = 64;
    let rig = rig();
    let events: Vec<(OpEvent, OpEvent)> = (0..TAPED)
        .map(|seq| {
            (
                op_event(&rig, Some(seq), Site::Enter),
                op_event(&rig, Some(seq), Site::Exit),
            )
        })
        .collect();
    let deliver = || {
        for (enter, exit) in &events {
            rig.registry.fire_op(enter);
            rig.registry.fire_op(exit);
        }
    };
    // Warm-up: also grows the association table to its working size,
    // which clearing keeps.
    deliver();
    rig.monitor.clear_associations();

    // The record is one handle in a slot of that table: nothing left to
    // allocate.
    assert_eq!(allocations(deliver), 0);
    assert_eq!(rig.monitor.stats().assoc_live, TAPED);
}

/// The native rig: every source on, two Python scopes (each with its
/// libpython eval frame), a taped forward operator that has come and gone
/// (an association record under id 7), then one open operator of `phase`
/// under `seq_id` with two native frames below it — `fine_native`'s
/// launch shape.
struct NativeRig {
    env: RuntimeEnv,
    monitor: Arc<DlMonitor>,
    main: Arc<ThreadCtx>,
    _scopes: Vec<PyScope>,
    _frames: Vec<NativeFrameGuard>,
}

fn native_rig(phase: OpPhase, seq_id: Option<u64>) -> NativeRig {
    let env = RuntimeEnv::new();
    let python = PythonSim::new(&env);
    let torch = env.load_library("/lib/libtorch_cpu.so", 0x10_0000);
    let registry = CallbackRegistry::new();
    let monitor = DlMonitor::init(&env, Interner::new());
    monitor.attach_framework(&registry);
    monitor.set_sources(CallPathSources::all());
    let main = env.threads().spawn(ThreadRole::Main);
    let scopes = vec![
        python.frame(&main, "train.py", 10, "train_step"),
        python.frame(&main, "model.py", 11, "forward"),
    ];
    registry.fire_op(&op_event_on(&main, OpPhase::Forward, Some(7), Site::Enter));
    registry.fire_op(&op_event_on(&main, OpPhase::Forward, Some(7), Site::Exit));
    registry.fire_op(&op_event_on(&main, phase, seq_id, Site::Enter));
    let frames = ["c10::Dispatcher::call", "at::native::matmul"]
        .into_iter()
        .map(|name| {
            let f = env.define_function(&torch, name, 0x40, None);
            NativeFrameGuard::enter(
                main.native(),
                NativeFrameInfo::new(&f.library, f.addr, &f.name),
            )
        })
        .collect();
    NativeRig {
        env,
        monitor,
        main,
        _scopes: scopes,
        _frames: frames,
    }
}

/// Allocations of one warm `callpath_for_gpu` and one warm `callpath_get`.
fn warm_native_paths(rig: &NativeRig) -> (u64, u64) {
    let data = launch_of("sgemm_128x64", "libtorch_cuda.so", 0x1000);
    let launch = intercepted(&data, &rig.main);
    let warm = rig.monitor.callpath_for_gpu(&launch);
    rig.monitor.callpath_get(&rig.main);
    let steps = rig.env.unwinder().steps_taken();
    let counts = (
        allocations(|| rig.monitor.callpath_for_gpu(&launch)),
        allocations(|| rig.monitor.callpath_get(&rig.main)),
    );
    assert_eq!(rig.monitor.callpath_for_gpu(&launch), warm);
    assert!(
        rig.env.unwinder().steps_taken() > steps,
        "native frames unwound"
    );
    counts
}

#[test]
fn a_warm_native_call_path_allocates_nothing_cached_or_not() {
    let rig = native_rig(OpPhase::Forward, None);
    assert_eq!(warm_native_paths(&rig), (0, 0), "cached: partial unwind");
    let data = launch_of("sgemm_128x64", "libtorch_cuda.so", 0x1000);
    let cached = rig.monitor.callpath_for_gpu(&intercepted(&data, &rig.main));
    assert_eq!(
        cached.len(),
        7,
        "2 Python + operator + 2 native + API + kernel"
    );

    rig.monitor.set_cache_enabled(false);
    assert_eq!(warm_native_paths(&rig), (0, 0), "uncached: full unwind");
    let uncached = rig.monitor.callpath_for_gpu(&intercepted(&data, &rig.main));
    assert_eq!(uncached, cached);
}

#[test]
fn a_warm_native_call_path_through_an_association_allocates_nothing() {
    // A backward operator under the taped id: its paths start from the
    // forward context recorded under that id.
    let rig = native_rig(OpPhase::Backward, Some(7));
    assert_eq!(warm_native_paths(&rig), (0, 0));
    assert_eq!(rig.monitor.stats().assoc_hits, 5);
}

#[test]
fn delivering_an_event_to_a_subscriber_allocates_nothing() {
    let env = RuntimeEnv::new();
    let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
    let registry = CallbackRegistry::new();
    let monitor = DlMonitor::init(&env, Interner::new());
    let main = env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    // With inputs, as the framework sends it: a copied event would have
    // to copy them.
    let enter = OpEvent {
        inputs: vec![TensorMeta::new([64, 64])],
        ..op_event_on(&main, OpPhase::Forward, None, Site::Enter)
    };
    let exit = op_event_on(&main, OpPhase::Forward, None, Site::Exit);
    let deliver = || {
        for _ in 0..100 {
            registry.fire_op(&enter);
            gpu.synchronize(DeviceId(0)).unwrap();
            registry.fire_op(&exit);
        }
    };

    // The substrate's own share: no monitor at all.
    deliver();
    let bare = allocations(deliver);

    // The same events with nobody listening, the monitor attached to both.
    monitor.attach_framework(&registry);
    monitor.attach_gpu(&gpu);
    deliver();
    let unobserved = allocations(deliver);

    let seen = Arc::new(AtomicU64::new(0));
    for domain in [Domain::Framework, Domain::Gpu] {
        let seen = Arc::clone(&seen);
        monitor.callback_register(domain, move |event| {
            let tid = match event {
                DlEvent::Op(op) => Some(op.thread.tid()),
                DlEvent::Gpu(gpu) => gpu.tid(),
                _ => None,
            };
            seen.fetch_add(tid.unwrap_or(0), Ordering::Relaxed);
        });
    }
    deliver();
    seen.store(0, Ordering::Relaxed);
    let observed = allocations(deliver);
    assert_eq!(observed, unobserved);
    // Reaching the monitor through the registry's and the runtime's own
    // subscriber lists costs nothing either.
    assert_eq!(observed, bare);
    // Two operator and two API (Enter + Exit) events a round, each on
    // the bound thread.
    assert_eq!(seen.load(Ordering::Relaxed), 100 * 4 * main.tid());
}
