//! The lock and allocation budget of a kernel launch, counted exactly.
//!
//! Three workload shapes run bare and profiled, as the repo benchmark
//! runs them: `eager_llm` (Llama3 on the eager engine), `jit_train`
//! (ResNet under graph replay) and U-Net on the eager engine with native
//! call-path sources on (`fine_native` without PC sampling). After a
//! warm-up, one window of iterations runs with `parking_lot::count`
//! armed and a second, unarmed, under a counting global allocator. Every
//! lock site is classed by its file and enclosing function and each
//! class's acquisitions over the window are pinned, on both sides; so
//! are the allocations, and the profile's bytes at the end
//! (`Profiler::stats().peak_bytes`). The counts come from the virtual
//! clock and the call sequence alone, and so do the capacities behind
//! the bytes, so they are the same on every run and on every host: a
//! lock the launch path gains or loses, or a byte the profile grows,
//! changes a figure here however little it costs in time.
//!
//! "Profiler-added" is the sum, over classes, of what the profiled side
//! takes beyond the bare one: 1.52 a launch on `jit_train` (the sink's
//! shard and the CPU sampler's residual), 3.27 on `eager_llm` and 4.74 on
//! U-Net. DLMonitor's per-thread state and a native stack's depth are
//! read with no lock, so the functions that reach them hold no lock
//! site ([`CUT`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use deepcontext::prelude::*;
use parking_lot::count::{counted, Site};

/// Allocations made by every thread: the autograd thread's too. This is
/// the binary's only test, so no other test allocates meanwhile.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a static atomic, so
// counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Classes that must take no lock: the monitor's per-thread path and the
/// native depth. The monitor's locks sit in functions named for what
/// they guard: the association (`record`, `enter_backward`, `forward`),
/// a new thread's entry (`entry`) and the libpython ranges (`refresh`).
const CUT: [&str; 6] = [
    "dlmonitor/monitor.rs::on_op_event",
    "dlmonitor/monitor.rs::callpath_get",
    "dlmonitor/monitor.rs::callpath_for_gpu",
    "dlmonitor/monitor.rs::unified_path",
    "dlmonitor/monitor.rs::with_state",
    "sim-runtime/native.rs::depth",
];

/// Iterations before the counted windows: every thread entry, memo and
/// parked subscriber list is warm.
const WARMUP: u32 = 3;
/// Iterations in each window.
const WINDOW: u32 = 10;

#[derive(Clone, Copy)]
enum Engine {
    Eager,
    Jit,
}

/// A benchmark workload's shape and its pinned budget.
struct Shape {
    name: &'static str,
    model: &'static dyn Workload,
    engine: Engine,
    native: bool,
    /// Kernels a window launches.
    launches: u64,
    /// Acquisitions over a window by site class: `(class, bare, profiled)`.
    locks: &'static [(&'static str, u64, u64)],
    /// Allocations over a window: `(bare, profiled)`.
    allocations: (u64, u64),
    /// `Profiler::stats().peak_bytes` after the three runs.
    peak_bytes: usize,
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "eager_llm",
        model: &Llama3,
        engine: Engine::Eager,
        native: false,
        launches: 4680,
        locks: &[
            ("core/path.rs::entries", 0, 87),
            ("core/subscribers.rs::deliver_all", 28082, 0),
            ("dl-framework/core.rs::native_fn", 9360, 9360),
            ("dl-framework/registry.rs::entry_pc", 4680, 4680),
            ("pipeline/sharded.rs::apply_batch", 0, 1),
            ("pipeline/sharded.rs::cpu_sample", 0, 187),
            ("pipeline/sharded.rs::gpu_launch", 0, 4680),
            ("sim-gpu/runtime.rs::device_busy_time", 2, 2),
            ("sim-gpu/runtime.rs::device_count", 6, 6),
            ("sim-gpu/runtime.rs::ensure_streams", 1, 1),
            ("sim-gpu/runtime.rs::kernel_count", 2, 2),
            ("sim-gpu/runtime.rs::launch_kernel", 9360, 9360),
            ("sim-gpu/runtime.rs::push_activity", 4680, 4682),
            ("sim-gpu/runtime.rs::synchronize", 1, 1),
            ("sim-runtime/cpu.rs::on_work", 0, 9360),
            ("sim-runtime/native.rs::pop", 10190, 10190),
            ("sim-runtime/native.rs::push", 10190, 10190),
            ("sim-runtime/python.rs::pop", 830, 830),
            ("sim-runtime/python.rs::push", 830, 830),
            ("sim-runtime/python.rs::with_frames", 0, 970),
        ],
        allocations: (124832, 124880),
        peak_bytes: 248436,
    },
    Shape {
        name: "jit_train",
        model: &ResNet,
        engine: Engine::Jit,
        native: false,
        launches: 2150,
        locks: &[
            ("core/interner.rs::intern", 0, 3),
            ("core/interner.rs::resolve", 0, 1),
            ("core/path.rs::child", 0, 2),
            ("core/path.rs::entries", 0, 5),
            ("core/subscribers.rs::deliver_all", 7318, 0),
            ("dl-framework/core.rs::native_fn", 10, 10),
            ("dl-framework/registry.rs::entry_pc", 215, 215),
            ("pipeline/sharded.rs::cpu_sample", 0, 10),
            ("pipeline/sharded.rs::gpu_launch", 0, 2150),
            ("sim-gpu/runtime.rs::device_busy_time", 2, 2),
            ("sim-gpu/runtime.rs::device_count", 6, 6),
            ("sim-gpu/runtime.rs::ensure_streams", 1, 1),
            ("sim-gpu/runtime.rs::kernel_count", 2, 2),
            ("sim-gpu/runtime.rs::launch_kernel", 4300, 4300),
            ("sim-gpu/runtime.rs::push_activity", 2150, 2150),
            ("sim-gpu/runtime.rs::synchronize", 1, 1),
            ("sim-runtime/cpu.rs::on_work", 0, 1094),
            ("sim-runtime/native.rs::pop", 51, 51),
            ("sim-runtime/native.rs::push", 51, 51),
            ("sim-runtime/python.rs::pop", 41, 41),
            ("sim-runtime/python.rs::push", 41, 41),
            ("sim-runtime/python.rs::walk", 133, 133),
            ("sim-runtime/python.rs::with_frames", 0, 12),
        ],
        allocations: (5069, 5255),
        peak_bytes: 57828,
    },
    Shape {
        name: "unet_native",
        model: &UNet,
        engine: Engine::Eager,
        native: true,
        launches: 2440,
        locks: &[
            ("core/path.rs::child", 0, 16),
            ("core/path.rs::entries", 0, 44),
            ("core/subscribers.rs::deliver_all", 11292, 0),
            ("dl-framework/core.rs::native_fn", 2540, 2540),
            ("dl-framework/eager.rs::backward", 20, 20),
            ("dl-framework/eager.rs::op", 630, 630),
            ("dl-framework/registry.rs::entry_pc", 2440, 2440),
            ("dlmonitor/monitor.rs::enter_backward", 0, 10),
            ("dlmonitor/monitor.rs::entry", 0, 16),
            ("dlmonitor/monitor.rs::forward", 0, 1332),
            ("dlmonitor/monitor.rs::record", 0, 630),
            ("dlmonitor/monitor.rs::refresh", 0, 16),
            ("pipeline/sharded.rs::cpu_sample", 0, 222),
            ("pipeline/sharded.rs::gpu_launch", 0, 2440),
            ("sim-gpu/runtime.rs::device_busy_time", 2, 2),
            ("sim-gpu/runtime.rs::device_count", 6, 6),
            ("sim-gpu/runtime.rs::ensure_streams", 1, 1),
            ("sim-gpu/runtime.rs::kernel_count", 2, 2),
            ("sim-gpu/runtime.rs::launch_kernel", 4880, 4880),
            ("sim-gpu/runtime.rs::push_activity", 2440, 2440),
            ("sim-gpu/runtime.rs::synchronize", 1, 1),
            ("sim-runtime/cpu.rs::on_work", 0, 3870),
            ("sim-runtime/native.rs::pop", 2856, 2856),
            ("sim-runtime/native.rs::push", 2856, 2856),
            ("sim-runtime/native.rs::with_tail", 0, 2662),
            ("sim-runtime/python.rs::pop", 316, 316),
            ("sim-runtime/python.rs::push", 316, 316),
            ("sim-runtime/python.rs::with_frames", 0, 296),
            ("sim-runtime/thread.rs::spawn", 16, 16),
        ],
        allocations: (53502, 54610),
        peak_bytes: 184104,
    },
];

/// What one window cost.
struct Window {
    launches: u64,
    locks: BTreeMap<String, u64>,
    allocations: u64,
    /// The profiled side's `Profiler::stats().peak_bytes`.
    peak_bytes: Option<usize>,
}

/// `crates/<crate>/src/<file>::<enclosing fn>`, shortened to
/// `<crate>/<file>::<fn>`: a class that survives edits elsewhere in the
/// file.
fn class(site: Site) -> String {
    let source = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(site.file()))
        .unwrap_or_else(|e| panic!("{}: {e}", site.file()));
    let lines: Vec<&str> = source.lines().take(site.line() as usize).collect();
    let function = lines
        .iter()
        .rev()
        .find_map(|line| {
            let mut words = line.split_whitespace();
            words.by_ref().find(|w| *w == "fn")?;
            let name = words.next()?;
            Some(name.split(['(', '<']).next().unwrap_or(name))
        })
        .unwrap_or("?");
    let file = site
        .file()
        .trim_start_matches("crates/")
        .replace("/src/", "/");
    format!("{file}::{function}")
}

fn measure(shape: &Shape, profiled: bool) -> Window {
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let opts = WorkloadOptions::default();
    let run = |iterations| {
        match shape.engine {
            Engine::Eager => bed.run_eager(shape.model, &opts, iterations),
            Engine::Jit => bed.run_jit(shape.model, &opts, iterations),
        }
        .expect("the workload runs")
    };
    let attached = profiled.then(|| {
        let monitor = DlMonitor::init(bed.env(), Interner::new());
        monitor.attach_framework(match shape.engine {
            Engine::Eager => bed.eager().core().callbacks(),
            Engine::Jit => bed.jit().core().callbacks(),
        });
        monitor.attach_gpu(bed.gpu());
        let mut config = ProfilerConfig::deepcontext();
        if shape.native {
            config.sources = CallPathSources::all();
        }
        let profiler = Profiler::attach(config, bed.env(), &monitor, bed.gpu());
        (monitor, profiler)
    });
    run(WARMUP);
    let (stats, sites) = counted(|| run(WINDOW));
    let mut locks = BTreeMap::new();
    for (site, n) in sites {
        *locks.entry(class(site)).or_default() += n;
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let again = run(WINDOW);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        again.kernels, stats.kernels,
        "{}: windows differ",
        shape.name
    );
    let peak_bytes = attached.map(|(monitor, profiler)| {
        let peak = profiler.stats().peak_bytes;
        drop(profiler);
        monitor.finalize();
        peak
    });
    Window {
        launches: stats.kernels,
        locks,
        allocations,
        peak_bytes,
    }
}

/// Per launch, two decimals.
fn per(n: u64, launches: u64) -> String {
    format!("{:.2}", n as f64 / launches as f64)
}

#[test]
fn a_launch_stays_within_its_lock_and_allocation_budget() {
    let mut failures = Vec::new();
    for shape in &SHAPES {
        let (bare, profiled) = (measure(shape, false), measure(shape, true));
        assert_eq!(bare.launches, profiled.launches, "{}", shape.name);
        let launches = bare.launches;
        let classes: BTreeSet<&String> = bare.locks.keys().chain(profiled.locks.keys()).collect();
        let mut actual = Vec::new();
        let mut added = 0;
        println!("{} ({launches} launches a window)", shape.name);
        println!("  {:<44} {:>9} {:>9}", "class", "bare", "profiled");
        for class in classes {
            let b = bare.locks.get(class).copied().unwrap_or(0);
            let p = profiled.locks.get(class).copied().unwrap_or(0);
            added += p.saturating_sub(b);
            println!(
                "  {class:<44} {:>9} {:>9}",
                per(b, launches),
                per(p, launches)
            );
            actual.push((class.clone(), b, p));
        }
        println!(
            "  profiler-added acquisitions {} a launch; allocations {} bare, {} profiled",
            per(added, launches),
            per(bare.allocations, launches),
            per(profiled.allocations, launches)
        );
        println!("    launches: {launches},");
        println!("    locks: &[");
        for (class, b, p) in &actual {
            println!("        (\"{class}\", {b}, {p}),");
        }
        println!("    ],");
        println!(
            "    allocations: ({}, {}),",
            bare.allocations, profiled.allocations
        );
        let peak_bytes = profiled.peak_bytes.expect("the profiled side has stats");
        println!("    peak_bytes: {peak_bytes},");
        let expected: Vec<(String, u64, u64)> = shape
            .locks
            .iter()
            .map(|&(c, b, p)| (c.to_owned(), b, p))
            .collect();
        for cut in CUT {
            assert!(
                !profiled.locks.contains_key(cut),
                "{}: {cut} takes a lock again",
                shape.name
            );
        }
        if launches != shape.launches
            || actual != expected
            || (bare.allocations, profiled.allocations) != shape.allocations
            || peak_bytes != shape.peak_bytes
        {
            failures.push(shape.name);
        }
    }
    assert!(failures.is_empty(), "budgets moved: {failures:?}");
}
