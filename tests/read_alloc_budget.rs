//! The allocation budget of the read path, held by a counting global
//! allocator (the `crates/pipeline/tests/alloc_budget.rs` pattern): the
//! Chrome export, timeline assembly and the container writer and reader
//! allocate per distinct thing — track, context, name, string, node —
//! and never per interval. Each budget is checked twice: the count does
//! not move when the interval count grows eightfold, and it stays under
//! a stated bound. (At commit `2ab0956` the Chrome export allocated more
//! than three times per interval, `save` twice and `load` three times.)
//! A timeline read is also held to a budget in bytes: it shares the
//! rings' chunks, so it may allocate a sixteenth of what they hold. The
//! container's interval block is held to a size: at most ten bytes an
//! interval, where a text line was forty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use deepcontext::core::{Interval, IntervalKind, NodeId, StoredTimeline, Sym, TrackKey};
use deepcontext::prelude::*;
use deepcontext::timeline::TimelineSink;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor (so is the byte count), so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`, and the bytes they
/// ask for.
fn allocated<R>(f: impl FnOnce() -> R) -> (u64, usize) {
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    black_box(f());
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        ALLOCATED_BYTES.with(Cell::get) - before.1,
    )
}

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    allocated(f).0
}

const TRACKS: usize = 6;
const CONTEXTS: usize = 12;
/// Frames from the root to each context's kernel.
const DEPTH: u64 = 6;

/// A tree of `CONTEXTS` kernel contexts, `DEPTH` frames deep, each with
/// a kernel name of its own.
fn contexts() -> (CallingContextTree, Vec<(NodeId, Sym)>) {
    let mut cct = CallingContextTree::new();
    let i = cct.interner();
    let leaves = (0..CONTEXTS as u32)
        .map(|k| {
            let kernel = format!("vectorized_elementwise_kernel<op{k}>");
            let leaf = cct.insert_path(&[
                Frame::python("train.py", 10, "train_step", &i),
                Frame::python("model.py", 20 + k, "forward", &i),
                Frame::operator(&format!("aten::op{k}"), &i),
                Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x99, &i),
                Frame::gpu_kernel(&kernel, "libtorch_cuda.so", 0x1000 + u64::from(k), &i),
            ]);
            cct.attribute(leaf, MetricKind::GpuTime, 100.0);
            (leaf, i.intern(&kernel))
        })
        .collect();
    (cct, leaves)
}

/// `n` intervals spread over `TRACKS` tracks, each track in start order.
fn intervals(n: usize, leaves: &[(NodeId, Sym)]) -> impl Iterator<Item = Interval> + '_ {
    (0..n).map(move |j| {
        let (track, (context, name)) = (j % TRACKS, leaves[j % leaves.len()]);
        let start = 1_000_000 + j as u64 * 4_321;
        Interval {
            track: TrackKey {
                device: (track / 3) as u32,
                stream: (track % 3) as u32,
            },
            start: TimeNs(start),
            end: TimeNs(start + 3_000),
            kind: IntervalKind::Kernel,
            name,
            correlation: 70_000 + j as u64,
            context: Some(context),
        }
    })
}

fn profile(n: usize) -> ProfileDb {
    let (cct, leaves) = contexts();
    let timeline = StoredTimeline {
        intervals: intervals(n, &leaves).collect(),
        names: cct.interner().snapshot(),
        recorded: n as u64,
        dropped: 0,
        window: Some((TimeNs(0), TimeNs(2_000_000_000))),
    };
    ProfileDb::new(ProfileMeta::default(), cct).with_timeline(timeline)
}

const SMALL: usize = 3_000;
const LARGE: usize = 8 * SMALL;

#[test]
fn chrome_export_allocates_per_track_context_and_name() {
    let count = |n: usize| {
        let db = profile(n);
        let snapshot = TimelineSnapshot::from_stored(db.timeline().unwrap());
        allocations(|| snapshot.to_chrome_trace(Some(db.cct())))
    };
    let (small, large) = (count(SMALL), count(LARGE));
    assert_eq!(
        small, large,
        "allocations must not follow the interval count"
    );
    // The output buffer, the prefix and context tables and the name
    // map's growth; one prefix per track; per context its escaped name
    // and — for the path to the root, a label per frame and the argument
    // they are escaped into as it grows — about four per frame.
    let bound = 16 + TRACKS as u64 + CONTEXTS as u64 * (2 + 5 * DEPTH);
    assert!(small <= bound, "{small} allocations, budget {bound}");
    assert!(
        (small as usize) < SMALL,
        "parent allocated > 3 per interval"
    );
}

/// Rings the intervals are spread over.
const SHARDS: usize = 3;
/// `size_of` the ring's slot, which is private to the timeline crate (a
/// test beside it asserts the size).
const SLOT_BYTES: usize = 40;

#[test]
fn timeline_assembly_allocates_per_track() {
    // `LARGE` intervals fill the rings exactly: a live read of full rings.
    let read = |n: usize| {
        let (cct, leaves) = contexts();
        let config = TimelineConfig {
            enabled: true,
            ring_capacity: LARGE / SHARDS,
        };
        let sink = TimelineSink::new(SHARDS + 1, &config);
        for (j, interval) in intervals(n, &leaves).enumerate() {
            sink.record(j % SHARDS, interval);
        }
        let table: Arc<[NodeId]> = vec![NodeId::ROOT; cct.node_count()].into();
        let tables = vec![table; SHARDS + 1];
        allocated(|| sink.snapshot_with(&tables))
    };
    let ((small, _), (large, large_bytes)) = (read(SMALL), read(LARGE));
    assert_eq!(
        small, large,
        "allocations must not follow the interval count"
    );
    // The ring guards, the key list (and its growth), the track list;
    // per track the run list; per run — each track is in one ring here —
    // its chunk handles and its tail.
    let bound = 8 + 3 * TRACKS as u64;
    assert!(small <= bound, "{small} allocations, budget {bound}");
    // Handles and tails, not intervals: 41 584 bytes here, 38 496 of them
    // the six open tails. The parent (`ddb375d`) copied every interval
    // into the snapshot and allocated 1 153 024 bytes for the same read.
    let budget = LARGE * SLOT_BYTES / 16;
    assert!(
        large_bytes <= budget,
        "{large_bytes} bytes allocated by a read of {LARGE} intervals, budget {budget}"
    );
}

#[test]
fn container_save_and_load_allocate_per_string_and_node() {
    let counts = |n: usize| {
        let db = profile(n);
        let mut container = Vec::new();
        db.save(&mut container).unwrap();
        container.clear();
        let save = allocations(|| db.save(&mut container).unwrap());
        let load = allocations(|| ProfileDb::load(&container[..]).unwrap());
        let (strings, nodes) = (
            db.cct().interner().len() as u64,
            db.cct().node_count() as u64,
        );
        (save, load, strings, nodes)
    };
    let (small_save, small_load, strings, nodes) = counts(SMALL);
    let (large_save, large_load, _, _) = counts(LARGE);
    // `save`: the chunk buffer and the string-table snapshot (the
    // container vector above kept its capacity).
    assert!(small_save <= 4, "{small_save} allocations in save");
    assert_eq!(large_save, small_save);
    // `load`: the input, the interval vector, and per string, per node
    // and per timeline name a constant number.
    let bound = 16 + 4 * strings + 6 * nodes + 2 * strings;
    assert!(
        small_load <= bound,
        "{small_load} allocations, budget {bound}"
    );
    assert!(large_load <= small_load + 2, "{large_load} vs {small_load}");
}

#[test]
fn interval_block_costs_at_most_ten_bytes_an_interval() {
    // Track by track, each in start order: the order `to_stored` writes.
    let mut db = profile(LARGE);
    let mut timeline = db.timeline().unwrap().clone();
    timeline.intervals.sort_by_key(|iv| (iv.track, iv.start));
    db.set_timeline(Some(timeline));
    let mut container = Vec::new();
    db.save(&mut container).unwrap();
    let prefix = b"\nintervals\t";
    let at = container
        .windows(prefix.len())
        .position(|w| w == prefix)
        .expect("the container has an interval block")
        + prefix.len();
    let digits = container[at..].iter().take_while(|b| b.is_ascii_digit());
    let bytes: usize = String::from_utf8(digits.copied().collect())
        .unwrap()
        .parse()
        .unwrap();
    // As text lines the same intervals were 40 bytes each.
    assert!(
        bytes <= 10 * LARGE,
        "{bytes} bytes of interval block for {LARGE} intervals"
    );
}
