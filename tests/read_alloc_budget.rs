//! The allocation budget of the read path, held by a counting global
//! allocator (the `crates/pipeline/tests/alloc_budget.rs` pattern): the
//! Chrome export, timeline assembly and the container writer and reader
//! allocate per distinct thing — track, context, name, string, node —
//! and never per interval. Each budget is checked twice: the count does
//! not move when the interval count grows eightfold, and it stays under
//! a stated bound. (At commit `2ab0956` the Chrome export allocated more
//! than three times per interval, `save` twice and `load` three times.)
//! A timeline read is also held to a budget in bytes: it shares the
//! rings' chunks, so it may allocate a sixteenth of what they hold, and
//! it shares a stored timeline's tracks, so it allocates per track. The
//! container's interval block is held to a size: at most ten bytes an
//! interval, where a text line was forty. So is what a CCT adds to the
//! Chrome export: its `stackFrames` dictionary plus at most twelve bytes
//! an interval, where a path string per event was about 180.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::mem::size_of;
use std::sync::Arc;

use deepcontext::core::{Interval, IntervalKind, NodeId, StoredTimeline, Sym, TrackKey, TrackSlot};
use deepcontext::prelude::*;
use deepcontext::timeline::IntervalRing;

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

/// A tree of `CONTEXTS` kernel contexts, five frames deep, each with a
/// kernel name of its own.
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
    // Track `t` holds every `TRACKS`-th interval from the `t`-th: tracks
    // in key order, each in start order, as a stored timeline keeps them.
    let tracks = (0..TRACKS).map(|t| {
        let mut on_track = intervals(n, &leaves).skip(t).step_by(TRACKS).peekable();
        let key = on_track
            .peek()
            .expect("a track per interval at least")
            .track;
        (key, on_track.map(|iv| TrackSlot::of(&iv)).collect())
    });
    let timeline = StoredTimeline {
        tracks: tracks.collect(),
        names: cct.interner().snapshot(),
        recorded: n as u64,
        dropped: 0,
        window: Some((TimeNs(0), TimeNs(2_000_000_000))),
    };
    let mut db = ProfileDb::new(ProfileMeta::default(), cct);
    db.set_timeline(Some(timeline));
    db
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
    // The output buffer, the prefix list, the reached-node bitmap, the
    // name map's growth and the `stackFrames` dictionary's; per track
    // its prefix, its lane name and the merge of its runs, twice; per
    // context its escaped name as it grows. A frame label is written
    // straight into the dictionary, so the path's depth costs nothing.
    let bound = 32 + 6 * TRACKS as u64 + 4 * CONTEXTS as u64;
    assert!(small <= bound, "{small} allocations, budget {bound}");
    assert!(
        (small as usize) < SMALL,
        "parent allocated > 3 per interval"
    );
}

#[test]
fn chrome_export_names_each_context_once() {
    let db = profile(LARGE);
    let snapshot = TimelineSnapshot::from_stored(db.timeline().unwrap());
    let (with, without) = (
        snapshot.to_chrome_trace(Some(db.cct())),
        snapshot.to_chrome_trace(None),
    );
    let dictionary = with.len()
        - with
            .find(",\"stackFrames\":")
            .expect("a CCT export carries the dictionary");
    // Per interval a CCT adds `,"sf":<id>` and nothing else; each
    // context's path is spelled once, in the dictionary. With a path
    // string per event this was about 180 bytes an interval here.
    let budget = 12 * LARGE + dictionary;
    assert!(
        with.len() - without.len() <= budget,
        "{} bytes more with a CCT, budget {budget} ({dictionary} of dictionary)",
        with.len() - without.len()
    );
}

/// Rings the intervals are spread over.
const SHARDS: usize = 3;

#[test]
fn timeline_assembly_allocates_per_track() {
    // `LARGE` intervals fill the rings exactly: a live read of full rings.
    let read = |n: usize| {
        let (cct, leaves) = contexts();
        // One ring more than the intervals reach, left empty.
        let mut rings: Vec<IntervalRing> = (0..=SHARDS)
            .map(|_| IntervalRing::new(LARGE / SHARDS))
            .collect();
        // Track `j % TRACKS` goes to ring `j % SHARDS`: each track is in
        // one ring, as a shard keeps it.
        for (j, interval) in intervals(n, &leaves).enumerate() {
            rings[j % SHARDS].push(interval);
        }
        let table: Arc<[NodeId]> = vec![NodeId::ROOT; cct.node_count()].into();
        allocated(|| {
            let parts = rings.iter().map(IntervalRing::snapshot);
            TimelineSnapshot::join(parts).with_contexts(Arc::clone(&table))
        })
    };
    let ((small, _), (large, large_bytes)) = (read(SMALL), read(LARGE));
    assert_eq!(
        small, large,
        "allocations must not follow the interval count"
    );
    // Each ring's track list (the empty ring has none), the joined list
    // and its growth (at most three times for six tracks); per track its
    // chunk handles and its tail. 17 here.
    let bound = SHARDS as u64 + 3 + 2 * TRACKS as u64;
    assert!(small <= bound, "{small} allocations, budget {bound}");
    // Handles and tails, not intervals: 41 568 bytes here, 38 496 of them
    // the six open tails. The parent (`ddb375d`) copied every interval
    // into the snapshot and allocated 1 153 024 bytes for the same read.
    let budget = LARGE * size_of::<TrackSlot>() / 16;
    assert!(
        large_bytes <= budget,
        "{large_bytes} bytes allocated by a read of {LARGE} intervals, budget {budget}"
    );
}

#[test]
fn a_stored_timeline_is_read_by_handle() {
    let read = |n: usize| {
        let db = profile(n);
        let names = db.timeline().unwrap().names.len();
        let read = allocated(|| TimelineSnapshot::from_stored(db.timeline().unwrap()));
        (read, names)
    };
    let (((small, _), _), ((large, large_bytes), names)) = (read(SMALL), read(LARGE));
    assert_eq!(
        small, large,
        "allocations must not follow the interval count"
    );
    // The track list and the name table; per track its run list and
    // its chunk list, which holds the stored slice by handle.
    let bound = 2 + 2 * TRACKS as u64;
    assert!(small <= bound, "{small} allocations, budget {bound}");
    // Per track and per name, never per interval. At `2c53c53`, which
    // copied every interval, this read made 76 allocations at 3 000
    // intervals and 94 at 24 000, 5 038 704 bytes.
    let budget = 128 * TRACKS + size_of::<Arc<str>>() * names;
    assert!(
        large_bytes <= budget,
        "{large_bytes} bytes allocated by a read of {LARGE} stored intervals, budget {budget}"
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
    // `load`: the input, the track list, the scratch run, a slice per
    // track, and per string, per node and per timeline name a constant
    // number.
    let bound = 16 + 4 * strings + 6 * nodes + 2 * strings;
    assert!(
        small_load <= bound,
        "{small_load} allocations, budget {bound}"
    );
    assert!(large_load <= small_load + 2, "{large_load} vs {small_load}");
}

#[test]
fn interval_block_costs_at_most_ten_bytes_an_interval() {
    let db = profile(LARGE);
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
    // As text lines the same intervals were 40 bytes each; a ring slot
    // is 32.
    assert!(
        bytes <= 10 * LARGE,
        "{bytes} bytes of interval block for {LARGE} intervals"
    );
}
