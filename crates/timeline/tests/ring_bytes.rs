//! `IntervalRing::approx_bytes` against the heap, held by a counting
//! global allocator (the `tests/read_alloc_budget.rs` pattern, here
//! summing the sizes of live blocks): `profile_kib` is gated at 1 % and
//! the rings are most of it on a timeline run, so what the ring says it
//! owns — chunk payloads and their reference counts, the chunk list, the
//! open tail, the track list — must be what the allocator handed out:
//! below capacity, exactly at capacity, deep into steady-state eviction
//! and after a track was evicted empty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deepcontext_core::{Interner, Interval, IntervalKind, TimeNs, TrackKey};
use deepcontext_timeline::IntervalRing;

thread_local! {
    /// Bytes of this thread's live blocks (tests run on threads of their
    /// own, and a ring is built, fed and dropped on one).
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(bytes: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a const initializer and no destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const CAPACITY: usize = 10_000;

/// A ring of `CAPACITY` fed `pushes` intervals — three streams, one of
/// them twice as busy, one in fifty arriving late — and the heap bytes
/// it holds.
fn fed(pushes: usize) -> (IntervalRing, usize) {
    let name = Interner::new().intern("k");
    let before = LIVE_BYTES.with(Cell::get);
    let mut ring = IntervalRing::new(CAPACITY);
    for n in 0..pushes as u64 {
        let late = if n % 50 == 49 { 40_000 } else { 0 };
        ring.push(Interval {
            track: TrackKey {
                device: 0,
                stream: [0, 1, 0, 2][n as usize % 4],
            },
            start: TimeNs(1_000_000 + n * 100 - late),
            end: TimeNs(1_000_000 + n * 100 - late + 60),
            kind: IntervalKind::Kernel,
            name,
            correlation: n,
            context: None,
        });
    }
    let live = LIVE_BYTES.with(Cell::get) - before;
    (
        ring,
        usize::try_from(live).expect("a ring frees no more than it allocated"),
    )
}

fn assert_within_2_percent(ring: &IntervalRing, live: usize, when: &str) {
    let said = ring.approx_bytes();
    assert!(
        said.abs_diff(live) * 50 <= live,
        "{when}: approx_bytes {said}, live heap {live}"
    );
}

#[test]
fn approx_bytes_is_the_rings_live_heap() {
    let (ring, live) = fed(CAPACITY / 3);
    assert_eq!((ring.len(), ring.dropped()), (CAPACITY / 3, 0));
    assert_within_2_percent(&ring, live, "below capacity");

    let (ring, live) = fed(CAPACITY);
    assert_eq!((ring.len(), ring.dropped()), (CAPACITY, 0));
    assert_within_2_percent(&ring, live, "exactly at capacity");
    // A 32-byte slot plus the chunk headers, handles and tail slack.
    assert!(
        live <= CAPACITY * 34,
        "{} bytes per interval",
        live / CAPACITY
    );

    let (ring, live) = fed(5 * CAPACITY);
    assert_eq!(
        (ring.len(), ring.dropped()),
        (CAPACITY, 4 * CAPACITY as u64)
    );
    assert_within_2_percent(&ring, live, "after 4x capacity of eviction");
    assert!(
        live <= CAPACITY * 44,
        "{} bytes per interval",
        live / CAPACITY
    );
}

#[test]
fn a_track_evicted_empty_gives_its_storage_back() {
    let name = Interner::new().intern("k");
    let on = |stream: u32, n: u64| Interval {
        track: TrackKey { device: 0, stream },
        start: TimeNs(n),
        end: TimeNs(n + 1),
        kind: IntervalKind::Kernel,
        name,
        correlation: n,
        context: None,
    };
    let before = LIVE_BYTES.with(Cell::get);
    let mut ring = IntervalRing::new(2);
    // Stream 0 records one interval and goes quiet; streams 1 and 2 tie
    // with it for the largest share and the smallest key loses.
    ring.push(on(0, 1));
    ring.push(on(1, 2));
    let with_quiet = ring.approx_bytes();
    ring.push(on(2, 3));
    let quiet = TrackKey {
        device: 0,
        stream: 0,
    };
    assert_eq!((ring.track_len(quiet), ring.track_count()), (0, 3));
    let live = usize::try_from(LIVE_BYTES.with(Cell::get) - before).unwrap();
    assert_eq!(ring.approx_bytes(), live);
    // Two one-interval tracks before, two after, and the track list had
    // room for a third entry: the quiet track's storage is gone.
    assert_eq!(ring.approx_bytes(), with_quiet);
}
