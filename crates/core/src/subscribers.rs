//! Every callback list in the workspace: the GPU runtime's, the framework
//! registry's, DLMonitor's, the CPU samplers', the library-load audit's
//! and the custom driver interceptor's.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Bumped by every publication of every list, under that list's write
/// lock. Starts at 1: a slot never parked in says 0.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Source of a list's id: never reused, unlike an address.
static NEXT_LIST: AtomicU64 = AtomicU64::new(0);

/// Copies a thread parks (a profiled session delivers through six
/// lists); once all are current, a list read under its lock replaces one.
const SLOTS: usize = 8;

/// One list as this thread last read it.
#[derive(Default)]
struct Slot {
    list: Cell<u64>,
    generation: Cell<u64>,
    /// The list's `Arc<Vec<T>>`, borrowed for the length of a delivery.
    entries: RefCell<Option<Arc<dyn Any + Send + Sync>>>,
}

thread_local! {
    static PARKED: [Slot; SLOTS] = Default::default();
    /// Where the next miss looks first for a current copy to replace.
    static TURN: Cell<usize> = const { Cell::new(0) };
}

/// Drops this thread's copies of another generation, except those a
/// delivery further up the stack is reading.
fn sweep(slots: &[Slot; SLOTS], generation: u64) {
    for slot in slots.iter().filter(|s| s.generation.get() != generation) {
        // Dropped after the borrow ends: it may be a subscriber's last
        // owner, and dropping a subscriber may (un)subscribe.
        let _stale = slot
            .entries
            .try_borrow_mut()
            .ok()
            .and_then(|mut e| e.take());
    }
}

/// A copy-on-write list of subscribers, and its parking contract: every
/// callback list in the workspace is one.
///
/// Publication is copy-on-write behind the list's write lock and bumps a
/// process-wide generation; a delivery runs over the list it began with,
/// so a subscriber may (un)subscribe from inside one. Each OS thread
/// parks a copy of the lists it delivered through most recently (up to
/// `SLOTS`) and reads it in place while the generation has not moved: no
/// lock, no reference count, no allocation. A list nobody subscribed to
/// parks nothing and is read under its lock.
///
/// **How long a removed subscriber can stay alive:** a thread that
/// (un)subscribes, on any list, drops its copies in that call (one it is
/// delivering through, when that delivery returns); any other thread at
/// its next delivery to a subscriber of any list, or when it exits. A
/// copy of an older generation is never delivered through — but a thread
/// can go idle for good (the autograd thread after the last iteration),
/// so a subscriber that owns something large holds it weakly, as the
/// profiler's holds its sink.
pub struct Subscribers<T> {
    id: u64,
    /// Whether the list has an entry: nobody subscribed, no copy looked for.
    occupied: AtomicBool,
    entries: RwLock<Arc<Vec<T>>>,
}

impl<T> Default for Subscribers<T> {
    fn default() -> Self {
        Subscribers {
            id: NEXT_LIST.fetch_add(1, Ordering::Relaxed),
            occupied: AtomicBool::new(false),
            entries: RwLock::default(),
        }
    }
}

impl<T> std::fmt::Debug for Subscribers<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Subscribers({})", self.entries.read().len())
    }
}

impl<T: Clone + Send + Sync + 'static> Subscribers<T> {
    /// Whether the list has no entry.
    pub fn is_empty(&self) -> bool {
        !self.occupied.load(Ordering::SeqCst)
    }

    /// Publishes `f(current entries)`, computed under the write lock.
    pub fn update(&self, f: impl FnOnce(&[T]) -> Vec<T>) {
        let replaced = {
            let mut entries = self.entries.write();
            let new = Arc::new(f(&entries));
            self.occupied.store(!new.is_empty(), Ordering::SeqCst);
            GENERATION.fetch_add(1, Ordering::SeqCst);
            std::mem::replace(&mut *entries, new)
        };
        // Outside the lock: both may drop subscribers, and one dropped by
        // a thread-local's destructor unsubscribes after `PARKED` is gone.
        drop(replaced);
        let _ = PARKED.try_with(|slots| sweep(slots, GENERATION.load(Ordering::SeqCst)));
    }

    /// Appends `entry`.
    pub fn push(&self, entry: T) {
        self.update(|old| old.iter().cloned().chain([entry]).collect());
    }

    /// Removes the entries `keep` rejects.
    pub fn retain(&self, keep: impl Fn(&T) -> bool) {
        self.update(|old| old.iter().filter(|e| keep(e)).cloned().collect());
    }

    /// Calls `call` with every entry the list held when the delivery began.
    pub fn deliver(&self, mut call: impl FnMut(&T)) {
        self.deliver_all(|list| list.iter().for_each(&mut call));
    }

    /// Calls `call` once with the whole list as it stood when the delivery
    /// began; not at all if it was empty.
    pub fn deliver_all(&self, mut call: impl FnMut(&[T])) {
        let generation = GENERATION.load(Ordering::SeqCst);
        let parked = self.occupied.load(Ordering::SeqCst)
            && PARKED.try_with(|slots| {
                let slot = slots
                    .iter()
                    .find(|s| s.list.get() == self.id && s.generation.get() == generation)?;
                let list = slot.entries.borrow();
                let list: &Vec<T> = list.as_ref()?.downcast_ref()?;
                call(list);
                Some(())
            }) == Ok(Some(()));
        if !parked {
            let entries = {
                let entries = self.entries.read();
                if entries.is_empty() {
                    return;
                }
                Arc::clone(&entries)
            };
            call(&entries);
            let _ = PARKED.try_with(|slots| {
                sweep(slots, generation);
                // No current copy, else the next in turn, never one being read;
                // the copy replaced is dropped after the borrow, as in `sweep`.
                let turn = TURN.get();
                let _replaced = (0..SLOTS)
                    .filter(|&i| slots[i].generation.get() != generation)
                    .chain((turn..turn + SLOTS).map(|i| i % SLOTS))
                    .find_map(|i| Some((i, slots[i].entries.try_borrow_mut().ok()?)))
                    .and_then(|(i, mut held)| {
                        if slots[i].generation.replace(generation) == generation {
                            TURN.set(i + 1);
                        }
                        slots[i].list.set(self.id);
                        held.replace(entries)
                    });
            });
        }
        // A subscriber (un)subscribed: its sweep left the copy read, or
        // just parked, here.
        let now = GENERATION.load(Ordering::SeqCst);
        if now != generation {
            let _ = PARKED.try_with(|slots| sweep(slots, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Weak};

    type Callback = Arc<dyn Fn() + Send + Sync>;
    type List = Subscribers<(u64, Callback)>;

    fn fire(list: &List) {
        list.deliver(|(_, cb)| cb());
    }

    /// Subscribes, under `id`, a callback that counts its calls and owns
    /// the token the returned `Weak` watches.
    fn counting(list: &List, id: u64) -> (Arc<AtomicUsize>, Weak<()>) {
        let (calls, token) = (Arc::new(AtomicUsize::new(0)), Arc::new(()));
        let (c, owned) = (Arc::clone(&calls), Arc::downgrade(&token));
        list.push((
            id,
            Arc::new(move || {
                let _owned = &token;
                c.fetch_add(1, Ordering::SeqCst);
            }),
        ));
        (calls, owned)
    }

    /// Whether this thread holds a copy of `list`, current or not.
    fn parked(list: &List) -> bool {
        PARKED.with(|slots| {
            slots
                .iter()
                .any(|s| s.list.get() == list.id && s.entries.borrow().is_some())
        })
    }

    #[test]
    fn a_subscriber_replacing_itself_mid_delivery_is_gone_when_the_delivery_returns() {
        // On its first event the list is read under its lock, on its
        // second from the copy that delivery parked: both must let go.
        for swap_at in [0, 1] {
            let list = Arc::new(List::default());
            let (token, seen) = (Arc::new(()), Arc::new(AtomicUsize::new(0)));
            let (owned, s) = (Arc::downgrade(&token), Arc::clone(&seen));
            let later: Arc<AtomicUsize> = Arc::default();
            let (me, l) = (Arc::downgrade(&list), Arc::clone(&later));
            list.push((
                1,
                Arc::new(move || {
                    let _owned = &token;
                    if s.fetch_add(1, Ordering::SeqCst) == swap_at {
                        let list = me.upgrade().expect("the list outlives its events");
                        list.retain(|(id, _)| *id != 1);
                        let l = Arc::clone(&l);
                        list.push((
                            2,
                            Arc::new(move || {
                                l.fetch_add(1, Ordering::SeqCst);
                            }),
                        ));
                    }
                }),
            ));
            for _ in 0..=swap_at {
                fire(&list);
            }
            assert!(owned.upgrade().is_none(), "dropped with the delivery");
            fire(&list);
            fire(&list);
            assert_eq!(seen.load(Ordering::SeqCst), swap_at + 1, "none after");
            assert_eq!(later.load(Ordering::SeqCst), 2, "every later event");
        }
    }

    #[test]
    fn a_change_on_one_thread_is_seen_by_the_next_event_on_another() {
        let list = Arc::new(List::default());
        let (early, _) = counting(&list, 1);
        let (go, jobs) = mpsc::channel::<()>();
        let (report, done) = mpsc::channel();
        let theirs = Arc::clone(&list);
        let other = std::thread::spawn(move || {
            for () in jobs {
                fire(&theirs);
                report.send(()).unwrap();
            }
        });
        let fire_there = || {
            go.send(()).unwrap();
            done.recv().unwrap();
        };
        fire_there(); // parks the one-subscriber list over there
        let (late, _) = counting(&list, 2);
        fire_there();
        assert_eq!(early.load(Ordering::SeqCst), 2);
        assert_eq!(late.load(Ordering::SeqCst), 1);
        list.retain(|(id, _)| *id != 1);
        fire_there();
        assert_eq!(early.load(Ordering::SeqCst), 2, "none after its removal");
        assert_eq!(late.load(Ordering::SeqCst), 2);
        drop(go);
        other.join().unwrap();
    }

    #[test]
    fn the_unsubscribing_thread_holds_no_copy_afterwards() {
        let (list, other) = (List::default(), List::default());
        let (calls, owned) = counting(&list, 1);
        counting(&other, 1);
        fire(&list);
        fire(&list);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        list.retain(|_| false);
        assert!(owned.upgrade().is_none(), "no copy outlives the call");

        // Nor one of another list it (un)subscribes on.
        let (_, owned) = counting(&list, 2);
        fire(&list);
        drop(list);
        other.retain(|_| false);
        assert!(owned.upgrade().is_none());
    }

    #[test]
    fn two_lists_on_one_thread_never_cross() {
        // Same element type, same generation: only the id tells them apart.
        let (a, b) = (List::default(), List::default());
        let (a_calls, _) = counting(&a, 1);
        let (b_calls, _) = counting(&b, 1);
        for _ in 0..3 {
            fire(&a);
            fire(&b);
            fire(&b);
        }
        assert_eq!(a_calls.load(Ordering::SeqCst), 3);
        assert_eq!(b_calls.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn a_thread_parks_the_lists_it_delivered_through_last() {
        let lists: Vec<List> = (0..SLOTS + 4).map(|_| List::default()).collect();
        let calls: Vec<_> = lists.iter().map(|list| counting(list, 1).0).collect();
        // Other tests publish concurrently: judged on a round no
        // publication overlapped.
        let mut rounds = 0;
        let quiet = (0..1000).find_map(|_| {
            let before = GENERATION.load(Ordering::SeqCst);
            lists.iter().for_each(fire);
            rounds += 1;
            (GENERATION.load(Ordering::SeqCst) == before).then_some(())
        });
        assert!(quiet.is_some(), "a quiet round within 1000");
        assert!(
            lists[SLOTS..].iter().all(parked),
            "the last lists delivered through are parked"
        );
        for calls in calls {
            assert_eq!(
                calls.load(Ordering::SeqCst),
                rounds,
                "every list, every round"
            );
        }
    }

    #[test]
    fn a_reentrant_delivery_never_evicts_the_copy_it_is_reading() {
        let outer = Arc::new(List::default());
        let inner: Arc<Vec<List>> = Arc::new((0..SLOTS + 4).map(|_| List::default()).collect());
        let inner_calls: Vec<_> = inner.iter().map(|list| counting(list, 1).0).collect();
        let (kept, nested) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let (me, lists) = (Arc::downgrade(&outer), Arc::clone(&inner));
        let (k, n) = (Arc::clone(&kept), Arc::clone(&nested));
        outer.push((
            1,
            Arc::new(move || {
                if !n.load(Ordering::SeqCst) {
                    return;
                }
                let outer = me.upgrade().expect("the list outlives its events");
                let before = parked(&outer);
                // Every slot is taken in turn, the one being read aside.
                lists.iter().for_each(fire);
                lists.iter().for_each(fire);
                if before && parked(&outer) {
                    k.fetch_add(1, Ordering::SeqCst);
                }
            }),
        ));
        assert!((0..100).any(|_| {
            fire(&outer);
            parked(&outer)
        }));
        nested.store(true, Ordering::SeqCst);
        let deliveries = (1..=100)
            .find(|_| {
                fire(&outer);
                kept.load(Ordering::SeqCst) > 0
            })
            .expect("a nested round read from the parked copy within 100");
        for calls in inner_calls {
            assert_eq!(calls.load(Ordering::SeqCst), 2 * deliveries);
        }
    }

    #[test]
    fn an_empty_list_parks_nothing() {
        let list = List::default();
        fire(&list);
        assert!(!parked(&list));
        // Other tests publish concurrently: a delivery that overlaps one
        // does not park, the next does.
        counting(&list, 1);
        assert!((0..100).any(|_| {
            fire(&list);
            parked(&list)
        }));
        list.retain(|_| false);
        fire(&list);
        assert!(!parked(&list), "emptied: swept, and not parked again");
    }
}
