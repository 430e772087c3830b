//! The subscriber list of every interception point: the GPU runtime's,
//! the framework registry's, DLMonitor's.

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

/// Copies a thread parks (a profiled session delivers through five
/// lists); one list more is read under its lock every time.
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

/// A copy-on-write list of subscribers, and its parking contract.
///
/// Publication is copy-on-write behind the list's write lock and bumps a
/// process-wide generation; a delivery runs over the list it began with,
/// so a subscriber may (un)subscribe from inside one. Each OS thread
/// parks a copy of the lists it delivers through (up to `SLOTS`) and
/// reads it in place while the generation has not moved: no lock, no
/// reference count, no allocation. A list nobody subscribed to parks
/// nothing and is read under its lock.
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
        let generation = GENERATION.load(Ordering::SeqCst);
        let parked = self.occupied.load(Ordering::SeqCst)
            && PARKED.try_with(|slots| {
                let slot = slots
                    .iter()
                    .find(|s| s.list.get() == self.id && s.generation.get() == generation)?;
                let list = slot.entries.borrow();
                let list: &Vec<T> = list.as_ref()?.downcast_ref()?;
                list.iter().for_each(&mut call);
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
            entries.iter().for_each(call);
            let _ = PARKED.try_with(|slots| {
                sweep(slots, generation);
                let vacant = slots
                    .iter()
                    .filter(|s| s.generation.get() != generation)
                    .find_map(|s| Some((s, s.entries.try_borrow_mut().ok()?)));
                if let Some((slot, mut held)) = vacant {
                    *held = Some(entries);
                    slot.list.set(self.id);
                    slot.generation.set(generation);
                }
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
