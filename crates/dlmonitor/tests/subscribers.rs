//! What the per-thread parked subscriber list must never change: who is
//! called for which event, from which thread, and for how long a
//! subscriber (and whatever it captured) can outlive its registration.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Weak};

use deepcontext_core::{Interner, OpPhase, ThreadRole};
use dl_framework::{CallbackRegistry, OpEvent, Site};
use dlmonitor::{DlEvent, DlMonitor, Domain, RegistrationId};
use parking_lot::Mutex;
use sim_runtime::RuntimeEnv;

struct Rig {
    registry: Arc<CallbackRegistry>,
    monitor: Arc<DlMonitor>,
    event: OpEvent,
}

/// A monitor attached to a registry of its own, and an event to fire.
fn rig(env: &RuntimeEnv) -> Rig {
    let registry = CallbackRegistry::new();
    let monitor = DlMonitor::init(env, Interner::new());
    monitor.attach_framework(&registry);
    Rig {
        registry,
        monitor,
        event: OpEvent {
            name: Arc::from("aten::relu"),
            phase: OpPhase::Forward,
            seq_id: None,
            site: Site::Exit,
            thread: env.threads().spawn(ThreadRole::Main),
            inputs: Vec::new(),
        },
    }
}

impl Rig {
    fn fire(&self) {
        self.registry.fire_op(&self.event);
    }

    /// Registers a subscriber that counts its calls and owns `token`.
    fn counting(&self, token: Arc<()>) -> (RegistrationId, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let id = self
            .monitor
            .callback_register(Domain::Framework, move |_: &DlEvent| {
                let _owned = &token;
                c.fetch_add(1, Ordering::SeqCst);
            });
        (id, calls)
    }
}

/// A helper OS thread that fires a rig's event each time it is told to
/// and reports back, so the test decides the interleaving.
struct Firing {
    go: Sender<Arc<Rig>>,
    done: std::sync::mpsc::Receiver<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Firing {
    fn spawn() -> Firing {
        let (go, jobs) = channel::<Arc<Rig>>();
        let (report, done) = channel();
        let thread = std::thread::spawn(move || {
            for rig in jobs {
                rig.fire();
                drop(rig);
                report.send(()).unwrap();
            }
        });
        Firing { go, done, thread }
    }

    fn fire(&self, rig: &Arc<Rig>) {
        self.go.send(Arc::clone(rig)).unwrap();
        self.done.recv().unwrap();
    }

    fn exit(self) {
        drop(self.go);
        self.thread.join().unwrap();
    }
}

#[test]
fn a_subscriber_replacing_itself_mid_delivery_is_gone_when_the_delivery_returns() {
    let env = RuntimeEnv::new();
    let rig = Arc::new(rig(&env));
    let token = Arc::new(());
    let owned = Arc::downgrade(&token);
    let (first_calls, second_calls) = (Arc::new(AtomicUsize::new(0)), Arc::default());

    let me: Arc<Mutex<Option<RegistrationId>>> = Arc::default();
    let (r, m, first, second) = (
        Arc::downgrade(&rig),
        Arc::clone(&me),
        Arc::clone(&first_calls),
        Arc::clone(&second_calls),
    );
    let id = rig
        .monitor
        .callback_register(Domain::Framework, move |_: &DlEvent| {
            let _owned = &token;
            // On its second event — the first parked this thread's copy of
            // the list — it swaps itself for another subscriber.
            if first.fetch_add(1, Ordering::SeqCst) == 1 {
                let rig = r.upgrade().expect("the rig outlives its events");
                rig.monitor.callback_unregister(m.lock().expect("set"));
                let second: Arc<AtomicUsize> = Arc::clone(&second);
                rig.monitor
                    .callback_register(Domain::Framework, move |_: &DlEvent| {
                        second.fetch_add(1, Ordering::SeqCst);
                    });
            }
        });
    *me.lock() = Some(id);

    rig.fire();
    rig.fire();
    // No copy of the old list is parked on the thread that replaced it.
    assert!(
        owned.upgrade().is_none(),
        "the removed subscriber is dropped"
    );
    rig.fire();
    rig.fire();
    assert_eq!(first_calls.load(Ordering::SeqCst), 2, "none after removal");
    assert_eq!(second_calls.load(Ordering::SeqCst), 2, "every later event");
}

#[test]
fn a_change_on_one_thread_is_seen_by_the_next_event_on_another() {
    let env = RuntimeEnv::new();
    let rig = Arc::new(rig(&env));
    let other = Firing::spawn();

    let (early_id, early) = rig.counting(Arc::new(()));
    other.fire(&rig); // parks the one-subscriber list on `other`
    let (_, late) = rig.counting(Arc::new(()));
    other.fire(&rig);
    assert_eq!(early.load(Ordering::SeqCst), 2);
    assert_eq!(late.load(Ordering::SeqCst), 1);

    rig.monitor.callback_unregister(early_id);
    other.fire(&rig);
    rig.fire();
    assert_eq!(early.load(Ordering::SeqCst), 2, "none after it was removed");
    assert_eq!(late.load(Ordering::SeqCst), 3);
    other.exit();
}

#[test]
fn finalize_releases_subscribers_within_the_documented_bound() {
    let env = RuntimeEnv::new();
    let rig = Arc::new(rig(&env));
    let (delivering, exiting) = (Firing::spawn(), Firing::spawn());

    let token = Arc::new(());
    let owned: Weak<()> = Arc::downgrade(&token);
    let (_, calls) = rig.counting(token);
    // Three threads park a copy of the list.
    rig.fire();
    delivering.fire(&rig);
    exiting.fire(&rig);
    assert_eq!(calls.load(Ordering::SeqCst), 3);

    rig.monitor.finalize();
    // Nothing runs any more, on any thread.
    rig.fire();
    delivering.fire(&rig);
    rig.monitor.attach_framework(&rig.registry);
    delivering.fire(&rig);
    assert_eq!(calls.load(Ordering::SeqCst), 3);

    // The finalizing thread's copy went with the call. Every other
    // thread's goes with the next event it delivers — a finalized monitor
    // delivers none, so through another monitor — or with the thread.
    let next = Arc::new(self::rig(&env));
    let (_, next_calls) = next.counting(Arc::new(()));
    delivering.fire(&next);
    assert_eq!(next_calls.load(Ordering::SeqCst), 1);
    exiting.exit();
    assert!(owned.upgrade().is_none(), "subscriber outlived the bound");
    delivering.exit();
}

#[test]
fn two_monitors_on_one_thread_never_see_each_others_subscribers() {
    let env = RuntimeEnv::new();
    let (a, b) = (rig(&env), rig(&env));
    // One registration each: the same generation on both.
    let (_, a_calls) = a.counting(Arc::new(()));
    let (_, b_calls) = b.counting(Arc::new(()));
    for _ in 0..3 {
        a.fire();
        b.fire();
        b.fire();
    }
    assert_eq!(a_calls.load(Ordering::SeqCst), 3);
    assert_eq!(b_calls.load(Ordering::SeqCst), 6);
}
