//! CPU work accounting and `sigaction`-style sampling.
//!
//! DeepContext "invokes the sigaction system call to register a signal
//! callback for CPU_TIME and REAL_TIME events" and "can also register
//! Linux perf events or invoke PAPI API to obtain metrics from hardware
//! counters" (paper §4.2). The simulation is event-driven and
//! deterministic: simulated CPU work advances per-thread counters, and a
//! registered sampler fires once per interval boundary crossed — exactly
//! the observable behaviour of interval timers and counter-overflow
//! sampling. A sampler's progress toward its next boundary belongs to the
//! thread it counts, as a kernel timer's state does: it lives on that
//! [`ThreadCtx`], and the registry is only the list of samplers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::thread::ThreadCtx;
use deepcontext_core::{Subscribers, TimeNs};

/// A chunk of simulated CPU work performed by a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuWork {
    /// CPU time consumed.
    pub time: TimeNs,
    /// Retired instructions.
    pub instructions: u64,
    /// Cache misses incurred.
    pub cache_misses: u64,
    /// Branch mispredictions incurred.
    pub branch_misses: u64,
}

impl CpuWork {
    /// Compute-only work: derives plausible counter values from time
    /// (3 instructions/ns, light miss rates).
    pub fn compute(time: TimeNs) -> Self {
        let instructions = time.as_nanos() * 3;
        CpuWork {
            time,
            instructions,
            cache_misses: instructions / 2_000,
            branch_misses: instructions / 5_000,
        }
    }

    /// Memory-bound work: fewer instructions, heavier cache misses.
    pub fn memory_bound(time: TimeNs) -> Self {
        let instructions = time.as_nanos();
        CpuWork {
            time,
            instructions,
            cache_misses: instructions / 50,
            branch_misses: instructions / 10_000,
        }
    }
}

/// What a sampler is listening to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleKind {
    /// Thread CPU time (ITIMER_VIRTUAL analogue); interval in ns.
    CpuTime,
    /// Wall-clock time (ITIMER_REAL analogue); interval in ns.
    RealTime,
    /// Retired-instruction overflow sampling; interval in events.
    HwInstructions,
    /// Cache-miss overflow sampling; interval in events.
    HwCacheMisses,
    /// Branch-miss overflow sampling; interval in events.
    HwBranchMisses,
}

impl fmt::Display for SampleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SampleKind::CpuTime => "cpu_time",
            SampleKind::RealTime => "real_time",
            SampleKind::HwInstructions => "hw_instructions",
            SampleKind::HwCacheMisses => "hw_cache_misses",
            SampleKind::HwBranchMisses => "hw_branch_misses",
        };
        f.write_str(s)
    }
}

/// A batch of samples delivered to a handler.
///
/// `count` interval boundaries were crossed during one chunk of work; the
/// handler typically attributes `count * interval` of the sampled quantity
/// to the thread's current call path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleEvent {
    /// The sampled event kind.
    pub kind: SampleKind,
    /// Number of samples fired.
    pub count: u64,
    /// The sampling interval (ns for time kinds, events for counters).
    pub interval: u64,
}

/// Identifier of a registered sampler; ids rise in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SamplerId(u64);

type Handler = Arc<dyn Fn(&Arc<ThreadCtx>, SampleEvent) + Send + Sync>;

#[derive(Clone)]
struct Registration {
    id: SamplerId,
    kind: SampleKind,
    interval: u64,
    handler: Handler,
}

/// Registry of interval samplers, the `sigaction`/perf-event substitute.
#[derive(Default, Debug)]
pub struct CpuSamplerRegistry {
    samplers: Subscribers<Registration>,
    next_id: AtomicU64,
}

impl CpuSamplerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a sampler of `kind` firing every `interval` units.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn register(
        &self,
        kind: SampleKind,
        interval: u64,
        handler: impl Fn(&Arc<ThreadCtx>, SampleEvent) + Send + Sync + 'static,
    ) -> SamplerId {
        assert!(interval > 0, "sampling interval must be positive");
        let handler: Handler = Arc::new(handler);
        let mut id = SamplerId(0);
        self.samplers.update(|old| {
            // Taken under the list's lock, so a list is in id order.
            id = SamplerId(self.next_id.fetch_add(1, Ordering::SeqCst));
            let new = Registration {
                id,
                kind,
                interval,
                handler,
            };
            old.iter().cloned().chain([new]).collect()
        });
        id
    }

    /// Removes a sampler.
    pub fn unregister(&self, id: SamplerId) {
        self.samplers.retain(|r| r.id != id);
    }

    /// Whether no samplers are registered.
    pub fn is_empty(&self) -> bool {
        self.samplers.is_empty()
    }

    /// Accounts one chunk of work on `thread`, firing handlers for every
    /// crossed interval boundary. Called by
    /// [`RuntimeEnv::do_cpu_work`](crate::RuntimeEnv::do_cpu_work).
    pub fn on_work(&self, thread: &Arc<ThreadCtx>, work: &CpuWork) {
        self.samplers.deliver_all(|samplers| {
            for reg in samplers {
                let amount = match reg.kind {
                    SampleKind::CpuTime | SampleKind::RealTime => work.time.as_nanos(),
                    SampleKind::HwInstructions => work.instructions,
                    SampleKind::HwCacheMisses => work.cache_misses,
                    SampleKind::HwBranchMisses => work.branch_misses,
                };
                if amount == 0 {
                    continue;
                }
                // Released before the handler runs: it may work on `thread`.
                let count = {
                    let mut residuals = thread.residuals.lock();
                    let at = residuals.iter().position(|&(id, _)| id == reg.id);
                    let at = at.unwrap_or_else(|| {
                        // New to this thread: drop the samplers unregistered
                        // since. They are older than this list's newest and
                        // absent; a newer one was registered mid-delivery.
                        let newest = samplers[samplers.len() - 1].id;
                        residuals
                            .retain(|&(id, _)| id > newest || samplers.iter().any(|r| r.id == id));
                        residuals.push((reg.id, 0));
                        residuals.len() - 1
                    });
                    let total = residuals[at].1 + amount;
                    residuals[at].1 = total % reg.interval;
                    total / reg.interval
                };
                if count > 0 {
                    let event = SampleEvent {
                        kind: reg.kind,
                        count,
                        interval: reg.interval,
                    };
                    (reg.handler)(thread, event);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ThreadRegistry;
    use deepcontext_core::ThreadRole;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64 as Counter};
    use std::sync::mpsc;

    fn thread() -> Arc<ThreadCtx> {
        ThreadRegistry::new().spawn(ThreadRole::Main)
    }

    #[test]
    fn fires_once_per_interval_boundary() {
        let reg = CpuSamplerRegistry::new();
        let fired = Arc::new(Counter::new(0));
        let f = Arc::clone(&fired);
        reg.register(SampleKind::CpuTime, 100, move |_t, e| {
            assert_eq!(e.kind, SampleKind::CpuTime);
            assert_eq!(e.interval, 100);
            f.fetch_add(e.count, Ordering::SeqCst);
        });
        let t = thread();
        reg.on_work(
            &t,
            &CpuWork {
                time: TimeNs(250),
                ..Default::default()
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        // Residual 50 + 50 = one more boundary.
        reg.on_work(
            &t,
            &CpuWork {
                time: TimeNs(50),
                ..Default::default()
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn residuals_are_per_thread() {
        let reg = CpuSamplerRegistry::new();
        let fired = Arc::new(Counter::new(0));
        let f = Arc::clone(&fired);
        reg.register(SampleKind::CpuTime, 100, move |_t, e| {
            f.fetch_add(e.count, Ordering::SeqCst);
        });
        let threads = ThreadRegistry::new();
        let t1 = threads.spawn(ThreadRole::Main);
        let t2 = threads.spawn(ThreadRole::Worker);
        reg.on_work(
            &t1,
            &CpuWork {
                time: TimeNs(60),
                ..Default::default()
            },
        );
        reg.on_work(
            &t2,
            &CpuWork {
                time: TimeNs(60),
                ..Default::default()
            },
        );
        // Neither crossed a boundary on its own.
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        reg.on_work(
            &t1,
            &CpuWork {
                time: TimeNs(60),
                ..Default::default()
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hardware_counter_sampling_uses_event_counts() {
        let reg = CpuSamplerRegistry::new();
        let fired = Arc::new(Counter::new(0));
        let f = Arc::clone(&fired);
        reg.register(SampleKind::HwCacheMisses, 10, move |_t, e| {
            f.fetch_add(e.count, Ordering::SeqCst);
        });
        let t = thread();
        reg.on_work(
            &t,
            &CpuWork {
                time: TimeNs(1),
                cache_misses: 35,
                ..Default::default()
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn unregister_stops_delivery() {
        let reg = CpuSamplerRegistry::new();
        let fired = Arc::new(Counter::new(0));
        let f = Arc::clone(&fired);
        let id = reg.register(SampleKind::CpuTime, 10, move |_t, e| {
            f.fetch_add(e.count, Ordering::SeqCst);
        });
        let t = thread();
        reg.on_work(
            &t,
            &CpuWork {
                time: TimeNs(20),
                ..Default::default()
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        reg.unregister(id);
        assert!(reg.is_empty());
        reg.on_work(
            &t,
            &CpuWork {
                time: TimeNs(100),
                ..Default::default()
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn matches_a_per_thread_residual_oracle_under_churn() {
        // Deterministic LCG: four threads, all five kinds, random work with
        // frequent zeros, samplers registered and unregistered between
        // steps, a quarter of them unregistering themselves from inside
        // their first delivery. Checked event for event against the rule
        // one process-wide map once kept: a residual per (thread,
        // sampler), `%= interval` at a boundary, forgotten at unregister.
        const KINDS: [SampleKind; 5] = [
            SampleKind::CpuTime,
            SampleKind::RealTime,
            SampleKind::HwInstructions,
            SampleKind::HwCacheMisses,
            SampleKind::HwBranchMisses,
        ];
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let reg = CpuSamplerRegistry::new();
        let spawner = ThreadRegistry::new();
        let threads: Vec<_> = (0..4).map(|_| spawner.spawn(ThreadRole::Worker)).collect();
        let (tx, rx) = mpsc::channel();
        // (id, kind, interval, unregisters itself when it fires)
        let mut live: Vec<(SamplerId, SampleKind, u64, bool)> = Vec::new();
        let mut residuals: BTreeMap<(u64, SamplerId), u64> = BTreeMap::new();
        let mut fired = Vec::new(); // (thread, kind) pairs seen firing
        let (mut registered, mut self_removed) = (0, 0);
        for step in 0..20_000 {
            match below(8) {
                0 => {
                    let (kind, interval) = (KINDS[below(5) as usize], 1 + below(60));
                    let once = below(4) == 0;
                    let own = SamplerId(registered);
                    registered += 1;
                    let (tx, me) = (tx.clone(), Arc::downgrade(&reg));
                    let id = reg.register(kind, interval, move |t, e| {
                        tx.send((t.tid(), own, e)).unwrap();
                        if once {
                            me.upgrade().expect("registry alive").unregister(own);
                        }
                    });
                    assert_eq!(id, own);
                    live.push((id, kind, interval, once));
                }
                1 if !live.is_empty() => {
                    let (id, ..) = live.remove(below(live.len() as u64) as usize);
                    reg.unregister(id);
                    residuals.retain(|&(_, sid), _| sid != id);
                }
                _ => {
                    let mut amount = || if below(3) == 0 { 0 } else { below(150) };
                    let work = CpuWork {
                        time: TimeNs(amount()),
                        instructions: amount(),
                        cache_misses: amount(),
                        branch_misses: amount(),
                    };
                    let t = &threads[below(4) as usize];
                    let mut expected = Vec::new();
                    for &(id, kind, interval, _) in &live {
                        let amount = match kind {
                            SampleKind::CpuTime | SampleKind::RealTime => work.time.as_nanos(),
                            SampleKind::HwInstructions => work.instructions,
                            SampleKind::HwCacheMisses => work.cache_misses,
                            SampleKind::HwBranchMisses => work.branch_misses,
                        };
                        if amount == 0 {
                            continue;
                        }
                        let residual = residuals.entry((t.tid(), id)).or_insert(0);
                        *residual += amount;
                        let count = *residual / interval;
                        if count > 0 {
                            *residual %= interval;
                            let event = SampleEvent {
                                kind,
                                count,
                                interval,
                            };
                            expected.push((t.tid(), id, event));
                        }
                    }
                    reg.on_work(t, &work);
                    let got: Vec<_> = rx.try_iter().collect();
                    assert_eq!(got, expected, "step {step}");
                    for &(tid, id, event) in &got {
                        if !fired.contains(&(tid, event.kind)) {
                            fired.push((tid, event.kind));
                        }
                        if let Some(at) = live.iter().position(|s| s.0 == id && s.3) {
                            live.remove(at);
                            residuals.retain(|&(_, sid), _| sid != id);
                            self_removed += 1;
                        }
                    }
                }
            }
            assert_eq!(reg.is_empty(), live.is_empty(), "step {step}");
        }
        assert_eq!(
            fired.len(),
            threads.len() * KINDS.len(),
            "every kind on every thread"
        );
        assert!(
            self_removed > 10,
            "{self_removed} handlers removed themselves"
        );
    }

    #[test]
    fn a_thread_drops_the_residuals_of_unregistered_samplers() {
        // 1 000 register / work / unregister cycles beside one sampler
        // that stays: after every delivery the thread holds at most one
        // residual per live sampler.
        let reg = CpuSamplerRegistry::new();
        reg.register(SampleKind::CpuTime, 7, |_t, _e| {});
        let t = thread();
        for _ in 0..1_000 {
            let id = reg.register(SampleKind::HwInstructions, 5, |_t, _e| {});
            reg.on_work(&t, &CpuWork::compute(TimeNs(3)));
            let held = t.residuals.lock().len();
            assert!(held <= 2, "{held} residuals for 2 live samplers");
            reg.unregister(id);
        }
    }

    #[test]
    fn a_sampler_registered_and_worked_inside_a_delivery_keeps_its_residual() {
        // The outer delivery's list predates `late`: meeting a sampler new
        // to the thread there (instructions, which the inner work lacks)
        // must not drop the residual the inner work left `late`.
        let reg = CpuSamplerRegistry::new();
        let late = Arc::new(Counter::new(0));
        let (me, l, first) = (
            Arc::downgrade(&reg),
            Arc::clone(&late),
            AtomicBool::new(true),
        );
        reg.register(SampleKind::CpuTime, 1, move |t, _e| {
            if first.swap(false, Ordering::SeqCst) {
                let reg = me.upgrade().expect("registry alive");
                let l = Arc::clone(&l);
                reg.register(SampleKind::CpuTime, 10, move |_t, e| {
                    l.fetch_add(e.count, Ordering::SeqCst);
                });
                let inner = CpuWork {
                    time: TimeNs(6),
                    ..CpuWork::default()
                };
                reg.on_work(t, &inner);
            }
        });
        reg.register(SampleKind::HwInstructions, 1_000, |_t, _e| {});
        let t = thread();
        let work = |ns, instructions| CpuWork {
            time: TimeNs(ns),
            instructions,
            ..CpuWork::default()
        };
        reg.on_work(&t, &work(1, 1));
        reg.on_work(&t, &work(4, 0));
        assert_eq!(late.load(Ordering::SeqCst), 1, "6 + 4 crossed 10");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let reg = CpuSamplerRegistry::new();
        reg.register(SampleKind::CpuTime, 0, |_t, _e| {});
    }

    #[test]
    fn cpu_work_presets_are_consistent() {
        let c = CpuWork::compute(TimeNs(1_000));
        let m = CpuWork::memory_bound(TimeNs(1_000));
        assert!(c.instructions > m.instructions);
        assert!(m.cache_misses > c.cache_misses);
    }
}
