//! Thread-local producer-side event batching (asynchronous mode only).
//!
//! The asynchronous pipeline makes *attribution* cheap for producers,
//! but enqueueing event by event would still leave a fixed per-launch
//! cost on the monitored workload's critical path: one
//! correlation-directory bind, one bounded-channel push, one waiter
//! check per event. On coarse kernel-only streams — where attribution
//! itself is cheap — those fixed costs dominate. This module amortizes
//! them, and is the only route launches and CPU samples take into the
//! queues: producers append events to a per-thread, per-shard
//! [`LaunchBatch`] buffer, and a whole buffer is flushed at once —
//! binding every batched correlation in **one** striped-directory pass
//! ([`ShardedSink::bind_batch`]) and handing each shard's run to the
//! [`AsyncSink`](crate::AsyncSink) in **one** bounded-channel batch
//! push. A `launch_batch` of 1 flushes after every event.
//!
//! Synchronous mode does not batch: a bare [`ShardedSink`] attributes
//! inline, which measured faster than buffering in front of it on every
//! single-producer stream (273 vs 315 ns/event coarse).
//!
//! # Flush points
//!
//! A thread's buffer is flushed when:
//!
//! * it reaches [`PipelineConfig::launch_batch`] events (the capacity
//!   trigger);
//! * **any** activity batch is delivered — activity records resolve
//!   through launches' correlations, so every buffered launch anywhere
//!   must be bound and delivered before a record routes
//!   ([`Batcher::flush_all`] walks every thread's buffer, not just the
//!   caller's);
//! * an explicit barrier runs (flush / snapshot / finish / epoch /
//!   counters) — so profiles are indistinguishable across batch sizes
//!   (and from synchronous mode) at every observation point;
//! * the owning thread exits (thread quiesce: the thread-local
//!   registration's destructor flushes the remainder).
//!
//! One timing subtlety of the thread-quiesce path: TLS destructors run
//! *after* `std::thread::scope`'s implicit join returns, so a
//! scope-joined producer's tail batch may land a beat after the scope
//! body — any barrier still collects it, but tests (or embedders)
//! asserting quiesce *timing* must join producers with an explicit
//! `JoinHandle::join` rather than rely on scope exit.
//!
//! # Ordering
//!
//! Only the per-event collection paths (launches, CPU samples) are
//! buffered; activity buckets arrive pre-batched from the GPU runtime
//! and are delivered eagerly, right after the global flush that
//! guarantees every launch they resolve through is already bound and
//! ahead of them. Within one buffer, events keep arrival order per
//! shard, so flushing preserves the per-shard event order synchronous
//! mode applies inline — the sync == async equivalence the proptests
//! assert at every batch size — and the correlation two-phase prune runs
//! at exactly the synchronous cadence (no extra live-state window, so
//! peak profile memory is unchanged).
//!
//! [`PipelineConfig::launch_batch`]: crate::PipelineConfig::launch_batch
//! [`ShardedSink`]: crate::ShardedSink
//! [`ShardedSink::bind_batch`]: crate::ShardedSink::bind_batch

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use deepcontext_core::{MetricKind, PathId, TrackKey};
use sim_gpu::ApiKind;

use crate::async_sink::Shared;

/// One producer-side event held in a [`LaunchBatch`] buffer, already
/// routed to its home shard — a few words: contexts travel by id. Only
/// the *per-event* collection paths — launches and CPU samples, where
/// fixed costs dominate — are buffered; activity buckets arrive
/// pre-batched from the GPU runtime and are delivered eagerly (after a
/// global flush), so the correlation lifecycle keeps exactly the
/// synchronous prune cadence.
#[derive(Clone, Copy)]
pub(crate) enum ProducerEvent {
    /// A GPU API interception at its launch site.
    Launch {
        /// Directory-bound to `path` by the flush's `bind_batch` pass,
        /// not per event.
        correlation: Option<u64>,
        /// The calling context of the launch site.
        path: PathId,
        /// Which API was intercepted.
        api: ApiKind,
    },
    /// A CPU sample on the buffering thread.
    Sample {
        /// The sampled thread's calling context.
        path: PathId,
        /// Metric attributed by the sample.
        metric: MetricKind,
        /// Sampled value.
        value: f64,
    },
}

/// One thread's pending events, bucketed per shard.
pub(crate) struct LaunchBatch {
    shards: Vec<Vec<ProducerEvent>>,
    /// Shard indices with a non-empty bucket, in first-touch order —
    /// a flush walks only these instead of scanning every bucket, so
    /// single-stream producers (one occupied bucket) pay O(1) per flush
    /// even under a many-hundred-shard layout (the ROADMAP's "batcher
    /// flush fan-out" item).
    occupied: Vec<u32>,
    /// Total buffered event weight across all shards.
    pending: u64,
}

impl LaunchBatch {
    fn new(shards: usize) -> Self {
        LaunchBatch {
            shards: (0..shards).map(|_| Vec::new()).collect(),
            occupied: Vec::new(),
            pending: 0,
        }
    }

    /// Appends one routed event to its shard bucket, tracking bucket
    /// occupancy for O(occupied) flushes.
    fn push(&mut self, shard: usize, event: ProducerEvent) {
        let bucket = &mut self.shards[shard];
        if bucket.is_empty() {
            self.occupied.push(shard as u32);
        }
        bucket.push(event);
        self.pending += 1;
    }

    /// Flushes every occupied shard bucket into `delivery`'s queues,
    /// binding each bucket's launch correlations in one striped-directory
    /// pass first. Returns the flushed event count.
    fn flush(&mut self, delivery: &Shared) -> u64 {
        if self.pending == 0 {
            return 0;
        }
        let flushed = self.pending;
        let sharded = &delivery.inner;
        let flush_start = sharded.telemetry().map(|t| t.now_ns());
        let mut launches: Vec<(u64, PathId)> = Vec::new();
        for &idx in &self.occupied {
            let bucket = &mut self.shards[idx as usize];
            // Hand the filled bucket over but leave equivalent capacity
            // behind: one allocation per flush window instead of a
            // geometric regrowth (and its memcpys) on every refill.
            let events = std::mem::replace(bucket, Vec::with_capacity(bucket.len()));
            launches.clear();
            launches.extend(events.iter().filter_map(|e| match *e {
                ProducerEvent::Launch {
                    correlation, path, ..
                } => correlation.map(|corr| (corr, path)),
                ProducerEvent::Sample { .. } => None,
            }));
            // Publish the whole batch's bindings before any of it becomes
            // visible, so activity records arriving while the batch is in
            // flight route to the same shard and resolve.
            sharded.bind_batch(&launches, idx as usize);
            delivery.deliver(idx as usize, events);
        }
        self.occupied.clear();
        self.pending = 0;
        if let (Some(t), Some(start)) = (sharded.telemetry(), flush_start) {
            // `deliver` enqueues (and may block on backpressure), so
            // flush latency is the producer-visible cost of handing the
            // batch off — exactly the number the overhead bars care
            // about.
            let end = t.now_ns();
            t.flush_size.record(flushed);
            t.flush_latency.record(end.saturating_sub(start));
            sharded.record_self_interval(TrackKey::SELF_STREAM_FLUSH, start, end, t.flush_sym);
        }
        flushed
    }

    /// Approximate resident bytes of the buffered events.
    fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<ProducerEvent>())
            .sum::<usize>()
            + self.occupied.capacity() * std::mem::size_of::<u32>()
            + self.pending as usize * 64
    }
}

/// One thread's registered buffer: the owning thread appends under the
/// mutex (uncontended in steady state); barrier threads lock it to flush
/// on the thread's behalf.
struct Slot {
    buf: Mutex<LaunchBatch>,
    /// Back-reference for the thread-quiesce flush; weak so a dead sink
    /// cannot be kept alive (or resurrected) by idle thread-locals.
    delivery: Weak<Shared>,
    /// The owning [`Batcher`]'s buffered-event total, decremented by
    /// whoever flushes this slot.
    pending_total: Arc<AtomicU64>,
}

/// The thread-local handle to a [`Slot`]; dropping it (thread exit)
/// flushes whatever the dying thread still buffers.
struct LocalSlot(Arc<Slot>);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        if let Some(delivery) = self.0.delivery.upgrade() {
            let flushed = self.0.buf.lock().flush(&delivery);
            self.0.pending_total.fetch_sub(flushed, Ordering::AcqRel);
        }
    }
}

thread_local! {
    /// This thread's slots, one per live batching sink the thread has
    /// produced into, most-recently-used first. A short vector beats a
    /// hash map here: the common workload produces into one sink, so the
    /// per-event lookup is a single id compare at index 0.
    static LOCAL_SLOTS: RefCell<Vec<(u64, LocalSlot)>> = const { RefCell::new(Vec::new()) };
}

/// Unique id per [`Batcher`] instance, keying the thread-local registry.
static NEXT_BATCHER_ID: AtomicU64 = AtomicU64::new(1);

/// The asynchronous pipeline's producer-side batching engine: a registry
/// of per-thread [`LaunchBatch`] buffers plus the flush policy.
pub(crate) struct Batcher {
    id: u64,
    /// Flush threshold in events; `push` flushes the whole thread buffer
    /// once this many events are pending.
    capacity: u64,
    shard_count: usize,
    delivery: Arc<Shared>,
    /// Every live slot, so barriers can flush threads they do not own.
    slots: Mutex<Vec<Arc<Slot>>>,
    /// Events buffered across **all** slots right now, so the empty case
    /// of [`flush_all`](Self::flush_all) — every activity delivery runs
    /// one — is one atomic load instead of a registry sweep.
    pending_total: Arc<AtomicU64>,
}

impl Batcher {
    pub(crate) fn new(delivery: Arc<Shared>, launch_batch: usize) -> Self {
        let shard_count = delivery.inner.shard_count();
        Batcher {
            id: NEXT_BATCHER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: launch_batch.max(1) as u64,
            shard_count,
            delivery,
            slots: Mutex::new(Vec::new()),
            pending_total: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Registers a fresh slot for the calling thread (and prunes dead
    /// sinks' local entries while at it — registration is rare).
    fn register_slot(&self, slots: &mut Vec<(u64, LocalSlot)>) {
        slots.retain(|(_, s)| s.0.delivery.strong_count() > 0);
        let slot = Arc::new(Slot {
            buf: Mutex::new(LaunchBatch::new(self.shard_count)),
            delivery: Arc::downgrade(&self.delivery),
            pending_total: Arc::clone(&self.pending_total),
        });
        self.slots.lock().push(Arc::clone(&slot));
        slots.insert(0, (self.id, LocalSlot(slot)));
    }

    /// Appends one routed event to the calling thread's buffer, flushing
    /// the buffer when it reaches the capacity trigger. The whole hot
    /// path runs inside the thread-local borrow, so an event costs one id
    /// compare, one uncontended slot lock and one `Vec` push — no
    /// refcount traffic.
    pub(crate) fn push(&self, shard: usize, event: ProducerEvent) {
        LOCAL_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            let pos = slots.iter().position(|(id, _)| *id == self.id);
            let pos = match pos {
                Some(pos) => pos,
                None => {
                    self.register_slot(&mut slots);
                    0
                }
            };
            if pos != 0 {
                // Keep the active sink's slot at index 0.
                slots.swap(0, pos);
            }
            let mut buf = slots[0].1 .0.buf.lock();
            // Published while the slot lock is held, so once this event's
            // producer call has returned, any later `flush_all` observes
            // a non-zero total (the runtime's own synchronization orders
            // a launch's return before its activity's delivery).
            self.pending_total.fetch_add(1, Ordering::AcqRel);
            buf.push(shard, event);
            if buf.pending >= self.capacity {
                let flushed = buf.flush(&self.delivery);
                self.pending_total.fetch_sub(flushed, Ordering::AcqRel);
            }
        });
    }

    /// Flushes **every** thread's buffer — the barrier half of the
    /// design: snapshots, epochs, counters and activity deliveries all
    /// observe a world with no batched event left behind. Slots whose
    /// thread has exited (their quiesce flush already ran) are pruned.
    /// When nothing is buffered anywhere (the common case on
    /// activity-heavy paths), this is a single atomic load.
    pub(crate) fn flush_all(&self) {
        if self.pending_total.load(Ordering::Acquire) == 0 {
            return;
        }
        let slots: Vec<Arc<Slot>> = {
            let mut registry = self.slots.lock();
            registry.retain(|slot| Arc::strong_count(slot) > 1);
            registry.clone()
        };
        for slot in slots {
            let flushed = slot.buf.lock().flush(&self.delivery);
            self.pending_total.fetch_sub(flushed, Ordering::AcqRel);
        }
    }

    /// Sheds the flush-window capacity every thread's buffer retains
    /// between flushes — the batching analogue of `CctShard::trim`, run
    /// at epoch boundaries so resident memory between epochs tracks live
    /// state, not the largest window ever buffered.
    pub(crate) fn trim(&self) {
        let slots: Vec<Arc<Slot>> = self.slots.lock().clone();
        for slot in slots {
            let mut buf = slot.buf.lock();
            for bucket in &mut buf.shards {
                if bucket.capacity() > 16 && bucket.capacity() / 4 > bucket.len() {
                    bucket.shrink_to_fit();
                }
            }
        }
    }

    /// Approximate resident bytes of all buffered events.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.slots
            .lock()
            .iter()
            .map(|slot| slot.buf.lock().approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncSink, EventSink, PipelineConfig, ShardedSink};
    use deepcontext_core::{Frame, Interner};

    #[test]
    fn flush_walks_only_occupied_buckets() {
        // A 64-shard layout with two occupied buckets must deliver
        // exactly two batches, to exactly those shards, and reset
        // occupancy for the next window.
        let interner = Interner::new();
        let inner = ShardedSink::new(Arc::clone(&interner), 64);
        let sink = AsyncSink::new(Arc::clone(&inner), PipelineConfig::default());
        let path = interner
            .paths()
            .intern(&[Frame::operator("aten::relu", &interner)])
            .id();
        let sample = || ProducerEvent::Sample {
            path,
            metric: MetricKind::CpuTime,
            value: 1.0,
        };
        let mut batch = LaunchBatch::new(64);
        batch.push(7, sample());
        batch.push(7, sample());
        batch.push(42, sample());
        assert_eq!(batch.occupied, vec![7, 42], "first-touch order");
        assert_eq!(batch.flush(&sink.shared), 3);
        assert!(batch.occupied.is_empty());
        assert_eq!(batch.pending, 0);
        let counters = sink.counters();
        assert_eq!(counters.producer_flushes, 2, "one delivery per bucket");
        assert_eq!(counters.batched_events, 3);
        assert_eq!(inner.shards_occupied(), 2);
        // An empty flush delivers nothing; the next window starts clean.
        assert_eq!(batch.flush(&sink.shared), 0);
        assert_eq!(sink.counters().producer_flushes, 2);
        batch.push(3, sample());
        assert_eq!(batch.flush(&sink.shared), 1);
        assert_eq!(sink.counters().producer_flushes, 3);
        assert_eq!(inner.shards_occupied(), 3);
    }
}
