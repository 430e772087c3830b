//! The incident journal: a causal flight recorder for pipeline
//! lifecycle events.
//!
//! Numeric self-telemetry says *that* something was slow or retried; the
//! journal records *when, in what order, and why* — a bounded,
//! lock-striped ring of structured lifecycle events ([`Journal`]): each
//! event carries a global sequence number, a monotonic timestamp, a
//! severity, a `Sym`-interned site name and the key/value evidence
//! fields the site attached (the name and shard of a failpoint fire,
//! the attempt number of a store retry).
//!
//! The cost model mirrors [`Telemetry`]: a disabled journal is the
//! *absence* of the handle — instrumented code holds an
//! `Option<Arc<Journal>>` and the disabled path is one branch. Recording
//! is off the per-event hot path by construction (lifecycle events are
//! rare), and the ring is bounded: overflow evicts the oldest events
//! and counts them, preserving the conservation invariant
//! `recorded == kept + evicted` at every snapshot.
//!
//! Snapshots flatten into [`StoredJournal`] (a `deepcontext-core` type,
//! so `ProfileDb` can embed the journal tail with the profile), which
//! carries the JSONL exporter; Chrome-trace surfacing and the analyzer's
//! incident correlation build on the same stored form.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use deepcontext_core::{Interner, StoredJournal, StoredJournalEvent, Sym};

use crate::metrics::Counter;
use crate::names;
use crate::registry::Telemetry;

/// Ring stripes: recorders pick a stripe round-robin by sequence
/// number, so concurrent incident bursts rarely contend on one lock.
const STRIPES: usize = 8;

/// Default bounded capacity, in events. Incidents are rare; a run that
/// overflows this is itself a finding (and the eviction counter says
/// so).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 512;

/// Well-known journal site names, so instrumentation sites, stored
/// profiles, and analyzer rules agree on spelling.
pub mod journal_sites {
    /// `ProfileStore` retry-with-backoff attempt (fields: `op`,
    /// `attempt`, `error`).
    pub const STORE_RETRY: &str = "store.retry";
    /// A flush boundary (`EventSink::epoch_complete`) completed.
    pub const PIPELINE_EPOCH: &str = "pipeline.epoch";
    /// A fault-injection point fired (fields: `name`, optional `at`).
    pub const FAILPOINT_FIRE: &str = "failpoint.fire";

    /// Every built-in site, in declaration order. [`Journal::new`]
    /// pre-interns this vocabulary so *which* sites a run happens to
    /// fire cannot perturb downstream symbol tables — the timeline's
    /// name table is an interner snapshot.
    ///
    /// Journals stored before the asynchronous pipeline was deleted also
    /// name `supervisor.transition`, `shard.quarantine`, `worker.restart`,
    /// `drop.storm.*` and `pipeline.{pause, resume, drain}`; stored
    /// events carry their site as a string, so those files still load
    /// and render.
    ///
    /// [`Journal::new`]: super::Journal::new
    pub const ALL: &[&str] = &[STORE_RETRY, PIPELINE_EPOCH, FAILPOINT_FIRE];
}

/// Event severity. Discriminants are the stored byte
/// ([`deepcontext_core::severity_label`] renders them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum JournalSeverity {
    /// Expected lifecycle (flush boundaries).
    Info = 0,
    /// Degraded but operating (retries).
    Warn = 1,
    /// Faults (exhausted retries, failpoint fires).
    Error = 2,
}

/// Journal knobs (the `ProfilerConfig::journal` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Whether lifecycle events are journaled at all. Off by default:
    /// the disabled path is an `Option` branch per site.
    pub enabled: bool,
    /// Bounded ring capacity, in events (rounded up to a stripe
    /// multiple). Overflow evicts oldest and counts the eviction.
    pub capacity: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            enabled: false,
            capacity: DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

impl JournalConfig {
    /// An enabled configuration at the default capacity.
    pub fn enabled() -> Self {
        JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        }
    }
}

/// Whether the `DEEPCONTEXT_JOURNAL` environment override asks for the
/// incident journal (`1` / `true` / `on`, case-insensitive). Unset or
/// anything else means off — the journal is strictly opt-in.
pub fn default_journal_enabled() -> bool {
    std::env::var("DEEPCONTEXT_JOURNAL")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false)
}

/// The default journal configuration, honouring the
/// `DEEPCONTEXT_JOURNAL` environment override CI uses to run the whole
/// suite with the journal off (unset, the default) and on (`=1`).
pub fn default_journal_config() -> JournalConfig {
    JournalConfig {
        enabled: default_journal_enabled(),
        ..JournalConfig::default()
    }
}

/// One event in the live ring. Site names are interned [`Sym`] handles;
/// snapshotting resolves them into a compact per-journal name table.
#[derive(Debug, Clone)]
struct Event {
    seq: u64,
    ts_ns: u64,
    severity: JournalSeverity,
    site: Sym,
    fields: Vec<(String, String)>,
}

/// The bounded, lock-striped incident ring (see the [module
/// docs](self)). Shared via `Arc` between the sink, the profile store
/// and the profiler; disabled journaling is the absence of the `Arc`.
#[derive(Debug)]
pub struct Journal {
    interner: Arc<Interner>,
    stripes: Vec<Mutex<VecDeque<Event>>>,
    per_stripe: usize,
    seq: AtomicU64,
    /// The conservation counters — the `deepcontext_journal_*` series
    /// themselves when a telemetry session is attached, free-standing
    /// otherwise.
    recorded: Arc<Counter>,
    evicted: Arc<Counter>,
    /// Clock fallback when no telemetry session is attached.
    epoch: Instant,
    /// The attached session, whose epoch journal timestamps then share
    /// with the self-timeline.
    telemetry: Option<Telemetry>,
}

impl Journal {
    /// A fresh ring bounded at `capacity` events (rounded up to a
    /// stripe multiple), interning site names through `interner`.
    pub fn new(interner: Arc<Interner>, capacity: usize) -> Journal {
        // Pre-intern the built-in vocabulary: symbol tables captured
        // downstream (the timeline's name table is an interner
        // snapshot) must not depend on which sites this run fired.
        for site in journal_sites::ALL {
            interner.intern(site);
        }
        let per_stripe = capacity.div_ceil(STRIPES).max(1);
        Journal {
            interner,
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_stripe.min(64))))
                .collect(),
            per_stripe,
            seq: AtomicU64::new(0),
            recorded: Arc::default(),
            evicted: Arc::default(),
            epoch: Instant::now(),
            telemetry: None,
        }
    }

    /// Attaches a telemetry session to a fresh journal: its
    /// conservation counters become the session's
    /// `deepcontext_journal_*` series and it adopts the session's epoch,
    /// so journal timestamps and self-timeline intervals share one time
    /// domain.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Journal {
        self.recorded = telemetry.counter(names::JOURNAL_RECORDED, &[]);
        self.evicted = telemetry.counter(names::JOURNAL_EVICTED, &[]);
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Builds a shared handle from a config: `Some` when enabled,
    /// `None` otherwise — callers store the `Option` and branch on it.
    pub fn from_config(
        config: &JournalConfig,
        interner: &Arc<Interner>,
        telemetry: Option<&Telemetry>,
    ) -> Option<Arc<Journal>> {
        config.enabled.then(|| {
            let journal = Journal::new(Arc::clone(interner), config.capacity);
            Arc::new(match telemetry {
                Some(t) => journal.with_telemetry(t),
                None => journal,
            })
        })
    }

    /// Nanoseconds since the journal's epoch — the telemetry session's
    /// epoch when one is attached (so incidents line up with
    /// self-timeline intervals), the journal's own otherwise.
    pub fn now_ns(&self) -> u64 {
        match &self.telemetry {
            Some(t) => t.now_ns(),
            None => u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Records one lifecycle event: assigns the next global sequence
    /// number, stamps the monotonic clock, interns the site name and
    /// appends to the ring (evicting the stripe's oldest event when
    /// full). Striping is round-robin by sequence number, so the kept
    /// set under overflow is within one stripe's grain of the globally
    /// newest events.
    pub fn record(&self, severity: JournalSeverity, site: &str, fields: &[(&str, &str)]) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Event {
            seq,
            ts_ns: self.now_ns(),
            severity,
            site: self.interner.intern(site),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        };
        let mut stripe = self.stripes[(seq as usize) % STRIPES].lock();
        if stripe.len() >= self.per_stripe {
            stripe.pop_front();
            self.evicted.inc();
        }
        stripe.push_back(event);
        drop(stripe);
        self.recorded.inc();
    }

    /// Events recorded over the journal's lifetime (kept + evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Events evicted by ring overflow.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Events currently held in the ring.
    pub fn kept(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Flattens the ring into its persistent form: kept events in seq
    /// order, site names resolved into a compact table, and the
    /// conservation counters (`recorded == kept + evicted`).
    pub fn snapshot(&self) -> StoredJournal {
        let mut events: Vec<Event> = Vec::with_capacity(self.kept());
        // `recorded` is read *before* the stripes are drained: recording
        // appends to the stripe first and counts after, so any event the
        // drain sees beyond the count is newer than the snapshot point
        // and is truncated away. `evicted` is then *derived* from what
        // was actually kept rather than read from its counter, so the
        // conservation invariant holds exactly even when a racing
        // recorder evicts an already-counted event mid-snapshot.
        let recorded = self.recorded();
        for stripe in &self.stripes {
            events.extend(stripe.lock().iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        events.truncate(recorded as usize);
        let evicted = recorded - events.len() as u64;
        let mut names: Vec<Arc<str>> = Vec::new();
        let mut index_of = std::collections::HashMap::new();
        let events = events
            .into_iter()
            .map(|e| {
                let site = *index_of.entry(e.site).or_insert_with(|| {
                    names.push(self.interner.resolve(e.site));
                    (names.len() - 1) as u32
                });
                StoredJournalEvent {
                    seq: e.seq,
                    ts_ns: e.ts_ns,
                    severity: e.severity as u8,
                    site,
                    fields: e.fields,
                }
            })
            .collect();
        StoredJournal {
            events,
            names,
            recorded,
            evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(capacity: usize) -> Journal {
        Journal::new(Interner::new(), capacity)
    }

    #[test]
    fn events_carry_sites_fields_and_monotonic_order() {
        let j = journal(64);
        j.record(
            JournalSeverity::Warn,
            journal_sites::STORE_RETRY,
            &[("attempt", "3")],
        );
        j.record(JournalSeverity::Info, journal_sites::PIPELINE_EPOCH, &[]);
        let snap = j.snapshot();
        assert_eq!(snap.event_count(), 2);
        assert_eq!(snap.recorded, 2);
        assert_eq!(snap.evicted, 0);
        assert_eq!(snap.events[0].seq, 1);
        assert_eq!(snap.events[1].seq, 2);
        assert!(snap.events[1].ts_ns >= snap.events[0].ts_ns);
        assert_eq!(
            snap.site_name(&snap.events[0]),
            Some(journal_sites::STORE_RETRY)
        );
        assert_eq!(snap.events[0].severity, 1);
        assert_eq!(
            snap.events[0].fields,
            vec![("attempt".to_string(), "3".to_string())]
        );
        assert!(snap.has_site(journal_sites::PIPELINE_EPOCH));
    }

    #[test]
    fn overflow_evicts_oldest_and_conserves_counts() {
        // Capacity rounds up to a stripe multiple; record far past it.
        let j = journal(16);
        for i in 0..1000u64 {
            j.record(
                JournalSeverity::Info,
                journal_sites::PIPELINE_EPOCH,
                &[("i", &i.to_string())],
            );
        }
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 1000);
        assert!(snap.evicted > 0, "the ring must have overflowed");
        assert_eq!(
            snap.recorded,
            snap.event_count() as u64 + snap.evicted,
            "conservation: recorded == kept + evicted"
        );
        assert_eq!(j.kept() as u64 + j.evicted(), j.recorded());
        // The kept tail is the newest events, in seq order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq-sorted");
        assert_eq!(*seqs.last().unwrap(), 1000, "newest event kept");
    }

    #[test]
    fn concurrent_recorders_conserve_and_keep_distinct_seqs() {
        let j = Arc::new(journal(32));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let j = Arc::clone(&j);
                scope.spawn(move || {
                    for _ in 0..500 {
                        j.record(
                            JournalSeverity::Info,
                            journal_sites::PIPELINE_EPOCH,
                            &[("t", &t.to_string())],
                        );
                    }
                });
            }
        });
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 2000);
        assert_eq!(snap.recorded, snap.event_count() as u64 + snap.evicted);
        let mut seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        let before = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), before, "sequence numbers are unique");
    }

    #[test]
    fn telemetry_mirror_counts_and_shares_the_clock() {
        let t = Telemetry::new();
        let j = journal(8).with_telemetry(&t);
        for _ in 0..20 {
            j.record(JournalSeverity::Error, journal_sites::FAILPOINT_FIRE, &[]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter_total(names::JOURNAL_RECORDED), 20);
        assert_eq!(
            snap.counter_total(names::JOURNAL_EVICTED),
            j.evicted(),
            "mirror tracks the ring's eviction count"
        );
        assert!(j.evicted() > 0);
        // The shared clock: journal time is telemetry time.
        let a = t.now_ns();
        let b = j.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn from_config_gates_construction() {
        let interner = Interner::new();
        assert!(Journal::from_config(&JournalConfig::default(), &interner, None).is_none());
        let j = Journal::from_config(&JournalConfig::enabled(), &interner, None)
            .expect("enabled config builds");
        j.record(JournalSeverity::Info, journal_sites::PIPELINE_EPOCH, &[]);
        assert_eq!(j.recorded(), 1);
    }

    #[test]
    fn snapshot_jsonl_round_trips_site_names() {
        let j = journal(64);
        j.record(
            JournalSeverity::Warn,
            journal_sites::STORE_RETRY,
            &[("op", "save"), ("attempt", "1")],
        );
        let jsonl = j.snapshot().to_jsonl();
        assert!(jsonl.contains("\"site\":\"store.retry\""));
        assert!(jsonl.contains("\"attempt\":\"1\""));
        assert_eq!(jsonl.lines().count(), 1);
    }
}
