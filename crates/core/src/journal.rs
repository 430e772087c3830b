//! The incident journal's persistent form.
//!
//! Earlier builds could keep a live incident journal — a bounded ring
//! of structured lifecycle events — and [`ProfileDb`](crate::ProfileDb)
//! embedded its tail, so a saved run carried its own incident history:
//! flush boundaries, store retries, failpoint fires and, in files saved
//! while ingestion had queues and workers, supervisor transitions, shard
//! quarantines and drop storms (sites are stored as strings, so those
//! still load). Nothing records a journal any more, but profiles on disk
//! must keep loading: this is their stored shape, next to
//! [`StoredTimeline`](crate::StoredTimeline). The container reads and
//! re-writes it, the Chrome exporter renders it and the analyzer's
//! `IncidentRule` cites it.

use std::sync::Arc;

use crate::json::escape_into;

/// Well-known journal site names, so stored profiles and the analyzer
/// rules that read them agree on spelling.
pub mod journal_sites {
    /// `ProfileStore` retry-with-backoff attempt (fields: `op`,
    /// `attempt`, `error`).
    pub const STORE_RETRY: &str = "store.retry";
    /// A fault-injection point fired (fields: `name`, optional `at`).
    pub const FAILPOINT_FIRE: &str = "failpoint.fire";
}

/// One journaled lifecycle event in its persistent form: the sequence
/// number and monotonic timestamp it was recorded with, its severity,
/// the site name (an index into [`StoredJournal::names`]) and the
/// structured key/value fields the site attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredJournalEvent {
    /// Global sequence number: the total order events were recorded in,
    /// across every ring stripe.
    pub seq: u64,
    /// Nanoseconds since the journal's epoch (the self-timeline's epoch
    /// when the run recorded both, so incidents line up with its
    /// intervals).
    pub ts_ns: u64,
    /// Severity: 0 = info, 1 = warning, 2 = error (see
    /// [`severity_label`]).
    pub severity: u8,
    /// Site name, as an index into [`StoredJournal::names`].
    pub site: u32,
    /// Structured evidence fields, in the order the site recorded them.
    pub fields: Vec<(String, String)>,
}

/// Renders a [`StoredJournalEvent::severity`] byte as its stable label.
/// Unknown bytes render as `"info"` — a forward-compatibility choice,
/// not an error: an old reader must not refuse a newer run.
pub fn severity_label(severity: u8) -> &'static str {
    match severity {
        1 => "warn",
        2 => "error",
        _ => "info",
    }
}

/// A journal in its persistent form: the kept event tail (seq-ordered),
/// the site-name table events resolve against, and the conservation
/// counters (`recorded == kept + evicted` — when `evicted` is non-zero
/// the stored tail is a trailing window of the run's incidents, not the
/// whole history).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoredJournal {
    /// Kept events, ascending by `seq`.
    pub events: Vec<StoredJournalEvent>,
    /// The site-name table: `StoredJournalEvent::site` indexes into
    /// this vector. Out-of-range indices simply fail to resolve.
    pub names: Vec<Arc<str>>,
    /// Events recorded over the run (kept + evicted).
    pub recorded: u64,
    /// Events evicted by ring overflow.
    pub evicted: u64,
}

impl StoredJournal {
    /// Resolves an event's site name against the captured name table.
    pub fn site_name(&self, event: &StoredJournalEvent) -> Option<&str> {
        self.names.get(event.site as usize).map(|s| s.as_ref())
    }

    /// Kept events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any kept event was recorded at the named site — the
    /// incident-kind predicate store listings filter on.
    pub fn has_site(&self, site: &str) -> bool {
        self.events.iter().any(|e| self.site_name(e) == Some(site))
    }

    /// Kept events recorded at the named site, in seq order.
    pub fn events_at<'a>(&'a self, site: &'a str) -> impl Iterator<Item = &'a StoredJournalEvent> {
        self.events
            .iter()
            .filter(move |e| self.site_name(e) == Some(site))
    }

    /// The distinct site names of the kept events, sorted — the
    /// `journal.sites` metadata stamp header-only listings filter on.
    pub fn site_summary(&self) -> Vec<&str> {
        let mut sites: Vec<&str> = self
            .events
            .iter()
            .filter_map(|e| self.site_name(e))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// Renders the kept events as JSON Lines: one object per event with
    /// `seq`, `ts_ns`, `severity`, `site` and (when present) `fields`,
    /// in seq order. Every line is a complete JSON document, so the
    /// output streams into `jq`/log pipelines without a wrapping array.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&format!(
                "{{\"seq\":{},\"ts_ns\":{},\"severity\":\"{}\",\"site\":\"",
                event.seq,
                event.ts_ns,
                severity_label(event.severity),
            ));
            escape_into(&mut out, self.site_name(event).unwrap_or("<unknown>"));
            out.push('"');
            if !event.fields.is_empty() {
                out.push_str(",\"fields\":{");
                for (idx, (key, value)) in event.fields.iter().enumerate() {
                    if idx > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(&mut out, key);
                    out.push_str("\":\"");
                    escape_into(&mut out, value);
                    out.push('"');
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> StoredJournal {
        StoredJournal {
            events: vec![
                StoredJournalEvent {
                    seq: 1,
                    ts_ns: 10,
                    severity: 1,
                    site: 0,
                    fields: vec![("shard".into(), "0".into())],
                },
                StoredJournalEvent {
                    seq: 2,
                    ts_ns: 20,
                    severity: 2,
                    site: 1,
                    fields: Vec::new(),
                },
                StoredJournalEvent {
                    seq: 3,
                    ts_ns: 30,
                    severity: 0,
                    site: 0,
                    fields: Vec::new(),
                },
            ],
            names: vec![Arc::from("shard.quarantine"), Arc::from("store.retry")],
            recorded: 5,
            evicted: 2,
        }
    }

    #[test]
    fn site_resolution_and_filters() {
        let j = journal();
        assert_eq!(j.event_count(), 3);
        assert!(!j.is_empty());
        assert!(j.has_site("shard.quarantine"));
        assert!(j.has_site("store.retry"));
        assert!(!j.has_site("supervisor.transition"));
        assert_eq!(j.events_at("shard.quarantine").count(), 2);
        assert_eq!(j.site_summary(), vec!["shard.quarantine", "store.retry"]);
        // Conservation: what the ring kept plus what it evicted is what
        // was recorded.
        assert_eq!(j.recorded, j.event_count() as u64 + j.evicted);
    }

    #[test]
    fn out_of_range_site_indices_fail_softly() {
        let mut j = journal();
        j.events[0].site = 99;
        assert_eq!(j.site_name(&j.events[0]), None);
        assert_eq!(j.events_at("shard.quarantine").count(), 1);
    }

    #[test]
    fn severity_labels_are_stable_and_forward_compatible() {
        assert_eq!(severity_label(0), "info");
        assert_eq!(severity_label(1), "warn");
        assert_eq!(severity_label(2), "error");
        assert_eq!(severity_label(200), "info");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_event_with_escaping() {
        let mut j = journal();
        j.events[1].fields = vec![("error".into(), "disk \"full\"\n".into())];
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":1,\"ts_ns\":10,\"severity\":\"warn\",\"site\":\"shard.quarantine\",\
             \"fields\":{\"shard\":\"0\"}}"
        );
        assert!(
            lines[1].contains("\\\"full\\\"\\n"),
            "escaped: {}",
            lines[1]
        );
        // Fieldless events omit the fields object entirely.
        assert!(!lines[2].contains("fields"));
    }
}
