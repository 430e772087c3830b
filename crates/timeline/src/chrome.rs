//! Chrome Trace Format export.
//!
//! Produces the JSON object format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): one *process* per device, one
//! *thread* per stream — so every `(device, stream)` track renders as
//! its own swim-lane — with each interval emitted as a complete (`"X"`)
//! event. Timestamps and durations are microseconds per the format, at
//! nanosecond precision (fractional values are allowed and preserved).
//! When the caller passes the CCT the snapshot was resolved against,
//! every slice carries its full calling context as an argument, so
//! clicking a kernel in the trace viewer shows the Python → operator →
//! kernel path that launched it.
//!
//! [`to_chrome_trace_with_journal`] additionally merges the run's
//! incident journal into the `profiler (self)` process as instant
//! (`"i"`) events on a dedicated `incidents` lane — supervisor
//! transitions, quarantines and drop storms render as markers right
//! above the flush/fold/worker swim-lanes they explain.

use std::fmt::Write as _;

use deepcontext_core::json::escape_into;
use deepcontext_core::{
    severity_label, CallingContextTree, FxHashMap, StoredJournal, Sym, TrackKey,
};

use crate::snapshot::TimelineSnapshot;

/// The `tid` of the incident-journal lane inside the `profiler (self)`
/// process — above the reserved self streams (workers count from 0,
/// flush/fold are 1000/1001) so it never collides with an interval
/// track.
const INCIDENT_TID: u32 = 1_002;

/// Human-readable lane name of a self-timeline stream (the profiler's
/// reserved [`TrackKey::SELF_DEVICE`] tracks).
fn self_stream_name(stream: u32) -> String {
    match stream {
        TrackKey::SELF_STREAM_FLUSH => "producer flush".to_string(),
        TrackKey::SELF_STREAM_FOLD => "snapshot fold".to_string(),
        worker => format!("worker {worker}"),
    }
}

/// Nanoseconds rendered as a microsecond JSON number with full
/// nanosecond precision and no float rounding (`1234` → `1.234`).
fn us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        whole.to_string()
    } else {
        format!("{whole}.{frac:03}")
    }
}

/// Renders `snapshot` as a Chrome Trace Format JSON object (see the
/// [module docs](self)). The result is self-contained: load it directly
/// in `chrome://tracing` or Perfetto.
pub fn to_chrome_trace(snapshot: &TimelineSnapshot, cct: Option<&CallingContextTree>) -> String {
    to_chrome_trace_with_journal(snapshot, cct, None)
}

/// [`to_chrome_trace`] plus the incident journal: each journaled event
/// becomes a process-scoped instant (`"ph":"i"`, `"s":"p"`) on the
/// `incidents` lane of the `profiler (self)` process, named by its site
/// and carrying its severity, sequence number and key/value fields as
/// arguments. The self process is emitted even when the snapshot holds
/// no self intervals (telemetry off, journal on), so the markers always
/// have a named home.
pub fn to_chrome_trace_with_journal(
    snapshot: &TimelineSnapshot,
    cct: Option<&CallingContextTree>,
    journal: Option<&StoredJournal>,
) -> String {
    let journal = journal.filter(|j| !j.is_empty());
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |event: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&event);
    };

    // Metadata: name one process per device, one thread per stream, and
    // keep lanes in stream order. The reserved self-telemetry device
    // renders as the profiler's own process (it sorts last — after every
    // real GPU — because it is `u32::MAX`); a journal forces it into
    // existence even without self intervals.
    let mut devices = snapshot.devices();
    if journal.is_some() && !devices.contains(&TrackKey::SELF_DEVICE) {
        devices.push(TrackKey::SELF_DEVICE);
    }
    for device in devices {
        let name = if device == TrackKey::SELF_DEVICE {
            "profiler (self)".to_string()
        } else {
            format!("GPU {device}")
        };
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{device},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
    }
    for track in snapshot.tracks() {
        let key = track.key();
        let lane = if key.is_self() {
            self_stream_name(key.stream)
        } else {
            format!("stream {}", key.stream)
        };
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{lane}\"}}}}",
                key.device, key.stream
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                key.device, key.stream, key.stream
            ),
            &mut out,
        );
    }

    // One complete event per interval, in track order (already
    // start-sorted within each track). Interval names are interned
    // `Sym`s: each distinct symbol is resolved and escaped once —
    // against the snapshot's captured symbol table first, the CCT's
    // interner as fallback, `sym#N` as the last resort — and every
    // further interval carrying it reuses the memoized escape.
    let interner = cct.map(|c| c.interner());
    let mut escaped_names: FxHashMap<Sym, String> = FxHashMap::default();
    for track in snapshot.tracks() {
        let key = track.key();
        for interval in track.intervals() {
            let name = escaped_names.entry(interval.name).or_insert_with(|| {
                let mut escaped = String::new();
                match (snapshot.name_of(interval.name), &interner) {
                    (Some(name), _) => escape_into(&mut escaped, name),
                    (None, Some(interner)) if (interval.name.index() as usize) < interner.len() => {
                        escape_into(&mut escaped, &interner.resolve(interval.name));
                    }
                    _ => {
                        let _ = write!(escaped, "{}", interval.name);
                    }
                }
                escaped
            });
            let mut event = String::new();
            event.push_str("{\"ph\":\"X\",\"pid\":");
            let _ = write!(event, "{}", key.device);
            event.push_str(",\"tid\":");
            let _ = write!(event, "{}", key.stream);
            event.push_str(",\"name\":\"");
            event.push_str(name);
            event.push_str("\",\"cat\":\"");
            event.push_str(interval.kind.name());
            event.push_str("\",\"ts\":");
            event.push_str(&us(interval.start.as_nanos()));
            event.push_str(",\"dur\":");
            event.push_str(&us(interval.duration().as_nanos()));
            event.push_str(",\"args\":{\"correlation\":");
            let _ = write!(event, "{}", interval.correlation);
            if let (Some(cct), Some(interner), Some(node)) =
                (cct, interner.as_ref(), interval.context)
            {
                if node.index() < cct.node_count() {
                    let path = cct
                        .frames_to_root(node)
                        .frames()
                        .iter()
                        .map(|f| f.label(interner))
                        .collect::<Vec<_>>()
                        .join(" > ");
                    event.push_str(",\"context\":\"");
                    escape_into(&mut event, &path);
                    event.push('"');
                }
            }
            event.push_str("}}");
            push(event, &mut out);
        }
    }

    // Incident markers: one instant per journaled event, in seq order,
    // on their own named lane of the self process.
    if let Some(journal) = journal {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{INCIDENT_TID},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"incidents\"}}}}",
                TrackKey::SELF_DEVICE
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{INCIDENT_TID},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{INCIDENT_TID}}}}}",
                TrackKey::SELF_DEVICE
            ),
            &mut out,
        );
        for record in &journal.events {
            let mut event = String::new();
            event.push_str("{\"ph\":\"i\",\"pid\":");
            let _ = write!(event, "{}", TrackKey::SELF_DEVICE);
            event.push_str(",\"tid\":");
            let _ = write!(event, "{INCIDENT_TID}");
            event.push_str(",\"name\":\"");
            escape_into(&mut event, journal.site_name(record).unwrap_or("<unknown>"));
            event.push_str("\",\"cat\":\"incident\",\"s\":\"p\",\"ts\":");
            event.push_str(&us(record.ts_ns));
            event.push_str(",\"args\":{\"seq\":");
            let _ = write!(event, "{}", record.seq);
            event.push_str(",\"severity\":\"");
            event.push_str(severity_label(record.severity));
            event.push('"');
            for (key, value) in &record.fields {
                event.push_str(",\"");
                escape_into(&mut event, key);
                event.push_str("\":\"");
                escape_into(&mut event, value);
                event.push('"');
            }
            event.push_str("}}");
            push(event, &mut out);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::TimelineCounters;
    use deepcontext_core::{Interner, Interval, IntervalKind, TimeNs, TrackKey};

    #[test]
    fn escapes_and_fractional_microseconds() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(us(0), "0");
        assert_eq!(us(1_500), "1.500");
        assert_eq!(us(42), "0.042");
        assert_eq!(us(2_000), "2");
    }

    fn memcpy_snapshot() -> (std::sync::Arc<Interner>, TimelineSnapshot) {
        let interner = Interner::new();
        let snapshot = TimelineSnapshot::from_intervals(
            vec![Interval {
                track: TrackKey {
                    device: 1,
                    stream: 3,
                },
                start: TimeNs(1_000),
                end: TimeNs(3_500),
                kind: IntervalKind::Memcpy,
                name: interner.intern("memcpy"),
                correlation: 9,
                context: None,
            }],
            TimelineCounters {
                recorded: 1,
                dropped: 0,
            },
        );
        (interner, snapshot)
    }

    #[test]
    fn trace_contains_metadata_and_slices() {
        let (interner, snapshot) = memcpy_snapshot();
        let snapshot = snapshot.with_names(interner.snapshot());
        let json = to_chrome_trace(&snapshot, None);
        assert!(json.contains("\"name\":\"GPU 1\""));
        assert!(json.contains("\"name\":\"stream 3\""));
        assert!(json.contains("\"name\":\"memcpy\""));
        assert!(json.contains("\"cat\":\"memcpy\""));
        assert!(json.contains("\"ts\":1,\"dur\":2.500"));
        assert!(json.contains("\"correlation\":9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn journal_events_render_as_self_process_instants() {
        use deepcontext_core::{StoredJournal, StoredJournalEvent};
        let journal = StoredJournal {
            events: vec![
                StoredJournalEvent {
                    seq: 1,
                    ts_ns: 1_500,
                    severity: 1,
                    site: 0,
                    fields: vec![
                        ("from".into(), "Healthy".into()),
                        ("to".into(), "Degraded".into()),
                    ],
                },
                StoredJournalEvent {
                    seq: 2,
                    ts_ns: 2_000,
                    severity: 2,
                    site: 1,
                    fields: vec![("shard".into(), "3".into())],
                },
            ],
            names: vec![
                std::sync::Arc::from("supervisor.transition"),
                std::sync::Arc::from("shard.quarantine"),
            ],
            recorded: 2,
            evicted: 0,
        };

        // No self intervals in the snapshot: the journal alone must
        // force the self process + incidents lane into existence.
        let (interner, snapshot) = memcpy_snapshot();
        let snapshot = snapshot.with_names(interner.snapshot());
        let json = to_chrome_trace_with_journal(&snapshot, None, Some(&journal));
        assert!(json.contains("\"name\":\"profiler (self)\""));
        assert!(json.contains("\"name\":\"incidents\""));
        assert!(json.contains(
            "\"ph\":\"i\",\"pid\":4294967295,\"tid\":1002,\"name\":\"supervisor.transition\""
        ));
        assert!(json.contains("\"s\":\"p\",\"ts\":1.500"));
        assert!(json.contains("\"severity\":\"warn\",\"from\":\"Healthy\",\"to\":\"Degraded\""));
        assert!(json.contains("\"name\":\"shard.quarantine\""));
        assert!(json.contains("\"severity\":\"error\",\"shard\":\"3\""));
        // The workload slice is still there, and the JSON stays balanced.
        assert!(json.contains("\"name\":\"memcpy\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        // An empty journal adds nothing — the export equals the plain one.
        let empty = StoredJournal::default();
        assert_eq!(
            to_chrome_trace_with_journal(&snapshot, None, Some(&empty)),
            to_chrome_trace(&snapshot, None)
        );
    }

    #[test]
    fn unresolvable_names_render_as_symbol_ids() {
        // No names table and no CCT: the trace stays valid, the name
        // falls back to the symbol's display form.
        let (_interner, snapshot) = memcpy_snapshot();
        let json = to_chrome_trace(&snapshot, None);
        assert!(json.contains("\"name\":\"sym#0\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
