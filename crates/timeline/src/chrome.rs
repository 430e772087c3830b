//! Chrome Trace Format export.
//!
//! Produces the JSON object format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): one *process* per device, one
//! *thread* per stream — so every `(device, stream)` track renders as
//! its own swim-lane — with each interval emitted as a complete (`"X"`)
//! event. Timestamps and durations are microseconds per the format, at
//! nanosecond precision (fractional values are allowed and preserved).
//!
//! When the caller passes the CCT the snapshot was resolved against,
//! the trace names each calling context once, in the format's own
//! dictionary for it: a top-level `stackFrames` object holds one entry
//! per CCT node some slice reaches, plus that node's ancestors, keyed by
//! the node's index — `{"name": <frame label>, "parent": "<id>"}`, with
//! no `parent` under the synthetic root — and each slice cites its
//! context with `"sf": <id>`. Following the chain from a slice's `sf`
//! up and joining the names root-first with `" > "` spells the
//! Python → operator → kernel path that launched it.
//! `chrome://tracing` shows the chain as the selected slice's "Start
//! Stack Trace"; Perfetto's JSON importer is not documented to read
//! `stackFrames`, so there the slice shows only its name and
//! correlation id (every path is still in the stored profile and its
//! CCT views). A slice whose context is unresolved, outside the tree or
//! the root itself gets no `sf`.
//!
//! [`to_chrome_trace_with_journal`] additionally merges a stored run's
//! incident journal into the `profiler (self)` process as instant
//! (`"i"`) events on a dedicated `incidents` lane — flush boundaries,
//! store retries and failpoint fires render as markers right above the
//! fold swim-lane. Only profiles saved by earlier builds carry a journal
//! or self tracks; both still render.
//!
//! The writer streams: every event is appended straight into one output
//! buffer sized before the first byte is written, and whatever repeats
//! is rendered once per distinct thing — the event prefix once per
//! track, the escaped name once per [`Sym`], a frame label once per
//! trace. A run has tens of contexts and hundreds of thousands of
//! intervals, so per interval the writer copies bytes and prints at
//! most four integers through [`push_u64`]; it neither walks the tree
//! nor allocates.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use deepcontext_core::json::{escape_into, push_u64};
use deepcontext_core::{
    severity_label, CallingContextTree, FxHashMap, Interner, NodeId, StoredJournal, Sym, TrackKey,
};

use crate::snapshot::TimelineSnapshot;

/// The `tid` of the incident-journal lane inside the `profiler (self)`
/// process — right after the fold lane (1001), the last self stream
/// any build recorded, so it sorts below it and never shares its track.
const INCIDENT_TID: u32 = 1_002;

/// Upper bound on the bytes of one interval event outside its track
/// prefix, name and `sf`: separator, category, two microsecond
/// timestamps, the correlation id and the punctuation between them.
const EVENT_TAIL_MAX: usize = 128;

/// Upper bound on the bytes of one event's `,"sf":<id>`.
const SF_MAX: usize = 16;

/// Upper bound on the bytes of one metadata event.
const META_MAX: usize = 128;

/// Appends nanoseconds as a microsecond JSON number with full
/// nanosecond precision and no float rounding (`1234` → `1.234`).
fn push_us(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    let frac = (ns % 1_000) as u32;
    if frac != 0 {
        out.push('.');
        for digit in [frac / 100, frac / 10 % 10, frac % 10] {
            out.push(char::from(b'0' + digit as u8));
        }
    }
}

/// The `traceEvents` array under construction.
struct Events {
    out: String,
    any: bool,
}

impl Events {
    /// Starts the next event — the comma after the previous one, the
    /// line break and the indent — and hands out the buffer to write it.
    fn begin(&mut self) -> &mut String {
        self.out.push_str(if self.any { ",\n  " } else { "\n  " });
        self.any = true;
        &mut self.out
    }

    /// One metadata (`"M"`) event; `args` is the inside of its `args`
    /// object. There are a few per track, so these go through `fmt`.
    fn meta(&mut self, pid: u32, tid: u32, what: &str, args: fmt::Arguments<'_>) {
        let _ = write!(
            self.begin(),
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\"args\":{{{args}}}}}"
        );
    }

    /// Names one lane and pins its sort position to its `tid`.
    fn lane(&mut self, pid: u32, tid: u32, name: &str) {
        self.meta(pid, tid, "thread_name", format_args!("\"name\":\"{name}\""));
        self.meta(
            pid,
            tid,
            "thread_sort_index",
            format_args!("\"sort_index\":{tid}"),
        );
    }
}

/// A [`fmt::Write`] that escapes whatever is written through it into a
/// JSON string's contents.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// The per-`Sym` names of one export, each rendered on first use, and
/// the CCT nodes its `stackFrames` dictionary names.
struct Labels<'a> {
    snapshot: &'a TimelineSnapshot,
    cct: Option<(&'a CallingContextTree, Arc<Interner>)>,
    /// Escaped interval names.
    names: FxHashMap<Sym, String>,
    /// Whether the dictionary names this node — some interval's context,
    /// or once [`stack_frames`](Self::stack_frames) has closed the set,
    /// an ancestor of one — indexed by node; sized to the tree, so an id
    /// outside it has no slot and no `sf`.
    reached: Vec<bool>,
}

impl<'a> Labels<'a> {
    fn new(snapshot: &'a TimelineSnapshot, cct: Option<&'a CallingContextTree>) -> Self {
        Labels {
            snapshot,
            cct: cct.map(|cct| (cct, cct.interner())),
            names: FxHashMap::default(),
            reached: vec![false; cct.map_or(0, CallingContextTree::node_count)],
        }
    }

    /// The escaped display name of `sym`: resolved against the
    /// snapshot's captured symbol table first, the CCT's interner as
    /// fallback, `sym#N` as the last resort.
    fn name(&mut self, sym: Sym) -> &str {
        let (snapshot, cct) = (self.snapshot, &self.cct);
        self.names.entry(sym).or_insert_with(|| {
            let mut escaped = String::new();
            match (snapshot.name_of(sym), cct) {
                (Some(name), _) => escape_into(&mut escaped, name),
                (None, Some((_, interner))) if (sym.index() as usize) < interner.len() => {
                    escape_into(&mut escaped, &interner.resolve(sym));
                }
                _ => {
                    let _ = write!(escaped, "{sym}");
                }
            }
            escaped
        })
    }

    /// The `sf` of an interval attributed to `node`, which marks the
    /// node reached; `None` without a tree, without a context, for an id
    /// the tree does not hold, or for the root (its path is empty).
    fn frame(&mut self, node: Option<NodeId>) -> Option<u64> {
        let node = node.filter(|&node| node != NodeId::ROOT)?;
        *self.reached.get_mut(node.index())? = true;
        Some(node.index() as u64)
    }

    /// The `,"stackFrames":{…}` member naming every reached node and its
    /// ancestors, in index order; empty without a tree.
    fn stack_frames(&mut self) -> String {
        let Some((cct, interner)) = &self.cct else {
            return String::new();
        };
        // Close the reached set under `parent`. A walk stops at a marked
        // node: its ancestors are marked already, or will be when the
        // loop gets to it.
        for index in 0..self.reached.len() {
            if !self.reached[index] {
                continue;
            }
            let mut up = cct.node(NodeId::from_index(index as u32)).parent();
            while let Some(node) = up.filter(|&node| node != NodeId::ROOT) {
                if std::mem::replace(&mut self.reached[node.index()], true) {
                    break;
                }
                up = cct.node(node).parent();
            }
        }
        let mut out = String::from(",\"stackFrames\":{");
        let nodes = self
            .reached
            .iter()
            .enumerate()
            .filter(|(_, &reached)| reached);
        for (n, (index, _)) in nodes.enumerate() {
            out.push_str(if n == 0 { "\n  \"" } else { ",\n  \"" });
            push_u64(&mut out, index as u64);
            out.push_str("\":{\"name\":\"");
            let node = cct.node(NodeId::from_index(index as u32));
            let _ = node.frame().write_label(&mut Escaped(&mut out), interner);
            out.push('"');
            if let Some(parent) = node.parent().filter(|&parent| parent != NodeId::ROOT) {
                out.push_str(",\"parent\":\"");
                push_u64(&mut out, parent.index() as u64);
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("\n}");
        out
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
/// no self intervals, so the markers always have a named home.
pub fn to_chrome_trace_with_journal(
    snapshot: &TimelineSnapshot,
    cct: Option<&CallingContextTree>,
    journal: Option<&StoredJournal>,
) -> String {
    let journal = journal.filter(|j| !j.is_empty());
    // The reserved self-timeline device renders as the profiler's own
    // process (it sorts last — after every real GPU — because it is
    // `u32::MAX`); a journal forces it into existence even without self
    // intervals.
    let mut devices = snapshot.devices();
    if journal.is_some() && !devices.contains(&TrackKey::SELF_DEVICE) {
        devices.push(TrackKey::SELF_DEVICE);
    }

    // Size the buffer before writing: the first pass renders every
    // distinct name (the second finds them rendered), marks every
    // reached context and adds up an upper bound, so the output — tens
    // of megabytes for a full ring set — is allocated once and never
    // moved.
    let mut labels = Labels::new(snapshot, cct);
    let mut prefixes = Vec::with_capacity(snapshot.tracks().len());
    let mut size = (devices.len() + 2 * snapshot.tracks().len() + 4) * META_MAX;
    for track in snapshot.tracks() {
        let key = track.key();
        let mut prefix = String::from("{\"ph\":\"X\",\"pid\":");
        push_u64(&mut prefix, key.device.into());
        prefix.push_str(",\"tid\":");
        push_u64(&mut prefix, key.stream.into());
        prefix.push_str(",\"name\":\"");
        size += track.len() * (prefix.len() + EVENT_TAIL_MAX);
        for interval in track.intervals() {
            size += labels.name(interval.name).len();
            if labels.frame(interval.context).is_some() {
                size += SF_MAX;
            }
        }
        prefixes.push(prefix);
    }
    let stack_frames = labels.stack_frames();
    size += stack_frames.len();
    for record in journal.iter().flat_map(|j| &j.events) {
        // Worst case every byte escapes to `\u00XX`.
        let fields = record.fields.iter().map(|(k, v)| k.len() + v.len() + 6);
        let site = journal
            .and_then(|j| j.site_name(record))
            .map_or(0, str::len);
        size += 2 * META_MAX + 6 * (site + fields.sum::<usize>());
    }
    let mut events = Events {
        out: String::with_capacity(size),
        any: false,
    };
    events
        .out
        .push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

    // Metadata: name one process per device, one thread per stream, and
    // keep lanes in stream order.
    for device in devices {
        let name = match device {
            TrackKey::SELF_DEVICE => format_args!("\"name\":\"profiler (self)\""),
            _ => format_args!("\"name\":\"GPU {device}\""),
        };
        events.meta(device, 0, "process_name", name);
    }
    for track in snapshot.tracks() {
        let key = track.key();
        let lane = match key.stream {
            stream if !key.is_self() => format!("stream {stream}"),
            TrackKey::SELF_STREAM_FOLD => "snapshot fold".to_string(),
            stream => format!("self {stream}"),
        };
        events.lane(key.device, key.stream, &lane);
    }

    // One complete event per interval, in track order (already
    // start-sorted within each track).
    for (track, prefix) in snapshot.tracks().iter().zip(&prefixes) {
        for interval in track.intervals() {
            let out = events.begin();
            out.push_str(prefix);
            out.push_str(labels.name(interval.name));
            out.push_str("\",\"cat\":\"");
            out.push_str(interval.kind.name());
            out.push_str("\",\"ts\":");
            push_us(out, interval.start.as_nanos());
            out.push_str(",\"dur\":");
            push_us(out, interval.duration().as_nanos());
            if let Some(frame) = labels.frame(interval.context) {
                out.push_str(",\"sf\":");
                push_u64(out, frame);
            }
            out.push_str(",\"args\":{\"correlation\":");
            push_u64(out, interval.correlation);
            out.push_str("}}");
        }
    }

    // Incident markers: one instant per journaled event, in seq order,
    // on their own named lane of the self process.
    if let Some(journal) = journal {
        events.lane(TrackKey::SELF_DEVICE, INCIDENT_TID, "incidents");
        for record in &journal.events {
            let out = events.begin();
            out.push_str("{\"ph\":\"i\",\"pid\":");
            push_u64(out, TrackKey::SELF_DEVICE.into());
            out.push_str(",\"tid\":");
            push_u64(out, INCIDENT_TID.into());
            out.push_str(",\"name\":\"");
            escape_into(out, journal.site_name(record).unwrap_or("<unknown>"));
            out.push_str("\",\"cat\":\"incident\",\"s\":\"p\",\"ts\":");
            push_us(out, record.ts_ns);
            out.push_str(",\"args\":{\"seq\":");
            push_u64(out, record.seq);
            out.push_str(",\"severity\":\"");
            out.push_str(severity_label(record.severity));
            out.push('"');
            for (key, value) in &record.fields {
                out.push_str(",\"");
                escape_into(out, key);
                out.push_str("\":\"");
                escape_into(out, value);
                out.push('"');
            }
            out.push_str("}}");
        }
    }
    events.out.push_str("\n]");
    events.out.push_str(&stack_frames);
    events.out.push_str("}\n");
    events.out
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
        let us = |ns| {
            let mut s = String::new();
            push_us(&mut s, ns);
            s
        };
        assert_eq!(us(0), "0");
        assert_eq!(us(1_500), "1.500");
        assert_eq!(us(42), "0.042");
        assert_eq!(us(2_000), "2");
        assert_eq!(us(u64::MAX), "18446744073709551.615");
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
