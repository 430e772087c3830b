//! Persistent profile database.
//!
//! DeepContext aggregates online, so the on-disk profile is a compact
//! calling context tree rather than a trace. The format is a line-oriented
//! text format (version-tagged) with an interned string table followed by
//! nodes in topological order; it needs no external serialization crates.
//!
//! Version 2 extends the container beyond the tree: run metadata grows
//! host / model / config identity plus the run's wall-clock window, and
//! an optional timeline section persists the recorded intervals (with
//! their own captured symbol table and the recording counters) so a
//! run's timeline survives the profiler. Version 3 adds an optional
//! incident-journal section — the run's lifecycle events (flush
//! boundaries, store retries, failpoint fires; in older files also
//! supervisor transitions, quarantines and drop storms) with their own
//! site-name table and conservation counters — so a stored run carries
//! its own causal incident history. Version 1 and 2 files still load.
//!
//! Both directions work on one buffer. [`ProfileDb::save`] renders into
//! one reused `String` — the interval lines' integers through
//! [`push_u64`](crate::json::push_u64), text escaped in place — and
//! hands it to the writer a 64 KiB chunk at a time.
//! [`ProfileDb::load`] reads the input once, checks it is UTF-8, and
//! walks it with borrowed line and field iterators: no per-line
//! `String`, no per-line `Vec` of fields, an owned string only where the
//! profile keeps one (interned strings, names, journal fields). Neither
//! allocates per interval.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

use crate::cct::{CallingContextTree, NodeId};
use crate::clock::TimeNs;
use crate::error::CoreError;
use crate::frame::Frame;
use crate::interner::{Interner, Sym};
use crate::journal::{StoredJournal, StoredJournalEvent};
use crate::json::push_u64;
use crate::metrics::{MetricKind, MetricStat, MetricStore};
use crate::timeline::{Interval, IntervalKind, StoredTimeline, TrackKey};

const MAGIC_V1: &str = "deepcontext-profile v1";
const MAGIC_V2: &str = "deepcontext-profile v2";
const MAGIC_V3: &str = "deepcontext-profile v3";

/// Metadata describing one profiling run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileMeta {
    /// Workload name (e.g. `unet-fastmri`).
    pub workload: String,
    /// Framework used (e.g. `eager` / `jit`).
    pub framework: String,
    /// Platform / device (e.g. `nvidia-a100`).
    pub platform: String,
    /// Number of profiled iterations.
    pub iterations: u64,
    /// Host the run executed on (empty when unknown) — the fleet axis
    /// cross-run queries group by.
    pub host: String,
    /// Model / model-version identity (empty when unknown).
    pub model: String,
    /// Free-form configuration fingerprint (flags, hyper-parameters;
    /// empty when unknown).
    pub config: String,
    /// Wall-clock start of the run (profiler clock domain; zero when
    /// unknown). `Profiler::finish` stamps this.
    pub started: TimeNs,
    /// Wall-clock end of the run (zero when unknown).
    pub ended: TimeNs,
    /// Free-form extra key/value pairs.
    pub extra: Vec<(String, String)>,
}

/// A complete stored profile: metadata plus the calling context tree.
///
/// # Examples
///
/// ```
/// use deepcontext_core::{CallingContextTree, Frame, MetricKind, ProfileDb, ProfileMeta};
///
/// let mut cct = CallingContextTree::new();
/// let i = cct.interner();
/// let leaf = cct.insert_path(&[Frame::operator("aten::relu", &i)]);
/// cct.attribute(leaf, MetricKind::GpuTime, 9.0);
///
/// let db = ProfileDb::new(ProfileMeta { workload: "demo".into(), ..Default::default() }, cct);
/// let mut buf = Vec::new();
/// db.save(&mut buf)?;
/// let back = ProfileDb::load(&buf[..])?;
/// assert_eq!(back.meta().workload, "demo");
/// assert_eq!(back.cct().total(MetricKind::GpuTime), 9.0);
/// # Ok::<(), deepcontext_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProfileDb {
    meta: ProfileMeta,
    cct: CallingContextTree,
    timeline: Option<StoredTimeline>,
    journal: Option<StoredJournal>,
}

impl ProfileDb {
    /// Bundles metadata with a finished tree.
    pub fn new(meta: ProfileMeta, cct: CallingContextTree) -> Self {
        ProfileDb {
            meta,
            cct,
            timeline: None,
            journal: None,
        }
    }

    /// Attaches a persisted timeline (builder form).
    pub fn with_timeline(mut self, timeline: StoredTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Attaches a persisted incident journal (builder form).
    pub fn with_journal(mut self, journal: StoredJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Run metadata.
    pub fn meta(&self) -> &ProfileMeta {
        &self.meta
    }

    /// Mutable access to the metadata (e.g. for stamping `extra` keys
    /// onto an already-built profile).
    pub fn meta_mut(&mut self) -> &mut ProfileMeta {
        &mut self.meta
    }

    /// The calling context tree.
    pub fn cct(&self) -> &CallingContextTree {
        &self.cct
    }

    /// Mutable access to the tree (e.g. for post-load annotation).
    pub fn cct_mut(&mut self) -> &mut CallingContextTree {
        &mut self.cct
    }

    /// The persisted timeline, when the run recorded one.
    pub fn timeline(&self) -> Option<&StoredTimeline> {
        self.timeline.as_ref()
    }

    /// Sets or clears the persisted timeline.
    pub fn set_timeline(&mut self, timeline: Option<StoredTimeline>) {
        self.timeline = timeline;
    }

    /// The persisted incident journal, when the run recorded one.
    pub fn journal(&self) -> Option<&StoredJournal> {
        self.journal.as_ref()
    }

    /// Sets or clears the persisted incident journal.
    pub fn set_journal(&mut self, journal: Option<StoredJournal>) {
        self.journal = journal;
    }

    /// Consumes the database, returning its parts.
    pub fn into_parts(self) -> (ProfileMeta, CallingContextTree) {
        (self.meta, self.cct)
    }

    /// Writes the profile to `w`, a [`CHUNK`] of rendered text at a time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] if writing fails.
    pub fn save<W: Write>(&self, w: W) -> Result<(), CoreError> {
        let mut out = Out {
            text: String::with_capacity(CHUNK + 4096),
            w,
        };
        let o = &mut out;
        o.line(format_args!("{MAGIC_V3}"))?;
        let meta = &self.meta;
        o.line(format_args!("meta\tworkload\t{}", Escaped(&meta.workload)))?;
        o.line(format_args!(
            "meta\tframework\t{}",
            Escaped(&meta.framework)
        ))?;
        o.line(format_args!("meta\tplatform\t{}", Escaped(&meta.platform)))?;
        o.line(format_args!("meta\titerations\t{}", meta.iterations))?;
        o.line(format_args!("meta\thost\t{}", Escaped(&meta.host)))?;
        o.line(format_args!("meta\tmodel\t{}", Escaped(&meta.model)))?;
        o.line(format_args!("meta\tconfig\t{}", Escaped(&meta.config)))?;
        o.line(format_args!("meta\tstarted\t{}", meta.started.0))?;
        o.line(format_args!("meta\tended\t{}", meta.ended.0))?;
        for (k, v) in &meta.extra {
            o.line(format_args!("meta\textra.{}\t{}", Escaped(k), Escaped(v)))?;
        }
        o.table("strings", &self.cct.interner().snapshot())?;
        let nodes = self.cct.nodes_raw();
        o.line(format_args!("nodes\t{}", nodes.len()))?;
        for node in nodes {
            index_or_dash(&mut o.text, node.parent().map(|p| p.index() as u64));
            o.text.push('\t');
            node.frame().write_record(&mut o.text);
            write!(o.text, "\t{}", node.metrics().len())?;
            for (kind, stat) in node.metrics().iter() {
                o.text.push('\t');
                kind.write_record(&mut o.text);
                o.text.push('\t');
                stat.write_record(&mut o.text);
            }
            o.end_line()?;
        }
        if let Some(tl) = &self.timeline {
            let (intervals, recorded, dropped) = (tl.intervals.len(), tl.recorded, tl.dropped);
            write!(o.text, "timeline\t{intervals}\t{recorded}\t{dropped}\t")?;
            index_or_dash(&mut o.text, tl.window.map(|(start, _)| start.0));
            o.text.push('\t');
            index_or_dash(&mut o.text, tl.window.map(|(_, end)| end.0));
            o.end_line()?;
            o.table("tnames", &tl.names)?;
            // Hundreds of thousands of lines: no `fmt` here.
            for iv in &tl.intervals {
                let t = &mut o.text;
                for field in [
                    iv.track.device.into(),
                    iv.track.stream.into(),
                    iv.start.0,
                    iv.end.0,
                ] {
                    push_u64(t, field);
                    t.push('\t');
                }
                t.push_str(interval_kind_tag(iv.kind));
                t.push('\t');
                push_u64(t, iv.name.index().into());
                t.push('\t');
                push_u64(t, iv.correlation);
                t.push('\t');
                index_or_dash(t, iv.context.map(|n| n.index() as u64));
                o.end_line()?;
            }
        }
        if let Some(j) = &self.journal {
            let (events, recorded, evicted) = (j.events.len(), j.recorded, j.evicted);
            o.line(format_args!("journal\t{events}\t{recorded}\t{evicted}"))?;
            o.table("jnames", &j.names)?;
            for ev in &j.events {
                let (seq, ts, severity, site) = (ev.seq, ev.ts_ns, ev.severity, ev.site);
                let fields = ev.fields.len();
                write!(o.text, "{seq}\t{ts}\t{severity}\t{site}\t{fields}")?;
                for (k, v) in &ev.fields {
                    write!(o.text, "\t{}\t{}", Escaped(k), Escaped(v))?;
                }
                o.end_line()?;
            }
        }
        o.line(format_args!("end"))?;
        out.w.write_all(out.text.as_bytes())?;
        Ok(())
    }

    /// Reads a profile previously written by [`ProfileDb::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for malformed input (including input
    /// that is not UTF-8) and [`CoreError::Io`] for read failures.
    pub fn load<R: Read>(mut r: R) -> Result<Self, CoreError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut lines = Lines::new(&bytes)?;
        let (meta, line) = parse_header(&mut lines)?;

        let interner = Interner::new();
        for _ in 0..count_of(line, "strings\t", "string")? {
            interner.intern(&unescape(lines.next()?)?);
        }

        let node_count = count_of(lines.next()?, "nodes\t", "node")?;
        let mut raw = Vec::with_capacity(lines.at_most(node_count));
        for _ in 0..node_count {
            raw.push(parse_node_line(lines.next()?)?);
        }

        let mut line = lines.next()?;
        let mut timeline = None;
        if let Some(rest) = line.strip_prefix("timeline\t") {
            timeline = Some(parse_timeline_section(rest, &mut lines)?);
            line = lines.next()?;
        }
        let mut journal = None;
        if let Some(rest) = line.strip_prefix("journal\t") {
            journal = Some(parse_journal_section(rest, &mut lines)?);
            line = lines.next()?;
        }
        if line != "end" {
            return Err(CoreError::parse("missing end marker".into()));
        }

        let cct = CallingContextTree::from_raw(Arc::clone(&interner), raw)?;
        Ok(ProfileDb {
            meta,
            cct,
            timeline,
            journal,
        })
    }

    /// Reads only the header of a stored profile: magic plus the meta
    /// lines, stopping at the string table — nothing past its first line
    /// is read beyond the reader's buffer. Used by store listings to
    /// scan run metadata without paying for full deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for malformed input and
    /// [`CoreError::Io`] for read failures.
    pub fn load_meta<R: Read>(r: R) -> Result<ProfileMeta, CoreError> {
        let mut r = BufReader::new(r);
        let mut header = Vec::new();
        loop {
            let line_at = header.len();
            let read = r.read_until(b'\n', &mut header)?;
            // Stop at end of input or after the first line past the
            // magic that is not a meta line.
            if read == 0 || (line_at > 0 && !header[line_at..].starts_with(b"meta\t")) {
                break;
            }
        }
        Ok(parse_header(&mut Lines::new(&header)?)?.0)
    }
}

/// Rendered text is handed to the writer once this much has gathered:
/// saving holds a chunk, not the container, and the chunk stays warm.
const CHUNK: usize = 64 << 10;

/// The container being written.
struct Out<W: Write> {
    /// Rendered, not yet written.
    text: String,
    w: W,
}

impl<W: Write> Out<W> {
    /// Ends the line being rendered.
    fn end_line(&mut self) -> std::io::Result<()> {
        self.text.push('\n');
        if self.text.len() >= CHUNK {
            self.w.write_all(self.text.as_bytes())?;
            self.text.clear();
        }
        Ok(())
    }

    /// One whole line, through `fmt` (headers, strings, names: not the
    /// per-interval lines).
    fn line(&mut self, text: fmt::Arguments<'_>) -> Result<(), CoreError> {
        self.text.write_fmt(text)?;
        Ok(self.end_line()?)
    }

    /// A counted table of escaped strings, one per line.
    fn table(&mut self, tag: &str, entries: &[Arc<str>]) -> Result<(), CoreError> {
        self.line(format_args!("{tag}\t{}", entries.len()))?;
        entries
            .iter()
            .try_for_each(|entry| self.line(format_args!("{}", Escaped(entry))))
    }
}

/// The input as borrowed lines (`\n` or `\r\n` terminated, the last
/// terminator optional).
struct Lines<'a> {
    lines: std::str::Lines<'a>,
    /// Bytes of input: no section can hold more entries than this, so a
    /// corrupt count cannot size an allocation.
    input_len: usize,
}

impl<'a> Lines<'a> {
    fn new(bytes: &'a [u8]) -> Result<Self, CoreError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CoreError::parse(format!("profile is not UTF-8: {e}")))?;
        Ok(Lines {
            lines: text.lines(),
            input_len: text.len(),
        })
    }

    fn next(&mut self) -> Result<&'a str, CoreError> {
        self.lines
            .next()
            .ok_or_else(|| CoreError::parse("unexpected end of profile".into()))
    }

    /// `count` capped at what the input could possibly hold.
    fn at_most(&self, count: usize) -> usize {
        count.min(self.input_len)
    }

    /// The `count` escaped lines of a name table.
    fn names(&mut self, count: usize) -> Result<Vec<Arc<str>>, CoreError> {
        let mut names = Vec::with_capacity(self.at_most(count));
        for _ in 0..count {
            names.push(Arc::from(&*unescape(self.next()?)?));
        }
        Ok(names)
    }
}

/// The tab-separated fields of one line, consumed front to back.
struct Fields<'a> {
    /// What is left of the line; `None` once the last field is taken.
    rest: Option<&'a str>,
    /// What the line is, for error messages.
    line: &'static str,
}

/// Splits at tabs like `str::split('\t')`, with a plain byte scan: the
/// fields are a few digits long, too short for a searcher to pay off.
impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        match rest.bytes().position(|b| b == b'\t') {
            Some(tab) => {
                self.rest = Some(&rest[tab + 1..]);
                Some(&rest[..tab])
            }
            None => self.rest.take(),
        }
    }
}

impl<'a> Fields<'a> {
    fn new(text: &'a str, line: &'static str) -> Self {
        Fields {
            rest: Some(text),
            line,
        }
    }

    fn missing(&self, what: &str) -> CoreError {
        CoreError::parse(format!("{} is missing its {what}", self.line))
    }

    fn text(&mut self, what: &str) -> Result<&'a str, CoreError> {
        self.next().ok_or_else(|| self.missing(what))
    }

    /// The next field as an unsigned decimal number (digits only), read
    /// in the same scan that finds where the field ends: an interval
    /// line is seven of these.
    fn number<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, CoreError> {
        let bad = |line: &str| CoreError::parse(format!("bad {line} {what}"));
        let rest = self.rest.ok_or_else(|| self.missing(what))?;
        let mut value = 0u64;
        let mut digits = 0;
        for byte in rest.bytes() {
            match byte {
                b'0'..=b'9' => value = value.wrapping_mul(10).wrapping_add((byte - b'0').into()),
                b'\t' => break,
                _ => return Err(bad(self.line)),
            }
            digits += 1;
        }
        // Up to nineteen digits cannot have wrapped; more may still fit.
        if digits > 19 {
            value = rest[..digits].parse().map_err(|_| bad(self.line))?;
        }
        if digits == 0 {
            return Err(bad(self.line));
        }
        self.rest = rest.get(digits + 1..);
        T::try_from(value).map_err(|_| bad(self.line))
    }

    /// A number, or `None` for the `-` placeholder.
    fn index_or_dash<T: TryFrom<u64>>(&mut self, what: &str) -> Result<Option<T>, CoreError> {
        match self.rest {
            Some(rest) if rest == "-" || rest.starts_with("-\t") => {
                self.next();
                Ok(None)
            }
            _ => self.number(what).map(Some),
        }
    }

    /// Fails if the line has fields left over.
    fn end(mut self) -> Result<(), CoreError> {
        match self.next() {
            None => Ok(()),
            Some(_) => Err(CoreError::parse(format!(
                "{} has trailing fields",
                self.line
            ))),
        }
    }
}

fn index_or_dash(out: &mut String, index: Option<u64>) {
    match index {
        Some(index) => push_u64(out, index),
        None => out.push('-'),
    }
}

/// The magic line and the meta lines; also returns the first line after
/// them.
fn parse_header<'a>(lines: &mut Lines<'a>) -> Result<(ProfileMeta, &'a str), CoreError> {
    match lines.next()? {
        MAGIC_V1 | MAGIC_V2 | MAGIC_V3 => {}
        _ => return Err(CoreError::parse("bad magic header".into())),
    }
    let mut meta = ProfileMeta::default();
    loop {
        let line = lines.next()?;
        match line.strip_prefix("meta\t") {
            Some(rest) => parse_meta_line(rest, &mut meta)?,
            None => return Ok((meta, line)),
        }
    }
}

/// The entry count of a `tag`-prefixed section header line.
fn count_of(line: &str, tag: &str, what: &str) -> Result<usize, CoreError> {
    line.strip_prefix(tag)
        .ok_or_else(|| CoreError::parse(format!("expected {} section", tag.trim_end())))?
        .parse()
        .map_err(|e| CoreError::parse(format!("bad {what} count: {e}")))
}

fn parse_meta_line(rest: &str, meta: &mut ProfileMeta) -> Result<(), CoreError> {
    let (key, value) = rest
        .split_once('\t')
        .ok_or_else(|| CoreError::parse("malformed meta line".into()))?;
    let number = || -> Result<u64, CoreError> {
        value
            .parse()
            .map_err(|e| CoreError::parse(format!("bad {key}: {e}")))
    };
    match key {
        "workload" => meta.workload = unescape(value)?.into_owned(),
        "framework" => meta.framework = unescape(value)?.into_owned(),
        "platform" => meta.platform = unescape(value)?.into_owned(),
        "iterations" => meta.iterations = number()?,
        "host" => meta.host = unescape(value)?.into_owned(),
        "model" => meta.model = unescape(value)?.into_owned(),
        "config" => meta.config = unescape(value)?.into_owned(),
        "started" => meta.started = TimeNs(number()?),
        "ended" => meta.ended = TimeNs(number()?),
        other => {
            let k = other.strip_prefix("extra.").unwrap_or(other);
            meta.extra
                .push((unescape(k)?.into_owned(), unescape(value)?.into_owned()));
        }
    }
    Ok(())
}

fn interval_kind_tag(kind: IntervalKind) -> &'static str {
    match kind {
        IntervalKind::Kernel => "K",
        IntervalKind::Memcpy => "M",
    }
}

fn parse_timeline_section(
    header_rest: &str,
    lines: &mut Lines<'_>,
) -> Result<StoredTimeline, CoreError> {
    let mut header = Fields::new(header_rest, "timeline header");
    let interval_count: usize = header.number("interval count")?;
    let recorded = header.number("recorded count")?;
    let dropped = header.number("dropped count")?;
    let window = match (
        header.index_or_dash("window start")?,
        header.index_or_dash("window end")?,
    ) {
        (Some(start), Some(end)) => Some((TimeNs(start), TimeNs(end))),
        (None, None) => None,
        _ => return Err(CoreError::parse("half a timeline window".into())),
    };
    header.end()?;

    let name_count = count_of(lines.next()?, "tnames\t", "timeline name")?;
    let names = lines.names(name_count)?;
    let mut intervals = Vec::with_capacity(lines.at_most(interval_count));
    for _ in 0..interval_count {
        intervals.push(parse_interval_line(lines.next()?, name_count)?);
    }
    Ok(StoredTimeline {
        intervals,
        names,
        recorded,
        dropped,
        window,
    })
}

fn parse_interval_line(line: &str, name_count: usize) -> Result<Interval, CoreError> {
    let mut fields = Fields::new(line, "interval");
    let track = TrackKey {
        device: fields.number("device")?,
        stream: fields.number("stream")?,
    };
    let start = TimeNs(fields.number("start")?);
    let end = TimeNs(fields.number("end")?);
    let kind = match fields.text("kind")? {
        "K" => IntervalKind::Kernel,
        "M" => IntervalKind::Memcpy,
        other => return Err(CoreError::parse(format!("unknown interval kind {other:?}"))),
    };
    let name: u32 = fields.number("name")?;
    if name as usize >= name_count {
        return Err(CoreError::parse(format!(
            "interval name index {name} out of range"
        )));
    }
    let correlation = fields.number("correlation")?;
    let context = fields.index_or_dash("context")?.map(NodeId);
    fields.end()?;
    Ok(Interval {
        track,
        start,
        end,
        kind,
        name: Sym(name),
        correlation,
        context,
    })
}

fn parse_journal_section(
    header_rest: &str,
    lines: &mut Lines<'_>,
) -> Result<StoredJournal, CoreError> {
    let mut header = Fields::new(header_rest, "journal header");
    let event_count: usize = header.number("event count")?;
    let recorded = header.number("recorded count")?;
    let evicted = header.number("evicted count")?;
    header.end()?;

    let name_count = count_of(lines.next()?, "jnames\t", "journal name")?;
    let names = lines.names(name_count)?;
    let mut events = Vec::with_capacity(lines.at_most(event_count));
    for _ in 0..event_count {
        events.push(parse_journal_event_line(lines.next()?, name_count)?);
    }
    Ok(StoredJournal {
        events,
        names,
        recorded,
        evicted,
    })
}

fn parse_journal_event_line(
    line: &str,
    name_count: usize,
) -> Result<StoredJournalEvent, CoreError> {
    let mut fields = Fields::new(line, "journal event");
    let seq = fields.number("seq")?;
    let ts_ns = fields.number("timestamp")?;
    let severity = fields.number("severity")?;
    let site: u32 = fields.number("site")?;
    if site as usize >= name_count {
        return Err(CoreError::parse(format!(
            "journal site index {site} out of range"
        )));
    }
    let field_count: usize = fields.number("field count")?;
    let mut kv = Vec::with_capacity(field_count.min(line.len()));
    for _ in 0..field_count {
        kv.push((
            unescape(fields.text("field key")?)?.into_owned(),
            unescape(fields.text("field value")?)?.into_owned(),
        ));
    }
    fields.end()?;
    Ok(StoredJournalEvent {
        seq,
        ts_ns,
        severity,
        site,
        fields: kv,
    })
}

type RawNode = (Option<NodeId>, Frame, MetricStore);

fn parse_node_line(line: &str) -> Result<RawNode, CoreError> {
    let mut fields = Fields::new(line, "node");
    let parent = fields.index_or_dash("parent")?.map(NodeId);
    let frame = Frame::from_record(&mut fields)?;
    let metric_count: usize = fields.number("metric count")?;
    let mut metrics = MetricStore::new();
    for _ in 0..metric_count {
        let kind = MetricKind::from_record(fields.text("metric kind")?)?;
        let stat = MetricStat::from_record_fields(&mut fields)?;
        metrics.merge_stat(kind, &stat);
    }
    Ok((parent, frame, metrics))
}

/// Displays text with backslash, tab, newline and carriage return
/// escaped — the container's escape, field and line separators.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '\t' => f.write_str("\\t")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                other => f.write_char(other)?,
            }
        }
        Ok(())
    }
}

/// Undoes [`Escaped`]; text without a backslash is returned as is.
fn unescape(s: &str) -> Result<Cow<'_, str>, CoreError> {
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(CoreError::parse(format!("bad escape \\{other:?}"))),
        }
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::OpPhase;
    use crate::metrics::StallReason;

    fn sample_db() -> ProfileDb {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let leaf1 = cct.insert_path(&[
            Frame::python("train.py", 10, "train", &i),
            Frame::operator_with("aten::index", OpPhase::Forward, Some(1), &i),
            Frame::gpu_kernel("index_kernel", "libtorch_cuda.so", 0x44, &i),
        ]);
        let leaf2 = cct.insert_path(&[
            Frame::python("train.py", 10, "train", &i),
            Frame::operator_with("aten::index", OpPhase::Backward, Some(1), &i),
            Frame::gpu_kernel("indexing_backward_kernel", "libtorch_cuda.so", 0x55, &i),
        ]);
        cct.attribute(leaf1, MetricKind::GpuTime, 100.0);
        cct.attribute(leaf2, MetricKind::GpuTime, 900.0);
        cct.attribute(
            leaf2,
            MetricKind::Stall(StallReason::MemoryDependency),
            17.0,
        );
        cct.attribute_exclusive(leaf2, MetricKind::Warps, 64.0);
        ProfileDb::new(
            ProfileMeta {
                workload: "dlrm-small".into(),
                framework: "eager".into(),
                platform: "nvidia-a100".into(),
                iterations: 100,
                host: "node-17".into(),
                model: "dlrm-v2".into(),
                config: "batch=64".into(),
                started: TimeNs(1_000),
                ended: TimeNs(9_000),
                extra: vec![("note".into(), "tab\there".into())],
            },
            cct,
        )
    }

    fn sample_timeline() -> StoredTimeline {
        let names: Vec<Arc<str>> = vec![Arc::from("sgemm"), Arc::from("memcpy")];
        let iv = |device, stream, start, end, kind, name, correlation, context| Interval {
            track: TrackKey { device, stream },
            start: TimeNs(start),
            end: TimeNs(end),
            kind,
            name: Sym(name),
            correlation,
            context,
        };
        StoredTimeline {
            intervals: vec![
                iv(
                    0,
                    0,
                    1_100,
                    1_400,
                    IntervalKind::Kernel,
                    0,
                    1,
                    Some(NodeId(2)),
                ),
                iv(0, 1, 1_200, 1_300, IntervalKind::Memcpy, 1, 2, None),
                iv(
                    1,
                    0,
                    2_000,
                    2_500,
                    IntervalKind::Kernel,
                    0,
                    3,
                    Some(NodeId(3)),
                ),
            ],
            names,
            recorded: 5,
            dropped: 2,
            window: Some((TimeNs(1_000), TimeNs(9_000))),
        }
    }

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();

        assert_eq!(back.meta(), db.meta());
        assert_eq!(back.cct().node_count(), db.cct().node_count());
        assert_eq!(
            back.cct().total(MetricKind::GpuTime),
            db.cct().total(MetricKind::GpuTime)
        );
        // Same render implies same structure, labels and metric sums.
        assert_eq!(
            back.cct().render(MetricKind::GpuTime),
            db.cct().render(MetricKind::GpuTime)
        );
    }

    #[test]
    fn timeline_section_round_trips() {
        let db = sample_db().with_timeline(sample_timeline());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        let tl = back.timeline().expect("timeline survived");
        assert_eq!(tl, &sample_timeline());
        assert_eq!(tl.name_of(Sym(0)), Some("sgemm"));
        assert_eq!(tl.name_of(Sym(5)), None);
        assert_eq!(back.meta().started, TimeNs(1_000));
        assert_eq!(back.meta().ended, TimeNs(9_000));
        assert_eq!(back.meta().host, "node-17");
    }

    #[test]
    fn profile_without_timeline_loads_as_none() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        assert!(ProfileDb::load(&buf[..]).unwrap().timeline().is_none());
    }

    fn sample_journal() -> StoredJournal {
        StoredJournal {
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
                    ts_ns: 1_700,
                    severity: 2,
                    site: 1,
                    fields: vec![("shard".into(), "3".into())],
                },
                StoredJournalEvent {
                    seq: 4,
                    ts_ns: 2_400,
                    severity: 0,
                    site: 2,
                    fields: Vec::new(),
                },
            ],
            names: vec![
                Arc::from("supervisor.transition"),
                Arc::from("shard.quarantine"),
                Arc::from("pipeline.epoch"),
            ],
            recorded: 4,
            evicted: 1,
        }
    }

    #[test]
    fn v1_and_v2_magic_still_load() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for old in [MAGIC_V1, MAGIC_V2] {
            let downgraded = text.replacen(MAGIC_V3, old, 1);
            let back = ProfileDb::load(downgraded.as_bytes()).unwrap();
            assert_eq!(back.meta(), db.meta());
            let meta = ProfileDb::load_meta(downgraded.as_bytes()).unwrap();
            assert_eq!(&meta, db.meta());
        }
    }

    #[test]
    fn journal_section_round_trips() {
        // With and without a timeline section preceding it.
        for with_timeline in [false, true] {
            let mut db = sample_db().with_journal(sample_journal());
            if with_timeline {
                db = db.with_timeline(sample_timeline());
            }
            let mut buf = Vec::new();
            db.save(&mut buf).unwrap();
            let back = ProfileDb::load(&buf[..]).unwrap();
            let j = back.journal().expect("journal survived");
            assert_eq!(j, &sample_journal());
            assert_eq!(j.recorded, j.event_count() as u64 + j.evicted);
            assert!(j.has_site("shard.quarantine"));
            assert_eq!(back.timeline().is_some(), with_timeline);
        }
    }

    #[test]
    fn profile_without_journal_loads_as_none() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        assert!(ProfileDb::load(&buf[..]).unwrap().journal().is_none());
    }

    #[test]
    fn corrupt_journal_section_errors_not_panics() {
        let db = sample_db().with_journal(sample_journal());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body_at = text.find("journal\t").unwrap();
        let (head, tail) = text.split_at(body_at);
        // Event referencing a site index past the captured name table.
        let bad = format!("{head}{}", tail.replacen("\t2\t1\t1\t", "\t2\t1\t9\t", 1));
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Field-count mismatch against the declared count.
        let bad = format!(
            "{head}{}",
            tail.replacen("\t1\tshard\t3", "\t2\tshard\t3", 1)
        );
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Truncation inside the journal body.
        let cut = text.find("jnames\t").unwrap() + 3;
        assert!(ProfileDb::load(&text.as_bytes()[..cut]).is_err());
    }

    #[test]
    fn load_meta_reads_header_only() {
        let db = sample_db().with_timeline(sample_timeline());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let meta = ProfileDb::load_meta(&buf[..]).unwrap();
        assert_eq!(&meta, db.meta());
        // Header-only reads also work on inputs truncated after the meta
        // lines, which is the point: listings never parse the body.
        let text = String::from_utf8(buf).unwrap();
        let header: String = text
            .lines()
            .take_while(|l| !l.starts_with("strings\t"))
            .flat_map(|l| [l, "\n"])
            .collect();
        let meta = ProfileDb::load_meta(format!("{header}strings\t0\n").as_bytes()).unwrap();
        assert_eq!(&meta, db.meta());
    }

    #[test]
    fn corrupt_timeline_section_errors_not_panics() {
        let db = sample_db().with_timeline(sample_timeline());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body_at = text.find("timeline\t").unwrap();
        let (head, tail) = text.split_at(body_at);
        // Interval referencing a name index past the captured table.
        let bad = format!("{head}{}", tail.replacen("\tK\t0\t1\t", "\tK\t99\t1\t", 1));
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Unknown interval kind tag.
        let bad = format!("{head}{}", tail.replacen("\tK\t0\t1\t", "\tQ\t0\t1\t", 1));
        assert!(ProfileDb::load(bad.as_bytes()).is_err());
        // Truncation inside the timeline body.
        let cut = text.find("tnames\t").unwrap() + 3;
        assert!(ProfileDb::load(&text.as_bytes()[..cut]).is_err());
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = ProfileDb::load(&b"not a profile\n"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
        assert!(ProfileDb::load(&b"deepcontext-profile v9\n"[..]).is_err());
        assert!(ProfileDb::load_meta(&b"not a profile\n"[..]).is_err());
    }

    #[test]
    fn load_rejects_truncation() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let cut = buf.len() / 2;
        assert!(ProfileDb::load(&buf[..cut]).is_err());
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "with\ttab", "with\nnewline", "back\\slash", ""] {
            assert_eq!(unescape(&Escaped(s).to_string()).unwrap(), s);
        }
    }

    #[test]
    fn stats_of_kinds_only_older_profiles_carry_round_trip() {
        // `<dropped>` / `<poisoned>` were written by the asynchronous
        // pipeline; it is gone, files saved under it are not.
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let dropped = cct.insert_path(&[Frame::operator("<dropped>", &i)]);
        let poisoned = cct.insert_path(&[Frame::operator("<poisoned>", &i)]);
        cct.attribute(dropped, MetricKind::DroppedEvents, 7.0);
        cct.attribute(poisoned, MetricKind::PoisonedEvents, 5.0);
        let db = ProfileDb::new(ProfileMeta::default(), cct);
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.cct().semantic_diff(db.cct()), None);
        assert_eq!(back.cct().total(MetricKind::DroppedEvents), 7.0);
        assert_eq!(back.cct().total(MetricKind::PoisonedEvents), 5.0);
    }

    #[test]
    fn empty_tree_round_trips() {
        let db = ProfileDb::new(ProfileMeta::default(), CallingContextTree::new());
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        assert_eq!(back.cct().node_count(), 1);
    }
}
