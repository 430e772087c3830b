//! Persistent profile database.
//!
//! DeepContext aggregates online, so the on-disk profile is a compact
//! calling context tree rather than a trace. The container,
//! `deepcontext-profile v6`, is tab-separated text lines — the magic, run
//! metadata (host / model / config identity and the run's wall-clock
//! window among them), an interned string table, the nodes in
//! topological order — plus one optional section: the run's timeline
//! (its recording counters and window, its own captured name table and
//! its intervals). It needs no external serialization crates.
//!
//! The timeline's intervals are the one part that is not text. They are
//! one length-prefixed binary block — an `intervals\t<bytes>` line,
//! exactly that many bytes, then `\n` — of LEB128 varints, one run per
//! stored track. A run is its `device`, `stream` and length, then per
//! interval:
//!
//! - zigzag(start − the previous interval's start)
//! - zigzag(end − start)
//! - `(context + 1) << 1 | kind`: context 0 is none, kind 0 a kernel and
//!   1 a memcpy
//! - the name index
//! - zigzag(correlation − the previous interval's correlation)
//!
//! The block's first interval counts from zero. Differences wrap, so
//! any value round-trips, at about nine bytes an interval against forty
//! as a text line — in [`StoredTimeline`]'s order only: a block with a
//! track at or below the one before it, or an interval below the one
//! before it in its run, is refused.
//!
//! A node's line carries, per metric kind, the kind and its aggregate's
//! count, sum, min and max. v6 is the only version written or read: an
//! older magic is an error that names its version.
//!
//! Both directions work on one buffer. [`ProfileDb::save`] renders into
//! one reused byte buffer — text escaped in place, the block's varints
//! pushed straight in — and hands it to the writer a 64 KiB chunk at a
//! time. [`ProfileDb::load`] reads the input once and walks it as bytes:
//! every text line must be UTF-8, the block need not be — the text
//! before and after it is checked in one pass each. It borrows lines and
//! fields — no per-line `String`, no per-line `Vec` of fields — and owns
//! a string only where the profile keeps one (interned strings, names).
//! Neither allocates per interval.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::cct::{CallingContextTree, NodeId};
use crate::clock::TimeNs;
use crate::error::CoreError;
use crate::frame::Frame;
use crate::interner::{Interner, Sym};
use crate::metrics::{MetricKind, MetricStat, MetricStore};
use crate::timeline::{IntervalKind, StoredTimeline, TrackKey, TrackSlot};

const MAGIC: &str = "deepcontext-profile v6";
/// What every version's magic starts with.
const MAGIC_PREFIX: &str = "deepcontext-profile v";

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
}

impl ProfileDb {
    /// Bundles metadata with a finished tree.
    pub fn new(meta: ProfileMeta, cct: CallingContextTree) -> Self {
        ProfileDb {
            meta,
            cct,
            timeline: None,
        }
    }

    /// Run metadata.
    pub fn meta(&self) -> &ProfileMeta {
        &self.meta
    }

    /// The calling context tree.
    pub fn cct(&self) -> &CallingContextTree {
        &self.cct
    }

    /// The persisted timeline, when the run recorded one.
    pub fn timeline(&self) -> Option<&StoredTimeline> {
        self.timeline.as_ref()
    }

    /// Sets or clears the persisted timeline.
    pub fn set_timeline(&mut self, timeline: Option<StoredTimeline>) {
        self.timeline = timeline;
    }

    /// Writes the profile to `w`, 64 KiB of rendered bytes at a time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`], naming the fault, before writing a
    /// byte if the timeline breaks the stored order [`load`](Self::load)
    /// enforces (see [`StoredTimeline::tracks`]), and [`CoreError::Io`]
    /// if writing fails.
    pub fn save<W: Write>(&self, w: W) -> Result<(), CoreError> {
        if let Some(tl) = &self.timeline {
            check_stored_order(tl)?;
        }
        let mut out = Out {
            buf: Vec::with_capacity(CHUNK + 4096),
            w,
        };
        let o = &mut out;
        o.line(format_args!("{MAGIC}"))?;
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
            index_or_dash(o, node.parent().map(|p| p.index() as u64))?;
            o.buf.push(b'\t');
            node.frame().write_record(o);
            write!(o, "\t{}", node.metrics().len())?;
            for (kind, stat) in node.metrics().iter() {
                o.buf.push(b'\t');
                kind.write_record(o);
                o.buf.push(b'\t');
                stat.write_record(o);
            }
            o.end_line()?;
        }
        if let Some(tl) = &self.timeline {
            let (intervals, recorded, dropped) = (tl.interval_count(), tl.recorded, tl.dropped);
            write!(o, "timeline\t{intervals}\t{recorded}\t{dropped}\t")?;
            index_or_dash(o, tl.window.map(|(start, _)| start.0))?;
            o.buf.push(b'\t');
            index_or_dash(o, tl.window.map(|(_, end)| end.0))?;
            o.end_line()?;
            o.table("tnames", &tl.names)?;
            // Sized first, so the prefix can precede a block that is
            // handed to the writer before it is complete.
            let mut bytes = 0;
            block_fields(&tl.tracks, |fields| {
                bytes += fields.iter().map(|&f| varint_len(f)).sum::<usize>();
                Ok(())
            })?;
            o.line(format_args!("intervals\t{bytes}"))?;
            block_fields(&tl.tracks, |fields| {
                for &field in fields {
                    push_varint(&mut o.buf, field);
                }
                o.write_full_chunk()
            })?;
            o.end_line()?;
        }
        o.line(format_args!("end"))?;
        out.w.write_all(&out.buf)?;
        Ok(())
    }

    /// Reads a profile previously written by [`ProfileDb::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for malformed input (including a
    /// text line that is not UTF-8 and a container of another version) and
    /// [`CoreError::Io`] for read failures.
    pub fn load<R: Read>(mut r: R) -> Result<Self, CoreError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut lines = Lines::new(&bytes);
        let (meta, line) = parse_header(&mut lines)?;

        let interner = Interner::new();
        for _ in 0..count_of(line, "strings\t", "string")? {
            interner.intern(&unescape(lines.next()?)?);
        }

        let node_count = count_of(lines.next()?, "nodes\t", "node")?;
        let mut raw = Vec::with_capacity(lines.at_most(node_count));
        let mut scratch = (Vec::new(), Vec::new());
        for _ in 0..node_count {
            raw.push(parse_node_line(lines.next()?, &mut scratch)?);
        }

        let mut line = lines.next()?;
        let mut timeline = None;
        if let Some(rest) = line.strip_prefix("timeline\t") {
            timeline = Some(parse_timeline_section(rest, &mut lines)?);
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
        })
    }
}

/// Rendered bytes are handed to the writer once this much has gathered:
/// saving holds a chunk, not the container, and the chunk stays warm.
const CHUNK: usize = 64 << 10;

/// The container being written.
struct Out<W: Write> {
    /// Rendered, not yet written.
    buf: Vec<u8>,
    w: W,
}

impl<W: Write> Out<W> {
    /// Hands the buffer to the writer once it holds a [`CHUNK`].
    fn write_full_chunk(&mut self) -> io::Result<()> {
        if self.buf.len() >= CHUNK {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Ends the line being rendered.
    fn end_line(&mut self) -> io::Result<()> {
        self.buf.push(b'\n');
        self.write_full_chunk()
    }

    /// One whole line, through `fmt`.
    fn line(&mut self, text: fmt::Arguments<'_>) -> Result<(), CoreError> {
        self.write_fmt(text)?;
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

/// Text is rendered straight into the buffer.
impl<W: Write> fmt::Write for Out<W> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.buf.extend_from_slice(text.as_bytes());
        Ok(())
    }
}

type StoredTrack = (TrackKey, Arc<[TrackSlot]>);

/// Walks the interval block's varints: `emit` sees each track's header
/// (device, stream, length), then each of its intervals' five fields.
fn block_fields(
    tracks: &[StoredTrack],
    mut emit: impl FnMut(&[u64]) -> io::Result<()>,
) -> io::Result<()> {
    let (mut start, mut correlation) = (0u64, 0u64);
    for (track, run) in tracks {
        emit(&[track.device.into(), track.stream.into(), run.len() as u64])?;
        for iv in run.iter() {
            emit(&[
                zigzag(iv.start.0.wrapping_sub(start)),
                zigzag(iv.end.0.wrapping_sub(iv.start.0)),
                iv.word.into(),
                iv.name.index().into(),
                zigzag(iv.correlation.wrapping_sub(correlation)),
            ])?;
            (start, correlation) = (iv.start.0, iv.correlation);
        }
    }
    Ok(())
}

/// A wrapped difference as a small number when the difference is small
/// in either direction: 0, −1, 1, −2, … become 0, 1, 2, 3, ….
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// Undoes [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Appends `value` as an LEB128 varint: seven bits a byte, low first,
/// the top bit set on every byte but the last.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// The bytes [`push_varint`] appends for `value`: one per seven
/// significant bits, worked out without a division (protobuf's
/// `VarintSize64` arithmetic).
fn varint_len(value: u64) -> usize {
    ((63 - (value | 1).leading_zeros()) * 9 + 73) as usize / 64
}

/// The input as borrowed text lines — `\n` or `\r\n` terminated, the
/// last terminator optional, each of them UTF-8 — and the binary blocks
/// between them.
struct Lines<'a> {
    /// What is left of the input.
    rest: &'a [u8],
    /// The longest prefix of `rest` checked to be UTF-8: text is checked
    /// in one pass up to the first byte that is not, not line by line,
    /// and a line is served only from inside it. A block's bytes never
    /// fail a check: the pass stops in a block, and resumes after it.
    text: &'a str,
    /// Bytes of input: no section can hold more entries than this, so a
    /// corrupt count cannot size an allocation.
    input_len: usize,
}

impl<'a> Lines<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Lines {
            rest: bytes,
            text: "",
            input_len: bytes.len(),
        }
    }

    fn next(&mut self) -> Result<&'a str, CoreError> {
        let mut newline = self.text.find('\n');
        if newline.is_none() {
            // No whole line is checked yet: check as far as the input is
            // UTF-8.
            self.text = match std::str::from_utf8(self.rest) {
                Ok(text) => text,
                // A prefix reported valid: checking it again cannot fail.
                Err(e) => std::str::from_utf8(&self.rest[..e.valid_up_to()]).unwrap_or_default(),
            };
            newline = self.text.find('\n');
        }
        let (line, len) = match newline {
            Some(at) => (
                self.text[..at]
                    .strip_suffix('\r')
                    .unwrap_or(&self.text[..at]),
                at + 1,
            ),
            None if self.rest.is_empty() => {
                return Err(CoreError::parse("unexpected end of profile".into()))
            }
            None if self.text.len() == self.rest.len() => (self.text, self.text.len()),
            None => return Err(CoreError::parse("profile line is not UTF-8".into())),
        };
        self.text = &self.text[len..];
        self.rest = &self.rest[len..];
        Ok(line)
    }

    /// The `len` bytes of a binary block and the `\n` that ends it.
    fn block(&mut self, len: usize) -> Result<&'a [u8], CoreError> {
        match self.rest.get(len) {
            Some(b'\n') => {
                let block = &self.rest[..len];
                self.rest = &self.rest[len + 1..];
                self.text = "";
                Ok(block)
            }
            _ => Err(CoreError::parse(format!(
                "interval block is not {len} bytes and a newline"
            ))),
        }
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
    /// in the same scan that finds where the field ends.
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

fn index_or_dash(out: &mut impl fmt::Write, index: Option<u64>) -> fmt::Result {
    match index {
        Some(index) => write!(out, "{index}"),
        None => out.write_char('-'),
    }
}

/// The magic line and the meta lines; also returns the first line after
/// them.
fn parse_header<'a>(lines: &mut Lines<'a>) -> Result<(ProfileMeta, &'a str), CoreError> {
    match lines.next()? {
        MAGIC => {}
        other => {
            return Err(CoreError::parse(match other.strip_prefix(MAGIC_PREFIX) {
                Some(version) => format!(
                    "container version v{version} is not readable; this build reads {MAGIC}"
                ),
                None => "bad magic header".into(),
            }))
        }
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
    let block_len = count_of(lines.next()?, "intervals\t", "interval block byte")?;
    let tracks = parse_interval_block(lines.block(block_len)?, interval_count, name_count)?;
    Ok(StoredTimeline {
        tracks,
        names,
        recorded,
        dropped,
        window,
    })
}

/// A cursor over the varints of an interval block.
struct Varints<'a> {
    block: &'a [u8],
    at: usize,
}

impl Varints<'_> {
    #[inline]
    fn next(&mut self) -> Result<u64, CoreError> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.block.get(self.at) else {
                return Err(CoreError::parse("interval block ends early".into()));
            };
            self.at += 1;
            // The tenth byte carries the top bit and nothing else.
            if shift == 63 && byte > 1 {
                return Err(CoreError::parse("interval block varint overflows".into()));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn number<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, CoreError> {
        let value = self.next()?;
        T::try_from(value)
            .map_err(|_| CoreError::parse(format!("interval {what} {value} out of range")))
    }
}

/// Decodes `block`, which must hold exactly `count` intervals, into one
/// slice per track (see the module docs for the encoding and order).
fn parse_interval_block(
    block: &[u8],
    count: usize,
    name_count: usize,
) -> Result<Vec<StoredTrack>, CoreError> {
    let mut varints = Varints { block, at: 0 };
    let mut tracks: Vec<StoredTrack> = Vec::new();
    // Each run is decoded into this scratch and copied into its track's
    // slice, which measured faster than collecting into the slice.
    let mut slots: Vec<TrackSlot> = Vec::new();
    let (mut start, mut correlation, mut left) = (0u64, 0u64, count);
    while left > 0 {
        let track = TrackKey {
            device: varints.number("device")?,
            stream: varints.number("stream")?,
        };
        check_track_order(tracks.last().map(|(previous, _)| previous), &track)?;
        let run: usize = varints.number("run length")?;
        // An interval is at least five bytes: a corrupt length cannot
        // size the scratch.
        let bytes = block.len() - varints.at;
        if !(1..=left.min(bytes / 5)).contains(&run) {
            return Err(CoreError::parse(format!(
                "interval run of {run} with {left} intervals and {bytes} bytes left"
            )));
        }
        left -= run;
        slots.clear();
        slots.reserve(run);
        for _ in 0..run {
            start = start.wrapping_add(unzigzag(varints.next()?));
            let end = start.wrapping_add(unzigzag(varints.next()?));
            let tagged = varints.next()?;
            let kind = match tagged & 1 {
                0 => IntervalKind::Kernel,
                _ => IntervalKind::Memcpy,
            };
            let context = match tagged >> 1 {
                0 => None,
                context if context - 1 <= u64::from(TrackSlot::MAX_CONTEXT) => {
                    Some(NodeId(context as u32 - 1))
                }
                context => {
                    return Err(CoreError::parse(format!(
                        "interval context {} out of range",
                        context - 1
                    )))
                }
            };
            let name: u32 = varints.number("name")?;
            check_name(name, name_count)?;
            correlation = correlation.wrapping_add(unzigzag(varints.next()?));
            let slot = TrackSlot::new(
                TimeNs(start),
                TimeNs(end),
                correlation,
                Sym(name),
                context,
                kind,
            );
            check_slot_order(slots.last(), &slot, &track)?;
            slots.push(slot);
        }
        tracks.push((track, Arc::from(&slots[..])));
    }
    match block.len() - varints.at {
        0 => Ok(tracks),
        trailing => Err(CoreError::parse(format!(
            "{trailing} trailing bytes in interval block"
        ))),
    }
}

/// The stored order between `track` and the track before it: keys
/// strictly ascending, so no track is stored in two runs.
fn check_track_order(previous: Option<&TrackKey>, track: &TrackKey) -> Result<(), CoreError> {
    match previous.map(|previous| track.cmp(previous)) {
        Some(Ordering::Equal) => Err(format!("interval track {track:?} in two runs")),
        Some(Ordering::Less) => Err(format!("interval track {track:?} below its predecessor")),
        _ => Ok(()),
    }
    .map_err(CoreError::parse)
}

/// The stored order within `track`: ascending by [`TrackSlot::key`].
fn check_slot_order(
    last: Option<&TrackSlot>,
    slot: &TrackSlot,
    track: &TrackKey,
) -> Result<(), CoreError> {
    match last {
        Some(last) if last.key() > slot.key() => Err(CoreError::parse(format!(
            "interval {:?} on track {track:?} below the one before it",
            slot.key()
        ))),
        _ => Ok(()),
    }
}

fn check_name(name: u32, name_count: usize) -> Result<(), CoreError> {
    if name as usize >= name_count {
        return Err(CoreError::parse(format!(
            "interval name index {name} out of range"
        )));
    }
    Ok(())
}

/// What [`parse_interval_block`] enforces, checked on the way out: the
/// tracks in order and none empty, each track's intervals in order, and
/// every name inside the captured table.
fn check_stored_order(tl: &StoredTimeline) -> Result<(), CoreError> {
    let mut previous = None;
    for (track, slots) in &tl.tracks {
        check_track_order(previous, track)?;
        if slots.is_empty() {
            return Err(CoreError::parse(format!(
                "interval track {track:?} has no intervals"
            )));
        }
        let mut last = None;
        for slot in slots.iter() {
            check_slot_order(last, slot, track)?;
            check_name(slot.name.0, tl.names.len())?;
            last = Some(slot);
        }
        previous = Some(track);
    }
    Ok(())
}

type RawNode = (Option<NodeId>, Frame, MetricStore);

/// Scratch a load reuses across node lines: the metric records of one,
/// and their encoding.
type NodeScratch = (Vec<(MetricKind, MetricStat)>, Vec<u64>);

/// Parses a node line through `scratch`: its store is allocated once, at
/// its exact size.
fn parse_node_line(line: &str, scratch: &mut NodeScratch) -> Result<RawNode, CoreError> {
    let (records, words) = scratch;
    let mut fields = Fields::new(line, "node");
    let parent = fields.index_or_dash("parent")?.map(NodeId);
    let frame = Frame::from_record(&mut fields)?;
    let metric_count: usize = fields.number("metric count")?;
    records.clear();
    for _ in 0..metric_count {
        let kind = MetricKind::from_record(fields.text("metric kind")?)?;
        let count = fields.number("sample count")?;
        records.push((kind, MetricStat::from_record_fields(count, &mut fields)?));
    }
    Ok((parent, frame, MetricStore::from_entries(records, words)))
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
        cct.attribute(leaf2, MetricKind::MemcpyBytes, 64.0);
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
        let track = |device, stream, start, end, kind, name, correlation, context| {
            let slot = TrackSlot::new(
                TimeNs(start),
                TimeNs(end),
                correlation,
                Sym(name),
                context,
                kind,
            );
            (TrackKey { device, stream }, Arc::from([slot]))
        };
        let kernel = IntervalKind::Kernel;
        StoredTimeline {
            tracks: vec![
                track(0, 0, 1_100, 1_400, kernel, 0, 1, Some(NodeId(2))),
                track(0, 1, 1_200, 1_300, IntervalKind::Memcpy, 1, 2, None),
                track(1, 0, 2_000, 2_500, kernel, 0, 3, Some(NodeId(3))),
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
        let mut db = sample_db();
        db.set_timeline(Some(sample_timeline()));
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let back = ProfileDb::load(&buf[..]).unwrap();
        let tl = back.timeline().expect("timeline survived");
        assert_eq!(tl, &sample_timeline());
        assert_eq!(&*tl.names[0], "sgemm");
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

    /// Where `needle` first occurs in `haystack`.
    fn find(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("present")
    }

    /// Where the interval block's prefix line starts, and where the
    /// block's bytes are.
    fn block_at(container: &[u8]) -> (usize, std::ops::Range<usize>) {
        let at = find(container, b"\nintervals\t") + 1;
        let digits = at + "intervals\t".len();
        let newline = digits + find(&container[digits..], b"\n");
        let len: usize = std::str::from_utf8(&container[digits..newline])
            .unwrap()
            .parse()
            .unwrap();
        (at, newline + 1..newline + 1 + len)
    }

    /// `container` with its interval block replaced by `block` under a
    /// prefix that declares `declared` bytes.
    fn with_block(container: &[u8], declared: usize, block: &[u8]) -> Vec<u8> {
        let (at, span) = block_at(container);
        let mut out = container[..at].to_vec();
        out.extend_from_slice(format!("intervals\t{declared}\n").as_bytes());
        out.extend_from_slice(block);
        out.extend_from_slice(&container[span.end..]);
        out
    }

    fn varints(fields: &[u64]) -> Vec<u8> {
        let mut block = Vec::new();
        for &field in fields {
            push_varint(&mut block, field);
        }
        block
    }

    #[test]
    fn corrupt_timeline_section_errors_not_panics() {
        let mut db = sample_db();
        db.set_timeline(Some(sample_timeline()));
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        let load = |bytes: &[u8]| ProfileDb::load(bytes);

        // Hand-made blocks of three intervals on track (0, 0), cut into
        // runs of the given lengths. The good one loads — at the name
        // table's last index and the largest context a slot holds — so
        // each corruption below fails on its own.
        let block = |runs: &[u64], tagged: u64, name: u64| {
            let mut fields = Vec::new();
            for &run in runs {
                fields.extend([0, 0, run]);
                for _ in 0..run {
                    fields.extend([2, 2, tagged, name, 2]);
                }
            }
            varints(&fields)
        };
        let max_context = u64::from(TrackSlot::MAX_CONTEXT);
        let good = block(&[3], ((max_context + 1) << 1) | 1, 1);
        let back = load(&with_block(&buf, good.len(), &good)).unwrap();
        let intervals = &back.timeline().unwrap().tracks[0].1;
        assert_eq!(intervals.len(), 3);
        assert_eq!(intervals[2].context(), Some(NodeId(TrackSlot::MAX_CONTEXT)));
        assert_eq!(intervals[2].kind(), IntervalKind::Memcpy);
        assert_eq!(intervals[2].name, Sym(1));
        assert_eq!(intervals[2].start, TimeNs(3));

        let load_block = |block: &[u8]| load(&with_block(&buf, block.len(), block));
        // A name index past the captured table.
        assert!(load_block(&block(&[3], 0, 2)).is_err());
        // A context one past the largest a slot holds, and one above
        // `u32::MAX`: refused by name.
        for context in [max_context + 1, u64::from(u32::MAX) + 1] {
            let past = block(&[3], (context + 1) << 1, 0);
            let msg = parse_error(&with_block(&buf, past.len(), &past));
            assert!(
                msg.contains(&format!("interval context {context} out of range")),
                "{msg}"
            );
        }
        // A device that is not a `u32`.
        let mut wide = varints(&[1 << 32]);
        wide.extend_from_slice(&good[1..]);
        assert!(load_block(&wide).is_err());
        // The first start delta as the largest 10-byte varint, then one
        // past `u64::MAX` and an 11-byte one.
        let with_start = |start: &[u8]| {
            let mut block = varints(&[0, 0, 3]);
            block.extend_from_slice(start);
            block.extend(varints(&[2, 0, 0, 2, 2, 2, 0, 0, 2, 2, 2, 0, 0, 2]));
            block
        };
        let mut start = vec![0xff; 9];
        start.push(1);
        assert!(load_block(&with_start(&start)).is_ok());
        *start.last_mut().unwrap() = 2;
        assert!(load_block(&with_start(&start)).is_err());
        let mut start = vec![0x80; 10];
        start.push(0);
        assert!(load_block(&with_start(&start)).is_err());
        // A run of zero before a whole one, a run past the intervals
        // left, and runs that stop short of the declared count.
        assert!(load_block(&block(&[0, 3], 0, 0)).is_err());
        assert!(load_block(&block(&[4], 0, 0)).is_err());
        assert!(load_block(&block(&[2], 0, 0)).is_err());
        // Runs out of the stored order: a track below its predecessor,
        // one track in two runs, an interval below the one before it in
        // its run (a start one step back). Equal keys are in order.
        let step = [2, 2, 0, 0, 2];
        let on_streams = |runs: &[(u64, u64)], second: [u64; 5]| {
            let mut fields = Vec::new();
            for &(stream, run) in runs {
                fields.extend([0, stream, run]);
                for at in 0..run {
                    fields.extend(if at == 1 { second } else { step });
                }
            }
            varints(&fields)
        };
        let refused = |block: &[u8]| parse_error(&with_block(&buf, block.len(), block));
        assert!(load_block(&on_streams(&[(0, 1), (1, 2)], step)).is_ok());
        let msg = refused(&on_streams(&[(1, 1), (0, 2)], step));
        assert!(msg.contains("below its predecessor"), "{msg}");
        let msg = refused(&on_streams(&[(0, 1), (0, 2)], step));
        assert!(msg.contains("in two runs"), "{msg}");
        let msg = refused(&on_streams(&[(0, 3)], [1, 2, 0, 0, 2]));
        assert!(msg.contains("below the one before it"), "{msg}");
        let equal = load_block(&on_streams(&[(0, 3)], [0, 2, 0, 0, 0])).unwrap();
        let keys = equal.timeline().unwrap().tracks[0].1.iter();
        assert!(keys
            .map(|slot| (slot.start.0, slot.correlation))
            .eq([(1, 1), (1, 1), (2, 2)]));
        // Trailing bytes inside the declared length.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(load_block(&trailing).is_err());
        // The real block one byte short and one byte long of its prefix.
        let span = block_at(&buf).1;
        let real = &buf[span.clone()];
        assert!(load(&with_block(&buf, real.len(), real)).is_ok());
        assert!(load(&with_block(&buf, real.len() - 1, real)).is_err());
        assert!(load(&with_block(&buf, real.len() + 1, real)).is_err());
        // Truncation inside the timeline body and inside the block.
        let cut = find(&buf, b"tnames\t") + 3;
        assert!(load(&buf[..cut]).is_err());
        for cut in span.start..=span.end {
            assert!(load(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn save_refuses_a_timeline_load_would_refuse_before_writing() {
        let save = |edit: &dyn Fn(&mut StoredTimeline)| {
            let mut timeline = sample_timeline();
            edit(&mut timeline);
            let mut db = sample_db();
            db.set_timeline(Some(timeline));
            let mut buf = Vec::new();
            (db.save(&mut buf), buf)
        };
        let refused = |edit: &dyn Fn(&mut StoredTimeline)| match save(edit) {
            (Err(CoreError::Parse(msg)), buf) => {
                assert!(buf.is_empty(), "{msg}: {} bytes written", buf.len());
                msg
            }
            (other, _) => panic!("expected a refusal, got {other:?}"),
        };
        let (saved, buf) = save(&|_| {});
        saved.expect("the stored order saves");
        assert!(ProfileDb::load(&buf[..]).is_ok());
        // Tracks out of key order, and one track twice.
        let msg = refused(&|tl| tl.tracks.swap(0, 1));
        assert!(msg.contains("below its predecessor"), "{msg}");
        let msg = refused(&|tl| tl.tracks[1].0 = tl.tracks[0].0);
        assert!(msg.contains("in two runs"), "{msg}");
        // A track with no intervals.
        let msg = refused(&|tl| tl.tracks[1].1 = Arc::from([]));
        assert!(msg.contains("no intervals"), "{msg}");
        // An interval below its predecessor: a start one step back.
        let msg = refused(&|tl| {
            let mut slots = tl.tracks[0].1.to_vec();
            let mut earlier = slots[0];
            earlier.start = TimeNs(earlier.start.0 - 1);
            slots.push(earlier);
            tl.tracks[0].1 = slots.into();
        });
        assert!(msg.contains("below the one before it"), "{msg}");
        // A name outside the captured table.
        let msg = refused(&|tl| {
            tl.names.pop();
        });
        assert!(msg.contains("name index 1 out of range"), "{msg}");
    }

    /// The parse error `bytes` must load to.
    fn parse_error(bytes: &[u8]) -> String {
        match ProfileDb::load(bytes) {
            Err(CoreError::Parse(msg)) => msg,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = ProfileDb::load(&b"not a profile\n"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
        // Other versions, older and newer, are refused by name.
        let db = sample_db();
        let mut buf = Vec::new();
        db.save(&mut buf).unwrap();
        for version in ["v1", "v2", "v3", "v4", "v5", "v9"] {
            let mut other = format!("deepcontext-profile {version}").into_bytes();
            other.extend_from_slice(&buf[MAGIC.len()..]);
            let err = ProfileDb::load(&other[..]).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
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
    fn a_metric_sample_count_that_is_no_unsigned_integer_is_refused() {
        let mut cct = CallingContextTree::new();
        cct.attribute(NodeId::ROOT, MetricKind::GpuTime, 4.0);
        let mut buf = Vec::new();
        ProfileDb::new(ProfileMeta::default(), cct)
            .save(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The root's line: no parent, the root frame, one kind, then the
        // kind's four fields, sample count first.
        let root = text.lines().find(|l| l.starts_with("-\tR\t1\t")).unwrap();
        let kind = root.split('\t').nth(3).unwrap();
        let count_at = format!("-\tR\t1\t{kind}\t1\t");
        assert!(root.starts_with(&count_at));
        for count in ["1.5", "-3", "NaN", "inf", "1e3"] {
            let bad = text.replace(&count_at, &format!("-\tR\t1\t{kind}\t{count}\t"));
            let msg = parse_error(bad.as_bytes());
            assert!(msg.contains("sample count"), "{count}: {msg}");
        }
    }

    /// `sample_db`'s container with its node lines passed through `edit`
    /// (root first, one line a node, fields tab-separated, parent first).
    fn with_nodes(edit: impl FnOnce(&mut Vec<String>)) -> Vec<u8> {
        let mut buf = Vec::new();
        sample_db().save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let at = lines.iter().position(|l| l.starts_with("nodes\t")).unwrap() + 1;
        let count: usize = lines[at - 1]["nodes\t".len()..].parse().unwrap();
        let mut nodes = lines[at..at + count].to_vec();
        edit(&mut nodes);
        lines.splice(at..at + count, nodes);
        (lines.join("\n") + "\n").into_bytes()
    }

    #[test]
    fn a_node_repeating_a_siblings_collapse_key_is_refused() {
        assert!(ProfileDb::load(&with_nodes(|_| {})[..]).is_ok());
        // Node 4, the backward operator below the Python frame, becomes
        // a second copy of node 2, the forward one.
        let msg = parse_error(&with_nodes(|nodes| nodes[4] = nodes[2].clone()));
        assert!(msg.contains("duplicate collapse key"), "{msg}");
    }

    #[test]
    fn a_node_whose_parent_is_not_below_it_is_refused() {
        for parent in [3, 4] {
            let msg = parse_error(&with_nodes(|nodes| {
                let rest = nodes[3].split_once('\t').unwrap().1.to_owned();
                nodes[3] = format!("{parent}\t{rest}");
            }));
            assert!(msg.contains("parent id out of order"), "{parent}: {msg}");
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "with\ttab", "with\nnewline", "back\\slash", ""] {
            assert_eq!(unescape(&Escaped(s).to_string()).unwrap(), s);
        }
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
