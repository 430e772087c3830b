//! End-to-end timeline tests: the multi-stream workload through the full
//! stack (framework → DLMonitor → profiler → timeline subsystem), with a
//! brute-force oracle over the complete activity set, ring-overflow
//! accounting and Chrome-trace well-formedness.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use deepcontext::core::{Interval, IntervalKind, TrackKey};
use deepcontext::gpu::{Activity, ActivityKind, ApiKind, CallbackSite};
use deepcontext::pipeline::{ShardedSink, SinkOptions};
use deepcontext::prelude::*;
use deepcontext::profiler::TimelineConfig;
use deepcontext::timeline::TimelineCounters;

const ITERATIONS: u32 = 3;

struct Rig {
    bed: TestBed,
    monitor: Arc<DlMonitor>,
}

fn rig() -> Rig {
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    Rig { bed, monitor }
}

fn run_multi_stream(rig: &Rig, profiler: &Profiler) -> MultiStream {
    let workload = MultiStream::default();
    rig.bed
        .run_eager(&workload, &WorkloadOptions::default(), ITERATIONS)
        .expect("workload run");
    profiler.flush();
    workload
}

fn timeline_profiler(rig: &Rig, timeline: TimelineConfig) -> Profiler {
    Profiler::attach(
        ProfilerConfig {
            timeline,
            ..ProfilerConfig::deepcontext()
        },
        rig.bed.env(),
        &rig.monitor,
        rig.bed.gpu(),
    )
}

#[test]
fn multi_stream_produces_one_track_per_device_stream_with_overlap() {
    let rig = rig();
    let profiler = timeline_profiler(&rig, TimelineConfig::enabled());
    let workload = run_multi_stream(&rig, &profiler);

    let timeline = profiler.timeline().expect("timeline enabled");
    // One track per device × stream, each carrying every branch launch.
    assert_eq!(
        timeline.tracks().len(),
        workload.devices() * workload.streams()
    );
    let per_track = u64::from(ITERATIONS) * MultiStream::OPS_PER_BRANCH as u64;
    for device in 0..workload.devices() as u32 {
        for stream in 0..workload.streams() as u32 {
            let track = timeline
                .track(device, stream)
                .unwrap_or_else(|| panic!("missing track ({device}, {stream})"));
            assert_eq!(
                track.len() as u64,
                per_track,
                "intervals on ({device}, {stream})"
            );
        }
    }
    let stats = profiler.stats();
    assert_eq!(
        stats.timeline_intervals,
        u64::from(ITERATIONS) * workload.kernels_per_iteration()
    );
    assert_eq!(stats.timeline_dropped, 0, "default capacity never evicts");
    assert_eq!(timeline.interval_count() as u64, stats.timeline_intervals);

    // Streams on each device really overlapped, and the timeline sees it.
    let tstats = timeline.stats();
    for device in 0..workload.devices() as u32 {
        let d = tstats.device(device).expect("device stats");
        assert_eq!(d.streams, workload.streams());
        assert!(
            d.overlap_factor() > 1.0,
            "device {device} streams never overlapped: factor {}",
            d.overlap_factor()
        );
        assert!(d.utilization() > 0.0 && d.utilization() <= 1.0);
    }

    // Every interval's context id resolves to a GPU-kernel node in the
    // tree `with_cct` serves at this same quiesce point, and its context
    // lands under the right per-branch Python scope.
    profiler.with_cct(|cct| {
        let interner = cct.interner();
        for track in timeline.tracks() {
            for interval in track.intervals() {
                let node = interval
                    .context
                    .expect("every interval resolved its context");
                assert!(node.index() < cct.node_count(), "context id out of range");
                assert_eq!(cct.node(node).frame().kind(), FrameKind::GpuKernel);
                let path = cct.frames_to_root(node);
                let labels: Vec<String> = path
                    .frames()
                    .iter()
                    .map(|f| f.short_label(&interner))
                    .collect();
                let scope = format!(
                    "multi_stream.py:{}",
                    MultiStream::scope_line(
                        track.key().device as usize,
                        track.key().stream as usize
                    )
                );
                assert!(
                    labels.contains(&scope),
                    "interval on {:?} attributed outside its branch scope: {labels:?}",
                    track.key()
                );
            }
        }
    });
}

#[test]
fn jit_multi_stream_keeps_placements_and_fills_every_track() {
    // The fusion pass partitions groups by (device, stream) and the
    // compiled executor launches each item on its recorded placement —
    // so the multi-stream workload runs under JIT with the same
    // device/stream spread as eager, instead of being forced onto the
    // core's default stream.
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.jit().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig {
            timeline: TimelineConfig::enabled(),
            ..ProfilerConfig::deepcontext()
        },
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    let workload = MultiStream::default();
    let stats = bed
        .run_jit(&workload, &WorkloadOptions::default(), ITERATIONS)
        .expect("multi-stream workload must run under JIT");
    profiler.flush();

    // Each branch's two same-placement elementwise ops fuse into one
    // kernel, but branches never fuse across placements — so exactly one
    // kernel per (device, stream) branch per iteration.
    let branches = (workload.devices() * workload.streams()) as u64;
    assert_eq!(stats.kernels, u64::from(ITERATIONS) * branches);
    let timeline = profiler.timeline().expect("timeline enabled");
    assert_eq!(
        timeline.tracks().len(),
        workload.devices() * workload.streams(),
        "JIT execution must populate every (device, stream) track"
    );
    for device in 0..workload.devices() as u32 {
        for stream in 0..workload.streams() as u32 {
            let track = timeline
                .track(device, stream)
                .unwrap_or_else(|| panic!("missing track ({device}, {stream})"));
            assert!(!track.is_empty(), "no intervals on ({device}, {stream})");
        }
    }
    // Streams still overlap on each device under the compiled executor.
    for device in 0..workload.devices() as u32 {
        let d = timeline.stats().device(device).expect("device stats");
        assert_eq!(d.streams, workload.streams());
        assert!(
            d.overlap_factor() > 1.0,
            "device {device} streams never overlapped under JIT"
        );
    }
}

/// The brute-force oracle: recompute per-device busy / summed / span /
/// gaps from the complete, independently captured activity set with the
/// simplest possible O(n log n) sweep, ignoring everything the timeline
/// subsystem does (rings, shards, context remapping).
#[derive(Debug, Default, PartialEq)]
struct OracleDevice {
    summed: u64,
    busy: u64,
    first_start: u64,
    last_end: u64,
    gaps: Vec<(u64, u64)>,
    intervals: usize,
}

fn oracle_stats(activities: &[Activity]) -> BTreeMap<u32, OracleDevice> {
    let mut windows: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for activity in activities {
        let (start, end) = match &activity.kind {
            ActivityKind::Kernel { start, end, .. } | ActivityKind::Memcpy { start, end, .. } => {
                (start.as_nanos(), end.as_nanos())
            }
            _ => continue,
        };
        windows
            .entry(activity.device.0)
            .or_default()
            .push((start, end));
    }
    windows
        .into_iter()
        .map(|(device, mut spans)| {
            spans.sort_unstable();
            let mut oracle = OracleDevice {
                first_start: spans[0].0,
                intervals: spans.len(),
                ..OracleDevice::default()
            };
            let mut cover_end = spans[0].0;
            for &(start, end) in &spans {
                oracle.summed += end - start;
                if start > cover_end {
                    oracle.gaps.push((cover_end, start));
                    oracle.busy += end - start;
                    cover_end = end;
                } else if end > cover_end {
                    oracle.busy += end - cover_end;
                    cover_end = end;
                }
            }
            oracle.last_end = cover_end;
            (device, oracle)
        })
        .collect()
}

/// Runs the multi-stream workload into a timeline-recording sink wired
/// the way `Profiler::attach` wires its own — a launch callback holding
/// the monitor weakly, an activity handler — and returns the sink with a
/// copy of every activity record it was delivered: the complete activity
/// set the oracle recomputes from.
fn captured_run(rig: &Rig) -> (Arc<ShardedSink>, Vec<Activity>) {
    let sink = ShardedSink::with(
        rig.monitor.interner(),
        SinkOptions {
            shards: deepcontext::profiler::DEFAULT_SHARDS,
            timeline: TimelineConfig::enabled(),
        },
    );
    let monitor = Arc::downgrade(&rig.monitor);
    let launches = Arc::clone(&sink);
    rig.monitor.callback_register(Domain::Gpu, move |event| {
        let DlEvent::Gpu(gpu_event) = event else {
            return;
        };
        let api = gpu_event.data.api;
        let launch = matches!(
            api,
            ApiKind::LaunchKernel | ApiKind::MemcpyAsync | ApiKind::MemAlloc
        );
        if gpu_event.data.site != CallbackSite::Enter || !launch {
            return;
        }
        let Some(monitor) = monitor.upgrade() else {
            return;
        };
        let path = monitor.callpath_for_gpu(gpu_event).handle();
        launches.gpu_launch(&gpu_event.origin(), path, api);
    });
    let captured = Arc::new(Mutex::new(Vec::new()));
    let deliver = {
        let (sink, captured) = (Arc::clone(&sink), Arc::clone(&captured));
        move |batch: Vec<Activity>| {
            captured.lock().unwrap().extend(batch.iter().cloned());
            sink.activity_batch(batch);
        }
    };
    rig.bed.gpu().set_activity_handler(deliver.clone());
    rig.bed
        .run_eager(
            &MultiStream::default(),
            &WorkloadOptions::default(),
            ITERATIONS,
        )
        .expect("workload run");
    deliver(rig.bed.gpu().flush_all());
    sink.epoch_complete();
    let captured = std::mem::take(&mut *captured.lock().unwrap());
    (sink, captured)
}

#[test]
fn timeline_metrics_match_brute_force_recomputation_over_all_activities() {
    let rig = rig();
    let (sink, captured) = captured_run(&rig);

    let timeline = sink.timeline_snapshot().expect("timeline enabled");
    assert_eq!(timeline.dropped(), 0, "oracle needs the complete set");
    let oracle = oracle_stats(&captured);
    let stats = timeline.stats();
    assert_eq!(
        stats.devices.len(),
        oracle.len(),
        "devices with recorded work"
    );
    for device in &stats.devices {
        let expect = &oracle[&device.device];
        assert_eq!(
            device.summed.as_nanos(),
            expect.summed,
            "device {} summed",
            device.device
        );
        assert_eq!(
            device.busy.as_nanos(),
            expect.busy,
            "device {} busy (union)",
            device.device
        );
        assert_eq!(device.first_start.as_nanos(), expect.first_start);
        assert_eq!(device.last_end.as_nanos(), expect.last_end);
        let gaps: Vec<(u64, u64)> = device
            .gaps
            .iter()
            .map(|g| (g.start.as_nanos(), g.end.as_nanos()))
            .collect();
        assert_eq!(gaps, expect.gaps, "device {} idle gaps", device.device);
        // Derived ratios follow from the equal integers.
        let span = (expect.last_end - expect.first_start) as f64;
        assert_eq!(device.utilization(), expect.busy as f64 / span);
        assert_eq!(
            device.overlap_factor(),
            expect.summed as f64 / expect.busy as f64
        );
        // Idle partitions the span against busy exactly.
        assert_eq!(
            device.idle().as_nanos() + device.busy.as_nanos(),
            device.span().as_nanos()
        );
    }
    // Nothing was missed: every kernel/memcpy record became an interval.
    let expected_intervals: usize = oracle.values().map(|o| o.intervals).sum();
    assert_eq!(timeline.interval_count(), expected_intervals);
}

#[test]
fn interval_names_round_trip_through_snapshot_remap_and_chrome_export() {
    // `Interval::name` is an interned `Sym`: the recording tap stores a
    // handle, the snapshot captures the symbol table once, and the
    // Chrome exporter resolves through it. This test closes the loop
    // end-to-end: every interval's resolved name equals the name the
    // producer launched with, both on the snapshot and in the exported
    // trace.
    let rig = rig();
    let (sink, captured) = captured_run(&rig);

    let timeline = sink.timeline_snapshot().expect("timeline enabled");
    assert_eq!(timeline.dropped(), 0, "need the complete interval set");
    assert!(
        !timeline.names().is_empty(),
        "snapshot captured its symbol table"
    );
    // The producer-side truth: correlation id → the name each activity
    // record carried into the sink.
    let mut launched: BTreeMap<u64, String> = BTreeMap::new();
    for activity in captured.iter() {
        let name = match &activity.kind {
            ActivityKind::Kernel { name, .. } => name.to_string(),
            ActivityKind::Memcpy { .. } => "memcpy".to_string(),
            _ => continue,
        };
        launched.insert(activity.correlation_id.0, name);
    }
    for track in timeline.tracks() {
        for interval in track.intervals() {
            let resolved = timeline
                .name_of(interval.name)
                .expect("every recorded Sym resolves in the captured table");
            assert_eq!(
                Some(resolved),
                launched.get(&interval.correlation).map(String::as_str),
                "interval corr {} on {:?}",
                interval.correlation,
                track.key()
            );
        }
    }
    // The exported trace prints the same resolved names — no `sym#N`
    // fallbacks, no stale table.
    let json = timeline.to_chrome_trace(None);
    let root = Parser::parse(&json).expect("chrome trace must be valid JSON");
    let events = match root.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    let mut slices = 0usize;
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        slices += 1;
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .expect("slice name");
        let corr = event
            .get("args")
            .and_then(|a| a.get("correlation"))
            .and_then(Json::as_num)
            .expect("slice correlation") as u64;
        assert_eq!(
            Some(name),
            launched.get(&corr).map(String::as_str),
            "chrome slice for corr {corr}"
        );
    }
    assert_eq!(slices, timeline.interval_count());
}

#[test]
fn ring_overflow_is_counted_and_keeps_the_newest_window() {
    let rig = rig();
    let profiler = timeline_profiler(
        &rig,
        TimelineConfig {
            enabled: true,
            ring_capacity: 2,
        },
    );
    let workload = run_multi_stream(&rig, &profiler);

    let stats = profiler.stats();
    let total = u64::from(ITERATIONS) * workload.kernels_per_iteration();
    assert_eq!(stats.timeline_intervals, total, "recording still sees all");
    assert!(
        stats.timeline_dropped > 0,
        "tiny rings must evict under this workload"
    );
    let timeline = profiler.timeline().expect("timeline enabled");
    assert_eq!(timeline.recorded(), total);
    assert_eq!(timeline.dropped(), stats.timeline_dropped);
    // Exact partition: what the snapshot kept plus what overflow evicted
    // is everything ever recorded.
    assert_eq!(
        timeline.interval_count() as u64 + timeline.dropped(),
        timeline.recorded()
    );
}

#[test]
fn timeline_disabled_records_nothing_and_costs_nothing() {
    let rig = rig();
    let profiler = timeline_profiler(&rig, TimelineConfig::default());
    run_multi_stream(&rig, &profiler);
    assert!(profiler.timeline().is_none());
    let stats = profiler.stats();
    assert_eq!(stats.timeline_intervals, 0);
    assert_eq!(stats.timeline_dropped, 0);
}

#[test]
fn latency_rules_run_clean_on_the_overlapping_multi_stream_profile() {
    // MultiStream overlaps well by construction, so the serialization
    // rule must stay silent on it — and the timeline-attached preview
    // must agree with the aggregate-only preview on every aggregate rule.
    let rig = rig();
    let profiler = timeline_profiler(&rig, TimelineConfig::enabled());
    run_multi_stream(&rig, &profiler);
    let timeline = profiler.timeline().expect("timeline enabled");
    let analyzer = Analyzer::with_default_rules();
    let (plain, with_timeline) = profiler.with_cct(|cct| {
        (
            analyzer.preview(cct),
            analyzer.preview_with_timeline(cct, &timeline),
        )
    });
    assert!(with_timeline.by_rule("stream-serialization").is_empty());
    // Timeline rules only ever *add* issues on top of the aggregate set.
    let aggregate_only = |report: &deepcontext::analyzer::AnalysisReport| {
        report
            .issues()
            .iter()
            .filter(|i| i.rule != "gpu-idle" && i.rule != "stream-serialization")
            .count()
    };
    assert_eq!(aggregate_only(&plain), aggregate_only(&with_timeline));
}

// ---------------------------------------------------------------------
// Chrome-trace well-formedness: a minimal JSON parser (no external
// crates available) plus structural checks over the parsed events.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|b| *b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("eof in string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("eof in string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }
}

/// The names on the `stackFrames` chain from `sf` up, root first, joined
/// with `" > "`; panics on an id the dictionary lacks or a cycle.
fn stack_chain(frames: &Json, sf: &str) -> String {
    let entries = match frames {
        Json::Obj(entries) => entries.len(),
        other => panic!("stackFrames is not an object: {other:?}"),
    };
    let mut names = Vec::new();
    let mut id = Some(sf.to_string());
    while let Some(key) = id {
        assert!(names.len() < entries, "stackFrames chain from {sf} cycles");
        let frame = frames
            .get(&key)
            .unwrap_or_else(|| panic!("frame {key} is not in stackFrames"));
        names.push(
            frame
                .get("name")
                .and_then(Json::as_str)
                .expect("frame name"),
        );
        id = frame.get("parent").map(|parent| {
            parent
                .as_str()
                .expect("a parent is a string id")
                .to_string()
        });
    }
    names.reverse();
    names.join(" > ")
}

#[test]
fn chrome_trace_is_valid_json_with_consistent_tracks() {
    let rig = rig();
    let profiler = timeline_profiler(&rig, TimelineConfig::enabled());
    let workload = run_multi_stream(&rig, &profiler);
    let timeline = profiler.timeline().expect("timeline enabled");
    let (json, contexts) = profiler.with_cct(|cct| {
        // Each interval's context as the exporter once spelled it on the
        // slice: its path's labels, root first, joined with " > ".
        let interner = cct.interner();
        let contexts: BTreeMap<u64, String> = timeline
            .tracks()
            .iter()
            .flat_map(|track| track.intervals())
            .map(|interval| {
                let node = interval
                    .context
                    .expect("every interval resolved its context");
                let labels: Vec<String> = cct
                    .frames_to_root(node)
                    .frames()
                    .iter()
                    .map(|frame| frame.label(&interner))
                    .collect();
                (interval.correlation, labels.join(" > "))
            })
            .collect();
        assert_eq!(
            contexts.len(),
            timeline.interval_count(),
            "one per correlation"
        );
        (timeline.to_chrome_trace(Some(cct)), contexts)
    });

    let root = Parser::parse(&json).expect("chrome trace must be valid JSON");
    let events = match root.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    let frames = root
        .get("stackFrames")
        .expect("a CCT export names its frames");

    let mut slice_tracks: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut slices = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        let pid = event.get("pid").and_then(Json::as_num).expect("pid") as u64;
        let tid = event.get("tid").and_then(Json::as_num).unwrap_or(0.0) as u64;
        match ph {
            "M" => {
                let name = event.get("name").and_then(Json::as_str).expect("meta name");
                assert!(
                    matches!(name, "process_name" | "thread_name" | "thread_sort_index"),
                    "unexpected metadata {name}"
                );
            }
            "X" => {
                slices += 1;
                let ts = event.get("ts").and_then(Json::as_num).expect("ts");
                let dur = event.get("dur").and_then(Json::as_num).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "negative ts/dur");
                let cat = event.get("cat").and_then(Json::as_str).expect("cat");
                assert!(matches!(cat, "kernel" | "memcpy"));
                // ts must be monotonically non-decreasing within a track.
                let last = slice_tracks.entry((pid, tid)).or_insert(f64::MIN);
                assert!(
                    ts >= *last,
                    "track ({pid},{tid}) ts went backwards: {ts} < {last}"
                );
                *last = ts;
                // `sf` names the slice's context: its chain through
                // `stackFrames` spells the path of the interval with this
                // correlation.
                let args = event.get("args").expect("args");
                let correlation = args
                    .get("correlation")
                    .and_then(Json::as_num)
                    .expect("correlation");
                assert!(args.get("context").is_none(), "the path is in stackFrames");
                let sf = event
                    .get("sf")
                    .and_then(Json::as_num)
                    .expect("every MultiStream slice resolves its context");
                let context = stack_chain(frames, &(sf as u64).to_string());
                assert_eq!(context, contexts[&(correlation as u64)]);
                assert!(context.contains("multi_stream.py"), "{context}");
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    // One slice track per device × stream, all slices accounted for.
    assert_eq!(
        slice_tracks.len(),
        workload.devices() * workload.streams(),
        "one Chrome track per (device, stream)"
    );
    assert_eq!(slices, timeline.interval_count());
}

#[test]
fn chrome_trace_gives_no_sf_to_a_context_outside_the_tree() {
    let mut cct = CallingContextTree::new();
    let interner = cct.interner();
    let kernel = cct.insert_path(&[
        Frame::python("train.py", 3, "step", &interner),
        Frame::gpu_kernel("k", "m.so", 0x10, &interner),
    ]);
    // An id past the tree's end, as a stored timeline read against the
    // wrong tree would carry; the root, whose path is empty; no context.
    let foreign = NodeId::from_index(cct.node_count() as u32 + 5);
    let contexts = [Some(kernel), Some(foreign), Some(NodeId::ROOT), None];
    let intervals = (0u64..)
        .zip(contexts)
        .map(|(correlation, context)| Interval {
            track: TrackKey {
                device: 0,
                stream: 0,
            },
            start: TimeNs(correlation * 1_000),
            end: TimeNs(correlation * 1_000 + 500),
            kind: IntervalKind::Kernel,
            name: interner.intern("k"),
            correlation,
            context,
        })
        .collect();
    let snapshot = TimelineSnapshot::from_intervals(
        intervals,
        TimelineCounters {
            recorded: 4,
            dropped: 0,
        },
    )
    .with_names(interner.snapshot());
    let json = snapshot.to_chrome_trace(Some(&cct));

    let root = Parser::parse(&json).expect("chrome trace must be valid JSON");
    let frames = root
        .get("stackFrames")
        .expect("a CCT export names its frames");
    assert!(matches!(frames, Json::Obj(entries) if entries.len() == 2));
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let sfs: Vec<Option<String>> = events
        .iter()
        .filter(|event| event.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|event| {
            let sf = event.get("sf").and_then(Json::as_num)?;
            Some(stack_chain(frames, &(sf as u64).to_string()))
        })
        .collect();
    assert_eq!(
        sfs,
        [
            Some("train.py:3 (step) > k [kernel] (m.so+0x10)".to_string()),
            None,
            None,
            None
        ]
    );
}
