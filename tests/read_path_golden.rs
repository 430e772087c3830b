//! Byte-level goldens of the read path: the Chrome trace (four variants)
//! and the `.dcprof` container of one deterministic MultiStream run.
//!
//! The four Chrome traces under `tests/golden/` were written by the
//! per-event Chrome renderer of commit `2ab0956`; the streaming writer
//! that replaced it must reproduce every byte. `chrome_plain.json` (no
//! CCT) is still that file. The three CCT-bearing traces were
//! regenerated once, when a `stackFrames` dictionary and per-event
//! `"sf"` ids replaced the per-event `args.context` path string, under
//! this rule: every old line equals the new one with `,"sf":<id>`
//! removed and `,"context":"…"` added back after the correlation, the
//! context rebuilt by joining the names of the `sf` chain root-first
//! with `" > "`; the new files end in the dictionary where the old ones
//! ended the event array; and in `chrome_self.json` the self lanes once
//! named `worker 0`, `worker 1` and `producer flush` are `self 0`,
//! `self 1` and `self 1000`.
//!
//! `run.dcprof` was written
//! by `2ab0956`'s `ProfileDb::save` as a v3 container and regenerated
//! once, by the v4 writer of the commit that replaced v3's interval
//! lines with a varint block, under this rule: before the v3 reader was
//! deleted, the old and the new file loaded to the same profile (equal
//! meta, `semantic_diff` of `None`, equal timeline, equal journal), and
//! the new file's text lines equal the old one's except the magic line
//! and the 80 interval lines the block replaced. `load` must read the
//! container back to a profile that saves to the same bytes again.
//!
//! The only bytes of `run.dcprof` that depend on the order a shard
//! settles in are the low digits of `mean` / `m2` of measured kinds
//! (`gpu_time`, `memcpy_*`, ...); the rule that fixes them is stated in
//! `crates/core/src/shard.rs`'s module docs. A changed count, sum, min,
//! max, node or line order is a bug, never a regeneration.
//!
//! On a mismatch the actual output is written under the test's target
//! tmp directory and the failure names the file — copy it over the golden
//! only when the format change is the point of the PR.

use std::path::Path;
use std::sync::Arc;

use deepcontext::core::{
    Interval, IntervalKind, StoredJournal, StoredJournalEvent, StoredTimeline, TrackKey,
};
use deepcontext::prelude::*;
use deepcontext::timeline::TimelineCounters;

fn check(name: &str, actual: &[u8]) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let at = expected
        .iter()
        .zip(actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&out, actual).expect("write actual output");
    panic!(
        "{name}: {} bytes, golden has {}, first difference at byte {at}; actual output in {}",
        actual.len(),
        expected.len(),
        out.display()
    );
}

/// Twelve eager MultiStream iterations on two devices with every
/// environment-driven default pinned and rings small enough to evict,
/// finished into a profile that carries its timeline.
fn finished_run() -> ProfileDb {
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig {
            ingestion_shards: 4,
            timeline: TimelineConfig {
                enabled: true,
                ring_capacity: 40,
            },
            ..ProfilerConfig::deepcontext()
        },
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(&MultiStream::default(), &WorkloadOptions::default(), 12)
        .expect("workload run");
    profiler.flush();
    profiler.finish(ProfileMeta {
        workload: "multi-stream".into(),
        framework: "eager".into(),
        platform: "nvidia-a100".into(),
        iterations: 12,
        host: "golden-host".into(),
        model: "multi\tstream".into(),
        config: "streams=default\nshards=4".into(),
        extra: vec![("note".into(), "back\\slash\r".into())],
        ..Default::default()
    })
}

/// A journal whose sites and fields exercise every escape of both
/// writers (JSON and the container's tab-separated text).
fn journal() -> StoredJournal {
    let event = |seq, ts_ns, severity, site, fields: &[(&str, &str)]| StoredJournalEvent {
        seq,
        ts_ns,
        severity,
        site,
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    };
    StoredJournal {
        events: vec![
            event(
                3,
                1_500,
                1,
                0,
                &[("from", "Healthy"), ("to", "Degraded"), ("why", "a\tb\\c")],
            ),
            event(4, 2_000, 2, 1, &[("shard", "3"), ("panic", "\"boom\"\n")]),
            event(7, 1_234_567, 0, 2, &[]),
            event(9, 2_000_000, 9, 2, &[("k\u{1}", "caf\u{e9}")]),
        ],
        names: vec![
            Arc::from("supervisor.transition"),
            Arc::from("shard.quarantine"),
            Arc::from("pipeline \"epoch\""),
        ],
        recorded: 9,
        evicted: 5,
    }
}

/// The run's timeline plus the profiler's reserved self tracks — the
/// fold lane and three other self streams, which render as `self N` —,
/// a name that needs escaping, a symbol outside the captured table and a
/// context outside the tree.
fn with_self_tracks(stored: &StoredTimeline, cct: &CallingContextTree) -> TimelineSnapshot {
    let mut names = stored.names.clone();
    let mut name = |text: &str| {
        names.push(Arc::from(text));
        names.len() - 1
    };
    let (batch, quoted, fold) = (
        name("worker batch"),
        name("producer \"flush\""),
        name("fold\\\u{2}"),
    );
    // Symbols have no public constructor: take them from a scratch
    // interner big enough to reach the wanted index.
    let scratch = Interner::new();
    let syms: Vec<_> = (0..names.len() + 3)
        .map(|i| scratch.intern(&format!("s{i}")))
        .collect();
    let foreign = NodeId::from_index(cct.node_count() as u32 + 1);

    let iv = |track, start, end, name: usize, correlation, context| Interval {
        track,
        start: TimeNs(start),
        end: TimeNs(end),
        kind: IntervalKind::Kernel,
        name: syms[name],
        correlation,
        context,
    };
    let mut intervals = stored.intervals.clone();
    intervals.extend([
        iv(TrackKey::self_track(0), 10, 1_010, batch, 0, None),
        iv(TrackKey::self_track(0), 2_000, 2_000, batch, 0, None),
        iv(TrackKey::self_track(1), 500, 1_999, batch, 0, None),
        iv(
            TrackKey::self_track(1_000),
            3_000,
            4_000_001,
            quoted,
            0,
            None,
        ),
        iv(
            TrackKey::self_track(TrackKey::SELF_STREAM_FOLD),
            5_000,
            5_042,
            fold,
            0,
            None,
        ),
        iv(
            TrackKey {
                device: 1,
                stream: 9,
            },
            7,
            1_000_007,
            names.len() + 2,
            u64::MAX,
            Some(foreign),
        ),
    ]);
    let (start, end) = stored.window.expect("finish stamps the window");
    TimelineSnapshot::from_intervals(
        intervals,
        TimelineCounters {
            recorded: stored.recorded + 6,
            dropped: stored.dropped,
        },
    )
    .with_names(names)
    .with_window(start, end)
}

#[test]
fn chrome_traces_and_container_match_the_parent_commit_byte_for_byte() {
    let mut db = finished_run();
    db.set_journal(Some(journal()));
    let stored = db.timeline().expect("timeline recorded").clone();
    assert_eq!(stored.interval_count(), 80);
    assert_eq!(
        stored.dropped, 64,
        "the rings overflowed: the timeline is a window"
    );
    let snapshot = TimelineSnapshot::from_stored(&stored);
    let cct = db.cct();

    check(
        "chrome_context.json",
        snapshot.to_chrome_trace(Some(cct)).as_bytes(),
    );
    check(
        "chrome_plain.json",
        snapshot.to_chrome_trace(None).as_bytes(),
    );
    check(
        "chrome_self.json",
        with_self_tracks(&stored, cct)
            .to_chrome_trace(Some(cct))
            .as_bytes(),
    );
    // A site outside the name table renders as `<unknown>` (the
    // container's reader would reject it, so only the trace sees it).
    let mut unknown_site = journal();
    unknown_site.events[3].site = 7;
    check(
        "chrome_journal.json",
        snapshot
            .to_chrome_trace_with_journal(Some(cct), Some(&unknown_site))
            .as_bytes(),
    );

    let mut container = Vec::new();
    db.save(&mut container).expect("save");
    check("run.dcprof", &container);

    // The committed container loads, and what it loads to saves to the
    // same bytes: reader and writer agree on every field.
    let loaded = ProfileDb::load(&container[..]).expect("golden container loads");
    assert_eq!(loaded.meta(), db.meta());
    assert_eq!(loaded.timeline(), db.timeline());
    assert_eq!(loaded.journal(), db.journal());
    assert!(loaded.cct().semantic_diff(cct).is_none());
    let mut again = Vec::new();
    loaded.save(&mut again).expect("save");
    assert!(again == container, "load → save changed the container");
    assert_eq!(ProfileDb::load_meta(&container[..]).unwrap(), *db.meta());
}
