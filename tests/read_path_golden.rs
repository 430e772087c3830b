//! Byte-level goldens of the read path: the Chrome trace (three variants)
//! and the `.dcprof` container of one deterministic MultiStream run.
//!
//! The Chrome traces under `tests/golden/` descend from files written
//! by the per-event Chrome renderer of commit `2ab0956`; the streaming
//! writer that replaced it must reproduce every byte. `chrome_plain.json`
//! (no CCT) is still that file. The CCT-bearing traces were regenerated
//! once, when a `stackFrames` dictionary and per-event `"sf"` ids
//! replaced the per-event `args.context` path string, under this rule:
//! every old line equals the new one with `,"sf":<id>` removed and
//! `,"context":"…"` added back after the correlation, the context
//! rebuilt by joining the names of the `sf` chain root-first with
//! `" > "`; the new files end in the dictionary where the old ones ended
//! the event array.
//!
//! `chrome_edges.json` replaced that round's `chrome_self.json` when the
//! profiler's self-timeline device (`u32::MAX`) stopped being read, under
//! this rule: it is the old file with lines 4, 19–26, 108 and 110 (the
//! self process, its lanes and two of its slices) deleted, and in lines
//! 109, 111 and 112 (a zero-width slice and the two names that escape)
//! `"pid":4294967295,"tid":<n>` replaced by `"pid":1,"tid":9`, the
//! workload lane that already held the symbol outside the captured table
//! and the context outside the tree. Nothing else changed.
//!
//! `run.dcprof` was written by `2ab0956`'s `ProfileDb::save` as a v3
//! container and regenerated three times. First by the v4 writer of the
//! commit that replaced v3's interval lines with a varint block, under
//! this rule: before the v3 reader was deleted, the old and the new file
//! loaded to the same profile (equal meta, `semantic_diff` of `None`,
//! equal timeline and journal), and the new file's text lines equal the old one's
//! except the magic line and the 80 interval lines the block replaced.
//! Then when stored incident journals stopped being read: the new file
//! is the old one without its `journal` section (old lines 101–109, the
//! `journal` line through the section's last event). Then when v5
//! dropped an aggregate's Welford `mean` and `m2`: every text line of
//! the new file equals the old one except the magic line and each node
//! line, whose metric records each lost their last two fields (`mean`,
//! `m2`); the interval block is byte-identical. `load` must read the
//! container back to a profile that saves to the same bytes again.
//!
//! All four files were regenerated once by an ingestion change, not a
//! read-path one: when the sink began routing a launch by its stream
//! alone (it had keyed on thread and stream), the run's 4 shards took a
//! different pair of MultiStream's three streams into one timeline ring,
//! so the 40-slot rings kept a different set of intervals, and the
//! shards folded into the master tree in a different node order. The
//! rule: the new `run.dcprof` loads, under `6a2c3e4`'s reader, to the
//! old one's meta, a tree with a `semantic_diff` of `None` against the
//! old tree, and the same `recorded` (144) and `dropped` (64); and
//! `6a2c3e4`'s writer, rendering the new `run.dcprof`'s timeline and
//! tree, produces the three new Chrome traces byte for byte.
//!
//! No byte of `run.dcprof` depends on the order a shard settles in: every
//! sample the run records is an integer or a multiple of a power of two,
//! whose sums are exact in any order. A changed count, sum, min, max,
//! node or line order out of the read path is a bug, never a
//! regeneration.
//!
//! On a mismatch the actual output is written under the test's target
//! tmp directory and the failure names the file — copy it over the golden
//! only when the format change is the point of the PR.

use std::path::Path;
use std::sync::Arc;

use deepcontext::core::{Interval, IntervalKind, StoredTimeline, TrackKey};
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

/// The run's timeline plus, on an otherwise empty workload lane, a
/// zero-width slice, two names that need escaping, a symbol outside the
/// captured table and a context outside the tree.
fn with_edge_cases(stored: &StoredTimeline, cct: &CallingContextTree) -> TimelineSnapshot {
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
    let lane = TrackKey {
        device: 1,
        stream: 9,
    };
    let stored_tracks = stored.tracks.iter();
    let mut intervals: Vec<Interval> = stored_tracks
        .flat_map(|(key, slots)| slots.iter().map(move |slot| slot.expand(*key, None)))
        .collect();
    intervals.extend([
        iv(lane, 7, 1_000_007, names.len() + 2, u64::MAX, Some(foreign)),
        iv(lane, 2_000, 2_000, batch, 0, None),
        iv(lane, 3_000, 4_000_001, quoted, 0, None),
        iv(lane, 5_000, 5_042, fold, 0, None),
    ]);
    let (start, end) = stored.window.expect("finish stamps the window");
    TimelineSnapshot::from_intervals(
        intervals,
        TimelineCounters {
            recorded: stored.recorded + 4,
            dropped: stored.dropped,
        },
    )
    .with_names(names)
    .with_window(start, end)
}

#[test]
fn chrome_traces_and_container_match_the_parent_commit_byte_for_byte() {
    let db = finished_run();
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
        "chrome_edges.json",
        with_edge_cases(&stored, cct)
            .to_chrome_trace(Some(cct))
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
    assert!(loaded.cct().semantic_diff(cct).is_none());
    let mut again = Vec::new();
    loaded.save(&mut again).expect("save");
    assert!(again == container, "load → save changed the container");
    assert_eq!(ProfileDb::load_meta(&container[..]).unwrap(), *db.meta());
}
