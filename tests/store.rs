//! End-to-end profile store tests: a finished profiler run persists to a
//! store directory with its timeline intact, corrupt files surface as
//! `CoreError`s instead of panics (named cases, every byte of the
//! interval block cut off, then arbitrary bytes, every line-boundary
//! truncation and random single-byte corruptions of the golden
//! container), cross-run trend queries follow the metric
//! across stored runs, and the `store-regression` rule flags an injected
//! regression against the stored baseline.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use deepcontext::prelude::*;
use deepcontext::profiler::TimelineConfig;
use proptest::prelude::*;

fn temp_store() -> (PathBuf, ProfileStore) {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "deepcontext-store-e2e-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let store = ProfileStore::open(&dir).expect("store opens");
    (dir, store)
}

/// A full profiler run over the multi-device multi-stream workload with
/// the timeline recorder on, finished into a `ProfileDb`.
fn profile_multi_stream(iterations: u32) -> ProfileDb {
    let bed = TestBed::with_devices(vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()]);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
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
    bed.run_eager(
        &MultiStream::default(),
        &WorkloadOptions::default(),
        iterations,
    )
    .expect("workload run");
    profiler.finish(ProfileMeta {
        workload: "multi-stream".into(),
        framework: "eager".into(),
        platform: "nvidia-a100".into(),
        host: "ci-host".into(),
        model: "multi-stream-v1".into(),
        config: "default".into(),
        iterations: u64::from(iterations),
        ..Default::default()
    })
}

#[test]
fn finished_run_reloads_from_the_store_with_timeline_intact() {
    let db = profile_multi_stream(2);
    let timeline = db.timeline().expect("finish persisted the timeline");
    assert!(timeline.interval_count() > 0);

    let (dir, store) = temp_store();
    let id = store.save(&db).unwrap();
    let back = store.load(&id).unwrap();

    assert_eq!(back.meta(), db.meta());
    assert_eq!(
        back.cct().semantic_diff(db.cct()),
        None,
        "reloaded tree must be semantically identical"
    );
    let reloaded = back.timeline().expect("timeline survives the store");
    assert_eq!(reloaded, timeline);
    // The run's wall-clock window was stamped into both the meta and the
    // timeline, so edge idle stays measurable after a reload.
    assert_eq!(
        reloaded.window,
        Some((db.meta().started, db.meta().ended)),
        "stored window matches the stamped run window"
    );
    assert!(db.meta().ended > db.meta().started);
    // Every interval still resolves its name and its context. Self
    // intervals (present when the DEEPCONTEXT_TELEMETRY matrix runs this
    // suite with the self-timeline on) carry no workload context by
    // design, so only their names are checked.
    for interval in &reloaded.intervals {
        assert!(reloaded.name_of(interval.name).is_some());
        if interval.track.is_self() {
            assert!(
                interval.context.is_none(),
                "self intervals have no CCT node"
            );
            continue;
        }
        let context = interval.context.expect("contexts resolved");
        assert!(context.index() < back.cct().node_count());
    }
    fs::remove_dir_all(dir).unwrap();
}

/// Where `needle` first occurs in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("present")
}

#[test]
fn corrupt_and_truncated_store_files_error_not_panic() {
    let db = profile_multi_stream(1);
    let mut bytes = Vec::new();
    db.save(&mut bytes).unwrap();
    let (dir, store) = temp_store();
    let load_cut = |name: &str, bytes: &[u8]| {
        fs::write(dir.join(format!("{name}.dcprof")), bytes).unwrap();
        store.load(name)
    };

    // Wrong container version: rewrite the version the header line
    // carries to a future one.
    let header_end = find(&bytes, b"\n");
    assert!(
        bytes.starts_with(b"deepcontext-profile v"),
        "header is the version magic"
    );
    let mut future = b"deepcontext-profile v9".to_vec();
    future.extend_from_slice(&bytes[header_end..]);
    assert!(load_cut("wrong-version", &future).is_err());

    // Truncations at a few line boundaries of the text before the block
    // and after it.
    assert!(bytes.ends_with(b"\nend\n"), "container ends with end");
    let block_line = find(&bytes, b"\nintervals\t") + 1;
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|&(at, &b)| b == b'\n' && at < block_line)
        .map(|(at, _)| at)
        .collect();
    let end_line = bytes.len() - "end\n".len();
    for cut in [
        newlines[1],
        newlines[newlines.len() / 2],
        block_line,
        end_line,
    ] {
        assert!(
            load_cut("truncated", &bytes[..cut]).is_err(),
            "truncation at byte {cut} must error, not panic"
        );
    }

    // A cut at every byte of the interval block, its closing newline
    // included: a newline inside it is data, not a line boundary.
    let prefix = block_line + find(&bytes[block_line..], b"\n");
    let len: usize = std::str::from_utf8(&bytes[block_line + "intervals\t".len()..prefix])
        .unwrap()
        .parse()
        .unwrap();
    for cut in prefix + 1..=prefix + 1 + len {
        assert!(
            load_cut("in-block", &bytes[..cut]).is_err(),
            "cut at byte {cut} inside the interval block must error"
        );
    }

    // Garbage body after a valid magic.
    let garbage = b"deepcontext-profile v4\nnot\ta\tvalid\tsection\n";
    assert!(load_cut("garbage", garbage).is_err());

    // The intact run still loads from the same directory.
    let id = store.save(&db).unwrap();
    assert!(store.load(&id).is_ok());
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn trend_and_regression_rule_flag_an_injected_regression() {
    let (dir, store) = temp_store();
    // Three healthy baseline runs (the sim is deterministic, so their
    // totals agree exactly).
    for _ in 0..3 {
        store.save(&profile_multi_stream(2)).unwrap();
    }
    let filter = RunFilter::any().workload("multi-stream");
    let trend = store.trend(&filter, MetricKind::GpuTime).unwrap();
    assert_eq!(trend.len(), 3);
    assert!(trend[0].total > 0.0);
    assert_eq!(trend[0].total, trend[1].total);
    assert_eq!(trend[1].total, trend[2].total);

    let rule = RegressionRule::from_store(&store, &filter, MetricKind::GpuTime)
        .unwrap()
        .expect("store has baseline runs");
    assert_eq!(rule.baseline_runs(), 3);
    assert_eq!(rule.baseline_total(), trend[0].total);

    // Injected regression: triple the iterations, ~3x the GPU time.
    let regressed = profile_multi_stream(6);
    let mut analyzer = Analyzer::new();
    analyzer.add_rule(rule.clone());
    let report = analyzer.analyze(&regressed);
    let issues = report.by_rule("store-regression");
    assert!(
        issues
            .iter()
            .any(|i| i.severity == Severity::Critical && i.call_path == "<whole run>"),
        "whole-run regression must be flagged: {report}"
    );
    assert!(
        issues.iter().any(|i| i.call_path != "<whole run>"),
        "at least one regressed context is pinpointed"
    );

    // A healthy run of the same shape stays clean against the baseline.
    let healthy = profile_multi_stream(2);
    let mut clean_analyzer = Analyzer::new();
    clean_analyzer.add_rule(rule);
    assert!(clean_analyzer
        .analyze(&healthy)
        .by_rule("store-regression")
        .is_empty());

    // The mapped diff against a stored baseline run shows the growth.
    let baseline_run = store.load(&trend[0].id).unwrap();
    let diff = ProfileDiff::compare_mapped(&baseline_run, &regressed, MetricKind::GpuTime);
    let (base_total, cand_total) = diff.totals();
    assert!(cand_total > 2.0 * base_total);
    assert!(!diff.entries().is_empty());
    assert!(diff.entries().iter().all(|e| e.delta() != 0.0));
    fs::remove_dir_all(dir).unwrap();
}

// ---------------------------------------------------------------------
// Property: persisting two profiles through the store and diffing the
// reloads gives exactly the in-memory diff — even though reloaded trees
// use fresh interners.
// ---------------------------------------------------------------------

fn arb_frame(interner: Arc<Interner>) -> impl Strategy<Value = Frame> {
    let i2 = Arc::clone(&interner);
    let i3 = Arc::clone(&interner);
    prop_oneof![
        (0u8..4, 1u32..5, 0u8..3).prop_map(move |(f, line, func)| Frame::python(
            &format!("file{f}.py"),
            line,
            &format!("fn{func}"),
            &interner
        )),
        (0u8..5).prop_map(move |n| Frame::operator(&format!("aten::op{n}"), &i2)),
        (0u8..4, 0u64..4).prop_map(move |(k, pc)| Frame::gpu_kernel(
            &format!("kernel{k}"),
            "module.so",
            pc * 0x100,
            &i3
        )),
    ]
}

fn arb_profile() -> impl Strategy<Value = ProfileDb> {
    let interner = Interner::new();
    let frames = arb_frame(Arc::clone(&interner));
    let paths = prop::collection::vec(prop::collection::vec(frames, 1..6), 1..20);
    let values = prop::collection::vec(0.0f64..1e6, 1..20);
    (paths, values).prop_map(move |(paths, values)| {
        let mut cct = CallingContextTree::with_interner(Arc::clone(&interner));
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, *v);
        }
        ProfileDb::new(
            ProfileMeta {
                workload: "prop".into(),
                framework: "eager".into(),
                platform: "sim".into(),
                ..Default::default()
            },
            cct,
        )
    })
}

/// The committed container (timeline and journal sections; see
/// `tests/read_path_golden.rs` for which commit wrote it).
fn golden_container() -> Vec<u8> {
    fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/run.dcprof"
    ))
    .expect("golden")
}

/// Runs all three readers over `bytes`. None may panic; the store reads
/// through `ProfileDb::load`, so the two must agree on the verdict.
fn read_every_way(store: &ProfileStore, bytes: &[u8]) -> (bool, bool) {
    let loaded = ProfileDb::load(bytes).is_ok();
    let meta = ProfileDb::load_meta(bytes).is_ok();
    fs::write(store.dir().join("case.dcprof"), bytes).unwrap();
    assert_eq!(store.load("case").is_ok(), loaded);
    assert_eq!(store.load_meta("case").is_ok(), meta);
    (loaded, meta)
}

#[test]
fn truncation_at_every_line_boundary_errors_not_panics() {
    let golden = golden_container();
    let (dir, store) = temp_store();
    assert_eq!(read_every_way(&store, &golden), (true, true));
    let header_lines = golden
        .split(|&b| b == b'\n')
        .take_while(|line| !line.starts_with(b"strings\t"))
        .count();
    let boundaries = golden.iter().enumerate().filter(|(_, &b)| b == b'\n');
    for (line, (at, _)) in boundaries.enumerate() {
        // Cut after line `line`, with and without its newline. Every
        // `0x0A` byte counts, the four inside the interval block too:
        // there it is data, not a line boundary, and both cuts must
        // fail. Only the last line may lose its newline and still load.
        let whole = at + 1 == golden.len();
        for cut in [at, at + 1] {
            let (loaded, meta) = read_every_way(&store, &golden[..cut]);
            assert_eq!(loaded, whole, "cut at byte {cut}");
            assert_eq!(meta, line >= header_lines, "header read, cut at byte {cut}");
        }
    }
    fs::remove_dir_all(dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_corruptions_error_or_load_never_panic(
        at in 0usize..usize::MAX,
        byte in 0u32..256,
    ) {
        let mut bytes = golden_container();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        let (dir, store) = temp_store();
        read_every_way(&store, &bytes);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn arbitrary_bytes_error_or_load_never_panic(
        body in prop::collection::vec(
            prop_oneof![
                0u32..256,
                // Bias toward the bytes the format is made of.
                prop::sample::select(b"\t\n\r\\-0123456789KMRTPONAIBSC".map(u32::from).to_vec()),
                // ... and the interval block's varints are made of.
                prop::sample::select(vec![0x00, 0x01, 0x02, 0x7f, 0x80, 0x81, 0xff]),
            ],
            0..200,
        ),
        prefix in prop::sample::select(vec![
            "",
            "deepcontext-profile v4\n",
            "deepcontext-profile v4\nmeta\tworkload\tw\nstrings\t0\nnodes\t1\n-\tR\t0\n",
            "deepcontext-profile v4\nstrings\t0\nnodes\t1\n-\tR\t0\ntimeline\t1\t1\t0\t-\t-\ntnames\t1\nk\n",
            "deepcontext-profile v4\nstrings\t0\nnodes\t1\n-\tR\t0\ntimeline\t1\t1\t0\t-\t-\ntnames\t1\nk\nintervals\t8\n",
            "deepcontext-profile v4\nstrings\t0\nnodes\t1\n-\tR\t0\njournal\t1\t1\t0\njnames\t1\ns\n",
        ]),
    ) {
        let mut bytes = prefix.as_bytes().to_vec();
        bytes.extend(body.iter().map(|&b| b as u8));
        let (dir, store) = temp_store();
        read_every_way(&store, &bytes);
        fs::remove_dir_all(dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_then_diff_equals_in_memory_diff(
        base in arb_profile(),
        cand in arb_profile(),
    ) {
        let in_memory = ProfileDiff::compare_mapped(&base, &cand, MetricKind::GpuTime);

        let (dir, store) = temp_store();
        let base_id = store.save(&base).unwrap();
        let cand_id = store.save(&cand).unwrap();
        let stored = ProfileDiff::compare_mapped(
            &store.load(&base_id).unwrap(),
            &store.load(&cand_id).unwrap(),
            MetricKind::GpuTime,
        );
        fs::remove_dir_all(dir).unwrap();

        prop_assert_eq!(stored.totals(), in_memory.totals());
        prop_assert_eq!(stored.entries().len(), in_memory.entries().len());
        for (s, m) in stored.entries().iter().zip(in_memory.entries()) {
            prop_assert_eq!(&s.path, &m.path);
            prop_assert_eq!(s.baseline, m.baseline);
            prop_assert_eq!(s.candidate, m.candidate);
        }
    }
}
