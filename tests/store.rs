//! End-to-end profile store tests: a finished profiler run persists to a
//! store directory with its timeline intact, writers saving one run at
//! once each publish under their own id, corrupt files surface as
//! `CoreError`s instead of panics (named cases, every byte of the
//! interval block cut off, then arbitrary bytes, every line-boundary
//! truncation and random single-byte corruptions of the golden
//! container), a diff against a stored baseline run shows an injected
//! regression, and `ProfileDiff::compare` agrees with a label-path
//! oracle, in memory and after a round trip.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
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

/// Published runs in `dir`: its `.dcprof` files.
fn runs(dir: &Path) -> usize {
    fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("dcprof".as_ref()))
        .count()
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
    // Every interval still resolves its name and its context.
    for interval in reloaded.tracks.iter().flat_map(|(_, slots)| slots.iter()) {
        assert!(reloaded.names.get(interval.name.index() as usize).is_some());
        let context = interval.context().expect("contexts resolved");
        assert!(context.index() < back.cct().node_count());
    }
    fs::remove_dir_all(dir).unwrap();
}

/// Where `needle` first occurs in `haystack`.
#[test]
fn concurrent_saves_of_one_run_each_publish_under_their_own_id() {
    // Eight writers save the same run 25 times each into one store: every
    // save derives the same base id, so all but one race for a suffix.
    let db = profile_multi_stream(1);
    let (dir, store) = temp_store();
    let ids: Vec<String> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    (0..25)
                        .map(|_| store.save(&db).expect("save"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer"))
            .collect()
    });
    let distinct: BTreeSet<&String> = ids.iter().collect();
    assert_eq!(distinct.len(), 200, "two saves were given one id");
    assert_eq!(runs(&dir), 200, "a save replaced another");
    for id in &ids {
        assert_eq!(store.load(id).unwrap().meta(), db.meta(), "run {id}");
    }
    fs::remove_dir_all(dir).unwrap();
}

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
    let garbage = b"deepcontext-profile v6\nnot\ta\tvalid\tsection\n";
    assert!(load_cut("garbage", garbage).is_err());

    // The intact run still loads from the same directory.
    let id = store.save(&db).unwrap();
    assert!(store.load(&id).is_ok());
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_stored_baseline_diff_shows_an_injected_regression() {
    let (dir, store) = temp_store();
    let id = store.save(&profile_multi_stream(2)).unwrap();
    let baseline_run = store.load(&id).unwrap();
    assert!(baseline_run.cct().total(MetricKind::GpuTime) > 0.0);

    // Injected regression: triple the iterations, ~3x the GPU time.
    let regressed = profile_multi_stream(6);
    let diff = ProfileDiff::compare(&baseline_run, &regressed, MetricKind::GpuTime);
    let (base_total, cand_total) = diff.totals();
    assert!(cand_total > 2.0 * base_total);
    assert!(!diff.entries().is_empty());
    assert!(diff.entries().iter().all(|e| e.delta() != 0.0));
    assert!(diff.improvements().next().is_none(), "nothing got cheaper");

    // A healthy run of the same shape shows no change against it.
    let healthy = profile_multi_stream(2);
    let same = ProfileDiff::compare(&baseline_run, &healthy, MetricKind::GpuTime);
    assert!(same.entries().is_empty(), "{}", same.render_top(5));
    fs::remove_dir_all(dir).unwrap();
}

// ---------------------------------------------------------------------
// Properties of `ProfileDiff::compare` over two profiles, each with its
// own interner: it equals a label-path oracle, and persisting both
// profiles through the store and diffing the reloads (fresh interners
// again) gives exactly the in-memory diff.
// ---------------------------------------------------------------------

/// Frames whose short labels collide without their collapse keys doing
/// so (`d0/file1.py:2` beside `d1/file1.py:2`, one kernel name at several
/// PCs), and launch APIs of both vendors.
fn arb_frame(interner: Arc<Interner>) -> impl Strategy<Value = Frame> {
    let i2 = Arc::clone(&interner);
    let i3 = Arc::clone(&interner);
    let i4 = Arc::clone(&interner);
    prop_oneof![
        (0u8..2, 0u8..4, 1u32..5, 0u8..3).prop_map(move |(d, f, line, func)| Frame::python(
            &format!("d{d}/file{f}.py"),
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
        prop::sample::select(vec![
            ("cuLaunchKernel", "libcuda.so"),
            ("hipModuleLaunchKernel", "libamdhip64.so"),
        ])
        .prop_map(move |(api, library)| Frame::gpu_api(api, library, 0x40, &i4)),
    ]
}

/// Small integer samples: sums are exact in any order, and the two sides
/// of a diff often tie on a path.
fn arb_profile() -> impl Strategy<Value = ProfileDb> {
    let interner = Interner::new();
    let frames = arb_frame(Arc::clone(&interner));
    let paths = prop::collection::vec(prop::collection::vec(frames, 1..6), 1..20);
    let values = prop::collection::vec(0u32..4, 1..20);
    (paths, values).prop_map(move |(paths, values)| {
        let mut cct = CallingContextTree::with_interner(Arc::clone(&interner));
        for (p, v) in paths.iter().zip(values.iter().cycle()) {
            let leaf = cct.insert_path(p);
            cct.attribute(leaf, MetricKind::GpuTime, f64::from(*v));
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

/// Adds each label path of `db` (GPU API frames dropped) to `sums`: the
/// summed inclusive GPU time of the contexts on it, at index `side`.
fn add_label_path_sums(db: &ProfileDb, side: usize, sums: &mut BTreeMap<String, [f64; 2]>) {
    let (cct, interner) = (db.cct(), db.cct().interner());
    let not_api = |f: &Frame| f.kind() != FrameKind::GpuApi;
    for node in cct.dfs().skip(1).filter(|&n| not_api(cct.node(n).frame())) {
        let path = cct.frames_to_root(node);
        let labels: Vec<_> = path
            .iter()
            .filter(|f| not_api(f))
            .map(|f| f.short_label(&interner))
            .collect();
        sums.entry(labels.join(" > ")).or_default()[side] +=
            cct.node(node).metrics().sum(MetricKind::GpuTime);
    }
}

/// The committed container (with a timeline section; see
/// `tests/read_path_golden.rs` for which commit wrote it).
fn golden_container() -> Vec<u8> {
    fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/run.dcprof"
    ))
    .expect("golden")
}

/// Runs both readers over `bytes`, the store's from `dir`. Neither may
/// panic; the store reads through `ProfileDb::load`, so the two must
/// agree on the verdict.
fn read_every_way(dir: &Path, store: &ProfileStore, bytes: &[u8]) -> bool {
    let loaded = ProfileDb::load(bytes).is_ok();
    fs::write(dir.join("case.dcprof"), bytes).unwrap();
    assert_eq!(store.load("case").is_ok(), loaded);
    loaded
}

#[test]
fn truncation_at_every_line_boundary_errors_not_panics() {
    let golden = golden_container();
    let (dir, store) = temp_store();
    assert!(read_every_way(&dir, &store, &golden));
    let boundaries = golden.iter().enumerate().filter(|(_, &b)| b == b'\n');
    for (at, _) in boundaries {
        // Cut after line `line`, with and without its newline. Every
        // `0x0A` byte counts, the four inside the interval block too:
        // there it is data, not a line boundary, and both cuts must
        // fail. Only the last line may lose its newline and still load.
        let whole = at + 1 == golden.len();
        for cut in [at, at + 1] {
            assert_eq!(
                read_every_way(&dir, &store, &golden[..cut]),
                whole,
                "cut at byte {cut}"
            );
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
        read_every_way(&dir, &store, &bytes);
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
            "deepcontext-profile v6\n",
            "deepcontext-profile v6\nmeta\tworkload\tw\nstrings\t0\nnodes\t1\n-\tR\t0\n",
            "deepcontext-profile v6\nstrings\t0\nnodes\t1\n-\tR\t0\ntimeline\t1\t1\t0\t-\t-\ntnames\t1\nk\n",
            "deepcontext-profile v6\nstrings\t0\nnodes\t1\n-\tR\t0\ntimeline\t1\t1\t0\t-\t-\ntnames\t1\nk\nintervals\t8\n",
            "deepcontext-profile v6\nstrings\t0\nnodes\t1\n-\tR\t0\njournal\t1\t1\t0\njnames\t1\ns\n",
        ]),
    ) {
        let mut bytes = prefix.as_bytes().to_vec();
        bytes.extend(body.iter().map(|&b| b as u8));
        let (dir, store) = temp_store();
        let loaded = read_every_way(&dir, &store, &bytes);
        // A stray `journal` line is no end marker, whatever follows it.
        prop_assert!(!(loaded && prefix.contains("\njournal\t")));
        fs::remove_dir_all(dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn diff_equals_the_label_path_oracle(
        base in arb_profile(),
        cand in arb_profile(),
    ) {
        let diff = ProfileDiff::compare(&base, &cand, MetricKind::GpuTime);
        prop_assert_eq!(
            diff.totals(),
            (base.cct().total(MetricKind::GpuTime), cand.cct().total(MetricKind::GpuTime))
        );
        let mut sums = BTreeMap::new();
        add_label_path_sums(&base, 0, &mut sums);
        add_label_path_sums(&cand, 1, &mut sums);
        let mut expected: Vec<_> = sums.into_iter().filter(|(_, [b, c])| b != c).collect();
        expected.sort_by(|(p, [b, c]), (q, [d, e])| {
            (e - d).abs().total_cmp(&(c - b).abs()).then_with(|| p.cmp(q))
        });
        prop_assert_eq!(diff.entries().len(), expected.len());
        for (entry, (path, [b, c])) in diff.entries().iter().zip(&expected) {
            prop_assert_eq!(&entry.path, path);
            prop_assert_eq!(entry.baseline.to_bits(), b.to_bits());
            prop_assert_eq!(entry.candidate.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn store_then_diff_equals_in_memory_diff(
        base in arb_profile(),
        cand in arb_profile(),
    ) {
        let in_memory = ProfileDiff::compare(&base, &cand, MetricKind::GpuTime);

        let (dir, store) = temp_store();
        let base_id = store.save(&base).unwrap();
        let cand_id = store.save(&cand).unwrap();
        let stored = ProfileDiff::compare(
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
