//! End-to-end incident-journal acceptance: a fault-injected run (a
//! stalled directory bind, a stalled fold, transient store I/O faults)
//! round-trips through the on-disk profile container with its journal
//! intact, and the analyzer's `IncidentRule` names the incidents citing
//! journaled timestamps.

use std::sync::Arc;

use deepcontext_analyzer::{Analyzer, ProfileStore, RunFilter, Severity};
use deepcontext_core::{MetricKind, ProfileMeta};
use deepcontext_profiler::{
    journal_sites, Failpoints, JournalConfig, PipelineConfig, Profiler, ProfilerConfig,
    TelemetryConfig,
};

mod common;
use common::{rig, run_relu};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "deepcontext-incidents-{tag}-{}",
        std::process::id()
    ))
}

#[test]
fn fault_injected_run_round_trips_with_journal_and_analyzer_cites_it() {
    let rig = rig();
    let config = ProfilerConfig {
        ingestion_shards: 2,
        telemetry: TelemetryConfig::enabled(),
        journal: JournalConfig::enabled(),
        pipeline: PipelineConfig {
            failpoints: Failpoints::parse("dir_bind_stall@first;fold_stall@first")
                .expect("valid spec"),
            ..PipelineConfig::default()
        },
        ..ProfilerConfig::default()
    };
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    let journal = Arc::clone(profiler.journal().expect("journal enabled"));

    // The first launch stalls its directory bind, the first read its
    // fold; every flush is a journaled boundary.
    run_relu(&rig, 8);
    profiler.flush();
    profiler.with_cct(|cct| assert_eq!(cct.total(MetricKind::KernelLaunches), 8.0));
    run_relu(&rig, 8);
    profiler.flush();

    // The live journal already holds the causal record.
    let live = journal.snapshot();
    let fired: Vec<&str> = live
        .events_at(journal_sites::FAILPOINT_FIRE)
        .filter_map(|e| e.fields.iter().find(|(k, _)| k == "name"))
        .map(|(_, name)| name.as_str())
        .collect();
    assert_eq!(
        fired,
        ["dir_bind_stall", "fold_stall"],
        "faults injected through the config are journaled in the order they fired"
    );
    assert_eq!(live.events_at(journal_sites::PIPELINE_EPOCH).count(), 2);
    assert_eq!(
        live.recorded,
        live.event_count() as u64 + live.evicted,
        "conservation"
    );

    let db = profiler.finish(ProfileMeta {
        workload: "relu-faulted".into(),
        ..Default::default()
    });
    assert_eq!(db.cct().total(MetricKind::KernelLaunches), 16.0);

    // The journal tail is embedded in the profile, with header stamps.
    let stored = db.journal().expect("journal persisted with the profile");
    assert!(stored.has_site(journal_sites::FAILPOINT_FIRE));
    assert!(stored.to_jsonl().contains("\"site\":\"failpoint.fire\""));
    let extra = |key: &str| {
        db.meta()
            .extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("meta key {key} missing"))
    };
    assert_eq!(
        extra("journal.events").parse::<usize>().unwrap(),
        stored.event_count()
    );
    assert_eq!(extra("journal.sites"), "failpoint.fire,pipeline.epoch");

    // Round-trip through the store, riding out transient I/O faults that
    // the store journals as retries (into the live journal — the profile
    // was already snapshotted, so they are post-run events).
    let dir = temp_dir("roundtrip");
    let store = ProfileStore::open(&dir)
        .unwrap()
        .with_failpoints(Failpoints::parse("store_io_err@first;store_read_err@first").unwrap())
        .with_journal(Arc::clone(&journal));
    let id = store.save(&db).unwrap();
    let mut back = store.load(&id).unwrap();
    assert_eq!(back.journal(), db.journal(), "journal survives the disk");
    assert_eq!(back.meta(), db.meta());
    let post = journal.snapshot();
    assert_eq!(
        post.events_at(journal_sites::STORE_RETRY).count(),
        2,
        "one retried save, one retried load"
    );
    // Causal order: the bind stalled before the first boundary closed,
    // and both happened before the store was touched.
    let first = |site| post.events_at(site).next().expect("site journaled").seq;
    assert!(first(journal_sites::FAILPOINT_FIRE) < first(journal_sites::PIPELINE_EPOCH));
    assert!(first(journal_sites::PIPELINE_EPOCH) < first(journal_sites::STORE_RETRY));

    // Header-only incident filtering finds the run by its journal stamp.
    let hits = store
        .list_filtered(&RunFilter::any().incident(journal_sites::FAILPOINT_FIRE))
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].id, id);
    assert!(store
        .list_filtered(&RunFilter::any().incident(journal_sites::STORE_RETRY))
        .unwrap()
        .is_empty());

    // The whole record — retries included — survives the container too,
    // and the analyzer names the incidents, citing journaled timestamps.
    back.set_journal(Some(post.clone()));
    let whole = store.load(&store.save(&back).unwrap()).unwrap();
    assert_eq!(whole.journal(), Some(&post));
    let report = Analyzer::with_default_rules().analyze(&whole);
    let incidents: Vec<_> = report
        .issues()
        .iter()
        .filter(|i| i.rule == "incident")
        .collect();
    let retry = incidents
        .iter()
        .find(|i| i.message.contains("retried transient I/O 2 time(s)"))
        .expect("IncidentRule cites the retries");
    assert_eq!(retry.severity, Severity::Warning);
    assert!(
        retry.message.contains("op(s): load, save") && retry.message.contains("t=+"),
        "cites ops and a journaled time: {}",
        retry.message
    );
    let fire = incidents
        .iter()
        .find(|i| i.message.contains("injected fault"))
        .expect("IncidentRule cites the fires");
    assert_eq!(fire.severity, Severity::Info);
    assert!(
        fire.message.contains("dir_bind_stall, fold_stall"),
        "names the points: {}",
        fire.message
    );

    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn journal_disabled_run_has_no_journal_and_analyzer_stays_silent() {
    let rig = rig();
    let config = ProfilerConfig {
        journal: JournalConfig::default(),
        telemetry: TelemetryConfig::default(),
        ..ProfilerConfig::default()
    };
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    assert!(profiler.journal().is_none(), "disabled journal is absent");
    run_relu(&rig, 2);
    let db = profiler.finish(ProfileMeta::default());
    assert!(db.journal().is_none());
    assert!(!db
        .meta()
        .extra
        .iter()
        .any(|(k, _)| k.starts_with("journal.")));
    let report = Analyzer::with_default_rules().analyze(&db);
    assert!(!report.issues().iter().any(|i| i.rule == "incident"));
}

#[test]
fn finished_profilers_journal_is_not_pinned_by_the_failpoint_registry() {
    // Attach installs a fire observer holding the journal into the
    // profiler's own failpoint registry; the registry goes with the
    // sink, so nothing outlives the run to collect the next one's fires.
    let rig = rig();
    let config = ProfilerConfig {
        journal: JournalConfig::enabled(),
        ..ProfilerConfig::default()
    };
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    let journal = Arc::downgrade(profiler.journal().expect("journal enabled"));
    drop(profiler.finish(ProfileMeta::default()));
    assert!(
        journal.upgrade().is_none(),
        "a finished profiler's journal is still referenced"
    );
}
