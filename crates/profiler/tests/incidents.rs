//! End-to-end incident-journal acceptance: a fault-injected run (worker
//! panic + forced degradation + transient store I/O faults) round-trips
//! through the on-disk profile container with its journal intact, and
//! the analyzer's `IncidentRule` / `DegradedRunRule` name the incidents
//! citing journaled timestamps.

use std::sync::Arc;

use deepcontext_analyzer::{Analyzer, ProfileStore, RunFilter, Severity};
use deepcontext_core::{MetricKind, ProfileMeta, ThreadRole, TimeNs};
use deepcontext_profiler::{
    journal_sites, Failpoints, IngestionMode, JournalConfig, PipelineConfig, Profiler,
    ProfilerConfig, SupervisorConfig, SupervisorState, TelemetryConfig,
};
use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
use dlmonitor::DlMonitor;
use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
use sim_runtime::{RuntimeEnv, ThreadRegistry};

struct Rig {
    env: RuntimeEnv,
    gpu: Arc<GpuRuntime>,
    engine: Arc<EagerEngine>,
    monitor: Arc<DlMonitor>,
}

fn rig() -> Rig {
    let env = RuntimeEnv::new();
    let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
    let core = FrameworkCore::new(
        env.clone(),
        Arc::clone(&gpu),
        DeviceId(0),
        "/lib/libtorch_cpu.so",
        "libtorch_cuda.so",
        TimeNs(3_000),
    );
    let engine = EagerEngine::new(Arc::clone(&core));
    let monitor = DlMonitor::init(&env, deepcontext_core::Interner::new());
    monitor.attach_framework(core.callbacks());
    monitor.attach_gpu(&gpu);
    Rig {
        env,
        gpu,
        engine,
        monitor,
    }
}

fn run_relu(rig: &Rig, n: usize) {
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    let core = Arc::clone(rig.engine.core());
    let _py = core.python().frame(&main, "train.py", 7, "step");
    for _ in 0..n {
        rig.engine
            .op(Op::new(OpKind::Relu), &[TensorMeta::new([1 << 18])])
            .unwrap();
    }
    rig.gpu.synchronize(DeviceId(0)).unwrap();
}

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
        ingestion_mode: IngestionMode::Async,
        ingestion_shards: 2,
        telemetry: TelemetryConfig::enabled(),
        journal: JournalConfig::enabled(),
        supervisor: Some(SupervisorConfig {
            sample_stride: 4,
            ..SupervisorConfig::default()
        }),
        pipeline: PipelineConfig {
            workers: 1,
            launch_batch: 1,
            failpoints: Failpoints::parse("worker_panic@shard0").expect("valid spec"),
            ..PipelineConfig::default()
        },
        ..ProfilerConfig::default()
    };
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    let journal = Arc::clone(profiler.journal().expect("journal enabled"));
    let supervisor = Arc::clone(profiler.supervisor().expect("supervisor configured"));

    // Phase 1: the injected worker panic quarantines shard 0; events
    // keep flowing so the quarantined shard poisons its share.
    run_relu(&rig, 8);
    profiler.flush();
    // Phase 2: forced degradation, then more sampled ingestion.
    supervisor.force_state(SupervisorState::Degraded);
    run_relu(&rig, 8);
    profiler.flush();

    // The live journal already holds the causal record.
    let live = journal.snapshot();
    assert!(live.has_site(journal_sites::SHARD_QUARANTINE));
    assert!(
        live.has_site(journal_sites::FAILPOINT_FIRE),
        "a fault injected through the config is journaled next to its symptom"
    );
    assert!(live.has_site(journal_sites::SUPERVISOR_TRANSITION));
    assert_eq!(
        live.recorded,
        live.event_count() as u64 + live.evicted,
        "conservation"
    );

    let db = profiler.finish(ProfileMeta {
        workload: "relu-faulted".into(),
        ..Default::default()
    });

    // The journal tail is embedded in the profile, with header stamps.
    let stored = db.journal().expect("journal persisted with the profile");
    assert!(stored.has_site(journal_sites::SHARD_QUARANTINE));
    assert!(stored.has_site(journal_sites::SUPERVISOR_TRANSITION));
    assert!(stored.to_jsonl().contains("\"site\":\"shard.quarantine\""));
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
    assert!(extra("journal.sites").contains("shard.quarantine"));
    assert!(
        extra("supervisor.first_degraded_ns")
            .parse::<u64>()
            .unwrap()
            > 0,
        "first-degraded stamp present for header-only listings"
    );

    // Round-trip through the store, riding out transient I/O faults that
    // the store journals as retries (into the live journal — the profile
    // was already snapshotted, so they are post-run events).
    let dir = temp_dir("roundtrip");
    let store = ProfileStore::open(&dir)
        .unwrap()
        .with_failpoints(Failpoints::parse("store_io_err@first;store_read_err@first").unwrap())
        .with_journal(Arc::clone(&journal));
    let id = store.save(&db).unwrap();
    let back = store.load(&id).unwrap();
    assert_eq!(back.journal(), db.journal(), "journal survives the disk");
    assert!(back
        .journal()
        .is_some_and(|j| j.has_site(journal_sites::FAILPOINT_FIRE)));
    assert_eq!(back.meta(), db.meta());
    let post = journal.snapshot();
    assert_eq!(
        post.events_at(journal_sites::STORE_RETRY).count(),
        2,
        "one retried save, one retried load"
    );

    // Header-only incident filtering finds the run by its journal stamp.
    let hits = store
        .list_filtered(&RunFilter::any().incident(journal_sites::SHARD_QUARANTINE))
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].id, id);
    assert!(store
        .list_filtered(&RunFilter::any().incident(journal_sites::STORE_RETRY))
        .unwrap()
        .is_empty());

    // The analyzer names the incidents, citing journaled timestamps.
    let report = Analyzer::with_default_rules().analyze(&back);
    let incident = report
        .issues()
        .iter()
        .find(|i| i.rule == "incident" && i.message.contains("quarantine"))
        .expect("IncidentRule names the quarantine");
    assert!(
        incident.message.contains("t=+"),
        "cites a journaled time: {}",
        incident.message
    );
    if back.cct().total(MetricKind::PoisonedEvents) > 0.0 {
        assert_eq!(incident.severity, Severity::Critical);
        assert!(incident.call_path.contains("<poisoned>"));
    }
    let degraded = report
        .issues()
        .iter()
        .find(|i| i.rule == "degraded-run")
        .expect("DegradedRunRule fires on the degraded run");
    assert!(
        degraded.message.contains("journaled transitions:")
            && degraded.message.contains("Degraded at t=+"),
        "cites the journaled transition time: {}",
        degraded.message
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
fn supervisor_only_config_observes_health() {
    // A supervisor is fed health windows, which come from telemetry: a
    // config that names only the supervisor must still observe them
    // instead of sitting inert in `Healthy`.
    let rig = rig();
    let config = ProfilerConfig {
        telemetry: TelemetryConfig::default(),
        supervisor: Some(SupervisorConfig::default()),
        ..ProfilerConfig::default()
    };
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    assert!(profiler.health_report().is_some());
    let supervisor = Arc::clone(profiler.supervisor().expect("supervisor configured"));
    // Windows are counted while not Healthy, so observe from Degraded.
    supervisor.force_state(SupervisorState::Degraded);
    run_relu(&rig, 2);
    profiler.flush();
    assert_eq!(
        supervisor.status().degraded_windows,
        1,
        "flush fed the supervisor one health window"
    );
}

#[test]
fn finished_profilers_journal_is_not_pinned_by_the_failpoint_registry() {
    // The default config's failpoint registry is the process-global
    // `from_env()` one, and attach installs a fire observer into it: the
    // observer must not own the journal, or the ring (and its interner)
    // outlives the run and keeps collecting the next run's fires.
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
