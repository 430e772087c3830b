//! Tier-1 guard for the API surface the frozen repo benchmark reads.
//!
//! `benchmark/src/workloads.rs::resolved` formats four `ProfilerConfig`
//! fields into every run's `resolved:` header line, and
//! `benchmark/src/{session,untraced}.rs` read six `ProfilerStats` fields
//! by name out of a copied `Option<ProfilerStats>`; the benchmark is
//! built from its own manifest, outside `cargo test`. These tests use
//! both the same way, so removing, renaming or retyping one fails here
//! rather than in the benchmark build later. `ingestion_mode`,
//! `launch_batch`, `directory_map`, `dropped_events` and
//! `poisoned_events` are vestiges nothing but the benchmark reads; no
//! other test names them.

use deepcontext_profiler::{
    IngestionMode, Profiler, ProfilerConfig, ProfilerStats, DEFAULT_LAUNCH_BATCH,
};

mod common;
use common::{rig, run_relu};

#[test]
fn resolved_header_fields_keep_their_names_and_formats() {
    let config = ProfilerConfig {
        // Pinned: the CI matrix moves this default through the
        // environment. Every other field is what a user gets.
        ingestion_shards: 16,
        ..ProfilerConfig::deepcontext()
    };
    let resolved = format!(
        "ingestion_shards {}, ingestion_mode {:?}, launch_batch {}, directory_map {:?}",
        config.ingestion_shards,
        config.ingestion_mode,
        config.pipeline.launch_batch,
        config.pipeline.directory_map,
    );
    assert_eq!(
        resolved,
        "ingestion_shards 16, ingestion_mode Sync, launch_batch 64, directory_map Striped"
    );
    assert_eq!(config.ingestion_mode, IngestionMode::Sync);
    assert_eq!(config.pipeline.launch_batch, DEFAULT_LAUNCH_BATCH);
}

#[test]
fn the_loss_counters_the_benchmark_sums_read_zero_after_a_flushed_run() {
    let rig = rig();
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext(),
        &rig.env,
        &rig.monitor,
        &rig.gpu,
    );
    run_relu(&rig, 6);
    profiler.flush();
    let pstats = profiler.stats();
    assert_eq!((pstats.launches, pstats.activities), (6, 6));
    // benchmark/src/session.rs: `lost`.
    assert_eq!(
        pstats.orphans + pstats.dropped_events + pstats.poisoned_events,
        0
    );
}

#[test]
fn stats_fields_keep_their_names_and_copy_out_of_a_shared_option() {
    let held: &Option<ProfilerStats> = &Some(ProfilerStats {
        activities: 7,
        orphans: 1,
        dropped_events: 2,
        poisoned_events: 3,
        launches: 5,
        peak_bytes: 2048,
        ..ProfilerStats::default()
    });
    // `Option::expect` through a `&` needs `ProfilerStats: Copy`
    // (benchmark/src/untraced.rs:118).
    let pstats = held.expect("profiled session has stats");
    let lost = pstats.orphans + pstats.dropped_events + pstats.poisoned_events;
    assert_eq!((pstats.activities, lost, pstats.launches), (7, 6, 5));
    assert_eq!(pstats.peak_bytes as f64 / 1024.0, 2.0);
}
