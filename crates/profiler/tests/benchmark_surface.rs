//! Tier-1 guard for the API surface the frozen repo benchmark reads.
//!
//! `benchmark/src/workloads.rs::resolved` formats these four
//! `ProfilerConfig` fields into every run's `resolved:` header line; the
//! benchmark is built from its own manifest, outside `cargo test`. This
//! test formats them the same way, so removing or retyping one fails
//! here rather than in the benchmark build later.

use deepcontext_profiler::{IngestionMode, ProfilerConfig, DEFAULT_LAUNCH_BATCH};

#[test]
fn resolved_header_fields_keep_their_names_and_formats() {
    let config = ProfilerConfig {
        // Pinned: the CI matrix moves these two defaults through the
        // environment.
        ingestion_shards: 16,
        ingestion_mode: IngestionMode::Sync,
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
        format!(
            "ingestion_shards 16, ingestion_mode Sync, launch_batch {DEFAULT_LAUNCH_BATCH}, \
             directory_map Striped"
        )
    );
}
