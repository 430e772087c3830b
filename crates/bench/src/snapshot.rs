//! Snapshot-latency measurement: cold full folds vs the warm
//! generation-tracked cache, under varying numbers of dirty shards.
//!
//! The scenario mirrors interactive analysis (paper §4.3/§4.4): a
//! profile has been ingested, and an analysis front-end repeatedly asks
//! for the merged calling context tree (`Profiler::with_cct`) while
//! little or nothing new arrives. The cold path re-folds all 16 shards
//! every time; the cached path folds only shards whose dirty generation
//! advanced. `bench_snapshot` turns these measurements into
//! `BENCH_snapshot.json`.

use std::sync::Arc;
use std::time::Instant;

use deepcontext_core::{Interner, MetricKind};
use deepcontext_profiler::{EventSink, ShardedSink};
use dlmonitor::EventOrigin;

use crate::ingestion::{ingest_stream, producer_stream};

/// Shards the benchmark sink uses (the profiler default).
pub const SHARDS: usize = 16;

/// Producer thread ids used while populating — enough distinct ids that
/// the splitmix router covers every shard.
pub const POPULATE_TIDS: u64 = 64;

/// One measured snapshot scenario.
#[derive(Debug, Clone)]
pub struct SnapshotPoint {
    /// Scenario label (`cold_full_fold`, `warm_0_dirty`, ...).
    pub scenario: &'static str,
    /// Shards re-ingested between consecutive snapshots (0 = fully
    /// quiescent; `SHARDS` = everything dirty every time).
    pub dirty_tids: u64,
    /// Median nanoseconds per snapshot.
    pub nanos: f64,
}

/// Builds and fully populates a 16-shard sink: `contexts_per_tid`
/// distinct kernel contexts for each of [`POPULATE_TIDS`] producers
/// (via the ingestion benchmark's event builder), with every launch's
/// activity record resolved.
pub fn populated_sink(contexts_per_tid: u64) -> (Arc<Interner>, Arc<ShardedSink>) {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), SHARDS);
    for tid in 0..POPULATE_TIDS {
        let events = producer_stream(&interner, tid as usize, contexts_per_tid as usize);
        ingest_stream(sink.as_ref(), events);
    }
    (interner, sink)
}

/// Dirties the shards `tids` distinct producers route to by attributing
/// one CPU sample each (a fraction of [`POPULATE_TIDS`] touches a
/// fraction of the shards; `tids = 1` dirties exactly one shard).
pub fn dirty_shards(interner: &Arc<Interner>, sink: &ShardedSink, tids: u64) {
    for tid in 0..tids {
        let event = producer_stream(interner, tid as usize, 1).remove(0);
        let origin = EventOrigin {
            tid: event.origin.tid,
            ..EventOrigin::default()
        };
        sink.cpu_sample(&origin, event.path, MetricKind::CpuTime, 100.0);
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Measures one scenario: `prepare` runs before each timed snapshot
/// (dirtying shards, or nothing), `snapshot` is the timed operation.
pub fn measure(repeats: usize, mut prepare: impl FnMut(), mut snapshot: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        prepare();
        let t0 = Instant::now();
        snapshot();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    median(samples)
}

/// Runs the full scenario matrix on one populated sink.
pub fn snapshot_matrix(contexts_per_tid: u64, repeats: usize) -> Vec<SnapshotPoint> {
    let (interner, sink) = populated_sink(contexts_per_tid);
    let mut points = Vec::new();

    // Cold: the historical full fold, paid on every request.
    let nanos = measure(
        repeats,
        || {},
        || {
            std::hint::black_box(sink.snapshot_uncached().node_count());
        },
    );
    points.push(SnapshotPoint {
        scenario: "cold_full_fold",
        dirty_tids: POPULATE_TIDS,
        nanos,
    });

    // Warm the cache once, then the cached scenarios.
    sink.with_snapshot(&mut |cct| {
        std::hint::black_box(cct.node_count());
    });
    for (scenario, tids) in [
        ("warm_0_dirty", 0u64),
        ("warm_1_dirty", 1),
        ("warm_all_dirty", POPULATE_TIDS),
    ] {
        let nanos = measure(
            repeats,
            || dirty_shards(&interner, &sink, tids),
            || {
                sink.with_snapshot(&mut |cct| {
                    std::hint::black_box(cct.node_count());
                });
            },
        );
        points.push(SnapshotPoint {
            scenario,
            dirty_tids: tids,
            nanos,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populated_sink_spreads_over_all_shards() {
        let (_interner, sink) = populated_sink(8);
        assert_eq!(sink.counters().orphans, 0);
        let cct = sink.snapshot();
        assert_eq!(sink.counters().snapshot_merges, SHARDS as u64);
        assert_eq!(
            cct.total(MetricKind::KernelLaunches),
            (POPULATE_TIDS * 8) as f64
        );
    }

    #[test]
    fn dirtying_one_tid_refolds_one_shard() {
        let (interner, sink) = populated_sink(4);
        let _ = sink.snapshot();
        let merges = sink.counters().snapshot_merges;
        dirty_shards(&interner, &sink, 1);
        let _ = sink.snapshot();
        let counters = sink.counters();
        assert_eq!(counters.snapshot_merges, merges + 1, "one dirty shard");
        assert!(counters.shards_skipped >= (SHARDS - 1) as u64);
    }

    #[test]
    fn matrix_produces_all_scenarios() {
        let points = snapshot_matrix(4, 3);
        let labels: Vec<_> = points.iter().map(|p| p.scenario).collect();
        assert_eq!(
            labels,
            [
                "cold_full_fold",
                "warm_0_dirty",
                "warm_1_dirty",
                "warm_all_dirty"
            ]
        );
        assert!(points.iter().all(|p| p.nanos > 0.0));
    }
}
