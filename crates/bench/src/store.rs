//! Mapped-diff benchmark harness.
//!
//! [`ProfileDiff::compare_mapped`] renders call-path strings only for
//! *changed* union nodes, so diffing a run against a baseline that mostly
//! matches is cheaper than the label-path diff, which renders every
//! context on both sides. Measured as `compare` time over
//! `compare_mapped` time on a large profile pair differing in a small
//! subtree. (The repo benchmark's `analyzer.diff` span times `compare`
//! only; container save/load is its `core.*` / `analyzer.store_*` rungs.)

use std::time::Instant;

use deepcontext_analyzer::ProfileDiff;
use deepcontext_core::{CallingContextTree, Frame, MetricKind, ProfileDb, ProfileMeta};

/// One measured store scenario.
#[derive(Debug, Clone)]
pub struct StorePoint {
    /// Label-path diff time, nanoseconds.
    pub full_diff_ns: f64,
    /// Mapped diff time, nanoseconds.
    pub mapped_diff_ns: f64,
    /// Changed entries the mapped diff reported.
    pub changed_entries: usize,
}

impl StorePoint {
    /// `compare` over `compare_mapped` wall time.
    pub fn warm_diff_speedup(&self) -> f64 {
        self.full_diff_ns / self.mapped_diff_ns
    }
}

/// Builds a synthetic profile shaped like a real run: `hot_scopes ×
/// ops_per_scope` three-deep contexts with GPU time.
pub fn build_profile(hot_scopes: usize, ops_per_scope: usize) -> ProfileDb {
    let mut cct = CallingContextTree::new();
    let interner = cct.interner();
    for scope in 0..hot_scopes {
        for op in 0..ops_per_scope {
            let leaf = cct.insert_path(&[
                Frame::python("train.py", 10 + scope as u32, "step", &interner),
                Frame::operator(&format!("aten::op{op}"), &interner),
                Frame::gpu_kernel(
                    &format!("kernel_{scope}_{op}"),
                    "module.so",
                    0x1000 + (scope * ops_per_scope + op) as u64,
                    &interner,
                ),
            ]);
            cct.attribute(leaf, MetricKind::GpuTime, 1.0 + (op as f64));
        }
    }
    ProfileDb::new(
        ProfileMeta {
            workload: "bench-store".into(),
            framework: "eager".into(),
            platform: "sim".into(),
            ..Default::default()
        },
        cct,
    )
}

/// A near-copy of `base` regressed in `changed_scopes` leading scopes:
/// the shape `compare_mapped` is built for — almost everything aligns
/// and only a small subtree needs rendering.
pub fn regress(base: &ProfileDb, changed_scopes: usize) -> ProfileDb {
    let mut cand = base.clone();
    let hot: Vec<_> = cand
        .cct()
        .dfs()
        .filter(|n| {
            cand.cct()
                .node(*n)
                .frame()
                .short_label(&cand.cct().interner())
                .starts_with("train.py:1")
        })
        .take(changed_scopes)
        .collect();
    for scope in hot {
        cand.cct_mut().attribute(scope, MetricKind::GpuTime, 100.0);
    }
    cand
}

/// Measures both diffs of `db` against `cand`, best of `repeats`.
pub fn measure(db: &ProfileDb, cand: &ProfileDb, repeats: usize) -> StorePoint {
    let mut full_diff_ns = f64::INFINITY;
    let mut mapped_diff_ns = f64::INFINITY;
    let mut changed_entries = 0usize;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let full = ProfileDiff::compare(db, cand, MetricKind::GpuTime);
        full_diff_ns = full_diff_ns.min(start.elapsed().as_nanos() as f64);
        assert!(!full.entries().is_empty());

        let start = Instant::now();
        let mapped = ProfileDiff::compare_mapped(db, cand, MetricKind::GpuTime);
        mapped_diff_ns = mapped_diff_ns.min(start.elapsed().as_nanos() as f64);
        changed_entries = mapped.entries().len();
    }

    StorePoint {
        full_diff_ns,
        mapped_diff_ns,
        changed_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_diffs_a_small_changed_subtree() {
        let base = build_profile(20, 10);
        let cand = regress(&base, 2);
        let point = measure(&base, &cand, 1);
        assert!(point.changed_entries > 0);
        assert!(
            point.changed_entries < base.cct().node_count() / 4,
            "regression stays a small subtree ({} of {})",
            point.changed_entries,
            base.cct().node_count()
        );
        assert!(point.full_diff_ns > 0.0 && point.mapped_diff_ns > 0.0);
    }
}
