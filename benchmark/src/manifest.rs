//! The metric tables, and `BENCHMARK.json` rendered from them.
//!
//! The tables are the single definition of what the benchmark reports:
//! the runs emit exactly these names and units, `--selfcheck` reads its
//! bounds here, and a unit test holds the committed `BENCHMARK.json`
//! to this rendering (`-- --manifest` prints it).

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// Seconds one run measures for when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Every end-to-end metric is a cost: lower is better.
///
/// The two times a user waits for are given as ratios to the bare run
/// of the same pair. The host has slow phases, minutes long, in which
/// every sample of a 30 s run reads 15–45 % high; absolute times then
/// spread wider between runs than any bound the contract allows, while
/// a ratio to work done in the same phase moves by a third of that. The
/// absolute values (`bench.overhead_ns_per_launch`, `bench.report_ms`)
/// are per-layer metrics of the traced run. Each bound is at least three
/// times the widest run-to-run spread seen for the metric on any
/// workload while sizing, capped at the contract's 0.25; the README
/// lists the spreads.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "overhead_x",
        unit: "ratio",
        bound: 0.16,
    },
    EndToEnd {
        name: "report_x",
        unit: "ratio",
        bound: 0.25,
    },
    EndToEnd {
        name: "profile_kib",
        unit: "KiB",
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Per-layer metrics, grouped by the crate they are charged to
/// (`substrate` = `dl-framework` + `dl-models` + `sim-gpu` +
/// `sim-runtime`). A rung that a workload does not climb reports 0.
pub const PER_LAYER: [PerLayer; 51] = [
    cost("substrate.bare_ns_per_launch", "ns"),
    gain("substrate.launches", "count"),
    cost("dlmonitor.attach_ns_per_launch", "ns"),
    cost("dlmonitor.callpath_ns_per_launch", "ns"),
    cost("dlmonitor.callpath_for_gpu_p50_ns", "ns"),
    cost("dlmonitor.callpath_for_gpu_p99_ns", "ns"),
    cost("dlmonitor.frames_per_path", "count"),
    cost("dlmonitor.callpaths_built", "count"),
    gain("dlmonitor.cache_hit_ratio", "ratio"),
    gain("dlmonitor.assoc_hits", "count"),
    cost("dlmonitor.native_ns_per_launch", "ns"),
    cost("pipeline.sink_ns_per_launch", "ns"),
    cost("pipeline.fine_ns_per_launch", "ns"),
    gain("pipeline.instruction_samples", "count"),
    cost("pipeline.snapshot_merges", "count"),
    gain("pipeline.shards_skipped", "count"),
    gain("pipeline.snapshot_skip_ratio", "ratio"),
    gain("pipeline.activities", "count"),
    cost("pipeline.orphans", "count"),
    cost("pipeline.dropped_events", "count"),
    cost("profiler.sampler_ns_per_launch", "ns"),
    gain("profiler.cpu_samples", "count"),
    cost("profiler.live_ns_per_launch", "ns"),
    cost("profiler.preview_ms", "ms"),
    cost("profiler.attach_ms", "ms"),
    cost("profiler.flush_ms", "ms"),
    cost("profiler.finish_ms", "ms"),
    cost("timeline.record_ns_per_launch", "ns"),
    gain("timeline.intervals", "count"),
    cost("timeline.dropped", "count"),
    cost("timeline.snapshot_ms", "ms"),
    cost("timeline.chrome_ms", "ms"),
    cost("analyzer.store_save_ms", "ms"),
    cost("analyzer.store_load_ms", "ms"),
    cost("analyzer.analyze_ms", "ms"),
    gain("analyzer.issues", "count"),
    cost("analyzer.diff_ms", "ms"),
    cost("core.save_ms", "ms"),
    cost("core.load_ms", "ms"),
    cost("core.container_bytes", "bytes"),
    cost("core.cct_nodes", "count"),
    cost("flamegraph.top_down_ms", "ms"),
    cost("flamegraph.bottom_up_ms", "ms"),
    cost("flamegraph.svg_ms", "ms"),
    cost("flamegraph.nodes", "count"),
    cost("baselines.trace_overhead_x", "ratio"),
    cost("baselines.trace_kib", "KiB"),
    cost("bench.overhead_ns_per_launch", "ns"),
    cost("bench.report_ms", "ms"),
    cost("bench.ladder_residual_share", "ratio"),
    cost("bench.trace_overhead_x", "ratio"),
];

/// The ladder must add up to the untraced overhead within this share.
pub const MAX_LADDER_RESIDUAL: f64 = 0.10;

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("String write");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .expect("String write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.bound
        )
        .expect("String write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}{comma}",
            m.name, m.unit
        )
        .expect("String write");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, valid_unit};

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            render(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --manifest`"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} is defined twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() < 64 * 1024);
    }
}
