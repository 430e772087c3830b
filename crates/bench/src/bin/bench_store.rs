//! Emits `BENCH_store.json`: the persistent profile container's
//! save+load throughput (intervals+nodes per second through a full
//! round trip) and the mapped diff's speedup over the label-path diff
//! on a large, mostly-unchanged profile pair.
//!
//! Acceptance bars (checked by `bench_check`):
//! * `save_load_events_per_sec` ≥ target — archiving a run is cheap;
//! * `warm_diff_speedup` ≥ target — `compare_mapped` renders only the
//!   changed subtree, so cross-run diffs against a warm baseline beat
//!   the full path-hash diff.
//!
//! Run from the repo root: `cargo run --release -p deepcontext-bench
//! --bin bench_store`.

use std::io::Write;

use deepcontext_bench::store::{build_profile, measure, regress};

const HOT_SCOPES: usize = 64;
const OPS_PER_SCOPE: usize = 16;
const INTERVALS: usize = 20_000;
const CHANGED_SCOPES: usize = 2;
const REPEATS: usize = 7;
const TARGET_SAVE_LOAD_EVENTS_PER_SEC: f64 = 2_000_000.0;
const TARGET_WARM_DIFF_SPEEDUP: f64 = 1.5;

fn main() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "measuring store round-trip and mapped-diff speedup ({HOT_SCOPES}x{OPS_PER_SCOPE} \
         contexts, {INTERVALS} intervals, {CHANGED_SCOPES} regressed scopes, host parallelism \
         {parallelism}, best of {REPEATS})..."
    );
    let base = build_profile(HOT_SCOPES, OPS_PER_SCOPE, INTERVALS);
    let cand = regress(&base, CHANGED_SCOPES);
    let point = measure(&base, &cand, REPEATS);
    let speedup = point.warm_diff_speedup();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"store\",\n");
    json.push_str("  \"baseline\": \"label-path diff rendering every context on both sides\",\n");
    json.push_str(&format!(
        "  \"contexts\": {},\n",
        HOT_SCOPES * OPS_PER_SCOPE
    ));
    json.push_str(&format!("  \"intervals\": {INTERVALS},\n"));
    json.push_str(&format!("  \"changed_scopes\": {CHANGED_SCOPES},\n"));
    json.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    json.push_str(&format!("  \"host_parallelism\": {parallelism},\n"));
    json.push_str(&format!(
        "  \"container_bytes\": {},\n",
        point.container_bytes
    ));
    json.push_str(&format!(
        "  \"changed_entries\": {},\n",
        point.changed_entries
    ));
    json.push_str(&format!("  \"full_diff_ns\": {:.0},\n", point.full_diff_ns));
    json.push_str(&format!(
        "  \"mapped_diff_ns\": {:.0},\n",
        point.mapped_diff_ns
    ));
    json.push_str(&format!(
        "  \"save_load_events_per_sec\": {:.0},\n",
        point.save_load_events_per_sec
    ));
    json.push_str(&format!(
        "  \"target_save_load_events_per_sec\": {TARGET_SAVE_LOAD_EVENTS_PER_SEC:.0},\n"
    ));
    json.push_str(&format!("  \"warm_diff_speedup\": {speedup:.3},\n"));
    json.push_str(&format!(
        "  \"target_warm_diff_speedup\": {TARGET_WARM_DIFF_SPEEDUP}\n"
    ));
    json.push_str("}\n");

    let mut file = std::fs::File::create("BENCH_store.json").expect("create BENCH_store.json");
    file.write_all(json.as_bytes()).expect("write bench json");
    eprintln!("{json}");
    eprintln!(
        "store: {:.2}M events/s through save+load, mapped diff {speedup:.2}x over full diff \
         ({} changed entries rendered)",
        point.save_load_events_per_sec / 1e6,
        point.changed_entries
    );
}
