//! The traced run: leveled experimentation plus spans.
//!
//! XSP-style: enable one level of the stack at a time and charge the
//! increment in wall time per launch to that level. Each rung is a whole
//! session on a fresh `TestBed`; a *round* runs every rung once, all of
//! them interleaved chunk by chunk in an order shuffled by the seed, and
//! a rung's wall time is the best-of-rounds estimate of `round.rs`. The
//! ladder is only trusted if it adds up: `bench.ladder_residual_share`
//! compares the sum of increments with the overhead measured by `rU`,
//! the same full configuration run exactly as the untraced benchmark
//! runs it.
//!
//! Every call the benchmark makes into a layer is also wrapped in a
//! span; the spans of the full rung give the report-path and set-up
//! layer times, and all of them are written to
//! `out/trace-<workload>.json` at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use deepcontext_analyzer::ProfileDiff;
use deepcontext_core::{MetricKind, ProfileDb};

use crate::json::{Metric, RunResult};
use crate::manifest::PER_LAYER;
use crate::round::{best_wall_ns, chunks_for, run_round, Plan};
use crate::schedule::Rng;
use crate::session::{CallPathSamples, Outcome};
use crate::spans::{self_times, total_ns, Recorder, Span};
use crate::stats::{median, minimum, percentile, tail_percentile};
use crate::untraced::{check_unperturbed, print_row};
use crate::workloads::{Rung, WorkloadSpec};

/// Fewest rounds a traced run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// The per-layer metric a rung's increment over its predecessor is
/// reported as.
fn increment_metric(rung: Rung) -> &'static str {
    match rung {
        Rung::Monitor => "dlmonitor.attach_ns_per_launch",
        Rung::CallPath => "dlmonitor.callpath_ns_per_launch",
        Rung::Sink => "pipeline.sink_ns_per_launch",
        Rung::Sampler => "profiler.sampler_ns_per_launch",
        Rung::Native => "dlmonitor.native_ns_per_launch",
        Rung::Fine => "pipeline.fine_ns_per_launch",
        Rung::Timeline => "timeline.record_ns_per_launch",
        Rung::Live => "profiler.live_ns_per_launch",
        Rung::Bare | Rung::Trace | Rung::Untraced => unreachable!("not an increment"),
    }
}

/// One round: every rung's outcome.
type Round = Vec<Outcome>;

fn of(round: &Round, rung: Rung) -> &Outcome {
    round
        .iter()
        .find(|o| o.rung == rung)
        .expect("every round runs every rung")
}

/// Per-round values of `f`.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// In-memory container round trip of the loaded profile: what
/// `ProfileStore` adds on top of this is the file system and the retry
/// loop.
fn container_round_trip(rec: &Recorder, session: u32, db: &ProfileDb) -> usize {
    let mut bytes = Vec::new();
    rec.time(session, "core.save", || {
        db.save(&mut bytes).expect("in-memory save")
    });
    black_box(rec.time(session, "core.load", || {
        ProfileDb::load(bytes.as_slice()).expect("in-memory load")
    }));
    bytes.len()
}

/// Runs ladder rounds of `spec` for about `seconds` and reports every
/// per-layer metric.
pub fn run(spec: &WorkloadSpec, seed: u64, seconds: u64, out_dir: &Path) -> RunResult {
    let mut rng = Rng::new(seed, spec.name);
    let chunks = chunks_for(spec, &mut rng);
    let rec = Recorder::enabled();
    let plan = Plan {
        spec,
        chunks: &chunks,
        store_dir: &out_dir.join(format!("store-{}-{}", spec.name, std::process::id())),
        recorder: &rec,
        keep_full_profile: true,
    };
    let full = spec.full_rung();
    let mut ordered: Vec<Rung> = spec.ladder.to_vec();
    ordered.extend([Rung::Trace, Rung::Untraced]);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut container_bytes = Vec::new();
    let mut previous_profile: Option<ProfileDb> = None;
    loop {
        let mut order = ordered.clone();
        rng.shuffle(&mut order);
        let mut round = run_round(&plan, &order);
        let bare = of(&round, Rung::Bare).simulated();
        for outcome in round.iter_mut().filter(|o| o.rung != Rung::Bare) {
            check_unperturbed(spec, bare, outcome);
            let Some(profile) = outcome.loaded.take() else {
                continue;
            };
            container_bytes.push(container_round_trip(&rec, outcome.session, &profile) as f64);
            if let Some(previous) = &previous_profile {
                black_box(rec.time(outcome.session, "analyzer.diff", || {
                    ProfileDiff::compare(previous, &profile, MetricKind::GpuTime)
                }));
            }
            previous_profile = Some(profile);
        }
        rounds.push(round);
        let per_round = start.elapsed() / rounds.len() as u32;
        if rounds.len() >= MIN_ROUNDS && start.elapsed() + per_round > budget {
            break;
        }
    }

    // ---- the ladder -------------------------------------------------
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    println!(
        "{}: {} rounds of {} rungs, {} timed iterations in {} chunks each, seed {seed}, {:.1} s",
        spec.name,
        rounds.len(),
        ordered.len(),
        spec.iterations,
        chunks.len(),
        start.elapsed().as_secs_f64()
    );
    println!("  resolved: {}", spec.resolved());
    let kernels = of(&rounds[0], Rung::Bare).kernels as f64;
    let wall = |rung: Rung| best_wall_ns(rounds.iter().map(|r| of(r, rung).chunk_ns.as_slice()));
    let ns_per_launch = |rung: Rung| wall(rung) / kernels;
    println!("  wall ns per launch by rung: best of rounds, then the per-round samples");
    for &rung in &ordered {
        let samples = per_round(&rounds, |r| {
            of(r, rung).chunk_ns.iter().sum::<u64>() as f64 / kernels
        });
        print_row(rung.label(), "ns", ns_per_launch(rung), &samples);
    }
    values.insert("substrate.bare_ns_per_launch", ns_per_launch(Rung::Bare));
    values.insert("substrate.launches", kernels);
    for pair in spec.ladder.windows(2) {
        values.insert(
            increment_metric(pair[1]),
            ns_per_launch(pair[1]) - ns_per_launch(pair[0]),
        );
    }
    // The increments telescope to `full - r0`; what can fail to add up
    // is the traced ladder against the untraced reference.
    let reference = ns_per_launch(Rung::Untraced) - ns_per_launch(Rung::Bare);
    let climbed = ns_per_launch(full) - ns_per_launch(Rung::Bare);
    values.insert("bench.overhead_ns_per_launch", reference);
    values.insert(
        "bench.report_ms",
        minimum(&per_round(&rounds, |r| {
            of(r, Rung::Untraced).report_ns as f64 / 1e6
        })),
    );
    values.insert(
        "bench.ladder_residual_share",
        (climbed - reference).abs() / reference,
    );
    values.insert("bench.trace_overhead_x", wall(full) / wall(Rung::Untraced));
    values.insert(
        "baselines.trace_overhead_x",
        wall(Rung::Trace) / wall(Rung::Bare),
    );
    values.insert(
        "baselines.trace_kib",
        median(&per_round(&rounds, |r| {
            of(r, Rung::Trace).trace_bytes as f64 / 1024.0
        })),
    );

    // ---- r2's call-path samples -------------------------------------
    let mut samples = CallPathSamples::default();
    for round in &rounds {
        let s = of(round, Rung::CallPath)
            .callpath
            .as_ref()
            .expect("r2 samples");
        samples.ns.extend_from_slice(&s.ns);
        samples.frames.extend_from_slice(&s.frames);
    }
    values.insert("dlmonitor.callpath_for_gpu_p50_ns", median(&samples.ns));
    values.insert(
        "dlmonitor.callpath_for_gpu_p99_ns",
        percentile(&samples.ns, 99.0),
    );
    if let Some(p) = tail_percentile(samples.ns.len()) {
        println!(
            "  callpath_for_gpu: {} timed calls, p50 {:.0} ns, p{p} {:.0} ns",
            samples.ns.len(),
            median(&samples.ns),
            percentile(&samples.ns, p)
        );
    }
    values.insert(
        "dlmonitor.frames_per_path",
        samples.frames.iter().sum::<f64>() / samples.frames.len() as f64,
    );

    // ---- counters at the full rung ----------------------------------
    let counter = |f: &dyn Fn(&Outcome) -> f64| median(&per_round(&rounds, |r| f(of(r, full))));
    let pstat = |o: &Outcome| o.profiler.expect("full rung has profiler stats");
    let mstat = |o: &Outcome| o.monitor.expect("full rung has monitor stats");
    for (name, value) in [
        (
            "dlmonitor.callpaths_built",
            counter(&|o| mstat(o).callpaths_built as f64),
        ),
        (
            "dlmonitor.cache_hit_ratio",
            counter(&|o| mstat(o).cache_hits as f64 / mstat(o).callpaths_built.max(1) as f64),
        ),
        (
            "dlmonitor.assoc_hits",
            counter(&|o| mstat(o).assoc_hits as f64),
        ),
        (
            "pipeline.instruction_samples",
            counter(&|o| pstat(o).instruction_samples as f64),
        ),
        (
            "pipeline.snapshot_merges",
            counter(&|o| pstat(o).snapshot_merges as f64),
        ),
        (
            "pipeline.shards_skipped",
            counter(&|o| pstat(o).shards_skipped as f64),
        ),
        (
            "pipeline.snapshot_skip_ratio",
            counter(&|o| {
                let s = pstat(o);
                s.shards_skipped as f64 / (s.shards_skipped + s.snapshot_merges).max(1) as f64
            }),
        ),
        (
            "pipeline.activities",
            counter(&|o| pstat(o).activities as f64),
        ),
        ("pipeline.orphans", counter(&|o| pstat(o).orphans as f64)),
        (
            "pipeline.dropped_events",
            counter(&|o| pstat(o).dropped_events as f64),
        ),
        (
            "profiler.cpu_samples",
            counter(&|o| pstat(o).cpu_samples as f64),
        ),
        (
            "timeline.intervals",
            counter(&|o| pstat(o).timeline_intervals as f64),
        ),
        (
            "timeline.dropped",
            counter(&|o| pstat(o).timeline_dropped as f64),
        ),
        ("core.cct_nodes", counter(&|o| o.facts.cct_nodes as f64)),
        ("analyzer.issues", counter(&|o| o.facts.issues as f64)),
        ("flamegraph.nodes", counter(&|o| o.facts.flame_nodes as f64)),
    ] {
        values.insert(name, value);
    }
    values.insert("core.container_bytes", median(&container_bytes));

    // ---- layer times from the full rung's spans ---------------------
    let spans = rec.spans();
    let span_ms = |name: &str| {
        minimum(&per_round(&rounds, |r| {
            total_ns(&spans, of(r, full).session, name) as f64 / 1e6
        }))
    };
    for (metric, span) in [
        ("profiler.attach_ms", "profiler.attach"),
        ("profiler.flush_ms", "profiler.flush"),
        ("profiler.finish_ms", "profiler.finish"),
        ("analyzer.store_save_ms", "analyzer.store_save"),
        ("analyzer.store_load_ms", "analyzer.store_load"),
        ("analyzer.analyze_ms", "analyzer.analyze"),
        ("core.save_ms", "core.save"),
        ("core.load_ms", "core.load"),
        ("flamegraph.top_down_ms", "flamegraph.top_down"),
        ("flamegraph.bottom_up_ms", "flamegraph.bottom_up"),
        ("flamegraph.svg_ms", "flamegraph.svg"),
        ("timeline.snapshot_ms", "timeline.snapshot"),
        ("timeline.chrome_ms", "timeline.chrome"),
    ] {
        values.insert(metric, span_ms(span));
    }
    // Consecutive rounds' profiles are diffed, so round 0 has no diff.
    let diff_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "analyzer.diff")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    values.insert("analyzer.diff_ms", minimum(&diff_ms));
    values.insert(
        "profiler.preview_ms",
        minimum(&per_round(&rounds, |r| {
            let o = of(r, full);
            let total = total_ns(&spans, o.session, "profiler.preview") as f64 / 1e6;
            total / f64::from(o.facts.previews.max(1))
        })),
    );

    let session_rungs: Vec<(u32, Rung, usize)> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, round)| round.iter().map(move |o| (o.session, o.rung, i)))
        .filter(|(_, rung, _)| *rung != Rung::Untraced)
        .collect();
    write_trace(spec, seed, &spans, &session_rungs, out_dir);
    print_span_table(&spans);

    let attempted: u64 = rounds.iter().flatten().map(|o| o.attempted).sum();
    let failed: u64 = rounds.iter().flatten().map(|o| o.failed).sum();
    println!("  per-layer metrics:");
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            // A rung this workload does not climb contributes nothing.
            let value = values.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<36} {value:>14.4} {}", m.name, m.unit);
            Metric::new(m.name, value, m.unit)
        })
        .collect();
    println!("  {failed} failed of {attempted} attempted");
    RunResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Count, total and self time per span name.
fn print_span_table(spans: &[Span]) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(&selfs) {
        let row = by_name.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.duration_ns();
        row.2 += self_ns;
    }
    println!("  spans (all traced sessions): name, calls, total ms, self ms");
    for (name, (calls, total, own)) in by_name {
        println!(
            "  {name:<28} {calls:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn write_trace(
    spec: &WorkloadSpec,
    seed: u64,
    spans: &[Span],
    sessions: &[(u32, Rung, usize)],
    out_dir: &Path,
) {
    let selfs = self_times(spans);
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"sessions\": [",
        spec.name
    );
    for (i, (session, rung, round)) in sessions.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}{{\"session\": {session}, \"rung\": \"{}\", \"round\": {round}}}",
            rung.label()
        )
        .expect("String write");
    }
    out.push_str("], \"spans\": [\n");
    for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        write!(
            out,
            "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"session\": {}, \"self_ns\": {self_ns}}}",
            span.name, span.start_ns, span.end_ns, span.session
        )
        .expect("String write");
    }
    out.push_str("\n]}\n");
    std::fs::create_dir_all(out_dir).expect("out directory is creatable");
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, out).expect("trace file is writable");
    println!("  wrote {} spans to {}", spans.len(), path.display());
}
