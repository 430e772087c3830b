//! The untraced run: paired bare/profiled sessions and the end-to-end
//! metrics a user of the profiler would see.
//!
//! A closed loop from a single generator thread: the two sessions of a
//! pair advance in turn, one chunk at a time, and the only other threads
//! are the ones the system itself creates. Which side leads alternates
//! per chunk and per pair from a seed-drawn start. Time-valued metrics
//! are best-of-pairs estimates (see `round.rs` for why); the printed
//! table also gives each one's median and quartiles over pairs.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::host::peak_rss_mib;
use crate::json::{Metric, RunResult};
use crate::round::{best_wall_ns, chunks_for, run_round, Plan};
use crate::schedule::{PairOrder, Rng};
use crate::session::{Outcome, Simulated};
use crate::spans::Recorder;
use crate::stats::{minimum, summarize};
use crate::workloads::{Rung, WorkloadSpec};

/// Pairs are added two at a time (so each side leads half of them)
/// until the next two would overrun `--seconds`; never fewer than this.
/// Peak RSS is read after exactly this many, so it does not depend on
/// how many pairs the host had time for.
const MIN_PAIRS: usize = 4;

/// The bare side must be the same simulated run as the profiled side:
/// the profiler may cost host time, never virtual time or launches.
pub fn check_unperturbed(spec: &WorkloadSpec, bare: Simulated, other: &mut Outcome) {
    other.attempted += 1;
    if bare != other.simulated() {
        other.failed += 1;
        eprintln!(
            "CHECK FAILED [{} {}]: bare run made {} launches in {} virtual, this run {} in {}",
            spec.name,
            other.rung.label(),
            bare.kernels,
            bare.virtual_wall,
            other.kernels,
            other.virtual_wall
        );
    }
}

/// Prints one metric's row: the reported value, then how the per-pair
/// samples it was estimated from are distributed.
pub fn print_row(name: &str, unit: &str, reported: f64, samples: &[f64]) -> f64 {
    let s = summarize(samples);
    println!(
        "  {name:<36} {reported:>14.4} {unit:<6} median {:>12.4}  q1 {:>12.4}  q3 {:>12.4}  n {}",
        s.median, s.q1, s.q3, s.n
    );
    reported
}

/// Runs paired sessions of `spec` for about `seconds` and reports the
/// end-to-end metrics.
pub fn run(spec: &WorkloadSpec, seed: u64, seconds: u64, out_dir: &Path) -> RunResult {
    let mut rng = Rng::new(seed, spec.name);
    let order = PairOrder::new(&mut rng);
    let chunks = chunks_for(spec, &mut rng);
    let plan = Plan {
        spec,
        chunks: &chunks,
        store_dir: &out_dir.join(format!("store-{}-{}", spec.name, std::process::id())),
        recorder: &Recorder::disabled(),
        keep_full_profile: false,
    };

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut bare: Vec<Outcome> = Vec::new();
    let mut profiled: Vec<Outcome> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let sides = if order.bare_first(bare.len()) {
            [Rung::Bare, Rung::Untraced]
        } else {
            [Rung::Untraced, Rung::Bare]
        };
        for outcome in run_round(&plan, &sides) {
            if outcome.rung == Rung::Bare {
                bare.push(outcome);
            } else {
                profiled.push(outcome);
            }
        }
        let pairs = profiled.len();
        check_unperturbed(spec, bare[pairs - 1].simulated(), &mut profiled[pairs - 1]);
        if pairs == MIN_PAIRS {
            peak_rss = peak_rss_mib();
        }
        let per_pair = start.elapsed() / pairs as u32;
        if pairs >= MIN_PAIRS && pairs.is_multiple_of(2) && start.elapsed() + 2 * per_pair > budget
        {
            break;
        }
    }

    let kernels = bare[0].kernels as f64;
    let bare_wall = best_wall_ns(bare.iter().map(|o| o.chunk_ns.as_slice()));
    let profiled_wall = best_wall_ns(profiled.iter().map(|o| o.chunk_ns.as_slice()));
    let raw_wall = |o: &Outcome| o.chunk_ns.iter().sum::<u64>() as f64;
    let per_pair = |f: &dyn Fn(f64, f64) -> f64| -> Vec<f64> {
        bare.iter()
            .zip(&profiled)
            .map(|(b, p)| f(raw_wall(b), raw_wall(p)))
            .collect()
    };
    let of_profiled =
        |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> { profiled.iter().map(f).collect() };
    let report_ns = of_profiled(&|p| p.report_ns as f64);
    let best_report_ns = minimum(&report_ns);
    let setup_s = of_profiled(&|p| p.setup_ns as f64 / 1e9);
    let profile_kib = of_profiled(&|p| {
        p.profiler.expect("profiled session has stats").peak_bytes as f64 / 1024.0
    });

    let attempted: u64 = bare.iter().chain(&profiled).map(|o| o.attempted).sum();
    let failed: u64 = bare.iter().chain(&profiled).map(|o| o.failed).sum();

    println!(
        "{}: {} pairs of {} timed iterations in {} chunks ({} launches), seed {seed}, {:.1} s",
        spec.name,
        profiled.len(),
        spec.iterations,
        chunks.len(),
        kernels,
        start.elapsed().as_secs_f64()
    );
    println!("  resolved: {}", spec.resolved());
    println!(
        "  value (best of pairs), then the per-pair samples; the first four rows are not metrics"
    );
    print_row(
        "bare_wall_ms",
        "ms",
        bare_wall / 1e6,
        &per_pair(&|b, _| b / 1e6),
    );
    print_row(
        "profiled_wall_ms",
        "ms",
        profiled_wall / 1e6,
        &per_pair(&|_, p| p / 1e6),
    );
    print_row(
        "overhead_ns_per_launch",
        "ns",
        (profiled_wall - bare_wall) / kernels,
        &per_pair(&|b, p| (p - b) / kernels),
    );
    print_row(
        "report_ms",
        "ms",
        best_report_ns / 1e6,
        &of_profiled(&|p| p.report_ns as f64 / 1e6),
    );
    let mut metrics = Vec::new();
    let mut report = |name: &str, unit: &str, value: f64, samples: &[f64]| {
        metrics.push(Metric::new(
            name,
            print_row(name, unit, value, samples),
            unit,
        ));
    };
    report(
        "overhead_x",
        "ratio",
        profiled_wall / bare_wall,
        &per_pair(&|b, p| p / b),
    );
    let report_x: Vec<f64> = report_ns
        .iter()
        .zip(&bare)
        .map(|(r, b)| r / raw_wall(b))
        .collect();
    report("report_x", "ratio", best_report_ns / bare_wall, &report_x);
    report(
        "profile_kib",
        "KiB",
        summarize(&profile_kib).median,
        &profile_kib,
    );
    report("peak_rss_mib", "MiB", peak_rss, &[peak_rss]);
    report("setup_s", "s", minimum(&setup_s), &setup_s);
    println!(
        "  failed_share {:.6} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    RunResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}
