//! The timing gate for what the repo benchmark (`BENCHMARK.json`,
//! `benchmark/`) cannot see: it times `ProfileDiff::compare` only, so the
//! mapped diff is measured here, in-process, against the bar in
//! [`BARS`]. Prints one table and exits 1 when a measurement misses its
//! bar; writes no file.
//!
//! Run with `cargo run --release -p deepcontext-bench --bin bench_check`.

use std::process::ExitCode;

use deepcontext_bench::store::{build_profile, measure, regress};

/// The bars — each a lower bound — measured by [`main`] under the same
/// name.
const BARS: [(&str, f64); 1] = [
    // `compare` over `compare_mapped` on 1 024 contexts, two changed.
    ("warm_diff_speedup", 1.5),
];

/// One table line per bar and the number of bars missed; a bar with no
/// measurement is a miss.
fn judge(bars: &[(&str, f64)], measured: &[(&str, f64)]) -> (Vec<String>, usize) {
    let mut misses = 0;
    let lines = bars
        .iter()
        .map(|&(name, bound)| {
            let value = measured.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let ok = value.is_some_and(|v| v >= bound);
            misses += usize::from(!ok);
            let value = value.map_or("not measured".to_string(), |v| format!("{v:.2}"));
            let verdict = if ok { "ok" } else { "MISS" };
            format!("{verdict:>4}  {name:<28} {value:>12}  >= {bound}")
        })
        .collect();
    (lines, misses)
}

fn main() -> ExitCode {
    let base = build_profile(64, 16);
    let diff = measure(&base, &regress(&base, 2), 7);
    let measured = [("warm_diff_speedup", diff.warm_diff_speedup())];
    let (lines, misses) = judge(&BARS, &measured);
    for line in lines {
        println!("{line}");
    }
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_check: {misses} of {} bars missed", BARS.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_on_the_wrong_side_of_its_bar_or_not_measured_is_a_miss() {
        let bars = [("speedup", 5.0), ("ratio", 1.2)];
        let misses = |measured: &[(&str, f64)]| judge(&bars, measured).1;
        assert_eq!(misses(&[("speedup", 5.0), ("ratio", 1.2)]), 0);
        assert_eq!(misses(&[("speedup", 4.9), ("ratio", 2.0)]), 1);
        assert_eq!(misses(&[("ratio", 2.0)]), 1);
        assert_eq!(misses(&[("speedup", f64::NAN), ("ratio", 2.0)]), 1);
        let (lines, _) = judge(&bars, &[("ratio", 1.1)]);
        assert!(lines[0].starts_with("MISS") && lines[0].contains("not measured"));
        assert!(lines[1].starts_with("MISS") && lines[1].contains("1.10"));
    }
}
