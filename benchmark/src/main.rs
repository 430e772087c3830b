//! The repo benchmark: what DeepContext costs the workload it watches
//! (paper Fig. 6), end to end and layer by layer. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1> | --traced]
//!     [--selfcheck] [--manifest]
//! ```
//!
//! With `--workload` the process has that workload measured and prints
//! one JSON result object as its last line of standard output; without
//! it, every workload in turn, and their results together. Each
//! measurement runs in a child process of its own (`--measure`), so
//! peak RSS is per workload, no `DEEPCONTEXT_*` override reaches it, and
//! it can be pinned to one CPU.

#![forbid(unsafe_code)]

mod host;
mod json;
mod ladder;
mod manifest;
mod round;
mod schedule;
mod session;
mod spans;
mod stats;
mod untraced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::{parse_result, write_result, RunResult};
use manifest::{END_TO_END, MAX_LADDER_RESIDUAL, RUN_SECONDS};
use workloads::WORKLOADS;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    selfcheck: bool,
    manifest: bool,
    /// Internal: this process is the measuring child.
    measure: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: [--workload <{}>] [--seed <u64>] [--seconds <1..=60>] \
         [--trace <0|1> | --traced] [--selfcheck] [--manifest]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        selfcheck: false,
        manifest: false,
        measure: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workloads::by_name(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed is not a u64: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            "--measure" => args.measure = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.measure && args.workload.is_none() {
        return Err("--measure needs --workload".into());
    }
    Ok(args)
}

/// `benchmark/out`, next to this package's manifest: the only place the
/// benchmark writes. `cargo run` exports the manifest directory at run
/// time; the compile-time value covers a directly invoked binary.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    PathBuf::from(manifest_dir).join("out")
}

/// The measuring child, not yet spawned: this executable with
/// `--measure`, under `taskset -c <cpu>` when `pin` names a CPU, and
/// without any `DEEPCONTEXT_*` variable — the benchmark measures the
/// configuration a user gets by default, so no override may leak in
/// from the caller's shell.
fn measuring_command(exe: &Path, pin: Option<u32>) -> Command {
    let mut command = match pin {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.args(["-c", &cpu.to_string()]).arg(exe);
            taskset
        }
        None => Command::new(exe),
    };
    command
        .arg("--measure")
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DEEPCONTEXT_") {
            command.env_remove(key);
        }
    }
    command
}

/// Measures one workload in a child process, echoing its report, and
/// parses the result line.
///
/// The child is pinned to the last CPU this process may run on. The
/// workloads are one generator thread plus, on eager training, an
/// autograd thread it plays ping-pong with; left unpinned the scheduler
/// sometimes keeps the two on one CPU and sometimes, for minutes on end,
/// on two, where each hand-over wakes an idle virtual CPU — `fine_native`
/// bare time then reads 60 % higher and `overhead_x` 6.1 becomes 5.1.
/// Nothing runs in parallel in either placement, so pinning costs no
/// throughput; it takes the host's wake-up latency out of the numbers.
fn run_child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spawn = |pin: Option<u32>| {
        measuring_command(&exe, pin)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .spawn()
    };
    let pin = host::last_cpu(&host::cpus_allowed());
    let child = match spawn(pin) {
        Err(e) if pin.is_some() && e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("no taskset on this host: measuring unpinned");
            spawn(None)
        }
        spawned => spawned,
    };
    let output = child
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("cannot run the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{report}");
    parse_result(line).map_err(|e| format!("{workload}: {} and no result line: {e}", output.status))
}

/// Every workload, each in its own child. `Err` carries what failed.
fn run_set(seed: u64, seconds: u64, traced: bool) -> Result<Vec<RunResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let result = run_child(w.name, seed, seconds, traced)?;
            if result.correct {
                Ok(result)
            } else {
                Err(format!(
                    "{}: {} of {} operations failed",
                    w.name, result.failed, result.attempted
                ))
            }
        })
        .collect()
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
}

/// Two sets on one seed must agree within each metric's bound; a third
/// set on another seed shows what the seed moves; a traced set must add
/// up.
fn selfcheck(seed: u64, seconds: u64) -> Result<(), String> {
    let first = run_set(seed, seconds, false)?;
    let second = run_set(seed, seconds, false)?;
    let other = run_set(seed + 1, seconds, false)?;
    let traced = run_set(seed, seconds, true)?;

    let mut failures = Vec::new();
    println!(
        "selfcheck: relative gaps (same seed {seed} twice | seed {seed} vs {}), bound",
        seed + 1
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        println!("{}:", w.name);
        for m in &END_TO_END {
            let value = |set: &[RunResult]| set[i].value(m.name).expect("every metric is reported");
            let (a, b, c) = (value(&first), value(&second), value(&other));
            let (same, cross) = (relative_gap(a, b), relative_gap(a, c));
            let verdict = if same <= m.bound { "ok" } else { "OVER" };
            println!(
                "  {:<24} {a:>14.4} {b:>14.4} {c:>14.4} {:<6} {same:>8.4} | {cross:>8.4}  bound {:.2} {verdict}",
                m.name, m.unit, m.bound
            );
            if same > m.bound {
                failures.push(format!(
                    "{} {}: same-seed gap {same:.4} > {}",
                    w.name, m.name, m.bound
                ));
            }
        }
        let residual = traced[i]
            .value("bench.ladder_residual_share")
            .expect("traced runs report the residual");
        let verdict = if residual <= MAX_LADDER_RESIDUAL {
            "ok"
        } else {
            "OVER"
        };
        println!(
            "  bench.ladder_residual_share {residual:.4}  bound {MAX_LADDER_RESIDUAL:.2} {verdict}"
        );
        if residual > MAX_LADDER_RESIDUAL {
            failures.push(format!("{}: ladder residual {residual:.4}", w.name));
        }
    }
    if failures.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if args.manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.selfcheck {
        selfcheck(args.seed, args.seconds)
    } else if let Some(name) = &args.workload {
        if args.measure {
            let spec = workloads::by_name(name).expect("validated by parse_args");
            let run = if args.traced {
                ladder::run
            } else {
                untraced::run
            };
            return print_result(&run(spec, args.seed, args.seconds, &out_dir()));
        }
        return match run_child(name, args.seed, args.seconds, args.traced) {
            Ok(result) => print_result(&result),
            Err(problem) => fail(&problem),
        };
    } else {
        run_set(args.seed, args.seconds, args.traced).map(|results| {
            println!("all workloads, seed {}:", args.seed);
            for (w, result) in WORKLOADS.iter().zip(&results) {
                println!("{}:", w.name);
                for m in &result.metrics {
                    println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
                }
            }
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => fail(&problem),
    }
}

fn fail(problem: &str) -> ExitCode {
    eprintln!("FAILED: {problem}");
    ExitCode::FAILURE
}

/// The result line goes last on standard output; a run whose checks
/// failed still prints it, then exits non-zero.
fn print_result(result: &RunResult) -> ExitCode {
    match write_result(result) {
        Ok(line) => {
            println!("{line}");
            if result.correct {
                ExitCode::SUCCESS
            } else {
                fail(&format!(
                    "{} of {} operations failed",
                    result.failed, result.attempted
                ))
            }
        }
        Err(problem) => fail(&problem),
    }
}
