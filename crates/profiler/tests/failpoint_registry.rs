//! `DEEPCONTEXT_FAILPOINTS` seeds one failpoint registry per profiler.
//!
//! The spec is read from the environment once per process, so this file
//! holds exactly one test: it sets the variable before anything reads it.

use deepcontext_core::failpoint::sites;
use deepcontext_core::ProfileMeta;
use deepcontext_profiler::{Profiler, ProfilerConfig};

mod common;
use common::{rig, run_relu};

/// What one run's registry saw at the failpoint sites.
#[derive(Debug, PartialEq, Eq)]
struct RunFires {
    /// Checks at `dir_bind_stall`: one per correlated launch.
    bind_hits: u64,
    /// Fires at `dir_bind_stall` and `fold_stall`.
    fired: [u64; 2],
}

/// One monitored process with a profiler attached under the
/// environment's failpoint spec, run for `launches` kernels, read from a
/// clone of the registry taken before attach (clones share counters).
fn fires_of_a_run(launches: usize) -> RunFires {
    let rig = rig();
    let config = ProfilerConfig::default();
    let failpoints = config.pipeline.failpoints.clone();
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    run_relu(&rig, launches);
    profiler.flush();
    // A read folds: the second site.
    profiler.with_cct(|cct| assert!(cct.node_count() > 1));
    drop(profiler.finish(ProfileMeta::default()));
    RunFires {
        bind_hits: failpoints.hits(sites::DIR_BIND_STALL),
        fired: [sites::DIR_BIND_STALL, sites::FOLD_STALL].map(|site| failpoints.fired(site)),
    }
}

#[test]
fn two_profilers_under_one_env_spec_each_count_exactly_their_own_fires() {
    std::env::set_var(
        "DEEPCONTEXT_FAILPOINTS",
        "dir_bind_stall@first;fold_stall@first",
    );
    // Concurrently, the way parallel tests attach. A registry shared by
    // the process would count both runs' binds (8 for each) and, with
    // `@first` firing once per process, leave one run without its fault.
    let launches = [3, 5];
    let runs: Vec<RunFires> = std::thread::scope(|scope| {
        let handles: Vec<_> = launches
            .map(|n| scope.spawn(move || fires_of_a_run(n)))
            .into_iter()
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (run, n) in runs.into_iter().zip(launches) {
        assert_eq!(
            run,
            RunFires {
                bind_hits: n as u64,
                fired: [1, 1],
            },
            "a run of {n} launches"
        );
    }
}
