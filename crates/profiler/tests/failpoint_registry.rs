//! `DEEPCONTEXT_FAILPOINTS` seeds one failpoint registry per profiler.
//!
//! The spec is read from the environment once per process, so this file
//! holds exactly one test: it sets the variable before anything reads it.

use deepcontext_core::ProfileMeta;
use deepcontext_profiler::{journal_sites, JournalConfig, Profiler, ProfilerConfig};

mod common;
use common::{rig, run_relu};

/// One monitored process with a journaling profiler attached under the
/// environment's failpoint spec, run for `launches` kernels.
fn fires_of_a_run(launches: usize) -> Vec<String> {
    let rig = rig();
    let config = ProfilerConfig {
        journal: JournalConfig::enabled(),
        ..ProfilerConfig::default()
    };
    let profiler = Profiler::attach(config, &rig.env, &rig.monitor, &rig.gpu);
    run_relu(&rig, launches);
    profiler.flush();
    // A read folds: the second site.
    profiler.with_cct(|cct| assert!(cct.node_count() > 1));
    let db = profiler.finish(ProfileMeta::default());
    let journal = db.journal().expect("journal enabled");
    journal
        .events_at(journal_sites::FAILPOINT_FIRE)
        .map(|e| e.fields[0].1.clone())
        .collect()
}

#[test]
fn two_profilers_under_one_env_spec_each_journal_exactly_their_own_fires() {
    std::env::set_var(
        "DEEPCONTEXT_FAILPOINTS",
        "dir_bind_stall@first;fold_stall@first",
    );
    // Concurrently, the way parallel tests attach: with one shared
    // registry, `@first` fires once per process and one run journals
    // the other's fault (or nothing at all).
    let runs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [3, 5]
            .map(|launches| scope.spawn(move || fires_of_a_run(launches)))
            .into_iter()
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for fires in runs {
        assert_eq!(fires, ["dir_bind_stall", "fold_stall"]);
    }
}
