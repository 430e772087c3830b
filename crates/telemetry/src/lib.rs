//! An empty package, kept so a lock file that cannot change stays valid.
//!
//! The profiler's report about itself is `Profiler::stats()`: plain
//! counters, always on, among them `fold_ns`, the time snapshot reads
//! spend folding dirty shards. Incident journals stored by earlier builds
//! load as `deepcontext_core::StoredJournal`.
//!
//! The package stays because the repo benchmark's lock file
//! (`benchmark/Cargo.lock`) records it as a dependency of
//! `deepcontext-pipeline` and `deepcontext-analyzer`, and an offline build
//! rewrites that file when the edge disappears. It goes, with those two
//! dependency lines, in the change that next rewrites that lock file.

#![forbid(unsafe_code)]
