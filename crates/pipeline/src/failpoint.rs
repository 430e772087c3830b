//! Fault injection for the pipeline, re-exported from
//! [`deepcontext_core::failpoint`].
//!
//! The registry itself lives in `deepcontext-core` so every crate in the
//! workspace can check points without a dependency cycle; this module is
//! the pipeline-facing door, documenting which sites this crate actually
//! wires up:
//!
//! | site (see [`sites`])       | where it fires                          | effect      |
//! |----------------------------|------------------------------------------|------------|
//! | [`sites::DIR_BIND_STALL`]  | correlation-directory bind               | brief stall |
//! | [`sites::FOLD_STALL`]      | incremental snapshot fold                | brief stall |
//!
//! (The `STORE_IO_ERR` / `STORE_READ_ERR` sites fire in
//! `deepcontext-analyzer`'s `ProfileStore`.)
//!
//! Tests inject through [`PipelineConfig::failpoints`]
//! (`Failpoints::parse("fold_stall@first")`); CI injects through the
//! `DEEPCONTEXT_FAILPOINTS` environment variable, which
//! [`PipelineConfig::default`] parses via [`Failpoints::from_env`].
//!
//! [`PipelineConfig::failpoints`]: crate::PipelineConfig::failpoints
//! [`PipelineConfig::default`]: crate::PipelineConfig

pub use deepcontext_core::failpoint::{sites, Failpoints};
