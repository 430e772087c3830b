//! Core data structures for the DeepContext profiler.
//!
//! This crate implements the representation layer of the paper
//! *"DeepContext: A Context-aware, Cross-platform, and Cross-framework Tool
//! for Performance Profiling and Analysis of Deep Learning Workloads"*
//! (ASPLOS 2025): unified multi-layer [`Frame`]s and [`CallPath`]s spanning
//! Python, framework-operator, native C/C++, GPU API and GPU kernel levels,
//! the [`CallingContextTree`] with the paper's frame-collapse rules, online
//! metric aggregation ([`MetricStat`]: sum / min / max / mean / stddev) with
//! root-ward propagation, a virtual clock, and a persistent profile
//! database.
//!
//! # Quick example
//!
//! ```
//! use deepcontext_core::{CallingContextTree, Frame, MetricKind};
//!
//! let mut cct = CallingContextTree::new();
//! let interner = cct.interner();
//! let path = vec![
//!     Frame::python("train.py", 10, "train_step", &interner),
//!     Frame::operator("aten::matmul", &interner),
//!     Frame::gpu_kernel("sgemm_128x128", "libtorch_cuda.so", 0x4000, &interner),
//! ];
//! let node = cct.insert_path(&path);
//! cct.attribute(node, MetricKind::GpuTime, 1_500.0);
//! assert_eq!(cct.root_metric(MetricKind::GpuTime).map(|s| s.sum), Some(1_500.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cct;
mod clock;
mod db;
mod error;
pub mod failpoint;
mod frame;
mod fx;
mod interner;
mod journal;
pub mod json;
mod metrics;
mod path;
mod shard;
mod subscribers;
mod timeline;

pub use cct::{CallingContextTree, CctNode, FoldState, NodeId};
pub use clock::{TimeNs, VirtualClock};
pub use db::{ProfileDb, ProfileMeta};
pub use error::CoreError;
pub use failpoint::Failpoints;
pub use frame::{CallPath, Frame, FrameKey, FrameKind, OpPhase, ThreadRole};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use interner::{Interner, Sym};
pub use journal::{severity_label, StoredJournal, StoredJournalEvent};
pub use metrics::{MetricKind, MetricStat, MetricStore, StallReason};
pub use path::{LivePath, PathEntries, PathHandle, PathId, PathMemo, PathTable};
pub use shard::CctShard;
pub use subscribers::Subscribers;
pub use timeline::{Interval, IntervalKind, StoredTimeline, TrackKey};

/// Convenient re-exports for downstream crates.
pub mod prelude {
    pub use crate::{
        CallPath, CallingContextTree, CctShard, Frame, FrameKind, Interner, MetricKind, MetricStat,
        NodeId, OpPhase, PathHandle, PathId, ProfileDb, StallReason, Sym, TimeNs, VirtualClock,
    };
}
