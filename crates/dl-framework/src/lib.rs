//! Simulated deep learning frameworks.
//!
//! DeepContext profiles PyTorch (eager) and JAX (JIT) workloads; this
//! crate provides both execution models against the simulated substrates,
//! with exactly the interception surfaces DLMonitor needs (paper §4.1):
//!
//! * [`EagerEngine`] — a PyTorch-like eager dispatcher whose core's
//!   [`CallbackRegistry::on_op`] is the `aten::addGlobalCallback`
//!   analogue, with an autograd tape assigning **sequence ids** to forward
//!   operators, and a dedicated **real backward thread** per engine that
//!   replays the tape with no Python context — faithfully reproducing the
//!   forward/backward association problem the paper solves;
//! * [`JitEngine`] — a JAX-like tracing/compiling engine whose compilation
//!   passes (canonicalize → elementwise fusion → DCE) fire compile
//!   callbacks and record the **fused→original operator mapping** with
//!   trace-time call paths (paper Figure 4);
//! * a framework-agnostic operator vocabulary ([`Op`], [`OpKind`]) — the
//!   concrete realisation of DLMonitor's "framework-specific data into a
//!   framework-agnostic format" conversion;
//! * [`DataLoader`] — a worker-pool input pipeline with a CPU
//!   oversubscription model (paper §6.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod callbacks;
mod core;
mod dataloader;
mod eager;
mod error;
mod jit;
mod ops;
mod pyscope;
mod registry;
mod tensor;

pub use crate::core::FrameworkCore;
pub use callbacks::{CallbackRegistry, FrameworkCallbackId, GraphEvent, MemEvent, OpEvent, Site};
pub use dataloader::{DataLoader, DataLoaderConfig};
pub use eager::EagerEngine;
pub use error::FrameworkError;
pub use jit::{
    CompiledGraph, FusionMapping, Graph, GraphNode, JitEngine, NodeId as GraphNodeId, Tracer,
};
pub use ops::{backward_ops, Op, OpAttrs, OpKind};
pub use pyscope::{PyScope, PythonSim};
pub use registry::KernelRegistry;
pub use tensor::{DType, Layout, TensorMeta};
