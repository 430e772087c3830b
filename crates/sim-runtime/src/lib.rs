//! Simulated process runtime for DeepContext.
//!
//! The real DeepContext obtains Python frames from CPython's `PyFrame`
//! APIs, native frames from libunwind, and library address ranges from
//! `LD_AUDIT`. None of those exist in this environment, so this crate
//! provides drop-in simulated equivalents with the same *interfaces and
//! costs*:
//!
//! * [`PythonStack`] — a per-thread interpreter frame stack walked exactly
//!   like `PyFrame_GetBack`;
//! * [`NativeStack`] + [`Unwinder`] — per-thread native frames unwound
//!   like `unw_step`, with a global step counter so the paper's
//!   call-path-caching optimization can be quantified;
//! * [`LibraryMap`] — `LD_AUDIT`-style library load registration and
//!   PC→library lookup (this is how DLMonitor recognises `libpython.so`
//!   frames);
//! * [`SymbolTable`] / [`LineMap`] — symbol and DWARF-like line resolution
//!   used by the analyzer;
//! * [`ThreadCtx`] / [`ThreadRegistry`] — simulated OS threads carrying the
//!   stacks, with CPU-time accounting and `sigaction`-style sampling hooks
//!   ([`CpuSamplerRegistry`]).
//!
//! Frameworks (crate `dl-framework`) drive these structures; DLMonitor
//! (crate `dlmonitor`) reads them back to assemble unified call paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cpu;
mod env;
mod library;
mod native;
mod python;
mod symbols;
mod thread;

pub use addr::AddressSpace;
pub use cpu::{CpuSamplerRegistry, CpuWork, SampleEvent, SampleKind, SamplerId};
pub use env::RuntimeEnv;
pub use library::{LibraryInfo, LibraryMap};
pub use native::{NativeFrameGuard, NativeFrameInfo, NativeStack, Unwinder};
pub use python::{PyFrameGuard, PyFrameInfo, PythonStack};
pub use symbols::{FunctionInfo, LineMap, SymbolTable};
pub use thread::{ThreadCtx, ThreadRegistry};
