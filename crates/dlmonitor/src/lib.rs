//! DLMonitor — the "shim" layer between profilers and deep learning
//! frameworks (paper §4.1).
//!
//! DLMonitor converts framework-specific data into a framework-agnostic
//! format and assembles **unified call paths** spanning Python frames,
//! framework operators, native C/C++ frames, GPU APIs and GPU kernels.
//! The public API mirrors the paper's:
//!
//! * [`DlMonitor::init`] — `dlmonitor_init`: creates the monitor
//!   (the `LD_PRELOAD`-time initialisation);
//! * [`DlMonitor::callback_register`] — `dlmonitor_callback_register`:
//!   registers profiler callbacks for a [`Domain`] (`DLMONITOR_FRAMEWORK`
//!   / `DLMONITOR_GPU`, which delivers each GPU API call at its enter);
//! * [`DlMonitor::callpath_get`] — `dlmonitor_callpath_get`: the handle
//!   of the multi-layer call path of a thread (with the autograd
//!   sequence id it was taken under: a [`deepcontext_core::LivePath`]),
//!   honouring the configured [`CallPathSources`];
//! * [`DlMonitor::finalize`] — `dlmonitor_finalize`: detaches every
//!   interception.
//!
//! Two paper optimisations are implemented and measurable:
//!
//! * **Forward/backward operator association** — forward operators record
//!   their Python/framework context under their autograd sequence id;
//!   backward operators executing on the dedicated backward thread (which
//!   has *no* Python stack) recover it by sequence-id lookup. The records
//!   live in a [`deepcontext_core::IdWindow`] and retire by advancing its
//!   base: a backward operator entered under an id at or above the
//!   backward-pass mark opens a new pass, retires every record below the
//!   old mark and raises the mark to one past its id, under one lock. The
//!   window holds the tape being recorded and the one the last pass
//!   walked; a nested pass (activation checkpointing) retires the outer
//!   tape before the outer pass is done;
//! * **Call path caching** — every operator Enter stores, in its shadow
//!   entry, the operator's pre-interned frame and the *handle*
//!   ([`deepcontext_core::PathHandle`]) of the thread's Python call path
//!   extended by the shadow operators. The Python snapshot is keyed by
//!   `PythonStack::version()` and nothing else, and it keeps the walk it
//!   last took: each frame's `(file, line)` and its handle. When the
//!   version has moved it keeps the longest prefix of that walk that still
//!   matches the stack and resolves only the frames below it, each through
//!   a per-thread `(parent, line)` index matched by file — a frame the
//!   thread has pushed before under the same parent interns nothing. A
//!   kernel-launch call path is then that handle extended — through the
//!   thread's own memo of the session's path table — by a partial native
//!   unwind (or none, if native collection is off) and the GPU API and
//!   kernel frames. With caching off the Python frames are taken at the
//!   launch and the native stack is unwound in full; the unwinder's
//!   global step counter quantifies the savings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod custom;
mod integrate;
mod monitor;

pub use custom::{CustomHook, CustomInterceptor};
pub use integrate::{integrate_call_path, ShadowOp};
pub use monitor::{
    CallPathSources, DlEvent, DlMonitor, Domain, EventOrigin, GpuCallbackEvent, MonitorStats,
    RegistrationId,
};
