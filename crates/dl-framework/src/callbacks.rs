//! Framework interception events.
//!
//! These are the events DLMonitor's `DLMONITOR_FRAMEWORK` domain
//! intercepts (paper §4.1): individual operators (before and after),
//! compute-graph compilation start/end, and tensor memory events. Both
//! engines fire them through a shared [`CallbackRegistry`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::tensor::TensorMeta;
use deepcontext_core::{OpPhase, Subscribers};
use sim_runtime::ThreadCtx;

/// Before or after an interception point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Before the operation runs.
    Enter,
    /// After the operation ran.
    Exit,
}

/// An operator execution event.
#[derive(Debug, Clone)]
pub struct OpEvent {
    /// Canonical operator name (e.g. `aten::matmul`).
    pub name: Arc<str>,
    /// Forward or backward instance.
    pub phase: OpPhase,
    /// Autograd sequence id (present when taping; backward instances carry
    /// their forward op's id — the association key of paper §4.1).
    pub seq_id: Option<u64>,
    /// Enter or exit.
    pub site: Site,
    /// The thread executing the operator.
    pub thread: Arc<ThreadCtx>,
    /// Operator inputs (enter only; empty on exit).
    pub inputs: Vec<TensorMeta>,
}

/// A compute-graph compilation event (JIT engine).
#[derive(Debug, Clone)]
pub enum GraphEvent {
    /// Compilation began for the named graph.
    CompileStart {
        /// Graph name.
        graph: Arc<str>,
    },
    /// Compilation finished; reports fusion statistics.
    CompileEnd {
        /// Graph name.
        graph: Arc<str>,
        /// Operators before fusion.
        original_ops: usize,
        /// Compiled (post-fusion) operators.
        compiled_ops: usize,
    },
}

/// A tensor memory event.
#[derive(Debug, Clone)]
pub enum MemEvent {
    /// Tensor storage allocated.
    Alloc {
        /// The tensor.
        tensor: TensorMeta,
        /// Device bytes.
        bytes: u64,
    },
    /// Tensor storage released.
    Free {
        /// Device bytes.
        bytes: u64,
    },
}

/// Identifier of a registered framework callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameworkCallbackId(u64);

type OpCb = Arc<dyn Fn(&OpEvent) + Send + Sync>;
type GraphCb = Arc<dyn Fn(&GraphEvent) + Send + Sync>;
type MemCb = Arc<dyn Fn(&MemEvent) + Send + Sync>;

/// Registry of framework interception callbacks, shared by both engines.
#[derive(Debug, Default)]
pub struct CallbackRegistry {
    next_id: AtomicU64,
    op: Subscribers<(FrameworkCallbackId, OpCb)>,
    graph: Subscribers<(FrameworkCallbackId, GraphCb)>,
    mem: Subscribers<(FrameworkCallbackId, MemCb)>,
}

impl CallbackRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn next(&self) -> FrameworkCallbackId {
        FrameworkCallbackId(self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Registers an operator callback (the `addGlobalCallback` analogue).
    pub fn on_op(&self, cb: impl Fn(&OpEvent) + Send + Sync + 'static) -> FrameworkCallbackId {
        let id = self.next();
        self.op.push((id, Arc::new(cb)));
        id
    }

    /// Registers a graph-compilation callback.
    pub fn on_graph(
        &self,
        cb: impl Fn(&GraphEvent) + Send + Sync + 'static,
    ) -> FrameworkCallbackId {
        let id = self.next();
        self.graph.push((id, Arc::new(cb)));
        id
    }

    /// Registers a memory callback.
    pub fn on_mem(&self, cb: impl Fn(&MemEvent) + Send + Sync + 'static) -> FrameworkCallbackId {
        let id = self.next();
        self.mem.push((id, Arc::new(cb)));
        id
    }

    /// Removes a callback of any type.
    pub fn remove(&self, id: FrameworkCallbackId) {
        self.op.retain(|(i, _)| *i != id);
        self.graph.retain(|(i, _)| *i != id);
        self.mem.retain(|(i, _)| *i != id);
    }

    /// Fires an operator event.
    pub fn fire_op(&self, event: &OpEvent) {
        self.op.deliver(|(_, cb)| cb(event));
    }

    /// Fires a graph event.
    pub fn fire_graph(&self, event: &GraphEvent) {
        self.graph.deliver(|(_, cb)| cb(event));
    }

    /// Fires a memory event.
    pub fn fire_mem(&self, event: &MemEvent) {
        self.mem.deliver(|(_, cb)| cb(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::ThreadRole;
    use sim_runtime::ThreadRegistry;
    use std::sync::atomic::AtomicUsize;

    fn op_event(site: Site) -> OpEvent {
        let threads = ThreadRegistry::new();
        OpEvent {
            name: Arc::from("aten::relu"),
            phase: OpPhase::Forward,
            seq_id: Some(7),
            site,
            thread: threads.spawn(ThreadRole::Main),
            inputs: vec![],
        }
    }

    #[test]
    fn op_callbacks_fire_and_remove() {
        let reg = CallbackRegistry::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let id = reg.on_op(move |e| {
            assert_eq!(e.name.as_ref(), "aten::relu");
            c.fetch_add(1, Ordering::SeqCst);
        });
        reg.fire_op(&op_event(Site::Enter));
        reg.fire_op(&op_event(Site::Exit));
        assert_eq!(count.load(Ordering::SeqCst), 2);
        reg.remove(id);
        reg.fire_op(&op_event(Site::Enter));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn graph_and_mem_callbacks_fire() {
        let reg = CallbackRegistry::new();
        let graphs = Arc::new(AtomicUsize::new(0));
        let mems = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&graphs);
        let m = Arc::clone(&mems);
        reg.on_graph(move |_| {
            g.fetch_add(1, Ordering::SeqCst);
        });
        reg.on_mem(move |_| {
            m.fetch_add(1, Ordering::SeqCst);
        });
        reg.fire_graph(&GraphEvent::CompileStart {
            graph: Arc::from("step"),
        });
        reg.fire_graph(&GraphEvent::CompileEnd {
            graph: Arc::from("step"),
            original_ops: 10,
            compiled_ops: 4,
        });
        reg.fire_mem(&MemEvent::Free { bytes: 64 });
        assert_eq!(graphs.load(Ordering::SeqCst), 2);
        assert_eq!(mems.load(Ordering::SeqCst), 1);
    }
}
