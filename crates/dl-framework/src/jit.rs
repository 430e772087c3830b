//! The JIT (JAX-like) engine.
//!
//! Models are *traced* into a [`Graph`], *compiled* through passes
//! (canonicalize → elementwise fusion → kernel assignment), and the
//! compiled artifact is executed repeatedly. Two properties matter for
//! DeepContext (paper §4.1, Figure 4):
//!
//! 1. compilation fires interceptable events, and callbacks around each
//!    *post-fusion* operator are available at runtime;
//! 2. the fusion pass records the **fused → original** operator mapping,
//!    with the *trace-time* (compile-time) Python call path of every
//!    original operator — because at runtime the original call paths no
//!    longer exist.

use std::collections::HashMap;
use std::sync::Arc;

use deepcontext_core::{OpPhase, TimeNs};
use sim_gpu::{DeviceId, InstructionProfile, KernelDesc, LaunchConfig, StreamId};
use sim_runtime::{CpuWork, NativeFrameGuard, NativeFrameInfo, PyFrameInfo};

use crate::callbacks::{GraphEvent, OpEvent, Site};
use crate::core::FrameworkCore;
use crate::error::FrameworkError;
use crate::ops::{backward_ops, Op};
use crate::tensor::TensorMeta;

/// Identifier of a node within one traced graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// One traced operator.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Node id (position in trace order).
    pub id: NodeId,
    /// The operator.
    pub op: Op,
    /// Input tensors.
    pub inputs: Vec<TensorMeta>,
    /// Output tensor.
    pub output: TensorMeta,
    /// Forward or (synthesized) backward.
    pub phase: OpPhase,
    /// Python call path captured when the op was traced — the "actual call
    /// path" of Figure 4.
    pub trace_path: Vec<PyFrameInfo>,
}

/// A traced, uncompiled computation graph.
#[derive(Debug, Clone)]
pub struct Graph {
    name: Arc<str>,
    nodes: Vec<GraphNode>,
}

/// Records operators during tracing.
#[derive(Debug)]
pub struct Tracer {
    core: Arc<FrameworkCore>,
    nodes: Vec<GraphNode>,
}

impl Tracer {
    /// Traces one operator, returning its (abstract) output.
    ///
    /// # Errors
    ///
    /// Returns shape-inference failures; requires a bound thread (for the
    /// trace-time Python call path).
    pub fn op(&mut self, op: Op, inputs: &[TensorMeta]) -> Result<TensorMeta, FrameworkError> {
        self.record(op, inputs, OpPhase::Forward)
    }

    /// Synthesizes the backward pass for every differentiable forward node
    /// traced so far, in reverse order (the `jax.grad` analogue).
    ///
    /// # Errors
    ///
    /// Returns shape-inference failures from backward operators.
    pub fn emit_backward(&mut self) -> Result<(), FrameworkError> {
        let forward: Vec<GraphNode> = self
            .nodes
            .iter()
            .filter(|n| n.phase == OpPhase::Forward && n.op.kind.differentiable())
            .cloned()
            .collect();
        for node in forward.iter().rev() {
            for (bop, binputs) in backward_ops(&node.op, &node.inputs, &node.output) {
                self.record(bop, &binputs, OpPhase::Backward)?;
            }
        }
        Ok(())
    }

    fn record(
        &mut self,
        op: Op,
        inputs: &[TensorMeta],
        phase: OpPhase,
    ) -> Result<TensorMeta, FrameworkError> {
        let thread = self.core.current_thread()?;
        let output = op.infer_shape(inputs)?;
        // Tracing itself costs a little host time.
        self.core
            .env()
            .do_cpu_work(&thread, CpuWork::compute(TimeNs(500)));
        let id = NodeId(self.nodes.len());
        self.nodes.push(GraphNode {
            id,
            op,
            inputs: inputs.to_vec(),
            output: output.clone(),
            phase,
            trace_path: thread.python().walk(),
        });
        Ok(output)
    }
}

/// The fused→original operator mapping recorded during compilation
/// (paper Figure 4).
#[derive(Debug, Clone, Default)]
pub struct FusionMapping {
    map: HashMap<String, Vec<(String, Vec<PyFrameInfo>)>>,
}

impl FusionMapping {
    /// The original operators (name + trace-time Python call path) behind
    /// a compiled operator.
    pub fn origins(&self, compiled_name: &str) -> Option<&[(String, Vec<PyFrameInfo>)]> {
        self.map.get(compiled_name).map(Vec::as_slice)
    }

    /// All compiled operator names with recorded origins.
    pub fn compiled_names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }
}

#[derive(Debug)]
struct CompiledItem {
    name: Arc<str>,
    phase: OpPhase,
    kernels: Vec<Arc<KernelDesc>>,
    /// Placement from the traced op's attributes; `None` falls back to
    /// the core's current device/stream at execution time.
    device: Option<DeviceId>,
    stream: Option<StreamId>,
}

/// A compiled, executable graph.
#[derive(Debug)]
pub struct CompiledGraph {
    core: Arc<FrameworkCore>,
    items: Vec<CompiledItem>,
    mapping: FusionMapping,
}

impl CompiledGraph {
    /// Number of compiled (post-fusion) operators.
    pub fn compiled_op_count(&self) -> usize {
        self.items.len()
    }

    /// Total kernels launched per execution.
    pub fn kernel_count(&self) -> usize {
        self.items.iter().map(|i| i.kernels.len()).sum()
    }

    /// The fused→original mapping.
    pub fn mapping(&self) -> &FusionMapping {
        &self.mapping
    }

    /// Executes the compiled graph once.
    ///
    /// # Errors
    ///
    /// Propagates GPU failures; requires a bound thread.
    pub fn execute(&self) -> Result<(), FrameworkError> {
        let thread = self.core.current_thread()?;
        let exec_fn = self
            .core
            .native_fn("xla::gpu::GpuExecutable::ExecuteAsyncOnStream");
        let _g = NativeFrameGuard::enter(
            thread.native(),
            NativeFrameInfo::new(&exec_fn.library, exec_fn.addr, &exec_fn.name),
        );
        for item in &self.items {
            self.core.callbacks().fire_op(&OpEvent {
                name: Arc::clone(&item.name),
                phase: item.phase,
                seq_id: None,
                site: Site::Enter,
                thread: Arc::clone(&thread),
                inputs: Vec::new(),
            });
            // Compiled executors have little per-op host overhead.
            self.core
                .env()
                .do_cpu_work(&thread, CpuWork::compute(TimeNs(800)));
            let device = item.device.unwrap_or_else(|| self.core.device());
            let stream = item.stream.unwrap_or_else(|| self.core.stream());
            for kernel in &item.kernels {
                self.core
                    .gpu()
                    .launch_kernel(device, stream, Arc::clone(kernel))?;
            }
            self.core.callbacks().fire_op(&OpEvent {
                name: Arc::clone(&item.name),
                phase: item.phase,
                seq_id: None,
                site: Site::Exit,
                thread: Arc::clone(&thread),
                inputs: Vec::new(),
            });
        }
        Ok(())
    }
}

/// The JIT engine.
///
/// # Examples
///
/// ```
/// use dl_framework::{FrameworkCore, JitEngine, Op, OpKind, TensorMeta};
/// use deepcontext_core::{ThreadRole, TimeNs};
/// use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
/// use sim_runtime::{RuntimeEnv, ThreadRegistry};
///
/// let env = RuntimeEnv::new();
/// let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
/// let core = FrameworkCore::new(env.clone(), gpu, DeviceId(0),
///     "/lib/libjax.so", "libxla.so", TimeNs(1_000));
/// let jit = JitEngine::new(core);
///
/// let main = env.threads().spawn(ThreadRole::Main);
/// let _bind = ThreadRegistry::bind_current(&main);
///
/// let graph = jit.trace("step", |tr| {
///     let x = TensorMeta::new([256, 256]);
///     let y = tr.op(Op::new(OpKind::Mul), &[x.clone(), x.clone()])?;
///     let z = tr.op(Op::new(OpKind::Add), &[y.clone(), x])?;
///     tr.op(Op::new(OpKind::Relu), &[z])?;
///     Ok(())
/// })?;
/// let compiled = jit.compile(&graph)?;
/// // Three elementwise ops fused into one.
/// assert_eq!(compiled.compiled_op_count(), 1);
/// compiled.execute()?;
/// # Ok::<(), dl_framework::FrameworkError>(())
/// ```
#[derive(Debug)]
pub struct JitEngine {
    core: Arc<FrameworkCore>,
}

impl JitEngine {
    /// Creates a JIT engine over the shared core.
    pub fn new(core: Arc<FrameworkCore>) -> Arc<Self> {
        Arc::new(JitEngine { core })
    }

    /// The shared core.
    pub fn core(&self) -> &Arc<FrameworkCore> {
        &self.core
    }

    /// Traces `f` into a graph.
    ///
    /// # Errors
    ///
    /// Propagates tracing failures from `f`.
    pub fn trace(
        &self,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> Result<(), FrameworkError>,
    ) -> Result<Graph, FrameworkError> {
        let mut tracer = Tracer {
            core: Arc::clone(&self.core),
            nodes: Vec::new(),
        };
        f(&mut tracer)?;
        Ok(Graph {
            name: Arc::from(name),
            nodes: tracer.nodes,
        })
    }

    /// Compiles a traced graph: canonicalize, fuse elementwise chains,
    /// assign kernels. Fires [`GraphEvent`]s around the passes.
    ///
    /// # Errors
    ///
    /// Requires a bound thread (compilation consumes host time).
    pub fn compile(&self, graph: &Graph) -> Result<CompiledGraph, FrameworkError> {
        let thread = self.core.current_thread()?;
        self.core.callbacks().fire_graph(&GraphEvent::CompileStart {
            graph: Arc::clone(&graph.name),
        });

        // Pass 1: canonicalize — drop metadata-only ops.
        let nodes: Vec<&GraphNode> = graph
            .nodes
            .iter()
            .filter(|n| n.op.kind != crate::ops::OpKind::Reshape)
            .collect();

        // Compilation cost scales with graph size.
        self.core.env().do_cpu_work(
            &thread,
            CpuWork::compute(TimeNs(20_000 * graph.nodes.len().max(1) as u64)),
        );

        // Pass 2: fuse maximal runs of same-shape elementwise ops, and
        // epilogue-fuse lone elementwise ops into their producer (the
        // conv→norm→relu pattern), as XLA does. Fusion groups are
        // partitioned by `(device, stream)` placement: a fused kernel is
        // one launch on one stream, so ops bound for different placements
        // must never share a group (they would silently serialize a
        // multi-stream model onto one stream).
        struct Pending {
            name: Arc<str>,
            phase: OpPhase,
            kernels: Vec<KernelDesc>,
            out_numel: usize,
            device: Option<DeviceId>,
            stream: Option<StreamId>,
        }
        let placement = |n: &GraphNode| (n.op.attrs.device, n.op.attrs.stream);
        let mut pending: Vec<Pending> = Vec::new();
        let mut mapping = FusionMapping::default();
        let mut fusion_idx = 0usize;
        let mut i = 0;
        while i < nodes.len() {
            let node = nodes[i];
            let mut j = i;
            if node.op.kind.is_elementwise() {
                while j + 1 < nodes.len()
                    && nodes[j + 1].op.kind.is_elementwise()
                    && nodes[j + 1].phase == node.phase
                    && nodes[j + 1].output.numel() == node.output.numel()
                    && placement(nodes[j + 1]) == placement(node)
                {
                    j += 1;
                }
            }
            if j > i {
                // Fused group [i..=j].
                let members = &nodes[i..=j];
                let fused_name: Arc<str> = Arc::from(format!("fusion.{fusion_idx}"));
                fusion_idx += 1;
                let kernel = self.build_fused_kernel(&fused_name, members);
                mapping.map.insert(
                    fused_name.to_string(),
                    members
                        .iter()
                        .map(|m| (m.op.name().to_owned(), m.trace_path.clone()))
                        .collect(),
                );
                pending.push(Pending {
                    name: fused_name,
                    phase: node.phase,
                    kernels: vec![kernel],
                    out_numel: node.output.numel(),
                    device: node.op.attrs.device,
                    stream: node.op.attrs.stream,
                });
            } else if node.op.kind.is_elementwise()
                && pending
                    .last()
                    .map(|p| {
                        p.phase == node.phase
                            && p.out_numel == node.output.numel()
                            && (p.device, p.stream) == placement(node)
                            && !p.kernels.is_empty()
                    })
                    .unwrap_or(false)
            {
                // Epilogue fusion: fold the lone map into the producer's
                // last kernel — the arithmetic rides along, the extra
                // memory round-trip disappears.
                let prev = pending.last_mut().expect("checked above");
                let last = prev.kernels.last_mut().expect("checked above");
                last.flops += node.output.numel() as f64;
                mapping
                    .map
                    .entry(prev.name.to_string())
                    .or_default()
                    .push((node.op.name().to_owned(), node.trace_path.clone()));
            } else {
                // Unfused operator keeps its own kernels (and still records
                // its trace path as its "origin").
                let kernels =
                    node.op
                        .lower(&node.inputs, &node.output, node.phase, self.core.kernels());
                mapping
                    .map
                    .entry(node.op.name().to_owned())
                    .or_default()
                    .push((node.op.name().to_owned(), node.trace_path.clone()));
                pending.push(Pending {
                    name: Arc::from(node.op.name()),
                    phase: node.phase,
                    kernels,
                    out_numel: node.output.numel(),
                    device: node.op.attrs.device,
                    stream: node.op.attrs.stream,
                });
            }
            i = j + 1;
        }
        let items: Vec<CompiledItem> = pending
            .into_iter()
            .map(|p| CompiledItem {
                name: p.name,
                phase: p.phase,
                kernels: p.kernels.into_iter().map(Arc::new).collect(),
                device: p.device,
                stream: p.stream,
            })
            .collect();

        self.core.callbacks().fire_graph(&GraphEvent::CompileEnd {
            graph: Arc::clone(&graph.name),
            original_ops: graph.nodes.len(),
            compiled_ops: items.len(),
        });

        Ok(CompiledGraph {
            core: Arc::clone(&self.core),
            items,
            mapping,
        })
    }

    /// One fused kernel for an elementwise chain: arithmetic adds up, but
    /// intermediate tensors never touch memory — the XLA advantage behind
    /// the §6.6 JAX-vs-PyTorch comparison.
    fn build_fused_kernel(&self, name: &str, members: &[&GraphNode]) -> KernelDesc {
        let out = &members.last().expect("non-empty fusion").output;
        let elems = out.numel() as f64;
        let esize = out.dtype.size_bytes() as f64;
        let flops: f64 = elems * members.len() as f64;
        // Distinct external inputs of the chain + one output.
        let external_inputs = members.first().map(|m| m.inputs.len().max(1)).unwrap_or(1) as f64;
        let bytes = (external_inputs + 1.0) * elems * esize;
        self.core
            .kernels()
            .kernel(name, LaunchConfig::new(grid_for(out.numel()), 256))
            .with_flops(flops)
            .with_bytes(bytes)
            .with_registers(64)
            .with_profile(InstructionProfile::memory_bound())
    }
}

fn grid_for(numel: usize) -> u32 {
    numel.div_ceil(1024).clamp(1, 1 << 20) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;
    use deepcontext_core::ThreadRole;
    use parking_lot::Mutex;
    use sim_gpu::{DeviceId, DeviceSpec, GpuRuntime};
    use sim_runtime::{RuntimeEnv, ThreadRegistry};

    fn jit() -> (Arc<JitEngine>, RuntimeEnv) {
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
        let core = FrameworkCore::new(
            env.clone(),
            gpu,
            DeviceId(0),
            "/lib/libjax.so",
            "libxla.so",
            TimeNs(1_000),
        );
        (JitEngine::new(core), env)
    }

    fn mlp_graph(jit: &JitEngine) -> Graph {
        jit.trace("mlp", |tr| {
            let x = TensorMeta::new([64, 128]);
            let w = TensorMeta::new([128, 128]);
            let h = tr.op(Op::new(OpKind::MatMul), &[x, w])?;
            let a = tr.op(Op::new(OpKind::Add), &[h.clone(), h.clone()])?;
            let b = tr.op(Op::new(OpKind::Mul), &[a.clone(), a.clone()])?;
            tr.op(Op::new(OpKind::Relu), &[b])?;
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn fusion_merges_elementwise_chain() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let graph = mlp_graph(&jit);
        assert_eq!(graph.nodes.len(), 4);
        let compiled = jit.compile(&graph).unwrap();
        // matmul + fused(add, mul, relu).
        assert_eq!(compiled.compiled_op_count(), 2);
        let origins = compiled.mapping().origins("fusion.0").unwrap();
        let names: Vec<_> = origins.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["aten::add", "aten::mul", "aten::relu"]);
    }

    #[test]
    fn fused_kernel_moves_less_memory_than_eager_equivalent() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let graph = jit
            .trace("chain", |tr| {
                let x = TensorMeta::new([1 << 20]);
                let a = tr.op(Op::new(OpKind::Mul), &[x.clone(), x.clone()])?;
                let b = tr.op(Op::new(OpKind::Add), &[a.clone(), a.clone()])?;
                tr.op(Op::new(OpKind::Relu), &[b])?;
                Ok(())
            })
            .unwrap();
        let compiled = jit.compile(&graph).unwrap();
        assert_eq!(compiled.kernel_count(), 1);
        // Eager: 3 kernels * ~3 passes over memory. Fused: 3 passes total.
        let elems = (1usize << 20) as f64 * 4.0;
        let fused_bytes = compiled.items[0].kernels[0].bytes;
        assert!(fused_bytes <= 3.0 * elems + 1.0);
    }

    #[test]
    fn trace_records_python_paths_at_trace_time() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let core = Arc::clone(jit.core());
        let graph = jit
            .trace("with_py", |tr| {
                let _scope = core.python().frame(&t, "model.py", 33, "apply_layer");
                let x = TensorMeta::new([16]);
                tr.op(Op::new(OpKind::Relu), &[x])?;
                Ok(())
            })
            .unwrap();
        let path = &graph.nodes[0].trace_path;
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].function.as_ref(), "apply_layer");
        assert_eq!(path[0].line, 33);
    }

    #[test]
    fn compile_fires_graph_events() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let events = Arc::new(Mutex::new(Vec::new()));
        let ev = Arc::clone(&events);
        jit.core().callbacks().on_graph(move |e| {
            ev.lock().push(match e {
                GraphEvent::CompileStart { .. } => "start".to_owned(),
                GraphEvent::CompileEnd {
                    original_ops,
                    compiled_ops,
                    ..
                } => format!("end:{original_ops}->{compiled_ops}"),
            });
        });
        let graph = mlp_graph(&jit);
        jit.compile(&graph).unwrap();
        let ev = events.lock().clone();
        assert_eq!(ev, vec!["start".to_owned(), "end:4->2".to_owned()]);
    }

    #[test]
    fn execute_fires_op_events_and_launches_kernels() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let graph = mlp_graph(&jit);
        let compiled = jit.compile(&graph).unwrap();

        let names = Arc::new(Mutex::new(Vec::new()));
        let n = Arc::clone(&names);
        jit.core().callbacks().on_op(move |e| {
            if e.site == Site::Enter {
                n.lock().push(e.name.to_string());
            }
        });
        compiled.execute().unwrap();
        assert_eq!(
            *names.lock(),
            vec!["aten::matmul".to_owned(), "fusion.0".to_owned()]
        );
        assert_eq!(
            jit.core().gpu().kernel_count(DeviceId(0)).unwrap(),
            compiled.kernel_count() as u64
        );
    }

    #[test]
    fn emit_backward_appends_reverse_ops() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let graph = jit
            .trace("train", |tr| {
                let x = TensorMeta::new([32, 64]);
                let w = TensorMeta::new([64, 16]);
                let h = tr.op(Op::new(OpKind::MatMul), &[x, w])?;
                tr.op(Op::new(OpKind::Relu), &[h])?;
                tr.emit_backward()?;
                Ok(())
            })
            .unwrap();
        let phases: Vec<_> = graph.nodes.iter().map(|n| n.phase).collect();
        assert_eq!(phases.iter().filter(|p| **p == OpPhase::Forward).count(), 2);
        // relu backward (1) + matmul backward (2 matmuls).
        assert_eq!(
            phases.iter().filter(|p| **p == OpPhase::Backward).count(),
            3
        );
        // Backward of the last forward op comes first.
        let first_bwd = graph
            .nodes
            .iter()
            .find(|n| n.phase == OpPhase::Backward)
            .unwrap();
        assert_eq!(first_bwd.op.name(), "aten::relu");
    }

    #[test]
    fn fusion_partitions_by_stream_placement() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        // Four same-shape elementwise ops, alternating streams: without
        // placement partitioning they would fuse into one kernel on one
        // stream, serializing the model's parallelism.
        let graph = jit
            .trace("two_streams", |tr| {
                let x = TensorMeta::new([1 << 16]);
                for stream in [0u32, 1, 0, 1] {
                    tr.op(
                        Op::new(OpKind::Relu).on_stream(StreamId(stream)),
                        std::slice::from_ref(&x),
                    )?;
                }
                Ok(())
            })
            .unwrap();
        let compiled = jit.compile(&graph).unwrap();
        assert_eq!(
            compiled.compiled_op_count(),
            4,
            "alternating placements must not fuse"
        );
        // Same streams back to back still fuse within their partition.
        let graph = jit
            .trace("grouped", |tr| {
                let x = TensorMeta::new([1 << 16]);
                for stream in [0u32, 0, 1, 1] {
                    tr.op(
                        Op::new(OpKind::Relu).on_stream(StreamId(stream)),
                        std::slice::from_ref(&x),
                    )?;
                }
                Ok(())
            })
            .unwrap();
        let compiled = jit.compile(&graph).unwrap();
        assert_eq!(compiled.compiled_op_count(), 2, "per-stream runs fuse");
    }

    #[test]
    fn execute_honours_op_placement() {
        let env = RuntimeEnv::new();
        let gpu = GpuRuntime::new(
            env.clock().clone(),
            vec![DeviceSpec::a100_sxm(), DeviceSpec::a100_sxm()],
        );
        let core = FrameworkCore::new(
            env.clone(),
            gpu,
            DeviceId(0),
            "/lib/libjax.so",
            "libxla.so",
            TimeNs(1_000),
        );
        let jit = JitEngine::new(core);
        jit.core().gpu().ensure_streams(DeviceId(1), 3).unwrap();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let graph = jit
            .trace("cross_device", |tr| {
                let x = TensorMeta::new([1 << 12]);
                tr.op(Op::new(OpKind::Relu), std::slice::from_ref(&x))?;
                tr.op(
                    Op::new(OpKind::Add)
                        .on_device(DeviceId(1))
                        .on_stream(StreamId(2)),
                    &[x.clone(), x],
                )?;
                Ok(())
            })
            .unwrap();
        let compiled = jit.compile(&graph).unwrap();
        assert_eq!(
            compiled.compiled_op_count(),
            2,
            "cross-device ops must not fuse"
        );
        compiled.execute().unwrap();
        assert_eq!(jit.core().gpu().kernel_count(DeviceId(0)).unwrap(), 1);
        assert_eq!(
            jit.core().gpu().kernel_count(DeviceId(1)).unwrap(),
            1,
            "placed op launches on its own device"
        );
    }

    #[test]
    fn reshape_is_canonicalized_away() {
        let (jit, env) = jit();
        let t = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&t);
        let graph = jit
            .trace("g", |tr| {
                let x = TensorMeta::new([64]);
                let r = tr.op(Op::new(OpKind::Reshape).with_out_shape([8, 8]), &[x])?;
                tr.op(Op::new(OpKind::Relu), &[r])?;
                Ok(())
            })
            .unwrap();
        let compiled = jit.compile(&graph).unwrap();
        assert_eq!(compiled.compiled_op_count(), 1);
    }
}
