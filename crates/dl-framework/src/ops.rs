//! The framework-agnostic operator vocabulary.
//!
//! DLMonitor's core idea is converting "deep learning framework-specific
//! data into a framework-agnostic format" (paper §1). Both simulated
//! engines dispatch the same [`Op`]s; the eager engine reports them under
//! their canonical `aten::*` names while the JIT engine compiles them into
//! fused kernels. Each op knows how to infer its output shape, how to
//! *lower* itself to simulated GPU kernels (with realistic kernel names,
//! launch shapes and cost parameters), and what its backward pass
//! dispatches.

use sim_gpu::{DeviceId, InstructionProfile, KernelDesc, LaunchConfig, MemoryPattern, StreamId};

use crate::error::FrameworkError;
use crate::registry::KernelRegistry;
use crate::tensor::{DType, Layout, TensorMeta};
use deepcontext_core::OpPhase;

/// Operator kinds. Backward-only kinds (`*Backward`) share their forward
/// operator's display name; they exist because their kernels differ
/// fundamentally (e.g. deterministic serialized scatter vs atomics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Names are self-describing operator mnemonics.
pub enum OpKind {
    MatMul,
    Conv2d,
    Conv2dBackward,
    Embedding,
    EmbeddingBackward,
    Index,
    IndexBackward,
    IndexSelect,
    IndexSelectBackward,
    Gather,
    ScatterAdd,
    Add,
    Sub,
    Mul,
    Div,
    Relu,
    Gelu,
    Silu,
    Sigmoid,
    Tanh,
    Dropout,
    Copy,
    Cast,
    Softmax,
    LogSoftmax,
    NllLoss,
    Mean,
    Sum,
    LayerNorm,
    InstanceNorm,
    InstanceNormBackward,
    BatchNorm,
    RmsNorm,
    Transpose,
    Reshape,
    Concat,
    Pad,
    ToLayout,
    MaxPool2d,
    Upsample2d,
    SgdStep,
    AdamStep,
}

impl OpKind {
    /// Canonical (framework-agnostic) operator name. Backward kinds report
    /// their forward name; the [`OpPhase`] on the operator frame carries
    /// the direction.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::MatMul => "aten::matmul",
            OpKind::Conv2d | OpKind::Conv2dBackward => "aten::conv2d",
            OpKind::Embedding | OpKind::EmbeddingBackward => "aten::embedding",
            OpKind::Index | OpKind::IndexBackward => "aten::index",
            OpKind::IndexSelect | OpKind::IndexSelectBackward => "aten::index_select",
            OpKind::Gather => "aten::gather",
            OpKind::ScatterAdd => "aten::scatter_add",
            OpKind::Add => "aten::add",
            OpKind::Sub => "aten::sub",
            OpKind::Mul => "aten::mul",
            OpKind::Div => "aten::div",
            OpKind::Relu => "aten::relu",
            OpKind::Gelu => "aten::gelu",
            OpKind::Silu => "aten::silu",
            OpKind::Sigmoid => "aten::sigmoid",
            OpKind::Tanh => "aten::tanh",
            OpKind::Dropout => "aten::dropout",
            OpKind::Copy => "aten::copy_",
            OpKind::Cast => "aten::to",
            OpKind::Softmax => "aten::softmax",
            OpKind::LogSoftmax => "aten::log_softmax",
            OpKind::NllLoss => "aten::nll_loss",
            OpKind::Mean => "aten::mean",
            OpKind::Sum => "aten::sum",
            OpKind::LayerNorm => "aten::layer_norm",
            OpKind::InstanceNorm | OpKind::InstanceNormBackward => "aten::instance_norm",
            OpKind::BatchNorm => "aten::batch_norm",
            OpKind::RmsNorm => "aten::rms_norm",
            OpKind::Transpose => "aten::transpose",
            OpKind::Reshape => "aten::reshape",
            OpKind::Concat => "aten::cat",
            OpKind::Pad => "aten::pad",
            OpKind::ToLayout => "aten::contiguous",
            OpKind::MaxPool2d => "aten::max_pool2d",
            OpKind::Upsample2d => "aten::upsample_nearest2d",
            OpKind::SgdStep => "aten::sgd_step",
            OpKind::AdamStep => "aten::adam_step",
        }
    }

    /// Whether this op participates in autograd taping.
    pub fn differentiable(self) -> bool {
        !matches!(
            self,
            OpKind::SgdStep
                | OpKind::AdamStep
                | OpKind::Reshape
                | OpKind::Copy
                | OpKind::Conv2dBackward
                | OpKind::EmbeddingBackward
                | OpKind::IndexBackward
                | OpKind::IndexSelectBackward
                | OpKind::InstanceNormBackward
        )
    }

    /// Whether this op is a pure elementwise map (fusable by the JIT
    /// engine's fusion pass).
    pub fn is_elementwise(self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Relu
                | OpKind::Gelu
                | OpKind::Silu
                | OpKind::Sigmoid
                | OpKind::Tanh
                | OpKind::Dropout
                | OpKind::Copy
                | OpKind::Cast
        )
    }
}

/// Optional operator attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAttrs {
    /// Explicit output shape (overrides inference).
    pub out_shape: Option<Vec<usize>>,
    /// Weight shape: `[K, C, R, S]` for conv, `[V, D]` for embedding.
    pub weight_shape: Option<Vec<usize>>,
    /// Mean duplicates per index for index/scatter ops; drives the
    /// deterministic-serialization cost (paper §6.1).
    pub duplicate_ratio: f64,
    /// Fixed CTA size override (the §6.5 kernel-template parameter).
    pub threads_per_block: Option<u32>,
    /// Target dtype for [`OpKind::Cast`].
    pub target_dtype: Option<DType>,
    /// Explicit device placement (multi-GPU workloads); `None` launches
    /// on the engine's default device.
    pub device: Option<DeviceId>,
    /// Explicit stream placement (multi-stream workloads); `None`
    /// launches on the engine's default stream.
    pub stream: Option<StreamId>,
}

impl Default for OpAttrs {
    fn default() -> Self {
        OpAttrs {
            out_shape: None,
            weight_shape: None,
            duplicate_ratio: 1.0,
            threads_per_block: None,
            target_dtype: None,
            device: None,
            stream: None,
        }
    }
}

/// A framework-agnostic operator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// What the operator does.
    pub kind: OpKind,
    /// Attributes.
    pub attrs: OpAttrs,
}

impl Op {
    /// Creates an operator with default attributes.
    pub fn new(kind: OpKind) -> Self {
        Op {
            kind,
            attrs: OpAttrs::default(),
        }
    }

    /// Canonical operator name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Sets the explicit output shape.
    pub fn with_out_shape(mut self, shape: impl Into<Vec<usize>>) -> Self {
        self.attrs.out_shape = Some(shape.into());
        self
    }

    /// Sets the weight shape.
    pub fn with_weight(mut self, shape: impl Into<Vec<usize>>) -> Self {
        self.attrs.weight_shape = Some(shape.into());
        self
    }

    /// Sets the duplicate ratio for index-style ops.
    pub fn with_duplicates(mut self, ratio: f64) -> Self {
        self.attrs.duplicate_ratio = ratio.max(1.0);
        self
    }

    /// Overrides the threads-per-CTA of the lowered kernels.
    pub fn with_threads_per_block(mut self, threads: u32) -> Self {
        self.attrs.threads_per_block = Some(threads);
        self
    }

    /// Sets the target dtype (for [`OpKind::Cast`]).
    pub fn with_target_dtype(mut self, dtype: DType) -> Self {
        self.attrs.target_dtype = Some(dtype);
        self
    }

    /// Places this op's kernels on an explicit device (multi-GPU
    /// workloads).
    pub fn on_device(mut self, device: DeviceId) -> Self {
        self.attrs.device = Some(device);
        self
    }

    /// Places this op's kernels on an explicit stream of its device
    /// (multi-stream workloads; the stream must exist — see
    /// `GpuRuntime::ensure_streams`).
    pub fn on_stream(mut self, stream: StreamId) -> Self {
        self.attrs.stream = Some(stream);
        self
    }

    /// Infers the output tensor of this op applied to `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::ShapeMismatch`] when inputs are
    /// inconsistent with the operator.
    pub fn infer_shape(&self, inputs: &[TensorMeta]) -> Result<TensorMeta, FrameworkError> {
        let first = inputs
            .first()
            .ok_or_else(|| self.shape_err("operator requires at least one input"))?;
        let mut out = first.clone();

        if let Some(shape) = &self.attrs.out_shape {
            out.shape = shape.clone();
        } else {
            match self.kind {
                OpKind::MatMul => {
                    let rhs = inputs
                        .get(1)
                        .ok_or_else(|| self.shape_err("matmul requires two inputs"))?;
                    let (m, k1) = last_two(&first.shape)
                        .ok_or_else(|| self.shape_err("matmul lhs must be >=2-D"))?;
                    let (k2, n) = last_two(&rhs.shape)
                        .ok_or_else(|| self.shape_err("matmul rhs must be >=2-D"))?;
                    if k1 != k2 {
                        return Err(self.shape_err(&format!("inner dims differ: {k1} vs {k2}")));
                    }
                    let mut shape = first.shape[..first.shape.len() - 2].to_vec();
                    shape.extend_from_slice(&[m, n]);
                    out.shape = shape;
                }
                OpKind::Conv2d | OpKind::Conv2dBackward => {
                    let w =
                        self.attrs.weight_shape.as_ref().ok_or_else(|| {
                            self.shape_err("conv2d requires weight_shape [K,C,R,S]")
                        })?;
                    if first.shape.len() != 4 || w.len() != 4 {
                        return Err(self.shape_err("conv2d expects 4-D input and weight"));
                    }
                    if w[1] != first.shape[1] {
                        return Err(self.shape_err("conv2d channel mismatch"));
                    }
                    out.shape = vec![first.shape[0], w[0], first.shape[2], first.shape[3]];
                }
                OpKind::Embedding => {
                    let w =
                        self.attrs.weight_shape.as_ref().ok_or_else(|| {
                            self.shape_err("embedding requires weight_shape [V,D]")
                        })?;
                    let mut shape = first.shape.clone();
                    shape.push(w[1]);
                    out.shape = shape;
                    out.dtype = DType::F32;
                }
                OpKind::Index | OpKind::IndexSelect | OpKind::Gather => {
                    // inputs: [table, indices] -> indices-rows of table.
                    let idx = inputs
                        .get(1)
                        .ok_or_else(|| self.shape_err("index ops require [table, indices]"))?;
                    let mut shape = idx.shape.clone();
                    shape.extend_from_slice(&first.shape[1..]);
                    out.shape = shape;
                }
                OpKind::NllLoss | OpKind::Mean | OpKind::Sum => {
                    out.shape = vec![1];
                }
                OpKind::Transpose => {
                    let n = out.shape.len();
                    if n >= 2 {
                        out.shape.swap(n - 1, n - 2);
                    }
                }
                OpKind::MaxPool2d => {
                    if first.shape.len() != 4 {
                        return Err(self.shape_err("pool2d expects 4-D input"));
                    }
                    out.shape = vec![
                        first.shape[0],
                        first.shape[1],
                        (first.shape[2] / 2).max(1),
                        (first.shape[3] / 2).max(1),
                    ];
                }
                OpKind::Upsample2d => {
                    if first.shape.len() != 4 {
                        return Err(self.shape_err("upsample expects 4-D input"));
                    }
                    out.shape = vec![
                        first.shape[0],
                        first.shape[1],
                        first.shape[2] * 2,
                        first.shape[3] * 2,
                    ];
                }
                OpKind::Concat => {
                    let dim0: usize = inputs
                        .iter()
                        .map(|t| t.shape.first().copied().unwrap_or(1))
                        .sum();
                    let mut shape = first.shape.clone();
                    if !shape.is_empty() {
                        shape[0] = dim0;
                    }
                    out.shape = shape;
                }
                OpKind::Reshape => {
                    return Err(self.shape_err("reshape requires an explicit out_shape"));
                }
                // Same-shape operators.
                _ => {}
            }
        }
        if let Some(dtype) = self.attrs.target_dtype {
            if self.kind == OpKind::Cast {
                out.dtype = dtype;
            }
        }
        Ok(out)
    }

    fn shape_err(&self, msg: &str) -> FrameworkError {
        FrameworkError::ShapeMismatch {
            op: self.name().to_owned(),
            message: msg.to_owned(),
        }
    }

    /// Lowers the op into the GPU kernels it launches.
    ///
    /// The eager engine launches these one by one; the JIT engine merges
    /// elementwise chains first. Conversion kernels for
    /// channels-first convolutions (the §6.2 behaviour) are inserted here.
    pub fn lower(
        &self,
        inputs: &[TensorMeta],
        output: &TensorMeta,
        phase: OpPhase,
        registry: &KernelRegistry,
    ) -> Vec<KernelDesc> {
        let first = inputs.first().cloned().unwrap_or_else(|| output.clone());
        let out_elems = output.numel() as f64;
        let esize = output.dtype.size_bytes() as f64;
        let block = self.attrs.threads_per_block.unwrap_or(256);

        let mut kernels = Vec::new();
        match self.kind {
            OpKind::MatMul => {
                let rhs = inputs.get(1).cloned().unwrap_or_else(|| first.clone());
                let (m, k) = last_two(&first.shape).unwrap_or((1, 1));
                let n = last_two(&rhs.shape).map(|(_, n)| n).unwrap_or(1);
                let batch: usize = first.shape[..first.shape.len().saturating_sub(2)]
                    .iter()
                    .product::<usize>()
                    .max(1);
                let flops = 2.0 * batch as f64 * m as f64 * k as f64 * n as f64;
                let bytes = esize * batch as f64 * (m * k + k * n + m * n) as f64;
                let mut tiles = m.div_ceil(128) * n.div_ceil(128) * batch;
                if tiles < 128 {
                    // Skinny GEMMs (gradient shapes) parallelise over K
                    // (split-K), as real GEMM libraries do.
                    tiles = (tiles * k.div_ceil(512).max(1)).min(128);
                }
                let name = match output.dtype {
                    DType::F16 | DType::F8 => "ampere_hgemm_128x128_tn",
                    _ => "ampere_sgemm_128x128_tn",
                };
                kernels.push(
                    registry
                        .kernel(name, LaunchConfig::new(clamp_grid(tiles), 256))
                        .with_flops(flops)
                        .with_bytes(bytes)
                        .with_registers(128)
                        .with_shared_mem(48 * 1024)
                        .with_profile(InstructionProfile::compute_bound()),
                );
            }
            OpKind::Conv2d | OpKind::Conv2dBackward => {
                let w = self.attrs.weight_shape.clone().unwrap_or(vec![1, 1, 1, 1]);
                let (n_, c, h, wdt) = (
                    first.shape[0],
                    first.shape[1],
                    first.shape[2],
                    first.shape[3],
                );
                let (kout, r, s) = (w[0], w[2], w[3]);
                let flops = 2.0 * (n_ * kout * h * wdt * c * r * s) as f64;
                let in_bytes = first.bytes() as f64;
                let out_bytes = output.bytes() as f64;
                let w_bytes = (w.iter().product::<usize>() * 4) as f64;
                let needs_conversion = first.layout == Layout::ChannelsFirst;
                if needs_conversion {
                    kernels.push(conversion_kernel(
                        registry,
                        "cudnn::nchwToNhwcKernel",
                        in_bytes,
                        block,
                    ));
                }
                let main_name = match (self.kind, phase) {
                    (OpKind::Conv2dBackward, _) | (_, OpPhase::Backward) => {
                        "cudnn::implicit_gemm_dgrad"
                    }
                    _ => "cudnn::implicit_gemm_fprop",
                };
                let tiles = (n_ * h * wdt).div_ceil(64) * kout.div_ceil(64);
                kernels.push(
                    registry
                        .kernel(main_name, LaunchConfig::new(clamp_grid(tiles), 256))
                        .with_flops(flops)
                        .with_bytes(in_bytes + out_bytes + w_bytes)
                        .with_registers(168)
                        .with_shared_mem(64 * 1024)
                        .with_profile(InstructionProfile::compute_bound()),
                );
                if self.kind == OpKind::Conv2dBackward {
                    kernels.push(
                        registry
                            .kernel(
                                "cudnn::implicit_gemm_wgrad",
                                LaunchConfig::new(clamp_grid(tiles), 256),
                            )
                            .with_flops(flops)
                            .with_bytes(in_bytes + w_bytes)
                            .with_registers(168)
                            .with_shared_mem(64 * 1024)
                            .with_profile(InstructionProfile::compute_bound()),
                    );
                }
                if needs_conversion {
                    kernels.push(conversion_kernel(
                        registry,
                        "cudnn::nhwcToNchwKernel",
                        out_bytes,
                        block,
                    ));
                }
            }
            OpKind::Embedding | OpKind::Index | OpKind::IndexSelect | OpKind::Gather => {
                let name = match self.kind {
                    OpKind::Embedding => "embedding_kernel",
                    OpKind::Index => "index_kernel",
                    OpKind::IndexSelect => "index_select_kernel",
                    _ => "gather_kernel",
                };
                let bytes = 2.0 * out_elems * esize;
                kernels.push(
                    registry
                        .kernel(
                            name,
                            LaunchConfig::new(grid_for(output.numel(), block), block),
                        )
                        .with_flops(out_elems * 0.5)
                        .with_bytes(bytes)
                        .with_memory_pattern(MemoryPattern::Strided)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::IndexBackward
            | OpKind::IndexSelectBackward
            | OpKind::EmbeddingBackward
            | OpKind::ScatterAdd => {
                // Scatter-style backward: zero the gradient buffer (sized
                // like the table), then scatter the incoming gradient
                // rows. Traffic scales with the *gradient* (inputs[0]),
                // not the table; duplicate indices either serialize the
                // scatter (deterministic `indexing_backward_kernel`,
                // §6.1) or add mild atomic contention.
                let grad_elems = first.numel() as f64;
                if self.kind != OpKind::ScatterAdd {
                    kernels.push(
                        registry
                            .kernel(
                                "vectorized_elementwise_kernel<zero_>",
                                LaunchConfig::new(grid_for(output.numel(), block), block),
                            )
                            .with_bytes(out_elems * esize)
                            .with_profile(InstructionProfile::memory_bound()),
                    );
                }
                let contention = 1.0 + (self.attrs.duplicate_ratio.max(1.0)).ln() * 0.15;
                let (name, factor) = match self.kind {
                    OpKind::IndexBackward => (
                        "indexing_backward_kernel",
                        self.attrs.duplicate_ratio.max(1.0),
                    ),
                    OpKind::IndexSelectBackward => ("index_select_backward_kernel", contention),
                    OpKind::EmbeddingBackward => ("embedding_dense_backward_kernel", contention),
                    _ => ("scatter_add_kernel", contention),
                };
                kernels.push(
                    registry
                        .kernel(
                            name,
                            LaunchConfig::new(grid_for(grad_elems as usize, block), block),
                        )
                        .with_flops(grad_elems)
                        .with_bytes(3.0 * grad_elems * esize)
                        .with_serialization(factor)
                        .with_memory_pattern(MemoryPattern::Strided)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::Cast => {
                let in_bytes = first.bytes() as f64;
                let out_bytes = output.bytes() as f64;
                kernels.push(
                    registry
                        .kernel(
                            "vectorized_elementwise_kernel<to_copy>",
                            LaunchConfig::new(grid_for(output.numel(), block), block),
                        )
                        .with_flops(out_elems)
                        .with_bytes(in_bytes + out_bytes)
                        .with_profile(InstructionProfile::cast_kernel()),
                );
            }
            OpKind::ToLayout => {
                let name = match (first.layout, output.layout) {
                    (Layout::ChannelsFirst, Layout::ChannelsLast) => "cudnn::nchwToNhwcKernel",
                    (Layout::ChannelsLast, Layout::ChannelsFirst) => "cudnn::nhwcToNchwKernel",
                    _ => "copy_kernel",
                };
                kernels.push(conversion_kernel(
                    registry,
                    name,
                    2.0 * out_elems * esize,
                    block,
                ));
            }
            OpKind::Softmax | OpKind::LogSoftmax => {
                let name = match (self.kind, phase) {
                    (OpKind::Softmax, OpPhase::Forward) => "softmax_warp_forward",
                    (OpKind::Softmax, OpPhase::Backward) => "softmax_warp_backward",
                    (_, OpPhase::Forward) => "log_softmax_warp_forward",
                    (_, OpPhase::Backward) => "log_softmax_warp_backward",
                };
                kernels.push(
                    registry
                        .kernel(
                            name,
                            LaunchConfig::new(grid_for(output.numel(), block), block),
                        )
                        .with_flops(4.0 * out_elems)
                        .with_bytes(3.0 * out_elems * esize)
                        .with_registers(40)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::NllLoss => {
                let in_elems = first.numel() as f64;
                kernels.push(
                    registry
                        .kernel(
                            "nll_loss_forward_reduce_cuda_kernel_2d",
                            LaunchConfig::new(grid_for(first.numel() / 64 + 1, block), block),
                        )
                        .with_flops(in_elems)
                        .with_bytes(in_elems * esize)
                        .with_registers(32)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::Mean | OpKind::Sum => {
                let in_elems = first.numel() as f64;
                kernels.push(
                    registry
                        .kernel(
                            "reduce_kernel",
                            LaunchConfig::new(grid_for(first.numel() / 4 + 1, block), block),
                        )
                        .with_flops(in_elems)
                        .with_bytes(in_elems * esize)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::LayerNorm | OpKind::RmsNorm => {
                let name = match (self.kind, phase) {
                    (OpKind::RmsNorm, _) => "rms_norm_kernel",
                    (_, OpPhase::Forward) => "vectorized_layer_norm_kernel",
                    (_, OpPhase::Backward) => "layer_norm_grad_input_kernel",
                };
                let rows = first.shape[..first.shape.len().saturating_sub(1)]
                    .iter()
                    .product::<usize>()
                    .max(1);
                kernels.push(
                    registry
                        .kernel(name, LaunchConfig::new(clamp_grid(rows), block))
                        .with_flops(6.0 * out_elems)
                        .with_bytes(3.0 * out_elems * esize)
                        .with_registers(48)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::InstanceNorm | OpKind::BatchNorm | OpKind::InstanceNormBackward => {
                // The shared CTA-size template of the §6.5 case study.
                let tpb = self.attrs.threads_per_block.unwrap_or(512);
                let (n_, c) = (first.shape[0], first.shape.get(1).copied().unwrap_or(1));
                let grid = clamp_grid(n_ * c);
                let (stats, transform) = match (self.kind, phase) {
                    (OpKind::InstanceNormBackward, _) | (_, OpPhase::Backward) => (
                        "batch_norm_backward_reduce_kernel",
                        "batch_norm_backward_cuda_template",
                    ),
                    _ => (
                        "batch_norm_collect_statistics_kernel",
                        "batch_norm_transform_input_kernel",
                    ),
                };
                for name in [stats, transform] {
                    // NCHW per-(n,c) statistics walk the image plane with
                    // strided, poorly-coalesced accesses; each of the two
                    // kernels effectively re-reads the tensor more than
                    // twice, which is why this template is expensive
                    // relative to its element count.
                    kernels.push(
                        registry
                            .kernel(name, LaunchConfig::new(grid, tpb))
                            .with_flops(4.0 * out_elems)
                            .with_bytes(5.0 * out_elems * esize)
                            .with_registers(64)
                            .with_shared_mem(4 * 1024)
                            .with_memory_pattern(MemoryPattern::Strided)
                            .with_profile(InstructionProfile::memory_bound()),
                    );
                }
            }
            OpKind::MaxPool2d
            | OpKind::Upsample2d
            | OpKind::Concat
            | OpKind::Pad
            | OpKind::Transpose => {
                let name = match self.kind {
                    OpKind::MaxPool2d => "max_pool_forward_nchw",
                    OpKind::Upsample2d => "upsample_nearest2d_out_frame",
                    OpKind::Concat => "CatArrayBatchedCopy",
                    OpKind::Pad => "elementwise_kernel<pad>",
                    _ => "transpose_kernel",
                };
                kernels.push(conversion_kernel(
                    registry,
                    name,
                    2.0 * out_elems * esize,
                    block,
                ));
            }
            OpKind::SgdStep | OpKind::AdamStep => {
                kernels.push(
                    registry
                        .kernel(
                            "multi_tensor_apply_kernel",
                            LaunchConfig::new(grid_for(output.numel(), block), block),
                        )
                        .with_flops(
                            if self.kind == OpKind::AdamStep {
                                8.0
                            } else {
                                2.0
                            } * out_elems,
                        )
                        .with_bytes(4.0 * out_elems * esize)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
            OpKind::Reshape => {
                // Metadata-only: no kernels.
            }
            // Elementwise family.
            _ => {
                let tag = self.name().trim_start_matches("aten::");
                let suffix = match phase {
                    OpPhase::Forward => String::new(),
                    OpPhase::Backward => "_backward".to_owned(),
                };
                let name = format!("vectorized_elementwise_kernel<{tag}{suffix}>");
                let n_in = inputs.len().max(1) as f64;
                kernels.push(
                    registry
                        .kernel(
                            &name,
                            LaunchConfig::new(grid_for(output.numel(), block), block),
                        )
                        .with_flops(out_elems)
                        .with_bytes((n_in + 1.0) * out_elems * esize)
                        .with_profile(InstructionProfile::memory_bound()),
                );
            }
        }
        kernels
    }
}

/// The backward dispatch of a taped forward op.
///
/// Returns the ops the autograd engine executes (in order) for one tape
/// entry, each paired with the inputs it consumes. Notably:
///
/// * `aten::index` lowers to the deterministic serialized
///   `indexing_backward_kernel` while `aten::index_select` uses atomics —
///   the 1.66× DLRM case study (§6.1);
/// * `aten::matmul` produces two gradient matmuls;
/// * `aten::conv2d` produces dgrad + wgrad (plus layout conversions).
pub fn backward_ops(
    op: &Op,
    inputs: &[TensorMeta],
    output: &TensorMeta,
) -> Vec<(Op, Vec<TensorMeta>)> {
    let grad_out = output.clone();
    match op.kind {
        OpKind::MatMul => {
            let lhs = inputs.first().cloned().unwrap_or_else(|| output.clone());
            let rhs = inputs.get(1).cloned().unwrap_or_else(|| output.clone());
            // grad_lhs = grad_out @ rhs^T ; grad_rhs = lhs^T @ grad_out.
            // Pass explicitly transposed operand shapes so the lowered
            // GEMMs carry the true (m, k, n) dimensions.
            let rhs_t = transpose_meta(&rhs);
            let lhs_t = transpose_meta(&lhs);
            vec![
                (
                    Op::new(OpKind::MatMul).with_out_shape(lhs.shape.clone()),
                    vec![grad_out.clone(), rhs_t],
                ),
                (
                    Op::new(OpKind::MatMul).with_out_shape(rhs.shape.clone()),
                    vec![lhs_t, grad_out],
                ),
            ]
        }
        OpKind::Conv2d => {
            let input = inputs.first().cloned().unwrap_or_else(|| output.clone());
            let mut bwd = Op::new(OpKind::Conv2dBackward).with_out_shape(input.shape.clone());
            bwd.attrs.weight_shape = op.attrs.weight_shape.clone();
            vec![(bwd, vec![grad_out, input])]
        }
        OpKind::Index => {
            let table = inputs.first().cloned().unwrap_or_else(|| output.clone());
            let mut bwd = Op::new(OpKind::IndexBackward).with_out_shape(table.shape.clone());
            bwd.attrs.duplicate_ratio = op.attrs.duplicate_ratio;
            vec![(bwd, vec![grad_out, table])]
        }
        OpKind::IndexSelect | OpKind::Gather => {
            let table = inputs.first().cloned().unwrap_or_else(|| output.clone());
            let mut bwd = Op::new(OpKind::IndexSelectBackward).with_out_shape(table.shape.clone());
            bwd.attrs.duplicate_ratio = op.attrs.duplicate_ratio;
            vec![(bwd, vec![grad_out, table])]
        }
        OpKind::Embedding => {
            let table_shape = op.attrs.weight_shape.clone().unwrap_or_else(|| vec![1, 1]);
            let mut bwd = Op::new(OpKind::EmbeddingBackward).with_out_shape(table_shape);
            bwd.attrs.duplicate_ratio = op.attrs.duplicate_ratio;
            vec![(bwd, vec![grad_out])]
        }
        OpKind::InstanceNorm | OpKind::BatchNorm => {
            let input = inputs.first().cloned().unwrap_or_else(|| output.clone());
            let mut bwd = Op::new(OpKind::InstanceNormBackward).with_out_shape(input.shape.clone());
            bwd.attrs.threads_per_block = op.attrs.threads_per_block;
            vec![(bwd, vec![grad_out, input])]
        }
        // Non-differentiable bookkeeping ops have no backward.
        k if !k.differentiable() => Vec::new(),
        // Default: a same-cost mirrored op (elementwise/backwards of
        // softmax, norms, pools, etc. cost roughly what forward costs).
        _ => {
            let input = inputs.first().cloned().unwrap_or_else(|| output.clone());
            let mut bwd = op.clone();
            bwd.attrs.out_shape = Some(input.shape.clone());
            vec![(bwd, vec![grad_out, input])]
        }
    }
}

fn transpose_meta(t: &TensorMeta) -> TensorMeta {
    let mut out = t.clone();
    let n = out.shape.len();
    if n >= 2 {
        out.shape.swap(n - 1, n - 2);
    }
    out
}

fn last_two(shape: &[usize]) -> Option<(usize, usize)> {
    if shape.len() < 2 {
        return None;
    }
    Some((shape[shape.len() - 2], shape[shape.len() - 1]))
}

fn grid_for(numel: usize, block: u32) -> u32 {
    let per_block = (block as usize) * 4; // 4 items per thread
    clamp_grid(numel.div_ceil(per_block))
}

fn clamp_grid(grid: usize) -> u32 {
    grid.clamp(1, 1 << 20) as u32
}

fn conversion_kernel(registry: &KernelRegistry, name: &str, bytes: f64, block: u32) -> KernelDesc {
    let elems = (bytes / 4.0).max(1.0) as usize;
    // cuDNN's layout-conversion kernels are tiled through shared memory
    // and achieve near-coalesced bandwidth; their cost is the bytes moved.
    registry
        .kernel(name, LaunchConfig::new(grid_for(elems, block), block))
        .with_flops(bytes / 8.0)
        .with_bytes(bytes)
        .with_profile(InstructionProfile::memory_bound())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> KernelRegistry {
        KernelRegistry::new("libtorch_cuda.so")
    }

    #[test]
    fn matmul_shape_inference() {
        let op = Op::new(OpKind::MatMul);
        let out = op
            .infer_shape(&[TensorMeta::new([8, 64, 32]), TensorMeta::new([8, 32, 16])])
            .unwrap();
        assert_eq!(out.shape, vec![8, 64, 16]);
        assert!(op
            .infer_shape(&[TensorMeta::new([4, 8]), TensorMeta::new([9, 4])])
            .is_err());
    }

    #[test]
    fn conv2d_shape_inference_and_channel_check() {
        let op = Op::new(OpKind::Conv2d).with_weight([64, 3, 3, 3]);
        let out = op.infer_shape(&[TensorMeta::new([2, 3, 32, 32])]).unwrap();
        assert_eq!(out.shape, vec![2, 64, 32, 32]);
        assert!(op.infer_shape(&[TensorMeta::new([2, 5, 32, 32])]).is_err());
    }

    #[test]
    fn index_shape_takes_rows() {
        let op = Op::new(OpKind::Index);
        let out = op
            .infer_shape(&[
                TensorMeta::new([1000, 64]),
                TensorMeta::new([128]).with_dtype(DType::I64),
            ])
            .unwrap();
        assert_eq!(out.shape, vec![128, 64]);
    }

    #[test]
    fn cast_changes_dtype() {
        let cast = Op::new(OpKind::Cast).with_target_dtype(DType::F16);
        let out = cast.infer_shape(&[TensorMeta::new([4, 4])]).unwrap();
        assert_eq!(out.dtype, DType::F16);
    }

    #[test]
    fn channels_first_conv_inserts_conversion_kernels() {
        let reg = registry();
        let op = Op::new(OpKind::Conv2d).with_weight([64, 32, 3, 3]);
        let input = TensorMeta::new([4, 32, 64, 64]).with_layout(Layout::ChannelsFirst);
        let out = op.infer_shape(std::slice::from_ref(&input)).unwrap();
        let kernels = op.lower(std::slice::from_ref(&input), &out, OpPhase::Forward, &reg);
        let names: Vec<_> = kernels.iter().map(|k| k.name.as_ref().to_owned()).collect();
        assert_eq!(
            names,
            vec![
                "cudnn::nchwToNhwcKernel",
                "cudnn::implicit_gemm_fprop",
                "cudnn::nhwcToNchwKernel"
            ]
        );

        let nhwc = input.with_layout(Layout::ChannelsLast);
        let out = op.infer_shape(std::slice::from_ref(&nhwc)).unwrap();
        let kernels = op.lower(&[nhwc], &out, OpPhase::Forward, &reg);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].name.as_ref(), "cudnn::implicit_gemm_fprop");
    }

    #[test]
    fn index_backward_is_serialized_index_select_backward_is_atomic() {
        let table = TensorMeta::new([100_000, 64]);
        let idx = TensorMeta::new([4096]).with_dtype(DType::I64);
        let reg = registry();

        let index = Op::new(OpKind::Index).with_duplicates(48.0);
        let out = index.infer_shape(&[table.clone(), idx.clone()]).unwrap();
        let bwd = backward_ops(&index, &[table.clone(), idx.clone()], &out);
        assert_eq!(bwd.len(), 1);
        assert_eq!(bwd[0].0.kind, OpKind::IndexBackward);
        let bout = bwd[0].0.infer_shape(&bwd[0].1).unwrap();
        let kernels = bwd[0].0.lower(&bwd[0].1, &bout, OpPhase::Backward, &reg);
        assert_eq!(
            kernels[0].name.as_ref(),
            "vectorized_elementwise_kernel<zero_>"
        );
        assert_eq!(kernels[1].name.as_ref(), "indexing_backward_kernel");
        assert_eq!(kernels[1].serialization_factor, 48.0);

        let select = Op::new(OpKind::IndexSelect).with_duplicates(48.0);
        let out = select.infer_shape(&[table.clone(), idx.clone()]).unwrap();
        let bwd = backward_ops(&select, &[table, idx], &out);
        assert_eq!(bwd[0].0.kind, OpKind::IndexSelectBackward);
        let bout = bwd[0].0.infer_shape(&bwd[0].1).unwrap();
        let kernels = bwd[0].0.lower(&bwd[0].1, &bout, OpPhase::Backward, &reg);
        assert_eq!(kernels[1].name.as_ref(), "index_select_backward_kernel");
        assert!(kernels[1].serialization_factor < 3.0);
    }

    #[test]
    fn matmul_backward_is_two_matmuls() {
        let a = TensorMeta::new([64, 32]);
        let b = TensorMeta::new([32, 16]);
        let op = Op::new(OpKind::MatMul);
        let out = op.infer_shape(&[a.clone(), b.clone()]).unwrap();
        let bwd = backward_ops(&op, &[a, b], &out);
        assert_eq!(bwd.len(), 2);
        assert!(bwd.iter().all(|(o, _)| o.kind == OpKind::MatMul));
    }

    #[test]
    fn nondifferentiable_ops_have_no_backward() {
        let t = TensorMeta::new([8]);
        for kind in [
            OpKind::SgdStep,
            OpKind::AdamStep,
            OpKind::Reshape,
            OpKind::Copy,
        ] {
            let op = Op::new(kind).with_out_shape([8]);
            let out = op.infer_shape(std::slice::from_ref(&t)).unwrap();
            assert!(
                backward_ops(&op, std::slice::from_ref(&t), &out).is_empty(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn instance_norm_backward_uses_shared_template() {
        let x = TensorMeta::new([4, 32, 64, 64]);
        let op = Op::new(OpKind::InstanceNorm).with_threads_per_block(512);
        let out = op.infer_shape(std::slice::from_ref(&x)).unwrap();
        let bwd = backward_ops(&op, &[x], &out);
        assert_eq!(bwd[0].0.kind, OpKind::InstanceNormBackward);
        let reg = registry();
        let bout = bwd[0].0.infer_shape(&bwd[0].1).unwrap();
        let kernels = bwd[0].0.lower(&bwd[0].1, &bout, OpPhase::Backward, &reg);
        assert!(kernels
            .iter()
            .any(|k| k.name.as_ref() == "batch_norm_backward_cuda_template"));
        assert!(kernels.iter().all(|k| k.config.block == 512));
    }

    #[test]
    fn reshape_lowers_to_no_kernels() {
        let reg = registry();
        let op = Op::new(OpKind::Reshape).with_out_shape([16, 4]);
        let input = TensorMeta::new([64]);
        let out = op.infer_shape(std::slice::from_ref(&input)).unwrap();
        assert!(op.lower(&[input], &out, OpPhase::Forward, &reg).is_empty());
    }

    #[test]
    fn elementwise_kernels_are_named_by_op_and_phase() {
        let reg = registry();
        let op = Op::new(OpKind::Relu);
        let input = TensorMeta::new([1024]);
        let out = op.infer_shape(std::slice::from_ref(&input)).unwrap();
        let fwd = op.lower(std::slice::from_ref(&input), &out, OpPhase::Forward, &reg);
        assert_eq!(fwd[0].name.as_ref(), "vectorized_elementwise_kernel<relu>");
        let bwd = op.lower(std::slice::from_ref(&input), &out, OpPhase::Backward, &reg);
        assert_eq!(
            bwd[0].name.as_ref(),
            "vectorized_elementwise_kernel<relu_backward>"
        );
    }

    #[test]
    fn cast_kernel_carries_cast_profile() {
        use deepcontext_core::StallReason;
        let reg = registry();
        let op = Op::new(OpKind::Cast).with_target_dtype(DType::F16);
        let input = TensorMeta::new([4096]);
        let out = op.infer_shape(std::slice::from_ref(&input)).unwrap();
        let k = &op.lower(std::slice::from_ref(&input), &out, OpPhase::Forward, &reg)[0];
        assert!(k.instruction_profile.instrs().iter().any(|i| i
            .stall_mix
            .iter()
            .any(|(r, _)| *r == StallReason::ConstantMemory)));
    }

    #[test]
    fn backward_names_match_forward_operator() {
        assert_eq!(OpKind::IndexBackward.name(), "aten::index");
        assert_eq!(OpKind::Conv2dBackward.name(), "aten::conv2d");
        assert_eq!(OpKind::InstanceNormBackward.name(), "aten::instance_norm");
    }

    #[test]
    fn elementwise_classification() {
        assert!(OpKind::Relu.is_elementwise());
        assert!(OpKind::Cast.is_elementwise());
        assert!(!OpKind::MatMul.is_elementwise());
        assert!(!OpKind::Softmax.is_elementwise());
    }
}
