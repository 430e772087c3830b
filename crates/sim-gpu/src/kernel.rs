//! Kernel descriptors and instruction profiles.

use std::sync::Arc;

use deepcontext_core::StallReason;

/// How a kernel touches device memory (drives achieved bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPattern {
    /// Contiguous, coalesced loads/stores.
    #[default]
    Coalesced,
    /// Strided or gather/scatter access (NCHW statistics walks, index
    /// lookups): achieves a lower fraction of peak bandwidth, with a
    /// vendor-specific penalty.
    Strided,
}

/// Grid/block launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks (CTAs).
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(grid: u32, block: u32) -> Self {
        assert!(grid > 0 && block > 0, "launch dimensions must be positive");
        LaunchConfig { grid, block }
    }
}

/// One synthetic instruction of a kernel's hot region.
///
/// `weight` is the relative share of kernel time spent at this PC;
/// `stall_mix` distributes that share across stall reasons (summing to
/// ≤ 1.0, remainder counts as issued).
#[derive(Debug, Clone, PartialEq)]
pub struct InstrInfo {
    /// PC relative to the kernel entry.
    pub pc: u64,
    /// Mnemonic, e.g. `FFMA`, `LDG.E`, `F2F.F32.F16`.
    pub opcode: String,
    /// Relative time weight (need not be normalised).
    pub weight: f64,
    /// Distribution of stall reasons at this PC.
    pub stall_mix: Vec<(StallReason, f64)>,
}

/// The sampled-instruction model of a kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstructionProfile {
    instrs: Vec<InstrInfo>,
}

impl InstructionProfile {
    /// An empty profile (kernels without fine-grained data).
    pub fn empty() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Builds a profile from instructions.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative.
    pub fn new(instrs: Vec<InstrInfo>) -> Arc<Self> {
        assert!(
            instrs.iter().all(|i| i.weight >= 0.0),
            "instruction weights must be non-negative"
        );
        Arc::new(InstructionProfile { instrs })
    }

    /// A generic compute-bound profile: FMA-heavy with execution
    /// dependencies.
    pub fn compute_bound() -> Arc<Self> {
        Self::new(vec![
            InstrInfo {
                pc: 0x10,
                opcode: "FFMA".into(),
                weight: 0.7,
                stall_mix: vec![
                    (StallReason::ExecutionDependency, 0.2),
                    (StallReason::NotSelected, 0.1),
                ],
            },
            InstrInfo {
                pc: 0x20,
                opcode: "LDG.E".into(),
                weight: 0.2,
                stall_mix: vec![(StallReason::MemoryDependency, 0.6)],
            },
            InstrInfo {
                pc: 0x30,
                opcode: "BRA".into(),
                weight: 0.1,
                stall_mix: vec![(StallReason::InstructionFetch, 0.2)],
            },
        ])
    }

    /// A generic memory-bound profile: loads dominating with memory
    /// dependencies and throttling.
    pub fn memory_bound() -> Arc<Self> {
        Self::new(vec![
            InstrInfo {
                pc: 0x10,
                opcode: "LDG.E.128".into(),
                weight: 0.6,
                stall_mix: vec![
                    (StallReason::MemoryDependency, 0.7),
                    (StallReason::MemoryThrottle, 0.2),
                ],
            },
            InstrInfo {
                pc: 0x20,
                opcode: "STG.E.128".into(),
                weight: 0.3,
                stall_mix: vec![(StallReason::MemoryDependency, 0.5)],
            },
            InstrInfo {
                pc: 0x30,
                opcode: "IADD".into(),
                weight: 0.1,
                stall_mix: vec![(StallReason::ExecutionDependency, 0.2)],
            },
        ])
    }

    /// The paper's §6.7 data-conversion profile: non-vectorised
    /// `float<->half` conversion instructions stalled on math dependencies,
    /// plus constant-memory misses from per-CTA constant loads.
    pub fn cast_kernel() -> Arc<Self> {
        Self::new(vec![
            InstrInfo {
                pc: 0x10,
                opcode: "LDC".into(),
                weight: 0.3,
                stall_mix: vec![(StallReason::ConstantMemory, 0.8)],
            },
            InstrInfo {
                pc: 0x20,
                opcode: "F2F.F32.F16".into(),
                weight: 0.5,
                stall_mix: vec![(StallReason::MathDependency, 0.65)],
            },
            InstrInfo {
                pc: 0x30,
                opcode: "STG.E".into(),
                weight: 0.2,
                stall_mix: vec![(StallReason::MemoryDependency, 0.4)],
            },
        ])
    }

    /// The instructions.
    pub fn instrs(&self) -> &[InstrInfo] {
        &self.instrs
    }

    /// Sum of instruction weights.
    pub fn total_weight(&self) -> f64 {
        self.instrs.iter().map(|i| i.weight).sum()
    }

    /// Whether the profile has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Everything the runtime needs to execute (simulate) one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Demangled kernel name.
    pub name: Arc<str>,
    /// Module ("library") providing the kernel.
    pub module: Arc<str>,
    /// Kernel entry address within the module.
    pub entry_pc: u64,
    /// Launch configuration.
    pub config: LaunchConfig,
    /// Floating-point work, FLOPs.
    pub flops: f64,
    /// Bytes read + written from device memory.
    pub bytes: f64,
    /// Registers per thread.
    pub registers_per_thread: u32,
    /// Shared memory per block, bytes.
    pub shared_mem_per_block: u64,
    /// Serialization multiplier (1.0 = none). Deterministic scatter
    /// kernels such as PyTorch's `indexing_backward_kernel` serialise
    /// threads that hit duplicate indices (paper §6.1), modelled as a
    /// direct duration multiplier.
    pub serialization_factor: f64,
    /// Memory access pattern.
    pub memory_pattern: MemoryPattern,
    /// Fine-grained instruction model.
    pub instruction_profile: Arc<InstructionProfile>,
}

impl KernelDesc {
    /// Creates a kernel descriptor with sane defaults (no serialization,
    /// 32 registers, no shared memory, empty instruction profile).
    pub fn new(name: &str, module: &str, entry_pc: u64, config: LaunchConfig) -> Self {
        KernelDesc {
            name: Arc::from(name),
            module: Arc::from(module),
            entry_pc,
            config,
            flops: 0.0,
            bytes: 0.0,
            registers_per_thread: 32,
            shared_mem_per_block: 0,
            serialization_factor: 1.0,
            memory_pattern: MemoryPattern::Coalesced,
            instruction_profile: InstructionProfile::empty(),
        }
    }

    /// Sets the arithmetic work.
    pub fn with_flops(mut self, flops: f64) -> Self {
        self.flops = flops;
        self
    }

    /// Sets the memory traffic.
    pub fn with_bytes(mut self, bytes: f64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets register usage per thread.
    pub fn with_registers(mut self, regs: u32) -> Self {
        self.registers_per_thread = regs;
        self
    }

    /// Sets shared memory per block.
    pub fn with_shared_mem(mut self, bytes: u64) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Sets the serialization multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn with_serialization(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "serialization factor must be >= 1.0");
        self.serialization_factor = factor;
        self
    }

    /// Sets the memory access pattern.
    pub fn with_memory_pattern(mut self, pattern: MemoryPattern) -> Self {
        self.memory_pattern = pattern;
        self
    }

    /// Sets the instruction profile.
    pub fn with_profile(mut self, profile: Arc<InstructionProfile>) -> Self {
        self.instruction_profile = profile;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_grid_panics() {
        LaunchConfig::new(0, 128);
    }

    #[test]
    fn builder_chain_sets_fields() {
        let k = KernelDesc::new(
            "sgemm",
            "libtorch_cuda.so",
            0x100,
            LaunchConfig::new(64, 256),
        )
        .with_flops(1e9)
        .with_bytes(4e6)
        .with_registers(96)
        .with_shared_mem(48 * 1024)
        .with_serialization(3.0)
        .with_profile(InstructionProfile::compute_bound());
        assert_eq!(k.name.as_ref(), "sgemm");
        assert_eq!(k.flops, 1e9);
        assert_eq!(k.bytes, 4e6);
        assert_eq!(k.registers_per_thread, 96);
        assert_eq!(k.shared_mem_per_block, 48 * 1024);
        assert_eq!(k.serialization_factor, 3.0);
        assert!(!k.instruction_profile.is_empty());
    }

    #[test]
    #[should_panic(expected = "serialization factor")]
    fn sub_unity_serialization_panics() {
        KernelDesc::new("k", "m", 0, LaunchConfig::new(1, 32)).with_serialization(0.5);
    }

    #[test]
    fn canned_profiles_have_expected_stalls() {
        use deepcontext_core::StallReason;
        let cast = InstructionProfile::cast_kernel();
        let has_const = cast.instrs().iter().any(|i| {
            i.stall_mix
                .iter()
                .any(|(r, _)| *r == StallReason::ConstantMemory)
        });
        let has_math = cast.instrs().iter().any(|i| {
            i.stall_mix
                .iter()
                .any(|(r, _)| *r == StallReason::MathDependency)
        });
        assert!(has_const && has_math);
        assert!(cast.total_weight() > 0.0);
    }
}
