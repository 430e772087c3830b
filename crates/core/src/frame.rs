//! Unified multi-layer frames and call paths.
//!
//! DeepContext's key innovation (paper §4.1, "Call Path Integration") is a
//! single call path whose frames span every layer of the deep learning
//! stack. [`Frame`] models one entry of such a path; [`CallPath`] is the
//! root-to-leaf sequence handed to the calling context tree.

use std::fmt;

use crate::interner::{Interner, Sym};

/// Which layer of the software stack a frame belongs to.
///
/// Mirrors the columns of the paper's Table 1 (Python context, framework
/// context, C++ context, device context) plus the structural `Root`,
/// `Thread` and fine-grained `Instruction` levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameKind {
    /// The synthetic process root.
    Root,
    /// A CPU thread boundary (used for unmerged per-thread views).
    Thread,
    /// A Python interpreter frame.
    Python,
    /// A deep-learning framework operator (e.g. `aten::matmul`).
    Operator,
    /// A native C/C++ frame.
    Native,
    /// A GPU runtime API call (kernel launch, memcpy, malloc...).
    GpuApi,
    /// A device kernel.
    GpuKernel,
    /// A sampled instruction PC within a kernel (fine-grained metrics).
    Instruction,
}

impl FrameKind {
    /// All kinds, ordered from coarse to fine.
    pub const ALL: [FrameKind; 8] = [
        FrameKind::Root,
        FrameKind::Thread,
        FrameKind::Python,
        FrameKind::Operator,
        FrameKind::Native,
        FrameKind::GpuApi,
        FrameKind::GpuKernel,
        FrameKind::Instruction,
    ];
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameKind::Root => "root",
            FrameKind::Thread => "thread",
            FrameKind::Python => "python",
            FrameKind::Operator => "operator",
            FrameKind::Native => "native",
            FrameKind::GpuApi => "gpu_api",
            FrameKind::GpuKernel => "gpu_kernel",
            FrameKind::Instruction => "instruction",
        };
        f.write_str(s)
    }
}

/// The role a CPU thread plays in a deep learning framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThreadRole {
    /// The main (forward) Python thread.
    #[default]
    Main,
    /// A dedicated autograd backward thread (paper §4.1, "Forward and
    /// backward operator association").
    Backward,
    /// A data-loader worker thread.
    DataLoader,
    /// Any other helper thread.
    Worker,
}

impl fmt::Display for ThreadRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThreadRole::Main => "main",
            ThreadRole::Backward => "backward",
            ThreadRole::DataLoader => "dataloader",
            ThreadRole::Worker => "worker",
        };
        f.write_str(s)
    }
}

/// Whether an operator frame was recorded in the forward or backward phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpPhase {
    /// Forward execution (or inference).
    #[default]
    Forward,
    /// Backward (gradient) execution.
    Backward,
}

impl fmt::Display for OpPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpPhase::Forward => f.write_str("forward"),
            OpPhase::Backward => f.write_str("backward"),
        }
    }
}

/// One frame of a unified call path.
///
/// Construct frames with the typed constructors ([`Frame::python`],
/// [`Frame::operator`], [`Frame::native`], ...) so that collapse keys stay
/// consistent with the paper's rules (§4.2 "Calling Context Tree"):
///
/// * native / GPU API / GPU kernel frames collapse on (library, PC),
/// * Python frames collapse on (file, line),
/// * operator frames collapse on (name, phase).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum Frame {
    /// The synthetic process root.
    #[default]
    Root,
    /// A CPU thread boundary.
    Thread {
        /// Simulated OS thread id.
        tid: u64,
        /// What the thread does.
        role: ThreadRole,
    },
    /// A Python interpreter frame.
    Python {
        /// Source file.
        file: Sym,
        /// Line number of the call site.
        line: u32,
        /// Enclosing function name (display only; not part of the key).
        function: Sym,
    },
    /// A deep-learning operator frame maintained by the shadow stack.
    Operator {
        /// Operator name, e.g. `aten::index`.
        name: Sym,
        /// Forward or backward instance.
        phase: OpPhase,
        /// Autograd sequence id linking forward and backward instances
        /// (display/association only; not part of the key).
        seq_id: Option<u64>,
    },
    /// A native C/C++ frame.
    Native {
        /// Containing shared library.
        library: Sym,
        /// Program counter.
        pc: u64,
        /// Resolved symbol (display only; not part of the key).
        symbol: Sym,
    },
    /// A GPU runtime API call.
    GpuApi {
        /// API name, e.g. `cuLaunchKernel`.
        name: Sym,
        /// Library providing the API (part of the key with `pc`).
        library: Sym,
        /// Call-site program counter.
        pc: u64,
    },
    /// A device kernel frame.
    GpuKernel {
        /// Demangled kernel name.
        name: Sym,
        /// Module ("library") the kernel comes from.
        module: Sym,
        /// Kernel entry address.
        pc: u64,
    },
    /// A sampled instruction inside a kernel.
    Instruction {
        /// Instruction PC relative to the kernel entry.
        pc: u64,
    },
}

impl Frame {
    // The typed constructors intern through the caller's thread-local
    // cache (`Interner::intern_cached`): producers (DLMonitor's event
    // builders, the sim-GPU runtime) rebuild frames for the same hot
    // names every training step, so the striped locks are skipped on
    // everything but the first sighting per thread.

    /// Creates a Python frame.
    pub fn python(file: &str, line: u32, function: &str, interner: &Interner) -> Self {
        Frame::Python {
            file: interner.intern_cached(file),
            line,
            function: interner.intern_cached(function),
        }
    }

    /// Creates a forward operator frame.
    pub fn operator(name: &str, interner: &Interner) -> Self {
        Frame::Operator {
            name: interner.intern_cached(name),
            phase: OpPhase::Forward,
            seq_id: None,
        }
    }

    /// Creates an operator frame with an explicit phase and sequence id.
    pub fn operator_with(
        name: &str,
        phase: OpPhase,
        seq_id: Option<u64>,
        interner: &Interner,
    ) -> Self {
        Frame::Operator {
            name: interner.intern_cached(name),
            phase,
            seq_id,
        }
    }

    /// Creates a native frame.
    pub fn native(library: &str, pc: u64, symbol: &str, interner: &Interner) -> Self {
        Frame::Native {
            library: interner.intern_cached(library),
            pc,
            symbol: interner.intern_cached(symbol),
        }
    }

    /// Creates a GPU API frame.
    pub fn gpu_api(name: &str, library: &str, pc: u64, interner: &Interner) -> Self {
        Frame::GpuApi {
            name: interner.intern_cached(name),
            library: interner.intern_cached(library),
            pc,
        }
    }

    /// Creates a GPU kernel frame.
    pub fn gpu_kernel(name: &str, module: &str, pc: u64, interner: &Interner) -> Self {
        Frame::GpuKernel {
            name: interner.intern_cached(name),
            module: interner.intern_cached(module),
            pc,
        }
    }

    /// Creates an instruction frame.
    pub fn instruction(pc: u64) -> Self {
        Frame::Instruction { pc }
    }

    /// Creates a thread frame.
    pub fn thread(tid: u64, role: ThreadRole) -> Self {
        Frame::Thread { tid, role }
    }

    /// The interned kernel name when this is a device-kernel frame.
    /// Attribution taps use this to reuse the `Sym` the launch path
    /// already interned instead of re-interning the activity record's
    /// name string.
    pub fn gpu_kernel_name(&self) -> Option<Sym> {
        match self {
            Frame::GpuKernel { name, .. } => Some(*name),
            _ => None,
        }
    }

    /// Re-creates this frame with its strings interned in `to` instead
    /// of `from`. Identity (modulo `Sym` values) for frames that carry
    /// no interned strings. This is what lets trees with *different*
    /// interners be merged — e.g. two profiles loaded independently
    /// from a store — since `Sym`s are only meaningful within the
    /// interner that produced them.
    pub fn reintern(&self, from: &Interner, to: &Interner) -> Frame {
        let re = |s: Sym| to.intern(&from.resolve(s));
        match *self {
            Frame::Root => Frame::Root,
            Frame::Thread { tid, role } => Frame::Thread { tid, role },
            Frame::Python {
                file,
                line,
                function,
            } => Frame::Python {
                file: re(file),
                line,
                function: re(function),
            },
            Frame::Operator {
                name,
                phase,
                seq_id,
            } => Frame::Operator {
                name: re(name),
                phase,
                seq_id,
            },
            Frame::Native {
                library,
                pc,
                symbol,
            } => Frame::Native {
                library: re(library),
                pc,
                symbol: re(symbol),
            },
            Frame::GpuApi { name, library, pc } => Frame::GpuApi {
                name: re(name),
                library: re(library),
                pc,
            },
            Frame::GpuKernel { name, module, pc } => Frame::GpuKernel {
                name: re(name),
                module: re(module),
                pc,
            },
            Frame::Instruction { pc } => Frame::Instruction { pc },
        }
    }

    /// The layer this frame belongs to.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Root => FrameKind::Root,
            Frame::Thread { .. } => FrameKind::Thread,
            Frame::Python { .. } => FrameKind::Python,
            Frame::Operator { .. } => FrameKind::Operator,
            Frame::Native { .. } => FrameKind::Native,
            Frame::GpuApi { .. } => FrameKind::GpuApi,
            Frame::GpuKernel { .. } => FrameKind::GpuKernel,
            Frame::Instruction { .. } => FrameKind::Instruction,
        }
    }

    /// The collapse key under which the calling context tree unifies frames
    /// that refer to the same location (paper §4.2).
    pub fn key(&self) -> FrameKey {
        match *self {
            Frame::Root => FrameKey::Root,
            Frame::Thread { tid, role } => FrameKey::Thread { tid, role },
            Frame::Python { file, line, .. } => FrameKey::Python { file, line },
            Frame::Operator { name, phase, .. } => FrameKey::Operator { name, phase },
            Frame::Native { library, pc, .. } => FrameKey::Code {
                library,
                pc,
                kind: FrameKind::Native,
            },
            Frame::GpuApi { library, pc, .. } => FrameKey::Code {
                library,
                pc,
                kind: FrameKind::GpuApi,
            },
            Frame::GpuKernel { module, pc, .. } => FrameKey::Code {
                library: module,
                pc,
                kind: FrameKind::GpuKernel,
            },
            Frame::Instruction { pc } => FrameKey::Instruction { pc },
        }
    }

    /// Human-readable label, resolving interned names through `interner`.
    pub fn label(&self, interner: &Interner) -> String {
        match *self {
            Frame::Root => "<root>".to_owned(),
            Frame::Thread { tid, role } => format!("<thread {tid} ({role})>"),
            Frame::Python {
                file,
                line,
                function,
            } => {
                format!(
                    "{}:{} ({})",
                    interner.resolve(file),
                    line,
                    interner.resolve(function)
                )
            }
            Frame::Operator {
                name,
                phase,
                seq_id,
            } => {
                let name = interner.resolve(name);
                let seq = seq_id.map(|s| format!(" seq={s}")).unwrap_or_default();
                match phase {
                    OpPhase::Forward => format!("{name}{seq}"),
                    OpPhase::Backward => format!("{name} [backward]{seq}"),
                }
            }
            Frame::Native {
                library,
                pc,
                symbol,
            } => {
                format!(
                    "{} ({}+{pc:#x})",
                    interner.resolve(symbol),
                    interner.resolve(library)
                )
            }
            Frame::GpuApi { name, library, pc } => {
                format!(
                    "{} ({}+{pc:#x})",
                    interner.resolve(name),
                    interner.resolve(library)
                )
            }
            Frame::GpuKernel { name, module, pc } => {
                format!(
                    "{} [kernel] ({}+{pc:#x})",
                    interner.resolve(name),
                    interner.resolve(module)
                )
            }
            Frame::Instruction { pc } => format!("pc {pc:#x}"),
        }
    }

    /// Short name suitable for flame graph boxes.
    pub fn short_label(&self, interner: &Interner) -> String {
        match *self {
            Frame::Root => "root".to_owned(),
            Frame::Thread { tid, role } => format!("thread-{tid}-{role}"),
            Frame::Python { file, line, .. } => {
                let file = interner.resolve(file);
                let base = file.rsplit('/').next().unwrap_or(&file).to_owned();
                format!("{base}:{line}")
            }
            Frame::Operator { name, phase, .. } => match phase {
                OpPhase::Forward => interner.resolve(name).to_string(),
                OpPhase::Backward => format!("{}~bwd", interner.resolve(name)),
            },
            Frame::Native { symbol, .. } => interner.resolve(symbol).to_string(),
            Frame::GpuApi { name, .. } => interner.resolve(name).to_string(),
            Frame::GpuKernel { name, .. } => interner.resolve(name).to_string(),
            Frame::Instruction { pc } => format!("pc_{pc:#x}"),
        }
    }
}

/// The identity under which frames collapse in the calling context tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKey {
    /// Root key.
    Root,
    /// Thread key.
    Thread {
        /// Thread id.
        tid: u64,
        /// Thread role.
        role: ThreadRole,
    },
    /// Python frames collapse on (file, line).
    Python {
        /// Source file.
        file: Sym,
        /// Line number.
        line: u32,
    },
    /// Operator frames collapse on (name, phase).
    Operator {
        /// Operator name.
        name: Sym,
        /// Phase.
        phase: OpPhase,
    },
    /// Native, GPU-API and GPU-kernel frames collapse on (library, pc).
    Code {
        /// Library / module.
        library: Sym,
        /// Program counter.
        pc: u64,
        /// Distinguishes native vs GPU API vs kernel at identical addresses.
        kind: FrameKind,
    },
    /// Instruction frames collapse on pc.
    Instruction {
        /// Instruction PC.
        pc: u64,
    },
}

/// A root-to-leaf sequence of frames.
///
/// The first element is closest to the root (outermost caller); the last is
/// the innermost frame (e.g. a GPU kernel). On the write path a context
/// travels as a [`PathHandle`](crate::PathHandle); this is what one
/// renders to ([`PathHandle::to_call_path`](crate::PathHandle::to_call_path))
/// and what
/// [`CallingContextTree::insert_path`](crate::CallingContextTree::insert_path)
/// consumes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallPath {
    frames: Vec<Frame>,
}

impl CallPath {
    /// Creates an empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a path from root-to-leaf frames.
    pub fn from_frames(frames: Vec<Frame>) -> Self {
        CallPath { frames }
    }

    /// Appends a frame at the leaf end.
    pub fn push(&mut self, frame: Frame) {
        self.frames.push(frame);
    }

    /// Removes and returns the leaf frame.
    pub fn pop(&mut self) -> Option<Frame> {
        self.frames.pop()
    }

    /// The frames, root first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The innermost frame, if any.
    pub fn leaf(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the path has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Renders the path as a multi-line, indented string (root at top) —
    /// the textual analogue of the paper's Figure 3.
    pub fn render(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for (depth, frame) in self.frames.iter().enumerate() {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&frame.label(interner));
            out.push('\n');
        }
        out
    }

    /// Iterates frames root-first.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }
}

impl From<Vec<Frame>> for CallPath {
    fn from(frames: Vec<Frame>) -> Self {
        CallPath::from_frames(frames)
    }
}

impl FromIterator<Frame> for CallPath {
    fn from_iter<I: IntoIterator<Item = Frame>>(iter: I) -> Self {
        CallPath::from_frames(iter.into_iter().collect())
    }
}

impl IntoIterator for CallPath {
    type Item = Frame;
    type IntoIter = std::vec::IntoIter<Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.into_iter()
    }
}

impl<'a> IntoIterator for &'a CallPath {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

/// Serialization helpers shared by the profile database.
impl Frame {
    /// Appends the frame's tab-separated record to `out`.
    pub(crate) fn write_record(&self, out: &mut impl fmt::Write) {
        let _ = match *self {
            Frame::Root => write!(out, "R"),
            Frame::Thread { tid, role } => write!(out, "T\t{tid}\t{}", role_code(role)),
            Frame::Python {
                file,
                line,
                function,
            } => write!(out, "P\t{}\t{line}\t{}", file.0, function.0),
            Frame::Operator {
                name,
                phase,
                seq_id,
            } => write!(
                out,
                "O\t{}\t{}\t{}",
                name.0,
                phase_code(phase),
                seq_id.map(|s| s as i64).unwrap_or(-1)
            ),
            Frame::Native {
                library,
                pc,
                symbol,
            } => write!(out, "N\t{}\t{pc}\t{}", library.0, symbol.0),
            Frame::GpuApi { name, library, pc } => {
                write!(out, "A\t{}\t{}\t{pc}", name.0, library.0)
            }
            Frame::GpuKernel { name, module, pc } => {
                write!(out, "K\t{}\t{}\t{pc}", name.0, module.0)
            }
            Frame::Instruction { pc } => write!(out, "I\t{pc}"),
        };
    }

    /// Reads one frame record off the front of `parts` — the tag and
    /// exactly the fields that tag carries — leaving the rest of the
    /// line to the caller.
    pub(crate) fn from_record<'a>(
        parts: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Frame, crate::CoreError> {
        let tag = parts.next().unwrap_or("");
        let mut num = |what: &str| -> Result<u64, crate::CoreError> {
            parts
                .next()
                .ok_or_else(|| crate::CoreError::parse(format!("missing {what} in frame record")))?
                .parse::<i64>()
                .map(|v| v as u64)
                .map_err(|e| crate::CoreError::parse(format!("bad {what}: {e}")))
        };
        let frame = match tag {
            "R" => Frame::Root,
            "T" => {
                let tid = num("tid")?;
                let role = role_from_code(num("role")? as u8)?;
                Frame::Thread { tid, role }
            }
            "P" => {
                let file = Sym(num("file")? as u32);
                let line = num("line")? as u32;
                let function = Sym(num("function")? as u32);
                Frame::Python {
                    file,
                    line,
                    function,
                }
            }
            "O" => {
                let name = Sym(num("name")? as u32);
                let phase = phase_from_code(num("phase")? as u8)?;
                let raw = num("seq")? as i64;
                let seq_id = if raw < 0 { None } else { Some(raw as u64) };
                Frame::Operator {
                    name,
                    phase,
                    seq_id,
                }
            }
            "N" => {
                let library = Sym(num("library")? as u32);
                let pc = num("pc")?;
                let symbol = Sym(num("symbol")? as u32);
                Frame::Native {
                    library,
                    pc,
                    symbol,
                }
            }
            "A" => {
                let name = Sym(num("name")? as u32);
                let library = Sym(num("library")? as u32);
                let pc = num("pc")?;
                Frame::GpuApi { name, library, pc }
            }
            "K" => {
                let name = Sym(num("name")? as u32);
                let module = Sym(num("module")? as u32);
                let pc = num("pc")?;
                Frame::GpuKernel { name, module, pc }
            }
            "I" => Frame::Instruction { pc: num("pc")? },
            other => {
                return Err(crate::CoreError::parse(format!(
                    "unknown frame tag {other:?}"
                )))
            }
        };
        Ok(frame)
    }
}

fn role_code(role: ThreadRole) -> u8 {
    match role {
        ThreadRole::Main => 0,
        ThreadRole::Backward => 1,
        ThreadRole::DataLoader => 2,
        ThreadRole::Worker => 3,
    }
}

fn role_from_code(code: u8) -> Result<ThreadRole, crate::CoreError> {
    Ok(match code {
        0 => ThreadRole::Main,
        1 => ThreadRole::Backward,
        2 => ThreadRole::DataLoader,
        3 => ThreadRole::Worker,
        other => {
            return Err(crate::CoreError::parse(format!(
                "unknown thread role {other}"
            )))
        }
    })
}

fn phase_code(phase: OpPhase) -> u8 {
    match phase {
        OpPhase::Forward => 0,
        OpPhase::Backward => 1,
    }
}

fn phase_from_code(code: u8) -> Result<OpPhase, crate::CoreError> {
    Ok(match code {
        0 => OpPhase::Forward,
        1 => OpPhase::Backward,
        other => return Err(crate::CoreError::parse(format!("unknown phase {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interner() -> std::sync::Arc<Interner> {
        Interner::new()
    }

    #[test]
    fn python_frames_collapse_on_file_and_line() {
        let i = interner();
        let a = Frame::python("m.py", 3, "f", &i);
        let b = Frame::python("m.py", 3, "g", &i); // different function
        let c = Frame::python("m.py", 4, "f", &i);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn native_frames_collapse_on_library_and_pc() {
        let i = interner();
        let a = Frame::native("libtorch.so", 0x10, "sym_a", &i);
        let b = Frame::native("libtorch.so", 0x10, "sym_b", &i);
        let c = Frame::native("libtorch.so", 0x20, "sym_a", &i);
        let d = Frame::native("libother.so", 0x10, "sym_a", &i);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(a.key(), d.key());
    }

    #[test]
    fn operator_frames_collapse_on_name_and_phase() {
        let i = interner();
        let fwd1 = Frame::operator_with("aten::index", OpPhase::Forward, Some(1), &i);
        let fwd2 = Frame::operator_with("aten::index", OpPhase::Forward, Some(2), &i);
        let bwd = Frame::operator_with("aten::index", OpPhase::Backward, Some(1), &i);
        assert_eq!(fwd1.key(), fwd2.key());
        assert_ne!(fwd1.key(), bwd.key());
    }

    #[test]
    fn gpu_api_and_native_do_not_collapse_at_same_address() {
        let i = interner();
        let native = Frame::native("libcudart.so", 0x77, "cudaLaunchKernel", &i);
        let api = Frame::gpu_api("cudaLaunchKernel", "libcudart.so", 0x77, &i);
        assert_ne!(native.key(), api.key());
    }

    #[test]
    fn call_path_push_pop_and_render() {
        let i = interner();
        let mut path = CallPath::new();
        assert!(path.is_empty());
        path.push(Frame::python("train.py", 1, "main", &i));
        path.push(Frame::operator("aten::relu", &i));
        assert_eq!(path.len(), 2);
        assert_eq!(path.leaf().unwrap().kind(), FrameKind::Operator);
        let rendered = path.render(&i);
        assert!(rendered.contains("train.py:1"));
        assert!(rendered.contains("aten::relu"));
        assert_eq!(path.pop().unwrap().kind(), FrameKind::Operator);
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn frame_record_round_trip() {
        let i = interner();
        let frames = vec![
            Frame::Root,
            Frame::thread(7, ThreadRole::Backward),
            Frame::python("a.py", 42, "fn", &i),
            Frame::operator_with("aten::index", OpPhase::Backward, Some(9), &i),
            Frame::operator("aten::relu", &i),
            Frame::native("libc.so", 0xdeadbeef, "memcpy", &i),
            Frame::gpu_api("cuLaunchKernel", "libcuda.so", 0x99, &i),
            Frame::gpu_kernel("sgemm", "libtorch_cuda.so", 0x1234, &i),
            Frame::instruction(0x40),
        ];
        for f in frames {
            let mut rec = String::new();
            f.write_record(&mut rec);
            rec.push_str("\trest");
            let mut parts = rec.split('\t');
            let back = Frame::from_record(&mut parts).unwrap();
            assert_eq!(f, back, "record {rec:?}");
            assert_eq!(parts.next(), Some("rest"), "record {rec:?}");
        }
    }

    #[test]
    fn labels_resolve_names() {
        let i = interner();
        let f = Frame::gpu_kernel("nchwToNhwcKernel", "libcudnn.so", 0x10, &i);
        assert!(f.label(&i).contains("nchwToNhwcKernel"));
        assert_eq!(f.short_label(&i), "nchwToNhwcKernel");
        let b = Frame::operator_with("aten::index", OpPhase::Backward, None, &i);
        assert!(b.short_label(&i).ends_with("~bwd"));
    }
}
