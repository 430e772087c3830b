//! The paper's five example analyses (§4.3, "Example Analyses").

use std::collections::HashMap;

use deepcontext_core::{FrameKind, MetricKind, OpPhase, StallReason};

use crate::issue::{Issue, Severity};
use crate::view::ProfileView;
use crate::Rule;

/// ① Hotspot Identification: flags kernels whose inclusive GPU time
/// exceeds a fraction of total GPU time.
///
/// ```text
/// total_time = call_tree.root.time
/// for n in call_tree.kernels:
///     if n.time / total_time > hotspot_threshold:
///         flag_hotspot(n)
/// ```
#[derive(Debug, Clone)]
pub struct HotspotRule {
    /// Fraction of total GPU time a kernel must exceed (default 0.10).
    pub threshold: f64,
}

impl Default for HotspotRule {
    fn default() -> Self {
        HotspotRule { threshold: 0.10 }
    }
}

impl Rule for HotspotRule {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn description(&self) -> &str {
        "identifies GPU kernels consuming a large share of total GPU time"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let total = view.total(MetricKind::GpuTime);
        if total <= 0.0 {
            return Vec::new();
        }
        // Aggregate per kernel *name* across calling contexts — the
        // paper's §6.2 hotspot (nchwToNhwcKernel at 15.4%) is the sum
        // over every conversion site, which the bottom-up view surfaces.
        let mut groups: HashMap<String, (f64, deepcontext_core::NodeId, f64)> = HashMap::new();
        for node in view.kernels() {
            let time = view.sum(node, MetricKind::GpuTime);
            let entry = groups
                .entry(view.short_label(node))
                .or_insert((0.0, node, 0.0));
            entry.0 += time;
            if time > entry.2 {
                entry.1 = node;
                entry.2 = time;
            }
        }
        let mut issues = Vec::new();
        for (time, node, _) in groups.into_values() {
            let share = time / total;
            if share > self.threshold {
                let label = view.label(node);
                let suggestion = if label.contains("nchwToNhwc") || label.contains("nhwcToNchw") {
                    "store tensors in channels_last layout to avoid repeated \
                     layout conversions around cuDNN kernels"
                        .to_owned()
                } else if label.contains("indexing_backward") {
                    "replace aten::index with aten::index_select if determinism \
                     is not required"
                        .to_owned()
                } else {
                    format!("inspect {label}: it dominates device time")
                };
                issues.push(Issue {
                    rule: self.name().to_owned(),
                    severity: if share > 0.3 {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    },
                    node,
                    call_path: view.path_string(node),
                    message: format!("kernel {label} takes {:.1}% of GPU time", share * 100.0),
                    suggestion,
                    metrics: vec![
                        ("gpu_time_ns".to_owned(), time),
                        ("share".to_owned(), share),
                    ],
                    weight: time,
                });
            }
        }
        issues
    }
}

/// ② Kernel Fusion Analysis: flags frames launching many small kernels.
///
/// ```text
/// for n in bfs(call_tree.nodes):
///     if n.gpu_time / n.count < gpu_threshold:
///         flag_issue(n, "Small GPU kernels")
/// ```
#[derive(Debug, Clone)]
pub struct KernelFusionRule {
    /// Mean per-launch GPU time below which kernels count as "small"
    /// (ns; default 20µs).
    pub gpu_threshold_ns: f64,
    /// Minimum launches under the frame for it to matter.
    pub min_launches: u64,
}

impl Default for KernelFusionRule {
    fn default() -> Self {
        KernelFusionRule {
            gpu_threshold_ns: 20_000.0,
            min_launches: 3,
        }
    }
}

impl Rule for KernelFusionRule {
    fn name(&self) -> &str {
        "kernel-fusion"
    }

    fn description(&self) -> &str {
        "detects frames launching many small kernels that could be fused"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let mut issues = Vec::new();
        for node in view.cct().bfs() {
            let kind = view.cct().node(node).frame().kind();
            if !matches!(kind, FrameKind::Python | FrameKind::Operator) {
                continue;
            }
            // Only flag frames that fan out into several distinct kernel
            // subtrees (the paper's loss_fn example); flagging every
            // ancestor would flood the report.
            fn subtree_has_kernel(view: &ProfileView<'_>, node: deepcontext_core::NodeId) -> bool {
                let n = view.cct().node(node);
                n.frame().kind() == FrameKind::GpuKernel
                    || n.children().iter().any(|c| subtree_has_kernel(view, *c))
            }
            let kernel_children = view
                .cct()
                .node(node)
                .children()
                .iter()
                .filter(|c| subtree_has_kernel(view, **c))
                .count();
            if kernel_children < 2 {
                continue;
            }
            let launches = view.count(node, MetricKind::GpuTime);
            let gpu_time = view.sum(node, MetricKind::GpuTime);
            let mean = gpu_time / launches.max(1) as f64;
            if launches >= self.min_launches && mean > 0.0 && mean < self.gpu_threshold_ns {
                issues.push(Issue {
                    rule: self.name().to_owned(),
                    severity: Severity::Warning,
                    node,
                    call_path: view.path_string(node),
                    message: format!(
                        "small GPU kernels: {launches} launches averaging {:.1}µs under {}",
                        gpu_time / launches as f64 / 1_000.0,
                        view.label(node)
                    ),
                    suggestion: "fuse small kernels (e.g. torch.compile or a fused \
                                 implementation) to reduce launch overhead"
                        .to_owned(),
                    metrics: vec![
                        ("launches".to_owned(), launches as f64),
                        ("mean_kernel_ns".to_owned(), gpu_time / launches as f64),
                    ],
                    weight: launches as f64,
                });
            }
        }
        issues
    }
}

/// ③ Forward/Backward Operator Analysis: flags operators whose backward
/// pass is disproportionately slower than their forward pass.
///
/// ```text
/// for n in call_tree.operators:
///     if n.backward.time / n.forward.time > 2:
///         flag_issue(n, "Backward abnormality")
/// ```
#[derive(Debug, Clone)]
pub struct FwdBwdRule {
    /// Backward/forward GPU-time ratio to flag. The paper's snippet uses
    /// 2.0; the default here is 2.5 because a matmul's backward is
    /// legitimately two matmuls (ratio exactly 2) and should not trip.
    pub ratio: f64,
}

impl Default for FwdBwdRule {
    fn default() -> Self {
        FwdBwdRule { ratio: 2.5 }
    }
}

impl Rule for FwdBwdRule {
    fn name(&self) -> &str {
        "fwd-bwd"
    }

    fn description(&self) -> &str {
        "finds operators whose backward pass dwarfs their forward pass"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        // Aggregate forward and backward GPU time per operator name.
        // Forward/backward association nests backward operator instances
        // *under* their forward operator's context, so a forward node's
        // inclusive time contains its backward time: subtract the
        // backward children to get the true forward cost.
        let mut fwd: HashMap<String, f64> = HashMap::new();
        let mut bwd: HashMap<String, (f64, deepcontext_core::NodeId)> = HashMap::new();
        for node in view.operators() {
            let Some(name) = view.operator_name(node) else {
                continue;
            };
            let time = view.sum(node, MetricKind::GpuTime);
            match view.operator_phase(node) {
                Some(OpPhase::Forward) => {
                    let bwd_children: f64 = view
                        .cct()
                        .node(node)
                        .children()
                        .iter()
                        .filter(|c| view.operator_phase(**c) == Some(OpPhase::Backward))
                        .map(|c| view.sum(*c, MetricKind::GpuTime))
                        .sum();
                    *fwd.entry(name).or_insert(0.0) += time - bwd_children;
                }
                Some(OpPhase::Backward) => {
                    let e = bwd.entry(name).or_insert((0.0, node));
                    e.0 += time;
                }
                None => {}
            }
        }
        let mut issues = Vec::new();
        for (name, (bwd_time, node)) in bwd {
            let fwd_time = fwd.get(&name).copied().unwrap_or(0.0);
            if fwd_time <= 0.0 || bwd_time <= 0.0 {
                continue;
            }
            let ratio = bwd_time / fwd_time;
            if ratio > self.ratio {
                let suggestion = if name == "aten::index" {
                    "replace aten::index with aten::index_select: its backward \
                     uses atomics instead of deterministic serialization"
                        .to_owned()
                } else {
                    format!("inspect the backward implementation of {name}")
                };
                issues.push(Issue {
                    rule: self.name().to_owned(),
                    severity: if ratio > 10.0 {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    },
                    node,
                    call_path: view.path_string(node),
                    message: format!(
                        "backward abnormality: {name} backward is {ratio:.1}x its forward \
                         ({:.2}ms vs {:.2}ms)",
                        bwd_time / 1e6,
                        fwd_time / 1e6
                    ),
                    suggestion,
                    metrics: vec![
                        ("bwd_gpu_time_ns".to_owned(), bwd_time),
                        ("fwd_gpu_time_ns".to_owned(), fwd_time),
                        ("ratio".to_owned(), ratio),
                    ],
                    weight: bwd_time,
                });
            }
        }
        issues
    }
}

/// ④ Fine-grained Stall Analysis: within hotspot kernels, ranks the stall
/// reasons of sampled instructions.
///
/// ```text
/// hotspots = hotspot_analysis(call_tree)
/// for n in hotspots:
///     for c in n.children:
///         if c.stalls > stall_threshold: stalls.append(c)
/// stall_reasons = topk(stalls)
/// ```
#[derive(Debug, Clone)]
pub struct StallRule {
    /// Hotspot share prerequisite (default 0.05).
    pub hotspot_threshold: f64,
    /// Minimum share of a kernel's samples an instruction must hold.
    pub stall_threshold: f64,
    /// How many stall reasons to report.
    pub top_k: usize,
}

impl Default for StallRule {
    fn default() -> Self {
        StallRule {
            hotspot_threshold: 0.02,
            stall_threshold: 0.05,
            top_k: 3,
        }
    }
}

impl Rule for StallRule {
    fn name(&self) -> &str {
        "fine-grained-stall"
    }

    fn description(&self) -> &str {
        "ranks instruction stall reasons inside hotspot kernels"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let total = view.total(MetricKind::GpuTime);
        if total <= 0.0 {
            return Vec::new();
        }
        // Aggregate per kernel *name*: a kernel called from many contexts
        // (e.g. the same cast in every decoder layer) is one hotspot, as
        // in the bottom-up view the paper's workflow starts from.
        struct Group {
            time: f64,
            samples: f64,
            by_reason: HashMap<StallReason, f64>,
            hottest: (deepcontext_core::NodeId, f64),
        }
        let mut groups: HashMap<String, Group> = HashMap::new();
        for kernel in view.kernels() {
            let time = view.sum(kernel, MetricKind::GpuTime);
            let kernel_samples = view.sum(kernel, MetricKind::InstructionSamples);
            let entry = groups
                .entry(view.short_label(kernel))
                .or_insert_with(|| Group {
                    time: 0.0,
                    samples: 0.0,
                    by_reason: HashMap::new(),
                    hottest: (kernel, time),
                });
            entry.time += time;
            entry.samples += kernel_samples;
            if time > entry.hottest.1 {
                entry.hottest = (kernel, time);
            }
            if kernel_samples <= 0.0 {
                continue;
            }
            for child in view.cct().node(kernel).children() {
                let node = view.cct().node(*child);
                if node.frame().kind() != FrameKind::Instruction {
                    continue;
                }
                let samples = node.metrics().sum(MetricKind::InstructionSamples);
                if samples / kernel_samples < self.stall_threshold {
                    continue;
                }
                for reason in StallReason::ALL {
                    if reason == StallReason::None {
                        continue;
                    }
                    let stalls = node.metrics().sum(MetricKind::Stall(reason));
                    if stalls > 0.0 {
                        *entry.by_reason.entry(reason).or_insert(0.0) += stalls;
                    }
                }
            }
        }

        let mut issues = Vec::new();
        for group in groups.into_values() {
            let time = group.time;
            if time / total <= self.hotspot_threshold || group.by_reason.is_empty() {
                continue;
            }
            let kernel = group.hottest.0;
            let kernel_samples = group.samples;
            let mut ranked: Vec<(StallReason, f64)> = group.by_reason.into_iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            ranked.truncate(self.top_k);
            let reasons: Vec<String> = ranked
                .iter()
                .map(|(r, n)| format!("{r} ({:.0}% of samples)", n / kernel_samples * 100.0))
                .collect();
            let suggestion = match ranked.first().map(|(r, _)| *r) {
                Some(StallReason::ConstantMemory) => {
                    "minimise per-CTA constant loads; fuse the conversion with \
                     neighbouring operators"
                        .to_owned()
                }
                Some(StallReason::MathDependency) => {
                    "use vectorized data-type conversion instructions (load the \
                     minimum bytes per block required for vectorization)"
                        .to_owned()
                }
                Some(StallReason::MemoryDependency) | Some(StallReason::MemoryThrottle) => {
                    "improve memory coalescing or reduce bytes moved".to_owned()
                }
                _ => "inspect the kernel's hot instructions".to_owned(),
            };
            issues.push(Issue {
                rule: self.name().to_owned(),
                severity: Severity::Warning,
                node: kernel,
                call_path: view.path_string(kernel),
                message: format!(
                    "kernel {} is mainly stalled by {}",
                    view.label(kernel),
                    reasons.join(", ")
                ),
                suggestion,
                metrics: ranked
                    .iter()
                    .map(|(r, n)| (format!("stall.{r}"), *n))
                    .collect(),
                weight: time,
            });
        }
        issues
    }
}

/// ⑤ CPU Latency Analysis: top-down search for frames whose CPU time far
/// exceeds their GPU time.
///
/// ```text
/// for n in bfs(call_tree.nodes):
///     if n.cpu_time / n.gpu_time > cpu_threshold:
///         flag_issue(n, "CPU time abnormality")
/// ```
#[derive(Debug, Clone)]
pub struct CpuLatencyRule {
    /// CPU/GPU time ratio to flag (default 5.0).
    pub cpu_threshold: f64,
    /// Minimum CPU time (ns) for a frame to be considered.
    pub min_cpu_ns: f64,
}

impl Default for CpuLatencyRule {
    fn default() -> Self {
        CpuLatencyRule {
            cpu_threshold: 5.0,
            min_cpu_ns: 1e6,
        }
    }
}

impl Rule for CpuLatencyRule {
    fn name(&self) -> &str {
        "cpu-latency"
    }

    fn description(&self) -> &str {
        "finds frames where the CPU dominates while the GPU idles"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let mut issues = Vec::new();
        // Top-down: once a frame is flagged, its subtree is skipped so the
        // report points at the outermost culprit.
        let mut queue = std::collections::VecDeque::from([view.cct().root()]);
        while let Some(node) = queue.pop_front() {
            let cpu = view.sum(node, MetricKind::CpuTime);
            let gpu = view.sum(node, MetricKind::GpuTime);
            let kind = view.cct().node(node).frame().kind();
            let eligible = matches!(kind, FrameKind::Python | FrameKind::Operator)
                && cpu >= self.min_cpu_ns
                && (gpu <= 0.0 || cpu / gpu > self.cpu_threshold);
            if eligible {
                let label = view.label(node);
                let suggestion = if label.contains("data") || label.contains("loader") {
                    "match the data-loader worker count to the number of \
                     physical CPU cores"
                        .to_owned()
                } else {
                    "overlap or parallelise this CPU work; the GPU is idle under it".to_owned()
                };
                issues.push(Issue {
                    rule: self.name().to_owned(),
                    severity: Severity::Warning,
                    node,
                    call_path: view.path_string(node),
                    message: format!(
                        "CPU time abnormality: {} spends {:.1}ms CPU vs {:.1}ms GPU",
                        label,
                        cpu / 1e6,
                        gpu / 1e6
                    ),
                    suggestion,
                    metrics: vec![
                        ("cpu_time_ns".to_owned(), cpu),
                        ("gpu_time_ns".to_owned(), gpu),
                    ],
                    weight: cpu,
                });
                continue; // don't descend
            }
            queue.extend(view.cct().node(node).children().iter().copied());
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallingContextTree, Frame, NodeId, ProfileDb, ProfileMeta};

    fn view_of(cct: CallingContextTree) -> ProfileDb {
        ProfileDb::new(ProfileMeta::default(), cct)
    }

    fn kernel_path(cct: &mut CallingContextTree, op: &str, kernel: &str, phase: OpPhase) -> NodeId {
        let i = cct.interner();
        let pc = 0x100 + kernel.bytes().map(u64::from).sum::<u64>();
        cct.insert_path(&[
            Frame::python("train.py", 3, "step", &i),
            Frame::operator_with(op, phase, Some(1), &i),
            Frame::gpu_kernel(kernel, "m.so", pc, &i),
        ])
    }

    #[test]
    fn hotspot_flags_dominant_kernel_only() {
        let mut cct = CallingContextTree::new();
        let hot = kernel_path(&mut cct, "aten::conv2d", "implicit_gemm", OpPhase::Forward);
        let cold = kernel_path(&mut cct, "aten::relu", "relu_kernel", OpPhase::Forward);
        cct.attribute(hot, MetricKind::GpuTime, 95.0e6);
        cct.attribute(cold, MetricKind::GpuTime, 5.0e6);
        let db = view_of(cct);
        let issues = HotspotRule::default().analyze(&ProfileView::new(db.cct()));
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("implicit_gemm"));
        assert_eq!(issues[0].severity, Severity::Critical);
    }

    #[test]
    fn hotspot_empty_profile_is_silent() {
        let db = view_of(CallingContextTree::new());
        assert!(HotspotRule::default()
            .analyze(&ProfileView::new(db.cct()))
            .is_empty());
    }

    #[test]
    fn fusion_flags_frame_with_many_small_kernels() {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        // loss_fn invoking three small kernels many times (paper §6.3).
        for kernel in ["softmax", "copy", "nll_loss"] {
            let pc = 0x100 + kernel.len() as u64;
            let leaf = cct.insert_path(&[
                Frame::python("train.py", 20, "loss_fn", &i),
                Frame::operator(&format!("aten::{kernel}"), &i),
                Frame::gpu_kernel(kernel, "m.so", pc, &i),
            ]);
            for _ in 0..10 {
                cct.attribute(leaf, MetricKind::GpuTime, 5_000.0); // 5µs
            }
        }
        let db = view_of(cct);
        let issues = KernelFusionRule::default().analyze(&ProfileView::new(db.cct()));
        assert!(!issues.is_empty());
        assert!(issues.iter().any(|i| i.call_path.contains("loss_fn")));
        assert!(issues[0].suggestion.contains("fuse"));
    }

    #[test]
    fn fusion_ignores_large_kernels() {
        let mut cct = CallingContextTree::new();
        let hot = kernel_path(&mut cct, "aten::conv2d", "implicit_gemm", OpPhase::Forward);
        for _ in 0..10 {
            cct.attribute(hot, MetricKind::GpuTime, 5.0e6); // 5ms each
        }
        let db = view_of(cct);
        assert!(KernelFusionRule::default()
            .analyze(&ProfileView::new(db.cct()))
            .is_empty());
    }

    #[test]
    fn fwd_bwd_flags_index_abnormality_with_suggestion() {
        let mut cct = CallingContextTree::new();
        let fwd = kernel_path(&mut cct, "aten::index", "index_kernel", OpPhase::Forward);
        let bwd = kernel_path(
            &mut cct,
            "aten::index",
            "indexing_backward_kernel",
            OpPhase::Backward,
        );
        cct.attribute(fwd, MetricKind::GpuTime, 0.6e9); // 0.8% like the paper
        cct.attribute(bwd, MetricKind::GpuTime, 30.5e9); // 39.6%
        let db = view_of(cct);
        let issues = FwdBwdRule::default().analyze(&ProfileView::new(db.cct()));
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("aten::index"));
        assert!(issues[0].suggestion.contains("index_select"));
        assert_eq!(issues[0].severity, Severity::Critical);
    }

    #[test]
    fn fwd_bwd_balanced_operator_not_flagged() {
        let mut cct = CallingContextTree::new();
        let fwd = kernel_path(&mut cct, "aten::matmul", "sgemm", OpPhase::Forward);
        let bwd = kernel_path(&mut cct, "aten::matmul", "sgemm_bwd", OpPhase::Backward);
        cct.attribute(fwd, MetricKind::GpuTime, 1.0e9);
        cct.attribute(bwd, MetricKind::GpuTime, 1.8e9);
        let db = view_of(cct);
        assert!(FwdBwdRule::default()
            .analyze(&ProfileView::new(db.cct()))
            .is_empty());
    }

    #[test]
    fn stall_rule_ranks_reasons_in_hot_kernels() {
        let mut cct = CallingContextTree::new();
        let kernel = kernel_path(&mut cct, "aten::to", "to_copy", OpPhase::Forward);
        cct.attribute(kernel, MetricKind::GpuTime, 1.0e9);
        let i1 = cct.insert_child(kernel, &Frame::instruction(0x10));
        let i2 = cct.insert_child(kernel, &Frame::instruction(0x20));
        for _ in 0..60 {
            cct.attribute(i1, MetricKind::InstructionSamples, 1.0);
            cct.attribute(i1, MetricKind::Stall(StallReason::ConstantMemory), 1.0);
        }
        for _ in 0..40 {
            cct.attribute(i2, MetricKind::InstructionSamples, 1.0);
            cct.attribute(i2, MetricKind::Stall(StallReason::MathDependency), 1.0);
        }
        let db = view_of(cct);
        let issues = StallRule::default().analyze(&ProfileView::new(db.cct()));
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("constant_memory"));
        assert!(issues[0].message.contains("math_dependency"));
        // Constant-memory is the top reason, so the suggestion targets it.
        assert!(issues[0].suggestion.contains("constant"));
    }

    #[test]
    fn stall_rule_skips_kernels_without_samples() {
        let mut cct = CallingContextTree::new();
        let kernel = kernel_path(&mut cct, "aten::matmul", "sgemm", OpPhase::Forward);
        cct.attribute(kernel, MetricKind::GpuTime, 1.0e9);
        let db = view_of(cct);
        assert!(StallRule::default()
            .analyze(&ProfileView::new(db.cct()))
            .is_empty());
    }

    #[test]
    fn cpu_latency_flags_outermost_culprit_only() {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        // `train` calls both the loader (CPU-bound) and the model
        // (GPU-bound), so `train` itself is balanced and the rule should
        // descend to the loader frame — and stop there.
        let train = cct.insert_path(&[Frame::python("train.py", 2, "train", &i)]);
        let loader = cct.insert_child(
            train,
            &Frame::python("input_pipeline.py", 88, "data_selection", &i),
        );
        let inner = cct.insert_child(
            loader,
            &Frame::python("input_pipeline.py", 99, "decode", &i),
        );
        cct.attribute(inner, MetricKind::CpuTime, 69.0e9);
        let op = cct.insert_child(train, &Frame::operator("aten::conv2d", &i));
        let kernel = cct.insert_child(op, &Frame::gpu_kernel("implicit_gemm", "m.so", 0x100, &i));
        cct.attribute(kernel, MetricKind::GpuTime, 30.0e9);
        let db = view_of(cct);
        let issues = CpuLatencyRule::default().analyze(&ProfileView::new(db.cct()));
        assert_eq!(issues.len(), 1);
        assert!(issues[0].call_path.contains("data_selection"));
        assert!(issues[0].suggestion.contains("worker"));
        // The nested decode frame is not separately flagged.
        assert!(!issues.iter().any(|i| i.call_path.contains("decode")));
    }

    #[test]
    fn cpu_latency_ignores_gpu_dominated_frames() {
        let mut cct = CallingContextTree::new();
        let node = kernel_path(&mut cct, "aten::conv2d", "implicit_gemm", OpPhase::Forward);
        cct.attribute(node, MetricKind::GpuTime, 50.0e9);
        let py = cct.path_to_root(node)[1];
        cct.attribute_exclusive(py, MetricKind::CpuTime, 2.0e6);
        let db = view_of(cct);
        assert!(CpuLatencyRule::default()
            .analyze(&ProfileView::new(db.cct()))
            .is_empty());
    }
}
