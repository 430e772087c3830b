//! Profile differencing.
//!
//! The paper's cross-platform (§6.5) and cross-framework (§6.6) studies
//! are comparisons between two profiles of the same workload. This module
//! makes that workflow first-class: align two profiles by *context label
//! paths* and report the largest regressions/improvements of any metric.

use std::sync::Arc;

use deepcontext_core::{CallingContextTree, FrameKind, Interner, MetricKind, NodeId, ProfileDb};

/// One aligned context with its metric value in both profiles.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// ` > `-joined short-label path identifying the context.
    pub path: String,
    /// Metric value in the baseline profile, summed over every context
    /// on this label path (0 when absent).
    pub baseline: f64,
    /// Metric value in the candidate profile, likewise.
    pub candidate: f64,
}

impl DiffEntry {
    /// candidate − baseline.
    pub fn delta(&self) -> f64 {
        self.candidate - self.baseline
    }

    /// candidate / baseline (`f64::INFINITY` for new contexts).
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.candidate == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.candidate / self.baseline
        }
    }
}

/// The comparison of one metric across two profiles.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    metric: MetricKind,
    entries: Vec<DiffEntry>,
    baseline_total: f64,
    candidate_total: f64,
}

impl ProfileDiff {
    /// Aligns `baseline` and `candidate` on short-label paths and
    /// compares the inclusive sums of `metric`, in one top-down walk of
    /// both trees.
    ///
    /// At each level the children of both sides are grouped by short
    /// label: siblings sharing a label (one kernel at two PCs,
    /// `a/x.py:3` beside `b/x.py:3`) are summed, and each group is
    /// paired with its namesake on the other side. GPU API frames are
    /// walked through, so a kernel under `cuLaunchKernel` meets the same
    /// kernel under `hipModuleLaunchKernel`. The trees may use different
    /// interners (two profiles loaded from a store).
    ///
    /// Only label paths whose two sums differ get an entry (a side
    /// without the path reads `0.0`), ordered by `|delta|` descending,
    /// then by path; a path string is rendered only for those.
    pub fn compare(baseline: &ProfileDb, candidate: &ProfileDb, metric: MetricKind) -> ProfileDiff {
        let trees = [baseline.cct(), candidate.cct()];
        let mut walk = Walk {
            trees,
            interners: trees.map(CallingContextTree::interner),
            metric,
            labels: Vec::new(),
            entries: Vec::new(),
        };
        let root = [NodeId::ROOT];
        walk.level([&root, &root]);
        let mut entries = walk.entries;
        entries.sort_by(|a, b| {
            b.delta()
                .abs()
                .total_cmp(&a.delta().abs())
                .then_with(|| a.path.cmp(&b.path))
        });
        ProfileDiff {
            metric,
            entries,
            baseline_total: baseline.cct().total(metric),
            candidate_total: candidate.cct().total(metric),
        }
    }

    /// The changed label paths, largest |delta| first.
    pub fn entries(&self) -> &[DiffEntry] {
        &self.entries
    }

    /// Contexts that got worse (delta > 0), largest first.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.delta() > 0.0)
    }

    /// Contexts that improved (delta < 0), largest first.
    pub fn improvements(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.delta() < 0.0)
    }

    /// Whole-profile totals (baseline, candidate).
    pub fn totals(&self) -> (f64, f64) {
        (self.baseline_total, self.candidate_total)
    }

    /// Renders the top `n` changes as a text table.
    pub fn render_top(&self, n: usize) -> String {
        let (b, c) = self.totals();
        let mut out = format!(
            "metric {}: total {:.3e} -> {:.3e} ({:+.1}%)\n",
            self.metric.name(),
            b,
            c,
            if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 }
        );
        for entry in self.entries.iter().take(n) {
            let change = if entry.baseline > 0.0 {
                format!("{:+.1}%", entry.delta() / entry.baseline * 100.0)
            } else {
                "new".to_owned()
            };
            out.push_str(&format!(
                "{:>12.3e} -> {:>12.3e}  ({change})  {}\n",
                entry.baseline, entry.candidate, entry.path
            ));
        }
        out
    }
}

/// The state of one [`ProfileDiff::compare`] walk; side 0 is the
/// baseline, side 1 the candidate.
struct Walk<'a> {
    trees: [&'a CallingContextTree; 2],
    interners: [Arc<Interner>; 2],
    metric: MetricKind,
    /// Short labels from the root down to the group being visited.
    labels: Vec<String>,
    entries: Vec<DiffEntry>,
}

impl Walk<'_> {
    /// Groups the children of `parents` (one group of nodes per side) by
    /// short label, records each group whose sums differ, and descends.
    fn level(&mut self, parents: [&[NodeId]; 2]) {
        let mut children: Vec<(String, usize, NodeId)> = Vec::new();
        for (side, nodes) in parents.into_iter().enumerate() {
            for &node in nodes {
                self.children(side, node, &mut children);
            }
        }
        // Stable, so a group keeps each side's nodes in child order.
        children.sort_by(|a, b| a.0.cmp(&b.0));
        let mut children = children.into_iter().peekable();
        while let Some((label, side, node)) = children.next() {
            let mut group: [Vec<NodeId>; 2] = Default::default();
            group[side].push(node);
            while let Some((_, side, node)) = children.next_if(|next| next.0 == label) {
                group[side].push(node);
            }
            let [baseline, candidate] = [0, 1].map(|side| {
                let tree = self.trees[side];
                group[side].iter().fold(0.0, |sum, &node| {
                    sum + tree.node(node).metrics().sum(self.metric)
                })
            });
            self.labels.push(label);
            if baseline != candidate {
                self.entries.push(DiffEntry {
                    path: self.labels.join(" > "),
                    baseline,
                    candidate,
                });
            }
            self.level([&group[0], &group[1]]);
            self.labels.pop();
        }
    }

    /// Appends `(short label, side, node)` for each child of `node`,
    /// standing in a GPU API frame's children for the frame itself.
    fn children(&self, side: usize, node: NodeId, out: &mut Vec<(String, usize, NodeId)>) {
        let tree = self.trees[side];
        for &child in tree.node(node).children() {
            let frame = tree.node(child).frame();
            if frame.kind() == FrameKind::GpuApi {
                self.children(side, child, out);
            } else {
                out.push((frame.short_label(&self.interners[side]), side, child));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallingContextTree, Frame, ProfileMeta};

    /// A profile with each sample's value attributed at its path.
    fn db(samples: impl Fn(&Interner) -> Vec<(Vec<Frame>, f64)>) -> ProfileDb {
        let mut cct = CallingContextTree::new();
        for (path, value) in samples(&cct.interner()) {
            let leaf = cct.insert_path(&path);
            cct.attribute(leaf, MetricKind::GpuTime, value);
        }
        ProfileDb::new(ProfileMeta::default(), cct)
    }

    fn profile(conv_time: f64, norm_time: f64) -> ProfileDb {
        db(|i| {
            [
                ("implicit_gemm", 0x10, conv_time),
                ("batch_norm_template", 0x20, norm_time),
            ]
            .map(|(kernel, pc, value)| {
                let block = Frame::python("unet.py", 30, "down_block", i);
                (vec![block, Frame::gpu_kernel(kernel, "m.so", pc, i)], value)
            })
            .into()
        })
    }

    fn new_kernel_only() -> ProfileDb {
        db(|i| {
            vec![(
                vec![Frame::gpu_kernel("new_kernel", "m.so", 0x30, i)],
                700.0,
            )]
        })
    }

    fn gpu_time(baseline: &ProfileDb, candidate: &ProfileDb) -> ProfileDiff {
        ProfileDiff::compare(baseline, candidate, MetricKind::GpuTime)
    }

    fn paths(diff: &ProfileDiff) -> Vec<&str> {
        diff.entries().iter().map(|e| e.path.as_str()).collect()
    }

    #[test]
    fn diff_finds_the_regressed_context() {
        let diff = gpu_time(&profile(100.0, 40.0), &profile(80.0, 120.0));
        let top = &diff.entries()[0];
        assert!(top.path.contains("batch_norm_template"));
        assert_eq!(top.delta(), 80.0);
        assert_eq!(top.ratio(), 3.0);
        assert_eq!(diff.totals(), (140.0, 200.0));
        assert!(diff.regressions().any(|e| e.path.contains("batch_norm")));
        assert!(diff
            .improvements()
            .any(|e| e.path.contains("implicit_gemm")));
    }

    #[test]
    fn contexts_missing_on_one_side_are_reported() {
        let diff = gpu_time(&profile(100.0, 40.0), &new_kernel_only());
        let entry = |path: &str| diff.entries().iter().find(|e| e.path == path).unwrap();
        // `0.0`, not the `-0.0` an empty `f64` sum gives.
        assert_eq!(entry("new_kernel").baseline.to_bits(), 0.0f64.to_bits());
        assert_eq!(entry("new_kernel").ratio(), f64::INFINITY);
        let gone = entry("unet.py:30 > implicit_gemm");
        assert_eq!(gone.candidate.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn render_top_marks_a_context_absent_from_the_baseline_new() {
        let text = gpu_time(&profile(100.0, 40.0), &new_kernel_only()).render_top(1);
        assert!(text.ends_with("(new)  new_kernel\n"), "{text}");
    }

    #[test]
    fn siblings_sharing_a_label_are_summed_not_overwritten() {
        // One kernel name at two PCs under one operator: two contexts,
        // one label path.
        let run = |at_10: f64, at_20: f64| {
            db(|i| {
                [(0x10, at_10), (0x20, at_20)]
                    .map(|(pc, value)| {
                        let op = Frame::operator("aten::conv2d", i);
                        (vec![op, Frame::gpu_kernel("k", "m.so", pc, i)], value)
                    })
                    .into()
            })
        };
        let diff = gpu_time(&run(100.0, 40.0), &run(100.0, 80.0));
        assert_eq!(paths(&diff), ["aten::conv2d", "aten::conv2d > k"]);
        let k = &diff.entries()[1];
        assert_eq!((k.baseline, k.candidate), (140.0, 180.0));
    }

    #[test]
    fn gpu_api_frames_are_walked_through() {
        let run = |api: &'static str, norm_time: f64| {
            db(move |i| {
                let op = Frame::operator("aten::instance_norm", i);
                let kernel = Frame::gpu_kernel("batch_norm_template", "m.so", 0x20, i);
                vec![(
                    vec![op, Frame::gpu_api(api, "rt.so", 0x40, i), kernel],
                    norm_time,
                )]
            })
        };
        let nv = run("cuLaunchKernel", 40.0);
        let amd = run("hipModuleLaunchKernel", 120.0);
        let diff = gpu_time(&nv, &amd);
        let norm = "aten::instance_norm";
        assert_eq!(
            paths(&diff),
            [norm, &format!("{norm} > batch_norm_template")]
        );
        assert!(diff
            .entries()
            .iter()
            .all(|e| (e.baseline, e.candidate) == (40.0, 120.0)));
    }

    #[test]
    fn unchanged_contexts_get_no_entry_and_ties_order_by_path() {
        let diff = gpu_time(&profile(10.0, 40.0), &profile(10.0, 90.0));
        // The shared python parent and the batch_norm leaf both moved by
        // 50; the conv leaf did not.
        assert_eq!(
            paths(&diff),
            ["unet.py:30", "unet.py:30 > batch_norm_template"]
        );
    }

    #[test]
    fn identical_profiles_have_unit_ratios() {
        let diff = gpu_time(&profile(10.0, 10.0), &profile(10.0, 10.0));
        assert!(diff.entries().is_empty());
        assert_eq!(diff.totals(), (20.0, 20.0));
        assert!(diff.render_top(3).contains("(+0.0%)"));
    }
}
