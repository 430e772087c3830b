//! The automated performance analyzer (paper §4.3).
//!
//! Analyses run postmortem over a [`ProfileDb`]: a **call-path search**
//! phase locates semantic nodes (kernels, operators, losses, data
//! loading) and program-structure patterns, a **metric query** phase
//! filters them by thresholds, and matches are flagged as [`Issue`]s with
//! actionable suggestions (rendered by the GUI crate).
//!
//! The five example analyses of the paper ship as built-in rules:
//!
//! | # | Rule | Paper client |
//! |---|------|--------------|
//! | 1 | [`HotspotRule`] | Hotspot Identification |
//! | 2 | [`KernelFusionRule`] | Kernel Fusion Analysis |
//! | 3 | [`FwdBwdRule`] | Forward/Backward Operator Analysis |
//! | 4 | [`StallRule`] | Fine-grained Stall Analysis |
//! | 5 | [`CpuLatencyRule`] | CPU Latency Analysis |
//!
//! Two timeline-backed latency analyses join them when a recorded
//! timeline is attached to the view
//! ([`ProfileView::with_timeline`] / [`Analyzer::analyze_with_timeline`]):
//!
//! | # | Rule | Question |
//! |---|------|----------|
//! | 6 | [`GpuIdleRule`] | which contexts left the device idle between launches |
//! | 7 | [`StreamSerializationRule`] | do multi-stream devices actually overlap |
//!
//! Cross-run analysis works against a persistent [`ProfileStore`] (a
//! directory of saved runs): filter runs by metadata ([`RunFilter`]),
//! follow a metric across runs ([`ProfileStore::trend`]), diff two
//! stored runs in O(changed subtree)
//! ([`ProfileDiff::compare_mapped`]), and flag a fresh run against the
//! store's baseline with the [`RegressionRule`] rule.
//!
//! Custom rules implement the [`Rule`] trait and register on an
//! [`Analyzer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod history;
mod issue;
mod latency;
mod query;
mod report;
mod rules;
mod store;
mod view;

pub use diff::{DiffEntry, ProfileDiff};
pub use history::{IncidentRule, RegressionRule};
pub use issue::{Issue, Severity};
pub use latency::{GpuIdleRule, StreamSerializationRule};
pub use query::{CallPathQuery, FrameMatcher, SemanticClass};
pub use report::AnalysisReport;
pub use rules::{CpuLatencyRule, FwdBwdRule, HotspotRule, KernelFusionRule, StallRule};
pub use store::{ProfileStore, RunFilter, RunRecord, TrendPoint};
pub use view::ProfileView;

use deepcontext_core::{CallingContextTree, ProfileDb};
use deepcontext_timeline::TimelineSnapshot;

/// A performance-analysis rule.
pub trait Rule: Send + Sync {
    /// Stable rule name (used in reports).
    fn name(&self) -> &str;
    /// One-line description.
    fn description(&self) -> &str;
    /// Runs the rule, returning flagged issues.
    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue>;
}

/// Runs a set of rules over profiles.
///
/// # Examples
///
/// ```
/// use deepcontext_analyzer::Analyzer;
/// use deepcontext_core::{CallingContextTree, Frame, MetricKind, ProfileDb, ProfileMeta};
///
/// let mut cct = CallingContextTree::new();
/// let i = cct.interner();
/// let hot = cct.insert_path(&[
///     Frame::operator("aten::conv2d", &i),
///     Frame::gpu_kernel("implicit_gemm", "libtorch_cuda.so", 0x10, &i),
/// ]);
/// cct.attribute(hot, MetricKind::GpuTime, 1e9);
///
/// let db = ProfileDb::new(ProfileMeta::default(), cct);
/// let report = Analyzer::with_default_rules().analyze(&db);
/// assert!(report.issues().iter().any(|i| i.rule == "hotspot"));
/// ```
#[derive(Default)]
pub struct Analyzer {
    rules: Vec<Box<dyn Rule>>,
}

impl Analyzer {
    /// An analyzer with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// An analyzer preloaded with the paper's five example analyses at
    /// their default thresholds, plus the two timeline-backed latency
    /// rules (which stay silent unless a timeline is attached to the
    /// analyzed view) and the [`IncidentRule`] correlator (silent
    /// unless the profile carries an incident journal).
    pub fn with_default_rules() -> Self {
        let mut a = Analyzer::new();
        a.add_rule(HotspotRule::default());
        a.add_rule(KernelFusionRule::default());
        a.add_rule(FwdBwdRule::default());
        a.add_rule(StallRule::default());
        a.add_rule(CpuLatencyRule::default());
        a.add_rule(GpuIdleRule::default());
        a.add_rule(StreamSerializationRule::default());
        // Silent unless the profiled run carries its incident journal.
        a.add_rule(IncidentRule);
        a
    }

    /// Registers a rule.
    pub fn add_rule(&mut self, rule: impl Rule + 'static) -> &mut Self {
        self.rules.push(Box::new(rule));
        self
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Runs every rule over `db`.
    pub fn analyze(&self, db: &ProfileDb) -> AnalysisReport {
        self.run(&ProfileView::new(db))
    }

    /// Runs every rule over a live (in-progress) calling context tree —
    /// the preview path for interactive analysis against a running
    /// profiler's cached snapshot (`profiler.with_cct(|cct|
    /// analyzer.preview(cct))`), with no database round-trip.
    pub fn preview(&self, cct: &CallingContextTree) -> AnalysisReport {
        self.run(&ProfileView::live(cct))
    }

    /// [`analyze`](Self::analyze) with the profile's recorded timeline
    /// attached, enabling the latency rules. `timeline` must have been
    /// resolved against `db`'s tree (the snapshot `Profiler::finish`
    /// consumed).
    pub fn analyze_with_timeline(
        &self,
        db: &ProfileDb,
        timeline: &TimelineSnapshot,
    ) -> AnalysisReport {
        self.run(&ProfileView::new(db).with_timeline(timeline))
    }

    /// [`preview`](Self::preview) with the running profiler's timeline
    /// attached: `profiler.with_cct(|cct|
    /// analyzer.preview_with_timeline(cct, &timeline))`, where
    /// `timeline` came from the same profiler's `timeline()` at the same
    /// quiesce point.
    pub fn preview_with_timeline(
        &self,
        cct: &CallingContextTree,
        timeline: &TimelineSnapshot,
    ) -> AnalysisReport {
        self.run(&ProfileView::live(cct).with_timeline(timeline))
    }

    fn run(&self, view: &ProfileView<'_>) -> AnalysisReport {
        let mut issues = Vec::new();
        for rule in &self.rules {
            issues.extend(rule.analyze(view));
        }
        issues.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(b.weight.total_cmp(&a.weight))
        });
        AnalysisReport::new(issues)
    }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field(
                "rules",
                &self
                    .rules
                    .iter()
                    .map(|r| r.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}
