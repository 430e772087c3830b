//! The rule that reads a run's history: [`RegressionRule`] flags a run
//! against the mean of stored baseline runs — the whole run and each
//! outermost regressed context.

use std::collections::HashMap;

use deepcontext_core::{CoreError, MetricKind, NodeId, ProfileDb};

use crate::issue::{Issue, Severity};
use crate::store::{ProfileStore, RunFilter};
use crate::view::ProfileView;
use crate::Rule;

/// Flags a run that regresses against a stored baseline (paper-style
/// cross-run analysis, rule name `store-regression`).
///
/// The baseline is the per-path mean of `metric` over a set of stored
/// runs (typically [`from_store`](Self::from_store) with a
/// [`RunFilter`] selecting the same workload/platform). Analysis flags:
///
/// - the **whole run** (Critical, at the root) when its total exceeds
///   `ratio ×` the baseline mean total, and
/// - each **outermost context** whose inclusive value exceeds `ratio ×`
///   its baseline mean — descendants of a flagged context are not
///   re-reported, so a regressed subtree yields one issue at its top.
#[derive(Debug, Clone)]
pub struct RegressionRule {
    metric: MetricKind,
    ratio: f64,
    min_value: f64,
    baseline_runs: usize,
    baseline_total: f64,
    baseline_paths: HashMap<String, f64>,
}

impl RegressionRule {
    /// Builds the baseline from in-memory profiles. Returns `None` when
    /// `baselines` is empty (no baseline — nothing can regress).
    pub fn from_profiles(metric: MetricKind, baselines: &[ProfileDb]) -> Option<RegressionRule> {
        if baselines.is_empty() {
            return None;
        }
        let n = baselines.len() as f64;
        let mut paths: HashMap<String, f64> = HashMap::new();
        let mut total = 0.0;
        for db in baselines {
            total += db.cct().total(metric);
            let view = ProfileView::new(db);
            for node in db.cct().dfs() {
                if node == db.cct().root() {
                    continue;
                }
                let value = view.sum(node, metric);
                if value > 0.0 {
                    *paths.entry(short_path(&view, node)).or_insert(0.0) += value;
                }
            }
        }
        // Missing-in-a-run counts as zero, so means are over all runs.
        for v in paths.values_mut() {
            *v /= n;
        }
        Some(RegressionRule {
            metric,
            ratio: 1.25,
            min_value: 0.0,
            baseline_runs: baselines.len(),
            baseline_total: total / n,
            baseline_paths: paths,
        })
    }

    /// Builds the baseline from the stored runs matching `filter`.
    /// `Ok(None)` when the store has no matching runs.
    pub fn from_store(
        store: &ProfileStore,
        filter: &RunFilter,
        metric: MetricKind,
    ) -> Result<Option<RegressionRule>, CoreError> {
        let mut dbs = Vec::new();
        for run in store.list_filtered(filter)? {
            dbs.push(store.load(&run.id)?);
        }
        Ok(Self::from_profiles(metric, &dbs))
    }

    /// Sets the regression threshold (default 1.25 — flag anything 25%
    /// over baseline).
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.ratio = ratio;
        self
    }

    /// Ignores contexts below this absolute value (noise floor;
    /// default 0).
    pub fn with_min_value(mut self, min_value: f64) -> Self {
        self.min_value = min_value;
        self
    }

    /// Number of runs the baseline averages over.
    pub fn baseline_runs(&self) -> usize {
        self.baseline_runs
    }

    /// Baseline mean of the whole-run total.
    pub fn baseline_total(&self) -> f64 {
        self.baseline_total
    }

    fn regressed(&self, value: f64, base: f64) -> bool {
        value >= self.min_value && value > base && value > self.ratio * base
    }
}

fn short_path(view: &ProfileView<'_>, node: NodeId) -> String {
    let interner = view.interner();
    view.cct()
        .frames_to_root(node)
        .frames()
        .iter()
        .map(|f| f.short_label(&interner))
        .collect::<Vec<_>>()
        .join(" > ")
}

impl Rule for RegressionRule {
    fn name(&self) -> &str {
        "store-regression"
    }

    fn description(&self) -> &str {
        "flags runs and contexts regressing against the profile store's baseline"
    }

    fn analyze(&self, view: &ProfileView<'_>) -> Vec<Issue> {
        let mut issues = Vec::new();
        let cct = view.cct();
        let total = view.total(self.metric);
        if self.baseline_total > 0.0 && self.regressed(total, self.baseline_total) {
            issues.push(Issue {
                rule: self.name().to_string(),
                severity: Severity::Critical,
                node: cct.root(),
                call_path: "<whole run>".to_string(),
                message: format!(
                    "run total {} = {:.3e} is {:.2}x the baseline mean {:.3e} (over {} runs)",
                    self.metric.name(),
                    total,
                    total / self.baseline_total,
                    self.baseline_total,
                    self.baseline_runs,
                ),
                suggestion: "bisect against the most recent non-regressed stored run \
                             (ProfileDiff::compare pinpoints the changed contexts)"
                    .to_string(),
                metrics: vec![
                    (self.metric.name().to_string(), total),
                    ("baseline_mean".to_string(), self.baseline_total),
                ],
                weight: total - self.baseline_total,
            });
        }

        // Top-down, flag-outermost: a flagged context swallows its
        // descendants (their regression is already counted in the
        // ancestor's inclusive sum).
        let mut stack: Vec<NodeId> = cct.node(cct.root()).children().to_vec();
        while let Some(node) = stack.pop() {
            let value = view.sum(node, self.metric);
            if value <= 0.0 {
                continue;
            }
            let path = short_path(view, node);
            let base = self.baseline_paths.get(&path).copied().unwrap_or(0.0);
            if self.regressed(value, base) {
                let severity = if base == 0.0 || value > 2.0 * self.ratio * base {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                let message = if base == 0.0 {
                    format!(
                        "new context: {} = {:.3e}, absent from all {} baseline runs",
                        self.metric.name(),
                        value,
                        self.baseline_runs,
                    )
                } else {
                    format!(
                        "{} = {:.3e} is {:.2}x the baseline mean {:.3e}",
                        self.metric.name(),
                        value,
                        value / base,
                        base,
                    )
                };
                issues.push(Issue {
                    rule: self.name().to_string(),
                    severity,
                    node,
                    call_path: view.path_string(node),
                    message,
                    suggestion: "diff this run against a stored baseline run to see which \
                                 descendants moved"
                        .to_string(),
                    metrics: vec![
                        (self.metric.name().to_string(), value),
                        ("baseline_mean".to_string(), base),
                    ],
                    weight: value - base,
                });
                continue;
            }
            stack.extend_from_slice(cct.node(node).children());
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::profile;

    #[test]
    fn regression_rule_flags_total_and_context() {
        let baselines = vec![
            profile("unet", "h", 1, 100.0),
            profile("unet", "h", 2, 110.0),
            profile("unet", "h", 3, 90.0),
        ];
        let rule = RegressionRule::from_profiles(MetricKind::GpuTime, &baselines)
            .unwrap()
            .with_ratio(1.25);
        assert_eq!(rule.baseline_runs(), 3);
        assert_eq!(rule.baseline_total(), 100.0);

        let regressed = profile("unet", "h", 4, 200.0);
        let issues = rule.analyze(&ProfileView::new(&regressed));
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Critical && i.call_path == "<whole run>"));
        // Flag-outermost: one context issue at the conv operator, not
        // also at the kernel below it.
        let context_issues: Vec<_> = issues
            .iter()
            .filter(|i| i.call_path != "<whole run>")
            .collect();
        assert_eq!(context_issues.len(), 1);
        assert!(context_issues[0].call_path.contains("aten::conv2d"));
        assert!(!context_issues[0].call_path.contains("implicit_gemm"));

        let healthy = profile("unet", "h", 5, 105.0);
        assert!(rule.analyze(&ProfileView::new(&healthy)).is_empty());
    }

    #[test]
    fn min_value_floor_suppresses_noise() {
        let baselines = vec![profile("unet", "h", 1, 1.0)];
        let rule = RegressionRule::from_profiles(MetricKind::GpuTime, &baselines)
            .unwrap()
            .with_min_value(10.0);
        let small = profile("unet", "h", 2, 2.0);
        assert!(rule.analyze(&ProfileView::new(&small)).is_empty());
    }
}
