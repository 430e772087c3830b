//! Analysis reports.

use std::fmt;

use crate::issue::Issue;

/// The result of running an [`Analyzer`](crate::Analyzer) over a profile:
/// issues sorted by severity then weight.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    issues: Vec<Issue>,
}

impl AnalysisReport {
    pub(crate) fn new(issues: Vec<Issue>) -> Self {
        AnalysisReport { issues }
    }

    /// All issues, most severe first.
    pub fn issues(&self) -> &[Issue] {
        &self.issues
    }

    /// Issues raised by one rule.
    pub fn by_rule(&self, rule: &str) -> Vec<&Issue> {
        self.issues.iter().filter(|i| i.rule == rule).collect()
    }

    /// Number of issues.
    pub fn len(&self) -> usize {
        self.issues.len()
    }

    /// Whether the report is clean.
    pub fn is_empty(&self) -> bool {
        self.issues.is_empty()
    }

    /// Renders a human-readable text report.
    pub fn render_text(&self) -> String {
        if self.issues.is_empty() {
            return "no performance issues detected\n".to_owned();
        }
        let mut out = format!("{} issue(s) detected\n\n", self.issues.len());
        for (idx, issue) in self.issues.iter().enumerate() {
            out.push_str(&format!("#{} {}\n", idx + 1, issue));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use deepcontext_core::NodeId;

    fn issue(rule: &str, severity: Severity, weight: f64) -> Issue {
        Issue {
            rule: rule.into(),
            severity,
            node: NodeId::ROOT,
            call_path: "root".into(),
            message: format!("{rule} issue"),
            suggestion: String::new(),
            metrics: vec![],
            weight,
        }
    }

    #[test]
    fn filters_and_rendering() {
        let report = AnalysisReport::new(vec![
            issue("hotspot", Severity::Critical, 10.0),
            issue("cpu-latency", Severity::Warning, 5.0),
            issue("hotspot", Severity::Info, 1.0),
        ]);
        assert_eq!(report.len(), 3);
        assert_eq!(report.by_rule("hotspot").len(), 2);
        let text = report.render_text();
        assert!(text.contains("3 issue(s)"));
        assert!(text.contains("#1"));
    }

    #[test]
    fn empty_report_renders_clean() {
        let report = AnalysisReport::default();
        assert!(report.is_empty());
        assert!(report.render_text().contains("no performance issues"));
    }
}
