//! JSON export shaped for WebView consumers (d3-flame-graph compatible):
//! `{"name": ..., "value": ..., "kind": ..., "children": [...]}`.

use deepcontext_core::json::escape_into;

use crate::graph::{FlameGraph, FlameNode};

impl FlameGraph {
    /// Serialises the graph to a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_node(self.root(), &mut out);
        out.push('\n');
        out
    }
}

fn write_node(node: &FlameNode, out: &mut String) {
    out.push_str("{\"name\":\"");
    escape_into(out, &node.label);
    out.push_str(&format!(
        "\",\"kind\":\"{}\",\"value\":{},\"hot\":{}",
        node.kind, node.value, node.hot
    ));
    if !node.issues.is_empty() {
        out.push_str(",\"issues\":[");
        for (idx, (severity, message)) in node.issues.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"severity\":\"{severity}\",\"message\":\""));
            escape_into(out, message);
            out.push_str("\"}");
        }
        out.push(']');
    }
    if !node.children.is_empty() {
        out.push_str(",\"children\":[");
        for (idx, child) in node.children.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            write_node(child, out);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::{CallingContextTree, Frame, MetricKind};

    #[test]
    fn json_has_expected_structure_and_escaping() {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let leaf = cct.insert_path(&[
            Frame::python("a.py", 1, "main", &i),
            Frame::gpu_kernel("kernel\"quoted\"", "m.so", 0x10, &i),
        ]);
        cct.attribute(leaf, MetricKind::GpuTime, 7.0);
        let json = FlameGraph::top_down(&cct, MetricKind::GpuTime).to_json();
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"children\":["));
        assert!(json.contains("kernel\\\"quoted\\\""));
        assert!(json.contains("\"kind\":\"gpu_kernel\""));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
