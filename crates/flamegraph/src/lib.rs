//! Flame-graph views and renderers — the library half of DeepContext's
//! GUI (paper §4.4).
//!
//! The paper's GUI is a VSCode WebView; its *analytical* content is
//! reproduced here as a renderable model:
//!
//! * [`FlameGraph::top_down`] — the direct calling-context-tree view
//!   (paper Figure 9);
//! * [`FlameGraph::bottom_up`] — the inverted view that "aggregates
//!   individual metrics at the same node across different call paths"
//!   (paper Figure 8);
//! * hotspot highlighting and analyzer-issue colour coding
//!   ([`FlameGraph::annotate`]);
//! * renderers: ASCII (terminal), SVG (standalone file), and a JSON
//!   export shaped for WebView consumers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod graph;
mod json;
mod svg;

pub use ascii::AsciiOptions;
pub use graph::{FlameGraph, FlameNode};
pub use svg::SvgOptions;
