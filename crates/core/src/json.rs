//! The workspace's one JSON string escaper, shared by every hand-rolled
//! JSON writer (journal JSONL, Chrome trace, flame-graph JSON, telemetry
//! JSON).

use std::fmt::Write as _;

/// Appends `s` to `out` escaped for inclusion in a JSON string literal:
/// quotes, backslashes, the short control escapes, and `\u00XX` for
/// every other control byte.
#[inline]
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}
