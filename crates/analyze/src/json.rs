//! Hand-rolled JSON serialization for the analysis report.
//!
//! The gate cannot depend on serde (it is the thing that gates the rest
//! of the workspace), so the report is emitted with a small escaping
//! writer. The schema is versioned so CI consumers can evolve.

use crate::{Analysis, Diagnostic};

/// Renders the full machine-readable report.
pub fn render(analysis: &Analysis) -> String {
    let report = &analysis.report;
    let mut s = String::with_capacity(4096);
    s.push_str("{\n  \"schema\": \"athena-analysis-v2\",\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"errors\": {},\n", report.diagnostics.len()));

    s.push_str("  \"findings\": [");
    push_list(&mut s, &report.diagnostics, 4, push_finding);
    s.push_str("],\n");

    s.push_str("  \"stale_allows\": [");
    push_list(&mut s, &report.stale_allows, 4, |s, a| {
        push_str_lit(s, a);
    });
    s.push_str("],\n");

    s.push_str("  \"lock_graph\": {\n    \"locks\": [");
    push_list(&mut s, &analysis.lock_graph.locks, 6, |s, l| {
        push_str_lit(s, l);
    });
    s.push_str("],\n    \"edges\": [");
    push_list(&mut s, &analysis.lock_graph.edges, 6, |s, e| {
        s.push_str("{\"from\": ");
        push_str_lit(s, &e.from);
        s.push_str(", \"to\": ");
        push_str_lit(s, &e.to);
        s.push_str(", \"file\": ");
        push_str_lit(s, &e.file);
        s.push_str(&format!(", \"line\": {}}}", e.line));
    });
    s.push_str("],\n    \"suggested_order\": [");
    push_list(&mut s, &analysis.lock_graph.suggested_order, 6, |s, l| {
        push_str_lit(s, l);
    });
    s.push_str("]\n  },\n");

    s.push_str("  \"hot_functions\": [");
    push_list(&mut s, &analysis.hot_functions, 4, |s, h| {
        push_str_lit(s, h);
    });
    s.push_str("]\n}\n");
    s
}

fn push_finding(s: &mut String, d: &Diagnostic) {
    s.push_str("{\"rule\": ");
    push_str_lit(s, d.rule);
    s.push_str(", \"file\": ");
    push_str_lit(s, &d.file);
    s.push_str(&format!(", \"line\": {}, \"col\": {}, ", d.line, d.col));
    s.push_str("\"message\": ");
    push_str_lit(s, &d.message);
    s.push_str(", \"witness\": [");
    for (i, hop) in d.witness.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        push_str_lit(s, hop);
    }
    s.push_str("]}");
}

/// Writes `items` as a comma-separated multi-line list at `indent`.
fn push_list<T>(s: &mut String, items: &[T], indent: usize, mut one: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(&" ".repeat(indent));
        one(s, item);
    }
    if !items.is_empty() {
        s.push('\n');
        s.push_str(&" ".repeat(indent.saturating_sub(2)));
    }
}

/// Writes a JSON string literal with escaping.
fn push_str_lit(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}
