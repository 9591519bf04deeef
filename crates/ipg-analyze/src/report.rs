//! Deterministic human and JSON-lines rendering of an [`Outcome`].
//!
//! Both formats are pure functions of the (already sorted) outcome: no
//! timestamps, no absolute paths, no environment — repeated runs emit
//! byte-identical reports, which `crates/ipg-analyze/tests/golden.rs`
//! asserts.

use crate::driver::Outcome;

/// Human-readable report (one line per finding, then a summary).
pub fn human(o: &Outcome) -> String {
    let mut out = String::new();
    for f in &o.new {
        out.push_str(&format!(
            "{}:{}: {} [{}] {}\n    {}\n",
            f.path,
            f.line,
            f.rule,
            f.severity.as_str(),
            f.message,
            f.snippet
        ));
    }
    out.push_str(&format!(
        "ipg-analyze: {} new finding{}, {} suppressed, {} files scanned\n",
        o.new.len(),
        if o.new.len() == 1 { "" } else { "s" },
        o.suppressed,
        o.files,
    ));
    out
}

/// JSON-lines report: one object per new finding, then a summary object.
pub fn jsonl(o: &Outcome) -> String {
    let mut out = String::new();
    for f in &o.new {
        out.push_str(&format!(
            "{{\"rule\":{},\"severity\":{},\"path\":{},\"line\":{},\"message\":{},\"snippet\":{}}}\n",
            quote(f.rule),
            quote(f.severity.as_str()),
            quote(&f.path),
            f.line,
            quote(&f.message),
            quote(&f.snippet),
        ));
    }
    out.push_str(&format!(
        "{{\"summary\":{{\"new\":{},\"suppressed\":{},\"files\":{}}}}}\n",
        o.new.len(),
        o.suppressed,
        o.files,
    ));
    out
}

/// JSON string quoting.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
