//! The three audit passes: panic-freedom, lossy-cast, hygiene.

use crate::scan::CleanLine;

/// One thing a pass objects to.
#[derive(Debug)]
pub struct Finding {
    /// Which pass produced it: `panic-freedom`, `lossy-cast`, `hygiene`.
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Short category, e.g. `unwrap` or `as f64`.
    pub what: String,
    /// The offending source line, trimmed, for the report.
    pub snippet: String,
}

/// Panic-freedom (motivated by §5.2: a crash mid-commit must leave a
/// recoverable log, so library code should surface errors, not abort):
/// flags `unwrap`/`expect`, panicking macros, and slice indexing in
/// non-test library code.
pub fn panic_freedom(path: &str, lines: &[CleanLine], raw: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for l in lines.iter().filter(|l| !l.in_test) {
        let code = l.code.as_str();
        let mut whats: Vec<String> = Vec::new();
        if code.contains(".unwrap()") {
            whats.push("unwrap".to_string());
        }
        if code.contains(".expect(") {
            whats.push("expect".to_string());
        }
        for mac in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
            if code.contains(mac) {
                whats.push(mac.trim_end_matches('(').to_string());
            }
        }
        if has_slice_indexing(code) {
            whats.push("slice-index".to_string());
        }
        for what in whats {
            out.push(Finding {
                pass: "panic-freedom",
                path: path.to_string(),
                line: l.no,
                what,
                snippet: snippet(raw, l.no),
            });
        }
    }
    out
}

/// True when the cleaned line contains `expr[...]` indexing (which can
/// panic on an out-of-range index), as opposed to array types/literals,
/// attributes, or macro brackets.
fn has_slice_indexing(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            return true;
        }
    }
    false
}

/// Numeric types whose `as` casts can silently truncate, wrap, or round.
const NUMERIC: [&str; 13] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// Lossy-cast: flags bare `as <numeric>` casts in cost-model code
/// (`analytic`, `planner`). The paper's formulas (§3, §4) are evaluated
/// over cardinalities, and a silently clamped cast skews a plan choice
/// with no visible failure — conversions must go through
/// `mmdb_types::cast`.
pub fn lossy_cast(path: &str, lines: &[CleanLine], raw: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for l in lines.iter().filter(|l| !l.in_test) {
        let code = l.code.as_str();
        let mut start = 0;
        while let Some(pos) = code[start..].find(" as ") {
            let at = start + pos;
            start = at + 4;
            let rest = &code[at + 4..];
            let ty: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if ty == "f64" || NUMERIC.contains(&ty.as_str()) {
                out.push(Finding {
                    pass: "lossy-cast",
                    path: path.to_string(),
                    line: l.no,
                    what: format!("as {ty}"),
                    snippet: snippet(raw, l.no),
                });
            }
        }
    }
    out
}

/// Hygiene, part 1: every engine library crate must open with the
/// workspace's lint headers.
pub fn crate_headers(path: &str, raw: &[&str]) -> Vec<Finding> {
    let head: Vec<&str> = raw.iter().take(10).copied().collect();
    let mut out = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
        if !head.iter().any(|l| l.trim() == attr) {
            out.push(Finding {
                pass: "hygiene",
                path: path.to_string(),
                line: 1,
                what: format!("missing {attr}"),
                snippet: raw.first().unwrap_or(&"").trim().to_string(),
            });
        }
    }
    out
}

/// Hygiene, part 2 (for `recovery` and `session`): public items must carry
/// doc comments, and each module must cite its paper section using the
/// `§5.2`-style convention established throughout the workspace.
pub fn doc_citations(path: &str, lines: &[CleanLine], raw: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    if !raw.iter().any(|l| l.contains('§')) {
        out.push(Finding {
            pass: "hygiene",
            path: path.to_string(),
            line: 1,
            what: "no paper-section citation (§…)".to_string(),
            snippet: raw.first().unwrap_or(&"").trim().to_string(),
        });
    }
    for l in lines.iter().filter(|l| !l.in_test) {
        let t = l.code.trim_start();
        let is_item = [
            "fn ", "struct ", "enum ", "trait ", "const ", "type ", "mod ",
        ]
        .iter()
        .any(|k| t.strip_prefix("pub ").is_some_and(|r| r.starts_with(k)));
        if !is_item {
            continue;
        }
        if !is_documented(raw, l.no) {
            out.push(Finding {
                pass: "hygiene",
                path: path.to_string(),
                line: l.no,
                what: "undocumented public item".to_string(),
                snippet: snippet(raw, l.no),
            });
        }
    }
    out
}

/// Walks upward from the item, skipping attribute lines, and accepts the
/// item as documented if the first other line is a `///` doc comment.
fn is_documented(raw: &[&str], item_line: usize) -> bool {
    let mut i = item_line - 1; // index of the line above the item
    while i > 0 {
        let t = raw[i - 1].trim();
        if t.starts_with("#[") || t.starts_with("#![") {
            i -= 1;
            continue;
        }
        return t.starts_with("///");
    }
    false
}

/// The raw source line behind a finding, trimmed and clipped for the
/// report (shared with the concurrency passes).
pub(crate) fn snippet(raw: &[&str], line_no: usize) -> String {
    raw.get(line_no - 1).map_or(String::new(), |l| {
        let t = l.trim();
        if t.len() <= 96 {
            return t.to_string();
        }
        let mut cut = 96;
        while !t.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &t[..cut])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::clean;

    fn run_panic(src: &str) -> Vec<String> {
        let raw: Vec<&str> = src.lines().collect();
        panic_freedom("f.rs", &clean(src), &raw)
            .into_iter()
            .map(|f| f.what)
            .collect()
    }

    #[test]
    fn flags_unwrap_expect_macros_and_indexing() {
        let whats = run_panic("fn f() { a.unwrap(); b.expect(\"m\"); panic!(\"x\"); c[i]; }\n");
        assert_eq!(whats, ["unwrap", "expect", "panic!", "slice-index"]);
    }

    #[test]
    fn ignores_test_code_attributes_and_non_indexing_brackets() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nlet v = vec![1];\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\n";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        assert!(run_panic(
            "fn f() { a.unwrap_or(0); b.unwrap_or_else(g); c.unwrap_or_default(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn lossy_cast_flags_numeric_as() {
        let src = "fn f(n: u64) -> f64 { n as f64 }\nfn g(x: f64) -> usize { x as usize }\nfn h(p: &T) { p as *const T; }\n";
        let raw: Vec<&str> = src.lines().collect();
        let whats: Vec<String> = lossy_cast("f.rs", &clean(src), &raw)
            .into_iter()
            .map(|f| f.what)
            .collect();
        assert_eq!(whats, ["as f64", "as usize"]);
    }

    #[test]
    fn doc_citation_pass_wants_docs_and_a_section_mark() {
        let src =
            "//! Module doc citing §5.2.\n\n/// Documented.\npub fn a() {}\n\npub fn b() {}\n";
        let raw: Vec<&str> = src.lines().collect();
        let found = doc_citations("f.rs", &clean(src), &raw);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 6);
        let bare = "pub fn a() {}\n";
        let raw: Vec<&str> = bare.lines().collect();
        let found = doc_citations("f.rs", &clean(bare), &raw);
        assert!(found.iter().any(|f| f.what.contains('§')));
    }
}
