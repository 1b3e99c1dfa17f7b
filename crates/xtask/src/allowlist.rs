//! The checked-in triage file for audit findings.
//!
//! `crates/xtask/audit-allowlist.toml` holds one `[[allow]]` entry per
//! tolerated class of findings, each with a one-line justification.  A
//! finding is suppressed when an entry matches its pass, its path (exact
//! file, or a `…/` directory prefix), and — if the entry carries a
//! `pattern` — a substring of the flagged source line.  The file is
//! parsed by hand (the build container is offline, so no TOML crate);
//! only the subset the format needs is supported.

use crate::passes::Finding;

/// One `[[allow]]` entry.
#[derive(Debug, Default)]
pub struct Entry {
    /// Audit pass the entry applies to.
    pub pass: String,
    /// Workspace-relative file path or `…/` directory prefix.
    pub path: String,
    /// Optional finding category (e.g. `slice-index`); empty matches all.
    pub what: String,
    /// Optional substring the flagged line must contain.
    pub pattern: String,
    /// Mandatory one-line justification.
    pub reason: String,
    /// Where in the allowlist file the entry starts (for diagnostics).
    pub at_line: usize,
}

impl Entry {
    fn matches(&self, f: &Finding) -> bool {
        if self.pass != f.pass {
            return false;
        }
        if !self.what.is_empty() && self.what != f.what {
            return false;
        }
        let path_ok = if self.path.ends_with('/') {
            f.path.starts_with(&self.path)
        } else {
            f.path == self.path
        };
        path_ok && (self.pattern.is_empty() || f.snippet.contains(&self.pattern))
    }
}

/// Parses the allowlist. Returns entries or a list of format errors.
pub fn parse(text: &str) -> Result<Vec<Entry>, Vec<String>> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut errors = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let no = idx + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t == "[[allow]]" {
            entries.push(Entry {
                at_line: no,
                ..Entry::default()
            });
            continue;
        }
        let Some((key, value)) = t.split_once('=') else {
            errors.push(format!("line {no}: expected `key = \"value\"`, got `{t}`"));
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            errors.push(format!(
                "line {no}: value for `{key}` must be double-quoted"
            ));
            continue;
        };
        let Some(entry) = entries.last_mut() else {
            errors.push(format!("line {no}: `{key}` before any [[allow]] header"));
            continue;
        };
        match key {
            "pass" => entry.pass = value.to_string(),
            "path" => entry.path = value.to_string(),
            "what" => entry.what = value.to_string(),
            "pattern" => entry.pattern = value.to_string(),
            "reason" => entry.reason = value.to_string(),
            other => errors.push(format!("line {no}: unknown key `{other}`")),
        }
    }
    for e in &entries {
        if e.pass.is_empty() || e.path.is_empty() {
            errors.push(format!(
                "entry at line {}: `pass` and `path` are required",
                e.at_line
            ));
        }
        if e.reason.is_empty() {
            errors.push(format!(
                "entry at line {}: a one-line `reason` is required — unexplained suppressions defeat the audit",
                e.at_line
            ));
        }
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

/// Splits findings into (kept, suppressed) and reports entries that no
/// longer match anything so stale suppressions get pruned.
pub fn apply(entries: &[Entry], findings: Vec<Finding>) -> (Vec<Finding>, usize, Vec<usize>) {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        match entries.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => kept.push(f),
        }
    }
    let stale = used
        .iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(i, _)| entries[i].at_line)
        .collect();
    (kept, suppressed, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(pass: &'static str, path: &str, what: &str, snippet: &str) -> Finding {
        Finding {
            pass,
            path: path.into(),
            line: 1,
            what: what.into(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn entries_require_a_reason() {
        let err = parse("[[allow]]\npass = \"panic-freedom\"\npath = \"crates/x.rs\"\n")
            .expect_err("missing reason must be rejected");
        assert!(err[0].contains("reason"));
    }

    #[test]
    fn dir_prefix_what_and_pattern_matching() {
        let entries = parse(
            "[[allow]]\npass = \"panic-freedom\"\npath = \"crates/index/\"\nwhat = \"slice-index\"\nreason = \"arena\"\n",
        )
        .expect("valid allowlist");
        let hit = finding(
            "panic-freedom",
            "crates/index/src/avl.rs",
            "slice-index",
            "x[i]",
        );
        let wrong_what = finding("panic-freedom", "crates/index/src/avl.rs", "expect", "e");
        let wrong_dir = finding(
            "panic-freedom",
            "crates/sql/src/query.rs",
            "slice-index",
            "x[i]",
        );
        let (kept, suppressed, stale) = apply(&entries, vec![hit, wrong_what, wrong_dir]);
        assert_eq!((kept.len(), suppressed), (2, 1));
        assert!(stale.is_empty());
    }

    #[test]
    fn unused_entries_are_reported_stale() {
        let entries = parse(
            "[[allow]]\npass = \"lossy-cast\"\npath = \"crates/planner/src/cost.rs\"\nreason = \"r\"\n",
        )
        .expect("valid allowlist");
        let (_, _, stale) = apply(&entries, vec![]);
        assert_eq!(stale, [1]);
    }
}
