//! EXPERIMENTS.md's R1, R2 and R3 tables say what the bins print.
//!
//! Each of those sections opens with a table of the numbers its bin
//! prints, and `tests/golden/` holds that bin's whole stdout. Row by row,
//! the numbers in the markdown table must be exactly the numbers in the
//! golden table — the same values, as often — so prose cannot drift from
//! the output, and an edit of one number in either file fails here. Digit
//! groups ("20 202") are read as one number.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The numbers in `text`, digit-group spaces removed: "20 202 and 52.6%"
/// → ["20202", "52.6"].
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut cur = String::new();
    for (i, &c) in chars.iter().enumerate() {
        let digit_at = |j: Option<usize>| {
            j.and_then(|j| chars.get(j))
                .is_some_and(char::is_ascii_digit)
        };
        let grouped = c == ' ' && digit_at(i.checked_sub(1)) && digit_at(Some(i + 1));
        let decimal = c == '.' && !cur.is_empty() && digit_at(Some(i + 1));
        if c.is_ascii_digit() || decimal {
            cur.push(c);
        } else if !grouped && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The rows of the first markdown table after the `## {id} ` heading,
/// header and rule skipped.
fn markdown_rows(id: &str) -> Vec<&'static str> {
    let heading = format!("## {id} ");
    let lines: Vec<&str> = EXPERIMENTS
        .lines()
        .skip_while(|l| !l.starts_with(&heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(
        lines.len() > 2,
        "no table under {heading:?} in EXPERIMENTS.md"
    );
    lines[2..].to_vec()
}

/// The rows of the first table a bin printed: the lines after its rule
/// of dashes, up to the blank line.
fn golden_rows(golden: &'static str) -> Vec<&'static str> {
    golden
        .lines()
        .skip_while(|l| l.trim().is_empty() || !l.trim().chars().all(|c| c == '-'))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .collect()
}

fn check(id: &str, golden: &'static str) {
    let (doc, out) = (markdown_rows(id), golden_rows(golden));
    assert_eq!(
        doc.len(),
        out.len(),
        "{id}: EXPERIMENTS.md rows vs golden rows"
    );
    for (d, g) in doc.iter().zip(&out) {
        let (mut want, mut got) = (numbers(d), numbers(g));
        want.sort();
        got.sort();
        assert_eq!(
            want, got,
            "{id}: EXPERIMENTS.md row {d:?} vs golden row {g:?}"
        );
    }
}

#[test]
fn numbers_read_digit_groups_and_decimals() {
    assert_eq!(
        numbers("| every 2000 | 20 202 | 8 200 | 12.0 s |"),
        ["2000", "20202", "8200", "12.0"]
    );
    assert_eq!(
        numbers("partitioned log (2 devices)  ~2000  52.6%."),
        ["2", "2000", "52.6"]
    );
}

#[test]
fn r1_table_matches_recovery_throughput() {
    check("R1", include_str!("golden/recovery_throughput.txt"));
}

#[test]
fn r2_table_matches_log_compression() {
    check("R2", include_str!("golden/log_compression.txt"));
}

#[test]
fn r3_table_matches_recovery_time() {
    check("R3", include_str!("golden/recovery_time.txt"));
}
