//! EXPERIMENTS.md's F1, A1, P1, R1, R2 and R3 tables say what the bins
//! print.
//!
//! Each of those sections shows the numbers its bin prints in markdown
//! tables, and `tests/golden/` holds that bin's whole stdout. Row by row,
//! the numbers in a section's `n`-th table must be exactly the numbers in
//! the golden's `n`-th table — the same values, as often — so prose
//! cannot drift from the output, and an edit of one number in either file
//! fails here. Digit groups ("20 202", "20,000") are read as one number.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The numbers in `text`, digit-group separators removed: "20 202 and
/// 52.6% of 1,000" → ["20202", "52.6", "1000"].
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut cur = String::new();
    for (i, &c) in chars.iter().enumerate() {
        let digit_at = |j: Option<usize>| {
            j.and_then(|j| chars.get(j))
                .is_some_and(char::is_ascii_digit)
        };
        let grouped = (c == ' ' || c == ',') && digit_at(i.checked_sub(1)) && digit_at(Some(i + 1));
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

/// Whether `line` is a rule of dashes (a golden table's or a markdown
/// table's second line).
fn is_rule(line: &str) -> bool {
    let t = line.trim();
    !t.is_empty() && t.chars().all(|c| c == '-')
}

/// The rows of the `n`-th markdown table under the `## {id} ` heading,
/// header and rule skipped.
fn markdown_rows(id: &str, n: usize) -> Vec<&'static str> {
    let heading = format!("## {id} ");
    let section = EXPERIMENTS
        .lines()
        .skip_while(|l| !l.starts_with(&heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "));
    let mut tables: Vec<Vec<&str>> = vec![];
    let mut in_table = false;
    for line in section {
        match (line.starts_with('|'), in_table) {
            (true, false) => tables.push(vec![line]),
            (true, true) => tables.last_mut().expect("open table").push(line),
            (false, _) => {}
        }
        in_table = line.starts_with('|');
    }
    let rows = tables
        .get(n)
        .unwrap_or_else(|| panic!("no table {n} under {heading:?} in EXPERIMENTS.md"));
    assert!(rows.len() > 2, "table {n} under {heading:?} has no rows");
    rows[2..].to_vec()
}

/// The rows of the `n`-th table a bin printed: the lines after its rule
/// of dashes, up to the blank line.
fn golden_rows(golden: &'static str, n: usize) -> Vec<&'static str> {
    let mut lines = golden.lines();
    for _ in 0..=n {
        assert!(lines.any(is_rule), "the golden has no table {n}");
    }
    lines.take_while(|l| !l.trim().is_empty()).collect()
}

/// Table `n` of section `id` against table `n` of its bin's golden.
fn check(id: &str, n: usize, golden: &'static str) {
    let (doc, out) = (markdown_rows(id, n), golden_rows(golden, n));
    assert_eq!(
        doc.len(),
        out.len(),
        "{id} table {n}: EXPERIMENTS.md rows vs golden rows"
    );
    for (d, g) in doc.iter().zip(&out) {
        let (mut want, mut got) = (numbers(d), numbers(g));
        want.sort();
        got.sort();
        assert_eq!(
            want, got,
            "{id} table {n}: EXPERIMENTS.md row {d:?} vs golden row {g:?}"
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
    assert_eq!(
        numbers("| region = 3 | a ⋈ b, c | 20,000 | 0.913 |"),
        ["3", "20000", "0.913"]
    );
}

#[test]
fn f1_table_matches_figure1() {
    check("F1", 0, include_str!("golden/figure1.txt"));
}

#[test]
fn a1_tables_match_aggregation() {
    for n in 0..2 {
        check("A1", n, include_str!("golden/aggregation.txt"));
    }
}

#[test]
fn p1_table_matches_planning() {
    check("P1", 0, include_str!("golden/planning.txt"));
}

#[test]
fn r1_table_matches_recovery_throughput() {
    check("R1", 0, include_str!("golden/recovery_throughput.txt"));
}

#[test]
fn r2_table_matches_log_compression() {
    check("R2", 0, include_str!("golden/log_compression.txt"));
}

#[test]
fn r3_table_matches_recovery_time() {
    check("R3", 0, include_str!("golden/recovery_time.txt"));
}
