//! Property tests for the SQL front end: no input — byte soup, token
//! soup, or truncated valid SQL — may panic the lexer or parser; they
//! must return errors. Valid generated statements must parse.

use mmdb_sql::ast::Statement;
use mmdb_sql::lexer::lex;
use mmdb_sql::parse;
use proptest::prelude::*;

fn keyword_soup() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        Just("SELECT".to_string()),
        Just("FROM".to_string()),
        Just("WHERE".to_string()),
        Just("INSERT".to_string()),
        Just("INTO".to_string()),
        Just("VALUES".to_string()),
        Just("UPDATE".to_string()),
        Just("SET".to_string()),
        Just("DELETE".to_string()),
        Just("CREATE".to_string()),
        Just("TABLE".to_string()),
        Just("JOIN".to_string()),
        Just("ON".to_string()),
        Just("AND".to_string()),
        Just("NULL".to_string()),
        Just("BEGIN".to_string()),
        Just("COMMIT".to_string()),
        Just("ABORT".to_string()),
        Just("*".to_string()),
        Just(",".to_string()),
        Just("(".to_string()),
        Just(")".to_string()),
        Just("=".to_string()),
        Just("<>".to_string()),
        Just("<=".to_string()),
        Just(".".to_string()),
        Just(";".to_string()),
        Just("-".to_string()),
        Just("--".to_string()),
        Just("'s'".to_string()),
        Just("'".to_string()),
        Just("9223372036854775807".to_string()),
        Just("1.5".to_string()),
        Just("tbl".to_string()),
        Just("col".to_string()),
    ];
    prop::collection::vec(word, 0..24).prop_map(|ws| ws.join(" "))
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Lexing/parsing take &str; exercise both the lossy decoding of
        // arbitrary bytes and any valid UTF-8 subset directly.
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        let _ = lex(&lossy);
        let _ = parse(&lossy);
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = parse(s);
        }
    }

    #[test]
    fn ascii_soup_never_panics(s in "[ -~]{0,200}") {
        let _ = lex(&s);
        let _ = parse(&s);
    }

    #[test]
    fn keyword_soup_never_panics(s in keyword_soup()) {
        let _ = parse(&s);
    }

    #[test]
    fn leading_kind_names_the_kind_of_whatever_parses(s in keyword_soup(), pad in "[ \t\n]{0,3}") {
        let s = format!("{pad}{s}");
        let _ = mmdb_sql::parser::leading_kind(&s);
        if let Ok(stmt) = parse(&s) {
            prop_assert_eq!(mmdb_sql::parser::leading_kind(&s), Some(stmt.kind()));
        }
    }

    #[test]
    fn truncating_valid_sql_never_panics(cut in 0usize..120) {
        let sql = "SELECT a.x, b.y FROM a JOIN b ON a.id = b.id \
                   WHERE a.x >= -3 AND b.name = 'it''s' AND a.z <> 1.25;";
        let end = cut.min(sql.len());
        if let Some(prefix) = sql.get(..end) {
            let _ = parse(prefix);
        }
    }

    #[test]
    fn lexed_spans_stay_in_bounds(s in "[ -~]{0,120}") {
        if let Ok(tokens) = lex(&s) {
            for t in tokens {
                prop_assert!(t.at <= s.len());
            }
        }
    }

    #[test]
    fn generated_inserts_parse(
        table in any::<u32>().prop_map(|n| format!("t{n}")),
        ints in prop::collection::vec(any::<i64>(), 1..6),
    ) {
        let values = ints
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let sql = format!("INSERT INTO {table} VALUES ({values})");
        match parse(&sql) {
            Ok(Statement::Insert { table: t, rows, .. }) => {
                prop_assert_eq!(t, table);
                prop_assert_eq!(rows.len(), 1);
            }
            Ok(other) => prop_assert!(false, "wrong statement {other:?}"),
            Err(e) => prop_assert!(false, "valid INSERT failed to parse: {e}"),
        }
    }
}
