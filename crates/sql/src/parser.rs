//! Recursive-descent parser for the minimal SQL grammar.
//!
//! The grammar (EBNF; keywords case-insensitive, `--` comments and an
//! optional trailing `;` allowed):
//!
//! ```text
//! statement   := create | insert | select | update | delete
//!              | "BEGIN" | "COMMIT" | "ABORT" | "ROLLBACK"
//! create      := "CREATE" "TABLE" ident "(" coldef { "," coldef } ")"
//! coldef      := ident ( "INT" | "FLOAT" | "TEXT" )
//! insert      := "INSERT" "INTO" ident [ "(" ident { "," ident } ")" ]
//!                "VALUES" row { "," row }
//! row         := "(" literal { "," literal } ")"
//! select      := "SELECT" ( "*" | colref { "," colref } )
//!                "FROM" ident { "," ident | "JOIN" ident "ON" colref "=" colref }
//!                [ "WHERE" condition { "AND" condition } ]
//! update      := "UPDATE" ident "SET" assign { "," assign }
//!                [ "WHERE" condition { "AND" condition } ]
//! assign      := ident "=" ( literal | ident [ ("+"|"-") literal ] )
//! delete      := "DELETE" "FROM" ident [ "WHERE" condition { "AND" condition } ]
//! condition   := colref op literal | literal op colref | colref "=" colref
//! op          := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
//! colref      := ident [ "." ident ]
//! literal     := [ "-" ] integer | [ "-" ] float | string | "NULL"
//! ```

use crate::ast::{
    ColRef, Condition, Literal, Projection, SelectStmt, SetExpr, Statement, StatementKind,
};
use crate::lexer::{first_word, lex, Spanned, Token};
use mmdb_types::expr::CmpOp;
use mmdb_types::schema::DataType;
use std::fmt;

/// A lex or parse failure: a message plus the byte offset in the input
/// where the problem starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending token or character.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl ParseError {
    /// Builds an error at `offset`.
    pub fn at(offset: usize, msg: impl Into<String>) -> Self {
        ParseError {
            offset,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one SQL statement (optionally `;`-terminated).
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        end: input.len(),
    };
    let stmt = p.statement()?;
    p.eat_optional_semicolon();
    if let Some(t) = p.peek() {
        return Err(ParseError::at(
            t.at,
            format!("unexpected {} after statement", t.tok.describe()),
        ));
    }
    Ok(stmt)
}

/// Every keyword that can open a statement, with the kind it opens —
/// the one table [`parse`]'s dispatch and [`leading_kind`] share.
const STATEMENT_HEADS: [(&str, StatementKind); 9] = [
    ("CREATE", "create_table"),
    ("INSERT", "insert"),
    ("SELECT", "select"),
    ("UPDATE", "update"),
    ("DELETE", "delete"),
    ("BEGIN", "begin"),
    ("COMMIT", "commit"),
    ("ABORT", "abort"),
    ("ROLLBACK", "abort"),
];

fn head_kind(word: &str) -> Option<StatementKind> {
    STATEMENT_HEADS
        .iter()
        .find(|(kw, _)| word.eq_ignore_ascii_case(kw))
        .map(|(_, kind)| *kind)
}

/// The kind `input`'s leading keyword announces, without parsing the
/// rest: for every statement [`parse`] accepts this equals
/// `parse(input).kind()`, at the cost of one word. It says nothing
/// about whether the statement is valid — callers that cannot assume
/// that (the text was never acknowledged by a server) must `parse`.
pub fn leading_kind(input: &str) -> Option<StatementKind> {
    first_word(input).and_then(head_kind)
}

/// Keywords that cannot double as table or column names.
const RESERVED: &[&str] = &[
    "select", "from", "where", "and", "join", "on", "insert", "into", "values", "update", "set",
    "delete", "create", "table", "begin", "commit", "abort", "rollback", "null",
];

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Byte length of the input, for end-of-input error offsets.
    end: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.peek().map_or(self.end, |t| t.at)
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::at(
                t.at,
                format!("expected {wanted}, found {}", t.tok.describe()),
            ),
            None => ParseError::at(self.end, format!("expected {wanted}, found end of input")),
        }
    }

    /// Consumes the next token if it is the keyword `kw`
    /// (case-insensitive identifier match).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Spanned {
            tok: Token::Ident(w),
            ..
        }) = self.peek()
        {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw}")))
        }
    }

    fn expect_tok(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if &t.tok == want => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Reads one identifier, lowercased: table and column names are
    /// case-insensitive throughout the front end (the catalog and
    /// schemas store lowercase). Reserved words are refused so a
    /// misplaced keyword (`SELECT FROM t`) errors where the name was
    /// expected instead of shifting the error downstream.
    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Spanned {
                tok: Token::Ident(w),
                ..
            }) => {
                let w = w.to_ascii_lowercase();
                if RESERVED.contains(&w.as_str()) {
                    return Err(self.unexpected(what));
                }
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Reads one identifier as written, reserved or not — only the
    /// statement dispatcher wants this.
    fn raw_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Spanned {
                tok: Token::Ident(w),
                ..
            }) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn eat_optional_semicolon(&mut self) {
        if let Some(Spanned {
            tok: Token::Semicolon,
            ..
        }) = self.peek()
        {
            self.pos += 1;
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let at = self.here();
        let head = self.raw_ident("a statement keyword")?;
        match head_kind(&head) {
            Some("create_table") => self.create_table(),
            Some("insert") => self.insert(),
            Some("select") => self.select(),
            Some("update") => self.update(),
            Some("delete") => self.delete(),
            Some("begin") => Ok(Statement::Begin),
            Some("commit") => Ok(Statement::Commit),
            Some("abort") => Ok(Statement::Abort),
            _ => Err(ParseError::at(
                at,
                format!("unknown statement '{head}' (expected CREATE, INSERT, SELECT, UPDATE, DELETE, BEGIN, COMMIT, or ABORT)"),
            )),
        }
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("TABLE")?;
        let name = self.ident("a table name")?;
        self.expect_tok(&Token::LParen, "'(' starting the column list")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("a column name")?;
            let ty_at = self.here();
            let ty_word = self.ident("a column type (INT, FLOAT, or TEXT)")?;
            let ty = match ty_word.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" | "BIGINT" => DataType::Int,
                "FLOAT" | "DOUBLE" | "REAL" => DataType::Float,
                "TEXT" | "VARCHAR" | "STRING" => DataType::Str,
                other => {
                    return Err(ParseError::at(
                        ty_at,
                        format!("unknown column type '{other}' (expected INT, FLOAT, or TEXT)"),
                    ))
                }
            };
            columns.push((col, ty));
            match self.next() {
                Some(Spanned {
                    tok: Token::Comma, ..
                }) => continue,
                Some(Spanned {
                    tok: Token::RParen, ..
                }) => break,
                Some(t) => {
                    return Err(ParseError::at(
                        t.at,
                        format!("expected ',' or ')', found {}", t.tok.describe()),
                    ))
                }
                None => {
                    return Err(ParseError::at(
                        self.end,
                        "expected ',' or ')', found end of input",
                    ))
                }
            }
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("INTO")?;
        let table = self.ident("a table name")?;
        let columns = if matches!(
            self.peek(),
            Some(Spanned {
                tok: Token::LParen,
                ..
            })
        ) {
            self.pos += 1;
            let mut cols = vec![self.ident("a column name")?];
            loop {
                match self.next() {
                    Some(Spanned {
                        tok: Token::Comma, ..
                    }) => cols.push(self.ident("a column name")?),
                    Some(Spanned {
                        tok: Token::RParen, ..
                    }) => break,
                    _ => return Err(self.unexpected("',' or ')' in the column list")),
                }
            }
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = vec![self.value_row()?];
        while matches!(
            self.peek(),
            Some(Spanned {
                tok: Token::Comma,
                ..
            })
        ) {
            self.pos += 1;
            rows.push(self.value_row()?);
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn value_row(&mut self) -> Result<Vec<Literal>, ParseError> {
        self.expect_tok(&Token::LParen, "'(' starting a VALUES row")?;
        let mut row = vec![self.literal()?];
        loop {
            match self.next() {
                Some(Spanned {
                    tok: Token::Comma, ..
                }) => row.push(self.literal()?),
                Some(Spanned {
                    tok: Token::RParen, ..
                }) => return Ok(row),
                _ => return Err(self.unexpected("',' or ')' in a VALUES row")),
            }
        }
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        let negative = if matches!(
            self.peek(),
            Some(Spanned {
                tok: Token::Minus,
                ..
            })
        ) {
            self.pos += 1;
            true
        } else {
            false
        };
        match self.next() {
            Some(Spanned {
                tok: Token::Int(i), ..
            }) => {
                if negative {
                    Ok(Literal::Int(-i))
                } else {
                    Ok(Literal::Int(i))
                }
            }
            Some(Spanned {
                tok: Token::Float(x),
                ..
            }) => {
                if negative {
                    Ok(Literal::Float(-x))
                } else {
                    Ok(Literal::Float(x))
                }
            }
            Some(Spanned {
                tok: Token::Str(s),
                at,
            }) => {
                if negative {
                    Err(ParseError::at(at, "cannot negate a string literal"))
                } else {
                    Ok(Literal::Str(s))
                }
            }
            Some(Spanned {
                tok: Token::Ident(w),
                at,
            }) if w.eq_ignore_ascii_case("NULL") => {
                if negative {
                    Err(ParseError::at(at, "cannot negate NULL"))
                } else {
                    Ok(Literal::Null)
                }
            }
            Some(t) => Err(ParseError::at(
                t.at,
                format!("expected a literal, found {}", t.tok.describe()),
            )),
            None => Err(ParseError::at(
                self.end,
                "expected a literal, found end of input",
            )),
        }
    }

    fn colref(&mut self) -> Result<ColRef, ParseError> {
        let first = self.ident("a column reference")?;
        if matches!(
            self.peek(),
            Some(Spanned {
                tok: Token::Dot,
                ..
            })
        ) {
            self.pos += 1;
            let col = self.ident("a column name after '.'")?;
            Ok(ColRef {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(ColRef {
                table: None,
                column: first,
            })
        }
    }

    fn select(&mut self) -> Result<Statement, ParseError> {
        let projection = if matches!(
            self.peek(),
            Some(Spanned {
                tok: Token::Star,
                ..
            })
        ) {
            self.pos += 1;
            Projection::Star
        } else {
            let mut cols = vec![self.colref()?];
            while matches!(
                self.peek(),
                Some(Spanned {
                    tok: Token::Comma,
                    ..
                })
            ) {
                self.pos += 1;
                cols.push(self.colref()?);
            }
            Projection::Columns(cols)
        };
        self.expect_kw("FROM")?;
        let mut tables = vec![self.ident("a table name")?];
        let mut conditions = Vec::new();
        loop {
            if matches!(
                self.peek(),
                Some(Spanned {
                    tok: Token::Comma,
                    ..
                })
            ) {
                self.pos += 1;
                tables.push(self.ident("a table name")?);
            } else if self.eat_kw("JOIN") {
                tables.push(self.ident("a table name")?);
                self.expect_kw("ON")?;
                let left = self.colref()?;
                self.expect_tok(&Token::Eq, "'=' in the join condition")?;
                let right = self.colref()?;
                conditions.push(Condition::ColEqCol { left, right });
            } else {
                break;
            }
        }
        if self.eat_kw("WHERE") {
            self.where_conditions(&mut conditions)?;
        }
        Ok(Statement::Select(SelectStmt {
            projection,
            tables,
            conditions,
        }))
    }

    fn where_conditions(&mut self, out: &mut Vec<Condition>) -> Result<(), ParseError> {
        out.push(self.condition()?);
        while self.eat_kw("AND") {
            out.push(self.condition()?);
        }
        Ok(())
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek().map(|t| &t.tok) {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Err(self.unexpected("a comparison operator")),
        };
        self.pos += 1;
        Ok(op)
    }

    /// Mirrors a comparison so the column sits on the left
    /// (`5 < bal` becomes `bal > 5`).
    fn mirror(op: CmpOp) -> CmpOp {
        match op {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        // literal <op> colref
        let starts_with_literal = matches!(
            self.peek().map(|t| &t.tok),
            Some(Token::Int(_) | Token::Float(_) | Token::Str(_) | Token::Minus)
        );
        if starts_with_literal {
            let lit = self.literal()?;
            let op = self.cmp_op()?;
            let col = self.colref()?;
            return Ok(Condition::Compare {
                col,
                op: Self::mirror(op),
                lit,
            });
        }
        let left = self.colref()?;
        let op = self.cmp_op()?;
        // Right-hand side: literal or another column (column only for `=`).
        let rhs_is_col = matches!(self.peek().map(|t| &t.tok), Some(Token::Ident(w)) if !w.eq_ignore_ascii_case("NULL"));
        if rhs_is_col {
            let at = self.here();
            let right = self.colref()?;
            if op != CmpOp::Eq {
                return Err(ParseError::at(
                    at,
                    "column-to-column comparison supports only '='",
                ));
            }
            Ok(Condition::ColEqCol { left, right })
        } else {
            let lit = self.literal()?;
            Ok(Condition::Compare { col: left, op, lit })
        }
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        let table = self.ident("a table name")?;
        self.expect_kw("SET")?;
        let mut sets = vec![self.assignment()?];
        while matches!(
            self.peek(),
            Some(Spanned {
                tok: Token::Comma,
                ..
            })
        ) {
            self.pos += 1;
            sets.push(self.assignment()?);
        }
        let mut conditions = Vec::new();
        if self.eat_kw("WHERE") {
            self.where_conditions(&mut conditions)?;
        }
        Ok(Statement::Update {
            table,
            sets,
            conditions,
        })
    }

    fn assignment(&mut self) -> Result<(String, SetExpr), ParseError> {
        let target = self.ident("an assignment target column")?;
        self.expect_tok(&Token::Eq, "'=' in the assignment")?;
        // Column-based expression?
        if let Some(Spanned {
            tok: Token::Ident(w),
            ..
        }) = self.peek()
        {
            if !w.eq_ignore_ascii_case("NULL") {
                let col = w.clone();
                self.pos += 1;
                let plus = match self.peek().map(|t| &t.tok) {
                    Some(Token::Plus) => Some(true),
                    Some(Token::Minus) => Some(false),
                    _ => None,
                };
                return match plus {
                    Some(plus) => {
                        self.pos += 1;
                        let lit = self.literal()?;
                        Ok((target, SetExpr::BinOp { col, plus, lit }))
                    }
                    None => Ok((target, SetExpr::Col(col))),
                };
            }
        }
        let lit = self.literal()?;
        Ok((target, SetExpr::Lit(lit)))
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("FROM")?;
        let table = self.ident("a table name")?;
        let mut conditions = Vec::new();
        if self.eat_kw("WHERE") {
            self.where_conditions(&mut conditions)?;
        }
        Ok(Statement::Delete { table, conditions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse("CREATE TABLE emp (id INT, name TEXT, salary FLOAT);").unwrap();
        assert_eq!(
            s,
            Statement::CreateTable {
                name: "emp".to_string(),
                columns: vec![
                    ("id".to_string(), DataType::Int),
                    ("name".to_string(), DataType::Str),
                    ("salary".to_string(), DataType::Float),
                ],
            }
        );
    }

    #[test]
    fn parses_insert_multi_row() {
        let s = parse("insert into t (a, b) values (1, 'x'), (-2, NULL)").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, Some(vec!["a".to_string(), "b".to_string()]));
                assert_eq!(
                    rows,
                    vec![
                        vec![Literal::Int(1), Literal::Str("x".to_string())],
                        vec![Literal::Int(-2), Literal::Null],
                    ]
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_select_with_join_and_where() {
        let s = parse(
            "SELECT emp.name, dept.title FROM emp JOIN dept ON emp.dept_id = dept.id \
             WHERE emp.salary > 100.5 AND dept.title = 'eng'",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.tables, vec!["emp".to_string(), "dept".to_string()]);
                assert_eq!(sel.conditions.len(), 3);
                assert!(matches!(sel.conditions[0], Condition::ColEqCol { .. }));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn comma_join_is_equivalent() {
        let s = parse("SELECT * FROM a, b WHERE a.x = b.y").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.tables.len(), 2);
                assert!(matches!(sel.conditions[0], Condition::ColEqCol { .. }));
                assert_eq!(sel.projection, Projection::Star);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn mirrored_comparison_normalizes() {
        let s = parse("SELECT * FROM t WHERE 5 < x").unwrap();
        match s {
            Statement::Select(sel) => match &sel.conditions[0] {
                Condition::Compare { col, op, lit } => {
                    assert_eq!(col.column, "x");
                    assert_eq!(*op, CmpOp::Gt);
                    assert_eq!(*lit, Literal::Int(5));
                }
                other => panic!("wrong condition: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_update_with_arithmetic() {
        let s = parse("UPDATE acct SET bal = bal - 100 WHERE id = 7").unwrap();
        match s {
            Statement::Update { table, sets, .. } => {
                assert_eq!(table, "acct");
                assert_eq!(
                    sets,
                    vec![(
                        "bal".to_string(),
                        SetExpr::BinOp {
                            col: "bal".to_string(),
                            plus: false,
                            lit: Literal::Int(100),
                        }
                    )]
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_delete_and_txn_controls() {
        assert!(matches!(
            parse("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("commit;").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Abort);
        assert_eq!(parse("abort").unwrap(), Statement::Abort);
    }

    #[test]
    fn error_messages_name_position_and_expectation() {
        let e = parse("SELECT FROM t").unwrap_err();
        assert!(e.to_string().contains("expected a column reference"), "{e}");
        let e = parse("CREATE TABLE t (a BLOB)").unwrap_err();
        assert!(e.to_string().contains("unknown column type 'BLOB'"), "{e}");
        let e = parse("FLY TO t").unwrap_err();
        assert!(e.to_string().contains("unknown statement 'FLY'"), "{e}");
        let e = parse("SELECT * FROM t WHERE a < b").unwrap_err();
        assert!(
            e.to_string()
                .contains("column-to-column comparison supports only '='"),
            "{e}"
        );
        let e = parse("SELECT * FROM t extra garbage").unwrap_err();
        assert!(e.to_string().contains("after statement"), "{e}");
    }

    /// Every statement text the tests above feed the parser — valid and
    /// not — plus the spellings `first_word` must see through.
    const CORPUS: [&str; 26] = [
        "CREATE TABLE emp (id INT, name TEXT, salary FLOAT);",
        "insert into t (a, b) values (1, 'x'), (-2, NULL)",
        "SELECT emp.name, dept.title FROM emp JOIN dept ON emp.dept_id = dept.id \
         WHERE emp.salary > 100.5 AND dept.title = 'eng'",
        "SELECT * FROM a, b WHERE a.x = b.y",
        "SELECT * FROM t WHERE 5 < x",
        "UPDATE acct SET bal = bal - 100 WHERE id = 7",
        "DELETE FROM t WHERE a = 1",
        "BEGIN",
        "commit;",
        "ROLLBACK",
        "abort",
        "  \t\n begin ;",
        "-- a comment first\nRollBack",
        "-- one\n  -- two\nselect a from t",
        "SELECT FROM t",
        "CREATE TABLE t (a BLOB)",
        "FLY TO t",
        "SELECT * FROM t WHERE a < b",
        "SELECT * FROM t extra garbage",
        "",
        ";",
        "-- only a comment",
        "- BEGIN",
        "'BEGIN'",
        "7 COMMIT",
        "begin_work",
    ];

    #[test]
    fn leading_kind_agrees_with_the_parser_on_everything_that_parses() {
        let mut parsed = 0;
        for sql in CORPUS {
            if let Ok(stmt) = parse(sql) {
                parsed += 1;
                assert_eq!(leading_kind(sql), Some(stmt.kind()), "{sql:?}");
            }
        }
        assert_eq!(parsed, 14);
        // One table: every kind the parser can produce has a keyword,
        // and no keyword names a kind the parser cannot produce.
        for kind in crate::ast::STATEMENT_KINDS {
            assert!(STATEMENT_HEADS.iter().any(|(_, k)| *k == kind), "{kind}");
        }
        for (kw, kind) in STATEMENT_HEADS {
            assert!(crate::ast::STATEMENT_KINDS.contains(&kind), "{kw}");
        }
        // A leading word that is not a statement keyword is no kind.
        assert_eq!(leading_kind("FLY TO t"), None);
        assert_eq!(leading_kind("begin_work"), None);
        assert_eq!(leading_kind("'BEGIN'"), None);
        assert_eq!(leading_kind(""), None);
    }

    #[test]
    fn empty_input_is_an_error() {
        let e = parse("").unwrap_err();
        assert!(e.to_string().contains("end of input"), "{e}");
        assert!(parse(";").is_err());
    }
}
