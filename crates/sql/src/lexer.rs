//! Hand-rolled SQL tokenizer.
//!
//! Produces a flat token stream with byte offsets for error reporting.
//! Keywords are not distinguished here — the parser matches identifiers
//! case-insensitively, so `select` and `SELECT` lex identically.

use crate::parser::ParseError;

/// One lexical token plus the byte offset where it started.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Token,
    /// Byte offset of the token's first character in the input.
    pub at: usize,
}

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare word: keyword, table, or column name.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal (`12.5`).
    Float(f64),
    /// Single-quoted string literal (`''` escapes a quote).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `.`
    Dot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Token {
    /// Short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("'{s}'"),
            Token::Int(i) => format!("integer {i}"),
            Token::Float(x) => format!("float {x}"),
            Token::Str(s) => format!("string '{s}'"),
            Token::LParen => "'('".to_string(),
            Token::RParen => "')'".to_string(),
            Token::Comma => "','".to_string(),
            Token::Semicolon => "';'".to_string(),
            Token::Star => "'*'".to_string(),
            Token::Dot => "'.'".to_string(),
            Token::Plus => "'+'".to_string(),
            Token::Minus => "'-'".to_string(),
            Token::Eq => "'='".to_string(),
            Token::Ne => "'<>'".to_string(),
            Token::Lt => "'<'".to_string(),
            Token::Le => "'<='".to_string(),
            Token::Gt => "'>'".to_string(),
            Token::Ge => "'>='".to_string(),
        }
    }
}

/// Longest identifier / string literal the lexer accepts; beyond this
/// is a lex error, which keeps catalog blobs and error messages small.
const MAX_TOKEN_BYTES: usize = 4096;

/// Tokenizes `input`. Never panics: every malformed byte sequence is a
/// [`ParseError`] naming the offending offset.
pub fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        let at = i;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'(' => push1(&mut out, Token::LParen, at, &mut i),
            b')' => push1(&mut out, Token::RParen, at, &mut i),
            b',' => push1(&mut out, Token::Comma, at, &mut i),
            b';' => push1(&mut out, Token::Semicolon, at, &mut i),
            b'*' => push1(&mut out, Token::Star, at, &mut i),
            b'.' => push1(&mut out, Token::Dot, at, &mut i),
            b'+' => push1(&mut out, Token::Plus, at, &mut i),
            b'-' => {
                // `--` starts a line comment.
                if bytes.get(i + 1) == Some(&b'-') {
                    while bytes.get(i).is_some_and(|&c| c != b'\n') {
                        i += 1;
                    }
                } else {
                    push1(&mut out, Token::Minus, at, &mut i);
                }
            }
            b'=' => push1(&mut out, Token::Eq, at, &mut i),
            b'<' => match bytes.get(i + 1) {
                Some(b'=') => push2(&mut out, Token::Le, at, &mut i),
                Some(b'>') => push2(&mut out, Token::Ne, at, &mut i),
                _ => push1(&mut out, Token::Lt, at, &mut i),
            },
            b'>' => match bytes.get(i + 1) {
                Some(b'=') => push2(&mut out, Token::Ge, at, &mut i),
                _ => push1(&mut out, Token::Gt, at, &mut i),
            },
            b'!' => match bytes.get(i + 1) {
                Some(b'=') => push2(&mut out, Token::Ne, at, &mut i),
                _ => {
                    return Err(ParseError::at(at, "unexpected character '!'"));
                }
            },
            b'\'' => {
                let (s, next) = lex_string(bytes, i)?;
                out.push(Spanned {
                    tok: Token::Str(s),
                    at,
                });
                i = next;
            }
            b'0'..=b'9' => {
                let (tok, next) = lex_number(bytes, i)?;
                out.push(Spanned { tok, at });
                i = next;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                i = word_end(bytes, i);
                if i - start > MAX_TOKEN_BYTES {
                    return Err(ParseError::at(start, "identifier too long"));
                }
                let word = bytes
                    .get(start..i)
                    .and_then(|w| std::str::from_utf8(w).ok())
                    .ok_or_else(|| ParseError::at(start, "malformed identifier"))?;
                out.push(Spanned {
                    tok: Token::Ident(word.to_string()),
                    at,
                });
            }
            other => {
                // Non-ASCII bytes get a generic description so the
                // message itself stays valid UTF-8.
                let what = if other.is_ascii_graphic() {
                    format!("unexpected character '{}'", other as char)
                } else {
                    format!("unexpected byte 0x{other:02x}")
                };
                return Err(ParseError::at(at, what));
            }
        }
    }
    Ok(out)
}

/// Index just past the identifier characters starting at `i`.
fn word_end(bytes: &[u8], mut i: usize) -> usize {
    while bytes
        .get(i)
        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
    {
        i += 1;
    }
    i
}

/// The first token of `input` if it is a bare word — what [`lex`] would
/// produce first, skipping the same whitespace and `--` comments, but
/// without tokenizing the rest.
pub fn first_word(input: &str) -> Option<&str> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    loop {
        match bytes.get(i)? {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while bytes.get(i).is_some_and(|&c| c != b'\n') {
                    i += 1;
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => return input.get(i..word_end(bytes, i)),
            _ => return None,
        }
    }
}

fn push1(out: &mut Vec<Spanned>, tok: Token, at: usize, i: &mut usize) {
    out.push(Spanned { tok, at });
    *i += 1;
}

fn push2(out: &mut Vec<Spanned>, tok: Token, at: usize, i: &mut usize) {
    out.push(Spanned { tok, at });
    *i += 2;
}

/// Lexes a single-quoted string starting at `start` (which holds `'`).
/// Returns the unescaped contents and the index just past the closing
/// quote. `''` inside the literal is an escaped quote.
fn lex_string(bytes: &[u8], start: usize) -> Result<(String, usize), ParseError> {
    let mut i = start + 1;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match bytes.get(i) {
            Some(b'\'') => {
                if bytes.get(i + 1) == Some(&b'\'') {
                    buf.push(b'\'');
                    i += 2;
                } else {
                    let s = String::from_utf8(buf)
                        .map_err(|_| ParseError::at(start, "string literal is not valid UTF-8"))?;
                    return Ok((s, i + 1));
                }
            }
            Some(&c) => {
                if buf.len() >= MAX_TOKEN_BYTES {
                    return Err(ParseError::at(start, "string literal too long"));
                }
                buf.push(c);
                i += 1;
            }
            None => return Err(ParseError::at(start, "unterminated string literal")),
        }
    }
}

/// Lexes an unsigned number starting at `start`. A `.` followed by a
/// digit makes it a float; otherwise it is an integer (checked parse,
/// so overflow is an error rather than a wrap).
fn lex_number(bytes: &[u8], start: usize) -> Result<(Token, usize), ParseError> {
    let mut i = start;
    while bytes.get(i).is_some_and(|c| c.is_ascii_digit()) {
        i += 1;
    }
    let is_float =
        bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit());
    if is_float {
        i += 1;
        while bytes.get(i).is_some_and(|c| c.is_ascii_digit()) {
            i += 1;
        }
    }
    let text = bytes
        .get(start..i)
        .and_then(|w| std::str::from_utf8(w).ok())
        .ok_or_else(|| ParseError::at(start, "malformed number"))?;
    if is_float {
        text.parse::<f64>()
            .map(|x| (Token::Float(x), i))
            .map_err(|_| ParseError::at(start, format!("bad float literal '{text}'")))
    } else {
        text.parse::<i64>()
            .map(|n| (Token::Int(n), i))
            .map_err(|_| ParseError::at(start, format!("integer literal '{text}' out of range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        lex(input).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            toks("( ) , ; * . + - = <> != < <= > >="),
            vec![
                Token::LParen,
                Token::RParen,
                Token::Comma,
                Token::Semicolon,
                Token::Star,
                Token::Dot,
                Token::Plus,
                Token::Minus,
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
            ]
        );
    }

    #[test]
    fn lexes_literals() {
        assert_eq!(
            toks("42 12.5 'it''s'"),
            vec![
                Token::Int(42),
                Token::Float(12.5),
                Token::Str("it's".to_string()),
            ]
        );
    }

    #[test]
    fn number_then_dot_is_not_a_float() {
        // `t1.c` style references must survive: `1.x` lexes as int, dot, ident.
        assert_eq!(
            toks("1.x"),
            vec![Token::Int(1), Token::Dot, Token::Ident("x".to_string())]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a -- rest of line\n b"),
            vec![Token::Ident("a".to_string()), Token::Ident("b".to_string())]
        );
    }

    #[test]
    fn errors_name_the_offset() {
        let e = lex("select ~").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(e.to_string().contains("unexpected character '~'"));
        assert!(lex("'open").is_err());
        assert!(lex("99999999999999999999").is_err());
        assert!(lex("!x").is_err());
    }

    #[test]
    fn non_ascii_is_an_error_not_a_panic() {
        assert!(lex("café").is_err());
        assert!(lex("\u{1F600}").is_err());
    }
}
