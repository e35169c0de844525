//! SQL tokenizer.
//!
//! **Tokens borrow the source.** A `Token` is `Copy` and holds spans of
//! the statement text, never a copy of it: an identifier is its span as
//! written (keywords are matched against it without folding; the parser
//! folds a name to ASCII lowercase once, when it takes it as an owned
//! `String`), a string literal is the span between its quotes plus whether
//! it holds a `''` escape (so it becomes exactly one `String`, and the
//! escape is undone only where present), and a number is parsed from its
//! span. Lexing a statement allocates nothing.

use mammoth_algebra::CmpOp;
use mammoth_types::{Error, Result};

/// SQL tokens, borrowing the source they were lexed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    /// An identifier or keyword, as written (not folded).
    Ident(&'a str),
    Int(i64),
    Float(f64),
    /// A string literal: the text between its quotes, and whether that
    /// text holds a `''` escape still to be undone ([`unquote`]).
    Str {
        raw: &'a str,
        escaped: bool,
    },
    /// `=`, `<>` (or `!=`), `<`, `<=`, `>`, `>=`
    Op(CmpOp),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Semi,
    /// `?` — a prepared-statement parameter placeholder.
    Question,
    Eof,
}

impl Token<'_> {
    /// Keyword check: `kw` in either case against an identifier as written.
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A string literal's value from its [`Token::Str`] parts: one `String`,
/// with `''` undone.
pub(crate) fn unquote(raw: &str, escaped: bool) -> String {
    if escaped {
        raw.replace("''", "'")
    } else {
        raw.to_string()
    }
}

pub(crate) struct SqlLexer<'a> {
    src: &'a str,
    pos: usize,
}

#[allow(clippy::should_implement_trait)]
impl<'a> SqlLexer<'a> {
    pub fn new(src: &'a str) -> SqlLexer<'a> {
        SqlLexer { src, pos: 0 }
    }

    /// The byte offset the next token is lexed from (before whitespace).
    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        let src = self.bytes();
        while self.pos < src.len() {
            match src[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'-' if src.get(self.pos + 1) == Some(&b'-') => {
                    while self.pos < src.len() && src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// One byte of punctuation, consumed.
    fn punct(&mut self, t: Token<'a>) -> Token<'a> {
        self.pos += 1;
        t
    }

    pub fn next(&mut self) -> Result<Token<'a>> {
        self.skip_ws();
        let src = self.bytes();
        let Some(&c) = src.get(self.pos) else {
            return Ok(Token::Eof);
        };
        Ok(match c {
            b'(' => self.punct(Token::LParen),
            b')' => self.punct(Token::RParen),
            b',' => self.punct(Token::Comma),
            b'.' => self.punct(Token::Dot),
            b'*' => self.punct(Token::Star),
            b';' => self.punct(Token::Semi),
            b'?' => self.punct(Token::Question),
            b'=' => self.punct(Token::Op(CmpOp::Eq)),
            b'<' => {
                self.pos += 1;
                match src.get(self.pos) {
                    Some(b'=') => self.punct(Token::Op(CmpOp::Le)),
                    Some(b'>') => self.punct(Token::Op(CmpOp::Ne)),
                    _ => Token::Op(CmpOp::Lt),
                }
            }
            b'>' => {
                self.pos += 1;
                if src.get(self.pos) == Some(&b'=') {
                    self.punct(Token::Op(CmpOp::Ge))
                } else {
                    Token::Op(CmpOp::Gt)
                }
            }
            b'!' if src.get(self.pos + 1) == Some(&b'=') => {
                self.pos += 2;
                Token::Op(CmpOp::Ne)
            }
            b'\'' => {
                let start = self.pos + 1;
                let mut at = start;
                let mut escaped = false;
                loop {
                    // a quote is ASCII, never a UTF-8 continuation byte, so
                    // every span cut at one lies on character boundaries
                    let Some(q) = src[at..].iter().position(|&b| b == b'\'') else {
                        self.pos = src.len();
                        return Err(self.err("unterminated string literal"));
                    };
                    at += q;
                    if src.get(at + 1) == Some(&b'\'') {
                        // '' escapes a quote
                        escaped = true;
                        at += 2;
                    } else {
                        break;
                    }
                }
                self.pos = at + 1;
                Token::Str {
                    raw: &self.src[start..at],
                    escaped,
                }
            }
            b'0'..=b'9' | b'-' | b'+' => {
                let start = self.pos;
                self.pos += 1;
                let mut float = false;
                while let Some(&c) = src.get(self.pos) {
                    match c {
                        b'0'..=b'9' => {}
                        b'.' => float = true,
                        // an exponent, with its sign: `1e-7`, `2.5E+16`
                        b'e' | b'E' => {
                            let signed = matches!(src.get(self.pos + 1), Some(b'+' | b'-'));
                            let digits = self.pos + 1 + usize::from(signed);
                            if !src.get(digits).is_some_and(u8::is_ascii_digit) {
                                break;
                            }
                            float = true;
                            self.pos = digits;
                        }
                        _ => break,
                    }
                    self.pos += 1;
                }
                let text = &self.src[start..self.pos];
                if float {
                    // `1e999` parses, to infinity: not a value SQL can spell
                    let parsed = text.parse().ok().filter(|f: &f64| f.is_finite());
                    Token::Float(parsed.ok_or_else(|| self.err(format!("bad float {text}")))?)
                } else {
                    Token::Int(
                        text.parse()
                            .map_err(|_| self.err(format!("bad integer {text}")))?,
                    )
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while src
                    .get(self.pos)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    self.pos += 1;
                }
                Token::Ident(&self.src[start..self.pos])
            }
            _ => {
                let other = self.src[self.pos..].chars().next().unwrap_or('?');
                return Err(self.err(format!("unexpected character '{other}'")));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(src: &str) -> Vec<Token<'_>> {
        let mut lex = SqlLexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lex.next().unwrap();
            if t == Token::Eof {
                break;
            }
            out.push(t);
        }
        out
    }

    /// The one string literal `src` lexes to, as its value.
    fn string(src: &str) -> Result<String> {
        match SqlLexer::new(src).next()? {
            Token::Str { raw, escaped } => Ok(unquote(raw, escaped)),
            t => panic!("{src:?} lexed to {t:?}"),
        }
    }

    #[test]
    fn tokenizes_select() {
        let toks = all("SELECT Name, age FROM PEOPLE WHERE age >= 1927;");
        assert_eq!(toks[0], Token::Ident("SELECT"));
        assert_eq!(toks[1], Token::Ident("Name"));
        assert_eq!(toks[5], Token::Ident("PEOPLE"));
        assert!(toks.contains(&Token::Op(CmpOp::Ge)));
        assert_eq!(*toks.last().unwrap(), Token::Semi);
    }

    #[test]
    fn strings_and_escapes() {
        // the unescaped path borrows, the escaped one undoes `''`
        assert_eq!(
            all("'It''s' 'plain'"),
            vec![
                Token::Str {
                    raw: "It''s",
                    escaped: true
                },
                Token::Str {
                    raw: "plain",
                    escaped: false
                },
            ]
        );
        for (src, want) in [
            ("''", ""),
            ("''''", "'"),
            ("'a''b'", "a'b"),
            ("'é'", "é"),
            ("'日本''語'", "日本'語"),
            ("'x'", "x"),
        ] {
            assert_eq!(string(src).as_deref(), Ok(want), "{src}");
        }
        // a literal that ends the input is whole; one the input cuts is not
        assert_eq!(all("SELECT 'tail'").len(), 2);
        for src in ["'x", "'oops''", "'", "'a''"] {
            let e = SqlLexer::new(src).next().unwrap_err();
            assert!(e.to_string().contains("unterminated"), "{src}: {e}");
        }
    }

    #[test]
    fn numbers() {
        assert_eq!(all("42"), vec![Token::Int(42)]);
        assert_eq!(all("-7"), vec![Token::Int(-7)]);
        assert_eq!(all("2.5"), vec![Token::Float(2.5)]);
        // exponents, as Rust prints floats below 1e-5 and from 1e16 up
        assert_eq!(all("1e-7"), vec![Token::Float(1e-7)]);
        assert_eq!(all("2.5E+16, -1e300"), {
            vec![Token::Float(2.5e16), Token::Comma, Token::Float(-1e300)]
        });
        assert!(SqlLexer::new("1e999").next().is_err(), "infinity");
        // no digits, no exponent: the `e` starts the next token
        assert_eq!(all("1east"), vec![Token::Int(1), Token::Ident("east")]);
    }

    #[test]
    fn comments_skipped() {
        let toks = all("SELECT -- the works\n 1");
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn ne_spellings() {
        assert_eq!(all("<>"), all("!="));
    }

    #[test]
    fn keyword_check() {
        assert!(Token::Ident("select").is_kw("SELECT"));
        assert!(Token::Ident("SeLeCt").is_kw("SELECT"));
        assert!(!Token::Int(1).is_kw("SELECT"));
        let s = Token::Str {
            raw: "select",
            escaped: false,
        };
        assert!(!s.is_kw("SELECT"), "a string literal is no keyword");
    }

    #[test]
    fn a_stray_multibyte_character_is_an_error_not_a_panic() {
        let e = SqlLexer::new("é").next().unwrap_err();
        assert!(e.to_string().contains("'é'"), "{e}");
    }
}
