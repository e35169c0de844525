//! SQL tokenizer.

use mammoth_algebra::CmpOp;
use mammoth_types::{Error, Result};

/// SQL tokens. Keywords are uppercased idents, matched case-insensitively.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
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

pub struct SqlLexer<'a> {
    src: &'a [u8],
    pub pos: usize,
}

#[allow(clippy::should_implement_trait)]
impl<'a> SqlLexer<'a> {
    pub fn new(src: &'a str) -> SqlLexer<'a> {
        SqlLexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    pub fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'-' if self.src.get(self.pos + 1) == Some(&b'-') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    pub fn next(&mut self) -> Result<Token> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(Token::Eof);
        }
        let c = self.src[self.pos];
        Ok(match c {
            b'(' => {
                self.pos += 1;
                Token::LParen
            }
            b')' => {
                self.pos += 1;
                Token::RParen
            }
            b',' => {
                self.pos += 1;
                Token::Comma
            }
            b'.' => {
                self.pos += 1;
                Token::Dot
            }
            b'*' => {
                self.pos += 1;
                Token::Star
            }
            b';' => {
                self.pos += 1;
                Token::Semi
            }
            b'?' => {
                self.pos += 1;
                Token::Question
            }
            b'=' => {
                self.pos += 1;
                Token::Op(CmpOp::Eq)
            }
            b'<' => {
                self.pos += 1;
                match self.src.get(self.pos) {
                    Some(b'=') => {
                        self.pos += 1;
                        Token::Op(CmpOp::Le)
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        Token::Op(CmpOp::Ne)
                    }
                    _ => Token::Op(CmpOp::Lt),
                }
            }
            b'>' => {
                self.pos += 1;
                if self.src.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Token::Op(CmpOp::Ge)
                } else {
                    Token::Op(CmpOp::Gt)
                }
            }
            b'!' if self.src.get(self.pos + 1) == Some(&b'=') => {
                self.pos += 2;
                Token::Op(CmpOp::Ne)
            }
            b'\'' => {
                self.pos += 1;
                // collect raw bytes, convert once: pushing `byte as char`
                // would mangle multi-byte UTF-8 into mojibake
                let mut bytes = Vec::new();
                loop {
                    match self.src.get(self.pos) {
                        None => return Err(self.err("unterminated string literal")),
                        Some(b'\'') => {
                            // '' escapes a quote
                            if self.src.get(self.pos + 1) == Some(&b'\'') {
                                bytes.push(b'\'');
                                self.pos += 2;
                            } else {
                                self.pos += 1;
                                break;
                            }
                        }
                        Some(&ch) => {
                            bytes.push(ch);
                            self.pos += 1;
                        }
                    }
                }
                // the source is a &str and ' is never a UTF-8 continuation
                // byte, so the span is valid — but corrupt input must
                // surface as a parse error, not a panic
                let s = String::from_utf8(bytes)
                    .map_err(|_| self.err("invalid utf8 in string literal"))?;
                Token::Str(s)
            }
            b'0'..=b'9' | b'-' | b'+' => {
                let start = self.pos;
                self.pos += 1;
                let mut float = false;
                while let Some(&c) = self.src.get(self.pos) {
                    match c {
                        b'0'..=b'9' => {}
                        b'.' => float = true,
                        // an exponent, with its sign: `1e-7`, `2.5E+16`
                        b'e' | b'E' => {
                            let signed = matches!(self.src.get(self.pos + 1), Some(b'+' | b'-'));
                            let digits = self.pos + 1 + usize::from(signed);
                            if !self.src.get(digits).is_some_and(u8::is_ascii_digit) {
                                break;
                            }
                            float = true;
                            self.pos = digits;
                        }
                        _ => break,
                    }
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid utf8 in number"))?;
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
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                Token::Ident(
                    std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid utf8 in identifier"))?
                        .to_string(),
                )
            }
            other => return Err(self.err(format!("unexpected character '{}'", other as char))),
        })
    }

    pub fn peek(&mut self) -> Result<Token> {
        let save = self.pos;
        let t = self.next();
        self.pos = save;
        t
    }
}

/// Case-insensitive keyword check.
pub fn is_kw(t: &Token, kw: &str) -> bool {
    matches!(t, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(src: &str) -> Vec<Token> {
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

    #[test]
    fn tokenizes_select() {
        let toks = all("SELECT name, age FROM people WHERE age >= 1927;");
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::Op(CmpOp::Ge)));
        assert_eq!(*toks.last().unwrap(), Token::Semi);
    }

    #[test]
    fn strings_and_escapes() {
        let toks = all("'it''s'");
        assert_eq!(toks, vec![Token::Str("it's".into())]);
        assert!(SqlLexer::new("'oops").next().is_err());
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
        assert_eq!(
            all("1east"),
            vec![Token::Int(1), Token::Ident("east".into())]
        );
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
        assert!(is_kw(&Token::Ident("select".into()), "SELECT"));
        assert!(!is_kw(&Token::Int(1), "SELECT"));
    }
}
