//! Textual MAL.
//!
//! A small concrete syntax matching [`Program`]'s `Display` output, so
//! programs round-trip. Example:
//!
//! ```text
//! age := sql.bind("people", "age");
//! c := algebra.thetaselect[==](age, 1927);
//! name := sql.bind("people", "name");
//! out := algebra.projection(c, name);
//! io.result(out);
//! ```

use crate::program::{
    Arg, FilterTest, Instr, OpCode, Param, PipelineFilter, PipelineOut, PipelineSink, PipelineSpec,
    Program, AGG_NAMES, CMP_NAMES,
};
use mammoth_types::{Error, Result, Value};
use std::collections::HashMap;
use std::sync::Arc;

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(char),
    Assign, // :=
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse {
            pos: self.pos,
            message: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                b'#' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn next(&mut self) -> Result<Tok> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(Tok::Eof);
        }
        let c = self.src[self.pos];
        match c {
            b'(' | b')' | b',' | b';' | b'[' | b']' | b'?' => {
                self.pos += 1;
                Ok(Tok::Sym(c as char))
            }
            b':' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Tok::Assign)
                } else {
                    Err(self.err("expected ':='"))
                }
            }
            b'"' => {
                // up to the closing quote, past every backslash's escape
                let start = self.pos + 1;
                let mut end = start;
                while end < self.src.len() && self.src[end] != b'"' {
                    end += 1 + usize::from(self.src[end] == b'\\');
                }
                if end >= self.src.len() {
                    return Err(self.err("unterminated string"));
                }
                let raw = std::str::from_utf8(&self.src[start..end])
                    .map_err(|_| self.err("invalid utf8"))?;
                self.pos = end + 1;
                unescape(raw)
                    .map(Tok::Str)
                    .ok_or_else(|| self.err("bad escape in string"))
            }
            b'0'..=b'9' | b'-' => {
                let start = self.pos;
                self.pos += 1;
                let mut float = false;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_digit() || self.src[self.pos] == b'.')
                {
                    float |= self.src[self.pos] == b'.';
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                if float {
                    text.parse::<f64>()
                        .map(Tok::Float)
                        .map_err(|_| self.err("bad float literal"))
                } else {
                    text.parse::<i64>()
                        .map(Tok::Int)
                        .map_err(|_| self.err("bad int literal"))
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric()
                        || self.src[self.pos] == b'_'
                        || self.src[self.pos] == b'.')
                {
                    self.pos += 1;
                }
                Ok(Tok::Ident(
                    std::str::from_utf8(&self.src[start..self.pos])
                        .unwrap()
                        .to_string(),
                ))
            }
            other => Err(self.err(format!("unexpected character '{}'", other as char))),
        }
    }

    /// Read `tok` (`what` names it in the error).
    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        match self.next()? {
            t if t == tok => Ok(()),
            t => Err(self.err(format!("expected {what}, got {t:?}"))),
        }
    }

    fn peek(&mut self) -> Result<Tok> {
        let save = self.pos;
        let t = self.next();
        self.pos = save;
        t
    }

    /// The raw text of a name's last part (`batcalc.-`), up to the
    /// bracket or argument list after it.
    fn name_suffix(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len() && !b"([ \t\r\n".contains(&self.src[self.pos]) {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// The raw text up to the `]` closing a bracket suffix, trimmed; the
    /// opening `[` has been read.
    fn bracket_text(&mut self) -> Result<String> {
        let start = self.pos;
        let len = self.src[start..].iter().position(|&c| c == b']');
        let Some(len) = len else {
            return Err(self.err("unterminated '['"));
        };
        self.pos = start + len + 1;
        let text = std::str::from_utf8(&self.src[start..start + len])
            .map_err(|_| self.err("invalid utf8"))?;
        match text.trim() {
            "" => Err(self.err("expected operator")),
            text => Ok(text.to_string()),
        }
    }
}

/// A string literal's text with the escapes that `{:?}` writes (`\"`,
/// `\\`, `\n`, `\r`, `\t`, `\0`, `\u{…}`) read back.
fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            '0' => '\0',
            'u' => {
                let (hex, rest) = chars.as_str().strip_prefix('{')?.split_once('}')?;
                chars = rest.chars();
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            c @ ('\\' | '"' | '\'') => c,
            _ => return None,
        });
    }
    Some(out)
}

/// The value named `name` in one of the printer's name tables.
fn named<T: Copy>(names: &[(T, &str)], name: &str) -> Option<T> {
    names.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
}

/// The `<op>@<column>` halves of one comma-separated pipeline item.
fn at_column(item: &str) -> Option<(&str, usize)> {
    let (name, col) = item.split_once('@')?;
    Some((name.trim(), col.trim().parse().ok()?))
}

fn pipeline_filter_from(item: &str) -> Option<PipelineFilter> {
    let (name, col) = at_column(item)?;
    let test = match name {
        ">=<=" | ">=<" | "><=" | "><" => FilterTest::Range {
            lo_incl: name.starts_with(">="),
            hi_incl: name.ends_with("<="),
        },
        op => FilterTest::Theta(named(&CMP_NAMES, op)?),
    };
    Some(PipelineFilter { col, test })
}

fn pipeline_out_from(item: &str) -> Option<PipelineOut> {
    match item.trim() {
        "key" => Some(PipelineOut::Key),
        "count" => Some(PipelineOut::Count),
        item => match at_column(item)? {
            ("col", col) => Some(PipelineOut::Col(col)),
            (name, col) => Some(PipelineOut::Agg(named(&AGG_NAMES, name)?, col)),
        },
    }
}

/// The bracket text of `vector.pipeline[…]` — what [`PipelineSpec`]
/// displays as.
fn pipeline_spec_from(text: &str) -> Option<PipelineSpec> {
    let (filters, sink) = text.split_once(';')?;
    let (sink, outs) = match sink.split_once(':') {
        None => (PipelineSink::Rows, sink),
        Some((keyed, outs)) => match at_column(keyed)? {
            ("group", key) => (PipelineSink::Group(key), outs),
            ("top", key) => (PipelineSink::Top { key, desc: false }, outs),
            ("top.desc", key) => (PipelineSink::Top { key, desc: true }, outs),
            _ => return None,
        },
    };
    let spec = PipelineSpec {
        filters: filters
            .split(',')
            .map(pipeline_filter_from)
            .collect::<Option<_>>()?,
        sink,
        outs: outs
            .split(',')
            .map(pipeline_out_from)
            .collect::<Option<_>>()?,
    };
    Some(spec)
}

/// Parse the textual MAL form into a [`Program`].
pub fn parse_program(src: &str) -> Result<Program> {
    let mut lex = Lexer::new(src);
    let mut prog = Program::new();
    let mut names: HashMap<String, usize> = HashMap::new();

    loop {
        match lex.next()? {
            Tok::Eof => break,
            first @ (Tok::Ident(_) | Tok::Sym('(')) => {
                parse_stmt(&mut lex, &mut prog, &mut names, first)?
            }
            other => return Err(lex.err(format!("unexpected token {other:?}"))),
        }
    }
    Ok(prog)
}

fn get_var(prog: &mut Program, names: &mut HashMap<String, usize>, name: &str) -> usize {
    if let Some(&v) = names.get(name) {
        return v;
    }
    let v = prog.var();
    names.insert(name.to_string(), v);
    v
}

fn parse_stmt(
    lex: &mut Lexer,
    prog: &mut Program,
    names: &mut HashMap<String, usize>,
    first: Tok,
) -> Result<()> {
    // targets: `(a, b) :=`, `a :=`, or none before a bare `io.result(…)`
    let mut targets: Vec<String> = Vec::new();
    let call = match first {
        Tok::Sym('(') => loop {
            match lex.next()? {
                Tok::Ident(n) => targets.push(n),
                t => return Err(lex.err(format!("expected target name, got {t:?}"))),
            }
            match lex.next()? {
                Tok::Sym(',') => continue,
                Tok::Sym(')') => break None,
                t => return Err(lex.err(format!("expected ',' or ')', got {t:?}"))),
            }
        },
        Tok::Ident(name) if name.contains('.') => Some(name),
        Tok::Ident(name) => {
            targets.push(name);
            None
        }
        t => return Err(lex.err(format!("unexpected {t:?}"))),
    };
    let mut fname = match call {
        Some(name) => name,
        None => {
            lex.expect(Tok::Assign, "':='")?;
            match lex.next()? {
                Tok::Ident(f) => f,
                t => return Err(lex.err(format!("expected function, got {t:?}"))),
            }
        }
    };
    // a name that ends in its operator (`batcalc.-`): read as written, not
    // as the start of a number
    if fname.ends_with('.') {
        fname.push_str(&lex.name_suffix());
    }

    // optional [op] suffix: an operator, `desc`, or a pipeline's shape
    let mut bracket_op: Option<String> = None;
    if lex.peek()? == Tok::Sym('[') {
        lex.next()?;
        bracket_op = Some(lex.bracket_text()?);
    }

    // argument list
    lex.expect(Tok::Sym('('), "'('")?;
    let mut args: Vec<Arg> = Vec::new();
    if lex.peek()? == Tok::Sym(')') {
        lex.next()?;
    } else {
        loop {
            let a = match lex.next()? {
                Tok::Ident(n) if n == "nil" => Arg::Const(Value::Null),
                Tok::Ident(n) if n == "true" => Arg::Const(Value::Bool(true)),
                Tok::Ident(n) if n == "false" => Arg::Const(Value::Bool(false)),
                Tok::Ident(n) => Arg::Var(get_var(prog, names, &n)),
                Tok::Int(x) => Arg::Const(if i32::try_from(x).is_ok() {
                    Value::I32(x as i32)
                } else {
                    Value::I64(x)
                }),
                Tok::Float(f) => Arg::Const(Value::F64(f)),
                Tok::Str(s) => Arg::Const(Value::Str(s)),
                // `?N` — a prepared-statement parameter slot
                Tok::Sym('?') => match lex.next()? {
                    Tok::Int(n) if n >= 0 => Arg::Param(n as usize),
                    t => return Err(lex.err(format!("expected parameter index, got {t:?}"))),
                },
                t => return Err(lex.err(format!("bad argument {t:?}"))),
            };
            args.push(a);
            match lex.next()? {
                Tok::Sym(',') => continue,
                Tok::Sym(')') => break,
                t => return Err(lex.err(format!("expected ',' or ')', got {t:?}"))),
            }
        }
    }
    lex.expect(Tok::Sym(';'), "';'")?;

    let op = resolve(&fname, bracket_op.as_deref(), &mut args).ok_or_else(|| {
        let bracket = bracket_op.map(|b| format!("[{b}]")).unwrap_or_default();
        lex.err(format!("unknown operation {fname}{bracket}"))
    })?;

    if op == OpCode::Bind {
        // a table and a column name: folded as SQL's are (DESIGN.md, the
        // `sql` row), so that a plan compares them byte for byte
        for arg in &mut args {
            if let Arg::Const(Value::Str(name)) = arg {
                name.make_ascii_lowercase();
            }
        }
    }
    if op.result_arity() != targets.len() {
        return Err(lex.err(format!(
            "{} binds {} results, {} given",
            op.name(),
            op.result_arity(),
            targets.len()
        )));
    }
    let results: Vec<usize> = targets.iter().map(|t| get_var(prog, names, t)).collect();
    prog.instrs.push(Instr { results, op, args });
    Ok(())
}

/// The operation printed as `name`, with `[bracket]` after it: the one of
/// [`OpCode::every`] the printer names so, or a pipeline of the bracket's
/// shape. A parameter the printer writes as trailing arguments (a range's
/// inclusivity) must be there too, and is taken off `args`.
fn resolve(name: &str, bracket: Option<&str>, args: &mut Vec<Arg>) -> Option<OpCode> {
    let text = match bracket {
        Some(b) => format!("{name}[{b}]"),
        None => name.to_string(),
    };
    let incl = match &args[..] {
        [.., Arg::Const(Value::Bool(lo)), Arg::Const(Value::Bool(hi))] => {
            Some(Param::Incl(*lo, *hi))
        }
        _ => None,
    };
    let op = OpCode::every()
        .find(|op| {
            let (sig, param) = op.sig();
            let trailing = !matches!(param, Param::Incl(..)) || incl == Some(param);
            trailing && text.starts_with(sig.name) && op.name() == text
        })
        .or_else(|| {
            let op = OpCode::Pipeline(Arc::new(pipeline_spec_from(bracket?)?));
            (op.sig().0.name == name).then_some(op)
        })?;
    if let (_, Param::Incl(..)) = op.sig() {
        args.truncate(args.len() - 2);
    }
    Some(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_algebra::{AggKind, ArithOp, CmpOp};

    #[test]
    fn parses_figure1_program() {
        let src = r#"
            # Figure 1: who was born in 1927?
            age := sql.bind("people", "age");
            c := algebra.thetaselect[==](age, 1927);
            name := sql.bind("people", "name");
            out := algebra.projection(c, name);
            io.result(out);
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.instrs.len(), 5);
        assert_eq!(p.instrs[0].op, OpCode::Bind);
        assert!(matches!(p.instrs[1].op, OpCode::ThetaSelect(CmpOp::Eq)));
        assert_eq!(p.instrs[4].op, OpCode::Result);
    }

    #[test]
    fn parses_multi_result_and_aggregates() {
        let src = r#"
            a := sql.bind("t", "a");
            (g, e) := group.group(a);
            s := aggr.subsum(a, g, e);
            total := aggr.sum(a);
            io.result(s, total);
        "#;
        let p = parse_program(src).unwrap();
        assert!(matches!(p.instrs[1].op, OpCode::Group));
        assert_eq!(p.instrs[1].results.len(), 2);
        assert!(matches!(p.instrs[2].op, OpCode::AggrGrouped(AggKind::Sum)));
        assert!(matches!(p.instrs[3].op, OpCode::Aggr(AggKind::Sum)));
    }

    #[test]
    fn parses_range_select_and_calc() {
        let src = r#"
            a := sql.bind("t", "a");
            r := algebra.select(a, 10, 20, true, false);
            d := batcalc.*(r, 2);
            io.result(d);
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(
            p.instrs[1].op,
            OpCode::RangeSelect {
                lo_incl: true,
                hi_incl: false
            }
        );
        assert_eq!(p.instrs[1].args.len(), 3);
        assert!(matches!(p.instrs[2].op, OpCode::Calc(ArithOp::Mul)));
    }

    #[test]
    fn roundtrips_through_display() {
        let src = r#"
            age := sql.bind("people", "age");
            c := algebra.thetaselect[==](age, 1927);
            io.result(c);
        "#;
        let p = parse_program(src).unwrap();
        let text = p.to_string();
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p.instrs.len(), p2.instrs.len());
        for (a, b) in p.instrs.iter().zip(&p2.instrs) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.args.len(), b.args.len());
        }
    }

    #[test]
    fn candidate_forms_and_firstn_roundtrip() {
        let src = r#"
            a := sql.bind("t", "a");
            b := sql.bind("t", "b");
            c1 := algebra.select(a, 10, nil, true, false);
            c2 := algebra.thetaselect[<](b, c1, 5);
            c3 := algebra.select(a, c2, 12, 20, false, true);
            v := algebra.projection(c3, a);
            (s, o) := algebra.firstn[desc](v, 3);
            io.result(s, o);
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.instrs[2].select_args().unwrap().cand, None);
        assert_eq!(
            p.instrs[3].select_args().unwrap().cand,
            Some(&Arg::Var(p.instrs[2].results[0]))
        );
        let range = p.instrs[4].select_args().unwrap();
        assert_eq!(range.cand, Some(&Arg::Var(p.instrs[3].results[0])));
        assert_eq!(range.bounds.len(), 2);
        assert_eq!(p.instrs[6].op, OpCode::FirstN { desc: true });
        assert_eq!(p.instrs[6].results.len(), 2);
        // the printed form carries the inclusivity flags and `nil`, so it
        // parses back to the same program
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p.instrs, p2.instrs);
    }

    /// The pipeline instruction's shape lives in its brackets; the corpus
    /// plans that carry one — every sink form — print and parse back to
    /// themselves.
    #[test]
    fn pipeline_instructions_roundtrip() {
        for file in [
            "pipeline_sum.mal",
            "pipeline_group.mal",
            "pipeline_fetch.mal",
            "pipeline_topn.mal",
        ] {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans/");
            let p = parse_program(&std::fs::read_to_string(format!("{dir}{file}")).unwrap())
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            crate::analysis::verify(&p).unwrap_or_else(|e| panic!("{file}: {e}"));
            let text = p.to_string();
            let p2 = parse_program(&text).unwrap_or_else(|e| panic!("{file} reparsed: {e}"));
            assert_eq!(p.instrs, p2.instrs, "{file}");
            assert_eq!(text, p2.to_string(), "{file}");
        }
        let p = parse_program(
            "(k, n, m) := vector.pipeline[ ><=@1 , !=@0 ; group@2 : key, count, max@1 ](a, b, c, 1, 9, ?0);",
        )
        .unwrap();
        let OpCode::Pipeline(spec) = &p.instrs[0].op else {
            panic!("not a pipeline")
        };
        let range = FilterTest::Range {
            lo_incl: false,
            hi_incl: true,
        };
        assert_eq!(
            spec.filters,
            [
                PipelineFilter {
                    col: 1,
                    test: range
                },
                PipelineFilter {
                    col: 0,
                    test: FilterTest::Theta(CmpOp::Ne)
                }
            ]
        );
        assert_eq!(
            (spec.sink, spec.ncols(), spec.nargs()),
            (PipelineSink::Group(2), 3, 6)
        );
        assert_eq!(
            spec.outs,
            [
                PipelineOut::Key,
                PipelineOut::Count,
                PipelineOut::Agg(AggKind::Max, 1)
            ]
        );
        assert_eq!(
            p.instrs[0].op.name(),
            "vector.pipeline[><=@1, !=@0; group@2: key, count, max@1]"
        );
        assert_eq!(p.instrs[0].args[5], Arg::Param(0));
        let p = parse_program(
            "(s, w) := vector.pipeline[ <@0 ; top.desc@1 : col@1 , col@0 ](a, b, 9, ?1);",
        )
        .unwrap();
        let OpCode::Pipeline(spec) = &p.instrs[0].op else {
            panic!("not a pipeline")
        };
        assert_eq!(
            (spec.sink, spec.ncols(), spec.nargs()),
            (PipelineSink::Top { key: 1, desc: true }, 2, 4)
        );
        assert_eq!(spec.outs, [PipelineOut::Col(1), PipelineOut::Col(0)]);
        assert_eq!(
            p.instrs[0].op.name(),
            "vector.pipeline[<@0; top.desc@1: col@1, col@0]"
        );
        for bad in [
            "x := vector.pipeline(a, 1);",                           // no shape
            "x := vector.pipeline[<@0](a, 1);",                      // no sink
            "x := vector.pipeline[<@0; total@0](a, 1);",             // unknown aggregate
            "x := vector.pipeline[~@0; count](a, 1);",               // unknown comparison
            "x := vector.pipeline[<@a; count](a, 1);",               // column is not a number
            "x := vector.pipeline[<@0; rows@1: count](a, b, 1);",    // not `group` or `top`
            "x := vector.pipeline[<@0; top.asc@0: col@0](a, 1, 2);", // `top` is ascending
            "x := vector.pipeline[<@0; col](a, 1);",                 // a column needs its index
            "x := vector.pipeline[<@0; count(a, 1);",                // unterminated
        ] {
            assert!(parse_program(bad).is_err(), "{bad}");
        }
    }

    /// Every operation the printer names parses back to itself: each
    /// comparison, inclusivity, aggregate, operator and direction, and each
    /// pipeline sink form.
    #[test]
    fn every_operation_roundtrips() {
        for op in OpCode::every() {
            let mut p = Program::new();
            let x = p.var();
            p.push(op.clone(), vec![Arg::Var(x), Arg::Const(Value::I32(1))]);
            let text = p.to_string();
            let back = parse_program(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back.instrs[0].op, op, "{text}");
            assert_eq!(back.instrs[0].args, p.instrs[0].args, "{text}");
        }
    }

    /// A string constant prints with the escapes the lexer reads back.
    #[test]
    fn string_constants_roundtrip() {
        for s in [
            "a\"b",
            "a\\b",
            "tab\there",
            "new\nline",
            "s\u{e9}rie",
            "\u{301}\0",
        ] {
            let mut p = Program::new();
            let x = p.var();
            let c = Arg::Const(Value::Str(s.into()));
            p.push(OpCode::SetProps, vec![Arg::Var(x), c.clone()]);
            let text = p.to_string();
            let back = parse_program(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back.instrs[0].args[1], c, "{text}");
        }
        assert!(parse_program(r#"x := bat.setprops(y, "a\qb");"#).is_err());
    }

    /// Every corpus plan meant to be refused, with the stage that refuses
    /// it and where: the parse, the verifier (instruction and error kind,
    /// its `detail` text left out) or the property analysis.
    #[test]
    fn corpus_rejections_are_pinned() {
        use crate::analysis::{props, verify, VerifyErrorKind as K};
        #[derive(Debug, PartialEq)]
        enum Refused {
            Parse(String),
            Verify(usize, K),
            Props(usize),
        }
        let blank = |k: K| match k {
            K::TypeMismatch { arg, .. } => K::TypeMismatch {
                arg,
                detail: String::new(),
            },
            K::Unaligned { arg, .. } => K::Unaligned {
                arg,
                detail: String::new(),
            },
            k => k,
        };
        let (kind, ty, unaligned) = (
            |arg, expected, found| K::KindMismatch {
                arg,
                expected,
                found,
            },
            |arg| K::TypeMismatch {
                arg,
                detail: String::new(),
            },
            |arg| K::Unaligned {
                arg,
                detail: String::new(),
            },
        );
        let count = |expected, got| K::BadArgCount { expected, got };
        let cases = [
            ("bad_arity", Refused::Verify(1, count(2, 1))),
            (
                "bad_candidate_kind",
                Refused::Verify(2, kind(1, "bat", "scalar")),
            ),
            ("bad_kind", Refused::Verify(2, kind(0, "bat", "scalar"))),
            ("bad_pack_arity", Refused::Verify(1, count(1, 0))),
            ("bad_pipeline_mixed_sink", Refused::Verify(2, ty(0))),
            (
                "bad_pipeline_result_arity",
                Refused::Parse(
                    "vector.pipeline[<@0; count, sum@1] binds 2 results, 1 given".into(),
                ),
            ),
            (
                "bad_pipeline_topn_count",
                Refused::Verify(2, kind(3, "scalar", "bat")),
            ),
            ("bad_pipeline_topn_key", Refused::Verify(2, unaligned(1))),
            ("bad_pipeline_unaligned", Refused::Verify(2, unaligned(1))),
            (
                "bad_post_result",
                Refused::Verify(2, K::CodeAfterResult { result_at: 1 }),
            ),
            ("bad_props_key_join", Refused::Props(3)),
            ("bad_props_unsorted_claim", Refused::Props(1)),
            (
                "bad_shard_packsum_bat",
                Refused::Verify(2, kind(0, "scalar", "bat")),
            ),
            ("bad_slice_range", Refused::Verify(1, ty(1))),
            ("bad_type", Refused::Verify(3, ty(0))),
            (
                "bad_use_after_free",
                Refused::Verify(
                    2,
                    K::UseAfterFree {
                        var: 0,
                        freed_at: 1,
                    },
                ),
            ),
            (
                "bad_use_before_def",
                Refused::Verify(0, K::UseBeforeDef { var: 0 }),
            ),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans");
        let mut corpus: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.starts_with("bad_"))
            .map(|f| f.trim_end_matches(".mal").to_string())
            .collect();
        corpus.sort();
        let named: Vec<&str> = cases.iter().map(|(f, _)| *f).collect();
        assert_eq!(corpus, named, "one case per bad_*.mal");
        for (file, expected) in cases {
            let src = std::fs::read_to_string(format!("{dir}/{file}.mal")).unwrap();
            let refused = match parse_program(&src) {
                Err(Error::Parse { message, .. }) => Refused::Parse(message),
                Err(e) => panic!("{file}: {e}"),
                Ok(p) => match (verify(&p), props::analyze(&p)) {
                    (Err(e), _) => Refused::Verify(e.instr.unwrap(), blank(e.kind)),
                    (Ok(()), Err(e)) => Refused::Props(e.instr),
                    (Ok(()), Ok(_)) => panic!("{file} is accepted"),
                },
            };
            assert_eq!(refused, expected, "{file}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_program("x := unknown.fn(y);").is_err());
        assert!(parse_program("x := sql.bind(\"unterminated;").is_err());
        assert!(parse_program("x := algebra.thetaselect(a, 1);").is_err());
        assert!(parse_program("(a) := algebra.join(x, y);").is_err()); // arity
        assert!(parse_program("x := sql.bind(\"t\", \"c\")").is_err()); // no ;
    }

    #[test]
    fn parses_language_pass() {
        let src = r#"
            a := sql.bind("t", "a");
            c := algebra.thetaselect[>](a, 5);
            language.pass(a);
            io.result(c);
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.instrs[2].op, OpCode::Free);
        assert!(p.instrs[2].results.is_empty());
        assert_eq!(p.instrs[2].args, vec![Arg::Var(p.instrs[0].results[0])]);
        // round-trips through Display
        let p2 = parse_program(&p.to_string()).unwrap();
        assert_eq!(p2.instrs[2].op, OpCode::Free);
    }

    #[test]
    fn literals() {
        let p =
            parse_program("x := algebra.select(y, nil, 3000000000, true, true);\nio.result(x);")
                .unwrap();
        assert_eq!(p.instrs[0].args[1], Arg::Const(Value::Null));
        assert_eq!(p.instrs[0].args[2], Arg::Const(Value::I64(3000000000)));
    }
}
