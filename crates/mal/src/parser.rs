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
    Arg, FilterTest, Instr, OpCode, PipelineFilter, PipelineOut, PipelineSink, PipelineSpec,
    Program,
};
use mammoth_algebra::{AggKind, ArithOp, CmpOp};
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
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos] != b'"' {
                    self.pos += 1;
                }
                if self.pos >= self.src.len() {
                    return Err(self.err("unterminated string"));
                }
                let s = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid utf8"))?
                    .to_string();
                self.pos += 1;
                Ok(Tok::Str(s))
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
            // operator names inside thetaselect brackets: ==, !=, <, <=, >, >=
            b'=' | b'!' | b'<' | b'>' | b'+' | b'*' | b'/' | b'%' => {
                let start = self.pos;
                self.pos += 1;
                while self.pos < self.src.len() && matches!(self.src[self.pos], b'=' | b'<' | b'>')
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

    fn peek(&mut self) -> Result<Tok> {
        let save = self.pos;
        let t = self.next();
        self.pos = save;
        t
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

fn cmp_from(s: &str) -> Option<CmpOp> {
    Some(match s {
        "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

fn arith_from(s: &str) -> Option<ArithOp> {
    Some(match s {
        "+" => ArithOp::Add,
        "-" => ArithOp::Sub,
        "*" => ArithOp::Mul,
        "/" => ArithOp::Div,
        "%" => ArithOp::Mod,
        _ => return None,
    })
}

fn agg_from(s: &str) -> Option<AggKind> {
    Some(match s {
        "sum" => AggKind::Sum,
        "min" => AggKind::Min,
        "max" => AggKind::Max,
        "avg" => AggKind::Avg,
        "count_nonnil" => AggKind::Count,
        _ => return None,
    })
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
        op => FilterTest::Theta(cmp_from(op)?),
    };
    Some(PipelineFilter { col, test })
}

fn pipeline_out_from(item: &str) -> Option<PipelineOut> {
    match item.trim() {
        "key" => Some(PipelineOut::Key),
        "count" => Some(PipelineOut::Count),
        item => match at_column(item)? {
            ("col", col) => Some(PipelineOut::Col(col)),
            (name, col) => Some(PipelineOut::Agg(agg_from(name)?, col)),
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
        let tok = lex.next()?;
        match tok {
            Tok::Eof => break,
            Tok::Ident(first) => {
                parse_stmt(&mut lex, &mut prog, &mut names, Tok::Ident(first))?;
            }
            Tok::Sym('(') => {
                parse_stmt(&mut lex, &mut prog, &mut names, Tok::Sym('('))?;
            }
            other => {
                return Err(Error::Parse {
                    pos: 0,
                    message: format!("unexpected token {other:?}"),
                })
            }
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
    // targets
    let mut targets: Vec<String> = Vec::new();
    #[allow(unused_assignments)]
    let mut call_name: Option<String> = None;
    match first {
        Tok::Sym('(') => {
            loop {
                match lex.next()? {
                    Tok::Ident(n) => targets.push(n),
                    t => return Err(lex.err_at(format!("expected target name, got {t:?}"))),
                }
                match lex.next()? {
                    Tok::Sym(',') => continue,
                    Tok::Sym(')') => break,
                    t => return Err(lex.err_at(format!("expected ',' or ')', got {t:?}"))),
                }
            }
            match lex.next()? {
                Tok::Assign => {}
                t => return Err(lex.err_at(format!("expected ':=', got {t:?}"))),
            }
            match lex.next()? {
                Tok::Ident(f) => call_name = Some(f),
                t => return Err(lex.err_at(format!("expected function, got {t:?}"))),
            }
        }
        Tok::Ident(name) => {
            // either `name := call` or a bare call like io.result(...)
            if name.contains('.') {
                call_name = Some(name);
            } else {
                targets.push(name);
                match lex.next()? {
                    Tok::Assign => {}
                    t => return Err(lex.err_at(format!("expected ':=', got {t:?}"))),
                }
                match lex.next()? {
                    Tok::Ident(f) => call_name = Some(f),
                    t => return Err(lex.err_at(format!("expected function, got {t:?}"))),
                }
            }
        }
        t => return Err(lex.err_at(format!("unexpected {t:?}"))),
    }
    let mut fname = call_name.expect("set above");
    // symbol-named functions lex as `batcalc.` followed by the operator
    if fname.ends_with('.') {
        match lex.next()? {
            Tok::Ident(op) => fname.push_str(&op),
            t => return Err(lex.err_at(format!("expected operator after '{fname}', got {t:?}"))),
        }
    }

    // optional [op] suffix: an operator, `desc`, or a pipeline's shape
    let mut bracket_op: Option<String> = None;
    if lex.peek()? == Tok::Sym('[') {
        lex.next()?;
        bracket_op = Some(lex.bracket_text()?);
    }

    // argument list
    match lex.next()? {
        Tok::Sym('(') => {}
        t => return Err(lex.err_at(format!("expected '(', got {t:?}"))),
    }
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
                    t => return Err(lex.err_at(format!("expected parameter index, got {t:?}"))),
                },
                t => return Err(lex.err_at(format!("bad argument {t:?}"))),
            };
            args.push(a);
            match lex.next()? {
                Tok::Sym(',') => continue,
                Tok::Sym(')') => break,
                t => return Err(lex.err_at(format!("expected ',' or ')', got {t:?}"))),
            }
        }
    }
    match lex.next()? {
        Tok::Sym(';') => {}
        t => return Err(lex.err_at(format!("expected ';', got {t:?}"))),
    }

    // resolve the opcode
    let op = match fname.as_str() {
        "sql.bind" => OpCode::Bind,
        "algebra.thetaselect" => {
            let op = bracket_op
                .as_deref()
                .and_then(cmp_from)
                .ok_or_else(|| lex.err_at("thetaselect needs [op]".to_string()))?;
            OpCode::ThetaSelect(op)
        }
        "algebra.select" => {
            // last two args are the inclusivity booleans
            let hi_incl = pop_bool(&mut args).ok_or_else(|| {
                lex.err_at("algebra.select needs inclusivity booleans".to_string())
            })?;
            let lo_incl = pop_bool(&mut args).ok_or_else(|| {
                lex.err_at("algebra.select needs inclusivity booleans".to_string())
            })?;
            OpCode::RangeSelect { lo_incl, hi_incl }
        }
        "algebra.projection" => OpCode::Projection,
        "algebra.join" => OpCode::Join,
        "group.group" => OpCode::Group,
        "group.refine" => OpCode::GroupRefine,
        "algebra.sort" => OpCode::Sort {
            desc: bracket_op.as_deref() == Some("desc"),
        },
        "algebra.firstn" => OpCode::FirstN {
            desc: bracket_op.as_deref() == Some("desc"),
        },
        "bat.slice" => OpCode::Slice,
        "algebra.slice" => OpCode::PartSlice,
        "mat.pack" => OpCode::Pack,
        "mat.packsum" => OpCode::PackSum,
        "bat.mirror" => OpCode::Mirror,
        "bat.setprops" => OpCode::SetProps,
        "aggr.count" => OpCode::Count,
        "io.result" => OpCode::Result,
        "language.pass" => OpCode::Free,
        "vector.pipeline" => {
            let spec = bracket_op
                .as_deref()
                .and_then(pipeline_spec_from)
                .ok_or_else(|| lex.err_at("vector.pipeline needs [filters; outs]".to_string()))?;
            OpCode::Pipeline(Arc::new(spec))
        }
        name if name.starts_with("aggr.sub") => {
            let k = agg_from(&name["aggr.sub".len()..])
                .ok_or_else(|| lex.err_at(format!("unknown aggregate {name}")))?;
            OpCode::AggrGrouped(k)
        }
        name if name.starts_with("aggr.") => {
            let k = agg_from(&name["aggr.".len()..])
                .ok_or_else(|| lex.err_at(format!("unknown aggregate {name}")))?;
            OpCode::Aggr(k)
        }
        "batcalc" => {
            let op = bracket_op
                .as_deref()
                .and_then(arith_from)
                .ok_or_else(|| lex.err_at("batcalc needs [op]".to_string()))?;
            OpCode::Calc(op)
        }
        other => {
            // batcalc.+ parses as ident "batcalc." followed by op token;
            // accept the dotted form too
            if let Some(rest) = other.strip_prefix("batcalc.") {
                if let Some(op) = arith_from(rest) {
                    OpCode::Calc(op)
                } else {
                    return Err(lex.err_at(format!("unknown function {other}")));
                }
            } else {
                return Err(lex.err_at(format!("unknown function {other}")));
            }
        }
    };

    if op.result_arity() != targets.len() {
        return Err(lex.err_at(format!(
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

fn pop_bool(args: &mut Vec<Arg>) -> Option<bool> {
    match args.pop()? {
        Arg::Const(Value::Bool(b)) => Some(b),
        _ => None,
    }
}

impl Lexer<'_> {
    fn err_at(&self, message: String) -> Error {
        Error::Parse {
            pos: self.pos,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(p.outputs().len(), 1);
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
