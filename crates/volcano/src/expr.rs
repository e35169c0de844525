//! The per-tuple expression interpreter.
//!
//! §3: "the RDBMS must include some expression interpreter in the critical
//! runtime code-path" of Select and Join. This is it: a recursive tree walk
//! executed once per tuple, allocating `Value`s as it goes. The BAT Algebra
//! exists to *not* do this; keeping the interpreter honest is what makes
//! experiment E08 meaningful.

use mammoth_types::{Error, Result, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// An expression tree evaluated per tuple.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    Const(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// SQL `x IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }

    pub fn arith(op: ArithOp, l: Expr, r: Expr) -> Expr {
        Expr::Arith(op, Box::new(l), Box::new(r))
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::And(Box::new(l), Box::new(r))
    }

    /// Evaluate against one tuple. SQL three-valued logic: NULL comparisons
    /// yield NULL, which [`Expr::eval_pred`] treats as false.
    pub(crate) fn eval(&self, tuple: &[Value]) -> Result<Value> {
        Ok(match self {
            Expr::Col(i) => tuple.get(*i).cloned().ok_or(Error::OutOfRange {
                index: *i as u64,
                len: tuple.len() as u64,
            })?,
            Expr::Const(v) => v.clone(),
            Expr::Cmp(op, l, r) => {
                let (a, b) = (l.eval(tuple)?, r.eval(tuple)?);
                match a.sql_cmp(&b) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                        CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    }),
                }
            }
            Expr::Arith(op, l, r) => {
                let (a, b) = (l.eval(tuple)?, r.eval(tuple)?);
                if a.is_null() || b.is_null() {
                    return Ok(Value::Null);
                }
                // integer arithmetic when both sides are integral
                match (a.as_i64(), b.as_i64(), a.logical_type(), b.logical_type()) {
                    (Some(x), Some(y), Some(ta), Some(tb))
                        if ta != mammoth_types::LogicalType::F64
                            && tb != mammoth_types::LogicalType::F64 =>
                    {
                        Value::I64(match op {
                            ArithOp::Add => x.wrapping_add(y),
                            ArithOp::Sub => x.wrapping_sub(y),
                            ArithOp::Mul => x.wrapping_mul(y),
                            ArithOp::Div => {
                                if y == 0 {
                                    return Ok(Value::Null);
                                }
                                x.wrapping_div(y)
                            }
                        })
                    }
                    _ => {
                        let (x, y) = (
                            a.as_f64().ok_or_else(|| type_err(&a))?,
                            b.as_f64().ok_or_else(|| type_err(&b))?,
                        );
                        Value::F64(match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => x / y,
                        })
                    }
                }
            }
            Expr::And(l, r) => {
                match (l.eval(tuple)?, r.eval(tuple)?) {
                    (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
                    (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                    _ => Value::Null, // NULL-involved
                }
            }
            Expr::Or(l, r) => match (l.eval(tuple)?, r.eval(tuple)?) {
                (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            Expr::Not(e) => match e.eval(tuple)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => return Err(type_err(&other)),
            },
            Expr::IsNull(e) => Value::Bool(e.eval(tuple)?.is_null()),
        })
    }

    /// Evaluate as a predicate: NULL collapses to false.
    pub(crate) fn eval_pred(&self, tuple: &[Value]) -> Result<bool> {
        Ok(matches!(self.eval(tuple)?, Value::Bool(true)))
    }
}

fn type_err(v: &Value) -> Error {
    Error::TypeMismatch {
        expected: "numeric/bool".into(),
        found: format!("{v:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[Value]) -> Vec<Value> {
        vals.to_vec()
    }

    #[test]
    fn comparisons_and_logic() {
        let tuple = t(&[Value::I32(5), Value::Str("x".into())]);
        let e = Expr::and(
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(3)),
            Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit("x")),
        );
        assert!(e.eval_pred(&tuple).unwrap());
        let e = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(3));
        assert!(!e.eval_pred(&tuple).unwrap());
    }

    #[test]
    fn null_three_valued_logic() {
        let tuple = t(&[Value::Null, Value::Bool(true)]);
        let cmp = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(1));
        assert_eq!(cmp.eval(&tuple).unwrap(), Value::Null);
        assert!(!cmp.eval_pred(&tuple).unwrap());
        // NULL OR true = true; NULL AND true = NULL
        let or = Expr::Or(Box::new(cmp.clone()), Box::new(Expr::col(1)));
        assert_eq!(or.eval(&tuple).unwrap(), Value::Bool(true));
        let and = Expr::And(Box::new(cmp), Box::new(Expr::col(1)));
        assert_eq!(and.eval(&tuple).unwrap(), Value::Null);
        assert!(Expr::IsNull(Box::new(Expr::col(0)))
            .eval_pred(&tuple)
            .unwrap());
    }

    #[test]
    fn arithmetic() {
        let tuple = t(&[Value::I32(10), Value::F64(0.5)]);
        let e = Expr::arith(ArithOp::Mul, Expr::col(0), Expr::lit(3));
        assert_eq!(e.eval(&tuple).unwrap(), Value::I64(30));
        let e = Expr::arith(ArithOp::Mul, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&tuple).unwrap(), Value::F64(5.0));
        let e = Expr::arith(ArithOp::Div, Expr::col(0), Expr::lit(0));
        assert_eq!(e.eval(&tuple).unwrap(), Value::Null);
    }

    #[test]
    fn out_of_range_column() {
        let e = Expr::col(5);
        assert!(e.eval(&t(&[Value::I32(1)])).is_err());
    }
}
