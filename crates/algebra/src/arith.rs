//! Bulk arithmetic and comparison maps.
//!
//! Each operation is a zero-degrees-of-freedom primitive: one operator, one
//! type, one tight loop. The MAL layer strings these together instead of
//! interpreting expression trees per tuple.

use mammoth_storage::{Bat, FixedTail, TailHeap};
use mammoth_types::{Error, LogicalType, NativeType, Result, Value};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

trait ArithNative: NativeType + FixedTail {
    fn apply(op: ArithOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_arith_int {
    ($t:ty) => {
        impl ArithNative for $t {
            #[inline(always)]
            fn apply(op: ArithOp, a: Self, b: Self) -> Self {
                if a.is_nil() || b.is_nil() {
                    return Self::NIL;
                }
                match op {
                    ArithOp::Add => a.wrapping_add(b),
                    ArithOp::Sub => a.wrapping_sub(b),
                    ArithOp::Mul => a.wrapping_mul(b),
                    ArithOp::Div => {
                        if b == 0 {
                            Self::NIL
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    ArithOp::Mod => {
                        if b == 0 {
                            Self::NIL
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                }
            }
        }
    };
}

impl_arith_int!(i8);
impl_arith_int!(i16);
impl_arith_int!(i32);
impl_arith_int!(i64);

impl ArithNative for f64 {
    #[inline(always)]
    fn apply(op: ArithOp, a: Self, b: Self) -> Self {
        // NaN (nil) propagates naturally through float arithmetic
        match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        }
    }
}

fn map_binary<T: ArithNative>(op: ArithOp, a: &[T], b: &[T]) -> TailHeap {
    debug_assert_eq!(a.len(), b.len());
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        out.push(T::apply(op, a[i], b[i]));
    }
    TailHeap::from_vec(out)
}

fn map_const<T: ArithNative>(op: ArithOp, a: &[T], c: T) -> TailHeap {
    let mut out = Vec::with_capacity(a.len());
    for &x in a {
        out.push(T::apply(op, x, c));
    }
    TailHeap::from_vec(out)
}

fn coerce_bat(b: &Bat, ty: LogicalType) -> Result<Bat> {
    if b.ty() == ty {
        return Ok(b.clone());
    }
    let mut out = TailHeap::with_capacity(ty, b.len());
    for i in 0..b.len() {
        out.push_value(&b.value_at(i))
            .map_err(|_| Error::TypeMismatch {
                expected: ty.name().into(),
                found: b.ty().name().into(),
            })?;
    }
    Ok(Bat::dense(0, out))
}

/// `[op](a, b)`: element-wise arithmetic between two aligned BATs, widening
/// to the common numeric type.
pub fn arith_bat(op: ArithOp, a: &Bat, b: &Bat) -> Result<Bat> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let ty = LogicalType::widen(a.ty(), b.ty()).ok_or_else(|| Error::TypeMismatch {
        expected: "numeric".into(),
        found: format!("{} vs {}", a.ty().name(), b.ty().name()),
    })?;
    let (a, b) = (coerce_bat(a, ty)?, coerce_bat(b, ty)?);
    let heap = match ty {
        LogicalType::I8 => map_binary::<i8>(op, a.tail_slice()?, b.tail_slice()?),
        LogicalType::I16 => map_binary::<i16>(op, a.tail_slice()?, b.tail_slice()?),
        LogicalType::I32 => map_binary::<i32>(op, a.tail_slice()?, b.tail_slice()?),
        LogicalType::I64 => map_binary::<i64>(op, a.tail_slice()?, b.tail_slice()?),
        LogicalType::F64 => map_binary::<f64>(op, a.tail_slice()?, b.tail_slice()?),
        other => {
            return Err(Error::TypeMismatch {
                expected: "numeric".into(),
                found: other.name().into(),
            })
        }
    };
    Ok(Bat::dense(0, heap))
}

/// `[op](a, c)`: element-wise arithmetic against a constant.
pub fn arith_const(op: ArithOp, a: &Bat, c: &Value) -> Result<Bat> {
    let cty = c.logical_type().ok_or_else(|| Error::TypeMismatch {
        expected: "non-null constant".into(),
        found: "NULL".into(),
    })?;
    let ty = LogicalType::widen(a.ty(), cty).ok_or_else(|| Error::TypeMismatch {
        expected: "numeric".into(),
        found: format!("{} vs {}", a.ty().name(), cty.name()),
    })?;
    let a = coerce_bat(a, ty)?;
    let c = c.coerce(ty).ok_or_else(|| Error::TypeMismatch {
        expected: ty.name().into(),
        found: format!("{c:?}"),
    })?;
    let heap = match ty {
        LogicalType::I8 => map_const::<i8>(op, a.tail_slice()?, i8::from_value(&c).unwrap()),
        LogicalType::I16 => map_const::<i16>(op, a.tail_slice()?, i16::from_value(&c).unwrap()),
        LogicalType::I32 => map_const::<i32>(op, a.tail_slice()?, i32::from_value(&c).unwrap()),
        LogicalType::I64 => map_const::<i64>(op, a.tail_slice()?, i64::from_value(&c).unwrap()),
        LogicalType::F64 => map_const::<f64>(op, a.tail_slice()?, f64::from_value(&c).unwrap()),
        other => {
            return Err(Error::TypeMismatch {
                expected: "numeric".into(),
                found: other.name().into(),
            })
        }
    };
    Ok(Bat::dense(0, heap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bat_bat_arithmetic() {
        let a = Bat::from_vec(vec![1i32, 2, 3]);
        let b = Bat::from_vec(vec![10i32, 20, 30]);
        let r = arith_bat(ArithOp::Add, &a, &b).unwrap();
        assert_eq!(r.tail_slice::<i32>().unwrap(), &[11, 22, 33]);
        let r = arith_bat(ArithOp::Mul, &a, &b).unwrap();
        assert_eq!(r.tail_slice::<i32>().unwrap(), &[10, 40, 90]);
    }

    #[test]
    fn widening() {
        let a = Bat::from_vec(vec![1i32, 2]);
        let b = Bat::from_vec(vec![0.5f64, 0.25]);
        let r = arith_bat(ArithOp::Mul, &a, &b).unwrap();
        assert_eq!(r.tail_slice::<f64>().unwrap(), &[0.5, 0.5]);
        assert_eq!(r.ty(), LogicalType::F64);
    }

    #[test]
    fn nil_propagates() {
        let a = Bat::from_vec(vec![1i64, i64::NIL, 3]);
        let r = arith_const(ArithOp::Add, &a, &Value::I64(10)).unwrap();
        let s = r.tail_slice::<i64>().unwrap();
        assert_eq!(s[0], 11);
        assert!(s[1].is_nil());
        assert_eq!(s[2], 13);
    }

    #[test]
    fn division_by_zero_yields_nil() {
        let a = Bat::from_vec(vec![10i32, 20]);
        let r = arith_const(ArithOp::Div, &a, &Value::I32(0)).unwrap();
        assert!(r.tail_slice::<i32>().unwrap().iter().all(|x| x.is_nil()));
        let f = Bat::from_vec(vec![1.0f64]);
        let r = arith_const(ArithOp::Div, &f, &Value::F64(0.0)).unwrap();
        assert!(r.tail_slice::<f64>().unwrap()[0].is_infinite());
    }

    #[test]
    fn mod_and_sub() {
        let a = Bat::from_vec(vec![10i32, 21]);
        let r = arith_const(ArithOp::Mod, &a, &Value::I32(7)).unwrap();
        assert_eq!(r.tail_slice::<i32>().unwrap(), &[3, 0]);
        let r = arith_const(ArithOp::Sub, &a, &Value::I32(1)).unwrap();
        assert_eq!(r.tail_slice::<i32>().unwrap(), &[9, 20]);
    }

    #[test]
    fn errors() {
        let a = Bat::from_vec(vec![1i32]);
        let b = Bat::from_vec(vec![1i32, 2]);
        assert!(arith_bat(ArithOp::Add, &a, &b).is_err());
        let s = Bat::from_strings([Some("x")]);
        assert!(arith_bat(ArithOp::Add, &a, &s).is_err());
        assert!(arith_const(ArithOp::Add, &a, &Value::Null).is_err());
    }
}
