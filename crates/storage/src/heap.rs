//! Tail heaps: the typed memory arrays that hold column values.
//!
//! "BAT storage takes the form of two simple memory arrays" (§3). A
//! [`TailHeap`] is that array for the tail column, with one enum variant per
//! physical type. The BAT Algebra gets at the raw `&[T]` slices through
//! [`FixedTail`], so operator inner loops compile down to tight loops over
//! native arrays — the zero-degrees-of-freedom design the paper credits for
//! eliminating interpretation overhead.

use crate::strheap::StrHeap;
use mammoth_types::{Error, LogicalType, NativeType, Oid, Result, Value};
use std::ops::Range;

/// A typed column heap.
#[derive(Debug, Clone)]
pub enum TailHeap {
    Bool(Vec<bool>),
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Oid(Vec<Oid>),
    Str(StrHeap),
}

/// Fixed-width native types that can view a [`TailHeap`] as a typed slice.
///
/// This is the static bridge used by bulk operators: generic code over
/// `T: FixedTail` monomorphizes to per-type tight loops.
pub trait FixedTail: NativeType {
    fn slice(heap: &TailHeap) -> Option<&[Self]>;
    fn vec_mut(heap: &mut TailHeap) -> Option<&mut Vec<Self>>;
    fn into_heap(v: Vec<Self>) -> TailHeap;
}

macro_rules! impl_fixed_tail {
    ($t:ty, $variant:ident) => {
        impl FixedTail for $t {
            fn slice(heap: &TailHeap) -> Option<&[Self]> {
                match heap {
                    TailHeap::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn vec_mut(heap: &mut TailHeap) -> Option<&mut Vec<Self>> {
                match heap {
                    TailHeap::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn into_heap(v: Vec<Self>) -> TailHeap {
                TailHeap::$variant(v)
            }
        }
    };
}

impl_fixed_tail!(bool, Bool);
impl_fixed_tail!(i8, I8);
impl_fixed_tail!(i16, I16);
impl_fixed_tail!(i32, I32);
impl_fixed_tail!(i64, I64);
impl_fixed_tail!(f64, F64);
impl_fixed_tail!(Oid, Oid);

impl TailHeap {
    /// An empty heap of logical type `ty`.
    pub fn new(ty: LogicalType) -> TailHeap {
        match ty {
            LogicalType::Bool => TailHeap::Bool(Vec::new()),
            LogicalType::I8 => TailHeap::I8(Vec::new()),
            LogicalType::I16 => TailHeap::I16(Vec::new()),
            LogicalType::I32 => TailHeap::I32(Vec::new()),
            LogicalType::I64 => TailHeap::I64(Vec::new()),
            LogicalType::F64 => TailHeap::F64(Vec::new()),
            LogicalType::Oid => TailHeap::Oid(Vec::new()),
            LogicalType::Str => TailHeap::Str(StrHeap::new()),
        }
    }

    /// An empty heap with row capacity pre-reserved.
    pub fn with_capacity(ty: LogicalType, rows: usize) -> TailHeap {
        match ty {
            LogicalType::Bool => TailHeap::Bool(Vec::with_capacity(rows)),
            LogicalType::I8 => TailHeap::I8(Vec::with_capacity(rows)),
            LogicalType::I16 => TailHeap::I16(Vec::with_capacity(rows)),
            LogicalType::I32 => TailHeap::I32(Vec::with_capacity(rows)),
            LogicalType::I64 => TailHeap::I64(Vec::with_capacity(rows)),
            LogicalType::F64 => TailHeap::F64(Vec::with_capacity(rows)),
            LogicalType::Oid => TailHeap::Oid(Vec::with_capacity(rows)),
            LogicalType::Str => TailHeap::Str(StrHeap::with_capacity(rows)),
        }
    }

    /// Build a heap from a vector of fixed-width values.
    pub fn from_vec<T: FixedTail>(v: Vec<T>) -> TailHeap {
        T::into_heap(v)
    }

    /// Build a string heap from anything yielding string options.
    pub fn from_strings<'a, I: IntoIterator<Item = Option<&'a str>>>(it: I) -> TailHeap {
        let mut h = StrHeap::new();
        for s in it {
            match s {
                Some(s) => {
                    h.push(s);
                }
                None => {
                    h.push_nil();
                }
            }
        }
        TailHeap::Str(h)
    }

    pub fn ty(&self) -> LogicalType {
        match self {
            TailHeap::Bool(_) => LogicalType::Bool,
            TailHeap::I8(_) => LogicalType::I8,
            TailHeap::I16(_) => LogicalType::I16,
            TailHeap::I32(_) => LogicalType::I32,
            TailHeap::I64(_) => LogicalType::I64,
            TailHeap::F64(_) => LogicalType::F64,
            TailHeap::Oid(_) => LogicalType::Oid,
            TailHeap::Str(_) => LogicalType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            TailHeap::Bool(v) => v.len(),
            TailHeap::I8(v) => v.len(),
            TailHeap::I16(v) => v.len(),
            TailHeap::I32(v) => v.len(),
            TailHeap::I64(v) => v.len(),
            TailHeap::F64(v) => v.len(),
            TailHeap::Oid(v) => v.len(),
            TailHeap::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Typed read-only view; `None` when `T` does not match the heap type.
    pub fn as_slice<T: FixedTail>(&self) -> Option<&[T]> {
        T::slice(self)
    }

    /// Typed mutable vector; `None` when `T` does not match the heap type.
    pub fn as_vec_mut<T: FixedTail>(&mut self) -> Option<&mut Vec<T>> {
        T::vec_mut(self)
    }

    /// The string heap, when this is a string column.
    pub fn as_str_heap(&self) -> Option<&StrHeap> {
        match self {
            TailHeap::Str(h) => Some(h),
            _ => None,
        }
    }

    pub fn as_str_heap_mut(&mut self) -> Option<&mut StrHeap> {
        match self {
            TailHeap::Str(h) => Some(h),
            _ => None,
        }
    }

    /// Dynamic read of row `i` (slow path: result rendering, constants).
    pub fn value(&self, i: usize) -> Value {
        match self {
            TailHeap::Bool(v) => v[i].to_value(),
            TailHeap::I8(v) => v[i].to_value(),
            TailHeap::I16(v) => v[i].to_value(),
            TailHeap::I32(v) => v[i].to_value(),
            TailHeap::I64(v) => v[i].to_value(),
            TailHeap::F64(v) => v[i].to_value(),
            TailHeap::Oid(v) => v[i].to_value(),
            TailHeap::Str(h) => match h.get(i) {
                Some(s) => Value::Str(s.to_string()),
                None => Value::Null,
            },
        }
    }

    /// Checked dynamic read.
    pub fn try_value(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(Error::OutOfRange {
                index: i as u64,
                len: self.len() as u64,
            });
        }
        Ok(self.value(i))
    }

    /// Dynamic append with coercion; the slow path used by DML.
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        let ty = self.ty();
        match self {
            TailHeap::Str(h) => match v {
                Value::Null => {
                    h.push_nil();
                    Ok(())
                }
                Value::Str(s) => {
                    h.push(s);
                    Ok(())
                }
                other => Err(Error::TypeMismatch {
                    expected: "string".into(),
                    found: format!("{other:?}"),
                }),
            },
            _ => {
                let coerced = v.coerce(ty).ok_or_else(|| Error::TypeMismatch {
                    expected: ty.name().into(),
                    found: format!("{v:?}"),
                })?;
                match self {
                    TailHeap::Bool(vec) => vec.push(bool::from_value(&coerced).ok_or_else(
                        || Error::TypeMismatch {
                            expected: "bool".into(),
                            found: format!("{coerced:?}"),
                        },
                    )?),
                    TailHeap::I8(vec) => vec.push(i8::from_value(&coerced).unwrap_or(i8::NIL)),
                    TailHeap::I16(vec) => vec.push(i16::from_value(&coerced).unwrap_or(i16::NIL)),
                    TailHeap::I32(vec) => vec.push(i32::from_value(&coerced).unwrap_or(i32::NIL)),
                    TailHeap::I64(vec) => vec.push(i64::from_value(&coerced).unwrap_or(i64::NIL)),
                    TailHeap::F64(vec) => vec.push(f64::from_value(&coerced).unwrap_or(f64::NIL)),
                    TailHeap::Oid(vec) => vec.push(Oid::from_value(&coerced).unwrap_or(Oid::NIL)),
                    TailHeap::Str(_) => unreachable!(),
                }
                Ok(())
            }
        }
    }

    /// True when row `i` holds the nil sentinel.
    pub fn is_nil(&self, i: usize) -> bool {
        match self {
            TailHeap::Bool(_) => false,
            TailHeap::I8(v) => v[i].is_nil(),
            TailHeap::I16(v) => v[i].is_nil(),
            TailHeap::I32(v) => v[i].is_nil(),
            TailHeap::I64(v) => v[i].is_nil(),
            TailHeap::F64(v) => v[i].is_nil(),
            TailHeap::Oid(v) => v[i].is_nil(),
            TailHeap::Str(h) => h.get(i).is_none(),
        }
    }

    /// Gather rows at `positions` into a new heap of the same type.
    ///
    /// This is the *positional projection* primitive: with a void head, the
    /// oids of a join index are exactly these positions.
    pub fn take(&self, positions: &[usize]) -> TailHeap {
        fn gather<T: FixedTail>(src: &[T], pos: &[usize]) -> TailHeap {
            let mut out = Vec::with_capacity(pos.len());
            for &p in pos {
                out.push(src[p]);
            }
            T::into_heap(out)
        }
        match self {
            TailHeap::Bool(v) => gather(v, positions),
            TailHeap::I8(v) => gather(v, positions),
            TailHeap::I16(v) => gather(v, positions),
            TailHeap::I32(v) => gather(v, positions),
            TailHeap::I64(v) => gather(v, positions),
            TailHeap::F64(v) => gather(v, positions),
            TailHeap::Oid(v) => gather(v, positions),
            TailHeap::Str(h) => TailHeap::Str(h.take(positions)),
        }
    }

    /// Append all rows of `other`; errors on type mismatch.
    pub fn extend_from(&mut self, other: &TailHeap) -> Result<()> {
        self.extend_from_runs(other, std::slice::from_ref(&(0..other.len())))
    }

    /// Append the rows of `other` that `runs` name (ascending, in range),
    /// run by run: a slice copy per run for fixed-width types, offsets and
    /// first-seen payloads for strings. Errors on type mismatch.
    pub fn extend_from_runs(&mut self, other: &TailHeap, runs: &[Range<usize>]) -> Result<()> {
        fn copy<T: Copy>(out: &mut Vec<T>, src: &[T], runs: &[Range<usize>]) {
            for r in runs {
                out.extend_from_slice(&src[r.clone()]);
            }
        }
        match (self, other) {
            (TailHeap::Bool(a), TailHeap::Bool(b)) => copy(a, b, runs),
            (TailHeap::I8(a), TailHeap::I8(b)) => copy(a, b, runs),
            (TailHeap::I16(a), TailHeap::I16(b)) => copy(a, b, runs),
            (TailHeap::I32(a), TailHeap::I32(b)) => copy(a, b, runs),
            (TailHeap::I64(a), TailHeap::I64(b)) => copy(a, b, runs),
            (TailHeap::F64(a), TailHeap::F64(b)) => copy(a, b, runs),
            (TailHeap::Oid(a), TailHeap::Oid(b)) => copy(a, b, runs),
            (TailHeap::Str(a), TailHeap::Str(b)) => a.extend_from_runs(b, runs),
            (a, b) => {
                return Err(Error::TypeMismatch {
                    expected: a.ty().name().into(),
                    found: b.ty().name().into(),
                })
            }
        }
        Ok(())
    }

    /// A contiguous sub-range `[from, to)` as a new heap.
    pub fn slice_range(&self, from: usize, to: usize) -> TailHeap {
        fn cut<T: FixedTail>(src: &[T], from: usize, to: usize) -> TailHeap {
            T::into_heap(src[from..to].to_vec())
        }
        match self {
            TailHeap::Bool(v) => cut(v, from, to),
            TailHeap::I8(v) => cut(v, from, to),
            TailHeap::I16(v) => cut(v, from, to),
            TailHeap::I32(v) => cut(v, from, to),
            TailHeap::I64(v) => cut(v, from, to),
            TailHeap::F64(v) => cut(v, from, to),
            TailHeap::Oid(v) => cut(v, from, to),
            TailHeap::Str(h) => TailHeap::Str(h.take(&(from..to).collect::<Vec<_>>())),
        }
    }

    /// Approximate resident bytes, for buffer accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            TailHeap::Bool(v) => v.len(),
            TailHeap::I8(v) => v.len(),
            TailHeap::I16(v) => v.len() * 2,
            TailHeap::I32(v) => v.len() * 4,
            TailHeap::I64(v) => v.len() * 8,
            TailHeap::F64(v) => v.len() * 8,
            TailHeap::Oid(v) => v.len() * 8,
            TailHeap::Str(h) => h.len() * 8 + h.blob_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_views() {
        let h = TailHeap::from_vec(vec![1i32, 2, 3]);
        assert_eq!(h.ty(), LogicalType::I32);
        assert_eq!(h.as_slice::<i32>(), Some(&[1, 2, 3][..]));
        assert_eq!(h.as_slice::<i64>(), None);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn dynamic_push_and_read() {
        let mut h = TailHeap::new(LogicalType::I32);
        h.push_value(&Value::I32(7)).unwrap();
        h.push_value(&Value::Null).unwrap();
        h.push_value(&Value::I64(9)).unwrap(); // coerces
        assert_eq!(h.value(0), Value::I32(7));
        assert_eq!(h.value(1), Value::Null);
        assert_eq!(h.value(2), Value::I32(9));
        assert!(h.is_nil(1));
        assert!(!h.is_nil(0));
        assert!(h.push_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn string_heap_pushes() {
        let mut h = TailHeap::new(LogicalType::Str);
        h.push_value(&Value::Str("a".into())).unwrap();
        h.push_value(&Value::Null).unwrap();
        assert_eq!(h.value(0), Value::Str("a".into()));
        assert_eq!(h.value(1), Value::Null);
        assert!(h.push_value(&Value::I32(0)).is_err());
    }

    #[test]
    fn take_and_slice() {
        let h = TailHeap::from_vec(vec![10i64, 20, 30, 40]);
        let t = h.take(&[3, 0, 3]);
        assert_eq!(t.as_slice::<i64>(), Some(&[40, 10, 40][..]));
        let s = h.slice_range(1, 3);
        assert_eq!(s.as_slice::<i64>(), Some(&[20, 30][..]));
    }

    #[test]
    fn extend_type_checked() {
        let mut a = TailHeap::from_vec(vec![1i32]);
        let b = TailHeap::from_vec(vec![2i32, 3]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.as_slice::<i32>(), Some(&[1, 2, 3][..]));
        let c = TailHeap::from_vec(vec![1i64]);
        assert!(a.extend_from(&c).is_err());
    }

    #[test]
    fn try_value_bounds() {
        let h = TailHeap::from_vec(vec![1i32]);
        assert!(h.try_value(0).is_ok());
        assert!(matches!(
            h.try_value(5),
            Err(Error::OutOfRange { index: 5, len: 1 })
        ));
    }

    #[test]
    fn byte_size_accounts_blob() {
        let mut h = TailHeap::new(LogicalType::Str);
        h.push_value(&Value::Str("abcd".into())).unwrap();
        assert_eq!(h.byte_size(), 8 + 4 + 4);
        let f = TailHeap::from_vec(vec![0f64; 10]);
        assert_eq!(f.byte_size(), 80);
    }
}
