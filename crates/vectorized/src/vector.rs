//! Borrowed columns for the vectorized engine.
//!
//! Source data lives wherever it already is — a BAT's tail heap, a `Vec` —
//! and the engine borrows it: a [`Column`] is a typed slice, a
//! [`ColumnSet`] a few of them of one length, and execution only ever sees
//! `vector_size`-long windows (sub-slices) of them. Nothing is copied on
//! the way in. The one exception is a [`Column::Packed`] column, whose
//! blocks a run decodes into scratch space of its own.

use mammoth_compression::Compressed;
use mammoth_storage::{Bat, TailHeap};
use mammoth_types::{Error, LogicalType, Oid, Result};

/// A source column: a typed slice borrowed from its owner.
#[derive(Debug, Clone, Copy)]
pub enum Column<'a> {
    Bool(&'a [bool]),
    I8(&'a [i8]),
    I16(&'a [i16]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    F64(&'a [f64]),
    Oid(&'a [Oid]),
    /// A compressed `i64` column of `len` values.
    Packed {
        data: &'a Compressed,
        len: usize,
    },
}

/// Evaluate `$body` with `$data` bound to the typed slice of a fixed-width
/// [`Column`], monomorphized per type; `$other` is what a column with no
/// slice of its own (still packed) evaluates to.
macro_rules! with_slice {
    ($col:expr, |$data:ident| $body:expr, else $other:expr) => {
        match $col {
            $crate::vector::Column::Bool($data) => $body,
            $crate::vector::Column::I8($data) => $body,
            $crate::vector::Column::I16($data) => $body,
            $crate::vector::Column::I32($data) => $body,
            $crate::vector::Column::I64($data) => $body,
            $crate::vector::Column::F64($data) => $body,
            $crate::vector::Column::Oid($data) => $body,
            $crate::vector::Column::Packed { .. } => $other,
        }
    };
}
pub(crate) use with_slice;

impl<'a> Column<'a> {
    /// Borrow a BAT's tail. String tails have no fixed-width slice.
    pub fn of(bat: &'a Bat) -> Result<Column<'a>> {
        Ok(match bat.tail() {
            TailHeap::Bool(v) => Column::Bool(v),
            TailHeap::I8(v) => Column::I8(v),
            TailHeap::I16(v) => Column::I16(v),
            TailHeap::I32(v) => Column::I32(v),
            TailHeap::I64(v) => Column::I64(v),
            TailHeap::F64(v) => Column::F64(v),
            TailHeap::Oid(v) => Column::Oid(v),
            TailHeap::Str(_) => {
                return Err(Error::Unsupported(
                    "vectorized execution over str columns".into(),
                ))
            }
        })
    }

    pub fn len(&self) -> usize {
        if let Column::Packed { len, .. } = *self {
            return len;
        }
        with_slice!(*self, |v| v.len(), else unreachable!("returned above"))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ty(&self) -> LogicalType {
        match self {
            Column::Bool(_) => LogicalType::Bool,
            Column::I8(_) => LogicalType::I8,
            Column::I16(_) => LogicalType::I16,
            Column::I32(_) => LogicalType::I32,
            Column::I64(_) | Column::Packed { .. } => LogicalType::I64,
            Column::F64(_) => LogicalType::F64,
            Column::Oid(_) => LogicalType::Oid,
        }
    }

    /// Rows `[start, start + len)`: the vector a window exposes, or the
    /// part of a longer column a caller wants scanned. `None` when the
    /// column does not hold those rows, or is packed (a run decodes packed
    /// columns before it cuts its windows).
    pub fn slice(&self, start: usize, len: usize) -> Option<Column<'a>> {
        let rows = start..start.checked_add(len)?;
        Some(match *self {
            Column::Bool(v) => Column::Bool(v.get(rows)?),
            Column::I8(v) => Column::I8(v.get(rows)?),
            Column::I16(v) => Column::I16(v.get(rows)?),
            Column::I32(v) => Column::I32(v.get(rows)?),
            Column::I64(v) => Column::I64(v.get(rows)?),
            Column::F64(v) => Column::F64(v.get(rows)?),
            Column::Oid(v) => Column::Oid(v.get(rows)?),
            Column::Packed { .. } => return None,
        })
    }

    /// [`Column::slice`] for the driver, which decodes before it windows
    /// and never leaves the column.
    pub(crate) fn window(&self, start: usize, len: usize) -> Column<'a> {
        self.slice(start, len)
            .expect("a window lies inside its decoded column")
    }
}

/// A set of equally long columns — the vectorized engine's "table".
#[derive(Debug, Clone, Default)]
pub struct ColumnSet<'a> {
    columns: Vec<Column<'a>>,
}

impl<'a> ColumnSet<'a> {
    pub fn new(columns: Vec<Column<'a>>) -> Result<ColumnSet<'a>> {
        if let Some(first) = columns.first() {
            let n = first.len();
            for c in &columns {
                if c.len() != n {
                    return Err(Error::LengthMismatch {
                        left: c.len(),
                        right: n,
                    });
                }
            }
        }
        Ok(ColumnSet { columns })
    }

    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> Option<&Column<'a>> {
        self.columns.get(i)
    }

    pub(crate) fn columns(&self) -> &[Column<'a>] {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_set_validates_lengths() {
        let (a, b) = ([1i64, 2, 3], [0.1f64, 0.2, 0.3]);
        assert!(ColumnSet::new(vec![Column::I64(&a), Column::F64(&b)]).is_ok());
        assert!(ColumnSet::new(vec![Column::I64(&a[..1]), Column::I64(&a)]).is_err());
    }

    #[test]
    fn windows_are_sub_slices_of_the_borrowed_data() {
        let data: Vec<i64> = (0..100).collect();
        let Some(Column::I64(w)) = Column::I64(&data).slice(10, 5) else {
            panic!("a slice keeps its column's type");
        };
        assert_eq!(w, &[10, 11, 12, 13, 14]);
        assert!(std::ptr::eq(w.as_ptr(), data[10..].as_ptr()));
        assert!(Column::I64(&data).slice(98, 5).is_none());
    }

    #[test]
    fn bat_tails_are_borrowed_by_type() {
        let b = Bat::from_vec(vec![1i32, 2, 3]);
        let c = Column::of(&b).unwrap();
        assert_eq!((c.len(), c.ty()), (3, LogicalType::I32));
        let s = Bat::from_strings([Some("x")]);
        assert!(Column::of(&s).is_err());
    }
}
