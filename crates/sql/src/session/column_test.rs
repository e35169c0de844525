//! A DELETE's WHERE conjunct, in the terms the select kernels take.

use mammoth_algebra::{self as alg, CmpOp};
use mammoth_storage::Bat;
use mammoth_types::{LogicalType, Result, Value};

/// One side of a [`ColumnTest::Range`]: the bound, in the column's own
/// type, and whether it is inclusive.
type Bound = Option<(Value, bool)>;

/// A DELETE predicate in the terms the typed select kernels take. They
/// want the literal in the column's own type, which SQL's comparison does
/// not promise: `i4 < 5000000000` and `i4 < 2.5` are fine predicates on an
/// INT column whose literals no INT holds.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum ColumnTest {
    /// `lo <(=) x <(=) hi`, either side possibly open. NULL never
    /// qualifies, so both sides open still means `x IS NOT NULL`.
    Range {
        lo: Bound,
        hi: Bound,
    },
    Ne(Value),
}

impl ColumnTest {
    /// `column op lit` for a column of type `ty`; `None` when no row can
    /// qualify — a comparison with NULL, or between types SQL does not
    /// order (a string against a number).
    pub(super) fn new(ty: LogicalType, op: CmpOp, lit: &Value) -> Option<ColumnTest> {
        if lit.is_null() {
            return None;
        }
        if let Some(v) = lit.coerce(ty) {
            return Some(ColumnTest::typed(op, v));
        }
        // what is left to decide is a numeric literal no value of an
        // integer column equals: move it to the nearest integer that
        // decides the comparison the same way. The column's domain is
        // `lo <= x < hi`, both exact in f64.
        let (lo, hi) = match ty {
            LogicalType::I8 => (i8::MIN as f64, i8::MAX as f64 + 1.0),
            LogicalType::I16 => (i16::MIN as f64, i16::MAX as f64 + 1.0),
            LogicalType::I32 => (i32::MIN as f64, i32::MAX as f64 + 1.0),
            LogicalType::I64 => (i64::MIN as f64, i64::MAX as f64),
            _ => return None,
        };
        let f = lit.as_f64()?;
        let everything = Some(ColumnTest::Range { lo: None, hi: None });
        let (op, f) = match op {
            CmpOp::Lt => (CmpOp::Lt, f.ceil()),
            CmpOp::Le => (CmpOp::Le, f.floor()),
            CmpOp::Gt => (CmpOp::Gt, f.floor()),
            CmpOp::Ge => (CmpOp::Ge, f.ceil()),
            CmpOp::Eq if f.fract() != 0.0 => return None,
            CmpOp::Ne if f.fract() != 0.0 => return everything,
            CmpOp::Eq | CmpOp::Ne => (op, f),
        };
        if f < lo {
            // smaller than every value of the column
            let all = matches!(op, CmpOp::Gt | CmpOp::Ge | CmpOp::Ne);
            return everything.filter(|_| all);
        }
        if f >= hi {
            let all = matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Ne);
            return everything.filter(|_| all);
        }
        let v = Value::I64(f as i64).coerce(ty)?;
        Some(ColumnTest::typed(op, v))
    }

    fn typed(op: CmpOp, v: Value) -> ColumnTest {
        let (lo, hi) = match op {
            CmpOp::Ne => return ColumnTest::Ne(v),
            CmpOp::Eq => (Some((v.clone(), true)), Some((v, true))),
            CmpOp::Lt => (None, Some((v, false))),
            CmpOp::Le => (None, Some((v, true))),
            CmpOp::Gt => (Some((v, false)), None),
            CmpOp::Ge => (Some((v, true)), None),
        };
        ColumnTest::Range { lo, hi }
    }

    /// One range out of a lower and an upper bound on the same column.
    pub(super) fn fuse(&self, other: &ColumnTest) -> Option<ColumnTest> {
        use ColumnTest::Range;
        let (Range { lo: a_lo, hi: a_hi }, Range { lo: b_lo, hi: b_hi }) = (self, other) else {
            return None;
        };
        match (a_lo, a_hi, b_lo, b_hi) {
            (Some(lo), None, None, Some(hi)) | (None, Some(hi), Some(lo), None) => Some(Range {
                lo: Some(lo.clone()),
                hi: Some(hi.clone()),
            }),
            _ => None,
        }
    }

    /// The rows of `part` (all of them, or those `cand` names) that pass.
    pub(super) fn select(&self, part: &Bat, cand: Option<&Bat>) -> Result<Bat> {
        fn split(b: &Bound) -> (Option<&Value>, bool) {
            match b {
                Some((v, inclusive)) => (Some(v), *inclusive),
                None => (None, false),
            }
        }
        match (self, cand) {
            (ColumnTest::Range { lo, hi }, cand) => {
                let ((lo, lo_incl), (hi, hi_incl)) = (split(lo), split(hi));
                match cand {
                    None => alg::select_range(part, lo, hi, lo_incl, hi_incl),
                    Some(c) => alg::select_range_cand(part, c, lo, hi, lo_incl, hi_incl),
                }
            }
            (ColumnTest::Ne(v), None) => alg::select_cmp(part, CmpOp::Ne, v),
            (ColumnTest::Ne(v), Some(c)) => alg::select_cmp_cand(part, c, CmpOp::Ne, v),
        }
    }
}
