//! Zero-degree-of-freedom vector primitives.
//!
//! Each primitive does exactly one thing to one vector. Complex
//! expressions are *sequences* of primitives — the X100/MonetDB answer to
//! per-tuple expression interpretation — connected by *selection vectors*
//! (`&[u32]` of qualifying positions within the current vector), so no
//! primitive copies the data it skips.
//!
//! The filter and fold primitives are the BAT Algebra's own kernels, run
//! over a vector instead of a column: a filter is a
//! [`mammoth_algebra::Pred`] compressing positions into a selection vector,
//! a fold a [`mammoth_algebra::Reduction`] or [`mammoth_algebra::Acc`] fed
//! through one. What this module adds is the arithmetic map.

/// Arithmetic operators for map primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    Add,
    Sub,
    Mul,
    Div,
}

#[inline(always)]
fn apply_i64(op: MapOp, a: i64, b: i64) -> i64 {
    match op {
        MapOp::Add => a.wrapping_add(b),
        MapOp::Sub => a.wrapping_sub(b),
        MapOp::Mul => a.wrapping_mul(b),
        MapOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
    }
}

/// `out[i] = a[i] op b(i)` at the selected positions (`out` is
/// full-length; unselected slots are zero).
fn map_i64(
    op: MapOp,
    a: &[i64],
    b: impl Fn(usize) -> i64,
    sel: Option<&[u32]>,
    out: &mut Vec<i64>,
) {
    out.clear();
    out.resize(a.len(), 0);
    match sel {
        None => {
            for i in 0..a.len() {
                out[i] = apply_i64(op, a[i], b(i));
            }
        }
        Some(sel) => {
            for &i in sel {
                let i = i as usize;
                out[i] = apply_i64(op, a[i], b(i));
            }
        }
    }
}

/// `out[i] = a[i] op b[i]` at selected positions.
pub(crate) fn map_arith_i64(
    op: MapOp,
    a: &[i64],
    b: &[i64],
    sel: Option<&[u32]>,
    out: &mut Vec<i64>,
) {
    map_i64(op, a, |i| b[i], sel, out);
}

/// `out[i] = a[i] op c` at selected positions.
pub(crate) fn map_arith_i64_const(
    op: MapOp,
    a: &[i64],
    c: i64,
    sel: Option<&[u32]>,
    out: &mut Vec<i64>,
) {
    map_i64(op, a, |_| c, sel, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_respect_selection() {
        let a = vec![1i64, 2, 3];
        let b = vec![10i64, 20, 30];
        let mut out = Vec::new();
        map_arith_i64(MapOp::Mul, &a, &b, Some(&[0, 2]), &mut out);
        assert_eq!(out, vec![10, 0, 90]);
        map_arith_i64_const(MapOp::Add, &a, 100, None, &mut out);
        assert_eq!(out, vec![101, 102, 103]);
        map_arith_i64_const(MapOp::Div, &a, 0, None, &mut out);
        assert_eq!(out, vec![0, 0, 0], "div by zero yields 0, not panic");
    }
}
