//! Positional projection (MonetDB `leftfetchjoin`).
//!
//! After a selection or join produced oids, tuple reconstruction fetches the
//! other columns *by position* — the O(1) array lookup that void heads make
//! possible (§3). This is the DSM "post-projection" building block that
//! experiment E05 stresses.

use mammoth_storage::{Bat, FixedTail, HeadColumn, Properties, TailHeap};
use mammoth_types::{Error, Oid, Result};

/// The one bounds pre-check of a positional operator: every oid must fall
/// inside the void head `[seqbase, seqbase + len)`. After it, the gather
/// loops index without a fallible path.
pub(crate) fn check_in_range(oids: &[Oid], seqbase: Oid, len: usize) -> Result<()> {
    let len = len as u64;
    // an oid below seqbase wraps to a huge offset, so one max covers both ends
    let worst = oids.iter().map(|o| o.wrapping_sub(seqbase)).max();
    if worst.is_some_and(|w| w >= len) {
        let index = *oids
            .iter()
            .find(|o| o.wrapping_sub(seqbase) >= len)
            .expect("the maximum offset came from one of the oids");
        return Err(Error::OutOfRange { index, len });
    }
    Ok(())
}

/// Resolve candidate oids (tail of `cands`) to physical positions in `base`.
pub fn positions_of(cands: &Bat, base: &Bat) -> Result<Vec<usize>> {
    let oids = cands.tail_slice::<Oid>()?;
    match base.head() {
        HeadColumn::Void { seqbase } => {
            check_in_range(oids, *seqbase, base.len())?;
            Ok(oids.iter().map(|o| (o - seqbase) as usize).collect())
        }
        HeadColumn::Oids(_) => oids
            .iter()
            .map(|&o| {
                base.find_oid(o).ok_or(Error::OutOfRange {
                    index: o,
                    len: base.len() as u64,
                })
            })
            .collect(),
    }
}

/// Gather `values[oid - seqbase]` for every oid, straight from the oid
/// slice. Callers have run [`check_in_range`].
fn gather_oids(values: &TailHeap, oids: &[Oid], seqbase: Oid) -> TailHeap {
    fn fixed<T: FixedTail>(src: &[T], oids: &[Oid], seqbase: Oid) -> TailHeap {
        T::into_heap(oids.iter().map(|o| src[(o - seqbase) as usize]).collect())
    }
    match values {
        TailHeap::Bool(v) => fixed(v, oids, seqbase),
        TailHeap::I8(v) => fixed(v, oids, seqbase),
        TailHeap::I16(v) => fixed(v, oids, seqbase),
        TailHeap::I32(v) => fixed(v, oids, seqbase),
        TailHeap::I64(v) => fixed(v, oids, seqbase),
        TailHeap::F64(v) => fixed(v, oids, seqbase),
        TailHeap::Oid(v) => fixed(v, oids, seqbase),
        TailHeap::Str(h) => {
            let pos: Vec<usize> = oids.iter().map(|o| (o - seqbase) as usize).collect();
            TailHeap::Str(h.take(&pos))
        }
    }
}

/// `fetch_join(cands, values)`: for each candidate oid, fetch the value at
/// that position of `values`. The result is dense and aligned with `cands`.
pub fn fetch_join(cands: &Bat, values: &Bat) -> Result<Bat> {
    let tail = match values.head() {
        HeadColumn::Void { seqbase } => {
            let oids = cands.tail_slice::<Oid>()?;
            check_in_range(oids, *seqbase, values.len())?;
            gather_oids(values.tail(), oids, *seqbase)
        }
        HeadColumn::Oids(_) => values.tail().take(&positions_of(cands, values)?),
    };
    // A fetch through ascending positions preserves order facts; values
    // stay unique only if no position is fetched twice.
    let props = if cands.props().sorted && values.head().is_void() {
        let mut p = values.props().after_filter();
        p.key &= cands.props().key;
        p
    } else {
        Properties::unknown()
    };
    Ok(Bat::dense(0, tail).with_props(props))
}

/// Materialize a candidate BAT over `values` into `<oid, value>` pairs with
/// the candidate oids as an explicit head (useful for result rendering).
pub fn fetch_join_with_head(cands: &Bat, values: &Bat) -> Result<Bat> {
    let pos = positions_of(cands, values)?;
    let tail = values.tail().take(&pos);
    let head: Vec<Oid> = cands.tail_slice::<Oid>()?.to_vec();
    Bat::with_head(head, tail)
}

/// Project a dense BAT through an arbitrary position vector (gather).
pub fn gather(values: &Bat, positions: &[usize]) -> Result<Bat> {
    for &p in positions {
        if p >= values.len() {
            return Err(Error::OutOfRange {
                index: p as u64,
                len: values.len() as u64,
            });
        }
    }
    Ok(Bat::dense(0, values.tail().take(positions)))
}

/// The inverse of gather: `scatter(values, positions, n)` builds a BAT of
/// length `n` with `out[positions[i]] = values[i]`. Unfilled slots are nil.
pub fn scatter(values: &Bat, positions: &[usize], n: usize) -> Result<Bat> {
    if values.len() != positions.len() {
        return Err(Error::LengthMismatch {
            left: values.len(),
            right: positions.len(),
        });
    }
    let mut out = TailHeap::with_capacity(values.ty(), n);
    // fill with nils first (dynamic path: scatter is not a hot primitive)
    for _ in 0..n {
        out.push_value(&mammoth_types::Value::Null)?;
    }
    let mut bat = Bat::dense(0, out);
    {
        let tail = bat.tail_mut();
        for (i, &p) in positions.iter().enumerate() {
            if p >= n {
                return Err(Error::OutOfRange {
                    index: p as u64,
                    len: n as u64,
                });
            }
            let v = values.value_at(i);
            // overwrite slot p
            match tail {
                TailHeap::Bool(v_) => v_[p] = matches!(v, mammoth_types::Value::Bool(true)),
                TailHeap::I8(v_) => {
                    v_[p] = i8::try_from(v.as_i64().unwrap_or(i8::MIN as i64)).unwrap_or(i8::MIN)
                }
                TailHeap::I16(v_) => {
                    v_[p] = i16::try_from(v.as_i64().unwrap_or(i16::MIN as i64)).unwrap_or(i16::MIN)
                }
                TailHeap::I32(v_) => {
                    v_[p] = i32::try_from(v.as_i64().unwrap_or(i32::MIN as i64)).unwrap_or(i32::MIN)
                }
                TailHeap::I64(v_) => v_[p] = v.as_i64().unwrap_or(i64::MIN),
                TailHeap::F64(v_) => v_[p] = v.as_f64().unwrap_or(f64::NAN),
                TailHeap::Oid(v_) => v_[p] = v.as_i64().map(|x| x as u64).unwrap_or(u64::MAX),
                TailHeap::Str(_) => {
                    return Err(Error::Unsupported("scatter over string heaps".into()))
                }
            }
        }
    }
    Ok(bat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::{NativeType, Value};

    #[test]
    fn figure1_reconstruction() {
        // Figure 1: select(age,1927) -> {1,2}; fetch names at those oids.
        let name = Bat::from_strings([
            Some("John Wayne"),
            Some("Roger Moore"),
            Some("Bob Fosse"),
            Some("Will Smith"),
        ]);
        let cands = Bat::from_vec(vec![1u64 as Oid, 2]);
        let r = fetch_join(&cands, &name).unwrap();
        assert_eq!(r.value_at(0), Value::Str("Roger Moore".into()));
        assert_eq!(r.value_at(1), Value::Str("Bob Fosse".into()));
    }

    #[test]
    fn respects_seqbase() {
        let base = Bat::from_vec(vec![10i32, 20, 30, 40]).slice(2, 4).unwrap(); // oids 2,3
        let cands = Bat::from_vec(vec![3u64 as Oid]);
        let r = fetch_join(&cands, &base).unwrap();
        assert_eq!(r.value_at(0), Value::I32(40));
        // oid below the view's seqbase errors
        let bad = Bat::from_vec(vec![0u64 as Oid]);
        assert!(fetch_join(&bad, &base).is_err());
    }

    #[test]
    fn out_of_range_errors() {
        let base = Bat::from_vec(vec![1i32]);
        let cands = Bat::from_vec(vec![5u64 as Oid]);
        assert!(fetch_join(&cands, &base).is_err());
    }

    #[test]
    fn with_head_keeps_oids() {
        let base = Bat::from_vec(vec![5i32, 6, 7]);
        let cands = Bat::from_vec(vec![2u64 as Oid, 0]);
        let r = fetch_join_with_head(&cands, &base).unwrap();
        assert_eq!(r.oid_at(0), 2);
        assert_eq!(r.value_at(0), Value::I32(7));
        assert_eq!(r.oid_at(1), 0);
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let b = Bat::from_vec(vec![10i64, 20, 30, 40]);
        let g = gather(&b, &[3, 1]).unwrap();
        assert_eq!(g.tail_slice::<i64>().unwrap(), &[40, 20]);
        let s = scatter(&g, &[3, 1], 4).unwrap();
        let out = s.tail_slice::<i64>().unwrap();
        assert_eq!(out[3], 40);
        assert_eq!(out[1], 20);
        assert!(out[0].is_nil() && out[2].is_nil());
        assert!(gather(&b, &[9]).is_err());
        assert!(scatter(&g, &[9, 1], 4).is_err());
    }
}
