//! The Binary Association Table.
//!
//! A [`Bat`] maps a head column of oids to a tail column of values. The
//! head is almost always *void*: a dense, ascending, non-stored oid sequence
//! `seqbase, seqbase+1, ...` — in which case oid lookup is an O(1) array
//! index (§3: "this use of arrays in virtual memory ... provides an O(1)
//! positional database lookup mechanism").

use crate::heap::{FixedTail, TailHeap};
use crate::properties::Properties;
use mammoth_types::{Error, LogicalType, NativeType, Oid, Result, Value};

/// The head (oid) column of a BAT.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadColumn {
    /// Dense ascending oids starting at `seqbase`; not materialized.
    Void { seqbase: Oid },
    /// Explicit oid list (produced by selections and joins).
    Oids(Vec<Oid>),
}

impl HeadColumn {
    pub fn is_void(&self) -> bool {
        matches!(self, HeadColumn::Void { .. })
    }
}

/// A Binary Association Table: `<head oid, tail value>` pairs.
#[derive(Debug, Clone)]
pub struct Bat {
    head: HeadColumn,
    tail: TailHeap,
    props: Properties,
}

impl Bat {
    /// A BAT with a void (dense, non-stored) head starting at `seqbase`.
    pub fn dense(seqbase: Oid, tail: TailHeap) -> Bat {
        Bat {
            head: HeadColumn::Void { seqbase },
            tail,
            props: Properties::unknown(),
        }
    }

    /// A BAT with an explicit head column. Lengths must match.
    pub fn with_head(head: Vec<Oid>, tail: TailHeap) -> Result<Bat> {
        if head.len() != tail.len() {
            return Err(Error::LengthMismatch {
                left: head.len(),
                right: tail.len(),
            });
        }
        Ok(Bat {
            head: HeadColumn::Oids(head),
            tail,
            props: Properties::unknown(),
        })
    }

    /// An empty dense BAT of tail type `ty`.
    pub fn empty(ty: LogicalType) -> Bat {
        Bat {
            head: HeadColumn::Void { seqbase: 0 },
            tail: TailHeap::new(ty),
            props: Properties::empty(),
        }
    }

    /// Convenience: dense BAT over a native vector, seqbase 0.
    pub fn from_vec<T: FixedTail>(v: Vec<T>) -> Bat {
        Bat::dense(0, TailHeap::from_vec(v))
    }

    /// Convenience: dense string BAT, seqbase 0.
    pub fn from_strings<'a, I: IntoIterator<Item = Option<&'a str>>>(it: I) -> Bat {
        Bat::dense(0, TailHeap::from_strings(it))
    }

    pub fn len(&self) -> usize {
        self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// Logical type of the tail column.
    pub fn ty(&self) -> LogicalType {
        self.tail.ty()
    }

    pub fn head(&self) -> &HeadColumn {
        &self.head
    }

    pub fn tail(&self) -> &TailHeap {
        &self.tail
    }

    /// Consume into the tail heap (head information is dropped).
    pub fn into_tail(self) -> TailHeap {
        self.tail
    }

    pub fn props(&self) -> &Properties {
        &self.props
    }

    /// Assert properties computed by the caller (operators know what they
    /// produce; this is how property propagation avoids rescans).
    pub fn set_props(&mut self, props: Properties) {
        self.props = props;
    }

    pub fn with_props(mut self, props: Properties) -> Bat {
        self.props = props;
        self
    }

    /// Mutable tail access. Invalidate properties: the caller may change
    /// anything.
    pub fn tail_mut(&mut self) -> &mut TailHeap {
        self.props = Properties::unknown();
        &mut self.tail
    }

    /// The head oid at position `i`.
    pub fn oid_at(&self, i: usize) -> Oid {
        match &self.head {
            HeadColumn::Void { seqbase } => seqbase + i as Oid,
            HeadColumn::Oids(v) => v[i],
        }
    }

    /// The tail value at position `i` (dynamic, slow path).
    pub fn value_at(&self, i: usize) -> Value {
        self.tail.value(i)
    }

    /// Position of head oid `oid`.
    ///
    /// O(1) for void heads — the positional-lookup property the paper
    /// contrasts with B-tree lookup into slotted pages.
    pub fn find_oid(&self, oid: Oid) -> Option<usize> {
        match &self.head {
            HeadColumn::Void { seqbase } => {
                if oid < *seqbase {
                    return None;
                }
                let pos = (oid - seqbase) as usize;
                (pos < self.len()).then_some(pos)
            }
            HeadColumn::Oids(v) => v.iter().position(|&o| o == oid),
        }
    }

    /// Typed tail slice (the bulk-operator fast path).
    pub fn tail_slice<T: FixedTail>(&self) -> Result<&[T]> {
        self.tail
            .as_slice::<T>()
            .ok_or_else(|| Error::TypeMismatch {
                expected: T::LOGICAL.name().into(),
                found: self.ty().name().into(),
            })
    }

    /// Append one dynamic value, keeping a void head dense.
    pub(crate) fn append_value(&mut self, v: &Value) -> Result<()> {
        self.extend_values(std::slice::from_ref(v).iter())
    }

    /// Append a column of dynamic values in one typed loop
    /// ([`TailHeap::extend_values`]), keeping a void head dense. On error
    /// the values before the failing one stay appended, head and tail
    /// aligned.
    pub(crate) fn extend_values<'a>(
        &mut self,
        vals: impl ExactSizeIterator<Item = &'a Value>,
    ) -> Result<()> {
        let before = self.tail.len();
        let res = self.tail.extend_values(vals);
        let added = (self.tail.len() - before) as Oid;
        if let HeadColumn::Oids(h) = &mut self.head {
            let next = h.iter().copied().max().map_or(0, |m| m + 1);
            h.extend(next..next + added);
        }
        self.props = Properties::unknown();
        res
    }

    /// Contiguous positional slice `[from, to)`. Void heads stay void with a
    /// shifted seqbase, so views of dense BATs keep O(1) lookup.
    pub fn slice(&self, from: usize, to: usize) -> Result<Bat> {
        if from > to || to > self.len() {
            return Err(Error::OutOfRange {
                index: to as u64,
                len: self.len() as u64,
            });
        }
        let head = match &self.head {
            HeadColumn::Void { seqbase } => HeadColumn::Void {
                seqbase: seqbase + from as Oid,
            },
            HeadColumn::Oids(v) => HeadColumn::Oids(v[from..to].to_vec()),
        };
        Ok(Bat {
            head,
            tail: self.tail.slice_range(from, to),
            props: self.props.after_filter(),
        })
    }

    /// `mirror(b)`: a BAT mapping each head oid to itself.
    pub fn mirror(&self) -> Bat {
        match &self.head {
            HeadColumn::Void { seqbase } => {
                let mut b = Bat::dense(
                    *seqbase,
                    TailHeap::from_vec(
                        (0..self.len() as u64)
                            .map(|i| seqbase + i)
                            .collect::<Vec<Oid>>(),
                    ),
                );
                b.props = Properties {
                    sorted: true,
                    revsorted: self.len() <= 1,
                    key: true,
                    nonil: true,
                    min: None,
                    max: None,
                };
                b
            }
            HeadColumn::Oids(v) => {
                let mut b = Bat {
                    head: HeadColumn::Oids(v.clone()),
                    tail: TailHeap::from_vec(v.clone()),
                    props: Properties::unknown(),
                };
                b.props.nonil = true;
                b
            }
        }
    }

    /// Scan the tail and (re)derive all properties. O(n); used when an
    /// operator wants facts it cannot infer.
    pub fn compute_props(&mut self) {
        self.props = self.computed_props();
    }

    /// Scan the tail and derive ground-truth properties without mutating
    /// the BAT. This is the oracle the `MAMMOTH_CHECK_PROPS` runtime
    /// checker compares statically inferred properties against.
    pub fn computed_props(&self) -> Properties {
        fn scan<T: NativeType>(v: &[T]) -> Properties {
            let mut p = Properties::empty();
            let mut min_i: Option<usize> = None;
            let mut max_i: Option<usize> = None;
            for i in 0..v.len() {
                if v[i].is_nil() {
                    p.nonil = false;
                    continue;
                }
                match min_i {
                    None => {
                        min_i = Some(i);
                        max_i = Some(i);
                    }
                    Some(mi) => {
                        if v[i].nil_cmp(&v[mi]) == std::cmp::Ordering::Less {
                            min_i = Some(i);
                        }
                        if v[i].nil_cmp(&v[max_i.unwrap()]) == std::cmp::Ordering::Greater {
                            max_i = Some(i);
                        }
                    }
                }
                if i > 0 {
                    match v[i - 1].nil_cmp(&v[i]) {
                        std::cmp::Ordering::Less => p.revsorted = false,
                        std::cmp::Ordering::Greater => p.sorted = false,
                        std::cmp::Ordering::Equal => p.key = false,
                    }
                }
            }
            // key detection beyond adjacent duplicates only when sorted
            if !(p.sorted || p.revsorted) {
                // cannot cheaply prove uniqueness; stay conservative
                p.key = false;
            }
            p.min = min_i.map(|i| v[i].to_value());
            p.max = max_i.map(|i| v[i].to_value());
            p
        }
        match &self.tail {
            TailHeap::Bool(v) => scan(v),
            TailHeap::I8(v) => scan(v),
            TailHeap::I16(v) => scan(v),
            TailHeap::I32(v) => scan(v),
            TailHeap::I64(v) => scan(v),
            TailHeap::F64(v) => scan(v),
            TailHeap::Oid(v) => scan(v),
            TailHeap::Str(h) => {
                let mut p = Properties::empty();
                let mut min: Option<&str> = None;
                let mut max: Option<&str> = None;
                let mut prev: Option<Option<&str>> = None;
                for i in 0..h.len() {
                    let cur = h.get(i);
                    if cur.is_none() {
                        p.nonil = false;
                    }
                    if let Some(s) = cur {
                        min = Some(match min {
                            None => s,
                            Some(m) if s < m => s,
                            Some(m) => m,
                        });
                        max = Some(match max {
                            None => s,
                            Some(m) if s > m => s,
                            Some(m) => m,
                        });
                    }
                    if let Some(pv) = prev {
                        // nil sorts first, like numeric NIL = MIN
                        let ord = match (pv, cur) {
                            (None, None) => std::cmp::Ordering::Equal,
                            (None, Some(_)) => std::cmp::Ordering::Less,
                            (Some(_), None) => std::cmp::Ordering::Greater,
                            (Some(a), Some(b)) => a.cmp(b),
                        };
                        match ord {
                            std::cmp::Ordering::Less => p.revsorted = false,
                            std::cmp::Ordering::Greater => p.sorted = false,
                            std::cmp::Ordering::Equal => p.key = false,
                        }
                    }
                    prev = Some(cur);
                }
                if !(p.sorted || p.revsorted) {
                    p.key = false;
                }
                p.min = min.map(|s| Value::Str(s.to_string()));
                p.max = max.map(|s| Value::Str(s.to_string()));
                p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_head_lookup_is_positional() {
        let b = Bat::dense(100, TailHeap::from_vec(vec![5i32, 6, 7]));
        assert_eq!(b.oid_at(0), 100);
        assert_eq!(b.oid_at(2), 102);
        assert_eq!(b.find_oid(101), Some(1));
        assert_eq!(b.find_oid(99), None);
        assert_eq!(b.find_oid(103), None);
        assert!(b.head().is_void());
    }

    #[test]
    fn materialized_head() {
        let b = Bat::with_head(vec![9, 3, 7], TailHeap::from_vec(vec![1i32, 2, 3])).unwrap();
        assert_eq!(b.oid_at(1), 3);
        assert_eq!(b.find_oid(7), Some(2));
        assert!(Bat::with_head(vec![1], TailHeap::from_vec(vec![1i32, 2])).is_err());
    }

    #[test]
    fn slice_keeps_void_dense() {
        let b = Bat::dense(10, TailHeap::from_vec(vec![0i32, 1, 2, 3, 4]));
        let s = b.slice(2, 5).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.oid_at(0), 12);
        assert!(s.head().is_void());
        assert_eq!(s.tail_slice::<i32>().unwrap(), &[2, 3, 4]);
        assert!(b.slice(4, 2).is_err());
        assert!(b.slice(0, 9).is_err());
    }

    #[test]
    fn compute_props_detects_order() {
        let mut b = Bat::from_vec(vec![1i32, 2, 2, 5]);
        b.compute_props();
        assert!(b.props().sorted);
        assert!(!b.props().revsorted);
        assert!(!b.props().key); // duplicate 2
        assert!(b.props().nonil);
        assert_eq!(b.props().min, Some(Value::I32(1)));
        assert_eq!(b.props().max, Some(Value::I32(5)));

        let mut u = Bat::from_vec(vec![3i32, 1, 2]);
        u.compute_props();
        assert!(!u.props().sorted && !u.props().revsorted);

        let mut withnil = Bat::from_vec(vec![i32::NIL, 1, 2]);
        withnil.compute_props();
        assert!(!withnil.props().nonil);
        assert_eq!(withnil.props().min, Some(Value::I32(1)));
    }

    #[test]
    fn compute_props_strings() {
        let mut b = Bat::from_strings([Some("a"), Some("b"), None]);
        b.compute_props();
        assert!(!b.props().nonil);
        assert!(!b.props().sorted); // nil sorts first but appears last
        assert_eq!(b.props().min, Some(Value::Str("a".into())));
        assert_eq!(b.props().max, Some(Value::Str("b".into())));
    }

    #[test]
    fn mirror_pairs_each_oid_with_itself() {
        let b = Bat::dense(5, TailHeap::from_vec(vec![10i32, 20]));
        let m = b.mirror();
        assert_eq!(m.tail_slice::<Oid>().unwrap(), &[5, 6]);
        assert_eq!(m.oid_at(0), 5);
        assert!(m.props().key && m.props().sorted);
    }

    #[test]
    fn append_keeps_dense() {
        let mut b = Bat::empty(LogicalType::I32);
        b.append_value(&Value::I32(1)).unwrap();
        b.append_value(&Value::I32(2)).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.oid_at(1), 1);
        assert!(b.head().is_void());
    }

    #[test]
    fn type_mismatch_reported() {
        let b = Bat::from_vec(vec![1i32]);
        let e = b.tail_slice::<i64>().unwrap_err();
        assert!(e.to_string().contains("bigint"));
    }
}
