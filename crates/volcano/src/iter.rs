//! Volcano iterators.
//!
//! Every operator is "an iterator class with a next() method that returns
//! the next tuple" (§3). Plans are trees of boxed trait objects; producing
//! one tuple costs a chain of virtual calls through the whole plan — the
//! instruction-cache behaviour \[6\] measured.

use crate::expr::Expr;
use crate::page::HeapFile;
use mammoth_types::{Result, Value};
use std::collections::HashMap;

/// One tuple.
pub(crate) type Tuple = Vec<Value>;

/// The Volcano iterator contract.
pub trait TupleIter {
    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>>;
}

/// Sequential scan over a heap file.
pub struct SeqScanOp<'a> {
    file: &'a HeapFile,
    page: usize,
    slot: usize,
}

impl<'a> SeqScanOp<'a> {
    pub fn new(file: &'a HeapFile) -> Self {
        SeqScanOp {
            file,
            page: 0,
            slot: 0,
        }
    }
}

impl TupleIter for SeqScanOp<'_> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        // materialize via the scan iterator would hide the per-tuple cost;
        // walk rids explicitly instead
        loop {
            if self.page >= self.file.page_count() {
                return Ok(None);
            }
            let rid = crate::page::Rid {
                page: self.page as u32,
                slot: self.slot as u16,
            };
            match self.file.get(rid) {
                Ok(row) => {
                    self.slot += 1;
                    return Ok(Some(row));
                }
                Err(_) => {
                    self.page += 1;
                    self.slot = 0;
                }
            }
        }
    }
}

/// Filter by a predicate expression.
pub struct FilterOp<I: TupleIter> {
    input: I,
    pred: Expr,
}

impl<I: TupleIter> FilterOp<I> {
    pub fn new(input: I, pred: Expr) -> Self {
        FilterOp { input, pred }
    }
}

impl<I: TupleIter> TupleIter for FilterOp<I> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            if self.pred.eval_pred(&t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

/// Project through expressions.
pub struct ProjectOp<I: TupleIter> {
    input: I,
    exprs: Vec<Expr>,
}

impl<I: TupleIter> ProjectOp<I> {
    pub fn new(input: I, exprs: Vec<Expr>) -> Self {
        ProjectOp { input, exprs }
    }
}

impl<I: TupleIter> TupleIter for ProjectOp<I> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        match self.input.next()? {
            None => Ok(None),
            Some(t) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(e.eval(&t)?);
                }
                Ok(Some(out))
            }
        }
    }
}

/// Aggregate kinds for [`HashAggOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    CountStar,
    Sum(usize),
    Min(usize),
    Max(usize),
    Avg(usize),
}

/// Hash aggregation with optional grouping key columns.
pub struct HashAggOp<I: TupleIter> {
    input: I,
    group_cols: Vec<usize>,
    aggs: Vec<AggFn>,
    results: Option<Vec<Tuple>>,
    cursor: usize,
}

impl<I: TupleIter> HashAggOp<I> {
    pub fn new(input: I, group_cols: Vec<usize>, aggs: Vec<AggFn>) -> Self {
        HashAggOp {
            input,
            group_cols,
            aggs,
            results: None,
            cursor: 0,
        }
    }

    fn run(&mut self) -> Result<Vec<Tuple>> {
        struct St {
            key: Tuple,
            count: i64,
            sums: Vec<f64>,
            mins: Vec<Value>,
            maxs: Vec<Value>,
            counts: Vec<i64>,
        }
        let nagg = self.aggs.len();
        let mut groups: HashMap<String, St> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        while let Some(t) = self.input.next()? {
            let key_tuple: Tuple = self.group_cols.iter().map(|&c| t[c].clone()).collect();
            let key_img = format!("{key_tuple:?}");
            let st = groups.entry(key_img.clone()).or_insert_with(|| {
                order.push(key_img);
                St {
                    key: key_tuple,
                    count: 0,
                    sums: vec![0.0; nagg],
                    mins: vec![Value::Null; nagg],
                    maxs: vec![Value::Null; nagg],
                    counts: vec![0; nagg],
                }
            });
            st.count += 1;
            for (ai, agg) in self.aggs.iter().enumerate() {
                let col = match agg {
                    AggFn::CountStar => continue,
                    AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) | AggFn::Avg(c) => *c,
                };
                let v = &t[col];
                if v.is_null() {
                    continue;
                }
                st.counts[ai] += 1;
                if let Some(x) = v.as_f64() {
                    st.sums[ai] += x;
                }
                let upd_min = st.mins[ai].is_null()
                    || v.sql_cmp(&st.mins[ai]) == Some(std::cmp::Ordering::Less);
                if upd_min {
                    st.mins[ai] = v.clone();
                }
                let upd_max = st.maxs[ai].is_null()
                    || v.sql_cmp(&st.maxs[ai]) == Some(std::cmp::Ordering::Greater);
                if upd_max {
                    st.maxs[ai] = v.clone();
                }
            }
        }
        let mut out = Vec::with_capacity(order.len().max(1));
        for key in &order {
            let st = &groups[key];
            let mut row = st.key.clone();
            for (ai, agg) in self.aggs.iter().enumerate() {
                row.push(match agg {
                    AggFn::CountStar => Value::I64(st.count),
                    AggFn::Sum(_) => {
                        if st.counts[ai] == 0 {
                            Value::Null
                        } else {
                            Value::F64(st.sums[ai])
                        }
                    }
                    AggFn::Min(_) => st.mins[ai].clone(),
                    AggFn::Max(_) => st.maxs[ai].clone(),
                    AggFn::Avg(_) => {
                        if st.counts[ai] == 0 {
                            Value::Null
                        } else {
                            Value::F64(st.sums[ai] / st.counts[ai] as f64)
                        }
                    }
                });
            }
            out.push(row);
        }
        // global aggregate over empty input still yields one row
        if out.is_empty() && self.group_cols.is_empty() {
            let mut row = Vec::new();
            for agg in &self.aggs {
                row.push(match agg {
                    AggFn::CountStar => Value::I64(0),
                    _ => Value::Null,
                });
            }
            out.push(row);
        }
        Ok(out)
    }
}

impl<I: TupleIter> TupleIter for HashAggOp<I> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.results.is_none() {
            self.results = Some(self.run()?);
            self.cursor = 0;
        }
        let rs = self.results.as_ref().unwrap();
        if self.cursor < rs.len() {
            self.cursor += 1;
            Ok(Some(rs[self.cursor - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

/// Drain an iterator into a vector (test/bench helper).
pub fn collect_all<I: TupleIter>(mut it: I) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(t) = it.next()? {
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use mammoth_types::LogicalType;

    fn people() -> HeapFile {
        HeapFile::from_columns(
            &[LogicalType::Str, LogicalType::I32],
            &[
                vec![
                    Value::Str("John Wayne".into()),
                    Value::Str("Roger Moore".into()),
                    Value::Str("Bob Fosse".into()),
                    Value::Str("Will Smith".into()),
                ],
                vec![
                    Value::I32(1907),
                    Value::I32(1927),
                    Value::I32(1927),
                    Value::I32(1968),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let hf = people();
        let plan = ProjectOp::new(
            FilterOp::new(
                SeqScanOp::new(&hf),
                Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit(1927)),
            ),
            vec![Expr::col(0)],
        );
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("Roger Moore".into()));
        assert_eq!(rows[1][0], Value::Str("Bob Fosse".into()));
    }

    #[test]
    fn aggregate_with_groups() {
        let hf = people();
        let plan = HashAggOp::new(
            SeqScanOp::new(&hf),
            vec![1],
            vec![AggFn::CountStar, AggFn::Min(1)],
        );
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows.len(), 3);
        // first group in input order is 1907
        assert_eq!(
            rows[0],
            vec![Value::I32(1907), Value::I64(1), Value::I32(1907)]
        );
        assert_eq!(rows[1][1], Value::I64(2)); // two 1927s
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let hf = HeapFile::new(1);
        let plan = HashAggOp::new(SeqScanOp::new(&hf), vec![], vec![AggFn::CountStar]);
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows, vec![vec![Value::I64(0)]]);
    }
}
