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
pub type Tuple = Vec<Value>;

/// The Volcano iterator contract.
pub trait TupleIter {
    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>>;
    /// Output arity.
    fn arity(&self) -> usize;
    /// Restart from the beginning.
    fn reset(&mut self);
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

    fn arity(&self) -> usize {
        self.file.arity()
    }

    fn reset(&mut self) {
        self.page = 0;
        self.slot = 0;
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

    fn arity(&self) -> usize {
        self.input.arity()
    }

    fn reset(&mut self) {
        self.input.reset();
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

    fn arity(&self) -> usize {
        self.exprs.len()
    }

    fn reset(&mut self) {
        self.input.reset();
    }
}

/// In-memory hash join: build the right side, stream the left.
/// Output = left tuple ++ right tuple (pre-projection: payload travels
/// through the join, the NSM strategy of §4.3).
pub struct HashJoinOp<L: TupleIter, R: TupleIter> {
    left: L,
    right: R,
    left_key: usize,
    right_key: usize,
    table: Option<HashMap<String, Vec<Tuple>>>,
    pending: Vec<Tuple>,
}

/// Hash key wrapper: Value is not Hash/Eq (floats), so join keys are the
/// canonical string image for simplicity — this is the *baseline*, not the
/// fast path.
fn key_image(v: &Value) -> Option<String> {
    if v.is_null() {
        None
    } else {
        Some(format!("{v:?}"))
    }
}

impl<L: TupleIter, R: TupleIter> HashJoinOp<L, R> {
    pub fn new(left: L, right: R, left_key: usize, right_key: usize) -> Self {
        HashJoinOp {
            left,
            right,
            left_key,
            right_key,
            table: None,
            pending: Vec::new(),
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut table: HashMap<String, Vec<Tuple>> = HashMap::new();
        while let Some(t) = self.right.next()? {
            if let Some(k) = key_image(&t[self.right_key]) {
                table.entry(k).or_default().push(t);
            }
        }
        self.table = Some(table);
        Ok(())
    }
}

impl<L: TupleIter, R: TupleIter> TupleIter for HashJoinOp<L, R> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.table.is_none() {
            self.build()?;
        }
        loop {
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let Some(l) = self.left.next()? else {
                return Ok(None);
            };
            let Some(k) = key_image(&l[self.left_key]) else {
                continue;
            };
            if let Some(matches) = self.table.as_ref().unwrap().get(&k) {
                for r in matches {
                    let mut joined = l.clone();
                    joined.extend(r.iter().cloned());
                    self.pending.push(joined);
                }
            }
        }
    }

    fn arity(&self) -> usize {
        self.left.arity() + self.right.arity()
    }

    fn reset(&mut self) {
        self.left.reset();
        self.right.reset();
        self.table = None;
        self.pending.clear();
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

    fn arity(&self) -> usize {
        self.group_cols.len() + self.aggs.len()
    }

    fn reset(&mut self) {
        self.input.reset();
        self.results = None;
        self.cursor = 0;
    }
}

/// Materializing sort.
pub struct SortOp<I: TupleIter> {
    input: I,
    key_col: usize,
    descending: bool,
    sorted: Option<Vec<Tuple>>,
    cursor: usize,
}

impl<I: TupleIter> SortOp<I> {
    pub fn new(input: I, key_col: usize, descending: bool) -> Self {
        SortOp {
            input,
            key_col,
            descending,
            sorted: None,
            cursor: 0,
        }
    }
}

impl<I: TupleIter> TupleIter for SortOp<I> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.sorted.is_none() {
            let mut all = Vec::new();
            while let Some(t) = self.input.next()? {
                all.push(t);
            }
            let key = self.key_col;
            all.sort_by(|a, b| {
                let ord = a[key].sql_cmp(&b[key]).unwrap_or(std::cmp::Ordering::Equal);
                // NULLs first, like the column engine
                let ord = match (a[key].is_null(), b[key].is_null()) {
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    _ => ord,
                };
                if self.descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
            self.sorted = Some(all);
            self.cursor = 0;
        }
        let s = self.sorted.as_ref().unwrap();
        if self.cursor < s.len() {
            self.cursor += 1;
            Ok(Some(s[self.cursor - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn arity(&self) -> usize {
        self.input.arity()
    }

    fn reset(&mut self) {
        self.input.reset();
        self.sorted = None;
        self.cursor = 0;
    }
}

/// LIMIT n.
pub struct LimitOp<I: TupleIter> {
    input: I,
    limit: usize,
    produced: usize,
}

impl<I: TupleIter> LimitOp<I> {
    pub fn new(input: I, limit: usize) -> Self {
        LimitOp {
            input,
            limit,
            produced: 0,
        }
    }
}

impl<I: TupleIter> TupleIter for LimitOp<I> {
    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.produced >= self.limit {
            return Ok(None);
        }
        match self.input.next()? {
            Some(t) => {
                self.produced += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn arity(&self) -> usize {
        self.input.arity()
    }

    fn reset(&mut self) {
        self.input.reset();
        self.produced = 0;
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
    fn join_produces_pairs() {
        let l = HeapFile::from_columns(
            &[LogicalType::I32],
            &[vec![Value::I32(1), Value::I32(2), Value::I32(2)]],
        )
        .unwrap();
        let r = HeapFile::from_columns(
            &[LogicalType::I32, LogicalType::Str],
            &[
                vec![Value::I32(2), Value::I32(3)],
                vec![Value::Str("two".into()), Value::Str("three".into())],
            ],
        )
        .unwrap();
        let plan = HashJoinOp::new(SeqScanOp::new(&l), SeqScanOp::new(&r), 0, 0);
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row[0], Value::I32(2));
            assert_eq!(row[2], Value::Str("two".into()));
        }
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

    #[test]
    fn sort_and_limit() {
        let hf = people();
        let plan = LimitOp::new(SortOp::new(SeqScanOp::new(&hf), 1, true), 2);
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::I32(1968));
        assert_eq!(rows[1][1], Value::I32(1927));
    }

    #[test]
    fn nulls_skip_join_keys() {
        let l = HeapFile::from_columns(&[LogicalType::I32], &[vec![Value::Null, Value::I32(1)]])
            .unwrap();
        let r = HeapFile::from_columns(&[LogicalType::I32], &[vec![Value::Null, Value::I32(1)]])
            .unwrap();
        let plan = HashJoinOp::new(SeqScanOp::new(&l), SeqScanOp::new(&r), 0, 0);
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows.len(), 1, "NULL join keys never match");
    }

    #[test]
    fn reset_replays() {
        let hf = people();
        let mut plan = SeqScanOp::new(&hf);
        assert!(plan.next().unwrap().is_some());
        plan.reset();
        let rows = collect_all(plan).unwrap();
        assert_eq!(rows.len(), 4);
    }
}
