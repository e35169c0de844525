//! The DataCell: baskets plus continuous queries.

use mammoth_algebra::{aggregate_scalar, select_cmp, AggKind, CmpOp};
use mammoth_storage::{Bat, TailHeap};
use mammoth_types::{Error, Oid, Result, TableSchema, Value};

/// Window shapes. Counts are in (post-filter) events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Non-overlapping windows of `size` events.
    Tumbling { size: usize },
    /// Overlapping: a window of `size` events every `slide` events.
    Sliding { size: usize, slide: usize },
}

/// A registered continuous query:
/// `SELECT agg(value_col) FROM stream [WHERE filter] WINDOW ...`.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    pub name: String,
    /// Aggregated column (by schema index).
    pub value_col: usize,
    pub agg: AggKind,
    /// Optional predicate `filter_col op constant` applied before windowing.
    pub filter: Option<(usize, CmpOp, Value)>,
    pub window: WindowKind,
}

/// One fired window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    pub query: String,
    /// Index of the window (0-based, per query).
    pub window_no: u64,
    pub value: Value,
    /// Events aggregated in this window.
    pub events: usize,
}

/// Per-query progress over its (filtered) event stream.
#[derive(Debug, Clone)]
struct QueryState {
    query: ContinuousQuery,
    /// The filtered event buffer this query still needs.
    pending: TailHeap,
    windows_fired: u64,
}

/// A stream processing cell over one event schema.
#[derive(Debug)]
pub struct DataCell {
    schema: TableSchema,
    /// The basket: arriving events, column-wise.
    basket: Vec<TailHeap>,
    queries: Vec<QueryState>,
}

impl DataCell {
    pub fn new(schema: TableSchema) -> Result<DataCell> {
        schema.validate()?;
        let basket = schema.columns.iter().map(|c| TailHeap::new(c.ty)).collect();
        Ok(DataCell {
            schema,
            basket,
            queries: Vec::new(),
        })
    }

    /// Register a continuous query. Windows start from the next event.
    pub fn register(&mut self, q: ContinuousQuery) -> Result<()> {
        if q.value_col >= self.schema.arity() {
            return Err(Error::OutOfRange {
                index: q.value_col as u64,
                len: self.schema.arity() as u64,
            });
        }
        if let Some((c, _, _)) = &q.filter {
            if *c >= self.schema.arity() {
                return Err(Error::OutOfRange {
                    index: *c as u64,
                    len: self.schema.arity() as u64,
                });
            }
        }
        match q.window {
            WindowKind::Tumbling { size: 0 } => {
                return Err(Error::Bind("window size must be positive".into()))
            }
            WindowKind::Sliding { size, slide } if size == 0 || slide == 0 => {
                return Err(Error::Bind("window size/slide must be positive".into()))
            }
            _ => {}
        }
        let ty = self.schema.columns[q.value_col].ty;
        self.queries.push(QueryState {
            query: q,
            pending: TailHeap::new(ty),
            windows_fired: 0,
        });
        Ok(())
    }

    /// Append a *batch* of events — the bulk-event entry point. Returns the
    /// windows that completed as a consequence.
    pub fn append_batch(&mut self, rows: &[Vec<Value>]) -> Result<Vec<WindowResult>> {
        for row in rows {
            if row.len() != self.schema.arity() {
                return Err(Error::LengthMismatch {
                    left: row.len(),
                    right: self.schema.arity(),
                });
            }
            for (heap, v) in self.basket.iter_mut().zip(row) {
                heap.push_value(v)?;
            }
        }
        self.drain_basket()
    }

    /// Route the basket contents to every query's pending buffer (applying
    /// filters in bulk), then fire complete windows. The windows come out
    /// in the order of the event that completed each, ties in query
    /// registration order: what the same events appended one at a time
    /// return, whatever the batch size.
    fn drain_basket(&mut self) -> Result<Vec<WindowResult>> {
        let n = self.basket.first().map_or(0, |h| h.len());
        if n == 0 {
            return Ok(Vec::new());
        }
        // each window beside the basket position of the event completing it
        let mut fired: Vec<(usize, WindowResult)> = Vec::new();
        for qs in &mut self.queries {
            // bulk filter + projection via the algebra
            let value_bat = Bat::dense(0, self.basket[qs.query.value_col].clone());
            let cands = match &qs.query.filter {
                None => None,
                Some((col, op, c)) => {
                    let fbat = Bat::dense(0, self.basket[*col].clone());
                    Some(select_cmp(&fbat, *op, c)?)
                }
            };
            let selected: TailHeap = match &cands {
                None => value_bat.into_tail(),
                Some(cands) => mammoth_algebra::fetch_join(cands, &value_bat)?.into_tail(),
            };
            // the basket position of each selected event, when filtered
            let positions = cands.as_ref().map(Bat::tail_slice::<Oid>).transpose()?;
            // pending is what earlier batches left (fewer than a window)
            // followed by this batch's selected events
            let earlier = qs.pending.len();
            let mut dropped = 0;
            qs.pending.extend_from(&selected)?;
            // fire all complete windows
            loop {
                let have = qs.pending.len();
                let (size, slide) = match qs.query.window {
                    WindowKind::Tumbling { size } => (size, size),
                    WindowKind::Sliding { size, slide } => (size, slide),
                };
                if have < size {
                    break;
                }
                let window = Bat::dense(0, qs.pending.slice_range(0, size));
                let value = aggregate_scalar(qs.query.agg, &window)?;
                let last = dropped + size - 1 - earlier;
                let event = positions.map_or(last, |p| p[last] as usize);
                fired.push((
                    event,
                    WindowResult {
                        query: qs.query.name.clone(),
                        window_no: qs.windows_fired,
                        value,
                        events: size,
                    },
                ));
                qs.windows_fired += 1;
                let step = slide.min(have);
                qs.pending = qs.pending.slice_range(step, have);
                dropped += step;
            }
        }
        // basket consumed
        for (heap, c) in self.basket.iter_mut().zip(&self.schema.columns) {
            *heap = TailHeap::new(c.ty);
        }
        // a stable sort: one event's windows stay in registration order
        fired.sort_by_key(|&(event, _)| event);
        Ok(fired.into_iter().map(|(_, w)| w).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::{ColumnDef, LogicalType};

    fn cell() -> DataCell {
        DataCell::new(TableSchema::new(
            "ticks",
            vec![
                ColumnDef::new("price", LogicalType::I64),
                ColumnDef::new("qty", LogicalType::I64),
            ],
        ))
        .unwrap()
    }

    fn ev(p: i64, q: i64) -> Vec<Value> {
        vec![Value::I64(p), Value::I64(q)]
    }

    #[test]
    fn tumbling_windows_fire_in_bulk() {
        let mut c = cell();
        c.register(ContinuousQuery {
            name: "sum5".into(),
            value_col: 0,
            agg: AggKind::Sum,
            filter: None,
            window: WindowKind::Tumbling { size: 5 },
        })
        .unwrap();
        let batch: Vec<Vec<Value>> = (1..=12).map(|i| ev(i, 1)).collect();
        let fired = c.append_batch(&batch).unwrap();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].value, Value::I64(1 + 2 + 3 + 4 + 5));
        assert_eq!(fired[1].value, Value::I64(6 + 7 + 8 + 9 + 10));
        assert_eq!(fired[1].window_no, 1);
        // the remaining 2 events wait for the next batch
        let fired = c
            .append_batch(&(13..=15).map(|i| ev(i, 1)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, Value::I64(11 + 12 + 13 + 14 + 15));
    }

    #[test]
    fn sliding_windows_overlap() {
        let mut c = cell();
        c.register(ContinuousQuery {
            name: "avg4by2".into(),
            value_col: 0,
            agg: AggKind::Avg,
            filter: None,
            window: WindowKind::Sliding { size: 4, slide: 2 },
        })
        .unwrap();
        let fired = c
            .append_batch(&(1..=8).map(|i| ev(i, 1)).collect::<Vec<_>>())
            .unwrap();
        // windows: [1..4], [3..6], [5..8]
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0].value, Value::F64(2.5));
        assert_eq!(fired[1].value, Value::F64(4.5));
        assert_eq!(fired[2].value, Value::F64(6.5));
    }

    #[test]
    fn predicate_windows_filter_first() {
        let mut c = cell();
        c.register(ContinuousQuery {
            name: "big_trades".into(),
            value_col: 0,
            agg: AggKind::Count,
            filter: Some((1, CmpOp::Ge, Value::I64(10))),
            window: WindowKind::Tumbling { size: 3 },
        })
        .unwrap();
        // only qty >= 10 events count toward the window
        let mut batch = Vec::new();
        for i in 0..10 {
            batch.push(ev(i, if i % 2 == 0 { 20 } else { 1 }));
        }
        let fired = c.append_batch(&batch).unwrap();
        // 5 qualifying events -> one window of 3 fires
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, Value::I64(3));
    }

    #[test]
    fn multiple_queries_share_the_basket() {
        let mut c = cell();
        for (name, agg) in [("min", AggKind::Min), ("max", AggKind::Max)] {
            c.register(ContinuousQuery {
                name: name.into(),
                value_col: 0,
                agg,
                filter: None,
                window: WindowKind::Tumbling { size: 4 },
            })
            .unwrap();
        }
        let fired = c
            .append_batch(&[ev(3, 1), ev(9, 1), ev(1, 1), ev(7, 1)])
            .unwrap();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].value, Value::I64(1));
        assert_eq!(fired[1].value, Value::I64(9));
    }

    #[test]
    fn event_at_a_time_equals_batch() {
        let mk = || {
            let mut c = cell();
            c.register(ContinuousQuery {
                name: "s".into(),
                value_col: 0,
                agg: AggKind::Sum,
                filter: None,
                window: WindowKind::Tumbling { size: 7 },
            })
            .unwrap();
            c
        };
        let events: Vec<Vec<Value>> = (0..50).map(|i| ev(i * 3 % 11, 1)).collect();
        let mut c1 = mk();
        let bulk = c1.append_batch(&events).unwrap();
        let mut c2 = mk();
        let mut single = Vec::new();
        for e in &events {
            single.extend(c2.append_batch(std::slice::from_ref(e)).unwrap());
        }
        assert_eq!(bulk, single);
    }

    /// Two queries whose windows interleave: a filtered tumbling sum and an
    /// unfiltered sliding max, over `n` events.
    fn interleaved(n: i64) -> (DataCell, Vec<Vec<Value>>) {
        let mut c = cell();
        c.register(ContinuousQuery {
            name: "big".into(),
            value_col: 0,
            agg: AggKind::Sum,
            filter: Some((1, CmpOp::Ge, Value::I64(10))),
            window: WindowKind::Tumbling { size: 3 },
        })
        .unwrap();
        c.register(ContinuousQuery {
            name: "peak".into(),
            value_col: 0,
            agg: AggKind::Max,
            filter: None,
            window: WindowKind::Sliding { size: 4, slide: 2 },
        })
        .unwrap();
        let events = (0..n).map(|i| ev(i * 7 % 13, i % 3 * 10)).collect();
        (c, events)
    }

    #[test]
    fn a_batch_fires_its_windows_in_event_order_whatever_its_size() {
        let n = 40;
        let (mut one, events) = interleaved(n);
        let mut single = Vec::new();
        for e in &events {
            single.extend(one.append_batch(std::slice::from_ref(e)).unwrap());
        }
        assert!(single.iter().any(|w| w.query == "big"));
        assert!(single.iter().any(|w| w.query == "peak"));
        for batch in [1, 7, n as usize] {
            let (mut c, _) = interleaved(n);
            let mut fired = Vec::new();
            for chunk in events.chunks(batch) {
                fired.extend(c.append_batch(chunk).unwrap());
            }
            assert_eq!(fired, single, "batch size {batch}");
        }
    }

    #[test]
    fn registration_validation() {
        let mut c = cell();
        assert!(c
            .register(ContinuousQuery {
                name: "bad".into(),
                value_col: 9,
                agg: AggKind::Sum,
                filter: None,
                window: WindowKind::Tumbling { size: 1 },
            })
            .is_err());
        assert!(c
            .register(ContinuousQuery {
                name: "bad".into(),
                value_col: 0,
                agg: AggKind::Sum,
                filter: None,
                window: WindowKind::Tumbling { size: 0 },
            })
            .is_err());
        assert!(c
            .register(ContinuousQuery {
                name: "bad".into(),
                value_col: 0,
                agg: AggKind::Sum,
                filter: Some((5, CmpOp::Eq, Value::I64(1))),
                window: WindowKind::Tumbling { size: 1 },
            })
            .is_err());
    }

    #[test]
    fn arity_checked_on_append() {
        let mut c = cell();
        assert!(c.append_batch(&[vec![Value::I64(1)]]).is_err());
    }
}
