//! Per-column statistics: row/null counts, distinct-value estimates and
//! min/max bounds.
//!
//! The statistics are *advisory*: every consumer (selectivity estimation,
//! predicate order, piece-count choice) degrades gracefully when a column
//! has no stats or the stats have drifted. Correctness never depends on
//! them — the plan cache separately re-checks the *soundness* premises
//! (column properties) a cached rewrite was proven under.
//!
//! Maintenance discipline:
//! * `CREATE TABLE` registers an empty [`TableStats`].
//! * INSERT folds a statement's rows in incrementally, per statement and
//!   one column at a time: one loop over a column's cells updates counts
//!   and ndv sketch bits; the ndv estimate is re-derived and a new bound
//!   cloned once per column. The result is the one folding the cells one
//!   at a time would give, field for field — and, with no DELETE in
//!   between, the counts and bounds a rebuild from the live column gives.
//! * DELETE decrements the row and null counts, per column too; bounds and
//!   ndv stay as upper bounds.
//! * The nil rule: a cell whose stored image is its column type's nil
//!   sentinel (`i64::MIN` in a BIGINT, any NaN in a DOUBLE) is NULL —
//!   what the read path returns for it — so it counts as a null and never
//!   as a bound.
//! * CHECKPOINT and the opening of a durable store *rebuild* from the live
//!   column values — the "fold" that squashes accumulated approximation
//!   error. Nothing of the statistics is stored: they are derived state.

use mammoth_types::{fnv1a, LogicalType, NativeType, TableSchema, Value, FNV_OFFSET};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Values stored (including nulls).
    pub rows: u64,
    pub nulls: u64,
    /// Distinct-value estimate (linear-counting sketch; exact while the
    /// sketch is sparse).
    pub(crate) ndv: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// The linear-counting bitmap backing `ndv` (2^14 bits), allocated at
    /// the first non-null cell, by a rebuild as by an INSERT.
    sketch: Vec<u64>,
    /// Bits set in `sketch`, kept as they are set, so that re-estimating
    /// ndv after a statement costs no pass over the bitmap.
    sketch_ones: u32,
}

const SKETCH_BITS: usize = 1 << 14;

/// The sketch's hash of a cell's bytes.
fn sketch_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, bytes);
    // FNV's low bits avalanche poorly on short keys and the sketch
    // indexes by `h mod m` — run a splitmix64 finalizer to disperse
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// NULL as a `ty` column stores it: a nil sentinel is NULL too.
fn is_null(v: &Value, ty: LogicalType) -> bool {
    v.stored_nil(ty) != Some(false)
}

/// Whether `v` replaces the running bound `cur`: there is none yet, or `v`
/// is strictly `toward` it (`Less` for a minimum), so that the first of
/// equal extremes stays.
fn beats(v: &Value, cur: Option<&Value>, toward: Ordering) -> bool {
    cur.is_none_or(|b| v.sql_cmp(b) == Some(toward))
}

/// A bound as a rebuild records it: an INT or BIGINT one widened to
/// `Value::I64`, the domain the property facts compare integer intervals in.
fn bound(v: Value, ty: LogicalType) -> Value {
    match v.as_i64() {
        Some(x) if matches!(ty, LogicalType::I64 | LogicalType::I32) => Value::I64(x),
        _ => v,
    }
}

/// A non-null cell's sketch hash, from its bytes and never a rendering.
/// Integers hash as `i64`, so that I32(5) and I64(5) agree the way SQL
/// comparison does.
fn value_hash(v: &Value) -> u64 {
    match (v.as_i64(), v) {
        (Some(x), _) => sketch_hash(&x.to_le_bytes()),
        (None, Value::F64(f)) => sketch_hash(&f.to_bits().to_le_bytes()),
        (None, Value::Str(s)) => sketch_hash(s.as_bytes()),
        (None, Value::Bool(b)) => sketch_hash(&[u8::from(*b)]),
        // an oid past i64::MAX
        (None, Value::Oid(x)) => sketch_hash(&x.to_le_bytes()),
        (None, _) => sketch_hash(&[]),
    }
}

impl ColumnStats {
    /// Build from the live cells of a fixed-width column, read in place.
    pub fn build_native<T: NativeType>(cells: &[T]) -> ColumnStats {
        let mut s = ColumnStats::default();
        let (mut lo, mut hi): (Option<T>, Option<T>) = (None, None);
        for &x in cells {
            s.rows += 1;
            if x.is_nil() {
                s.nulls += 1;
                continue;
            }
            // a stack value, no allocation: the incremental path hashes
            // `Value`s, and a rebuild must set the same sketch bits
            let v = x.to_value();
            s.sketch_set(value_hash(&v));
            if lo.is_none_or(|m| x < m) {
                lo = Some(x);
            }
            if hi.is_none_or(|m| x > m) {
                hi = Some(x);
            }
        }
        s.min = lo.map(|x| bound(x.to_value(), T::LOGICAL));
        s.max = hi.map(|x| bound(x.to_value(), T::LOGICAL));
        s.ndv = s.sketch_estimate();
        s
    }

    /// Build from the live cells of a string column, `None` for NULL.
    pub fn build_strs<'a>(cells: impl Iterator<Item = Option<&'a str>>) -> ColumnStats {
        let mut s = ColumnStats::default();
        let (mut lo, mut hi): (Option<&str>, Option<&str>) = (None, None);
        for cell in cells {
            s.rows += 1;
            let Some(x) = cell else {
                s.nulls += 1;
                continue;
            };
            s.sketch_set(sketch_hash(x.as_bytes()));
            if lo.is_none_or(|m| x < m) {
                lo = Some(x);
            }
            if hi.is_none_or(|m| x > m) {
                hi = Some(x);
            }
        }
        s.min = lo.map(|x| Value::Str(x.to_string()));
        s.max = hi.map(|x| Value::Str(x.to_string()));
        s.ndv = s.sketch_estimate();
        s
    }

    /// The predecessor of the typed builders, one boxed [`Value`] per
    /// cell: kept as their oracle.
    #[cfg(test)]
    fn build(ty: LogicalType, values: &[Value]) -> ColumnStats {
        let mut s = ColumnStats::default();
        for v in values {
            s.rows += 1;
            if v.is_null() {
                s.nulls += 1;
                continue;
            }
            s.sketch_set(value_hash(v));
            if beats(v, s.min.as_ref(), Ordering::Less) {
                s.min = Some(v.clone());
            }
            if beats(v, s.max.as_ref(), Ordering::Greater) {
                s.max = Some(v.clone());
            }
        }
        s.min = s.min.map(|v| bound(v, ty));
        s.max = s.max.map(|v| bound(v, ty));
        s.ndv = s.sketch_estimate();
        s
    }

    fn sketch_set(&mut self, hash: u64) {
        if self.sketch.is_empty() {
            self.sketch = vec![0u64; SKETCH_BITS / 64];
        }
        let bit = (hash as usize) % SKETCH_BITS;
        let (word, mask) = (&mut self.sketch[bit / 64], 1u64 << (bit % 64));
        self.sketch_ones += u32::from(*word & mask == 0);
        *word |= mask;
    }

    fn sketch_estimate(&self) -> u64 {
        debug_assert_eq!(
            self.sketch_ones,
            self.sketch.iter().map(|w| w.count_ones()).sum::<u32>()
        );
        let m = SKETCH_BITS as f64;
        let zeros = m - self.sketch_ones as f64;
        if zeros <= 0.5 {
            return self.rows - self.nulls; // sketch saturated: give up
        }
        (-(m) * (zeros / m).ln()).round() as u64
    }

    /// Fold one statement's inserted cells of a `ty` column in, in one pass:
    /// counts and sketch bits per cell, the ndv estimate once, and a bound
    /// cloned — as the column stores it, widened as a rebuild widens it —
    /// only once it has survived the column. A batch of one cell is the
    /// per-cell fold; a longer batch ends where that many one-cell batches
    /// would, field for field.
    fn insert_cells<'a>(&mut self, ty: LogicalType, cells: impl Iterator<Item = &'a Value>) {
        let (mut lo, mut hi): (Option<&Value>, Option<&Value>) = (None, None);
        let mut folded = false;
        for v in cells {
            self.rows += 1;
            if is_null(v, ty) {
                self.nulls += 1;
                continue;
            }
            folded = true;
            self.sketch_set(value_hash(v));
            if beats(v, lo.or(self.min.as_ref()), Ordering::Less) {
                lo = Some(v);
            }
            if beats(v, hi.or(self.max.as_ref()), Ordering::Greater) {
                hi = Some(v);
            }
        }
        if folded {
            self.ndv = self.sketch_estimate();
        }
        let stored = |v: &Value| bound(v.coerce(ty).unwrap_or_else(|| v.clone()), ty);
        if let Some(v) = lo {
            self.min = Some(stored(v));
        }
        if let Some(v) = hi {
            self.max = Some(stored(v));
        }
    }

    /// Fold one statement's deleted cells of a `ty` column out: the row and
    /// null counts (bounds and ndv stay as upper bounds — the CHECKPOINT
    /// fold tightens them).
    fn delete_cells<'a>(&mut self, ty: LogicalType, cells: impl Iterator<Item = &'a Value>) {
        for v in cells {
            self.rows = self.rows.saturating_sub(1);
            if is_null(v, ty) {
                self.nulls = self.nulls.saturating_sub(1);
            }
        }
    }

    /// Distinct values, never reported as 0 for a non-empty column.
    pub(crate) fn ndv_clamped(&self) -> u64 {
        self.ndv
            .clamp(1, (self.rows - self.nulls.min(self.rows)).max(1))
    }
}

/// Statistics of one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Live rows now (incrementally maintained).
    pub rows: u64,
    pub columns: HashMap<String, ColumnStats>,
}

/// Per-table statistics for every table of a catalog.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsCatalog {
    tables: HashMap<String, TableStats>,
}

impl StatsCatalog {
    pub fn new() -> StatsCatalog {
        StatsCatalog::default()
    }

    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    pub fn column(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.table(table)?.columns.get(column)
    }

    /// Register an empty table (CREATE TABLE).
    pub fn create_table(&mut self, name: &str, columns: &[String]) {
        let mut t = TableStats::default();
        for c in columns {
            t.columns.insert(c.clone(), ColumnStats::default());
        }
        self.tables.insert(name.to_string(), t);
    }

    pub fn drop_table(&mut self, name: &str) {
        self.tables.remove(name);
    }

    /// Replace one table's stats with ones freshly built from its live
    /// columns ([`ColumnStats::build_native`], [`ColumnStats::build_strs`])
    /// — the CHECKPOINT fold and the rebuild at open.
    pub fn rebuild_table(&mut self, name: &str, columns: Vec<(String, ColumnStats)>) {
        let mut t = TableStats::default();
        for (cname, stats) in columns {
            t.rows = t.rows.max(stats.rows);
            t.columns.insert(cname, stats);
        }
        self.tables.insert(name.to_string(), t);
    }

    /// Fold one statement's inserted rows in, a column at a time. The rows
    /// are laid out row-major in one array, as `schema`'s columns: column
    /// `i` is every `arity`-th cell from `i`. A value the column stores as
    /// its nil sentinel counts as NULL, as it reads back.
    pub fn on_insert(&mut self, schema: &TableSchema, cells: &[Value]) {
        let Some(t) = self.tables.get_mut(&schema.name) else {
            return;
        };
        let arity = schema.columns.len();
        t.rows += (cells.len() / arity.max(1)) as u64;
        for (i, def) in schema.columns.iter().enumerate() {
            if let Some(cs) = t.columns.get_mut(&def.name) {
                cs.insert_cells(def.ty, cells.iter().skip(i).step_by(arity));
            }
        }
    }

    /// Fold one statement's deleted rows (read back from the table, laid
    /// out as `schema`'s columns) out, a column at a time.
    pub fn on_delete(&mut self, schema: &TableSchema, rows: &[Vec<Value>]) {
        let Some(t) = self.tables.get_mut(&schema.name) else {
            return;
        };
        t.rows = t.rows.saturating_sub(rows.len() as u64);
        for (i, def) in schema.columns.iter().enumerate() {
            if let Some(cs) = t.columns.get_mut(&def.name) {
                cs.delete_cells(def.ty, rows.iter().filter_map(|row| row.get(i)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&x| Value::I64(x)).collect()
    }

    /// The typed builders agree with their `Value`-at-a-time predecessor
    /// on every logical type — down to the sketch bits, which the
    /// incremental path goes on to update.
    #[test]
    fn typed_builders_match_the_value_oracle() {
        use mammoth_types::Oid;
        fn check<T: NativeType>(cells: Vec<T>) {
            let values: Vec<Value> = cells.iter().map(|x| x.to_value()).collect();
            let want = ColumnStats::build(T::LOGICAL, &values);
            assert_eq!(ColumnStats::build_native(&cells), want, "{}", T::LOGICAL);
        }
        let n = 3000u64;
        let mix = |i: u64| i.wrapping_mul(0x9e3779b97f4a7c15) >> 20;
        check((0..n).map(|i| mix(i) % 2 == 0).collect::<Vec<bool>>());
        check((0..n).map(|i| (mix(i) % 255) as i8).collect::<Vec<i8>>());
        check(
            (0..n)
                .map(|i| (mix(i) % 60_000) as i16)
                .collect::<Vec<i16>>(),
        );
        check(
            (0..n)
                .map(|i| if i % 11 == 0 { i32::NIL } else { mix(i) as i32 })
                .collect::<Vec<i32>>(),
        );
        check(
            (0..n)
                .map(|i| {
                    if i % 7 == 0 {
                        i64::NIL
                    } else {
                        mix(i) as i64 - (1 << 42)
                    }
                })
                .collect::<Vec<i64>>(),
        );
        check(
            (0..n)
                .map(|i| match i % 13 {
                    0 => f64::NIL,
                    1 => -0.0,
                    2 => 0.0,
                    _ => mix(i) as f64 / 7.0 - 1e6,
                })
                .collect::<Vec<f64>>(),
        );
        check(
            (0..n)
                .map(|i| if i % 5 == 0 { Oid::NIL } else { mix(i) % 500 })
                .collect::<Vec<Oid>>(),
        );
        check(vec![u64::MAX - 1 as Oid, 3]); // an oid past i64: hashed as u64
        check(Vec::<i64>::new());
        check(vec![i64::NIL; 4]);

        let strs: Vec<Option<String>> = (0..n)
            .map(|i| (i % 9 != 0).then(|| format!("naïve-{}", mix(i) % 700)))
            .collect();
        let values: Vec<Value> = strs
            .iter()
            .map(|s| s.clone().map_or(Value::Null, Value::Str))
            .collect();
        assert_eq!(
            ColumnStats::build_strs(strs.iter().map(|s| s.as_deref())),
            ColumnStats::build(LogicalType::Str, &values)
        );
        assert_eq!(
            ColumnStats::build_strs(std::iter::empty()),
            ColumnStats::build(LogicalType::Str, &[])
        );
    }

    #[test]
    fn build_counts_bounds_ndv() {
        let vals = ints(&[5, 1, 9, 1, 5, 7, 3, 1]);
        let s = ColumnStats::build(LogicalType::I64, &vals);
        assert_eq!(s.rows, 8);
        assert_eq!(s.nulls, 0);
        assert_eq!(s.min, Some(Value::I64(1)));
        assert_eq!(s.max, Some(Value::I64(9)));
        assert_eq!(s.ndv, 5, "small columns count distinct exactly");
    }

    #[test]
    fn nulls_tracked_separately() {
        let mut vals = ints(&[1, 2]);
        vals.push(Value::Null);
        let s = ColumnStats::build(LogicalType::I64, &vals);
        assert_eq!(s.rows, 3);
        assert_eq!(s.nulls, 1);
        assert_eq!((s.min, s.max), (Some(Value::I64(1)), Some(Value::I64(2))));
    }

    #[test]
    fn ndv_estimate_stays_close_at_scale() {
        let vals: Vec<Value> = (0..50_000).map(|i| Value::I64(i % 1000)).collect();
        let s = ColumnStats::build(LogicalType::I64, &vals);
        let err = (s.ndv as f64 - 1000.0).abs() / 1000.0;
        assert!(err < 0.1, "ndv {} for 1000 distinct", s.ndv);
    }

    #[test]
    fn incremental_insert_delete_keeps_totals() {
        let mut s = ColumnStats::build(LogicalType::I64, &ints(&[1, 2, 3]));
        s.insert_cells(LogicalType::I64, [Value::I64(10), Value::Null].iter());
        assert_eq!(s.rows, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.max, Some(Value::I64(10)), "bounds widen on insert");
        s.delete_cells(LogicalType::I64, [Value::I64(2), Value::Null].iter());
        assert_eq!((s.rows, s.nulls), (3, 0));
        assert_eq!(s.min, Some(Value::I64(1)), "a delete never narrows bounds");
    }

    /// Folding a column's cells in one batch ends where folding them one
    /// at a time does — from empty stats and from built ones — and a nil
    /// sentinel is a null either way.
    #[test]
    fn a_column_folds_in_one_batch_as_one_cell_at_a_time() {
        let mix = |i: u64| i.wrapping_mul(0x9e3779b97f4a7c15) >> 40;
        let ints: Vec<Value> = (0..700u64)
            .map(|i| match mix(i) % 11 {
                0 => Value::Null,
                1 => Value::I32(mix(i) as i32 % 50),
                2 => Value::I64(i64::MIN),
                _ => Value::I64(mix(i) as i64 % 90 - 45),
            })
            .collect();
        let floats: Vec<Value> = (0..700u64)
            .map(|i| match mix(i) % 9 {
                0 => Value::Null,
                1 => Value::F64(-0.0),
                2 => Value::F64(f64::INFINITY),
                3 => Value::F64(f64::NAN),
                4 => Value::I64(3),
                _ => Value::F64(mix(i) as f64 / 7.0 - 9e4),
            })
            .collect();
        let strs: Vec<Value> = (0..700u64)
            .map(|i| match mix(i) % 7 {
                0 => Value::Null,
                n => Value::Str(format!("naïve-{}", mix(i) % (40 * n))),
            })
            .collect();
        let built = ColumnStats::build_native(&[4i64, 9]);
        for (ty, cells) in [
            (LogicalType::I64, &ints),
            (LogicalType::F64, &floats),
            (LogicalType::Str, &strs),
        ] {
            for start in [ColumnStats::default(), built.clone()] {
                for split in [0, 1, 350, 699] {
                    let (mut batched, mut one_by_one) = (start.clone(), start.clone());
                    batched.insert_cells(ty, cells[..split].iter());
                    batched.insert_cells(ty, cells[split..].iter());
                    cells
                        .iter()
                        .for_each(|v| one_by_one.insert_cells(ty, std::iter::once(v)));
                    assert_eq!(batched, one_by_one, "{ty}, split at {split}");
                    batched.delete_cells(ty, cells[..split].iter());
                    cells[..split]
                        .iter()
                        .for_each(|v| one_by_one.delete_cells(ty, std::iter::once(v)));
                    assert_eq!(batched, one_by_one, "{ty}, deleted {split}");
                }
            }
        }
        let mut s = ColumnStats::default();
        s.insert_cells(LogicalType::F64, floats.iter());
        let bounds = [&s.min, &s.max].map(|b| b.as_ref().and_then(Value::as_f64));
        assert!(
            bounds.iter().all(|b| b.is_some_and(|f| !f.is_nan())),
            "NaN is NULL"
        );
    }

    #[test]
    fn an_insert_folds_into_rows_and_bounds() {
        let mut sc = StatsCatalog::new();
        sc.rebuild_table(
            "t",
            vec![("a".into(), ColumnStats::build_native(&[1i64, 2]))],
        );
        let schema = TableSchema::new(
            "t",
            vec![mammoth_types::ColumnDef::new("a", LogicalType::I64)],
        );
        sc.on_insert(&schema, &[Value::I64(3), Value::I64(4)]);
        assert_eq!(sc.column("t", "a").unwrap().max, Some(Value::I64(4)));
        assert_eq!(sc.table("t").unwrap().rows, 4);
    }

    #[test]
    fn integer_bounds_widen_to_bigint() {
        let s = ColumnStats::build(LogicalType::I32, &ints(&[7, -3, 12]));
        // bounds come back as I64, the domain integer facts compare in
        assert_eq!(s.min, Some(Value::I64(-3)));
        assert_eq!(s.max, Some(Value::I64(12)));
        // an INSERT's literal is a bound as the rebuild records it
        let cells = [Value::I32(5), Value::I64(9), Value::I32(-2)];
        for ty in [LogicalType::I32, LogicalType::I64] {
            let mut folded = ColumnStats::default();
            folded.insert_cells(ty, cells.iter());
            assert_eq!(folded, ColumnStats::build(ty, &cells), "{ty}");
        }
    }
}
