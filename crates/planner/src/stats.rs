//! Per-column statistics: row/null counts, distinct-value estimates,
//! min/max bounds, and equi-depth histograms.
//!
//! The statistics are *advisory*: every consumer (selectivity estimation,
//! select-algorithm gating, piece-count choice) degrades gracefully when a
//! column has no stats or the stats have drifted. Correctness never
//! depends on them — the plan cache separately re-checks the *soundness*
//! premises (column properties) a cached rewrite was proven under.
//!
//! Maintenance discipline:
//! * `CREATE TABLE` registers an empty [`TableStats`].
//! * INSERT folds a statement's rows in incrementally, per statement and
//!   one column at a time: one loop over a column's cells updates counts,
//!   ndv sketch bits and histogram buckets (found by binary search over
//!   the bounds, clamped at the edges); the ndv estimate is re-derived and
//!   a new bound cloned once per column. The result is the one folding
//!   the cells one at a time would give, field for field.
//! * DELETE decrements conservatively and marks drift, per column too.
//! * The nil rule: a cell whose stored image is its column type's nil
//!   sentinel (`i64::MIN` in a BIGINT, any NaN in a DOUBLE) is NULL —
//!   what the read path returns for it — so it counts as a null and the
//!   histogram never sees a NaN.
//! * CHECKPOINT (and recovery self-heal) *rebuilds* from the live column
//!   values — the "fold" that squashes accumulated approximation error.

use mammoth_index::ZoneMap;
use mammoth_types::{
    fnv1a, Error, LogicalType, NativeType, Result, TableSchema, Value, FNV_OFFSET,
};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Default number of equi-depth histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// An equi-depth histogram over the f64 projection of a numeric column.
///
/// Invariants (property-tested):
/// * `counts.len() == bounds.len()`
/// * `counts.iter().sum() == total` == number of non-null numeric values
/// * every value `v` satisfies `lo <= v <= bounds.last()` where `lo` is
///   the histogram's recorded minimum
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Lowest value covered (inclusive).
    pub lo: f64,
    /// Per-bucket inclusive upper bounds, non-decreasing.
    pub bounds: Vec<f64>,
    /// Per-bucket value counts.
    pub counts: Vec<u64>,
    /// Sum of `counts`.
    pub total: u64,
}

impl Histogram {
    /// Build an equi-depth histogram from (unsorted) values.
    pub fn build(mut vals: Vec<f64>, buckets: usize) -> Option<Histogram> {
        if vals.is_empty() || buckets == 0 {
            return None;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = vals.len();
        let b = buckets.min(n);
        let mut bounds = Vec::with_capacity(b);
        let mut counts = Vec::with_capacity(b);
        let mut start = 0usize;
        for k in 0..b {
            // equal-depth split: bucket k covers ranks [start, end)
            let mut end = ((k + 1) * n) / b;
            // never split a run of equal values across buckets — the CDF
            // interpolation assumes bucket bounds are honest
            while end < n && end > 0 && vals[end] == vals[end - 1] {
                end += 1;
            }
            if end <= start {
                continue;
            }
            bounds.push(vals[end - 1]);
            counts.push((end - start) as u64);
            start = end;
            if start >= n {
                break;
            }
        }
        Some(Histogram {
            lo: vals[0],
            bounds,
            counts,
            total: n as u64,
        })
    }

    /// The first bucket whose bound is `>= v`, by binary search over the
    /// non-decreasing bounds; `bounds.len()` when `v` is above them all.
    fn bucket(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    /// Fold one inserted value in: bump the covering bucket (clamped to
    /// the nearest edge bucket when the value falls outside the bounds,
    /// widening the recorded range so containment still holds).
    pub fn add(&mut self, v: f64) {
        if self.counts.is_empty() {
            self.lo = v;
            self.bounds = vec![v];
            self.counts = vec![1];
            self.total = 1;
            return;
        }
        if v < self.lo {
            self.lo = v;
        }
        let last = self.bounds.len() - 1;
        let idx = self.bucket(v);
        if idx > last {
            self.bounds[last] = v; // widen the top bucket
        }
        self.counts[idx.min(last)] += 1;
        self.total += 1;
    }

    /// Remove one value (conservatively — the bucket may underflow to the
    /// neighbor when approximation error accumulated; the fold at
    /// CHECKPOINT rebuilds exactly).
    pub fn remove(&mut self, v: f64) {
        if self.total == 0 {
            return;
        }
        let idx = self.bucket(v).min(self.bounds.len() - 1);
        // steal from the nearest non-empty bucket if this one is empty
        let idx = (idx..self.counts.len())
            .chain((0..idx).rev())
            .find(|&k| self.counts[k] > 0)
            .unwrap_or(idx);
        if self.counts[idx] > 0 {
            self.counts[idx] -= 1;
            self.total -= 1;
        }
    }

    /// Estimated fraction of values `<= x` (linear interpolation inside
    /// the covering bucket).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if x < self.lo {
            return 0.0;
        }
        let mut below = 0u64;
        let mut prev = self.lo;
        for (k, &hi) in self.bounds.iter().enumerate() {
            if x >= hi {
                below += self.counts[k];
                prev = hi;
                continue;
            }
            // interpolate inside bucket k
            let width = hi - prev;
            let frac = if width > 0.0 {
                ((x - prev) / width).clamp(0.0, 1.0)
            } else {
                1.0
            };
            return (below as f64 + frac * self.counts[k] as f64) / self.total as f64;
        }
        1.0
    }
}

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Values stored (including nulls).
    pub rows: u64,
    pub nulls: u64,
    /// Distinct-value estimate (linear-counting sketch; exact while the
    /// sketch is sparse).
    pub ndv: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub histogram: Option<Histogram>,
    /// The linear-counting bitmap backing `ndv` (fixed 2^14 bits).
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
    fn with_sketch() -> ColumnStats {
        ColumnStats {
            sketch: vec![0u64; SKETCH_BITS / 64],
            ..ColumnStats::default()
        }
    }

    /// Build from the live cells of a fixed-width column, read in place.
    /// For integer columns the min/max bounds are seeded from a
    /// `crates/index` zone map (the same structure the scan path prunes
    /// with) rather than re-derived.
    pub fn build_native<T: NativeType>(cells: &[T]) -> ColumnStats {
        let mut s = ColumnStats::with_sketch();
        let zone_mapped = matches!(T::LOGICAL, LogicalType::I64 | LogicalType::I32);
        let mut ints: Vec<i64> = Vec::new();
        let mut numeric: Vec<f64> = Vec::new();
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
            if zone_mapped {
                ints.extend(v.as_i64());
            }
            numeric.extend(v.as_f64());
            if lo.is_none_or(|m| x < m) {
                lo = Some(x);
            }
            if hi.is_none_or(|m| x > m) {
                hi = Some(x);
            }
        }
        s.min = lo.map(|x| x.to_value());
        s.max = hi.map(|x| x.to_value());
        // zone-map seeding: integer bounds come from the index structure
        if let Some((lo, hi)) = ZoneMap::build(&ints, 1024).bounds() {
            s.min = Some(Value::I64(lo));
            s.max = Some(Value::I64(hi));
        }
        s.ndv = s.sketch_estimate();
        s.histogram = Histogram::build(numeric, HISTOGRAM_BUCKETS);
        s
    }

    /// Build from the live cells of a string column, `None` for NULL.
    pub fn build_strs<'a>(cells: impl Iterator<Item = Option<&'a str>>) -> ColumnStats {
        let mut s = ColumnStats::with_sketch();
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
        let mut s = ColumnStats::with_sketch();
        let mut numeric: Vec<f64> = Vec::new();
        let mut ints: Vec<i64> = Vec::new();
        for v in values {
            s.rows += 1;
            if v.is_null() {
                s.nulls += 1;
                continue;
            }
            s.sketch_set(value_hash(v));
            if ty == LogicalType::I64 || ty == LogicalType::I32 {
                if let Some(x) = v.as_i64() {
                    ints.push(x);
                }
            }
            if let Some(f) = v.as_f64() {
                numeric.push(f);
            }
            if beats(v, s.min.as_ref(), Ordering::Less) {
                s.min = Some(v.clone());
            }
            if beats(v, s.max.as_ref(), Ordering::Greater) {
                s.max = Some(v.clone());
            }
        }
        if !ints.is_empty() {
            let zm = ZoneMap::build(&ints, 1024);
            if let Some((lo, hi)) = zm.bounds() {
                s.min = Some(Value::I64(lo));
                s.max = Some(Value::I64(hi));
            }
        }
        s.ndv = s.sketch_estimate();
        s.histogram = Histogram::build(numeric, HISTOGRAM_BUCKETS);
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
    /// counts, sketch bits and histogram buckets per cell, the ndv estimate
    /// once, and a bound cloned only once it has survived the column. A
    /// batch of one cell is the per-cell fold; a longer batch ends where
    /// that many one-cell batches would, field for field.
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
            if let Some(f) = v.as_f64() {
                self.histogram.get_or_insert_with(Histogram::default).add(f);
            }
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
        if let Some(v) = lo {
            self.min = Some(v.clone());
        }
        if let Some(v) = hi {
            self.max = Some(v.clone());
        }
    }

    /// Fold one statement's deleted cells of a `ty` column out (bounds and
    /// ndv stay as upper bounds — the CHECKPOINT fold tightens them).
    fn delete_cells<'a>(&mut self, ty: LogicalType, cells: impl Iterator<Item = &'a Value>) {
        for v in cells {
            self.rows = self.rows.saturating_sub(1);
            if is_null(v, ty) {
                self.nulls = self.nulls.saturating_sub(1);
                continue;
            }
            if let (Some(f), Some(h)) = (v.as_f64(), &mut self.histogram) {
                h.remove(f);
            }
        }
    }

    /// Distinct values, never reported as 0 for a non-empty column.
    pub fn ndv_clamped(&self) -> u64 {
        self.ndv
            .clamp(1, (self.rows - self.nulls.min(self.rows)).max(1))
    }
}

/// Statistics of one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Live rows now (incrementally maintained).
    pub rows: u64,
    /// Live rows when the per-column stats were last (re)built — the
    /// baseline the drift test compares against.
    pub rows_at_build: u64,
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Relative drift since the last rebuild: `|rows - rows_at_build|`
    /// over the baseline.
    pub fn drift(&self) -> f64 {
        let base = self.rows_at_build.max(1) as f64;
        (self.rows as f64 - self.rows_at_build as f64).abs() / base
    }
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

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
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
    /// — the CHECKPOINT fold and the recovery self-heal.
    pub fn rebuild_table(&mut self, name: &str, columns: Vec<(String, ColumnStats)>) {
        let mut t = TableStats::default();
        for (cname, stats) in columns {
            t.rows = t.rows.max(stats.rows);
            t.columns.insert(cname, stats);
        }
        t.rows_at_build = t.rows;
        self.tables.insert(name.to_string(), t);
    }

    /// Fold one statement's inserted rows (laid out as `schema`'s columns)
    /// in, a column at a time. A value the column stores as its nil
    /// sentinel counts as NULL, as it reads back.
    pub fn on_insert(&mut self, schema: &TableSchema, rows: &[Vec<Value>]) {
        let Some(t) = self.tables.get_mut(&schema.name) else {
            return;
        };
        t.rows += rows.len() as u64;
        for (i, def) in schema.columns.iter().enumerate() {
            if let Some(cs) = t.columns.get_mut(&def.name) {
                cs.insert_cells(def.ty, rows.iter().filter_map(|row| row.get(i)));
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

    /// Serialize to the checkpoint sidecar format (versioned, line-based).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = String::from("MSTATS1\n");
        let mut tnames: Vec<&String> = self.tables.keys().collect();
        tnames.sort();
        for tn in tnames {
            let t = &self.tables[tn];
            out.push_str(&format!("table {} {} {}\n", tn, t.rows, t.rows_at_build));
            let mut cnames: Vec<&String> = t.columns.keys().collect();
            cnames.sort();
            for cn in cnames {
                let c = &t.columns[cn];
                out.push_str(&format!(
                    "col {} {} {} {} {} {}\n",
                    cn,
                    c.rows,
                    c.nulls,
                    c.ndv,
                    encode_value(c.min.as_ref()),
                    encode_value(c.max.as_ref()),
                ));
                if let Some(h) = &c.histogram {
                    out.push_str(&format!(
                        "hist {} {} ; {}\n",
                        h.lo,
                        h.bounds
                            .iter()
                            .map(|b| format!("{b}"))
                            .collect::<Vec<_>>()
                            .join(" "),
                        h.counts
                            .iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join(" "),
                    ));
                }
            }
        }
        out.into_bytes()
    }

    /// Parse the sidecar format. The ndv *sketch* is not persisted: a
    /// loaded catalog reports the stored estimates until the next fold
    /// rebuilds the sketches.
    pub fn deserialize(bytes: &[u8]) -> Result<StatsCatalog> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| Error::Corrupt("stats sidecar is not utf-8".into()))?;
        let mut lines = text.lines();
        if lines.next() != Some("MSTATS1") {
            return Err(Error::Corrupt(
                "stats sidecar missing MSTATS1 header".into(),
            ));
        }
        let corrupt = |m: &str| Error::Corrupt(format!("stats sidecar: {m}"));
        let mut out = StatsCatalog::new();
        let mut cur_table: Option<String> = None;
        let mut cur_col: Option<String> = None;
        for line in lines {
            let mut parts = line.split(' ');
            match parts.next() {
                Some("table") => {
                    let name = parts.next().ok_or_else(|| corrupt("table name"))?;
                    let rows = parse_u64(parts.next())?;
                    let at_build = parse_u64(parts.next())?;
                    out.tables.insert(
                        name.to_string(),
                        TableStats {
                            rows,
                            rows_at_build: at_build,
                            columns: HashMap::new(),
                        },
                    );
                    cur_table = Some(name.to_string());
                    cur_col = None;
                }
                Some("col") => {
                    let t = cur_table
                        .as_ref()
                        .and_then(|n| out.tables.get_mut(n))
                        .ok_or_else(|| corrupt("col before table"))?;
                    let name = parts.next().ok_or_else(|| corrupt("col name"))?;
                    let c = ColumnStats {
                        rows: parse_u64(parts.next())?,
                        nulls: parse_u64(parts.next())?,
                        ndv: parse_u64(parts.next())?,
                        min: decode_value(parts.next().ok_or_else(|| corrupt("min"))?)?,
                        max: decode_value(parts.next().ok_or_else(|| corrupt("max"))?)?,
                        ..ColumnStats::default()
                    };
                    t.columns.insert(name.to_string(), c);
                    cur_col = Some(name.to_string());
                }
                Some("hist") => {
                    let t = cur_table
                        .as_ref()
                        .and_then(|n| out.tables.get_mut(n))
                        .ok_or_else(|| corrupt("hist before table"))?;
                    let c = cur_col
                        .as_ref()
                        .and_then(|n| t.columns.get_mut(n))
                        .ok_or_else(|| corrupt("hist before col"))?;
                    let rest = line.strip_prefix("hist ").unwrap_or("");
                    let (head, counts_s) = rest
                        .split_once(" ; ")
                        .ok_or_else(|| corrupt("hist split"))?;
                    let mut nums = head.split(' ');
                    let lo: f64 = nums
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| corrupt("hist lo"))?;
                    let bounds: Vec<f64> = nums
                        .map(|s| s.parse().map_err(|_| corrupt("hist bound")))
                        .collect::<Result<_>>()?;
                    let counts: Vec<u64> = counts_s
                        .split(' ')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().map_err(|_| corrupt("hist count")))
                        .collect::<Result<_>>()?;
                    // untrusted bytes: a total past u64 is corruption, not
                    // an overflow panic (nor, in release, a wrapped total)
                    let total = counts.iter().try_fold(0u64, |t, &n| t.checked_add(n));
                    let Some(total) = total.filter(|_| bounds.len() == counts.len()) else {
                        return Err(corrupt("hist bounds/counts mismatch or count overflow"));
                    };
                    c.histogram = Some(Histogram {
                        lo,
                        bounds,
                        counts,
                        total,
                    });
                }
                Some("") | None => {}
                Some(other) => return Err(corrupt(&format!("unknown record {other}"))),
            }
        }
        Ok(out)
    }
}

fn parse_u64(s: Option<&str>) -> Result<u64> {
    s.and_then(|x| x.parse().ok())
        .ok_or_else(|| Error::Corrupt("stats sidecar: bad integer".into()))
}

fn encode_value(v: Option<&Value>) -> String {
    match v {
        None => "-".into(),
        Some(v) if v.is_null() => "null".into(),
        Some(v) => match (v.as_i64(), v.as_f64(), v.as_str()) {
            (Some(x), _, _) => format!("i:{x}"),
            (None, Some(f), _) => format!("f:{:016x}", f.to_bits()),
            (None, None, Some(s)) => {
                let hex: String = s.bytes().map(|b| format!("{b:02x}")).collect();
                format!("s:{hex}")
            }
            _ => "-".into(),
        },
    }
}

fn decode_value(s: &str) -> Result<Option<Value>> {
    let corrupt = || Error::Corrupt(format!("stats sidecar: bad value {s}"));
    Ok(match s {
        "-" => None,
        "null" => Some(Value::Null),
        _ => match s.split_once(':') {
            Some(("i", x)) => Some(Value::I64(x.parse().map_err(|_| corrupt())?)),
            Some(("f", x)) => Some(Value::F64(f64::from_bits(
                u64::from_str_radix(x, 16).map_err(|_| corrupt())?,
            ))),
            Some(("s", hex)) => {
                if hex.len() % 2 != 0 || !hex.is_ascii() {
                    return Err(corrupt());
                }
                let bytes: Vec<u8> = (0..hex.len() / 2)
                    .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16))
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|_| corrupt())?;
                Some(Value::Str(String::from_utf8(bytes).map_err(|_| corrupt())?))
            }
            _ => return Err(corrupt()),
        },
    })
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
        let h = s.histogram.as_ref().unwrap();
        assert_eq!(h.total, 8);
        assert_eq!(h.counts.iter().sum::<u64>(), 8);
    }

    #[test]
    fn nulls_tracked_separately() {
        let mut vals = ints(&[1, 2]);
        vals.push(Value::Null);
        let s = ColumnStats::build(LogicalType::I64, &vals);
        assert_eq!(s.rows, 3);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.histogram.as_ref().unwrap().total, 2);
    }

    #[test]
    fn ndv_estimate_stays_close_at_scale() {
        let vals: Vec<Value> = (0..50_000).map(|i| Value::I64(i % 1000)).collect();
        let s = ColumnStats::build(LogicalType::I64, &vals);
        let err = (s.ndv as f64 - 1000.0).abs() / 1000.0;
        assert!(err < 0.1, "ndv {} for 1000 distinct", s.ndv);
    }

    #[test]
    fn histogram_cdf_is_monotone_and_bounded() {
        let h = Histogram::build((0..1000).map(|i| i as f64).collect(), 16).unwrap();
        let mut prev = -1.0;
        for x in [-5.0, 0.0, 100.0, 499.5, 999.0, 2000.0] {
            let c = h.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev, "cdf must be monotone");
            prev = c;
        }
        assert_eq!(h.cdf(-5.0), 0.0);
        assert_eq!(h.cdf(2000.0), 1.0);
        // the median of 0..1000 is near 500
        assert!((h.cdf(500.0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn incremental_insert_delete_keeps_totals() {
        let mut s = ColumnStats::build(LogicalType::I64, &ints(&[1, 2, 3]));
        s.insert_cells(LogicalType::I64, [Value::I64(10), Value::Null].iter());
        assert_eq!(s.rows, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.max, Some(Value::I64(10)), "bounds widen on insert");
        let h = s.histogram.as_ref().unwrap();
        assert_eq!(h.total, 4);
        assert_eq!(h.counts.iter().sum::<u64>(), h.total);
        s.delete_cells(LogicalType::I64, [Value::I64(2)].iter());
        assert_eq!(s.rows, 4);
        assert_eq!(s.histogram.as_ref().unwrap().total, 3);
    }

    /// Folding a column's cells in one batch ends where folding them one
    /// at a time does — from empty stats, from built ones, and from ones
    /// loaded without a sketch — and a nil sentinel is a null either way.
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
        // what a session holds once it has read the sidecar: no sketch
        let mut sc = StatsCatalog::new();
        sc.rebuild_table(
            "t",
            vec![("a".into(), ColumnStats::build_native(&[4i64, 9]))],
        );
        let sidecar = StatsCatalog::deserialize(&sc.serialize()).unwrap();
        let loaded = sidecar.column("t", "a").unwrap().clone();
        assert!(loaded.sketch.is_empty() && loaded.ndv == 2);
        for (ty, cells) in [
            (LogicalType::I64, &ints),
            (LogicalType::F64, &floats),
            (LogicalType::Str, &strs),
        ] {
            for start in [ColumnStats::default(), loaded.clone()] {
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
        let h = s.histogram.as_ref().unwrap();
        assert!(h.bounds.iter().all(|b| !b.is_nan()), "NaN is NULL");
        assert!(s
            .min
            .as_ref()
            .and_then(Value::as_f64)
            .is_some_and(|m| !m.is_nan()));
    }

    #[test]
    fn the_bucket_binary_search_is_the_first_covering_bound() {
        let h = Histogram {
            lo: -1.0,
            bounds: vec![0.0, 0.0, 2.0, 2.0, 2.0, 5.0, f64::INFINITY],
            counts: vec![1; 7],
            total: 7,
        };
        for v in [-2.0, -0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 1e300, f64::INFINITY] {
            let linear = h.bounds.iter().position(|&b| v <= b).unwrap_or(7);
            assert_eq!(h.bucket(v), linear, "{v}");
        }
    }

    #[test]
    fn catalog_roundtrips_through_sidecar() {
        let mut sc = StatsCatalog::new();
        sc.rebuild_table(
            "t",
            vec![
                (
                    "a".into(),
                    ColumnStats::build_native(&[3i64, 1, 4, 1, 5, 9, 2, 6]),
                ),
                (
                    "s".into(),
                    ColumnStats::build_strs([Some("x"), None, Some("naïve")].into_iter()),
                ),
            ],
        );
        sc.rebuild_table(
            "u",
            vec![("f".into(), ColumnStats::build_native(&[2.5f64]))],
        );
        let bytes = sc.serialize();
        let back = StatsCatalog::deserialize(&bytes).unwrap();
        for (t, c) in [("t", "a"), ("t", "s"), ("u", "f")] {
            let orig = sc.column(t, c).unwrap();
            let got = back.column(t, c).unwrap();
            assert_eq!(orig.rows, got.rows, "{t}.{c}");
            assert_eq!(orig.nulls, got.nulls);
            assert_eq!(orig.ndv, got.ndv);
            assert_eq!(orig.min, got.min);
            assert_eq!(orig.max, got.max);
            assert_eq!(orig.histogram, got.histogram);
        }
        assert_eq!(back.table("t").unwrap().rows, 8);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(StatsCatalog::deserialize(b"nope").is_err());
        assert!(StatsCatalog::deserialize(b"MSTATS1\nbogus record").is_err());
        assert!(StatsCatalog::deserialize(b"MSTATS1\ncol a 1 0 1 - -").is_err());
        assert!(StatsCatalog::deserialize(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn overflowing_histogram_counts_are_corrupt() {
        let sidecar =
            b"MSTATS1\ntable t 1 1\ncol a 1 0 1 - -\nhist 0 1 2 ; 18446744073709551615 1\n";
        assert!(matches!(
            StatsCatalog::deserialize(sidecar),
            Err(Error::Corrupt(_))
        ));
        // hex is sliced two bytes at a time: a multibyte char is corrupt
        assert!(StatsCatalog::deserialize(
            "MSTATS1\ntable t 1 1\ncol a 1 0 1 s:aéa -\n".as_bytes()
        )
        .is_err());
    }

    mod fuzz {
        //! The sidecar is written raw (no seal, no CRC) into the checkpoint
        //! directory, so its reader sees whatever a disk did to it. Damage
        //! must come back `Ok` or `Error::Corrupt` — a durable session
        //! rebuilds its statistics on either — and never as a panic.
        use super::*;
        use mammoth_types::netfault::mangle;
        use proptest::prelude::*;

        /// A sidecar whose histogram counts sum to just under 2^64, so
        /// that most flips of a count digit overflow the total.
        fn sidecar() -> Vec<u8> {
            let big = u64::MAX / 4;
            let mut out = String::from("MSTATS1\ntable t 9 9\n");
            for (col, lo) in [
                ("a", "i:-3"),
                ("b", "f:4004000000000000"),
                ("c", "s:6e61c3af7665"),
            ] {
                out.push_str(&format!(
                    "col {col} 9 1 4 {lo} -\nhist 0 1 2 3 4 ; {big} {big} {big} {big}\n"
                ));
            }
            out.into_bytes()
        }

        proptest! {
            #[test]
            fn mangled_sidecars_load_or_are_corrupt(seed in 0u64..1 << 20) {
                let clean = sidecar();
                prop_assert!(StatsCatalog::deserialize(&clean).is_ok());
                match StatsCatalog::deserialize(&mangle(&clean, seed)) {
                    Ok(_) | Err(Error::Corrupt(_)) => {}
                    Err(e) => prop_assert!(false, "seed {}: {}", seed, e),
                }
            }
        }
    }

    #[test]
    fn drift_measures_relative_change() {
        let mut sc = StatsCatalog::new();
        sc.rebuild_table(
            "t",
            vec![("a".into(), ColumnStats::build_native(&[1i64, 2]))],
        );
        assert_eq!(sc.table("t").unwrap().drift(), 0.0);
        let schema = TableSchema::new(
            "t",
            vec![mammoth_types::ColumnDef::new("a", LogicalType::I64)],
        );
        sc.on_insert(&schema, &[vec![Value::I64(3)], vec![Value::I64(4)]]);
        assert_eq!(sc.column("t", "a").unwrap().max, Some(Value::I64(4)));
        assert_eq!(sc.table("t").unwrap().rows, 4);
        assert_eq!(sc.table("t").unwrap().drift(), 1.0);
    }

    #[test]
    fn zone_map_seeds_integer_bounds() {
        let s = ColumnStats::build(LogicalType::I32, &ints(&[7, -3, 12]));
        // bounds come back as I64 (the zone map's key domain)
        assert_eq!(s.min, Some(Value::I64(-3)));
        assert_eq!(s.max, Some(Value::I64(12)));
    }
}
