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
//! * INSERT folds the new values in incrementally (counts, bounds, ndv
//!   sketch, histogram bucket bumps with clamping).
//! * DELETE decrements conservatively and marks drift.
//! * CHECKPOINT (and recovery self-heal) *rebuilds* from the live column
//!   values — the "fold" that squashes accumulated approximation error.

use mammoth_index::ZoneMap;
use mammoth_types::{Error, LogicalType, NativeType, Result, Value};
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
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or_else(|| {
            self.bounds[last] = v; // widen the top bucket
            last
        });
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Remove one value (conservatively — the bucket may underflow to the
    /// neighbor when approximation error accumulated; the fold at
    /// CHECKPOINT rebuilds exactly).
    pub fn remove(&mut self, v: f64) {
        if self.total == 0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len() - 1);
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
}

const SKETCH_BITS: usize = 1 << 14;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // FNV's low bits avalanche poorly on short keys and the sketch
    // indexes by `h mod m` — run a splitmix64 finalizer to disperse
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

fn value_hash(v: &Value) -> u64 {
    // hash through a canonical rendering so I32(5) and I64(5) agree the
    // way SQL comparison does
    match (v.as_i64(), v.as_f64(), v.as_str()) {
        (Some(x), _, _) => fnv1a(&x.to_le_bytes()),
        (None, Some(f), _) => fnv1a(&f.to_bits().to_le_bytes()),
        (None, None, Some(s)) => fnv1a(s.as_bytes()),
        _ => fnv1a(format!("{v:?}").as_bytes()),
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
            s.sketch_set(fnv1a(x.as_bytes()));
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
            s.sketch_add(v);
            if ty == LogicalType::I64 || ty == LogicalType::I32 {
                if let Some(x) = v.as_i64() {
                    ints.push(x);
                }
            }
            if let Some(f) = v.as_f64() {
                numeric.push(f);
            }
            s.fold_bounds(v);
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

    fn fold_bounds(&mut self, v: &Value) {
        let lower = match &self.min {
            None => true,
            Some(m) => matches!(v.sql_cmp(m), Some(std::cmp::Ordering::Less)),
        };
        if lower {
            self.min = Some(v.clone());
        }
        let higher = match &self.max {
            None => true,
            Some(m) => matches!(v.sql_cmp(m), Some(std::cmp::Ordering::Greater)),
        };
        if higher {
            self.max = Some(v.clone());
        }
    }

    fn sketch_add(&mut self, v: &Value) {
        self.sketch_set(value_hash(v));
    }

    fn sketch_set(&mut self, hash: u64) {
        if self.sketch.is_empty() {
            self.sketch = vec![0u64; SKETCH_BITS / 64];
        }
        let bit = (hash as usize) % SKETCH_BITS;
        self.sketch[bit / 64] |= 1u64 << (bit % 64);
    }

    fn sketch_estimate(&self) -> u64 {
        let ones: u32 = self.sketch.iter().map(|w| w.count_ones()).sum();
        let m = SKETCH_BITS as f64;
        let zeros = m - ones as f64;
        if zeros <= 0.5 {
            return self.rows - self.nulls; // sketch saturated: give up
        }
        (-(m) * (zeros / m).ln()).round() as u64
    }

    /// Fold one inserted value in.
    pub fn on_insert(&mut self, v: &Value) {
        self.rows += 1;
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        self.sketch_add(v);
        self.ndv = self.sketch_estimate();
        self.fold_bounds(v);
        if let Some(f) = v.as_f64() {
            match &mut self.histogram {
                Some(h) => h.add(f),
                None => self.histogram = Histogram::build(vec![f], HISTOGRAM_BUCKETS),
            }
        }
    }

    /// Fold one deleted value out (bounds and ndv stay as upper bounds —
    /// the CHECKPOINT fold tightens them).
    pub fn on_delete(&mut self, v: &Value) {
        self.rows = self.rows.saturating_sub(1);
        if v.is_null() {
            self.nulls = self.nulls.saturating_sub(1);
            return;
        }
        if let (Some(f), Some(h)) = (v.as_f64(), &mut self.histogram) {
            h.remove(f);
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
        self.tables.get(&name.to_lowercase())
    }

    pub fn column(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.table(table)?.columns.get(&column.to_lowercase())
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Register an empty table (CREATE TABLE).
    pub fn create_table(&mut self, name: &str, columns: &[String]) {
        let mut t = TableStats::default();
        for c in columns {
            t.columns.insert(c.to_lowercase(), ColumnStats::default());
        }
        self.tables.insert(name.to_lowercase(), t);
    }

    pub fn drop_table(&mut self, name: &str) {
        self.tables.remove(&name.to_lowercase());
    }

    /// Replace one table's stats with ones freshly built from its live
    /// columns ([`ColumnStats::build_native`], [`ColumnStats::build_strs`])
    /// — the CHECKPOINT fold and the recovery self-heal.
    pub fn rebuild_table(&mut self, name: &str, columns: Vec<(String, ColumnStats)>) {
        let mut t = TableStats::default();
        for (cname, stats) in columns {
            t.rows = t.rows.max(stats.rows);
            t.columns.insert(cname.to_lowercase(), stats);
        }
        t.rows_at_build = t.rows;
        self.tables.insert(name.to_lowercase(), t);
    }

    /// Fold inserted rows in. `columns` carries the schema's column names
    /// in row order.
    pub fn on_insert(&mut self, table: &str, columns: &[String], rows: &[Vec<Value>]) {
        let Some(t) = self.tables.get_mut(&table.to_lowercase()) else {
            return;
        };
        t.rows += rows.len() as u64;
        for row in rows {
            for (c, v) in columns.iter().zip(row) {
                t.columns.entry(c.to_lowercase()).or_default().on_insert(v);
            }
        }
    }

    /// Fold deleted rows out; `rows` carries the deleted values when the
    /// caller has them (same layout as `on_insert`), else only the count
    /// is adjusted.
    pub fn on_delete(&mut self, table: &str, columns: &[String], rows: &[Vec<Value>]) {
        let Some(t) = self.tables.get_mut(&table.to_lowercase()) else {
            return;
        };
        t.rows = t.rows.saturating_sub(rows.len() as u64);
        for row in rows {
            for (c, v) in columns.iter().zip(row) {
                if let Some(cs) = t.columns.get_mut(&c.to_lowercase()) {
                    cs.on_delete(v);
                }
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
                        histogram: None,
                        sketch: Vec::new(),
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
                    if bounds.len() != counts.len() {
                        return Err(corrupt("hist bounds/counts mismatch"));
                    }
                    let total = counts.iter().sum();
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
                if hex.len() % 2 != 0 {
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
        check(vec![u64::MAX - 1 as Oid, 3]); // an oid past i64: hashed by rendering
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
        s.on_insert(&Value::I64(10));
        s.on_insert(&Value::Null);
        assert_eq!(s.rows, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.max, Some(Value::I64(10)), "bounds widen on insert");
        let h = s.histogram.as_ref().unwrap();
        assert_eq!(h.total, 4);
        assert_eq!(h.counts.iter().sum::<u64>(), h.total);
        s.on_delete(&Value::I64(2));
        assert_eq!(s.rows, 4);
        assert_eq!(s.histogram.as_ref().unwrap().total, 3);
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
    fn drift_measures_relative_change() {
        let mut sc = StatsCatalog::new();
        sc.rebuild_table(
            "t",
            vec![("a".into(), ColumnStats::build_native(&[1i64, 2]))],
        );
        assert_eq!(sc.table("t").unwrap().drift(), 0.0);
        let cols = vec!["a".to_string()];
        sc.on_insert("t", &cols, &[vec![Value::I64(3)], vec![Value::I64(4)]]);
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
