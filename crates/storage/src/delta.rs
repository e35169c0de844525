//! Delta columns and snapshot isolation.
//!
//! §3.2: "For each table, a BAT with deleted positions is kept. Delta BATs
//! are designed to delay updates to the main columns, and allow a relatively
//! cheap snapshot isolation mechanism (only the delta BATs are copied)."
//!
//! A [`VersionedColumn`] is an immutable, shared base BAT plus a small
//! delta of appended rows; the deleted positions live once per *table*, in
//! a [`DeletionSet`] every column of the table is read through (a
//! [`ColumnView`]). Taking a [`Snapshot`] copies only the deltas; the base
//! is shared through an `Arc`. When the deltas grow past a threshold they
//! are folded into a fresh base.
//!
//! ## Cost contract
//!
//! * An insert appends to the insert delta and a delete adds one position
//!   to the deletion set: both cost what they touch, never the column.
//! * Everything that must see a column *through* its deltas — `sql.bind`,
//!   a fold, a checkpoint image, a snapshot's image — goes through one
//!   routine, [`ColumnView::materialize`]: it copies the typed runs of rows
//!   between deleted positions out of the base and the insert delta (slice
//!   copies for fixed-width types, offset and payload copies for strings),
//!   with no [`Value`] and no per-position set lookup.
//! * Positions are stable until a fold ([`VersionedColumn::merge`])
//!   renumbers them `0..live`.

use crate::bat::Bat;
use crate::heap::TailHeap;
use crate::properties::Properties;
use mammoth_types::{LogicalType, Oid, Result, Value};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The deleted positions of a table (MonetDB's "deleted BAT").
///
/// Kept as disjoint, non-adjacent, half-open runs, so that range deletes
/// — the common shape — cost one entry however many rows they cover, and
/// the live rows come back as the few runs *between* them, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeletionSet {
    /// Run start → run end (exclusive).
    runs: BTreeMap<Oid, Oid>,
    /// Positions covered by `runs`.
    len: usize,
}

impl DeletionSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `pos` deleted. Returns false if it already was.
    pub fn insert(&mut self, pos: Oid) -> bool {
        let before = self.runs.range(..=pos).next_back().map(|(&s, &e)| (s, e));
        if before.is_some_and(|(_, end)| pos < end) {
            return false;
        }
        // a run starting right after `pos` is absorbed
        let end = self.runs.remove(&(pos + 1)).unwrap_or(pos + 1);
        let start = match before {
            Some((start, e)) if e == pos => start,
            _ => pos,
        };
        self.runs.insert(start, end);
        self.len += 1;
        true
    }

    pub fn contains(&self, pos: Oid) -> bool {
        self.runs
            .range(..=pos)
            .next_back()
            .is_some_and(|(_, &end)| pos < end)
    }

    /// Number of deleted positions.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs of positions in `0..total` that are *not* deleted, in
    /// ascending order: what a reader of the table copies.
    pub fn live_runs(&self, total: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut deleted = self.runs.iter();
        let mut next = 0usize;
        std::iter::from_fn(move || {
            while next < total {
                let (live_end, resume) = match deleted.next() {
                    Some((&s, &e)) => ((s as usize).min(total), e as usize),
                    None => (total, total),
                };
                let live = next..live_end;
                next = resume;
                if !live.is_empty() {
                    return Some(live);
                }
            }
            None
        })
    }
}

/// A column with an immutable shared base and an insert delta.
#[derive(Debug, Clone)]
pub struct VersionedColumn {
    base: Arc<Bat>,
    /// Appended rows. Its dense head continues the base's (`seqbase ==
    /// base.len()`), so the oids of a selection over it are table positions.
    inserts: Bat,
}

/// A column as its table's readers see it: through the deletion set.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    col: &'a VersionedColumn,
    deleted: &'a DeletionSet,
}

/// A read-only, point-in-time view of a column.
///
/// Constructed by [`ColumnView::snapshot`]; shares the base heap and
/// owns copies of the (small) deltas, so concurrent writers never disturb it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    col: VersionedColumn,
    deleted: DeletionSet,
}

impl VersionedColumn {
    /// A fresh empty column of type `ty`.
    pub fn new(ty: LogicalType) -> Self {
        VersionedColumn {
            base: Arc::new(Bat::empty(ty)),
            inserts: Bat::dense(0, TailHeap::new(ty)),
        }
    }

    /// Adopt an existing BAT as the base.
    ///
    /// The base is immutable until the next [`VersionedColumn::merge`], so
    /// this is the one cheap moment to establish ground-truth properties:
    /// one O(n) scan here lets every later zero-copy bind carry exact
    /// sortedness and min/max facts for free.
    pub fn from_bat(mut bat: Bat) -> Self {
        bat.compute_props();
        Self::on_base(Arc::new(bat))
    }

    fn on_base(base: Arc<Bat>) -> Self {
        let inserts = Bat::dense(base.len() as Oid, TailHeap::new(base.ty()));
        VersionedColumn { base, inserts }
    }

    pub fn ty(&self) -> LogicalType {
        self.base.ty()
    }

    /// Total positions (live + deleted): base rows then inserted rows.
    pub fn total_len(&self) -> usize {
        self.base.len() + self.inserts.len()
    }

    /// Rows pending in the insert delta.
    pub fn pending_inserts(&self) -> usize {
        self.inserts.len()
    }

    pub fn base(&self) -> &Arc<Bat> {
        &self.base
    }

    /// The insert delta, positioned after the base.
    pub fn inserts(&self) -> &Bat {
        &self.inserts
    }

    /// Append a row to the insert delta; returns its position oid.
    pub fn insert(&mut self, v: &Value) -> Result<Oid> {
        self.inserts.append_value(v)?;
        Ok((self.total_len() - 1) as Oid)
    }

    /// Append a column of values to the insert delta in one typed loop.
    pub fn extend<'a>(&mut self, vals: impl ExactSizeIterator<Item = &'a Value>) -> Result<()> {
        self.inserts.extend_values(vals)
    }

    /// Value at position `pos`, whether or not the row is deleted. Panics
    /// if out of range.
    pub fn value(&self, pos: usize) -> Value {
        match pos.checked_sub(self.base.len()) {
            None => self.base.value_at(pos),
            Some(p) => self.inserts.value_at(p),
        }
    }

    /// This column read through `deleted`.
    pub fn view<'a>(&'a self, deleted: &'a DeletionSet) -> ColumnView<'a> {
        ColumnView { col: self, deleted }
    }

    /// Fold the deltas into a fresh shared base: the live rows, renumbered
    /// `0..live`. The caller owns `deleted` and clears it afterwards.
    ///
    /// This is the "delayed updates to the main columns": readers holding
    /// old snapshots keep the old base alive via their `Arc`.
    pub fn merge(&mut self, deleted: &DeletionSet) {
        let image = self.view(deleted).materialize_shared();
        self.adopt(image);
    }

    /// Install `image` — what [`ColumnView::materialize_shared`] returned
    /// for the current state — as the base, and empty the insert delta.
    pub(crate) fn adopt(&mut self, image: Arc<Bat>) {
        if Arc::ptr_eq(&image, &self.base) {
            return; // no deltas were pending: the image is the base
        }
        let mut base = Arc::try_unwrap(image).unwrap_or_else(|shared| (*shared).clone());
        base.compute_props();
        *self = Self::on_base(Arc::new(base));
    }
}

impl<'a> ColumnView<'a> {
    pub fn ty(&self) -> LogicalType {
        self.col.ty()
    }

    /// Total positions (live + deleted).
    pub fn total_len(&self) -> usize {
        self.col.total_len()
    }

    /// Number of live (non-deleted) rows.
    pub fn live_len(&self) -> usize {
        self.total_len() - self.deleted.len()
    }

    pub fn pending_inserts(&self) -> usize {
        self.col.pending_inserts()
    }

    pub fn base(&self) -> &'a Arc<Bat> {
        &self.col.base
    }

    fn is_clean(&self) -> bool {
        self.col.inserts.is_empty() && self.deleted.is_empty()
    }

    /// Properties of what [`ColumnView::materialize_shared`] would
    /// return, but only when that is the clean shared base (no pending
    /// deltas). With deltas pending the materialized image differs from
    /// the base, so no stable facts exist and callers must assume `Top`.
    pub fn stable_props(&self) -> Option<&'a Properties> {
        self.is_clean().then(|| self.col.base.props())
    }

    /// True if the position exists and is not deleted.
    pub fn is_live(&self, pos: Oid) -> bool {
        (pos as usize) < self.total_len() && !self.deleted.contains(pos)
    }

    /// Value at position `pos`, reading through the deltas. `None` when
    /// deleted or out of range.
    pub fn get(&self, pos: Oid) -> Option<Value> {
        self.is_live(pos).then(|| self.col.value(pos as usize))
    }

    /// Iterate `(position, value)` over live rows.
    pub fn scan(&self) -> impl Iterator<Item = (Oid, Value)> + 'a {
        let col = self.col;
        self.deleted
            .live_runs(self.total_len())
            .flatten()
            .map(move |p| (p as Oid, col.value(p)))
    }

    /// Point-in-time view: copies only the deltas (cheap snapshot isolation).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            col: self.col.clone(),
            deleted: self.deleted.clone(),
        }
    }

    /// Compact live rows into a dense BAT (positions are renumbered 0..n).
    ///
    /// One typed pass: the live runs of the base, then those of the insert
    /// delta, are appended slice by slice.
    pub fn materialize(&self) -> Bat {
        let (base, inserts) = (self.col.base.tail(), self.col.inserts.tail());
        let mut base_runs = Vec::new();
        let mut insert_runs = Vec::new();
        for live in self.deleted.live_runs(self.total_len()) {
            if live.start < base.len() {
                base_runs.push(live.start..live.end.min(base.len()));
            }
            if live.end > base.len() {
                insert_runs.push(live.start.max(base.len()) - base.len()..live.end - base.len());
            }
        }
        let mut tail = TailHeap::with_capacity(self.ty(), self.live_len());
        tail.extend_from_runs(base, &base_runs).expect("same type");
        tail.extend_from_runs(inserts, &insert_runs)
            .expect("same type");
        Bat::dense(0, tail)
    }

    /// Like [`ColumnView::materialize`], but returns the *shared* base
    /// without any copy when there are no pending deltas — the common case
    /// for read-mostly analytics, and what `sql.bind` uses. This is
    /// MonetDB's zero-copy bind: queries read the same heap the table owns.
    pub fn materialize_shared(&self) -> Arc<Bat> {
        if self.is_clean() {
            Arc::clone(&self.col.base)
        } else {
            Arc::new(self.materialize())
        }
    }
}

impl Snapshot {
    fn view(&self) -> ColumnView<'_> {
        self.col.view(&self.deleted)
    }

    pub fn live_len(&self) -> usize {
        self.view().live_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::NativeType;

    /// A column with its own deletion set: a one-column table.
    struct Col {
        col: VersionedColumn,
        deleted: DeletionSet,
    }

    impl Col {
        fn over(bat: Bat) -> Col {
            Col {
                col: VersionedColumn::from_bat(bat),
                deleted: DeletionSet::new(),
            }
        }
        fn view(&self) -> ColumnView<'_> {
            self.col.view(&self.deleted)
        }
        fn insert(&mut self, v: &Value) -> Oid {
            self.col.insert(v).unwrap()
        }
        fn delete(&mut self, pos: Oid) -> bool {
            (pos as usize) < self.col.total_len() && self.deleted.insert(pos)
        }
        fn merge(&mut self) {
            self.col.merge(&self.deleted);
            self.deleted = DeletionSet::new();
        }
    }

    fn col_with(values: &[i32]) -> Col {
        Col::over(Bat::from_vec(values.to_vec()))
    }

    /// The predecessor of [`ColumnView::materialize`], kept as its oracle:
    /// one set lookup, one boxed `Value` and one dynamic push per position.
    fn materialize_oracle(v: ColumnView<'_>) -> Bat {
        let mut out = TailHeap::with_capacity(v.ty(), v.live_len());
        for p in 0..v.total_len() as Oid {
            if v.deleted.contains(p) {
                continue;
            }
            out.push_value(&v.col.value(p as usize)).expect("same type");
        }
        Bat::dense(0, out)
    }

    fn image_bytes(b: &Bat) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::persist::write_bat(b, &mut buf);
        buf
    }

    #[test]
    fn deletion_set_coalesces_runs() {
        let mut d = DeletionSet::new();
        for p in [5, 7, 6, 1, 0, 9] {
            assert!(d.insert(p));
        }
        assert!(!d.insert(6));
        assert_eq!(d.len(), 6);
        assert_eq!(
            d.runs.iter().collect::<Vec<_>>(),
            [(&0, &2), (&5, &8), (&9, &10)]
        );
        assert!(d.contains(7) && !d.contains(8) && !d.contains(4));
        assert_eq!(d.live_runs(12).collect::<Vec<_>>(), [2..5, 8..9, 10..12]);
        assert_eq!(d.live_runs(10).collect::<Vec<_>>(), [2..5, 8..9]);
        assert_eq!(DeletionSet::new().live_runs(3).next(), Some(0..3));
        assert_eq!(DeletionSet::new().live_runs(0).count(), 0);
    }

    #[test]
    fn insert_delete_read_through() {
        let mut c = col_with(&[10, 20, 30]);
        assert_eq!(c.view().get(1), Some(Value::I32(20)));
        let pos = c.insert(&Value::I32(40));
        assert_eq!(pos, 3);
        assert_eq!(c.view().get(3), Some(Value::I32(40)));
        assert!(c.delete(1));
        assert!(!c.delete(1)); // idempotent
        assert!(!c.delete(99)); // out of range
        assert_eq!(c.view().get(1), None);
        assert_eq!(c.view().live_len(), 3);
        assert_eq!(c.view().total_len(), 4);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut c = col_with(&[1, 2, 3]);
        let snap = c.view().snapshot();
        c.insert(&Value::I32(4));
        c.delete(0);
        // the snapshot still sees the original state
        assert_eq!(snap.live_len(), 3);
        assert_eq!(snap.view().get(0), Some(Value::I32(1)));
        assert_eq!(snap.view().get(3), None);
        // while the column moved on
        assert_eq!(c.view().live_len(), 3);
        assert_eq!(c.view().get(0), None);
        assert_eq!(c.view().get(3), Some(Value::I32(4)));
    }

    #[test]
    fn snapshot_shares_base_heap() {
        let mut c = col_with(&[1; 1000]);
        let base_ptr = Arc::as_ptr(c.col.base());
        let snap = c.view().snapshot();
        assert_eq!(Arc::as_ptr(snap.col.base()), base_ptr);
        // merging replaces the writer's base but the snapshot keeps the old
        c.insert(&Value::I32(2));
        c.merge();
        assert_ne!(Arc::as_ptr(c.col.base()), base_ptr);
        assert_eq!(Arc::as_ptr(snap.col.base()), base_ptr);
        assert_eq!(snap.live_len(), 1000);
        assert_eq!(c.view().live_len(), 1001);
    }

    #[test]
    fn merge_compacts_and_renumbers() {
        let mut c = col_with(&[10, 20, 30]);
        c.delete(0);
        c.insert(&Value::I32(40));
        c.merge();
        assert_eq!(c.view().pending_inserts(), 0);
        assert_eq!(c.deleted.len(), 0);
        assert_eq!(c.view().total_len(), 3);
        assert_eq!(
            c.col.inserts().oid_at(0),
            3,
            "the delta continues the new base"
        );
        let m = c.view().materialize();
        assert_eq!(m.tail_slice::<i32>().unwrap(), &[20, 30, 40]);
    }

    #[test]
    fn materialize_shared_is_zero_copy_when_clean() {
        let mut c = col_with(&[1, 2, 3]);
        let base_ptr = Arc::as_ptr(c.col.base());
        let m = c.view().materialize_shared();
        assert_eq!(Arc::as_ptr(&m), base_ptr, "no deltas -> shared Arc");
        // a clean merge keeps the base
        c.merge();
        assert_eq!(Arc::as_ptr(c.col.base()), base_ptr);
        // with deltas it must copy
        c.insert(&Value::I32(4));
        let m = c.view().materialize_shared();
        assert_ne!(Arc::as_ptr(&m), base_ptr);
        assert_eq!(m.tail_slice::<i32>().unwrap(), &[1, 2, 3, 4]);
        c.delete(0);
        let m = c.view().materialize();
        assert_eq!(m.tail_slice::<i32>().unwrap(), &[2, 3, 4]);
    }

    #[test]
    fn base_props_are_eager_and_stable_only_when_clean() {
        let mut c = col_with(&[1, 2, 3]);
        let p = c
            .view()
            .stable_props()
            .expect("clean column has stable props");
        assert!(p.sorted && p.nonil && p.key);
        assert_eq!(p.min, Some(Value::I32(1)));
        assert_eq!(p.max, Some(Value::I32(3)));
        c.insert(&Value::I32(0));
        assert!(
            c.view().stable_props().is_none(),
            "pending delta voids the facts"
        );
        c.merge();
        let p = c.view().stable_props().expect("merge re-establishes facts");
        assert!(!p.sorted, "[1,2,3,0] is not sorted");
        assert_eq!(p.min, Some(Value::I32(0)));
        c.delete(3);
        assert!(
            c.view().stable_props().is_none(),
            "so does a pending delete"
        );
    }

    #[test]
    fn scan_skips_deleted() {
        let mut c = col_with(&[5, 6, 7]);
        c.delete(1);
        let rows: Vec<_> = c.view().scan().collect();
        assert_eq!(rows, vec![(0, Value::I32(5)), (2, Value::I32(7))]);
    }

    #[test]
    fn deletes_of_inserted_rows() {
        let mut c = Col::over(Bat::empty(LogicalType::I32));
        let p0 = c.insert(&Value::I32(1));
        let p1 = c.insert(&Value::I32(2));
        c.delete(p0);
        assert_eq!(c.view().live_len(), 1);
        assert_eq!(c.view().get(p1), Some(Value::I32(2)));
        c.merge();
        let m = c.view().materialize();
        assert_eq!(m.tail_slice::<i32>().unwrap(), &[2]);
    }

    // -- materialize against its retained predecessor ----------------------

    /// `n` cells of logical type `ty`, a nil wherever `salt` says so and
    /// repeated payloads in the string columns (the dedup path).
    fn cells(ty: LogicalType, n: usize, salt: u64) -> Vec<Value> {
        (0..n as u64)
            .map(|i| {
                let x = (i.wrapping_mul(2654435761) ^ salt) % 23;
                if ty != LogicalType::Bool && (i + salt).is_multiple_of(5) {
                    return Value::Null;
                }
                match ty {
                    LogicalType::Bool => Value::Bool(x.is_multiple_of(2)),
                    LogicalType::I8 => Value::I8(x as i8 - 11),
                    LogicalType::I16 => Value::I16(x as i16 * 100 - 1100),
                    LogicalType::I32 => Value::I32(x as i32 * 100_000 - 1_100_000),
                    LogicalType::I64 => Value::I64(x as i64 * (1 << 40) - (11 << 40)),
                    LogicalType::F64 => Value::F64(x as f64 * 0.25 - 2.5),
                    LogicalType::Oid => Value::Oid(x),
                    LogicalType::Str => Value::Str(format!("s{}", x % 7)),
                }
            })
            .collect()
    }

    const ALL_TYPES: [LogicalType; 8] = [
        LogicalType::Bool,
        LogicalType::I8,
        LogicalType::I16,
        LogicalType::I32,
        LogicalType::I64,
        LogicalType::F64,
        LogicalType::Oid,
        LogicalType::Str,
    ];

    fn column_of(ty: LogicalType, base: &[Value], inserts: &[Value]) -> Col {
        let mut heap = TailHeap::new(ty);
        for v in base {
            heap.push_value(v).unwrap();
        }
        let mut c = Col::over(Bat::dense(0, heap));
        for v in inserts {
            c.insert(v);
        }
        c
    }

    /// The new routine, its oracle, and what a fold leaves behind all
    /// agree — on the values, and on the bytes a checkpoint would write.
    fn check_against_oracle(c: &mut Col, what: &str) {
        let want = materialize_oracle(c.view());
        let got = c.view().materialize();
        assert_eq!(got.len(), c.view().live_len(), "{what}");
        assert_eq!(image_bytes(&got), image_bytes(&want), "{what}");
        let shared = c.view().materialize_shared();
        let values = |b: &Bat| (0..b.len()).map(|i| b.value_at(i)).collect::<Vec<_>>();
        assert_eq!(values(&shared), values(&want), "{what}");
        let snap = c.view().snapshot();
        assert_eq!(
            image_bytes(&snap.view().materialize()),
            image_bytes(&want),
            "{what}"
        );
        c.merge();
        assert_eq!(c.view().pending_inserts() + c.deleted.len(), 0);
        let base = Arc::clone(c.col.base());
        assert_eq!(values(&base), values(&want), "{what}: merged base");
        assert_eq!(
            base.props(),
            &base.computed_props(),
            "{what}: merge() leaves compute_props()-exact properties"
        );
        // a string base must keep accepting the strings it already holds
        if let TailHeap::Str(h) = base.tail() {
            let mut h = h.clone();
            let blob = h.blob_bytes();
            for i in 0..h.len() {
                if let Some(s) = h.get(i).map(str::to_string) {
                    h.push(&s);
                }
            }
            assert_eq!(h.blob_bytes(), blob, "{what}: dedup index");
        }
    }

    #[test]
    fn materialize_matches_the_per_position_oracle_on_every_type_and_pattern() {
        const NB: usize = 12;
        const NI: usize = 9;
        let total = (NB + NI) as Oid;
        let patterns: Vec<(&str, usize, usize, Vec<Oid>)> = vec![
            ("none", NB, NI, vec![]),
            ("prefix", NB, NI, (0..5).collect()),
            ("suffix", NB, NI, (total - 4..total).collect()),
            ("alternating", NB, NI, (0..total).step_by(2).collect()),
            ("all", NB, NI, (0..total).collect()),
            (
                "straddling run",
                NB,
                NI,
                (NB as Oid - 3..NB as Oid + 4).collect(),
            ),
            ("whole base", NB, NI, (0..NB as Oid).collect()),
            ("whole delta", NB, NI, (NB as Oid..total).collect()),
            ("inserts only", 0, NI, vec![1, 2, 7]),
            ("inserts only, none deleted", 0, NI, vec![]),
            ("deletes only", NB, 0, vec![0, 4, 5, 11]),
            ("empty", 0, 0, vec![]),
        ];
        for ty in ALL_TYPES {
            for (name, nb, ni, dels) in &patterns {
                let mut c = column_of(ty, &cells(ty, *nb, 3), &cells(ty, *ni, 8));
                for &d in dels {
                    assert!(c.delete(d));
                }
                check_against_oracle(&mut c, &format!("{ty} / {name}"));
            }
        }
    }

    #[test]
    fn materialize_matches_the_oracle_on_a_seeded_sweep() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let ty = ALL_TYPES[(next() % 8) as usize];
            let (nb, ni) = ((next() % 40) as usize, (next() % 40) as usize);
            let mut c = column_of(ty, &cells(ty, nb, next()), &cells(ty, ni, next()));
            let total = (nb + ni) as u64;
            // single positions and runs, so both shapes of the set occur
            for _ in 0..next() % 8 {
                if total == 0 {
                    break;
                }
                let from = next() % total;
                let len = if next() % 2 == 0 { 1 } else { 1 + next() % 9 };
                for p in from..(from + len).min(total) {
                    c.delete(p);
                }
            }
            check_against_oracle(&mut c, &format!("round {round}: {ty} {nb}+{ni}"));
            // and again on top of the merged base, now with a nil-free,
            // possibly sorted base whose properties the merge computed
            for v in cells(ty, (next() % 6) as usize, next()) {
                c.insert(&v);
            }
            if c.view().total_len() > 0 {
                c.delete(next() % c.view().total_len() as u64);
            }
            check_against_oracle(&mut c, &format!("round {round}: second fold"));
        }
    }

    #[test]
    fn nil_sentinels_survive_the_typed_copy() {
        let mut c = column_of(
            LogicalType::I64,
            &[Value::Null, Value::I64(1)],
            &[Value::Null, Value::I64(2)],
        );
        c.delete(1);
        let m = c.view().materialize();
        assert_eq!(m.tail_slice::<i64>().unwrap(), &[i64::NIL, i64::NIL, 2]);
    }

    use proptest::prelude::*;

    proptest! {
        // Snapshot isolation under arbitrary insert/delete/merge
        // interleavings: a snapshot taken at any point keeps scanning the
        // exact image it saw, no matter what the writer does afterwards —
        // including merges, which replace the writer's base out from under
        // the shared Arc.
        #[test]
        fn prop_snapshot_isolated_under_interleavings(
            ops in proptest::collection::vec((0u8..3, 0u32..40), 1..60),
            snap_at in 0usize..60,
        ) {
            let mut c = col_with(&[100, 200, 300]);
            // a parallel oracle of live values, in position-scan order
            let live = |c: &Col| -> Vec<Value> {
                c.view().scan().map(|(_, v)| v).collect()
            };
            let mut snap: Option<(Snapshot, Vec<Value>)> = None;
            for (i, &(op, arg)) in ops.iter().enumerate() {
                if i == snap_at.min(ops.len() - 1) {
                    snap = Some((c.view().snapshot(), live(&c)));
                }
                match op {
                    0 => {
                        c.insert(&Value::I32(arg as i32));
                    }
                    1 => {
                        let total = c.view().total_len() as Oid;
                        if total > 0 {
                            c.delete(arg as Oid % total);
                        }
                    }
                    _ => c.merge(),
                }
            }
            let (snap, frozen) = snap.expect("snapshot taken");
            let seen: Vec<Value> = snap.view().scan().map(|(_, v)| v).collect();
            prop_assert_eq!(&seen, &frozen, "snapshot image must not move");
            prop_assert_eq!(snap.live_len(), frozen.len());
            // and materializing the snapshot yields the same image
            let m = snap.view().materialize();
            let mat: Vec<Value> = (0..m.len()).map(|i| m.value_at(i)).collect();
            prop_assert_eq!(&mat, &frozen);
        }

        // A merge never changes the live image, only the representation.
        #[test]
        fn prop_merge_preserves_live_image(
            ops in proptest::collection::vec((0u8..2, 0u32..30), 0..40),
        ) {
            let mut c = col_with(&[1, 2, 3, 4, 5]);
            for &(op, arg) in &ops {
                match op {
                    0 => {
                        c.insert(&Value::I32(arg as i32));
                    }
                    _ => {
                        let total = c.view().total_len() as Oid;
                        c.delete(arg as Oid % total);
                    }
                }
            }
            let before: Vec<Value> = c.view().scan().map(|(_, v)| v).collect();
            c.merge();
            let after: Vec<Value> = c.view().scan().map(|(_, v)| v).collect();
            prop_assert_eq!(&before, &after);
            prop_assert_eq!(c.view().pending_inserts(), 0);
            prop_assert_eq!(c.deleted.len(), 0);
        }
    }
}
