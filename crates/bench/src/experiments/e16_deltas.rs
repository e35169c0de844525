//! E16 — Delta BATs: cheap updates and snapshots (§3.2).
//!
//! "Delta BATs are designed to delay updates to the main columns, and allow
//! a relatively cheap snapshot isolation mechanism (only the delta BATs are
//! copied)." Measured: per-insert cost with buffered deltas vs rebuilding
//! the base per insert; snapshot cost vs copying the column; reader
//! overhead as a function of pending delta size.

use crate::table::TextTable;
use crate::{fmt_secs, ns_per, timed, Scale};
use mammoth_storage::{Bat, DeletionSet, VersionedColumn};
use mammoth_types::Value;
use mammoth_workload::uniform_i64;

pub fn run(scale: Scale) -> String {
    let n = scale.pick(1 << 16, 1 << 20);
    let inserts = scale.pick(1 << 10, 1 << 13);
    let base = uniform_i64(n, 0, 1 << 30, 55);

    let mut out = String::new();
    out.push_str(&format!(
        "E16  Delta updates over a {n}-row column ({inserts} inserts)\n"
    ));
    out.push_str("paper claim: deltas delay main-column maintenance; snapshots copy only\n");
    out.push_str("             the deltas\n\n");

    // a lone column: the deleted positions belong to a table, and this
    // experiment deletes nothing
    let none = DeletionSet::new();

    // delta inserts
    let mut col = VersionedColumn::from_bat(Bat::from_vec(base.clone()));
    let (_, t_delta) = timed(|| {
        for i in 0..inserts {
            col.insert(&Value::I64(i as i64)).unwrap();
        }
    });

    // rebuild-per-insert (the in-place strawman): merge after every insert
    let rebuild_inserts = inserts.min(64); // quadratic — keep it sane
    let mut col2 = VersionedColumn::from_bat(Bat::from_vec(base.clone()));
    let (_, t_rebuild) = timed(|| {
        for i in 0..rebuild_inserts {
            col2.insert(&Value::I64(i as i64)).unwrap();
            col2.merge(&none);
        }
    });

    let mut t = TextTable::new(vec!["update strategy", "per insert", "note"]);
    t.row(vec![
        "delta BAT (buffered)".into(),
        format!("{:.0} ns", ns_per(t_delta, inserts)),
        format!("{} pending rows afterwards", col.pending_inserts()),
    ]);
    t.row(vec![
        "rebuild main column per insert".into(),
        format!("{:.0} ns", ns_per(t_rebuild, rebuild_inserts)),
        format!("measured over {rebuild_inserts} inserts only"),
    ]);
    out.push_str(&t.render());

    // snapshot cost: deltas only vs full copy
    let (snap, t_snap) = timed(|| col.view(&none).snapshot());
    let (copy, t_copy) = timed(|| base.clone());
    out.push_str(&format!(
        "\nsnapshot with {} pending rows: {}   (full column copy: {})\n",
        col.pending_inserts(),
        fmt_secs(t_snap),
        fmt_secs(t_copy),
    ));
    drop(copy);
    assert_eq!(snap.live_len(), n + inserts);

    // reader overhead vs pending delta size
    let mut t = TextTable::new(vec!["pending deltas", "full scan", "ns/row"]);
    for frac in [0usize, 1, 10] {
        let pending = n * frac / 100;
        let mut c = VersionedColumn::from_bat(Bat::from_vec(base.clone()));
        for i in 0..pending {
            c.insert(&Value::I64(i as i64)).unwrap();
        }
        let rows = n + pending;
        let (cnt, secs) = timed(|| c.view(&none).scan().count());
        assert_eq!(cnt, rows);
        t.row(vec![
            format!("{frac}% of base"),
            fmt_secs(secs),
            format!("{:.0}", ns_per(secs, rows)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nverdict: appends cost nanoseconds against the delta; snapshots cost the\n");
    out.push_str("         delta, not the column; merge work is amortized and delayed.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_report() {
        let r = run(Scale::Quick);
        assert!(r.contains("delta BAT"));
        assert!(r.contains("snapshot"));
    }
}
