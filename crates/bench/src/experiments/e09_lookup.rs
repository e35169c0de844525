//! E09 — Positional lookup vs index lookup (§3).
//!
//! "In effect, this use of arrays in virtual memory … provide\[s\] an O(1)
//! positional database lookup mechanism. From a CPU overhead point of view
//! this compares favorably to B-tree lookup into slotted pages." Plus the
//! related-work CSS-tree (Rao & Ross) and plain binary search.

use crate::table::TextTable;
use crate::{ns_per, timed, Report, Scale};
use mammoth_index::{BPlusTree, CssTree};
use mammoth_storage::Bat;
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_volcano::NsmTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const POSITIONAL: &str = "void-head positional lookup is O(1) and compares favorably to B-tree lookup into slotted pages";

/// Time one access path over every `(position, key)` lookup, summing the
/// values it finds.
fn time_path(lookups: &[(u64, i64)], value_at: impl Fn(u64, i64) -> i64) -> (i64, f64) {
    timed(|| {
        lookups.iter().fold(0i64, |acc, &(pos, key)| {
            acc.wrapping_add(value_at(pos, key))
        })
    })
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 16, 1 << 21);
    let probes = scale.pick(1 << 14, 1 << 20);
    // a sorted key column: key = 2*i, so misses are exercised too
    let keys: Vec<i64> = (0..n as i64).map(|i| i * 2).collect();
    let bat = Bat::from_vec(keys.clone());
    let mut rng = StdRng::seed_from_u64(77);
    let lookups: Vec<(u64, i64)> = (0..probes)
        .map(|_| {
            let pos = rng.random_range(0..n as u64);
            (pos, pos as i64 * 2)
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "E09  {probes} random lookups into a {n}-row column\n\n"
    ));

    // positional: oid -> value through the void head
    let data = bat.tail_slice::<i64>().unwrap();
    let (acc_pos, t_pos) = time_path(&lookups, |pos, _| data[bat.find_oid(pos).unwrap()]);

    // binary search on the sorted column
    let (acc_bin, t_bin) = time_path(&lookups, |_, key| keys[keys.partition_point(|&k| k < key)]);

    let css = CssTree::build(keys.clone());
    let (acc_css, t_css) = time_path(&lookups, |_, key| keys[css.get(key).unwrap()]);

    // B+-tree over positions
    let pairs: Vec<(i64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let btree = BPlusTree::bulk_load(&pairs);
    let (acc_bt, t_bt) = time_path(&lookups, |_, key| keys[btree.get(key).unwrap() as usize]);

    // the full traditional path: B+-tree into NSM slotted pages
    let nsm = NsmTable::from_columns(
        TableSchema::new("t", vec![ColumnDef::new("k", LogicalType::I64)]),
        &[keys.iter().map(|&k| Value::I64(k)).collect()],
    )
    .unwrap();
    let page_index = nsm.build_btree(0);
    let (acc_page, t_page) = time_path(&lookups, |_, key| {
        let row = nsm.fetch_encoded(page_index.get(key).unwrap()).unwrap();
        row[0].as_i64().unwrap()
    });

    assert_eq!(acc_pos, acc_bin);
    assert_eq!(acc_pos, acc_css);
    assert_eq!(acc_pos, acc_bt);
    assert_eq!(acc_pos, acc_page);

    let mut t = TextTable::new(vec!["access path", "ns/lookup", "vs positional"]);
    t.row(vec![
        "void-head positional (array)".to_string(),
        format!("{:.1}", ns_per(t_pos, probes)),
        "-".to_string(),
    ]);
    for (name, secs) in [
        ("CSS-tree (array layout)", t_css),
        ("binary search", t_bin),
        ("B+-tree (pointer nodes)", t_bt),
        ("B+-tree into NSM slotted pages", t_page),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", ns_per(secs, probes)),
            format!("{:.1}x slower", secs / t_pos),
        ]);
    }
    out.push_str(&t.render());
    Report::new(out).wall_clock("§3", POSITIONAL)
}
