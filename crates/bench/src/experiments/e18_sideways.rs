//! E18 (extension) — Sideways cracking: self-organizing tuple
//! reconstruction (\[18\], §6.1).
//!
//! `σ(key) → sum(val)` over a two-attribute table, three ways:
//! * full scan of both columns every query;
//! * plain cracking on the key + positional post-projection of the value
//!   through the row-id map (random access);
//! * a sideways cracker map, where the value column is physically
//!   co-reorganized with the key — selection and projection collapse into
//!   one contiguous slice.

use crate::table::TextTable;
use crate::{fmt_secs, timed, Report, Scale};
use mammoth_cracking::{Bound, CrackerColumn, CrackerMap};
use mammoth_workload::{range_query_log, uniform_i64, QueryPattern};

const SIDEWAYS: &str =
    "sideways cracker maps answer select-project faster than cracking plus positional fetches";

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 18, 1 << 22);
    let nq = scale.pick(100, 500);
    let domain = 100_000_000;
    let keys = uniform_i64(n, 0, domain, 71);
    let vals = uniform_i64(n, 0, 1000, 72);
    let queries = range_query_log(nq, domain, 0.001, QueryPattern::Random, 73);

    let mut out = String::new();
    out.push_str(&format!(
        "E18  sigma(key)->sum(val): {nq} range queries over {n} two-attribute rows\n\n"
    ));

    // scan
    let (sum_scan, t_scan) = timed(|| {
        let mut acc = 0i64;
        for q in &queries {
            for i in 0..n {
                if keys[i] >= q.lo && keys[i] < q.hi {
                    acc = acc.wrapping_add(vals[i]);
                }
            }
        }
        acc
    });

    // plain cracking + post-projection through row ids
    let mut cracker = CrackerColumn::new(keys.clone());
    let (sum_crack, t_crack) = timed(|| {
        let mut acc = 0i64;
        for q in &queries {
            let sel = cracker.select(Bound::Incl(q.lo), Bound::Excl(q.hi));
            for &row in &sel.rows {
                acc = acc.wrapping_add(vals[row as usize]); // random fetch
            }
        }
        acc
    });

    // sideways cracker map
    let mut map = CrackerMap::new(keys.clone(), vals.clone());
    let (sum_side, t_side) = timed(|| {
        let mut acc = 0i64;
        for q in &queries {
            acc = acc.wrapping_add(map.select_sum(q.lo, q.hi));
        }
        acc
    });

    assert_eq!(sum_scan, sum_crack);
    assert_eq!(sum_scan, sum_side);

    let mut t = TextTable::new(vec!["strategy", "total time", "vs scan"]);
    t.row(vec![
        "scan both columns".into(),
        fmt_secs(t_scan),
        "-".into(),
    ]);
    t.row(vec![
        "crack key + positional fetch val".into(),
        fmt_secs(t_crack),
        format!("{:.1}x", t_scan / t_crack),
    ]);
    t.row(vec![
        "sideways cracker map".into(),
        fmt_secs(t_side),
        format!("{:.1}x", t_scan / t_side),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nsideways vs plain cracking: {:.1}x (pieces: {})\n",
        t_crack / t_side,
        map.pieces()
    ));
    Report::new(out).wall_clock("§6.1 [18]", SIDEWAYS)
}
