//! E12 — Database cracking (§6.1, \[22\]\[18\]).
//!
//! 1000 random range queries over a large column under three physical
//! designs: always-scan, sort-everything-first, and cracking. Cumulative
//! time is reported at checkpoints — the crack curve must stay below the
//! sort curve early (no up-front investment) and approach it late
//! (convergence), "competitive over upfront complete table sorting".
//! A second table repeats the race with interleaved inserts.

use crate::table::TextTable;
use crate::{fmt_secs, timed, Report, Scale};
use mammoth_cracking::{Bound, CrackerColumn};
use mammoth_workload::{range_query_log, uniform_i64, QueryPattern, RangeQuery};

const TOUCHES_LESS: &str =
    "cracking touches fewer tuples over the query log than scanning the column for every query";
const COMPETITIVE: &str = "cracking is competitive with upfront sorting, without knobs, and keeps its benefits under updates";

/// Answer every query of the log with `answer`, timing each: the total hit
/// count and the cumulative seconds after each query, from `upfront` on.
fn run_log(
    queries: &[RangeQuery],
    upfront: f64,
    mut answer: impl FnMut(&RangeQuery) -> usize,
) -> (usize, Vec<f64>) {
    let (mut hits, mut acc) = (0, upfront);
    let cumulative = queries
        .iter()
        .map(|q| {
            let (h, secs) = timed(|| answer(q));
            hits += h;
            acc += secs;
            acc
        })
        .collect();
    (hits, cumulative)
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 18, 1 << 22);
    let nq = scale.pick(200, 1000);
    let domain = 100_000_000;
    let data = uniform_i64(n, 0, domain, 21);
    let queries = range_query_log(nq, domain, 0.0005, QueryPattern::Random, 22);
    let checkpoints = [1usize, 10, 50, 100, nq];

    let mut out = String::new();
    out.push_str(&format!(
        "E12  {nq} random range queries over {n} rows: cumulative seconds\n\n"
    ));

    let (scan_hits, scan_cum) = run_log(&queries, 0.0, |q| {
        data.iter().filter(|&&v| v >= q.lo && v < q.hi).count()
    });

    // sort first
    let (sorted, sort_cost) = timed(|| {
        let mut s = data.clone();
        s.sort_unstable();
        s
    });
    let (sort_hits, sort_cum) = run_log(&queries, sort_cost, |q| {
        sorted.partition_point(|&v| v < q.hi) - sorted.partition_point(|&v| v < q.lo)
    });
    drop(sorted);

    let mut cracker = CrackerColumn::new(data.clone());
    let (crack_hits, crack_cum) = run_log(&queries, 0.0, |q| {
        cracker.select_count(Bound::Incl(q.lo), Bound::Excl(q.hi))
    });
    assert_eq!(scan_hits, sort_hits);
    assert_eq!(scan_hits, crack_hits);

    let mut t = TextTable::new(vec!["after query", "scan-always", "sort-first", "cracking"]);
    for &c in &checkpoints {
        t.row(vec![
            c.to_string(),
            fmt_secs(scan_cum[c - 1]),
            fmt_secs(sort_cum[c - 1]),
            fmt_secs(crack_cum[c - 1]),
        ]);
    }
    out.push_str(&t.render());
    let st = cracker.stats();
    let scanned = (nq * n) as u64;
    out.push_str(&format!(
        "\ncracker: {} pieces, {} tuples touched across all cracks (scan-always: {scanned})\n",
        st.pieces, st.tuples_touched
    ));

    // under updates: 1% inserts interleaved
    let mut cracker = CrackerColumn::new(data).with_merge_threshold(4096);
    let inserts = uniform_i64(nq * 10, 0, domain, 23);
    let (crack_hits_upd, t_upd) = timed(|| {
        let mut hits = 0usize;
        for (i, q) in queries.iter().enumerate() {
            for k in 0..10 {
                cracker.insert(inserts[i * 10 + k]);
            }
            hits += cracker.select_count(Bound::Incl(q.lo), Bound::Excl(q.hi));
        }
        hits
    });
    out.push_str(&format!(
        "\nunder updates (10 inserts/query): {} total time, {} hits, {} merges\n",
        fmt_secs(t_upd),
        crack_hits_upd,
        cracker.stats().merges
    ));
    Report::new(out)
        .exact("§6.1 [22]", TOUCHES_LESS, st.tuples_touched < scanned)
        .wall_clock("§6.1 [22]", COMPETITIVE)
}
