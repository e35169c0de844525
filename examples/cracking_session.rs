//! Database cracking in action (§6.1).
//!
//! A column of 4M random integers is queried with 200 random range
//! predicates. Three physical designs answer the same workload:
//!
//! * **scan** — no index, every query scans everything;
//! * **sort-first** — pay a full sort before the first query;
//! * **cracking** — no preparation, the queries themselves reorganize the
//!   column; each query only partitions the pieces its bounds fall into.
//!
//! Watch the per-query cost of cracking collapse toward the sorted case
//! while never paying the up-front sort — "the approach does not require
//! knobs".
//!
//! Run with: `cargo run --release --example cracking_session`

use mammoth_cracking::{Bound, CrackerColumn};
use mammoth_workload::{range_query_log, uniform_i64, QueryPattern};
use std::time::Instant;

fn main() {
    let n = 4_000_000;
    let domain = 10_000_000;
    let data = uniform_i64(n, 0, domain, 42);
    let queries = range_query_log(200, domain, 0.001, QueryPattern::Random, 7);

    // -- baseline 1: always scan
    let t0 = Instant::now();
    let mut scan_hits = 0usize;
    for q in &queries {
        scan_hits += data.iter().filter(|&&v| v >= q.lo && v < q.hi).count();
    }
    let scan_total = t0.elapsed();

    // -- baseline 2: full sort first, then binary search
    let t0 = Instant::now();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let sort_cost = t0.elapsed();
    let t0 = Instant::now();
    let mut sorted_hits = 0usize;
    for q in &queries {
        let a = sorted.partition_point(|&v| v < q.lo);
        let b = sorted.partition_point(|&v| v < q.hi);
        sorted_hits += b - a;
    }
    let sorted_queries = t0.elapsed();

    // -- cracking
    let t0 = Instant::now();
    let mut cracker = CrackerColumn::new(data.clone());
    let mut crack_hits = 0usize;
    let mut first10 = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let tq = Instant::now();
        crack_hits += cracker
            .select(Bound::Incl(q.lo), Bound::Excl(q.hi))
            .rows
            .len();
        if i < 10 {
            first10.push(tq.elapsed());
        }
    }
    let crack_total = t0.elapsed();

    assert_eq!(scan_hits, crack_hits);
    assert_eq!(scan_hits, sorted_hits);

    println!("200 range queries over {n} rows — total answer sets agree ({scan_hits} rows)\n");
    println!("scan-always   : {scan_total:>12.2?}  (no preparation, no learning)");
    println!("sort-first    : {sort_cost:>12.2?} sort + {sorted_queries:.2?} queries");
    println!("cracking      : {crack_total:>12.2?}  (preparation-free, adapts per query)");
    let stats = cracker.stats();
    println!(
        "\ncracker state : {} pieces after {} cracks, {} tuples touched in total",
        stats.pieces, stats.cracks_performed, stats.tuples_touched
    );
    println!("\nfirst queries pay, later queries ride (per-query time):");
    for (i, d) in first10.iter().enumerate() {
        println!("  query {:>2}: {:>10.2?}", i + 1, d);
    }
}
